"""Batch command-line surface: enumerate, count, series, verify, agree.

Exit codes: 0 success / all identities pass, 1 verification failure,
2 usage error, 3 internal error (one ``error: <Type>: <message>`` line on
stderr), 141 stdout closed by its reader (as ``| head`` does; nothing on
stderr, as for any filter cut off by SIGPIPE).  Stdout carries data;
stderr carries diagnostics.  All counts print as decimal strings since
they outgrow 64 bits quickly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from functools import partial
from itertools import chain, islice

from . import counting, genfun, words
from .series import Caps, MultiSeries, catalan_series


def _tally(n: int, *specs: tuple) -> dict[tuple[int, ...], int]:
    return words.tally(n, [words.StatisticSpec(*spec) for spec in specs])


def _v_coeffs(series: MultiSeries, n: int, ms: range) -> dict[tuple[int], int]:
    return {(m,): series.coeff(n, v=m) for m in ms}


def _ones_zeros_rows(n: int, count) -> dict[tuple[int, int], int]:
    # domain of the refined array: m ones >= 1, z zeros >= 2
    return {(m, z): count(n, m, z) for m in range(1, n - 1) for z in range(2, n - m + 1)}


def _ones_zeros_closed(n: int, m: int, z: int) -> int:
    return (counting.binomial(z + m - 1, m) - 1) * counting.a_zeros_closed(n - z, m)


def _letter_genfun(n: int, i: int) -> dict[tuple[int, int], int]:
    # Read at q^k, k = min(i, (n + 1) // 2), as counting.letter_row does: no
    # word of length n has a letter above (n - 1) / 2.
    k = min(i, (n + 1) // 2)
    a4 = genfun.gf_A4(n, k, n + 2)
    a0 = genfun.gf_A0(n, k, n + 2)
    rows = {}
    for t in range(1, n + 1):
        rows[(0, t)] = a0.coeff(n, w=t, q=k)
        for s in range(1, n - t + 1):
            rows[(s, t)] = a4.coeff(n, w=t, v=s, q=k)
    return rows


# Every computation route, as ROUTES[table][source](n, i) -> rows.  Entries
# look layer functions up when called, never at import, so that anything
# wrapping those module attributes later sees every call.
ROUTES = {
    "zeros": {
        "enum": lambda n, i: _tally(n, ("zeros",)),
        "recurrence": lambda n, i: {(m,): counting.a_zeros(n, m) for m in range(1, n + 1)},
        "closed": lambda n, i: {(m,): counting.a_zeros_closed(n, m) for m in range(1, n + 1)},
        "genfun": lambda n, i: _v_coeffs(genfun.gf_A(n), n, range(1, n + 1)),
    },
    "zeros-descents": {
        "enum": lambda n, i: _tally(n, ("zeros",), ("descents",)),
        "recurrence": lambda n, i: {
            (m, k): counting.a_desc(n, m, k) for m in range(1, n + 1) for k in range(0, n)
        },
    },
    "ones": {
        "enum": lambda n, i: _tally(n, ("ones",)),
        "recurrence": lambda n, i: {(m,): counting.b_ones(n, m) for m in range(0, n)},
        # (0,) is a boundary value; the closed sum starts at m = 1
        "closed": lambda n, i: {(0,): 1} | {(m,): counting.b_ones_closed(n, m) for m in range(1, n)},
        "genfun": lambda n, i: _v_coeffs(genfun.gf_B(n), n, range(0, n)),
    },
    "ones-zeros": {
        "enum": lambda n, i: {
            k: c for k, c in _tally(n, ("ones",), ("zeros",)).items() if k[0] >= 1 and k[1] >= 2
        },
        "recurrence": lambda n, i: _ones_zeros_rows(n, counting.b_ones_zeros),
        "closed": lambda n, i: _ones_zeros_rows(n, _ones_zeros_closed),
    },
    "letter": {
        "enum": lambda n, i: _tally(n, ("letter", i), ("zeros",)),
        "recurrence": lambda n, i: {
            (s, t): c for s in range(n) for t, c in enumerate(counting.letter_row(i, n, s))
        },
        "genfun": _letter_genfun,
    },
    "max-letter": {
        "enum": lambda n, i: _tally(n, ("max-letter",)),
        "recurrence": lambda n, i: {(j,): counting.max_letter_count(n, j) for j in range(0, n)},
    },
    "fine": {
        "enum": lambda n, i: {
            (): sum(c for (m,), c in _tally(n, ("zeros",)).items() if m % 2 == 1)
        },
        "recurrence": lambda n, i: {(): counting.fine_number(n)},
        "genfun": lambda n, i: {(): genfun.gf_fine(n).coeff(n)},
    },
}
TABLES = tuple(ROUTES)
SOURCES = tuple(dict.fromkeys(source for routes in ROUTES.values() for source in routes))
FORMATS = ("lines", "csv", "json")

# Every series `catwords series` prints, as name -> builder(order, m, qmax, jmax).
_SERIES = {
    "catalan": lambda order, m, qmax, jmax: catalan_series(Caps.of(order)),
    "A": lambda order, m, qmax, jmax: genfun.gf_A(order),
    "Am": lambda order, m, qmax, jmax: genfun.gf_A_m(m, order),
    "B": lambda order, m, qmax, jmax: genfun.gf_B(order),
    "fine": lambda order, m, qmax, jmax: genfun.gf_fine(order),
    "A-lemma": lambda order, m, qmax, jmax: genfun.gf_A_via_lemma(order, jmax),
    "A4": lambda order, m, qmax, jmax: genfun.gf_A4(order, qmax, jmax),
    "A0": lambda order, m, qmax, jmax: genfun.gf_A0(order, qmax, jmax),
}
SERIES_NAMES = tuple(_SERIES)


def count_table(table: str, n: int, i: int | None, source: str) -> dict[tuple[int, ...], int]:
    """Nonzero rows of the requested table, keyed by statistic tuples.

    Every source fills the same key domain (the one the arrays are
    defined on), so tables are byte-identical across sources.  The one
    row of a scalar table (key `()`) is kept even when it is zero.
    The caller passes an existing route, and i >= 1 for `letter`.
    """
    rows = ROUTES[table][source](n, i)
    return {key: c for key, c in rows.items() if c or key == ()}


def _emit_table(rows: dict[tuple[int, ...], int], fmt: str, meta: dict) -> str:
    ordered = sorted(rows.items())
    if fmt == "json":
        payload = {
            **meta,
            "rows": [{"key": list(k), "count": str(c)} for k, c in ordered],
        }
        return json.dumps(payload, sort_keys=True)
    sep = "," if fmt == "csv" else " "
    return "\n".join(sep.join([*(str(p) for p in key), str(c)]) for key, c in ordered)


def _emit_series(ms: MultiSeries, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(ms.to_jsonable(), sort_keys=True)
    sep = "," if fmt == "csv" else " "
    # "den" stays in the output format, always 1
    return "\n".join(sep.join(map(str, (*exps, c, 1))) for exps, c in ms.terms())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catwords",
        description="Catalan-word enumeration, exact statistics and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Callable, help: str) -> argparse.ArgumentParser:
        # the handler reports usage errors through its own command's parser
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=partial(handler, parser=p))
        return p

    p_enum = command("enumerate", _cmd_enumerate, "list all words of a given length")
    p_enum.add_argument("--n", type=int, required=True, help="word length (>= 1)")
    p_enum.add_argument("--format", choices=FORMATS, default="lines")

    p_count = command("count", _cmd_count, "print a statistic table")
    p_count.add_argument("--table", choices=TABLES, required=True)
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--i", type=int, help="letter for --table letter")
    p_count.add_argument("--source", choices=SOURCES, default="recurrence")
    p_count.add_argument("--format", choices=FORMATS, default="lines")

    p_series = command("series", _cmd_series, "print a generating function")
    p_series.add_argument("--name", choices=SERIES_NAMES, required=True)
    p_series.add_argument("--order", type=int, required=True, help="x truncation order")
    p_series.add_argument("--m", type=int, help="slice index for --name Am")
    p_series.add_argument("--qmax", type=int, help="q cap, required for A4/A0")
    p_series.add_argument("--jmax", type=int, help="sum terms (default order + 2)")
    p_series.add_argument("--format", choices=FORMATS, default="json")

    p_verify = command("verify", _cmd_verify, "check the identities")
    p_verify.add_argument("--identity", choices=("all",) + genfun.IDENTITIES, default="all")
    p_verify.add_argument("--order", type=int, default=20)
    p_verify.add_argument("--qmax", type=int, default=8)
    p_verify.add_argument("--jmax", type=int, help="sum terms (default order + 2)")

    p_agree = command("agree", _cmd_agree, "check that every table's sources agree")
    p_agree.add_argument("--n", type=int, required=True, help="largest word length (>= 1)")
    return parser


# Letters per sys.stdout.write of an `enumerate` listing: a chunk holds
# max(1, _CHUNK_LETTERS // n) words of length n, so its size is bounded
# at any n.
_CHUNK_LETTERS = 1 << 15


# bytes.translate table that turns a letter 0..9 into its ASCII digit.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
# A word of length L has no letter above (L - 1) // 2, so every letter of
# a word this long or shorter is a single digit, and fits in a byte.
_DIGIT_LENGTH = 20


def _encode(letters: bytes | tuple[int, ...], length: int, punct: tuple[str, str, str, str]) -> str:
    """A chunk of words of this length, their letters laid end to end, with
    punct = (before, inner, after, between): before each word, between its
    letters, after it, and between words.  Byte letters, all single
    digits, become ASCII digits by one translate, laid into the chunk's
    punctuation by one slice per letter position, or by one slice in all
    when nothing comes before a word and as much follows its last letter
    as follows each other one, so that the digits are evenly spaced; a
    tuple of letters takes one % format for the whole chunk."""
    before, inner, after, between = punct
    count = len(letters) // length
    if type(letters) is tuple:
        return between.join([before + inner.join(["%d"] * length) + after] * count) % letters
    word = (before + inner.join("0" * length) + after + between).encode()
    out = bytearray(word) * count
    digits = letters.translate(_DIGITS)
    step = 1 + len(inner)
    if before or len(after + between) != len(inner):
        for i in range(length):
            out[len(before) + step * i :: len(word)] = digits[i::length]
    else:  # the digits are evenly spaced through the chunk (lines and csv)
        out[::step] = digits
    del out[len(out) - len(between) :]
    return out.decode()


# format -> (punctuation of _encode, opening, closing).  Chunks are joined
# by the punctuation between words, so a listing is byte for byte one
# str(word) per line (lines, csv) or one print of json.dumps of the whole
# list, which writes a word, a tuple, as an array.
_LISTINGS: dict[str, tuple[tuple[str, str, str, str], str, str]] = {
    "lines": (("", ",", "\n", ""), "", ""),
    "csv": (("", ",", "\n", ""), "", ""),
    "json": (("[", ", ", "]", ", "), "[", "]\n"),
}


def _write_listing(stream: Iterator[Sequence[int]], length: int, fmt: str) -> None:
    """Write the words of the stream, each of this length, in the format.

    Each chunk of max(1, _CHUNK_LETTERS // length) words is flattened to
    its letters in one step as the words stream past, into bytes when
    every letter is a digit and a tuple otherwise, so no more than a word
    or two is alive at once: the listing builds no container of words for
    the cyclic garbage collector to scan, and a chunk's size does not grow
    with the word length."""
    punct, opening, closing = _LISTINGS[fmt]
    flat = bytes if length <= _DIGIT_LENGTH else tuple
    write = sys.stdout.write
    lead = opening
    size = max(1, _CHUNK_LETTERS // length)
    while letters := flat(chain.from_iterable(islice(stream, size))):
        write(lead + _encode(letters, length, punct))
        lead = punct[3]
    write(closing)


def _cmd_enumerate(args, parser) -> int:
    if args.n < 1:
        parser.error("--n must be >= 1")
    _write_listing(words.enumerate_words(args.n), args.n, args.format)
    return 0


def _cmd_count(args, parser) -> int:
    if args.n < 1:
        parser.error("--n must be >= 1")
    if args.source not in ROUTES[args.table]:
        parser.error(f"table {args.table!r} has no {args.source!r} route")
    if args.table == "letter" and (args.i is None or args.i < 1):
        parser.error("--table letter needs --i >= 1")
    if args.table != "letter" and args.i is not None:
        parser.error("--i applies only to --table letter")
    rows = count_table(args.table, args.n, args.i, args.source)
    meta = {"table": args.table, "n": args.n, "source": args.source}
    if args.i is not None:
        meta["i"] = args.i
    print(_emit_table(rows, args.format, meta))
    return 0


def _check_bounds(args, parser) -> None:
    """The usage checks that `series` and `verify` share."""
    if args.order < 1:
        parser.error("--order must be >= 1")
    if args.qmax is not None and args.qmax < 1:
        parser.error("--qmax must be >= 1")
    if args.jmax is not None and args.jmax < 0:
        parser.error("--jmax must be >= 0")


def _cmd_series(args, parser) -> int:
    _check_bounds(args, parser)
    jmax = args.jmax if args.jmax is not None else args.order + 2
    name = args.name
    if name in ("A4", "A0") and args.qmax is None:
        parser.error(f"--name {name} needs --qmax")
    if name == "Am" and (args.m is None or args.m < 1):
        parser.error("--name Am needs --m >= 1")
    ms = _SERIES[name](args.order, args.m, args.qmax, jmax)
    print(_emit_series(ms, args.format))
    return 0


def _cmd_verify(args, parser) -> int:
    _check_bounds(args, parser)
    if args.identity == "all":
        reports = genfun.verify_all(args.order, args.qmax, args.jmax)
    else:
        reports = [genfun.run_identity(args.identity, args.order, args.qmax, args.jmax)]
    payload = [r.to_jsonable() for r in reports]
    print(json.dumps(payload[0] if len(payload) == 1 else payload, sort_keys=True))
    return 0 if all(r.passed for r in reports) else 1


def _agree_report(table: str, n: int, i: int | None) -> dict:
    """Every source's rows of one table, compared at each key any of them
    has; a missing row counts as 0."""
    tables = {source: count_table(table, n, i, source) for source in ROUTES[table]}
    keys = sorted(set().union(*tables.values()))
    report = {"table": table, "n": n, "sources": list(tables), "rows": len(keys), "status": "pass"}
    if i is not None:
        report["i"] = i
    for key in keys:
        values = {source: rows.get(key, 0) for source, rows in tables.items()}
        if len(set(values.values())) > 1:
            report["status"] = "fail"
            report["mismatch"] = {"key": list(key), "values": {s: str(c) for s, c in values.items()}}
            break
    return report


def _cmd_agree(args, parser) -> int:
    if args.n < 1:
        parser.error("--n must be >= 1")
    passed = True
    for n in range(1, args.n + 1):
        for table in TABLES:
            # no word of length n holds (n + 1) // 2, so a larger i gives its table
            for i in range(1, (n + 1) // 2 + 1) if table == "letter" else (None,):
                report = _agree_report(table, n, i)
                print(json.dumps(report, sort_keys=True))
                passed = passed and report["status"] == "pass"
    return 0 if passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Point stdout at devnull, so that the interpreter's last flush of
        # what is still buffered cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except ValueError as exc:  # genfun.StabilityError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
