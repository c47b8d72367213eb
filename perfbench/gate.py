"""Correctness gate: checks one operation's output outside the timed region.

Each check uses an independent route or an invariant, never the route
the operation timed: recurrence tables are checked against closed forms,
series coefficients against closed forms, enumerations and tallies
against the Catalan count.  A check returns the work facts it counted
(rows, terms, words, identities); it raises `Rejected` on a wrong answer.

Expected values are computed once per process and reused, and an output
whose bytes were already accepted is accepted again without re-parsing:
the program is deterministic, so identical bytes get identical verdicts.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import cache

# The identity suite as the paper states it, written out here rather than
# read from catwords so that a dropped identity is caught.
IDENTITIES = frozenset((
    "l1", "l2", "co1", "co2", "co3", "co4", "th2", "th3", "th4",
    "cheb-det", "cheb-shift", "cheb-limit", "remark2",
))


class Rejected(Exception):
    """The output is wrong."""


def _parse_rows(text: str, fmt: str | None) -> dict[tuple[int, ...], int]:
    if fmt == "json":
        return {tuple(r["key"]): int(r["count"]) for r in json.loads(text)["rows"]}
    sep = "," if fmt == "csv" else " "
    rows = {}
    for line in text.splitlines():
        *key, count = (int(p) for p in line.split(sep))
        rows[tuple(key)] = count
    return rows


def _parse_series(text: str, fmt: str | None) -> dict[tuple[int, ...], Fraction]:
    if fmt in (None, "json"):
        items = [(tuple(t["exponents"]), t["num"], t["den"]) for t in json.loads(text)]
    else:
        sep = "," if fmt == "csv" else " "
        items = []
        for line in text.splitlines():
            *exps, num, den = line.split(sep)
            items.append((tuple(int(e) for e in exps), num, den))
    return {e: Fraction(int(num), int(den)) for e, num, den in items}


def _same(got: dict, want: dict, what: str) -> None:
    if got != want:
        bad = sorted(set(got) ^ set(want)) or sorted(k for k in got if got[k] != want[k])
        k = bad[0]
        raise Rejected(f"{what}: at {k} got {got.get(k)}, expected {want.get(k)}")


def check_verify(counting, n, text, fmt):
    reports = json.loads(text)
    names = {r["identity"] for r in reports}
    if names != IDENTITIES or len(reports) != len(IDENTITIES):
        raise Rejected(f"verify: reported identities {sorted(names)}")
    failed = [r["identity"] for r in reports if r["status"] != "pass"]
    if failed:
        raise Rejected(f"verify: identities not passing: {failed}")
    return {"identities": len(reports)}


@cache
def _zeros_by_m(counting, n):
    return {(m,): c for m in range(1, n + 1) if (c := counting.a_zeros_closed(n, m))}


def check_zeros_descents(counting, n, text, fmt):
    rows = _parse_rows(text, fmt)
    sums: dict[tuple[int], int] = {}
    for (m, _k), c in rows.items():
        if c <= 0:
            raise Rejected(f"zeros-descents: non-positive row {(m, _k)}")
        sums[(m,)] = sums.get((m,), 0) + c
    _same(sums, _zeros_by_m(counting, n), "zeros-descents row sums vs a_zeros_closed")
    return {"rows": len(rows)}


@cache
def _ones(counting, n):
    want = {(0,): 1}
    want.update({(m,): c for m in range(1, n) if (c := counting.b_ones_closed(n, m))})
    return want


def check_ones(counting, n, text, fmt):
    rows = _parse_rows(text, fmt)
    _same(rows, _ones(counting, n), "ones vs b_ones_closed")
    return {"rows": len(rows)}


def check_tally_sum(counting, n, text, fmt):
    rows = _parse_rows(text, fmt)
    if any(c <= 0 for c in rows.values()):
        raise Rejected("tally: non-positive row")
    total = sum(rows.values())
    if total != counting.catalan_number(n - 1):
        raise Rejected(f"tally: rows sum to {total}, expected C({n - 1})")
    return {"rows": len(rows), "words": total}


def check_enumerate(counting, n, text, fmt):
    prev = None
    count = 0
    for line in text.splitlines():
        word = tuple(int(a) for a in line.split(","))
        if len(word) != n:
            raise Rejected(f"enumerate: word {line!r} does not have length {n}")
        if prev is not None and word <= prev:
            raise Rejected(f"enumerate: {line!r} does not follow its predecessor")
        prev = word
        count += 1
    if count != counting.catalan_number(n - 1):
        raise Rejected(f"enumerate: {count} words, expected C({n - 1})")
    return {"words": count}


@cache
def _series_B(counting, order):
    want = {(n, 0, 0, 0): Fraction(1) for n in range(1, order + 1)}
    for n in range(1, order + 1):
        for m in range(1, n):
            if c := counting.b_ones_closed(n, m):
                want[(n, 0, m, 0)] = Fraction(c)
    return want


@cache
def _series_fine(counting, order):
    # Fine numbers as the odd-m sum of the zeros closed form; the
    # recurrence route (counting.fine_number) needs about 8 s at order 300.
    want = {}
    for n in range(1, order + 1):
        if c := sum(counting.a_zeros_closed(n, m) for m in range(1, n + 1, 2)):
            want[(n, 0, 0, 0)] = Fraction(c)
    return want


@cache
def _series_A(counting, order):
    return {
        (n, 0, m, 0): Fraction(c)
        for n in range(1, order + 1)
        for m in range(1, n + 1)
        if (c := counting.a_zeros_closed(n, m))
    }


def _series_check(expected, what):
    def check(counting, n, text, fmt):
        got = _parse_series(text, fmt)
        _same(got, expected(counting, n), what)
        return {"terms": len(got)}
    return check


GATES = {
    "verify": check_verify,
    "zeros-descents": check_zeros_descents,
    "ones": check_ones,
    "tally-sum": check_tally_sum,
    "enumerate": check_enumerate,
    "series-B": _series_check(_series_B, "series B vs b_ones_closed"),
    "series-fine": _series_check(_series_fine, "series fine vs Fine numbers"),
    "series-A-lemma": _series_check(_series_A, "series A-lemma vs a_zeros_closed"),
}


class Gate:
    """Checks operations; remembers outputs it has already accepted."""

    def __init__(self, counting):
        self._counting = counting
        self._accepted: dict[bytes, dict] = {}

    def check(self, op, fmt: str | None, rc, data: bytes) -> dict:
        """Work facts of a correct operation; raises Rejected otherwise."""
        if rc != 0:
            raise Rejected(f"exit status {rc}")
        digest = hashlib.sha256(data).digest() + repr((op.gate, op.n, fmt)).encode()
        facts = self._accepted.get(digest)
        if facts is None:
            try:
                facts = GATES[op.gate](self._counting, op.n, data.decode(), fmt)
            except (ValueError, KeyError, TypeError) as exc:
                raise Rejected(f"unparseable output: {exc!r}") from exc
            self._accepted[digest] = facts
        return facts
