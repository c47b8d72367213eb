"""The benchmark's workloads: which catwords commands each one runs.

Every operation is one `catwords` command line.  A workload is a fixed
list of operation kinds; one *round* runs each kind once, in an order the
seed shuffles.  The seed also picks the output format where the format
does not change the amount of work (series and count tables are small
beside their computation; the 5 MB enumeration listing is not, so it
always uses the default format).

Sizes come from a budget of about one second per operation on a 2-core
machine, measured on the seed code (verify at order 24 is the exception
at about three seconds).  `TINY` sizes exist for the self-test only.
"""

from __future__ import annotations

from dataclasses import dataclass

FORMATS = ("lines", "csv", "json")


@dataclass(frozen=True)
class Op:
    """One operation kind: a CLI command, its gate and its work unit."""

    kind: str
    argv: tuple[str, ...]
    gate: str  # gate name in gate.GATES
    n: int  # the size the gate needs (word length or x order)
    unit: str  # which gate fact counts as work done
    formats: tuple[str, ...] = ()  # formats the seed chooses from; () = default


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what units_per_ref counts
    ops: tuple[Op, ...]


def _count(table: str, n: int, *extra: str, source: str = "recurrence") -> tuple[str, ...]:
    return ("count", "--table", table, *extra, "--n", str(n), "--source", source)


def _series(name: str, order: int) -> tuple[str, ...]:
    return ("series", "--name", name, "--order", str(order))


def build(tiny: bool = False) -> dict[str, Workload]:
    """All workloads at full size, or at self-test size when `tiny`."""
    s = _TINY if tiny else _FULL
    verify = Workload(
        "verify-suite",
        "identities",
        (Op("verify", ("verify", "--identity", "all", "--order", str(s["verify"])),
            "verify", s["verify"], "identities"),),
    )
    series = Workload(
        "series-deep",
        "coefficients",
        (
            Op("series-B", _series("B", s["B"]), "series-B", s["B"], "terms", FORMATS),
            Op("series-fine", _series("fine", s["fine"]), "series-fine", s["fine"], "terms", FORMATS),
            Op("series-A-lemma", _series("A-lemma", s["lemma"]), "series-A-lemma", s["lemma"],
               "terms", FORMATS),
        ),
    )
    count = Workload(
        "count-tables",
        "rows",
        (
            Op("count-zeros-descents", _count("zeros-descents", s["zd"]), "zeros-descents",
               s["zd"], "rows", FORMATS),
            Op("count-ones", _count("ones", s["ones"]), "ones", s["ones"], "rows", FORMATS),
            Op("count-max-letter", _count("max-letter", s["maxl"]), "tally-sum", s["maxl"],
               "rows", FORMATS),
        ),
    )
    enum = Workload(
        "enumerate-tally",
        "words",
        (
            Op("enumerate", ("enumerate", "--n", str(s["enum"])), "enumerate", s["enum"], "words"),
            Op("tally-zeros-descents", _count("zeros-descents", s["enum"], source="enum"),
               "tally-sum", s["enum"], "words", FORMATS),
            Op("tally-letter-2", _count("letter", s["enum"], "--i", "2", source="enum"),
               "tally-sum", s["enum"], "words", FORMATS),
        ),
    )
    return {w.name: w for w in (verify, series, count, enum)}


_FULL = {"verify": 24, "B": 60, "fine": 300, "lemma": 40, "zd": 40, "ones": 200,
         "maxl": 60, "enum": 13}
_TINY = {"verify": 6, "B": 8, "fine": 20, "lemma": 6, "zd": 8, "ones": 12,
         "maxl": 10, "enum": 6}
