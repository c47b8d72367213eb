#!/usr/bin/env python3
"""Fast self-test of the benchmark, at tiny sizes (about a minute).

Usage (from the repository root):

    python3 perfbench/selftest.py          # tiny sizes
    python3 perfbench/selftest.py --full   # also the real sizes, one round each

It checks that
  * every run emits exactly the metric names and units BENCHMARK.json lists;
  * the gate counts an injected wrong coefficient and an injected nonzero
    exit status as failed operations;
  * two traced runs with the same seed give identical deterministic counts;
  * in each traced operation the layer self times add up to its time
    (within 1%, or 0.1 ms on the tiny operations).
With --full it also checks, at the real sizes, that the layer each
workload was chosen for has the largest self-time share, and prints the
shares.  Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

LAYER_SELF = ("cli.self_s", "genfun.self_s", "series.self_s", "counting.self_s", "words.self_s")
# The layers each workload was chosen to load most.
CHOSEN = {
    "verify-suite": ("series", "genfun"),
    "series-deep": ("series",),
    "count-tables": ("counting",),
    "enumerate-tally": ("words",),
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def check_names(line: dict, wanted: list[dict], what: str) -> None:
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    numeric = all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    check(got == want and numeric, f"{what}: emits exactly the listed metrics and units")


def bump_last_coefficient(data: bytes) -> bytes:
    """One series coefficient made wrong by one, in any output format."""
    text = data.decode()
    if text.startswith("["):
        items = json.loads(text)
        items[-1]["num"] = str(int(items[-1]["num"]) + 1)
        return json.dumps(items, sort_keys=True).encode()
    lines = text.splitlines()
    sep = "," if "," in lines[-1] else " "
    fields = lines[-1].split(sep)
    fields[-2] = str(int(fields[-2]) + 1)
    lines[-1] = sep.join(fields)
    return "\n".join(lines).encode()


def test_names_and_counts() -> None:
    bench = spec()
    for name in workloads.build(tiny=True):
        line, _ = run.run(name, 7, 0.0, False, tiny=True)
        check(line["correct"] and line["failed"] == 0, f"{name}: tiny run is correct")
        check_names(line, bench["end_to_end"], f"{name} --trace 0")
        first, _ = run.run(name, 7, 0.0, True, tiny=True)
        check_names(first, bench["per_layer"], f"{name} --trace 1")
        second, _ = run.run(name, 7, 0.0, True, tiny=True)
        check_counts_repeat(name, first, second)


def check_counts_repeat(name: str, first: dict, second: dict) -> None:
    counts = [n for n, (_unit, how) in run.PER_LAYER.items() if how in ("count", "max")]
    differ = [n for n in counts
              if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
    check(not differ, f"{name}: {len(counts)} counts repeat exactly in a second traced run"
          + (f" (differ: {differ})" if differ else ""))


def test_self_times_add_up(tiny: bool) -> None:
    for name, wl in workloads.build(tiny).items():
        runner = run.Runner(wl, 3, True)
        runner.run(0.0)
        # The gap is the root wrapper's own entry and exit, a few microseconds
        # that show on the tiny operations, so 0.1 ms is always allowed.
        gaps = [(abs(sum(r.layer[k] for k in LAYER_SELF) - r.op_s), r.op_s)
                for r in runner.records if r.traced]
        worst = max(gap / op_s for gap, op_s in gaps)
        check(all(gap <= max(0.01 * op_s, 1e-4) for gap, op_s in gaps),
              f"{name}: layer self times sum to the traced operation time "
              f"(worst gap {worst:.2%}, {max(g for g, _ in gaps) * 1e6:.0f} us)")
        if not tiny:
            shares = share_of_layers(runner)
            top = max(shares, key=shares.get)
            chosen = sum(shares[layer] for layer in CHOSEN[name])
            others = max(v for k, v in shares.items() if k not in CHOSEN[name])
            print("      shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
            check(chosen > others, f"{name}: {'+'.join(CHOSEN[name])} has the largest "
                  f"self-time share (top single layer: {top})")


def share_of_layers(runner: run.Runner) -> dict[str, float]:
    totals = {k.split(".")[0]: 0.0 for k in LAYER_SELF}
    for r in runner.records:
        if r.traced:
            for k in LAYER_SELF:
                totals[k.split(".")[0]] += r.layer[k]
    whole = sum(totals.values())
    return {k: v / whole for k, v in totals.items()}


def test_gate_counts_injected_faults() -> None:
    wl = workloads.build(tiny=True)["series-deep"]

    def corrupt(op, data):
        return bump_last_coefficient(data) if op.kind == "series-B" else data

    runner = run.Runner(wl, 5, False, mutate=corrupt)
    runner.run(0.0)
    bad = runner.failures()
    rounds = sum(1 for r in runner.records if r.kind == "series-B")
    check(len(bad) == rounds and all(e.startswith("series-B") for e in bad),
          f"gate rejects an injected wrong coefficient ({len(bad)} of {rounds} series-B "
          f"operations failed, none of the others)")
    nonzero = workloads.Workload("bad-exit", "identities", (
        workloads.Op("verify-co1-short", ("verify", "--identity", "co1", "--order", "3",
                                          "--jmax", "1"), "verify", 3, "identities"),
        workloads.Op("count-usage-error", ("count", "--table", "zeros", "--n", "0"),
                     "tally-sum", 1, "rows"),
    ))
    runner = run.Runner(nonzero, 5, False)
    for op in nonzero.ops:
        runner.records.append(runner.execute(op, False))
    errors = runner.failures()
    check(len(errors) == 2 and all("exit status" in e for e in errors),
          f"gate counts injected nonzero exits as failures: {errors}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="also check the real sizes")
    args = parser.parse_args()
    test_names_and_counts()
    test_gate_counts_injected_faults()
    test_self_times_add_up(tiny=True)
    if args.full:
        test_self_times_add_up(tiny=False)
        for name in workloads.build():
            first, _ = run.run(name, 7, 0.0, True)
            second, _ = run.run(name, 7, 0.0, True)
            check_counts_repeat(f"{name} (full size)", first, second)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
