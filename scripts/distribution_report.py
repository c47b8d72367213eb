#!/usr/bin/env python3
"""Print the word-statistic distributions computed by every available
route, side by side, so disagreements would be obvious at a glance.

Usage: python scripts/distribution_report.py [--max-n 10]
"""

import argparse
import time

from catwords import counting as ct
from catwords.cli import ROUTES, TABLES, count_table


def report(table: str, n: int, i=None) -> None:
    rows = {}
    for source in ROUTES[table]:
        t0 = time.perf_counter()
        rows[source] = count_table(table, n, i, source)
        dt = (time.perf_counter() - t0) * 1000
        print(f"  {source:10s} {len(rows[source]):4d} rows  {dt:8.1f} ms")
    reference = next(iter(rows.values()))
    agree = all(r == reference for r in rows.values())
    print(f"  -> all routes agree: {agree}")
    if not agree:
        raise SystemExit(f"route disagreement in table {table} at n={n}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=10)
    args = parser.parse_args()

    for n in range(2, args.max_n + 1):
        total = ct.catalan_number(n - 1)
        print(f"n = {n}  ({total} words)")
        for table in TABLES:
            i = 2 if table == "letter" else None
            print(f" {table}:" if i is None else f" {table} (i={i}):")
            report(table, n, i)
        print()


if __name__ == "__main__":
    main()
