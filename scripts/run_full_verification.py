#!/usr/bin/env python3
"""Sweep every verifiable property across the whole map catalog.

Prints one line per (target, property) pair with the sample accounting,
then a summary, and exits nonzero if anything failed.  The pairs are
`yblattice.verify.plan()`.  All checks use exact rational arithmetic;
runtime is a few seconds at the defaults.
"""

from __future__ import annotations

import argparse
import sys
import time

from yblattice.errors import RetryBudgetExhausted
from yblattice.verify import plan, sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--bound", type=int, default=10)
    args = parser.parse_args()

    failures = 0
    runs = 0
    started = time.perf_counter()
    for target, prop in plan():
        runs += 1
        try:
            report = sweep(target, prop, seed=args.seed, n=args.samples, bound=args.bound)
        except RetryBudgetExhausted as err:
            failures += 1
            print(f"{target.label():18s} {prop.value:22s} EXHAUSTED  {err}")
            continue
        verdict = "ok" if report.all_passed() else "FAILED"
        failures += verdict != "ok"
        print(
            f"{report.map:18s} {prop.value:22s} {verdict:9s} "
            f"valid={report.samples_valid:4d} skipped={report.singular_skipped:3d}"
        )
    elapsed = time.perf_counter() - started
    print(f"\n{runs} sweeps, {failures} failures, {elapsed:.2f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
