#!/usr/bin/env python3
"""Sweep every verifiable property across the whole map catalog.

Prints one line per (target, property) pair with the sample accounting,
then a summary, and exits nonzero if anything failed.  All checks use
exact rational arithmetic; runtime is a few seconds at the defaults.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from yblattice.errors import RetryBudgetExhausted
from yblattice.quadgraph import QuadSystem
from yblattice.verify import Property, sweep
from yblattice.ybmaps import MapId

MAPS = (
    MapId.e1_shaded(),
    MapId.e1_blank(),
    MapId.e2(),
    MapId.e3(),
    MapId.e4(Fraction(7, 3)),
    MapId.e4_eps0_scaling(),
    MapId.e4_eps0_joint(),
    MapId.e5(),
    MapId.vnls(3),
)

SYSTEMS = (
    QuadSystem.e1(),
    QuadSystem.e2(),
    QuadSystem.e3(),
    QuadSystem.e4(Fraction(7, 3)),
    QuadSystem.e5(1),
    QuadSystem.vnls(3),
)

MAP_PROPERTIES = (
    Property.YB,
    Property.UNITARITY,
    Property.COMMUTING_DIAGRAM,
    Property.FUNCTIONAL_RELATIONS,
    Property.NON_QUADRIRATIONAL,
)


def plan():
    for map_id in MAPS:
        for prop in MAP_PROPERTIES:
            yield map_id, prop
        if map_id.label() == "e1-shaded":
            yield map_id, Property.ZERO_CURVATURE
    for system in SYSTEMS:
        yield system, Property.CONSISTENCY_3D
    for system in (QuadSystem.e1(), QuadSystem.vnls(3)):
        yield system, Property.BRAID


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
