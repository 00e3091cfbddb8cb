#!/usr/bin/env python3
"""Track coefficient growth of a periodic chain under transfer sweeps.

Iterates a short periodic chain and records the largest numerator or
denominator bit length at checkpoints.  The sizes grow polynomially
(roughly quadratically in the sweep count: doubling the sweeps shows a
size ratio near 4), the classic signature of an integrable evolution;
an exponentially growing map would overflow this measurement almost
immediately.  Arithmetic cost rises with coefficient size, so large
--sweeps values get slow: 200 sweeps of a period-2 chain (about 100,000-bit
coefficients) take 21-23 s on Python 3.11 on a shared 2-core machine.
"""

from __future__ import annotations

import argparse
import sys
import time

from yblattice.chains import random_path, transfer_step
from yblattice.errors import SingularInput
from yblattice.exactnum import RationalStream


def state_bits(state) -> int:
    return max(
        max(abs(c.numerator), c.denominator).bit_length()
        for v in state.vertices
        for c in (v.u, v.v)
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--period", type=int, default=2)
    parser.add_argument("--sweeps", type=int, default=120)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--bound", type=int, default=5)
    parser.add_argument(
        "--checkpoints", type=int, default=8, help="number of evenly spaced size reports"
    )
    args = parser.parse_args()
    if args.period < 2 or args.sweeps < 1:
        parser.error("need --period >= 2 and --sweeps >= 1")

    stream = RationalStream(args.seed, args.bound)
    state = random_path(stream, args.period, periodic=True)
    marks = sorted({max(1, round(args.sweeps * k / args.checkpoints)) for k in range(1, args.checkpoints + 1)})

    print(f"period={args.period} seed={args.seed} bound={args.bound}")
    print(f"{'sweep':>8} {'max bits':>10} {'elapsed s':>10}")
    started = time.perf_counter()
    sizes = {}
    for sweep in range(1, args.sweeps + 1):
        try:
            state = transfer_step(state)
        except SingularInput as err:
            print(f"singular at sweep {sweep}: {err}", file=sys.stderr)
            return 1
        if sweep in marks:
            sizes[sweep] = state_bits(state)
            print(f"{sweep:8d} {sizes[sweep]:10d} {time.perf_counter() - started:10.2f}")

    half, full = args.sweeps // 2, args.sweeps
    if half in sizes and full in sizes and sizes[half] > 0:
        ratio = sizes[full] / sizes[half]
        print(f"\nsize ratio over the last doubling: {ratio:.2f} (quadratic growth gives ~4)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
