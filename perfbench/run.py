#!/usr/bin/env python3
"""Benchmark of yblattice: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The library is imported from the
checkout's `src/`.  Set-up (import, then building the inputs) is timed
a few times before the first pass and once more after every pass, and
reported as the median.  Whole passes of the workload run one after
another until `--seconds` of pass time is spent.  Every output is
checked outside the timed region.

With `--trace 0` the last stdout line holds the end-to-end metrics.  With
`--trace 1`, each round runs one untraced pass and then the same pass with
spans recorded; the per-layer metrics are derived from the spans, which
are written to `.perfbench/spans-<workload>.bin`.  See NOTES.md for the
workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# set-ups timed before the first pass; one more follows every untraced pass
SETUP_REPEATS = 5

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MiB",
}

# self time of every wrapped function not named in TRACED
OTHER = "trace.other"

TRACED = (
    "exactnum.sample_rational",
    "exactnum.format_rational",
    "ybmaps.apply_map",
    "ybmaps.map_multipliers",
    "ybmaps.functional_relation_residuals",
    "quadgraph.evolve_quad",
    "quadgraph.quad_rhs",
    "quadgraph.check_consistency_3d",
    "reduction.SquareSolution.solve",
    "reduction.check_commuting_diagram",
    "reduction.invariants_from_square",
    "lax.check_zero_curvature",
    "lax.lax_matrix",
    "chains.flip",
    "chains.PathState.init",
    "chains.transfer_step",
    "chains.check_braid",
    "chains.check_commutation",
    "chains.random_path",
    "verify.sweep",
    "verify.check_yb_relation",
    "verify.check_unitarity",
    spans.ROOT,
    OTHER,
)

# counts taken from a traced pass's outputs rather than from its spans
COUNTERS = {
    "verify.samples_valid": "count",
    "verify.samples_skipped": "count",
    "chains.max_bits": "bits",
}

LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in TRACED},
    **{f"{name}.self_s": "s" for name in TRACED},
    "verify.draws_per_valid": "ratio",
    **COUNTERS,
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


class SetupError(RuntimeError):
    pass


def import_library():
    """Import yblattice afresh from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "yblattice" or n.startswith("yblattice.")]:
        del sys.modules[name]
    yb = importlib.import_module("yblattice")
    if not Path(yb.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"yblattice was imported from {yb.__file__}, not from src/")
    return yb


def set_up(workload, seed: int) -> tuple:
    """Import, then build the inputs; returns both and the time taken.

    Garbage left by earlier set-ups and passes is collected first, so
    that no set-up pays for it.
    """
    gc.collect()
    began = perf_counter()
    yb = import_library()
    inputs = workload.build(yb, seed)
    return yb, inputs, perf_counter() - began


def percentile(values: list, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Tally:
    """Operations attempted and failed over every pass of the run."""

    def __init__(self, workload, yb, inputs) -> None:
        self.workload, self.yb, self.inputs = workload, yb, inputs
        self.reference = None
        self.attempted = self.failed = 0

    def check(self, result):
        verdict, self.reference = self.workload.check(
            self.yb, self.inputs, result, self.reference
        )
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        return verdict


def measure(workload, yb, inputs, seconds: float, seed: int, setups: list) -> tuple:
    """Untraced passes until `seconds` of pass time is spent.

    One more set-up is timed after every pass, so that the set-up times,
    like the pass times, are spread over the whole run.  Its import and
    inputs are dropped; the passes keep using `yb` and `inputs`.
    """
    tally = Tally(workload, yb, inputs)
    walls, rates, op_s = [], [], []
    while not walls or sum(walls) < seconds:
        result = workload.run_pass(yb, inputs)
        verdict = tally.check(result)
        walls.append(result.wall_s)
        rates.append(verdict.work / result.wall_s)
        op_s.extend(result.op_s)
        setups.append(set_up(workload, seed)[2])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "work_per_s": statistics.median(rates),
        "op_ms.p50": 1000 * percentile(op_s, 50),
        "op_ms.p90": 1000 * percentile(op_s, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "set-ups": len(setups),
        "op samples": len(op_s),
        "pass s": [round(w, 3) for w in walls],
    }
    return tally, metrics, E2E_UNITS, notes


def measure_traced(workload, yb, inputs, seconds: float, out: Path) -> tuple:
    tally = Tally(workload, yb, inputs)
    rec = spans.Recorder()
    traced_pass = rec.wrap(workload.run_pass, spans.ROOT)
    untraced_s = traced_s = 0.0
    passes = 0
    counts = dict.fromkeys(COUNTERS, 0)
    while not passes or untraced_s + traced_s < seconds:
        plain = workload.run_pass(yb, inputs)
        tally.check(plain)
        undo = spans.install(yb, rec)
        try:
            traced = traced_pass(yb, inputs)
        finally:
            spans.uninstall(undo)
        tally.check(traced)
        untraced_s += plain.wall_s
        traced_s += traced.wall_s
        passes += 1
        for key, value in workload.counts(traced).items():
            counts[key] += value

    out.parent.mkdir(exist_ok=True)
    spans.write(rec.spans, out)
    layers = spans.derive(spans.load(out))

    metrics = {f"{name}.{kind}": 0.0 for name in TRACED for kind in ("calls", "self_s")}
    for name, calls in layers.calls.items():
        key = name if name in TRACED else OTHER
        metrics[f"{key}.calls"] += calls / passes
        metrics[f"{key}.self_s"] += layers.self_s[name] / passes
    for key, value in counts.items():
        metrics[key] = value / passes
    valid = metrics["verify.samples_valid"]
    draws = metrics["exactnum.sample_rational.calls"]
    metrics["verify.draws_per_valid"] = draws / valid if valid else 0.0
    metrics["trace.wall_s"] = layers.root_s / passes
    metrics["trace.overhead_frac"] = layers.root_s / untraced_s - 1
    metrics["trace.spans"] = sum(layers.calls.values()) / passes
    self_sum = sum(metrics[f"{name}.self_s"] for name in TRACED)
    notes = {
        "traced passes": passes,
        "self times / traced wall": round(self_sum / metrics["trace.wall_s"], 9),
        "spans file": str(out.relative_to(ROOT)),
    }
    return tally, metrics, LAYER_UNITS, notes


def run(name: str, seed: int, seconds: float, trace: bool, workload=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    workload = workload or WORKLOADS[name]
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    setups = [set_up(workload, seed)[2] for _ in range(SETUP_REPEATS - 1)]
    yb, inputs, last = set_up(workload, seed)
    setups.append(last)
    if trace:
        out = ROOT / ".perfbench" / f"spans-{name}.bin"
        tally, metrics, units, notes = measure_traced(workload, yb, inputs, seconds, out)
    else:
        tally, metrics, units, notes = measure(workload, yb, inputs, seconds, seed, setups)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "notes": notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "yblattice" / "__init__.py").is_file():
        print(f"perfbench: no yblattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, SetupError) as err:
        print(f"perfbench: cannot import yblattice: {err}", file=sys.stderr)
        return 2
    notes = result.pop("notes")
    print(f"workload {args.workload}, seed {args.seed}, "
          + ", ".join(f"{k} {v}" for k, v in notes.items()))
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:44s} {metric['value']:16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
