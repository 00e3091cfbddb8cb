"""The benchmark's workloads: inputs built from a seed, one timed pass, output checks.

A workload object builds its inputs from the imported `yblattice` package
and the run seed, runs one pass over them, and checks a pass's outputs
outside the timed region.  The library only ever receives the generated
inputs; the seed stays in the benchmark.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter


@dataclass
class PassResult:
    """What one pass produced: its wall time, per-operation times and outputs."""

    wall_s: float
    op_s: list
    outputs: list
    error: Exception | None = None


@dataclass
class Verdict:
    """Outcome of checking one pass: operations attempted and failed, and units of work."""

    attempted: int
    failed: int
    work: int


# The sweeps of scripts/run_full_verification.py, frozen here so that a
# later change to the script cannot silently change the workload.
def catalog_plan(yb) -> list:
    MapId, QuadSystem, Property = yb.ybmaps.MapId, yb.quadgraph.QuadSystem, yb.verify.Property
    maps = (
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
    systems = (
        QuadSystem.e1(),
        QuadSystem.e2(),
        QuadSystem.e3(),
        QuadSystem.e4(Fraction(7, 3)),
        QuadSystem.e5(1),
        QuadSystem.vnls(3),
    )
    map_properties = (
        Property.YB,
        Property.UNITARITY,
        Property.COMMUTING_DIAGRAM,
        Property.FUNCTIONAL_RELATIONS,
        Property.NON_QUADRIRATIONAL,
    )
    plan = []
    for map_id in maps:
        for prop in map_properties:
            if prop is Property.NON_QUADRIRATIONAL and map_id.block_size() != 1:
                continue
            plan.append((map_id, prop))
        if map_id.label() == "e1-shaded":
            plan.append((map_id, Property.ZERO_CURVATURE))
    plan.extend((system, Property.CONSISTENCY_3D) for system in systems)
    plan.extend(
        (system, Property.BRAID) for system in (QuadSystem.e1(), QuadSystem.vnls(3))
    )
    return plan


@dataclass(frozen=True)
class CatalogInputs:
    seed: int
    plan: list


@dataclass(frozen=True)
class Catalog:
    """Every (target, property) sweep of the catalog; one operation is one sweep."""

    samples: int
    bound: int

    def build(self, yb, seed: int) -> CatalogInputs:
        return CatalogInputs(seed, catalog_plan(yb))

    def run_pass(self, yb, inputs: CatalogInputs) -> PassResult:
        exhausted = yb.errors.RetryBudgetExhausted
        op_s, reports = [], []
        start = perf_counter()
        for target, prop in inputs.plan:
            began = perf_counter()
            try:
                report = yb.verify.sweep(
                    target, prop, seed=inputs.seed, n=self.samples, bound=self.bound
                )
            except exhausted as err:
                report = err
            op_s.append(perf_counter() - began)
            reports.append(report)
        return PassResult(perf_counter() - start, op_s, reports)

    def report_ok(self, report) -> bool:
        """A sweep passes when every valid sample passed and some sample was valid."""
        if isinstance(report, Exception):
            return False
        return (
            report.samples_passed == report.samples_valid > 0
            and report.samples_valid + report.singular_skipped == self.samples
            and report.first_failure is None
        )

    def check(self, yb, inputs: CatalogInputs, result: PassResult, reference):
        """Check every report; later passes must repeat the first pass byte for byte."""
        failed = 0
        dicts = []
        for k, report in enumerate(result.outputs):
            ok = self.report_ok(report)
            dicts.append(report.to_json_dict() if ok else None)
            if ok and reference is not None and reference[k] != dicts[k]:
                ok = False
            failed += not ok
        work = sum(r.samples_valid for r in result.outputs if not isinstance(r, Exception))
        return Verdict(len(inputs.plan), failed, work), reference or dicts

    def counts(self, result: PassResult) -> dict:
        reports = [r for r in result.outputs if not isinstance(r, Exception)]
        return {
            "verify.samples_valid": sum(r.samples_valid for r in reports),
            "verify.samples_skipped": sum(r.singular_skipped for r in reports),
        }


def coefficients(state):
    """Every rational of a scalar chain state: u and v of each vertex, then the alphas."""
    for vertex in state.vertices:
        yield vertex.u
        yield vertex.v
    yield from state.alphas


def digest(state) -> bytes:
    """Hash of a chain state over the integer bytes of its numerators and denominators.

    Decimal strings are avoided on purpose: CPython refuses to convert
    integers above 4,300 digits to text, and grown chains pass that size.
    """
    h = hashlib.blake2b(digest_size=16)
    for value in coefficients(state):
        for n in (value.numerator, value.denominator):
            raw = n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True)
            h.update(len(raw).to_bytes(4, "big"))
            h.update(raw)
    return h.digest()


def max_bits(state) -> int:
    """Largest numerator or denominator bit length over the vertex values."""
    return max(
        max(abs(c.numerator), c.denominator).bit_length()
        for v in state.vertices
        for c in (v.u, v.v)
    )


def round_trip_ok(yb, before, after) -> bool:
    """Undo one transfer step by replaying its flips in reverse order.

    A transfer step flips positions 1, ..., N (N wrapping to 0) and each
    flip is an involution, so flipping N, ..., 1 must give back `before`.
    """
    n = len(after.vertices)
    state = after
    try:
        for position in range(n, 0, -1):
            state = yb.chains.flip(state, position % n)
    except yb.errors.SingularInput:
        return False
    return state == before


# Every chain starts from the path `random_path(RationalStream(11, bound), period)`,
# the default of scripts/chain_growth.py, so every seed sees the same
# coefficient growth (see Chain).
BASE_SEED = 11


@dataclass(frozen=True)
class Chain:
    """Transfer steps of a periodic e1 chain; one operation is one step.

    The seed does not draw a fresh chain.  Raw random chains grow their
    coefficients at rates that differ about fivefold between seeds, which
    would change the workload's size with the seed.  Instead the seed picks
    a point on the orbit of one base chain under two exact symmetries of
    the e1 face: (u, v) -> (t u, v / t) at every vertex, and a shift of
    every edge parameter by s.  Every seed then has new numbers but the
    same singular set and the same coefficient growth.
    """

    period: int
    steps: int
    bound: int

    def build(self, yb, seed: int):
        qg, chains = yb.quadgraph, yb.chains
        base = chains.random_path(
            yb.exactnum.RationalStream(BASE_SEED, self.bound),
            self.period,
            periodic=True,
        )
        rng = random.Random(f"perfbench:{seed}")
        t = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        system, action = qg.QuadSystem.e1(), qg.scale_opposite(t)
        vertices = tuple(qg.apply_symmetry(system, action, p) for p in base.vertices)
        return chains.PathState(vertices, tuple(a + s for a in base.alphas), True)

    def run_pass(self, yb, path) -> PassResult:
        singular = yb.errors.SingularInput
        op_s, states = [], [path]
        error = None
        start = perf_counter()
        state = path
        for _ in range(self.steps):
            began = perf_counter()
            try:
                state = yb.chains.transfer_step(state)
            except singular as err:
                error = err
                break
            op_s.append(perf_counter() - began)
            states.append(state)
        return PassResult(perf_counter() - start, op_s, states, error)

    def check(self, yb, path, result: PassResult, reference):
        """Check each step: the edge-parameter multiset, and either a reverse
        replay of its flips (first pass) or the first pass's digest (later passes)."""
        states = result.outputs
        alphas = sorted(path.alphas)
        digests = [digest(s) for s in states]
        failed = int(result.error is not None)
        for k in range(1, len(states)):
            ok = sorted(states[k].alphas) == alphas
            if reference is None:
                ok = ok and round_trip_ok(yb, states[k - 1], states[k])
            else:
                ok = ok and k < len(reference) and digests[k] == reference[k]
            failed += not ok
        attempted = len(states) - 1 + (result.error is not None)
        work = (len(states) - 1) * self.period
        return Verdict(attempted, failed, work), reference or digests

    def counts(self, result: PassResult) -> dict:
        return {"chains.max_bits": max_bits(result.outputs[-1])}


WORKLOADS = {
    "catalog": Catalog(samples=100, bound=10),
    "growth-chain": Chain(period=2, steps=120, bound=5),
    "wide-chain": Chain(period=800, steps=2, bound=10),
}
