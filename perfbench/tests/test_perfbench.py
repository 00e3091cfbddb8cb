"""Tests of the benchmark itself: metric names, seeds, and checks that can fail.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import spans
import yblattice as yb
from workloads import (
    Catalog,
    CatalogInputs,
    Chain,
    PassResult,
    catalog_plan,
    digest,
    max_bits,
    round_trip_ok,
)

SMOKE = {
    "catalog": Catalog(samples=2, bound=10),
    "growth-chain": Chain(period=2, steps=5, bound=5),
    "wide-chain": Chain(period=16, steps=1, bound=10),
}

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_workloads_are_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMOKE))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_size_emits_every_named_metric(name, trace):
    result = run.run(name, seed=3, seconds=0.01, trace=trace, workload=SMOKE[name])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = declared("per_layer" if trace else "end_to_end")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == want
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_self_times_add_up_to_traced_wall(name):
    metrics = run.run(name, seed=4, seconds=0.01, trace=True, workload=SMOKE[name])["metrics"]
    self_sum = sum(m["value"] for k, m in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-6)


def test_seed_changes_inputs_but_not_metric_names():
    for name, workload in SMOKE.items():
        assert workload.build(yb, 1) != workload.build(yb, 2)
        a = run.run(name, seed=1, seconds=0.01, trace=False, workload=workload)
        b = run.run(name, seed=2, seconds=0.01, trace=False, workload=workload)
        assert set(a["metrics"]) == set(b["metrics"])


def test_chain_seeds_keep_the_coefficient_growth():
    chain = SMOKE["growth-chain"]
    ends = []
    for seed in (1, 2, 3):
        state = chain.build(yb, seed)
        for _ in range(30):
            state = yb.chains.transfer_step(state)
        ends.append(max_bits(state))
    assert max(ends) - min(ends) <= 8


def test_catalog_plan_matches_the_full_verification_script():
    plan = catalog_plan(yb)
    assert len(plan) == 53
    script = run.ROOT / "scripts" / "run_full_verification.py"
    spec = importlib.util.spec_from_file_location("run_full_verification", script)
    if spec is None or not script.is_file():
        pytest.skip("scripts/run_full_verification.py is not in this checkout")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not hasattr(module, "plan"):
        pytest.skip("the script no longer defines plan()")
    key = [(t.label(), p.value) for t, p in plan]
    assert key == [(t.label(), p.value) for t, p in module.plan()]


def one_sweep_pass(report) -> tuple:
    target, prop = yb.ybmaps.MapId.e1_shaded(), yb.verify.Property.YB
    return CatalogInputs(1, [(target, prop)]), PassResult(0.1, [0.1], [report])


def test_corrupted_sweep_trips_the_catalog_check():
    catalog = Catalog(samples=5, bound=10)
    target, prop = yb.ybmaps.MapId.e1_shaded(), yb.verify.Property.YB
    good = yb.verify.sweep(target, prop, seed=1, n=5, bound=10)
    bad = yb.verify.sweep(target, prop, seed=1, n=5, bound=10, corrupt=True)
    assert catalog.check(yb, *one_sweep_pass(good), None)[0].failed == 0
    assert catalog.check(yb, *one_sweep_pass(bad), None)[0].failed == 1
    exhausted = yb.errors.RetryBudgetExhausted("no valid sample")
    assert catalog.check(yb, *one_sweep_pass(exhausted), None)[0].failed == 1


def test_catalog_check_requires_identical_reports_across_passes():
    catalog = Catalog(samples=5, bound=10)
    target, prop = yb.ybmaps.MapId.e1_shaded(), yb.verify.Property.YB
    first = yb.verify.sweep(target, prop, seed=1, n=5, bound=10)
    _, reference = catalog.check(yb, *one_sweep_pass(first), None)
    again = yb.verify.sweep(target, prop, seed=1, n=5, bound=10)
    shifted = type(first)(first.map, first.property, 5, 4, 4, 1)
    assert catalog.check(yb, *one_sweep_pass(again), reference)[0].failed == 0
    assert catalog.check(yb, *one_sweep_pass(shifted), reference)[0].failed == 1


def tamper(state):
    """The same state with the u value of vertex 0 shifted by one."""
    vertices = list(state.vertices)
    v0 = vertices[0]
    vertices[0] = type(v0)(v0.u + 1, v0.v)
    return type(state)(tuple(vertices), state.alphas, state.periodic)


def test_tampered_state_trips_the_round_trip_check():
    chain = SMOKE["wide-chain"]
    path = chain.build(yb, 5)
    after = yb.chains.transfer_step(path)
    assert round_trip_ok(yb, path, after)
    assert not round_trip_ok(yb, path, tamper(after))
    verdict, reference = chain.check(yb, path, PassResult(0.1, [0.1], [path, after]), None)
    assert verdict.failed == 0
    bad = PassResult(0.1, [0.1], [path, tamper(after)])
    assert chain.check(yb, path, bad, None)[0].failed == 1
    assert chain.check(yb, path, bad, reference)[0].failed == 1


def test_changed_edge_parameters_trip_the_multiset_check():
    chain = SMOKE["wide-chain"]
    path = chain.build(yb, 5)
    after = yb.chains.transfer_step(path)
    alphas = (after.alphas[0] + 1,) + after.alphas[1:]
    moved = type(after)(after.vertices, alphas, True)
    _, reference = chain.check(yb, path, PassResult(0.1, [0.1], [path, after]), None)
    assert chain.check(yb, path, PassResult(0.1, [0.1], [path, moved]), reference)[0].failed == 1


def test_digest_hashes_integers_too_long_for_decimal_text():
    huge = Fraction(10**5000 + 1, 3)
    state = yb.chains.PathState(
        (yb.quadgraph.FieldPoint(huge, Fraction(1)), yb.quadgraph.FieldPoint(Fraction(2), huge)),
        (Fraction(1), Fraction(2)),
        True,
    )
    if hasattr(sys, "get_int_max_str_digits") and sys.get_int_max_str_digits():
        with pytest.raises(ValueError):
            str(huge)
    assert digest(state) != digest(tamper(state))


def test_wrappers_cover_every_binding_and_are_removed():
    rec = spans.Recorder()
    original = yb.quadgraph.evolve_quad
    path = SMOKE["growth-chain"].build(yb, 1)
    undo = spans.install(yb, rec)
    try:
        assert yb.chains.evolve_quad is yb.quadgraph.evolve_quad is not original
        assert yb.verify.apply_map is yb.ybmaps.apply_map
        yb.chains.transfer_step(path)
    finally:
        spans.uninstall(undo)
    assert yb.chains.evolve_quad is original is yb.quadgraph.evolve_quad
    layers = spans.derive(rec.spans)
    assert layers.calls["chains.transfer_step"] == 1
    assert layers.calls["chains.flip"] == 2
    assert layers.calls["chains.PathState.init"] == 2
    assert layers.calls["quadgraph.evolve_quad"] == 2
    assert sum(layers.self_s.values()) == pytest.approx(layers.root_s, rel=1e-9)


def test_spans_survive_the_written_file(tmp_path):
    rec = spans.Recorder()
    inner = rec.wrap(lambda: sum(range(1000)), "inner")
    outer = rec.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    outer()
    path = tmp_path / "spans.bin"
    spans.write(rec.spans, path)
    layers = spans.derive(spans.load(path))
    assert layers.calls == {"outer": 2, "inner": 6}
    assert sum(layers.self_s.values()) == pytest.approx(layers.root_s, rel=1e-9)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
