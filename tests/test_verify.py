from __future__ import annotations

import copy
import dataclasses
import json
from fractions import Fraction

import pytest

from yblattice import chains, verify
from yblattice.errors import RetryBudgetExhausted
from yblattice.exactnum import gamma_pair_from_slope
from yblattice.quadgraph import FieldPoint, QuadSystem
from yblattice.verify import (
    CATALOG_MAPS,
    CATALOG_SYSTEMS,
    CORRUPTIBLE,
    MAP_PROPERTIES,
    Property,
    TripleState,
    check_yb_relation,
    sweep,
)
from yblattice.ybmaps import MapId, YBPoint, apply_inverse, apply_map


def test_property_values_are_the_cli_names():
    assert {p.value for p in Property} == {
        "yb",
        "unitarity",
        "consistency-3d",
        "braid",
        "zero-curvature",
        "commuting-diagram",
        "functional-relations",
        "non-quadrirational",
    }


def test_triple_state_validates_shapes():
    a = YBPoint.of(Fraction(1), Fraction(2))
    vec = YBPoint((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))
    with pytest.raises(ValueError):
        TripleState(a, a, vec, Fraction(1), Fraction(2), Fraction(3))


def test_yb_relation_on_a_direct_triple():
    t = TripleState(
        YBPoint.of(Fraction(2), Fraction(1)),
        YBPoint.of(Fraction(3), Fraction(5)),
        YBPoint.of(Fraction(1), Fraction(4)),
        Fraction(1),
        Fraction(0),
        Fraction(1, 2),
    )
    assert check_yb_relation(MapId.e1_shaded(), t)
    assert not check_yb_relation(MapId.e1_shaded(), t, corrupt=True)


def test_unitarity_on_a_direct_pair():
    x = YBPoint.of(Fraction(1), Fraction(4))
    y = YBPoint.of(Fraction(2), Fraction(7))
    p, q = apply_map(MapId.e3(), x, y, Fraction(1), Fraction(0))
    assert apply_inverse(MapId.e3(), p, q, Fraction(1), Fraction(0)) == (x, y)


@pytest.mark.parametrize("prop", sorted(CORRUPTIBLE, key=lambda p: p.value))
def test_corruptible_properties_have_working_fixtures(prop):
    target = MapId.e1_shaded()
    report = sweep(target, prop, n=10, corrupt=True)
    assert report.samples_valid > 0
    assert report.samples_passed == 0
    assert not report.all_passed()
    assert report.first_failure is not None


def test_report_accounting():
    report = sweep(MapId.e3(), Property.YB, seed=1, n=7)
    assert report.samples_requested == 7
    assert report.samples_valid + report.singular_skipped == 7
    assert report.samples_passed <= report.samples_valid
    payload = json.loads(report.to_json())
    assert list(payload) == ["map", "property", "requested", "valid", "passed", "skipped"]
    assert payload["map"] == "e3"
    assert payload["property"] == "yb"


def test_reports_are_reproducible():
    first = sweep(MapId.e5(), Property.UNITARITY, seed=6, n=25)
    second = sweep(MapId.e5(), Property.UNITARITY, seed=6, n=25)
    assert first.to_json() == second.to_json()


def test_first_failure_serializes_the_inputs():
    report = sweep(MapId.e2(), Property.YB, n=5, corrupt=True)
    payload = json.loads(report.to_json())
    assert "first_failure" in payload
    dump = payload["first_failure"]
    assert {"x", "y", "z", "beta1", "beta2", "beta3"} <= set(dump)
    # rationals serialize as canonical p/q strings
    assert all(isinstance(v, str) for v in dump["x"]["first"])


def test_zero_valid_samples_exhausts_the_budget():
    with pytest.raises(RetryBudgetExhausted):
        sweep(
            MapId.e1_shaded(),
            Property.UNITARITY,
            seed=4,
            n=1,
            bound=2,
            retry_budget=1,
        )


def test_target_and_property_mismatches():
    with pytest.raises(ValueError):
        sweep(QuadSystem.e1(), Property.YB, n=1)
    with pytest.raises(ValueError):
        sweep(MapId.e2(), Property.ZERO_CURVATURE, n=1)
    with pytest.raises(ValueError):
        sweep(QuadSystem.e1(), Property.CONSISTENCY_3D, n=1, corrupt=True)
    with pytest.raises(ValueError):
        sweep(QuadSystem.e1(), Property.BRAID, n=1, first_param=Fraction(1))


def test_consistency_accepts_map_targets_through_their_parents():
    report = sweep(MapId.e1_blank(), Property.CONSISTENCY_3D, n=10)
    assert report.all_passed()
    assert report.map == "e1-blank"


def test_pinned_first_parameter_appears_in_every_sample():
    pinned = gamma_pair_from_slope(Fraction(3, 2), 1)
    report = sweep(MapId.e5(), Property.YB, n=10, first_param=pinned)
    assert report.all_passed()


@pytest.mark.parametrize("map_id", CATALOG_MAPS, ids=lambda m: m.label())
def test_all_map_properties_pass_small_sweeps(map_id):
    for prop in MAP_PROPERTIES:
        if prop is Property.NON_QUADRIRATIONAL and map_id.block_size() != 1:
            continue
        report = sweep(map_id, prop, n=15)
        assert report.all_passed(), report.to_json()


def test_braid_sweep_covers_both_field_kinds():
    for system in (QuadSystem.e1(), QuadSystem.vnls(2)):
        report = sweep(system, Property.BRAID, n=10)
        assert report.all_passed()


@pytest.mark.parametrize("system", CATALOG_SYSTEMS, ids=lambda s: s.label())
def test_braid_sweep_fails_on_a_corrupted_face(monkeypatch, corrupted_face, system):
    monkeypatch.setattr(chains, "evolve_quad", corrupted_face)
    report = sweep(system, Property.BRAID, seed=7, n=20)
    assert report.samples_valid > 0
    assert report.samples_passed < report.samples_valid
    assert "path" in report.to_json_dict()["first_failure"]


def with_shifted_face(system: QuadSystem) -> QuadSystem:
    """A copy of the system whose spec's face adds 1 to every component of u12."""
    face = system.spec.face

    def shifted(target, data):
        f = face(target, data)
        u = tuple(c + 1 for c in f.u) if isinstance(f.u, tuple) else f.u + 1
        return FieldPoint(u, f.v)

    mutant = copy.copy(system)
    object.__setattr__(mutant, "spec", dataclasses.replace(system.spec, face=shifted))
    return mutant


@pytest.mark.parametrize("system", CATALOG_SYSTEMS, ids=lambda s: s.label())
@pytest.mark.parametrize("prop", [Property.BRAID, Property.CONSISTENCY_3D], ids=lambda p: p.value)
def test_family_laws_read_the_face_of_their_target(system, prop):
    assert sweep(system, prop, n=10).all_passed()
    report = sweep(with_shifted_face(system), prop, n=10)
    assert report.samples_valid > 0
    assert report.samples_passed == 0


def _identity_map(map_id, x, y, beta1, beta2, *, corrupt=False):
    return x, y


# failing dumps of the properties without a --corrupt fixture, forced by a
# patched check; no golden file records their keys
UNCOVERED_DUMPS = (
    (QuadSystem.e1(), Property.CONSISTENCY_3D, chains, "evolve_quad", None,
     ["f", "f1", "f2", "f3", "beta1", "beta2", "beta3"]),
    (QuadSystem.vnls(2), Property.BRAID, chains, "evolve_quad", None, ["path"]),
    (MapId.e1_shaded(), Property.NON_QUADRIRATIONAL, verify, "apply_map",
     _identity_map, ["x", "y", "beta1", "beta2", "replaced_block", "replacement"]),
)


@pytest.mark.parametrize(
    "target,prop,module,name,patch,keys", UNCOVERED_DUMPS, ids=[c[1].value for c in UNCOVERED_DUMPS]
)
def test_failure_dump_keys_of_uncovered_properties(
    monkeypatch, corrupted_face, target, prop, module, name, patch, keys
):
    monkeypatch.setattr(module, name, patch or corrupted_face)
    report = sweep(target, prop, seed=5, n=10)
    assert report.samples_passed < report.samples_valid
    assert list(report.to_json_dict()["first_failure"]) == keys
