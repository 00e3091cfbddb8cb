from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from draws import draw_point, param_maker
from yblattice import chains
from yblattice.errors import SingularInput
from yblattice.exactnum import GammaPair, Rational, RationalStream, gamma_pair_from_slope
from yblattice.verify import CATALOG_MAPS
from yblattice.ybmaps import (
    MAP_SPECS,
    MapId,
    MapTag,
    YBPoint,
    apply_inverse,
    apply_map,
    functional_relation_residuals,
    map_multipliers,
    p_independent_block,
    replace_block,
)


def draw_case(map_id: MapId, stream: RationalStream):
    make = param_maker(map_id, stream)
    return draw_point(map_id, stream), draw_point(map_id, stream), make(), make()


def test_point_makes_fractions_and_keeps_given_ones():
    a, b = Fraction(3, 4), Fraction(-5, 2)
    point = YBPoint((a, 2), (True, b))
    assert point == YBPoint((Fraction(3, 4), Fraction(2)), (Fraction(1), Fraction(-5, 2)))
    assert [type(c) for c in point.first + point.second] == [
        Fraction, Rational, Rational, Fraction
    ]
    assert point.first[0] is a and point.second[1] is b


X0 = YBPoint.of(Fraction(2), Fraction(1))
Y0 = YBPoint.of(Fraction(3), Fraction(5))
P0 = YBPoint.of(Fraction(9, 2), Fraction(10, 3))
Q0 = YBPoint.of(Fraction(4, 3), Fraction(8, 3))


def test_worked_example_shaded_invariants():
    m = map_multipliers(MapId.e1_shaded(), X0, Y0, Fraction(1), Fraction(0))
    assert m == {"P": Fraction(2, 3)}
    assert apply_map(MapId.e1_shaded(), X0, Y0, Fraction(1), Fraction(0)) == (P0, Q0)


def test_worked_example_difference_family():
    x = YBPoint.of(Fraction(1), Fraction(4))
    y = YBPoint.of(Fraction(2), Fraction(7))
    m = map_multipliers(MapId.e3(), x, y, Fraction(1), Fraction(0))
    assert m == {"P": Fraction(6, 5)}
    p, q = apply_map(MapId.e3(), x, y, Fraction(1), Fraction(0))
    assert p == YBPoint.of(Fraction(3, 5), Fraction(42, 5))
    assert q == YBPoint.of(Fraction(12, 5), Fraction(10, 3))


def test_worked_example_inverse():
    assert apply_inverse(MapId.e1_shaded(), P0, Q0, Fraction(1), Fraction(0)) == (X0, Y0)


def test_worked_example_residuals():
    assert functional_relation_residuals(MapId.e1_shaded(), X0, Y0, P0, Q0) == (
        Fraction(0),
        Fraction(0),
    )


@pytest.mark.parametrize("map_id", CATALOG_MAPS, ids=lambda m: m.label())
def test_multipliers_match_their_displays(map_id):
    # each multiplier is recomputed here from scratch and compared with
    # the named intermediate the map exposes
    stream = RationalStream(17, 10)
    make = param_maker(map_id, stream)
    done = 0
    while done < 20:
        x = draw_point(map_id, stream)
        y = draw_point(map_id, stream)
        b1, b2 = make(), make()
        try:
            m = map_multipliers(map_id, x, y, b1, b2)
        except SingularInput:
            continue
        done += 1
        label = map_id.label()
        if label == "e1-shaded":
            assert m["P"] == 1 + (b1 - b2) / (x.pair()[0] - y.pair()[1])
        elif label == "e3":
            x1, y2 = x.pair()[0], y.pair()[1]
            assert m["P"] == (y2 - x1 - b2) / (y2 - x1 - b1)
        elif label == "vnls:3":
            assert len(m["S"]) == 3


@pytest.mark.parametrize("map_id", CATALOG_MAPS, ids=lambda m: m.label())
def test_equal_parameters_swap_arguments(map_id):
    stream = RationalStream(23, 10)
    make = param_maker(map_id, stream)
    done = 0
    while done < 20:
        x = draw_point(map_id, stream)
        y = draw_point(map_id, stream)
        b = make()
        try:
            p, q = apply_map(map_id, x, y, b, b)
        except SingularInput:
            continue
        done += 1
        assert (p, q) == (y, x)


@pytest.mark.parametrize("map_id", CATALOG_MAPS, ids=lambda m: m.label())
def test_inverse_round_trip(map_id):
    stream = RationalStream(29, 10)
    done = 0
    while done < 20:
        x, y, b1, b2 = draw_case(map_id, stream)
        try:
            p, q = apply_map(map_id, x, y, b1, b2)
            back = apply_inverse(map_id, p, q, b1, b2)
        except SingularInput:
            continue
        done += 1
        assert back == (x, y)


@pytest.mark.parametrize("map_id", CATALOG_MAPS, ids=lambda m: m.label())
def test_residuals_vanish_on_the_image(map_id):
    stream = RationalStream(31, 10)
    done = 0
    while done < 20:
        x, y, b1, b2 = draw_case(map_id, stream)
        try:
            p, q = apply_map(map_id, x, y, b1, b2)
            residuals = functional_relation_residuals(map_id, x, y, p, q)
        except SingularInput:
            continue
        done += 1
        assert set(residuals) == {Fraction(0)}


def test_residuals_nonzero_off_the_image():
    stream = RationalStream(37, 10)
    hits = 0
    for _ in range(50):
        x = draw_point(MapId.e1_shaded(), stream)
        y = draw_point(MapId.e1_shaded(), stream)
        p = draw_point(MapId.e1_shaded(), stream)
        q = draw_point(MapId.e1_shaded(), stream)
        try:
            residuals = functional_relation_residuals(MapId.e1_shaded(), x, y, p, q)
        except SingularInput:
            continue
        if any(r != 0 for r in residuals):
            hits += 1
    assert hits > 40


def test_singular_input_names_the_denominator():
    x = YBPoint.of(Fraction(2), Fraction(1))
    y = YBPoint.of(Fraction(3), Fraction(2))
    with pytest.raises(SingularInput, match="x1 - y2"):
        apply_map(MapId.e1_shaded(), x, y, Fraction(1), Fraction(0))
    with pytest.raises(SingularInput, match="b1"):
        apply_map(MapId.e4(Fraction(1)), x, y, Fraction(0), Fraction(2))


def test_parameter_kind_is_enforced():
    pair = gamma_pair_from_slope(Fraction(2), 1)
    with pytest.raises(ValueError):
        apply_map(MapId.e1_shaded(), X0, Y0, pair, pair)
    with pytest.raises(ValueError):
        apply_map(MapId.e5(), X0, Y0, Fraction(1), Fraction(2))
    mixed = GammaPair(beta=Fraction(-1), gamma=Fraction(1), delta=0)
    with pytest.raises(ValueError, match="deltas differ"):
        apply_map(MapId.e5(), X0, Y0, gamma_pair_from_slope(Fraction(2), 1), mixed)


def test_block_shape_is_enforced():
    vec = YBPoint((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))
    with pytest.raises(ValueError, match="block size"):
        apply_map(MapId.vnls(3), vec, vec, Fraction(1), Fraction(2))
    with pytest.raises(ValueError, match="block size"):
        apply_map(MapId.e2(), vec, vec, Fraction(1), Fraction(2))


def test_designated_independent_block():
    assert p_independent_block(MapId.e1_blank()) == "first"
    for map_id in (MapId.e1_shaded(), MapId.e2(), MapId.e3(), MapId.e5()):
        assert p_independent_block(map_id) == "second"


def test_independence_is_not_vacuous():
    # p must still depend on the other input block, otherwise the
    # independence statement would be trivially true
    b1, b2 = Fraction(1), Fraction(0)
    p, _ = apply_map(MapId.e1_shaded(), X0, Y0, b1, b2)
    moved = replace_block(X0, "first", (Fraction(7),))
    p_alt, _ = apply_map(MapId.e1_shaded(), moved, Y0, b1, b2)
    assert p_alt != p
    blank = MapId.e1_blank()
    x = YBPoint.of(Fraction(2), Fraction(3))
    y = YBPoint.of(Fraction(5), Fraction(7))
    p, _ = apply_map(blank, x, y, b1, b2)
    p_alt, _ = apply_map(blank, replace_block(x, "second", (Fraction(4),)), y, b1, b2)
    assert p_alt != p


def test_replace_block():
    moved = replace_block(X0, "second", (Fraction(9),))
    assert moved == YBPoint.of(Fraction(2), Fraction(9))
    assert X0 == YBPoint.of(Fraction(2), Fraction(1))
    with pytest.raises(ValueError):
        replace_block(X0, "third", (Fraction(1),))


def test_corruption_changes_the_image():
    honest = apply_map(MapId.e1_shaded(), X0, Y0, Fraction(1), Fraction(0))
    corrupted = apply_map(MapId.e1_shaded(), X0, Y0, Fraction(1), Fraction(0), corrupt=True)
    assert honest != corrupted


def test_catalog_covers_the_cli_identifiers():
    labels = {info.label for info in MAP_SPECS.values()}
    assert labels == {
        "e1-shaded",
        "e1-blank",
        "e2",
        "e3",
        "e4",
        "e4-eps0-scaling",
        "e4-eps0-joint",
        "e5",
        "vnls:<n>",
    }
    for info in MAP_SPECS.values():
        assert info.description
    assert list(MAP_SPECS) == list(MapTag)


@pytest.mark.parametrize("map_id", CATALOG_MAPS, ids=lambda m: m.label())
def test_spec_names_the_computed_multipliers(map_id):
    stream = RationalStream(5, 10)
    while True:
        try:
            mults = map_multipliers(map_id, *draw_case(map_id, stream))
        except SingularInput:
            continue
        break
    assert tuple(mults) == map_id.spec.multipliers


@pytest.mark.parametrize(
    "map_id", CATALOG_MAPS + (MapId.vnls(1), MapId.e4(0)), ids=lambda m: m.label()
)
def test_block_size_is_the_parent_component_count(map_id):
    assert map_id.block_size() == map_id.system.components()


@pytest.mark.parametrize("map_id", CATALOG_MAPS, ids=lambda m: m.label())
def test_map_draws_the_parameters_of_its_parent_family(map_id):
    # param_maker is the rule each map's formulas need (nonzero for the e4
    # maps, conic points for e5); sweeps draw by the parent family instead
    by_map, by_family = RationalStream(3, 10), RationalStream(3, 10)
    make_map = param_maker(map_id, by_map)
    make_family = chains._param_maker(map_id.system, by_family)
    assert [make_map() for _ in range(200)] == [make_family() for _ in range(200)]
    assert by_map.index == by_family.index


@given(st.integers(0, 10**6))
def test_shaded_map_image_satisfies_relations(seed):
    stream = RationalStream(seed, 8)
    x, y, b1, b2 = draw_case(MapId.e1_shaded(), stream)
    try:
        p, q = apply_map(MapId.e1_shaded(), x, y, b1, b2)
    except SingularInput:
        return
    x1, _ = x.pair()
    y1, y2 = y.pair()
    p1, p2 = p.pair()
    q1, q2 = q.pair()
    assert p1 * q1 == x1 * y1
    assert p1 * p2 == y1 * y2
    assert q1 != 0 or x1 * y1 == 0
