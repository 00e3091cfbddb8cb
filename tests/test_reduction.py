from __future__ import annotations

from fractions import Fraction

import pytest

from yblattice import reduction
from yblattice.errors import SingularInput
from yblattice.exactnum import RationalStream, gamma_pair_from_slope
from yblattice.quadgraph import FieldPoint, QuadSystem, evolve_quad
from yblattice.reduction import (
    SquareSolution,
    check_commuting_diagram,
    invariants_from_square,
)
from yblattice.verify import CATALOG_MAPS
from yblattice.ybmaps import MapId, YBPoint, apply_map


def random_square(map_id: MapId, stream: RationalStream) -> SquareSolution:
    system = map_id.system
    n = system.components()

    def field() -> FieldPoint:
        if n == 1:
            return FieldPoint(stream.next(), stream.next())
        return FieldPoint(
            tuple(stream.next() for _ in range(n)),
            tuple(stream.next() for _ in range(n)),
        )

    if system.label().startswith("e5"):
        make = lambda: gamma_pair_from_slope(stream.next_nonzero(), system.delta)
    elif system.label().startswith("e4"):
        make = stream.next_nonzero
    else:
        make = stream.next
    return SquareSolution.solve(system, field(), field(), field(), make(), make())


def test_parent_systems():
    assert MapId.e1_shaded().system == QuadSystem.e1()
    assert MapId.e1_blank().system == QuadSystem.e1()
    assert MapId.e4(Fraction(7, 3)).system == QuadSystem.e4(Fraction(7, 3))
    assert MapId.e4_eps0_joint().system == QuadSystem.e4(Fraction(0))
    assert MapId.e5().system == QuadSystem.e5(1)
    assert MapId.vnls(4).system == QuadSystem.vnls(4)


def test_square_constructor_validates_the_face():
    with pytest.raises(ValueError, match="face equation"):
        SquareSolution(
            QuadSystem.e1(),
            FieldPoint(Fraction(3), Fraction(4)),
            FieldPoint(Fraction(1), Fraction(7)),
            FieldPoint(Fraction(9), Fraction(2)),
            Fraction(5),
            Fraction(1),
            FieldPoint(Fraction(0), Fraction(0)),
        )


def test_solved_square_worked_example():
    s = SquareSolution.solve(
        QuadSystem.e1(),
        FieldPoint(Fraction(3), Fraction(4)),
        FieldPoint(Fraction(1), Fraction(7)),
        FieldPoint(Fraction(9), Fraction(2)),
        Fraction(5),
        Fraction(1),
    )
    assert s.f12 == FieldPoint(Fraction(-1), Fraction(12))


def test_solve_evaluates_the_face_once(monkeypatch):
    calls = []

    def counting(system, data):
        calls.append(data)
        return evolve_quad(system, data)

    monkeypatch.setattr(reduction, "evolve_quad", counting)
    s = SquareSolution.solve(
        QuadSystem.e1(),
        FieldPoint(Fraction(3), Fraction(4)),
        FieldPoint(Fraction(1), Fraction(7)),
        FieldPoint(Fraction(9), Fraction(2)),
        Fraction(5),
        Fraction(1),
    )
    assert len(calls) == 1
    # the solved square equals one built through the validating constructor
    assert s == SquareSolution(s.system, s.f, s.f1, s.f2, s.beta1, s.beta2, s.f12)


def test_invariants_worked_example():
    # a face whose edge invariants reproduce the worked map example
    s = SquareSolution.solve(
        QuadSystem.e1(),
        FieldPoint(Fraction(2), Fraction(1)),
        FieldPoint(Fraction(1), Fraction(2)),
        FieldPoint(Fraction(6), Fraction(1, 2)),
        Fraction(1),
        Fraction(0),
    )
    x, y, p, q = invariants_from_square(MapId.e1_shaded(), s)
    assert (p, q) == apply_map(MapId.e1_shaded(), x, y, Fraction(1), Fraction(0))


def test_invariants_reject_foreign_system():
    s = SquareSolution.solve(
        QuadSystem.e3(),
        FieldPoint(Fraction(1), Fraction(2)),
        FieldPoint(Fraction(3), Fraction(4)),
        FieldPoint(Fraction(5), Fraction(6)),
        Fraction(1),
        Fraction(0),
    )
    with pytest.raises(ValueError, match="does not reduce"):
        invariants_from_square(MapId.e1_shaded(), s)


def test_invariants_name_singular_corner():
    s = SquareSolution.solve(
        QuadSystem.e1(),
        FieldPoint(Fraction(2), Fraction(1)),
        FieldPoint(Fraction(0), Fraction(2)),
        FieldPoint(Fraction(6), Fraction(1, 2)),
        Fraction(1),
        Fraction(0),
    )
    with pytest.raises(SingularInput):
        invariants_from_square(MapId.e1_shaded(), s)


@pytest.mark.parametrize("map_id", CATALOG_MAPS, ids=lambda m: m.label())
def test_diagram_commutes_on_sampled_squares(map_id):
    stream = RationalStream(13, 10)
    done = 0
    while done < 25:
        try:
            s = random_square(map_id, stream)
            ok = check_commuting_diagram(map_id, s)
        except SingularInput:
            continue
        done += 1
        assert ok


@pytest.mark.parametrize("map_id", CATALOG_MAPS, ids=lambda m: m.label())
def test_corrupted_map_breaks_the_diagram(map_id):
    stream = RationalStream(19, 10)
    seen = 0
    broken = 0
    while seen < 10:
        try:
            s = random_square(map_id, stream)
            ok = check_commuting_diagram(map_id, s, corrupt=True)
        except SingularInput:
            continue
        seen += 1
        broken += not ok
    assert broken == 10


def test_square_invariants_are_points():
    stream = RationalStream(5, 10)
    while True:
        try:
            s = random_square(MapId.vnls(2), stream)
            x, y, p, q = invariants_from_square(MapId.vnls(2), s)
        except SingularInput:
            continue
        break
    for point in (x, y, p, q):
        assert isinstance(point, YBPoint)
        assert len(point.first) == 2
