"""From lattice squares to maps: invariants and the commuting diagram.

A solved square carries full field points at all four corners.  The face
equation constrains only (u, u_1, v_2) -> u_12 and (v, v_2, u_1) -> v_12,
so v_1 and u_2 are free data; several reductions use them.

For each map the four points x, y, p, q are symmetry invariants read off
the square's edges: x from the (f, f_1) edge, y from the (f_2, f) edge
seen at the base corner, p and q from the parallel edges through f_12.
The defining property of the reduction is the commuting diagram

    evolve the square, then read invariants
        == read invariants, then apply the map

which `check_commuting_diagram` verifies exactly.
"""

from __future__ import annotations

from .errors import SingularInput
from .exactnum import Rational
from .quadgraph import (
    EdgeParam,
    Family,
    FieldPoint,
    QuadData,
    QuadSystem,
    evolve_quad,
)
from .ybmaps import MapId, MapTag, YBPoint, apply_map

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class SquareSolution:
    """One face with all four corners filled in, satisfying the face equation.

    f12 is determined by (f, f1, f2) and the edge parameters; it is stored
    but validated on construction, so every instance is a solution.  `solve`
    computes f12 from the face equation itself, so it skips that check.
    """

    system: QuadSystem
    f: FieldPoint
    f1: FieldPoint
    f2: FieldPoint
    beta1: EdgeParam
    beta2: EdgeParam
    f12: FieldPoint

    def __post_init__(self) -> None:
        expected = evolve_quad(
            self.system, QuadData(self.f, self.f1, self.f2, self.beta1, self.beta2)
        )
        if self.f12 != expected:
            raise ValueError("f12 does not satisfy the face equation")

    @classmethod
    def solve(
        cls,
        system: QuadSystem,
        f: FieldPoint,
        f1: FieldPoint,
        f2: FieldPoint,
        beta1: EdgeParam,
        beta2: EdgeParam,
    ) -> "SquareSolution":
        f12 = evolve_quad(system, QuadData(f, f1, f2, beta1, beta2))
        square = object.__new__(cls)
        square.__dict__.update(
            system=system, f=f, f1=f1, f2=f2, beta1=beta1, beta2=beta2, f12=f12
        )
        return square


def parent_system(map_id: MapId) -> QuadSystem:
    """The lattice system a map reduces; e5 defaults to delta = 1."""
    tag = map_id.tag
    if tag in (MapTag.E1_SHADED, MapTag.E1_BLANK):
        return QuadSystem.e1()
    if tag is MapTag.E2:
        return QuadSystem.e2()
    if tag is MapTag.E3:
        return QuadSystem.e3()
    if tag is MapTag.E4_GENERIC:
        return QuadSystem.e4(map_id.epsilon)
    if tag in (MapTag.E4_EPS0_SCALING, MapTag.E4_EPS0_JOINT):
        return QuadSystem.e4(Fraction(0))
    if tag is MapTag.E5_DELTA1:
        return QuadSystem.e5(1)
    if tag is MapTag.VNLS:
        return QuadSystem.vnls(map_id.n)
    raise ValueError(f"unknown map {tag}")


def _check_compatible(map_id: MapId, system: QuadSystem) -> None:
    want = parent_system(map_id)
    ok = want.family is system.family
    if ok and want.family is Family.E4:
        ok = want.epsilon == system.epsilon
    if ok and want.family is Family.VNLS:
        ok = want.n == system.n
    # e5 squares of either delta reduce by the same formulas
    if not ok:
        raise ValueError(
            f"map {map_id.label()} does not reduce squares of system {system.label()}"
        )


def _ratio(num: Rational, den: Rational, name: str) -> Rational:
    if den == 0:
        raise SingularInput(name)
    return num / den


def invariants_from_square(
    map_id: MapId, s: SquareSolution
) -> tuple:
    """The four invariant points (x, y, p, q) of a solved square.

    Raises SingularInput naming the corner value or combination a ratio
    invariant needs to be nonzero.
    """
    _check_compatible(map_id, s.system)
    tag = map_id.tag
    if tag is MapTag.VNLS:
        U, V = s.f.u, s.f.v
        U1, U2 = s.f1.u, s.f2.u
        V2 = s.f2.v
        U12, V12 = s.f12.u, s.f12.v
        x = YBPoint(
            tuple(_ratio(u, u1, f"u1[{i}]") for i, (u, u1) in enumerate(zip(U, U1))),
            tuple(v * u1 for v, u1 in zip(V, U1)),
        )
        y = YBPoint(
            tuple(_ratio(u2, u, f"u[{i}]") for i, (u2, u) in enumerate(zip(U2, U))),
            tuple(u * v2 for u, v2 in zip(U, V2)),
        )
        p = YBPoint(
            tuple(_ratio(u2, u12, f"u12[{i}]") for i, (u2, u12) in enumerate(zip(U2, U12))),
            tuple(v2 * u12 for v2, u12 in zip(V2, U12)),
        )
        q = YBPoint(
            tuple(_ratio(u12, u1, f"u1[{i}]") for i, (u12, u1) in enumerate(zip(U12, U1))),
            tuple(u1 * v12 for u1, v12 in zip(U1, V12)),
        )
        return x, y, p, q

    u, v = s.f.u, s.f.v
    u1, v1 = s.f1.u, s.f1.v
    u2, v2 = s.f2.u, s.f2.v
    u12, v12 = s.f12.u, s.f12.v

    if tag in (MapTag.E1_SHADED, MapTag.E2):
        x = YBPoint.of(_ratio(u, u1, "u1"), v * u1)
        y = YBPoint.of(_ratio(u2, u, "u"), u * v2)
        p = YBPoint.of(_ratio(u2, u12, "u12"), v2 * u12)
        q = YBPoint.of(_ratio(u12, u1, "u1"), u1 * v12)
    elif tag is MapTag.E1_BLANK:
        x = YBPoint.of(_ratio(v, v1, "v1"), v * u1)
        y = YBPoint.of(_ratio(v2, v, "v"), u * v2)
        p = YBPoint.of(_ratio(v2, v12, "v12"), v2 * u12)
        q = YBPoint.of(_ratio(v12, v1, "v1"), u1 * v12)
    elif tag in (MapTag.E3, MapTag.E4_GENERIC):
        x = YBPoint.of(u - u1, v + u1)
        y = YBPoint.of(u2 - u, u + v2)
        p = YBPoint.of(u2 - u12, v2 + u12)
        q = YBPoint.of(u12 - u1, u1 + v12)
    elif tag in (MapTag.E4_EPS0_SCALING, MapTag.E5_DELTA1):
        x = YBPoint.of(_ratio(u, u1, "u1"), _ratio(v, u1, "u1"))
        y = YBPoint.of(_ratio(u2, u, "u"), _ratio(v2, u, "u"))
        p = YBPoint.of(_ratio(u2, u12, "u12"), _ratio(v2, u12, "u12"))
        q = YBPoint.of(_ratio(u12, u1, "u1"), _ratio(v12, u1, "u1"))
    elif tag is MapTag.E4_EPS0_JOINT:
        x = YBPoint.of(
            _ratio(u - u1, v + u1, "v + u1"), _ratio(v - v1, v + u1, "v + u1")
        )
        y = YBPoint.of(
            _ratio(u2 - u, u + v2, "u + v2"), _ratio(v2 - v, u + v2, "u + v2")
        )
        p = YBPoint.of(
            _ratio(u2 - u12, v2 + u12, "v2 + u12"),
            _ratio(v2 - v12, v2 + u12, "v2 + u12"),
        )
        q = YBPoint.of(
            _ratio(u12 - u1, u1 + v12, "u1 + v12"),
            _ratio(v12 - v1, u1 + v12, "u1 + v12"),
        )
    else:
        raise ValueError(f"unknown map {tag}")
    return x, y, p, q


def check_commuting_diagram(
    map_id: MapId, s: SquareSolution, *, corrupt: bool = False
) -> bool:
    """apply_map on the square's (x, y) reproduces its (p, q) exactly."""
    x, y, p, q = invariants_from_square(map_id, s)
    image = apply_map(map_id, x, y, s.beta1, s.beta2, corrupt=corrupt)
    return image == (p, q)
