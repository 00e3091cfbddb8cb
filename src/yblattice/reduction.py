"""From lattice squares to maps: invariants and the commuting diagram.

A solved square carries full field points at all four corners.  The face
equation constrains only (u, u_1, v_2) -> u_12 and (v, v_2, u_1) -> v_12,
so v_1 and u_2 are free data; several reductions use them.

For each map the four points x, y, p, q are symmetry invariants read off
the square's edges: x from the (f, f_1) edge, y from the (f_2, f) edge
seen at the base corner, p and q from the parallel edges through f_12.
The readers live in the maps' spec records (`ybmaps.MAP_SPECS`).
The defining property of the reduction is the commuting diagram

    evolve the square, then read invariants
        == read invariants, then apply the map

which `check_commuting_diagram` verifies exactly.
"""

from __future__ import annotations

from .quadgraph import (
    EdgeParam,
    FieldPoint,
    QuadData,
    QuadSystem,
    evolve_quad,
)
from .ybmaps import MapId, apply_map

from dataclasses import dataclass


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


def _check_compatible(map_id: MapId, system: QuadSystem) -> None:
    want = map_id.system
    # e5 squares of either delta reduce by the same formulas
    if system != want and not (
        system.family is want.family and want.delta is not None
    ):
        raise ValueError(
            f"map {map_id.label()} does not reduce squares of system {system.label()}"
        )


def invariants_from_square(
    map_id: MapId, s: SquareSolution
) -> tuple:
    """The four invariant points (x, y, p, q) of a solved square.

    Raises SingularInput naming the corner value or combination a ratio
    invariant needs to be nonzero.
    """
    _check_compatible(map_id, s.system)
    return map_id.spec.invariants(s)


def check_commuting_diagram(
    map_id: MapId, s: SquareSolution, *, corrupt: bool = False
) -> bool:
    """apply_map on the square's (x, y) reproduces its (p, q) exactly."""
    x, y, p, q = invariants_from_square(map_id, s)
    image = apply_map(map_id, x, y, s.beta1, s.beta2, corrupt=corrupt)
    return image == (p, q)
