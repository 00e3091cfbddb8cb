"""Parametric maps R(b1, b2): (x, y) -> (p, q) on pairs of two-block points.

Every map here arises from a two-field lattice family by passing to edge
invariants, so points carry two blocks of components: scalar maps have
one component per block, the vector map VNLS(n) has n.  Each map is
driven by one or two scalar "multipliers" (named P, Ptilde, Q, or the
per-component tuple S) which are exposed separately because they are the
whole content of the map: outputs are the inputs rescaled, shifted, or
mixed by them.

The catalog:

    e1-shaded        multiplicative, blocks (ratio, product)
    e1-blank         multiplicative, blocks (ratio, product), companion
                     reduction of the same lattice as e1-shaded
    e2               multiplicative, multipliers P and Q
    e3               additive, blocks (difference, sum)
    e4               additive, free parameter epsilon, nonzero b1, b2
    e4-eps0-scaling  multiplicative, the epsilon = 0 lattice
    e4-eps0-joint    joint-ratio blocks, the epsilon = 0 lattice
    e5               multiplicative, edge parameters are GammaPairs
    vnls:<n>         n-component analogue of e1-shaded

All maps are reversible: the inverse is computed by applying the map to
the swapped pair with swapped parameters and swapping the result, which
is exactly the unitarity property, so `apply_inverse` doubles as a
unitarity witness.  `functional_relation_residuals` returns the defining
invariant relations of each map (expressions that vanish identically on
(x, y, p, q) = (input, output) pairs).

Everything the code knows about one map sits in its `MapSpec` record in
`MAP_SPECS`: the catalog listing, the multiplier, finish and residual
formulas, the block the first output ignores, the reader of its four
invariant points off a solved square of its parent lattice, and that
parent system.  The functions here and the reduction, verification and
CLI layers read the record; none of them branches on the map.

Denominators are checked before every division; SingularInput names the
vanishing expression.  The optional `corrupt` flag adds 1 to the primary
multiplier, a documented broken variant used to prove the verification
harness can fail.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import SingularInput
from .exactnum import GammaPair, Rational
from .quadgraph import EdgeKind, QuadSystem

MapParam = Rational | GammaPair


class MapTag(Enum):
    E1_SHADED = "e1-shaded"
    E1_BLANK = "e1-blank"
    E2 = "e2"
    E3 = "e3"
    E4_GENERIC = "e4"
    E4_EPS0_SCALING = "e4-eps0-scaling"
    E4_EPS0_JOINT = "e4-eps0-joint"
    E5_DELTA1 = "e5"
    VNLS = "vnls"


@dataclass(frozen=True)
class MapId:
    """Catalog entry: a map tag plus its map-level parameters.

    epsilon is set exactly for e4; n (block size, >= 1) exactly for vnls.
    Edge parameters b1, b2 are per-application arguments, not part of the
    id; for e5 they are GammaPairs sharing one delta (1 in the catalog,
    0 admitted for the documented degeneration to e4-eps0-scaling).
    The spec and the parent system are looked up once, on construction.
    """

    tag: MapTag
    epsilon: Rational | None = None
    n: int | None = None
    spec: MapSpec = field(init=False, repr=False, compare=False)
    system: QuadSystem = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        spec = MAP_SPECS[self.tag]
        object.__setattr__(self, "spec", spec)
        for name in ("epsilon", "n"):
            if (getattr(self, name) is not None) != (spec.extra == name):
                owner = next(t for t, s in MAP_SPECS.items() if s.extra == name)
                raise ValueError(f"{name} is set exactly for map {owner.value}")
        if self.n is not None and self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        object.__setattr__(self, "system", spec.system(self))

    @classmethod
    def e1_shaded(cls) -> "MapId":
        return cls(MapTag.E1_SHADED)

    @classmethod
    def e1_blank(cls) -> "MapId":
        return cls(MapTag.E1_BLANK)

    @classmethod
    def e2(cls) -> "MapId":
        return cls(MapTag.E2)

    @classmethod
    def e3(cls) -> "MapId":
        return cls(MapTag.E3)

    @classmethod
    def e4(cls, epsilon: Rational) -> "MapId":
        return cls(MapTag.E4_GENERIC, epsilon=Rational(epsilon))

    @classmethod
    def e4_eps0_scaling(cls) -> "MapId":
        return cls(MapTag.E4_EPS0_SCALING)

    @classmethod
    def e4_eps0_joint(cls) -> "MapId":
        return cls(MapTag.E4_EPS0_JOINT)

    @classmethod
    def e5(cls) -> "MapId":
        return cls(MapTag.E5_DELTA1)

    @classmethod
    def vnls(cls, n: int) -> "MapId":
        return cls(MapTag.VNLS, n=n)

    def label(self) -> str:
        if self.spec.extra == "n":
            return f"{self.tag.value}:{self.n}"
        return self.tag.value

    def block_size(self) -> int:
        return self.n if self.spec.extra == "n" else 1


def _fractions(block) -> tuple:
    # Rational(c) of a Fraction builds a copy; keep the given object instead
    return tuple(c if isinstance(c, Fraction) else Rational(c) for c in block)


@dataclass(frozen=True)
class YBPoint:
    """Point with two equal-length blocks of rational components."""

    first: tuple
    second: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "first", _fractions(self.first))
        object.__setattr__(self, "second", _fractions(self.second))
        if len(self.first) != len(self.second):
            raise ValueError("blocks must have equal length")
        if not self.first:
            raise ValueError("blocks must be nonempty")

    @classmethod
    def of(cls, a: Rational, b: Rational) -> "YBPoint":
        """Scalar point: one component per block."""
        return cls((a,), (b,))

    def pair(self) -> tuple:
        """The two components of a scalar point."""
        (a,), (b,) = self.first, self.second
        return a, b


def _require_params(map_id: MapId, b1: MapParam, b2: MapParam) -> None:
    """Parameters of the parent family's kind; GammaPairs share one delta."""
    if map_id.system.spec.edge is not EdgeKind.GAMMA:
        if isinstance(b1, GammaPair) or isinstance(b2, GammaPair):
            raise ValueError(f"map {map_id.label()} takes plain Rational parameters")
        return
    for b in (b1, b2):
        if not isinstance(b, GammaPair):
            raise ValueError(f"map {map_id.label()} takes GammaPair parameters")
    if b1.delta != b2.delta:
        raise ValueError(f"parameter deltas differ: {b1.delta} != {b2.delta}")


def _require_shape(map_id: MapId, x: YBPoint, y: YBPoint) -> None:
    n = map_id.block_size()
    for point in (x, y):
        if len(point.first) != n:
            raise ValueError(
                f"map {map_id.label()} expects block size {n}, got {len(point.first)}"
            )


def _nonzero(value: Rational, name: str) -> Rational:
    if value == 0:
        raise SingularInput(name)
    return value


def _ratio(num: Rational, den: Rational, name: str) -> Rational:
    return num / _nonzero(den, name)


# The formulas of each map: multipliers (which take the id for its
# map-level parameter), output assembly from the multipliers, and the
# defining invariant relations.  Assembly re-checks the denominators it
# introduces so the corrupted variant stays safe.  MAP_SPECS at the end
# of the module gathers them into one record per map.


def _mults_e1_shaded(x, y, b1, b2, map_id):
    x1, _ = x.pair()
    _, y2 = y.pair()
    return {"P": 1 + (b1 - b2) / _nonzero(x1 - y2, "x1 - y2")}


def _finish_e1_shaded(x, y, b1, b2, m):
    x1, x2 = x.pair()
    y1, y2 = y.pair()
    P = _nonzero(m["P"], "P")
    p = YBPoint.of(y1 / P, y2 * P)
    q = YBPoint.of(x1 * P, x2 + y2 * (1 - P))
    return p, q


def _res_product_shift(x, y, p, q):
    # p1*q1 = x1*y1 and p1*p2 = y1*y2
    x1, _ = x.pair()
    y1, y2 = y.pair()
    p1, p2 = p.pair()
    q1, _ = q.pair()
    return (p1 * q1 - x1 * y1, p1 * p2 - y1 * y2)


def _mults_e1_blank(x, y, b1, b2, map_id):
    _, x2 = x.pair()
    y1, _ = y.pair()
    den = _nonzero(1 - x2 * y1, "1 - x2*y1")
    return {"Ptilde": 1 - (b1 - b2) * y1 / den}


def _finish_e1_blank(x, y, b1, b2, m):
    x1, x2 = x.pair()
    y1, y2 = y.pair()
    Pt = _nonzero(m["Ptilde"], "Ptilde")
    p = YBPoint.of(y1 / Pt, y2 + x2 * (1 - Pt))
    q = YBPoint.of(x1 * Pt, x2 * Pt)
    return p, q


def _res_e1_blank(x, y, p, q):
    # p1*q1 = x1*y1 and p1*q2 = y1*x2
    x1, x2 = x.pair()
    y1, _ = y.pair()
    p1, _ = p.pair()
    q1, q2 = q.pair()
    return (p1 * q1 - x1 * y1, p1 * q2 - y1 * x2)


def _mults_e2(x, y, b1, b2, map_id):
    x1, x2 = x.pair()
    _, y2 = y.pair()
    P = 1 + (b2 - b1) * (1 - x1) / _nonzero(b2 * x1 + y2, "b2*x1 + y2")
    Q = 1 + (b1 - b2) * (y2 / _nonzero(x2, "x2") - x1) / _nonzero(
        b1 * x1 + y2, "b1*x1 + y2"
    )
    return {"P": P, "Q": Q}


def _finish_e2(x, y, b1, b2, m):
    x1, x2 = x.pair()
    y1, y2 = y.pair()
    P = _nonzero(m["P"], "P")
    p = YBPoint.of(y1 / P, y2 * P)
    q = YBPoint.of(x1 * P, x2 * m["Q"])
    return p, q


def _mults_e3(x, y, b1, b2, map_id):
    x1, _ = x.pair()
    _, y2 = y.pair()
    den = _nonzero(y2 - x1 - b1, "y2 - x1 - b1")
    return {"P": (y2 - x1 - b2) / den}


def _finish_e3(x, y, b1, b2, m):
    x1, x2 = x.pair()
    y1, y2 = y.pair()
    P = _nonzero(m["P"], "P")
    p = YBPoint.of(y1 + y2 * (1 - P), y2 * P)
    q = YBPoint.of(x1 - y2 * (1 - P), x2 / P)
    return p, q


def _res_sum_shift(x, y, p, q):
    # p1 + q1 = x1 + y1 and p1 + p2 = y1 + y2
    x1, _ = x.pair()
    y1, y2 = y.pair()
    p1, p2 = p.pair()
    q1, _ = q.pair()
    return (p1 + q1 - (x1 + y1), p1 + p2 - (y1 + y2))


def _mults_e4(x, y, b1, b2, map_id):
    epsilon = map_id.epsilon
    x1, x2 = x.pair()
    _, y2 = y.pair()
    _nonzero(b1, "b1")
    _nonzero(b2, "b2")
    denP = _nonzero(b2 * y2 - b1 * x1, "b2*y2 - b1*x1")
    P = (1 / b1 - 1 / b2) * (b1 * b2 * y2 * x1 + epsilon) / denP
    denQ = _nonzero(
        b1 * x2 + b2 * (y2 - x1 - x2), "b1*x2 + b2*(y2 - x1 - x2)"
    )
    Q = (1 / b2 - 1 / b1) * (b1 * b2 * x2 * (y2 - x1 - x2) - epsilon) / denQ
    return {"P": P, "Q": Q}


def _finish_e4(x, y, b1, b2, m):
    x1, x2 = x.pair()
    y1, y2 = y.pair()
    P = m["P"]
    p = YBPoint.of(y1 + P, y2 - P)
    q = YBPoint.of(x1 - P, x2 + m["Q"])
    return p, q


def _mults_e4_eps0_scaling(x, y, b1, b2, map_id):
    x1, x2 = x.pair()
    _, y2 = y.pair()
    denP = _nonzero(
        b2 * x1 * (1 + y2) + b1 * (1 - x1), "b2*x1*(1 + y2) + b1*(1 - x1)"
    )
    P = 1 + (b2 - b1) * (1 + y2) * (1 - x1) / denP
    _nonzero(x2, "x2")
    denQ = _nonzero(
        b1 * (1 + x2) + b2 * (x1 * y2 - x2), "b1*(1 + x2) + b2*(x1*y2 - x2)"
    )
    Q = 1 + (b1 - b2) * (1 + x2) * (x1 * y2 - x2) / (x2 * denQ)
    return {"P": P, "Q": Q}


def _finish_e4_eps0_scaling(x, y, b1, b2, m):
    x1, x2 = x.pair()
    y1, y2 = y.pair()
    P = _nonzero(m["P"], "P")
    p = YBPoint.of(y1 / P, y2 / P)
    q = YBPoint.of(x1 * P, x2 * m["Q"])
    return p, q


def _res_ratio_weighted(x, y, p, q):
    # p1*q1 = x1*y1 and y2*p1 = y1*p2
    x1, _ = x.pair()
    y1, y2 = y.pair()
    p1, p2 = p.pair()
    q1, _ = q.pair()
    return (p1 * q1 - x1 * y1, y2 * p1 - y1 * p2)


def _mults_e4_eps0_joint(x, y, b1, b2, map_id):
    x1, _ = x.pair()
    _, y2 = y.pair()
    den = _nonzero(
        b1 * x1 * (y2 - 1) + b2 * (1 + x1), "b1*x1*(y2 - 1) + b2*(1 + x1)"
    )
    return {"P": (b1 * (1 - y2) + b2 * y2 * (1 + x1)) / den}


def _finish_e4_eps0_joint(x, y, b1, b2, m):
    x1, x2 = x.pair()
    y1, y2 = y.pair()
    P = _nonzero(m["P"], "P")
    p2 = y2 / P
    p1 = (1 + x1) * (1 + y1) / _nonzero(1 + x1 * P, "1 + x1*P") - 1
    q2 = (1 - x2) * (1 - y2) / _nonzero(p2 - 1, "y2/P - 1") + 1
    p = YBPoint.of(p1, p2)
    q = YBPoint.of(x1 * P, q2)
    return p, q


def _res_e4_eps0_joint(x, y, p, q):
    # the three cross-ratio style expressions agree pairwise
    x1, x2 = x.pair()
    y1, y2 = y.pair()
    p1, p2 = p.pair()
    q1, q2 = q.pair()
    a = (1 + x1) * (1 + y1) / (
        _nonzero(1 + p1, "1 + p1") * _nonzero(1 + q1, "1 + q1")
    )
    b = (1 - x2) * (1 - y2) / (
        _nonzero(1 - p2, "1 - p2") * _nonzero(1 - q2, "1 - q2")
    )
    c = (1 + x1 * y2) / _nonzero(1 + p2 * q1, "1 + p2*q1")
    return (a - b, b - c)


def _mults_e5(x, y, g1: GammaPair, g2: GammaPair, map_id):
    x1, x2 = x.pair()
    _, y2 = y.pair()
    db = g1.beta - g2.beta
    cross = g2.gamma * x1 * y2
    denP = _nonzero(db * x1 + g1.gamma + cross, "(b1 - b2)*x1 + g1 + g2*x1*y2")
    P = (db * y2 + g2.gamma + g1.gamma * x1 * y2) / denP
    _nonzero(x2, "x2")
    denQ = _nonzero(-db * x2 + g1.gamma + cross, "(b2 - b1)*x2 + g1 + g2*x1*y2")
    Q = (-db * x1 * y2 / x2 + g2.gamma + g1.gamma * x1 * y2) / denQ
    return {"P": P, "Q": Q}


def _finish_e5(x, y, g1, g2, m):
    x1, x2 = x.pair()
    y1, y2 = y.pair()
    P = _nonzero(m["P"], "P")
    p = YBPoint.of(y1 / P, y2 / P)
    q = YBPoint.of(x1 * P, x2 * m["Q"])
    return p, q


def _mults_vnls(x, y, b1, b2, map_id):
    for i, c in enumerate(x.first):
        _nonzero(c, f"x1[{i}]")
    T = 1 - sum(
        (y2i / x1i for x1i, y2i in zip(x.first, y.second)), Rational(0)
    )
    _nonzero(T, "1 - sum(y2/x1)")
    S = tuple(1 + (b1 - b2) / (x1i * T) for x1i in x.first)
    return {"S": S}


def _finish_vnls(x, y, b1, b2, m):
    S = m["S"]
    for i, s in enumerate(S):
        _nonzero(s, f"S[{i}]")
    p = YBPoint(
        tuple(y1i / si for y1i, si in zip(y.first, S)),
        tuple(y2i * si for y2i, si in zip(y.second, S)),
    )
    q = YBPoint(
        tuple(x1i * si for x1i, si in zip(x.first, S)),
        tuple(
            x2i + y2i * (1 - si) for x2i, y2i, si in zip(x.second, y.second, S)
        ),
    )
    return p, q


def _res_vnls(x, y, p, q):
    # componentwise p1*q1 = x1*y1 and p1*p2 = y1*y2
    first = tuple(
        p1i * q1i - x1i * y1i
        for p1i, q1i, x1i, y1i in zip(p.first, q.first, x.first, y.first)
    )
    second = tuple(
        p1i * p2i - y1i * y2i
        for p1i, p2i, y1i, y2i in zip(p.first, p.second, y.first, y.second)
    )
    return first + second


# Invariant readers: the four points (x, y, p, q) of a solved square of
# the parent lattice.  Each is one edge invariant of the symmetry group,
# read off the edges (f, f_1), (f_2, f), (f_2, f_12) and (f_12, f_1) in
# turn.  A ratio raises SingularInput naming the corner value or
# combination that must be nonzero.


def _edges(s):
    """The four edges (a, b) of a square, with the name suffix of corner b."""
    return (
        (s.f, s.f1, "1"),
        (s.f2, s.f, ""),
        (s.f2, s.f12, "12"),
        (s.f12, s.f1, "1"),
    )


def _inv_u_ratio_product(s):
    return tuple(
        YBPoint.of(_ratio(a.u, b.u, f"u{j}"), a.v * b.u) for a, b, j in _edges(s)
    )


def _inv_v_ratio_product(s):
    return tuple(
        YBPoint.of(_ratio(a.v, b.v, f"v{j}"), a.v * b.u) for a, b, j in _edges(s)
    )


def _inv_difference_sum(s):
    return tuple(YBPoint.of(a.u - b.u, a.v + b.u) for a, b, _ in _edges(s))


def _inv_ratio_ratio(s):
    return tuple(
        YBPoint.of(_ratio(a.u, b.u, f"u{j}"), _ratio(a.v, b.u, f"u{j}"))
        for a, b, j in _edges(s)
    )


def _inv_joint_ratios(s):
    u, v = s.f.u, s.f.v
    u1, v1 = s.f1.u, s.f1.v
    u2, v2 = s.f2.u, s.f2.v
    u12, v12 = s.f12.u, s.f12.v
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
    return x, y, p, q


def _inv_vnls(s):
    # _inv_u_ratio_product, componentwise
    return tuple(
        YBPoint(
            tuple(
                _ratio(au, bu, f"u{j}[{k}]") for k, (au, bu) in enumerate(zip(a.u, b.u))
            ),
            tuple(av * bu for av, bu in zip(a.v, b.u)),
        )
        for a, b, j in _edges(s)
    )


def map_multipliers(
    map_id: MapId, x: YBPoint, y: YBPoint, b1: MapParam, b2: MapParam
) -> dict:
    """The named multipliers driving the map at this input."""
    _require_shape(map_id, x, y)
    _require_params(map_id, b1, b2)
    return map_id.spec.mults(x, y, b1, b2, map_id)


def _bump(value):
    if isinstance(value, tuple):
        return tuple(v + 1 for v in value)
    return value + 1


def apply_map(
    map_id: MapId,
    x: YBPoint,
    y: YBPoint,
    b1: MapParam,
    b2: MapParam,
    *,
    corrupt: bool = False,
) -> tuple:
    """Image (p, q) of (x, y) under the map with parameters (b1, b2).

    With corrupt=True the primary multiplier is shifted by 1 before the
    outputs are assembled; the result is a well-defined but wrong map,
    kept as a fixture for failure-path tests.
    """
    mults = map_multipliers(map_id, x, y, b1, b2)
    spec = map_id.spec
    if corrupt:
        primary = spec.multipliers[0]
        mults = dict(mults)
        mults[primary] = _bump(mults[primary])
    return spec.finish(x, y, b1, b2, mults)


def apply_inverse(
    map_id: MapId, p: YBPoint, q: YBPoint, b1: MapParam, b2: MapParam
) -> tuple:
    """Preimage (x, y) of (p, q): swap, apply with swapped parameters, swap."""
    p2, q2 = apply_map(map_id, q, p, b2, b1)
    return q2, p2


def functional_relation_residuals(
    map_id: MapId, x: YBPoint, y: YBPoint, p: YBPoint, q: YBPoint
) -> tuple:
    """Residuals of the map's defining invariant relations; all zero when
    (p, q) is the image of (x, y)."""
    _require_shape(map_id, x, y)
    _require_shape(map_id, p, q)
    return map_id.spec.residuals(x, y, p, q)


def p_independent_block(map_id: MapId) -> str:
    """Which block of x the first output p does not depend on.

    One whole block per map, the literal witness that the map is not
    quadrirational: e1-blank's p ignores the first block, every other
    map's p ignores the second.
    """
    return map_id.spec.p_independent


def replace_block(point: YBPoint, block: str, values: tuple) -> YBPoint:
    if block == "first":
        return YBPoint(values, point.second)
    if block == "second":
        return YBPoint(point.first, values)
    raise ValueError(f"unknown block {block!r}")


@dataclass(frozen=True)
class MapSpec:
    """Everything the code knows about one map.

    label, reduces, blocks, params, multipliers and description are the
    catalog listing; the first multiplier is the one `corrupt` shifts.
    mults(x, y, b1, b2, map_id), finish(x, y, b1, b2, multipliers) and
    residuals(x, y, p, q) are the map's formulas, invariants(square)
    reads (x, y, p, q) off a solved square and system(map_id) is the
    parent lattice system.  extra names the map-level parameter of the
    id, if any; p_independent is the block of x the output p ignores;
    zero_curvature says the map has the Lax pair of `lax`.
    """

    label: str
    reduces: str
    blocks: str
    params: str
    multipliers: tuple
    description: str
    mults: Callable
    finish: Callable
    residuals: Callable
    invariants: Callable
    system: Callable
    extra: str | None = None
    p_independent: str = "second"
    zero_curvature: bool = False


MAP_SPECS: dict[MapTag, MapSpec] = {
    MapTag.E1_SHADED: MapSpec(
        "e1-shaded", "e1", "(ratio, product)", "b1, b2 rational",
        ("P",), "invariants u/u1 and v*u1 of the e1 lattice",
        _mults_e1_shaded, _finish_e1_shaded, _res_product_shift,
        _inv_u_ratio_product, lambda m: QuadSystem.e1(), zero_curvature=True),
    MapTag.E1_BLANK: MapSpec(
        "e1-blank", "e1", "(ratio, product)", "b1, b2 rational",
        ("Ptilde",), "companion reduction of e1 through v-edge invariants",
        _mults_e1_blank, _finish_e1_blank, _res_e1_blank,
        _inv_v_ratio_product, lambda m: QuadSystem.e1(), p_independent="first"),
    MapTag.E2: MapSpec(
        "e2", "e2", "(ratio, product)", "b1, b2 rational",
        ("P", "Q"), "e2 lattice through the same invariants as e1-shaded",
        _mults_e2, _finish_e2, _res_product_shift,
        _inv_u_ratio_product, lambda m: QuadSystem.e2()),
    MapTag.E3: MapSpec(
        "e3", "e3", "(difference, sum)", "b1, b2 rational",
        ("P",), "additive reduction of the e3 lattice",
        _mults_e3, _finish_e3, _res_sum_shift,
        _inv_difference_sum, lambda m: QuadSystem.e3()),
    MapTag.E4_GENERIC: MapSpec(
        "e4", "e4", "(difference, sum)", "b1, b2 rational nonzero; epsilon",
        ("P", "Q"), "additive reduction of the e4 lattice, any epsilon",
        _mults_e4, _finish_e4, _res_sum_shift,
        _inv_difference_sum, lambda m: QuadSystem.e4(m.epsilon), extra="epsilon"),
    MapTag.E4_EPS0_SCALING: MapSpec(
        "e4-eps0-scaling", "e4 (epsilon 0)", "(ratio, ratio)", "b1, b2 rational",
        ("P", "Q"), "scaling-invariant reduction of e4 at epsilon 0",
        _mults_e4_eps0_scaling, _finish_e4_eps0_scaling, _res_ratio_weighted,
        _inv_ratio_ratio, lambda m: QuadSystem.e4(0)),
    MapTag.E4_EPS0_JOINT: MapSpec(
        "e4-eps0-joint", "e4 (epsilon 0)", "(joint ratios)", "b1, b2 rational",
        ("P",), "joint translation-scaling reduction of e4 at epsilon 0",
        _mults_e4_eps0_joint, _finish_e4_eps0_joint, _res_e4_eps0_joint,
        _inv_joint_ratios, lambda m: QuadSystem.e4(0)),
    MapTag.E5_DELTA1: MapSpec(
        "e5", "e5 (delta 1)", "(ratio, ratio)", "GammaPair per edge",
        ("P", "Q"), "scaling reduction of e5; edge parameters on a conic",
        _mults_e5, _finish_e5, _res_ratio_weighted,
        _inv_ratio_ratio, lambda m: QuadSystem.e5(1)),
    MapTag.VNLS: MapSpec(
        "vnls:<n>", "vnls", "(ratio, product)", "b1, b2 rational",
        ("S",), "n-component analogue of e1-shaded via inner products",
        _mults_vnls, _finish_vnls, _res_vnls,
        _inv_vnls, lambda m: QuadSystem.vnls(m.n), extra="n"),
}
