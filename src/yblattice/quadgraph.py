"""Two-field lattice systems on quadrilaterals.

A system lives on the faces of Z^2: a field point (u, v) sits at each
vertex, every edge in lattice direction i carries a parameter, and one
face relates the four corners f, f_1, f_2, f_12 (subscripts are unit
shifts).  All families here are solved for the top corner explicitly:

    u_12 = F(u, u_1, v_2, b1, b2)        v_12 = F(v, v_2, u_1, b2, b1)

with a single scalar right-hand side F shared by both updates; note the
second update swaps the roles of the two directions.  Neither u_2 nor
v_1 enters, which is what makes the families reducible to maps on edge
invariants.

Families E1..E5 are scalar.  E4 carries a free parameter epsilon, E5
carries edge parameters (beta, gamma) constrained by gamma^2 - beta^2 =
delta with delta in {0, 1}.  VNLS(n) is an n-component analogue of E1
where products become Euclidean inner products.

Everything the code knows about one family sits in its `FamilySpec`
record in `FAMILY_SPECS`: the face, what an edge parameter is, the
family-level parameter, whether vertices are vectors and the admitted
point symmetries.  Every function here reads the record; none branches
on the family.

Consistency around the cube is not checked here.  It is one braid word
of the flip engine in `chains`: on the open path (f, f_1, f_12, f_123),
the flip words (1, 2, 1) and (2, 1, 2) evaluate the six faces of the
cube, and the family is consistent when they agree.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import IncompatibleAction, SingularInput, ZeroScale
from .exactnum import GammaPair, Rational, _y_over_one_minus_yz

Field = Rational | tuple
EdgeParam = Rational | GammaPair


class Family(Enum):
    E1 = "e1"
    E2 = "e2"
    E3 = "e3"
    E4 = "e4"
    E5 = "e5"
    VNLS = "vnls"


class EdgeKind(Enum):
    """What an edge parameter of a family is."""

    RATIONAL = "rational"
    NONZERO = "nonzero"      # a rational the face divides by
    GAMMA = "gamma"          # a GammaPair on the system's conic


@dataclass(frozen=True)
class QuadSystem:
    """A lattice family together with its family-level parameters.

    Exactly the parameter named by the family's spec may be present:
    epsilon for E4, delta for E5, the component count n for VNLS.  The
    spec itself is looked up once, on construction.
    """

    family: Family
    epsilon: Rational | None = None
    delta: int | None = None
    n: int | None = None
    spec: FamilySpec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        spec = FAMILY_SPECS[self.family]
        object.__setattr__(self, "spec", spec)
        for name in ("epsilon", "delta", "n"):
            if (getattr(self, name) is not None) != (spec.extra == name):
                owner = next(f for f, s in FAMILY_SPECS.items() if s.extra == name)
                raise ValueError(f"{name} is set exactly for family {owner.name}")
        if self.delta is not None and self.delta not in (0, 1):
            raise ValueError(f"delta must be 0 or 1, got {self.delta}")
        if self.n is not None and self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    @classmethod
    def e1(cls) -> "QuadSystem":
        return cls(Family.E1)

    @classmethod
    def e2(cls) -> "QuadSystem":
        return cls(Family.E2)

    @classmethod
    def e3(cls) -> "QuadSystem":
        return cls(Family.E3)

    @classmethod
    def e4(cls, epsilon: Rational) -> "QuadSystem":
        return cls(Family.E4, epsilon=Rational(epsilon))

    @classmethod
    def e5(cls, delta: int) -> "QuadSystem":
        return cls(Family.E5, delta=delta)

    @classmethod
    def vnls(cls, n: int) -> "QuadSystem":
        return cls(Family.VNLS, n=n)

    def label(self) -> str:
        if self.spec.vector:
            return f"{self.family.value}:{self.n}"
        return self.family.value

    def components(self) -> int:
        return self.n if self.spec.vector else 1


@dataclass(frozen=True)
class FieldPoint:
    """Vertex value (u, v); both scalar, or both n-vectors of equal length."""

    u: Field
    v: Field

    def __post_init__(self) -> None:
        if isinstance(self.u, tuple) != isinstance(self.v, tuple):
            raise ValueError("u and v must both be scalars or both vectors")
        if isinstance(self.u, tuple) and len(self.u) != len(self.v):
            raise ValueError(
                f"component mismatch: u has {len(self.u)}, v has {len(self.v)}"
            )

    def components(self) -> int:
        return len(self.u) if isinstance(self.u, tuple) else 1


@dataclass(frozen=True)
class QuadData:
    """Free initial data on one face: base corner and its two neighbors.

    beta1 is the parameter on edges in direction 1, beta2 on direction 2.
    """

    f: FieldPoint
    f1: FieldPoint
    f2: FieldPoint
    beta1: EdgeParam
    beta2: EdgeParam

    def __post_init__(self) -> None:
        if not (self.f.components() == self.f1.components() == self.f2.components()):
            raise ValueError("field points must share one component count")


def _dot(a: tuple, b: tuple) -> Rational:
    return sum((x * y for x, y in zip(a, b)), Rational(0))


def _require_edge_params(system: QuadSystem, b1: EdgeParam, b2: EdgeParam) -> None:
    if system.spec.edge is not EdgeKind.GAMMA:
        if isinstance(b1, GammaPair) or isinstance(b2, GammaPair):
            raise ValueError(
                f"family {system.family.value} takes plain Rational edge parameters"
            )
        return
    for b in (b1, b2):
        if not isinstance(b, GammaPair):
            raise ValueError(f"family {system.family.value} takes GammaPair edge parameters")
        if b.delta != system.delta:
            raise ValueError(f"edge delta {b.delta} != system delta {system.delta}")


# exact scalars `quad_rhs` makes Rationals: `int / int` would be a float,
# and Fraction-only arithmetic would not return a Rational
_LOOSE = frozenset({int, Fraction})


# Scalar right-hand sides F(x; y, z) of the scalar families.  Each checks
# its own denominators, so SingularInput names the vanishing expression.


def _rhs_e1(system, x, y, z, b1, b2):
    # y/(1 - y*z) comes reduced from integers: its only cancellations are
    # by primes of gcd(num(y), den(z)); see `_y_over_one_minus_yz`
    try:
        quotient = _y_over_one_minus_yz(y, z)
    except ZeroDivisionError:
        raise SingularInput("1 - y*z") from None
    return x + (b1 - b2) * quotient


def _rhs_e2(system, x, y, z, b1, b2):
    den = b2 + y * z
    if den == 0:
        raise SingularInput("b2 + y*z")
    return x + (b2 - b1) * (y - x) / den


def _rhs_e3(system, x, y, z, b1, b2):
    den = y + z - b1
    if den == 0:
        raise SingularInput("y + z - b1")
    return x + (b1 - b2) * (x + z) / den


def _rhs_e4(system, x, y, z, b1, b2):
    if b1 == 0:
        raise SingularInput("b1")
    if b2 == 0:
        raise SingularInput("b2")
    den = b2 * (x + z) + b1 * (y - x)
    if den == 0:
        raise SingularInput("b2*(x + z) + b1*(y - x)")
    return x + (1 / b1 - 1 / b2) * (b1 * b2 * (x + z) * (y - x) - system.epsilon) / den


def _rhs_e5(system, x, y, z, b1, b2):
    den = (b1.beta - b2.beta) * x + b1.gamma * y + b2.gamma * z
    if den == 0:
        raise SingularInput("(b1 - b2)*x + g1*y + g2*z")
    return ((b1.beta - b2.beta) * y * z + x * (b2.gamma * y + b1.gamma * z)) / den


def quad_rhs(
    system: QuadSystem,
    x: Rational,
    y: Rational,
    z: Rational,
    b1: EdgeParam,
    b2: EdgeParam,
) -> Rational:
    """Scalar right-hand side F(x; y, z) of the selected scalar family.

    The same function produces both field updates: u_12 = F(u, u_1, v_2,
    b1, b2) and v_12 = F(v, v_2, u_1, b2, b1).  Operands of type exactly
    int or Fraction become Rationals, so the result stays exact; other
    scalars pass through untouched.  Raises SingularInput naming the
    vanishing denominator.
    """
    rhs = system.spec.rhs
    if rhs is None:
        raise ValueError(f"{system.family} has no scalar right-hand side")
    _require_edge_params(system, b1, b2)
    if (not type(x) is type(y) is type(z) is Rational
            or type(b1) in _LOOSE or type(b2) in _LOOSE):
        x, y, z, b1, b2 = (
            Rational(a) if type(a) in _LOOSE else a for a in (x, y, z, b1, b2)
        )
    return rhs(system, x, y, z, b1, b2)


def _scalar_face(system: QuadSystem, data: QuadData) -> FieldPoint:
    f, f1, f2 = data.f, data.f1, data.f2
    u12 = quad_rhs(system, f.u, f1.u, f2.v, data.beta1, data.beta2)
    v12 = quad_rhs(system, f.v, f2.v, f1.u, data.beta2, data.beta1)
    return FieldPoint(u12, v12)


def _vnls_face(system: QuadSystem, data: QuadData) -> FieldPoint:
    _require_edge_params(system, data.beta1, data.beta2)
    f, f1, f2 = data.f, data.f1, data.f2
    den = 1 - _dot(f1.u, f2.v)
    if den == 0:
        raise SingularInput("1 - u1.v2")
    r = (data.beta1 - data.beta2) / den
    u12 = tuple(u + r * u1 for u, u1 in zip(f.u, f1.u))
    v12 = tuple(v - r * v2 for v, v2 in zip(f.v, f2.v))
    return FieldPoint(u12, v12)


def evolve_quad(system: QuadSystem, data: QuadData) -> FieldPoint:
    """Top corner f_12 of the face determined by the free data."""
    if data.f.components() != system.components():
        raise ValueError(
            f"system expects {system.components()} components, got {data.f.components()}"
        )
    return system.spec.face(system, data)


class SymmetryKind(Enum):
    SCALE_OPP = "scale-opp"      # (u, v) -> (t u, v / t)
    TRANSLATE = "translate"      # (u, v) -> (u + s, v - s)
    SCALE_SAME = "scale-same"    # (u, v) -> (t u, t v)


@dataclass(frozen=True)
class SymmetryAction:
    """One-parameter point symmetry acting identically at every vertex.

    For SCALE_OPP on an n-component system the amount may be an n-tuple,
    scaling each component independently.
    """

    kind: SymmetryKind
    amount: Field

    def __post_init__(self) -> None:
        if self.kind in (SymmetryKind.SCALE_OPP, SymmetryKind.SCALE_SAME):
            amounts = self.amount if isinstance(self.amount, tuple) else (self.amount,)
            if any(t == 0 for t in amounts):
                raise ZeroScale("scale factor must be nonzero")


def scale_opposite(t: Field) -> SymmetryAction:
    return SymmetryAction(SymmetryKind.SCALE_OPP, t)


def translate(s: Rational) -> SymmetryAction:
    return SymmetryAction(SymmetryKind.TRANSLATE, s)


def scale_same(t: Rational) -> SymmetryAction:
    return SymmetryAction(SymmetryKind.SCALE_SAME, t)


def _admitted(system: QuadSystem, kind: SymmetryKind) -> bool:
    spec = system.spec
    if kind in spec.symmetries:
        return True
    return kind in spec.symmetries_at_zero and getattr(system, spec.extra) == 0


def apply_symmetry(system: QuadSystem, action: SymmetryAction, p: FieldPoint) -> FieldPoint:
    """Transform one field point; IncompatibleAction if the family does not admit it."""
    if not _admitted(system, action.kind):
        raise IncompatibleAction(
            f"family {system.family.value} does not admit {action.kind.value}"
        )
    if action.kind is SymmetryKind.SCALE_OPP:
        if isinstance(p.u, tuple):
            t = action.amount
            ts = t if isinstance(t, tuple) else (t,) * len(p.u)
            if len(ts) != len(p.u):
                raise ValueError("per-component scale length mismatch")
            return FieldPoint(
                tuple(t * u for t, u in zip(ts, p.u)),
                tuple(v / t for t, v in zip(ts, p.v)),
            )
        return FieldPoint(action.amount * p.u, p.v / action.amount)
    if action.kind is SymmetryKind.TRANSLATE:
        return FieldPoint(p.u + action.amount, p.v - action.amount)
    return FieldPoint(action.amount * p.u, action.amount * p.v)


def check_symmetry_invariance(
    system: QuadSystem, action: SymmetryAction, data: QuadData
) -> bool:
    """Evolving transformed data equals transforming the evolved corner."""
    moved = QuadData(
        apply_symmetry(system, action, data.f),
        apply_symmetry(system, action, data.f1),
        apply_symmetry(system, action, data.f2),
        data.beta1,
        data.beta2,
    )
    return evolve_quad(system, moved) == apply_symmetry(
        system, action, evolve_quad(system, data)
    )


@dataclass(frozen=True)
class FamilySpec:
    """Everything the code knows about one lattice family.

    face computes f_12 from QuadData; scalar families share one face
    built from their right-hand side rhs, vector families have no rhs.
    extra names the family-level parameter, if any.  symmetries_at_zero
    are admitted in addition when that parameter is 0.  The lattice laws
    (braid, consistency-3d) run paths of the family through face in the
    flip engine of `chains`, so they check whatever face the record holds.
    """

    extra: str | None
    edge: EdgeKind
    vector: bool
    face: Callable
    rhs: Callable | None
    symmetries: frozenset
    symmetries_at_zero: frozenset = frozenset()


_SCALE_OPP = frozenset({SymmetryKind.SCALE_OPP})
_TRANSLATE = frozenset({SymmetryKind.TRANSLATE})
_SCALE_SAME = frozenset({SymmetryKind.SCALE_SAME})

FAMILY_SPECS: dict[Family, FamilySpec] = {
    Family.E1: FamilySpec(
        extra=None, edge=EdgeKind.RATIONAL, vector=False, face=_scalar_face,
        rhs=_rhs_e1, symmetries=_SCALE_OPP),
    Family.E2: FamilySpec(
        extra=None, edge=EdgeKind.RATIONAL, vector=False, face=_scalar_face,
        rhs=_rhs_e2, symmetries=_SCALE_OPP),
    Family.E3: FamilySpec(
        extra=None, edge=EdgeKind.RATIONAL, vector=False, face=_scalar_face,
        rhs=_rhs_e3, symmetries=_TRANSLATE),
    Family.E4: FamilySpec(
        extra="epsilon", edge=EdgeKind.NONZERO, vector=False, face=_scalar_face,
        rhs=_rhs_e4, symmetries=_TRANSLATE, symmetries_at_zero=_SCALE_SAME),
    Family.E5: FamilySpec(
        extra="delta", edge=EdgeKind.GAMMA, vector=False, face=_scalar_face,
        rhs=_rhs_e5, symmetries=_SCALE_SAME),
    Family.VNLS: FamilySpec(
        extra="n", edge=EdgeKind.RATIONAL, vector=True, face=_vnls_face,
        rhs=None, symmetries=_SCALE_OPP),
}
