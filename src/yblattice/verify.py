"""Seeded bulk verification of every law the package implements.

`sweep` draws deterministic pseudo-random inputs for a chosen property,
evaluates it exactly on each, and aggregates the outcomes into a
`VerificationReport`.  Singular configurations are never failures: each
sample retries with fresh draws up to a fixed budget and is counted as
skipped when the budget runs out.  A property holds when it holds at every
point where it is defined, so the exit question is "passed == valid", with
`RetryBudgetExhausted` signalling that no valid sample could be drawn at
all.

Each property is one entry of the case table `_CASES`: how many edge
parameters a sample draws and whether they must be distinct, the names
of the points it draws (map points, or field points of the parent
system), and the law tested on them.  One runner serves every entry.  A
sample draws its edge parameters first, then its points in the listed
order, then whatever the law draws itself (the non-quadrirational
replacement block, the braid path).  A failure dump lists the points,
then beta1, beta2, ..., then the law's extra entries (residuals;
replaced_block and replacement; path).

Reports are pure functions of (target, property, seed, n, bound), byte
for byte, which the CLI test suite and the golden files rely on.
`plan()` lists the (target, property) sweeps of the whole catalog.

The composite-map convention is fixed once here: a two-point map applied
to factors (i, j) of a triple acts on those positions in order and leaves
the third untouched, and in an operator product the rightmost factor acts
first.  Both sides of the relation check use the same convention, so the
verdict does not depend on it.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .chains import (
    PathState,
    _FlipWords,
    _draw_field_point,
    _param_maker,
    check_flip_laws,
    random_path,
)
from .errors import RetryBudgetExhausted, SingularInput
from .exactnum import GammaPair, Rational, RationalStream, format_rational
from .lax import check_zero_curvature
from .quadgraph import FieldPoint, QuadSystem
from .reduction import SquareSolution, check_commuting_diagram
from .ybmaps import (
    MapId,
    YBPoint,
    apply_map,
    functional_relation_residuals,
    p_independent_block,
    replace_block,
)


class Property(Enum):
    YB = "yb"
    UNITARITY = "unitarity"
    CONSISTENCY_3D = "consistency-3d"
    BRAID = "braid"
    ZERO_CURVATURE = "zero-curvature"
    COMMUTING_DIAGRAM = "commuting-diagram"
    FUNCTIONAL_RELATIONS = "functional-relations"
    NON_QUADRIRATIONAL = "non-quadrirational"


# properties with a documented corrupted-map fixture (primary multiplier + 1)
CORRUPTIBLE = frozenset(
    {
        Property.YB,
        Property.UNITARITY,
        Property.COMMUTING_DIAGRAM,
        Property.ZERO_CURVATURE,
        Property.FUNCTIONAL_RELATIONS,
    }
)


@dataclass(frozen=True)
class TripleState:
    """Three points and three edge parameters, the relation check's input."""

    x: YBPoint
    y: YBPoint
    z: YBPoint
    beta1: object
    beta2: object
    beta3: object

    def __post_init__(self) -> None:
        if not (len(self.x.first) == len(self.y.first) == len(self.z.first)):
            raise ValueError("the three points must share one block size")


def check_yb_relation(
    map_id: MapId, t: TripleState, *, corrupt: bool = False
) -> bool:
    """Both composition orders of the three pairwise maps agree on (x, y, z).

    The map on factors (i, j) uses parameters (beta_i, beta_j); the
    rightmost factor of each product acts first.
    """

    def on12(s: tuple) -> tuple:
        p, q = apply_map(map_id, s[0], s[1], t.beta1, t.beta2, corrupt=corrupt)
        return (p, q, s[2])

    def on13(s: tuple) -> tuple:
        p, q = apply_map(map_id, s[0], s[2], t.beta1, t.beta3, corrupt=corrupt)
        return (p, s[1], q)

    def on23(s: tuple) -> tuple:
        p, q = apply_map(map_id, s[1], s[2], t.beta2, t.beta3, corrupt=corrupt)
        return (s[0], p, q)

    def stage(fn, s: tuple, where: str) -> tuple:
        try:
            return fn(s)
        except SingularInput as err:
            raise SingularInput(f"{where}: {err}") from err

    start = (t.x, t.y, t.z)
    lhs = stage(on23, stage(on13, stage(on12, start, "lhs factors (1,2)"),
                            "lhs factors (1,3)"), "lhs factors (2,3)")
    rhs = stage(on12, stage(on13, stage(on23, start, "rhs factors (2,3)"),
                            "rhs factors (1,3)"), "rhs factors (1,2)")
    return lhs == rhs


@dataclass(frozen=True)
class VerificationReport:
    """Aggregated outcome of one property sweep.

    Always samples_passed <= samples_valid <= samples_requested and
    singular_skipped = requested - valid.  first_failure holds the full
    input dump of the lowest-index failing sample, when there is one.
    """

    map: str
    property: Property
    samples_requested: int
    samples_valid: int
    samples_passed: int
    singular_skipped: int
    first_failure: dict | None = None

    def all_passed(self) -> bool:
        return self.samples_valid > 0 and self.samples_passed == self.samples_valid

    def to_json_dict(self) -> dict:
        data = {
            "map": self.map,
            "property": self.property.value,
            "requested": self.samples_requested,
            "valid": self.samples_valid,
            "passed": self.samples_passed,
            "skipped": self.singular_skipped,
        }
        if self.first_failure is not None:
            data["first_failure"] = self.first_failure
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _encode(value):
    """Recursive dump of sampled inputs with rationals as "p/q" strings."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {key: _encode(v) for key, v in value.items()}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, YBPoint):
        return {"first": _encode(value.first), "second": _encode(value.second)}
    if isinstance(value, FieldPoint):
        return {"u": _encode(value.u), "v": _encode(value.v)}
    if isinstance(value, GammaPair):
        return {
            "beta": format_rational(value.beta),
            "gamma": format_rational(value.gamma),
            "delta": value.delta,
        }
    if isinstance(value, PathState):
        return {
            "vertices": _encode(value.vertices),
            "alphas": _encode(value.alphas),
            "periodic": value.periodic,
        }
    return value


_DISTINCT_ATTEMPTS = 25


def target_system(target) -> QuadSystem:
    """The lattice system of a sweep target: a family, or a map's parent."""
    return target if isinstance(target, QuadSystem) else target.system


def _draw_params(make, count: int, distinct: bool, first=None) -> tuple:
    params = [] if first is None else [first]
    while len(params) < count:
        if not distinct:
            params.append(make())
            continue
        for _ in range(_DISTINCT_ATTEMPTS):
            cand = make()
            if cand not in params:
                params.append(cand)
                break
        else:
            raise SingularInput("could not draw distinct edge parameters")
    return tuple(params)


def _draw_point(map_id: MapId, stream: RationalStream) -> YBPoint:
    m = map_id.block_size()
    first = tuple(stream.next() for _ in range(m))
    second = tuple(stream.next() for _ in range(m))
    return YBPoint(first, second)


def _yb(map_id, stream, corrupt, x, y, z, beta1, beta2, beta3):
    t = TripleState(x, y, z, beta1, beta2, beta3)
    return check_yb_relation(map_id, t, corrupt=corrupt), None


def _unitarity(map_id, stream, corrupt, x, y, beta1, beta2):
    # the map, then its swapped-parameter conjugate, restores (x, y)
    p, q = apply_map(map_id, x, y, beta1, beta2, corrupt=corrupt)
    p2, q2 = apply_map(map_id, q, p, beta2, beta1, corrupt=corrupt)
    return (q2, p2) == (x, y), None


def _consistency(system, stream, corrupt, f, f1, f2, f3, beta1, beta2, beta3):
    # the staircase f -> f_(1) -> f_(1,2) -> f_(1,2,3) crosses the cube in
    # two ways, flip words (1, 2, 1) and (2, 1, 2), three faces each; both
    # end on f -> f_(3) -> f_(2,3) -> f_(1,2,3) with alphas (b3, b2, b1)
    path = PathState((f, f1, f2, f3), (beta1, beta2, beta3), False, system)
    after = _FlipWords(path)
    return after[1, 2, 1] == after[2, 1, 2], None


_PATH_VERTICES = 8


def _braid(system, stream, corrupt):
    path = random_path(stream, _PATH_VERTICES, system=system)
    return check_flip_laws(path), {"path": path}


def _zero_curvature(map_id, stream, corrupt, x, y, beta1, beta2):
    p, q = apply_map(map_id, x, y, beta1, beta2, corrupt=corrupt)
    return check_zero_curvature(x, y, p, q, beta1, beta2), None


def _commuting_diagram(map_id, stream, corrupt, f, f1, f2, beta1, beta2):
    square = SquareSolution.solve(map_id.system, f, f1, f2, beta1, beta2)
    return check_commuting_diagram(map_id, square, corrupt=corrupt), None


def _functional_relations(map_id, stream, corrupt, x, y, beta1, beta2):
    p, q = apply_map(map_id, x, y, beta1, beta2)
    if corrupt:
        # the relations eliminate the multipliers, so a corrupted
        # multiplier cannot break them; shift the candidate image instead
        p = YBPoint(tuple(c + 1 for c in p.first), p.second)
    residuals = functional_relation_residuals(map_id, x, y, p, q)
    return all(r == 0 for r in residuals), {"residuals": residuals}


def _non_quadrirational(map_id, stream, corrupt, x, y, beta1, beta2):
    block = p_independent_block(map_id)
    replacement = tuple(stream.next() for _ in range(map_id.block_size()))
    if replacement == (x.first if block == "first" else x.second):
        # any change works; shifting keeps the draw deterministic
        replacement = tuple(c + 1 for c in replacement)
    p, _ = apply_map(map_id, x, y, beta1, beta2, corrupt=corrupt)
    p2, _ = apply_map(
        map_id, replace_block(x, block, replacement), y, beta1, beta2, corrupt=corrupt
    )
    return p2 == p, {"replaced_block": block, "replacement": replacement}


class _Case(NamedTuple):
    """What one sample of a property draws, and the law it tests on the draw.

    law(subject, stream, corrupt, **drawn) returns the verdict and the
    extra dump entries, or None; the subject is the parent system of a
    family property's target, and the map otherwise.  A NamedTuple, not
    a dataclass: it is built at import, which the set-up time counts.
    """

    law: Callable
    params: int
    points: tuple = ()
    distinct: bool = False
    field: bool = False
    family: bool = False


_CASES = {
    Property.YB: _Case(_yb, 3, ("x", "y", "z"), distinct=True),
    Property.UNITARITY: _Case(_unitarity, 2, ("x", "y")),
    Property.CONSISTENCY_3D: _Case(
        _consistency, 3, ("f", "f1", "f2", "f3"), field=True, family=True
    ),
    Property.BRAID: _Case(_braid, 0, family=True),
    Property.ZERO_CURVATURE: _Case(_zero_curvature, 2, ("x", "y")),
    Property.COMMUTING_DIAGRAM: _Case(
        _commuting_diagram, 2, ("f", "f1", "f2"), field=True
    ),
    Property.FUNCTIONAL_RELATIONS: _Case(_functional_relations, 2, ("x", "y")),
    Property.NON_QUADRIRATIONAL: _Case(_non_quadrirational, 2, ("x", "y")),
}

_BETAS = ("beta1", "beta2", "beta3")


def _resolve_case(target, prop: Property, corrupt: bool, first=None):
    if corrupt and prop not in CORRUPTIBLE:
        raise ValueError(f"property {prop.value} has no corruption fixture")
    law, count, points, distinct, field, family = _CASES[prop]
    if first is not None and not count:
        raise ValueError(f"property {prop.value} does not take a pinned parameter")
    system = target_system(target)
    if not family and not isinstance(target, MapId):
        raise ValueError(f"property {prop.value} needs a map id, not a family")
    if prop is Property.ZERO_CURVATURE and not target.spec.zero_curvature:
        raise ValueError("zero-curvature verification covers e1-shaded only")
    subject = system if family else target
    draw, owner = (_draw_field_point, system) if field else (_draw_point, target)
    names = points + _BETAS[:count]

    def run(stream: RationalStream):
        params = _draw_params(_param_maker(system, stream), count, distinct, first)
        drawn = dict(zip(names, [draw(owner, stream) for _ in points] + list(params)))
        ok, extras = law(subject, stream, corrupt, **drawn)
        if extras:
            drawn.update(extras)
        return ok, drawn

    return run


def sweep(
    target,
    prop: Property,
    seed: int = 42,
    n: int = 100,
    bound: int = 10,
    *,
    corrupt: bool = False,
    retry_budget: int = 25,
    first_param=None,
) -> VerificationReport:
    """Evaluate a property on n seeded samples and aggregate the outcomes.

    target is a MapId, or a QuadSystem for the family-level properties
    (consistency-3d and braid).  Each sample redraws on SingularInput up
    to retry_budget times before being counted as skipped; a sweep whose
    every sample is skipped raises RetryBudgetExhausted instead of
    returning a vacuous report.  first_param, when given, replaces the
    first edge parameter of every sample (the CLI's slope-pinning hook).
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if retry_budget < 1:
        raise ValueError(f"retry budget must be >= 1, got {retry_budget}")
    run = _resolve_case(target, prop, corrupt, first_param)
    stream = RationalStream(seed, bound)
    valid = passed = skipped = 0
    first_failure = None
    for _ in range(n):
        outcome = None
        for _ in range(retry_budget):
            try:
                outcome = run(stream)
            except SingularInput:
                continue
            break
        if outcome is None:
            skipped += 1
            continue
        ok, drawn = outcome
        valid += 1
        if ok:
            passed += 1
        elif first_failure is None:
            first_failure = _encode(drawn)
    if valid == 0:
        raise RetryBudgetExhausted(
            f"no valid sample in {n} tries with budget {retry_budget}; "
            "the parameter choice looks degenerate"
        )
    return VerificationReport(
        target.label(), prop, n, valid, passed, skipped, first_failure
    )


CATALOG_MAPS = (
    MapId.e1_shaded(), MapId.e1_blank(), MapId.e2(), MapId.e3(),
    MapId.e4(Rational(7, 3)), MapId.e4_eps0_scaling(), MapId.e4_eps0_joint(),
    MapId.e5(), MapId.vnls(3),
)
CATALOG_SYSTEMS = (
    QuadSystem.e1(), QuadSystem.e2(), QuadSystem.e3(),
    QuadSystem.e4(Rational(7, 3)), QuadSystem.e5(1), QuadSystem.vnls(3),
)
# the properties every catalog map is swept for
MAP_PROPERTIES = (
    Property.YB, Property.UNITARITY, Property.COMMUTING_DIAGRAM,
    Property.FUNCTIONAL_RELATIONS, Property.NON_QUADRIRATIONAL,
)


def plan():
    """Every (target, property) sweep of the catalog, in report order.

    The map properties run on every catalog map, zero-curvature on the
    maps with a Lax pair, and consistency-3d and braid on every catalog
    system.
    """
    for map_id in CATALOG_MAPS:
        for prop in MAP_PROPERTIES:
            yield map_id, prop
        if map_id.spec.zero_curvature:
            yield map_id, Property.ZERO_CURVATURE
    for system in CATALOG_SYSTEMS:
        yield system, Property.CONSISTENCY_3D
    for system in CATALOG_SYSTEMS:
        yield system, Property.BRAID
