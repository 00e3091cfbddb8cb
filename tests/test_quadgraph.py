from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from yblattice.chains import PathState, _FlipWords
from yblattice.errors import IncompatibleAction, SingularInput, ZeroScale
from yblattice.exactnum import (
    Rational,
    RationalStream,
    _y_over_one_minus_yz,
    gamma_pair_from_slope,
)
from yblattice.quadgraph import (
    FAMILY_SPECS,
    EdgeKind,
    Family,
    FieldPoint,
    QuadData,
    QuadSystem,
    apply_symmetry,
    check_symmetry_invariance,
    evolve_quad,
    quad_rhs,
    scale_opposite,
    scale_same,
    translate,
)

SCALAR_SYSTEMS = (
    QuadSystem.e1(),
    QuadSystem.e2(),
    QuadSystem.e3(),
    QuadSystem.e4(Fraction(7, 3)),
    QuadSystem.e5(1),
)

ALL_SYSTEMS = SCALAR_SYSTEMS + (QuadSystem.vnls(3),)


def system_params(system: QuadSystem, stream: RationalStream):
    if system.label().startswith("e5"):
        return lambda: gamma_pair_from_slope(stream.next_nonzero(), system.delta)
    if system.label().startswith("e4"):
        return stream.next_nonzero
    return stream.next


def random_field(system: QuadSystem, stream: RationalStream) -> FieldPoint:
    n = system.components()
    if n == 1:
        return FieldPoint(stream.next(), stream.next())
    return FieldPoint(
        tuple(stream.next() for _ in range(n)),
        tuple(stream.next() for _ in range(n)),
    )


def test_every_family_has_one_spec():
    assert list(FAMILY_SPECS) == list(Family)
    for family, spec in FAMILY_SPECS.items():
        # scalar families share one face built from their right-hand side
        assert (spec.rhs is None) == spec.vector, family


def test_field_point_shape_contract():
    with pytest.raises(ValueError):
        FieldPoint(Fraction(1), (Fraction(2),))
    with pytest.raises(ValueError):
        FieldPoint((Fraction(1),), (Fraction(2), Fraction(3)))


def test_rhs_worked_values():
    assert quad_rhs(
        QuadSystem.e1(), Fraction(3), Fraction(1), Fraction(2), Fraction(5), Fraction(1)
    ) == Fraction(-1)
    assert quad_rhs(
        QuadSystem.e3(), Fraction(1), Fraction(2), Fraction(3), Fraction(1), Fraction(0)
    ) == Fraction(2)


def textbook_rhs(system: QuadSystem, x, y, z, b1, b2) -> Fraction:
    """F(x; y, z) of each scalar family, written out in Fraction arithmetic."""
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    label = system.label()
    if label == "e1":
        return x + (Fraction(b1) - b2) * y / (1 - y * z)
    if label == "e2":
        return x + (Fraction(b2) - b1) * (y - x) / (b2 + y * z)
    if label == "e3":
        return x + (Fraction(b1) - b2) * (x + z) / (y + z - b1)
    if label == "e4":
        eps = Fraction(system.epsilon)
        b1, b2 = Fraction(b1), Fraction(b2)
        return x + (1 / b1 - 1 / b2) * (b1 * b2 * (x + z) * (y - x) - eps) / (
            b2 * (x + z) + b1 * (y - x)
        )
    d = b1.beta - b2.beta
    return (d * y * z + x * (b2.gamma * y + b1.gamma * z)) / (
        d * x + b1.gamma * y + b2.gamma * z
    )


@pytest.mark.parametrize(
    "system", SCALAR_SYSTEMS + (QuadSystem.e4(2),), ids=lambda s: s.label()
)
def test_rhs_of_int_operands_is_an_exact_rational(system):
    if system.spec.edge is EdgeKind.GAMMA:
        b1, b2 = gamma_pair_from_slope(4, system.delta), gamma_pair_from_slope(5, system.delta)
    else:
        b1, b2 = 4, 5
    got = quad_rhs(system, 1, 2, 3, b1, b2)
    assert type(got) is Rational
    assert got == textbook_rhs(system, 1, 2, 3, b1, b2)


def test_rhs_names_vanishing_denominator():
    with pytest.raises(SingularInput, match=r"1 - y\*z"):
        quad_rhs(
            QuadSystem.e1(), Fraction(0), Fraction(2), Fraction(1, 2), Fraction(1), Fraction(0)
        )
    with pytest.raises(SingularInput, match="b2"):
        quad_rhs(
            QuadSystem.e4(Fraction(0)), Fraction(1), Fraction(2), Fraction(3), Fraction(1), Fraction(0)
        )


def test_evolve_worked_example():
    data = QuadData(
        f=FieldPoint(Fraction(3), Fraction(4)),
        f1=FieldPoint(Fraction(1), Fraction(7)),
        f2=FieldPoint(Fraction(9), Fraction(2)),
        beta1=Fraction(5),
        beta2=Fraction(1),
    )
    assert evolve_quad(QuadSystem.e1(), data) == FieldPoint(Fraction(-1), Fraction(12))


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=lambda s: s.label())
def test_equal_params_evolve_to_identity(system):
    stream = RationalStream(3, 10)
    make = system_params(system, stream)
    done = 0
    while done < 25:
        data = QuadData(
            random_field(system, stream),
            random_field(system, stream),
            random_field(system, stream),
            *(lambda b: (b, b))(make()),
        )
        try:
            f12 = evolve_quad(system, data)
        except SingularInput:
            continue
        done += 1
        assert f12 == data.f


def cube_words(system: QuadSystem, fields, params) -> _FlipWords:
    """Flip words of the staircase path (f, f_(1), f_(1,2), f_(1,2,3))."""
    return _FlipWords(PathState(tuple(fields), tuple(params), system=system))


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=lambda s: s.label())
def test_consistency_on_sampled_cubes(system):
    stream = RationalStream(11, 10)
    make = system_params(system, stream)
    done = 0
    while done < 25:
        f, f1, f2, f3 = fields = [random_field(system, stream) for _ in range(4)]
        b1, b2, b3 = params = [make() for _ in range(3)]
        try:
            # route (a) by hand: the faces at f1, at f2, then at the new f_(2)
            g2 = evolve_quad(system, QuadData(f1, f, f2, b1, b2))
            g23 = evolve_quad(system, QuadData(f2, g2, f3, b1, b3))
            g3 = evolve_quad(system, QuadData(g2, f, g23, b2, b3))
            after = cube_words(system, fields, params)
            route_a, route_b = after[1, 2, 1], after[2, 1, 2]
        except SingularInput:
            continue
        done += 1
        assert route_a == ([f, g3, g23, f3], [b3, b2, b1])
        assert route_b == route_a


def test_cube_with_equal_parameters_is_flat():
    # every face with equal edge parameters is the identity
    stream = RationalStream(2, 6)
    fields = [random_field(QuadSystem.e1(), stream) for _ in range(4)]
    b = Fraction(1, 2)
    after = cube_words(QuadSystem.e1(), fields, [b, b, b])
    assert after[1, 2, 1] == after[2, 1, 2] == after[()]


def test_consistency_singular_names_face():
    fields = [
        FieldPoint(Fraction(1), Fraction(1)),
        FieldPoint(Fraction(1), Fraction(3)),
        FieldPoint(Fraction(5), Fraction(1)),
        FieldPoint(Fraction(2), Fraction(2)),
    ]
    after = cube_words(QuadSystem.e1(), fields, [Fraction(1), Fraction(2), Fraction(3)])
    with pytest.raises(SingularInput, match=r"flip at vertex 1: 1 - y\*z"):
        after[1, 2, 1]


def test_translate_action_worked_example():
    moved = apply_symmetry(
        QuadSystem.e3(), translate(Fraction(2)), FieldPoint(Fraction(1), Fraction(1))
    )
    assert moved == FieldPoint(Fraction(3), Fraction(-1))


def test_scale_actions():
    p = FieldPoint(Fraction(3), Fraction(4))
    assert apply_symmetry(QuadSystem.e1(), scale_opposite(Fraction(2)), p) == FieldPoint(
        Fraction(6), Fraction(2)
    )
    assert apply_symmetry(QuadSystem.e5(1), scale_same(Fraction(2)), p) == FieldPoint(
        Fraction(6), Fraction(8)
    )


def test_scale_opposite_componentwise():
    p = FieldPoint((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))
    moved = apply_symmetry(
        QuadSystem.vnls(2), scale_opposite((Fraction(2), Fraction(3))), p
    )
    assert moved == FieldPoint(
        (Fraction(2), Fraction(6)), (Fraction(3, 2), Fraction(4, 3))
    )


def test_zero_scale_rejected():
    with pytest.raises(ZeroScale):
        scale_opposite(Fraction(0))
    with pytest.raises(ZeroScale):
        scale_opposite((Fraction(1), Fraction(0)))


def test_admissibility_matrix():
    with pytest.raises(IncompatibleAction):
        apply_symmetry(QuadSystem.e1(), translate(Fraction(1)), FieldPoint(Fraction(1), Fraction(2)))
    with pytest.raises(IncompatibleAction):
        apply_symmetry(QuadSystem.e3(), scale_opposite(Fraction(2)), FieldPoint(Fraction(1), Fraction(2)))
    with pytest.raises(IncompatibleAction):
        apply_symmetry(QuadSystem.e4(Fraction(1)), scale_same(Fraction(2)), FieldPoint(Fraction(1), Fraction(2)))
    # the epsilon = 0 degeneration regains the joint scaling
    apply_symmetry(QuadSystem.e4(Fraction(0)), scale_same(Fraction(2)), FieldPoint(Fraction(1), Fraction(2)))


@pytest.mark.parametrize(
    "system, action",
    [
        (QuadSystem.e1(), scale_opposite(Fraction(5, 3))),
        (QuadSystem.e2(), scale_opposite(Fraction(-2))),
        (QuadSystem.e3(), translate(Fraction(7, 2))),
        (QuadSystem.e4(Fraction(7, 3)), translate(Fraction(-3))),
        (QuadSystem.e4(Fraction(0)), scale_same(Fraction(3))),
        (QuadSystem.e5(1), scale_same(Fraction(1, 2))),
        (QuadSystem.vnls(2), scale_opposite((Fraction(2), Fraction(-3)))),
    ],
    ids=lambda v: v.label() if isinstance(v, QuadSystem) else v.kind.value,
)
def test_symmetries_commute_with_evolution(system, action):
    stream = RationalStream(8, 10)
    make = system_params(system, stream)
    done = 0
    while done < 20:
        data = QuadData(
            random_field(system, stream),
            random_field(system, stream),
            random_field(system, stream),
            make(),
            make(),
        )
        try:
            ok = check_symmetry_invariance(system, action, data)
        except SingularInput:
            continue
        done += 1
        assert ok


@given(st.integers(0, 10**6))
def test_e1_evolution_matches_scalar_rhs(seed):
    stream = RationalStream(seed, 8)
    system = QuadSystem.e1()
    data = QuadData(
        random_field(system, stream),
        random_field(system, stream),
        random_field(system, stream),
        stream.next(),
        stream.next(),
    )
    try:
        f12 = evolve_quad(system, data)
    except SingularInput:
        return
    assert f12.u == quad_rhs(
        system, data.f.u, data.f1.u, data.f2.v, data.beta1, data.beta2
    )
    assert f12.v == quad_rhs(
        system, data.f.v, data.f2.v, data.f1.u, data.beta2, data.beta1
    )


# Numerators and denominators made of 2, 3 and 5 only, so that gcd(p, t)
# and gcd(s, q) of y = p/q and z = s/t are often above 1 and repeated:
# exactly the cancellations y/(1 - y*z) must carry out.
SMOOTH = st.builds(
    lambda a, b, c: 2**a * 3**b * 5**c,
    st.integers(0, 9),
    st.integers(0, 5),
    st.integers(0, 3),
)


@st.composite
def smooth_scalars(draw):
    num = draw(st.sampled_from((-1, 0, 1))) * draw(SMOOTH)
    kind = draw(st.sampled_from((int, Fraction, Rational)))
    return num if kind is int else kind(num, draw(SMOOTH))


def textbook_e1(x, y, z, b1, b2):
    return x + (b1 - b2) * y / (1 - y * z)


def assert_reduced_rational(value):
    assert type(value) is Rational
    assert value.denominator > 0
    assert gcd(value.numerator, value.denominator) == 1


@given(smooth_scalars(), smooth_scalars(), smooth_scalars(), smooth_scalars(), smooth_scalars())
def test_e1_rhs_is_exact_and_reduced(x, y, z, b1, b2):
    fx, fy, fz, fb1, fb2 = (Fraction(c) for c in (x, y, z, b1, b2))
    assume(fy * fz != 1)
    quotient = _y_over_one_minus_yz(y, z)
    assert quotient == fy / (1 - fy * fz)
    assert_reduced_rational(quotient)
    value = quad_rhs(QuadSystem.e1(), x, y, z, b1, b2)
    assert value == textbook_e1(fx, fy, fz, fb1, fb2)
    assert_reduced_rational(value)


@given(smooth_scalars(), st.sampled_from((Fraction, Rational)))
def test_e1_rhs_names_unit_product(y, kind):
    assume(y != 0)
    z = kind(1 / Fraction(y))
    with pytest.raises(SingularInput, match=r"^1 - y\*z$"):
        quad_rhs(QuadSystem.e1(), Fraction(3), y, z, Fraction(2), Fraction(1))


@pytest.mark.parametrize(
    "x, y, z, b1, b2",
    [
        (0.5, 0.25, -2.0, 3.0, 1.0),
        (Rational(1, 3), 0.5, Rational(1, 4), 3, 1),
        (Fraction(1, 3), True, False, 2, True),
        (Rational(2), True, Fraction(1, 2), Rational(5), 0),
    ],
)
def test_e1_rhs_foreign_operands_take_the_textbook_expression(x, y, z, b1, b2):
    value = quad_rhs(QuadSystem.e1(), x, y, z, b1, b2)
    want = textbook_e1(x, y, z, b1, b2)
    assert value == want
    assert type(value) is type(want)


@pytest.mark.parametrize("y, z", [(0.5, 2.0), (True, True), (True, Fraction(1))])
def test_e1_rhs_foreign_unit_product_is_singular(y, z):
    with pytest.raises(SingularInput, match=r"^1 - y\*z$"):
        quad_rhs(QuadSystem.e1(), Fraction(3), y, z, Fraction(2), Fraction(1))
