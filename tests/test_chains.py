from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from math import gcd

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from yblattice import chains
from yblattice.chains import (
    PathState,
    check_flip_laws,
    csv_header,
    csv_row,
    flip,
    random_path,
    transfer_step,
)
from yblattice.errors import IndexOutOfRange, SingularInput
from yblattice.exactnum import GammaPair, Rational, RationalStream
from yblattice.quadgraph import FieldPoint, QuadData, QuadSystem, evolve_quad

E1, VNLS2, VNLS3 = QuadSystem.e1(), QuadSystem.vnls(2), QuadSystem.vnls(3)
SYSTEMS = (
    E1,
    QuadSystem.e2(),
    QuadSystem.e3(),
    QuadSystem.e4(Fraction(7, 3)),
    QuadSystem.e5(1),
    QuadSystem.e5(0),
    VNLS3,
)


def scalar_path(us, vs, alphas, *, periodic=False) -> PathState:
    vertices = tuple(FieldPoint(Fraction(u), Fraction(v)) for u, v in zip(us, vs))
    return PathState(vertices, tuple(Fraction(a) for a in alphas), periodic=periodic)


def nonsingular_path(seed: int, count: int, *, periodic=False, system=E1) -> PathState:
    return random_path(RationalStream(seed, 10), count, periodic=periodic, system=system)


def test_flip_worked_example():
    path = scalar_path([1, 3, 8], [9, 4, 2], [5, 1])
    flipped = flip(path, 1)
    assert flipped.vertices[1] == FieldPoint(Fraction(-1), Fraction(12))
    assert flipped.alphas == (Fraction(1), Fraction(5))
    assert flipped.vertices[0] == path.vertices[0]
    assert flipped.vertices[2] == path.vertices[2]


def test_flip_with_equal_parameters_is_identity():
    path = scalar_path([1, 3, 8], [9, 4, 2], [5, 5])
    assert flip(path, 1) == path


def test_flip_boundary_rejected():
    path = scalar_path([1, 3, 8], [9, 4, 2], [5, 1])
    for k in (0, 2, -1, 3):
        with pytest.raises(IndexOutOfRange):
            flip(path, k)


def test_flip_singular_names_vertex():
    path = scalar_path([1, 3, 1], [9, 4, 1], [5, 1])
    with pytest.raises(SingularInput, match="vertex 1"):
        flip(path, 1)


def test_flip_periodic_wraps():
    path = nonsingular_path(3, 4, periodic=True)
    wrapped = flip(path, 0)
    direct = flip(path, 4)
    assert wrapped == direct


@given(st.integers(0, 10**6), st.integers(1, 6))
def test_flip_is_an_involution(seed, k):
    path = nonsingular_path(seed, 8)
    try:
        once = flip(path, k)
        twice = flip(once, k)
    except SingularInput:
        return
    assert twice == path


@given(st.integers(0, 10**6))
def test_flip_involution_on_vector_paths(seed):
    path = nonsingular_path(seed, 6, system=VNLS3)
    try:
        assert flip(flip(path, 2), 2) == path
    except SingularInput:
        pass


def test_path_state_validates_lengths():
    vs = tuple(FieldPoint(Fraction(i), Fraction(i + 1)) for i in range(3))
    with pytest.raises(ValueError):
        PathState(vs, (Fraction(1),))
    with pytest.raises(ValueError):
        PathState(vs, (Fraction(1), Fraction(2)), periodic=True)
    with pytest.raises(ValueError):
        PathState(vs[:1], ())


def test_braid_relation_sampled():
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        path = nonsingular_path(seed, 8)
        try:
            ok = check_flip_laws(path)
        except SingularInput:
            continue
        checked += 1
        assert ok


def test_braid_relation_vector_fields():
    checked = 0
    seed = 0
    while checked < 30:
        seed += 1
        path = nonsingular_path(seed, 8, system=VNLS3)
        try:
            ok = check_flip_laws(path)
        except SingularInput:
            continue
        checked += 1
        assert ok


def test_braid_trivial_when_parameters_agree():
    path = scalar_path([1, 3, 8, 2, 7], [9, 4, 2, 5, 1], [2, 2, 2, 2])
    assert check_flip_laws(path)


def test_braid_singular_is_an_error_not_a_verdict():
    # u_1 v_3 = 1 makes the flip at vertex 2 singular
    path = scalar_path([5, 2, 3, 4, 6], [1, 9, 8, Fraction(1, 2), 7], [1, 2, 3, 4])
    with pytest.raises(SingularInput):
        check_flip_laws(path)


def test_commutation_sampled():
    # longer paths: 21 distant pairs on 10 vertices against 10 on 8
    checked = 0
    seed = 0
    while checked < 50:
        seed += 1
        path = nonsingular_path(seed, 10)
        try:
            ok = check_flip_laws(path)
        except SingularInput:
            continue
        checked += 1
        assert ok


def flip_laws_by_fold(path: PathState) -> bool:
    """Every flip law of an open path, folded from `flip` through PathState."""
    interior = range(1, len(path.vertices) - 1)
    verdicts = [flip(flip(path, k), k) == path for k in interior]
    for j in interior[:-1]:
        lhs = flip(flip(flip(path, j + 1), j), j + 1)
        rhs = flip(flip(flip(path, j), j + 1), j)
        verdicts.append(lhs == rhs)
    for i in interior:
        for j in range(i + 2, interior[-1] + 1):
            verdicts.append(flip(flip(path, i), j) == flip(flip(path, j), i))
    return all(verdicts)


@given(
    st.integers(0, 10**6),
    st.integers(4, 9),
    st.sampled_from(SYSTEMS),
    st.sampled_from([1, 2, 10]),
    st.booleans(),
)
def test_flip_laws_match_the_fold_of_flips(
    corrupted_face, seed, count, system, bound, corrupt
):
    path = random_path(RationalStream(seed, bound), count, system=system)
    face = corrupted_face if corrupt else evolve_quad
    with mock.patch.object(chains, "evolve_quad", face):
        try:
            want = flip_laws_by_fold(path)
        except SingularInput:
            with pytest.raises(SingularInput):
                check_flip_laws(path)
            return
        assert check_flip_laws(path) == want


@pytest.mark.parametrize("system", [E1, VNLS3], ids=lambda s: str(s.components()))
def test_flip_laws_make_one_face_update_per_distinct_flip(monkeypatch, system):
    built, faces = [], []
    validate = PathState.__post_init__

    def counting_state(self):
        built.append(self)
        validate(self)

    def counting_face(system, data):
        faces.append(data)
        return evolve_quad(system, data)

    monkeypatch.setattr(PathState, "__post_init__", counting_state)
    monkeypatch.setattr(chains, "evolve_quad", counting_face)
    path = random_path(RationalStream(3, 10), 8, system=system)
    assert check_flip_laws(path)
    # 6 flips, 6 flips back, 2 x 2 per adjacent pair, 2 per distant pair
    assert len(faces) == 6 + 6 + 5 * 4 + 10 * 2 == 52
    assert built == [path]


def test_flip_laws_need_an_open_path():
    with pytest.raises(ValueError):
        check_flip_laws(nonsingular_path(2, 6, periodic=True))


def test_transfer_requires_periodic():
    with pytest.raises(ValueError):
        transfer_step(nonsingular_path(1, 5))


def test_transfer_identity_when_parameters_agree():
    path = scalar_path([1, 3, 8, 2], [9, 4, 2, 5], [3, 3, 3, 3], periodic=True)
    assert transfer_step(path) == path


def test_transfer_preserves_parameter_multiset():
    state = nonsingular_path(21, 5, periodic=True)
    reference = Counter(state.alphas)
    for _ in range(50):
        state = transfer_step(state)
        assert Counter(state.alphas) == reference


def textbook_transfer(us: list, vs: list, alphas: list) -> None:
    """One transfer step of a scalar periodic chain, in place, on plain Fractions."""
    n = len(us)
    for k in (step % n for step in range(1, n + 1)):
        u_prev, v_next = us[k - 1], vs[(k + 1) % n]
        r = (alphas[k - 1] - alphas[k]) / (1 - u_prev * v_next)
        us[k] += r * u_prev
        vs[k] -= r * v_next
        alphas[k - 1], alphas[k] = alphas[k], alphas[k - 1]


def test_transfer_period_two_stays_exact():
    state = nonsingular_path(11, 2, periodic=True)
    us = [Fraction(v.u) for v in state.vertices]
    vs = [Fraction(v.v) for v in state.vertices]
    alphas = [Fraction(a) for a in state.alphas]
    bits = []
    for _ in range(60):
        state = transfer_step(state)
        textbook_transfer(us, vs, alphas)
        bits.append(
            max(
                max(abs(v.u.denominator), abs(v.v.denominator)).bit_length()
                for v in state.vertices
            )
        )
    assert all(isinstance(v.u, Fraction) for v in state.vertices)
    assert [v.u for v in state.vertices] == us
    assert [v.v for v in state.vertices] == vs
    assert list(state.alphas) == alphas
    for c in (c for v in state.vertices for c in (v.u, v.v)):
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
    # growth is polynomial: quadrupling the sweep count must not square
    # the size the way exponential growth would
    assert bits[-1] < 40 * max(bits[14], 1)


@given(st.integers(0, 10**6), st.integers(2, 7), st.sampled_from(SYSTEMS))
def test_transfer_step_is_the_fold_of_its_flips(seed, period, system):
    path = nonsingular_path(seed, period, periodic=True, system=system)
    folded = path
    try:
        for step in range(1, period + 1):
            folded = flip(folded, step)
    except SingularInput as err:
        with pytest.raises(SingularInput, match=re.escape(f"sweep position {step}: {err}")):
            transfer_step(path)
    else:
        assert transfer_step(path) == folded
    assert path == nonsingular_path(seed, period, periodic=True, system=system)


def test_transfer_step_builds_one_path_state(monkeypatch):
    path = nonsingular_path(5, 40, periodic=True)
    built = []
    validate = PathState.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(PathState, "__post_init__", counting)
    transfer_step(path)
    assert len(built) == 1


def test_transfer_singular_names_position():
    state = scalar_path([2, 5], [Fraction(1, 2), 7], [1, 2], periodic=True)
    with pytest.raises(SingularInput, match="sweep position 1"):
        transfer_step(state)


def test_csv_round_trip_columns():
    path = scalar_path([1, 3, 8], [9, 4, 2], [5, 1])
    assert csv_header(path) == ["u0", "v0", "alpha0", "u1", "v1", "alpha1", "u2", "v2"]
    assert csv_row(path) == ["1", "9", "5", "3", "4", "1", "8", "2"]


def test_csv_rejects_vector_paths():
    path = nonsingular_path(1, 4, system=VNLS2)
    with pytest.raises(ValueError):
        csv_header(path)
    with pytest.raises(ValueError):
        csv_row(path)


def test_path_system_defaults_by_vertex_shape():
    assert scalar_path([1, 3], [9, 4], [5]).system == E1
    path = nonsingular_path(1, 4)
    assert path.system == E1
    assert path == PathState(path.vertices, path.alphas)
    vector = FieldPoint((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))
    assert PathState((vector, vector), (Fraction(1),)).system == VNLS2


def test_path_system_must_match_the_vertices():
    vertices = tuple(FieldPoint(Fraction(i), Fraction(i + 1)) for i in range(3))
    with pytest.raises(ValueError, match="vnls:2"):
        PathState(vertices, (Fraction(1), Fraction(2)), system=VNLS2)


def test_alphas_become_rationals_unless_they_are_gamma_pairs():
    vertices = tuple(FieldPoint(Fraction(i), Fraction(i + 1)) for i in range(3))
    path = PathState(vertices, (2, Fraction(1, 3)))
    assert [type(a) for a in path.alphas] == [Rational, Rational]
    e5 = random_path(RationalStream(4, 10), 5, system=QuadSystem.e5(1))
    assert all(type(a) is GammaPair for a in e5.alphas)
    assert PathState(e5.vertices, e5.alphas, system=e5.system) == e5


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.label())
def test_flip_runs_the_face_of_the_path_system(system):
    path = nonsingular_path(6, 5, system=system)
    v, a = path.vertices, path.alphas
    try:
        want = evolve_quad(system, QuadData(v[2], v[1], v[3], a[1], a[2]))
    except SingularInput:
        pytest.skip("singular draw")
    flipped = flip(path, 2)
    assert flipped.vertices[2] == want
    assert flipped.alphas == (a[0], a[2], a[1], a[3])
    assert flipped.system is system


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.label())
def test_transfer_steps_keep_the_system_and_the_parameter_multiset(system):
    state = nonsingular_path(21, 5, periodic=True, system=system)
    reference = Counter(state.alphas)
    for _ in range(6):
        state = transfer_step(state)
        assert state.system is system
        assert Counter(state.alphas) == reference
