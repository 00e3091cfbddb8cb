from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from yblattice import cli, exactnum, lax, quadgraph, verify
from yblattice.chains import PathState
from yblattice.errors import ZeroSlope
from yblattice.exactnum import (
    GammaPair,
    Rational,
    RationalStream,
    format_rational,
    gamma_pair_from_slope,
    parse_rational,
    sample_rational,
)
from yblattice.quadgraph import FieldPoint, QuadSystem
from yblattice.ybmaps import MapId, YBPoint, map_multipliers


def test_parse_plain_and_fraction():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("+4/6") == Fraction(2, 3)


@pytest.mark.parametrize(
    "text",
    [
        "", "1.5", "1e3", " 1", "1 ", "1/-2", "a/b", "1//2",
        # a trailing newline, Arabic-Indic and fullwidth digits
        "3/4\n", "\u0663/4", "3/\u0664", "\uff11/2",
    ],
)
def test_parse_rejects_non_literals(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("3/0")


def test_format_is_canonical():
    assert format_rational(Fraction(4, 6)) == "2/3"
    assert format_rational(Fraction(-8, 2)) == "-4"
    assert format_rational(Fraction(0, 5)) == "0"


def test_format_past_the_int_digit_limit():
    # 5,000 digits is over CPython's default int-to-str limit of 4,300
    big = 3 * 10**4999 + 1
    assert format_rational(Fraction(big, 7)) == "3" + "0" * 4998 + "1/7"
    assert format_rational(Fraction(-big)) == "-3" + "0" * 4998 + "1"
    assert format_rational(Fraction(1, 10**5000)) == "1/1" + "0" * 5000


_BIG = 2**5000
_INTS = st.one_of(st.integers(-50, 50), st.integers(-_BIG, _BIG))
# small denominators share factors, which the reductions must cancel
_FRACTIONS = st.builds(
    Fraction, _INTS, st.one_of(st.integers(1, 12), _INTS.filter(bool))
)
_OPERANDS = st.one_of(
    _FRACTIONS.map(Rational),
    _FRACTIONS,
    _INTS,
    st.booleans(),
    st.floats(),
)
_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def _plain(value):
    return Fraction(value) if type(value) is Rational else value


def _outcome(op, *args):
    try:
        return op(*args)
    except (ZeroDivisionError, OverflowError) as err:
        return type(err)


@given(_FRACTIONS.map(Rational), _OPERANDS, st.sampled_from(_OPS))
@example(Rational(1, 6), Fraction(1, 6), operator.add)
@example(Rational(5, 6), Rational(1, 6), operator.sub)
# division by a zero of every operand type, in both orders
@example(Rational(0), 1, operator.truediv)
@example(Rational(0), Fraction(3, 4), operator.truediv)
@example(Rational(3, 4), False, operator.truediv)
@example(Rational(3, 4), 0.0, operator.truediv)
def test_rational_arithmetic_matches_fraction(a, b, op):
    for x, y in ((a, b), (b, a)):
        got, want = _outcome(op, x, y), _outcome(op, _plain(x), _plain(y))
        if isinstance(want, type):
            assert got is want
        elif isinstance(want, float):
            assert type(got) is float and repr(got) == repr(want)
        else:
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
            assert hash(got) == hash(want) and str(got) == str(want)
            if {type(x), type(y)} <= {int, Fraction, Rational}:
                assert type(got) is Rational
                assert got.denominator > 0
                assert math.gcd(got.numerator, got.denominator) == 1
        assert (x == y) == (_plain(x) == _plain(y))
    assert type(-a) is Rational and -a == -Fraction(a)
    assert hash(a) == hash(Fraction(a)) and str(a) == str(Fraction(a))


_ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge)


@given(_FRACTIONS.map(Rational), _OPERANDS)
@example(Rational(1, 6), Fraction(1, 6))
@example(Rational(-1, 3), -1)
@example(Rational(1), True)
@example(Rational(0), False)
@example(Rational(1, 2), 0.5)
@example(Rational(3, 4), math.nan)
@example(Rational(3, 4), math.inf)
@example(Rational(-3, 4), -math.inf)
def test_rational_ordering_matches_fraction(a, b):
    for x, y in ((a, b), (b, a)):
        for op in _ORDERINGS:
            got, want = op(x, y), op(_plain(x), _plain(y))
            assert type(got) is bool and got == want, (op, x, y)


def test_every_coercion_site_makes_rationals():
    args = cli.build_parser().parse_args(["verify", "--map", "e4", "--property", "yb"])
    path = PathState(
        (FieldPoint(Fraction(1), Fraction(2)), FieldPoint(Fraction(3), Fraction(4))),
        (Fraction(1, 2),),
    )
    vnls = map_multipliers(
        MapId.vnls(1), YBPoint.of(Fraction(2), Fraction(1)),
        YBPoint.of(Fraction(3), Fraction(5)), Fraction(1), Fraction(0),
    )
    pair = gamma_pair_from_slope(Fraction(2), 1)
    made = {
        "sampler": sample_rational(1, 0, 10),
        "parse_rational": parse_rational("3/4"),
        "gamma_pair beta": pair.beta,
        "gamma_pair gamma": pair.gamma,
        "YBPoint int": YBPoint.of(2, True).first[0],
        "PathState alpha": path.alphas[0],
        "lax._mat": lax.lax_matrix(Fraction(1), Fraction(2), Fraction(3)).c1[1][1],
        "MapId.e4": MapId.e4(2).epsilon,
        "QuadSystem.e4": QuadSystem.e4(2).epsilon,
        "cli default epsilon": cli._resolve_target(args).epsilon,
        "catalog map epsilon": next(
            m.epsilon for m in verify.CATALOG_MAPS if m.epsilon is not None
        ),
        "catalog system epsilon": next(
            s.epsilon for s in verify.CATALOG_SYSTEMS if s.epsilon is not None
        ),
        "quadgraph._dot": quadgraph._dot((Fraction(1),), (Fraction(2),)),
        "vnls multiplier": vnls["S"][0],
    }
    assert {site: type(v) for site, v in made.items()} == dict.fromkeys(made, Rational)


@given(st.fractions(min_value=-1000, max_value=1000, max_denominator=997))
def test_format_parse_round_trip(r):
    assert parse_rational(format_rational(r)) == r


@given(st.integers(0, 2**30), st.integers(0, 1000), st.integers(1, 50))
def test_sample_is_deterministic_and_bounded(seed, index, bound):
    a = sample_rational(seed, index, bound)
    b = sample_rational(seed, index, bound)
    assert a == b
    assert abs(a.numerator) <= bound
    assert 1 <= a.denominator <= bound


def test_sample_rejects_bad_bound():
    with pytest.raises(ValueError):
        sample_rational(1, 0, 0)


def reference_draw(seed, index, bound):
    """The string-seeded draw, without any memo."""
    rng = random.Random(f"{seed}:{index}:{bound}")
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


@pytest.fixture
def fresh_memo():
    exactnum._table.cache_clear()
    yield
    exactnum._table.cache_clear()


def remembered(keys) -> list:
    """Sizes of the tables kept for these (seed, bound) keys, without adding one."""
    misses = exactnum._table.cache_info().misses
    sizes = [len(exactnum._table(*key)) for key in keys]
    assert exactnum._table.cache_info().misses == misses
    return sizes


# six (seed, bound) keys, more than the tables kept; indices run past a
# shrunken per-table limit and come in any order, repeats included
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 40), st.integers(1, 3)),
        min_size=1,
        max_size=200,
    )
)
def test_remembered_draws_match_the_reference(draws):
    exactnum._table.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactnum, "_TABLE_ENTRIES", 16)
        for seed, index, bound in draws:
            assert sample_rational(seed, index, bound) == reference_draw(seed, index, bound)
    exactnum._table.cache_clear()


def test_interleaved_streams_draw_the_reference_values(fresh_memo):
    keys = [(seed, bound) for seed in (7, 8, 9) for bound in (2, 10)]
    order = [(key, index) for index in range(300) for key in keys]
    random.Random(0).shuffle(order)
    for (seed, bound), index in order + order:
        assert sample_rational(seed, index, bound) == reference_draw(seed, index, bound)


def test_int_subclasses_do_not_share_an_ints_entry(fresh_memo):
    sample_rational(1, 1, 10)
    sample_rational(1, 2, 10)
    assert sample_rational(True, 1, 10) == reference_draw(True, 1, 10)
    assert sample_rational(1, True, 10) == reference_draw(1, True, 10)
    assert reference_draw(True, 1, 10) != reference_draw(1, 1, 10)


def test_memo_stays_within_its_limits(fresh_memo, monkeypatch):
    monkeypatch.setattr(exactnum, "_TABLE_ENTRIES", 10)
    for seed in range(12):
        for index in range(25):
            sample_rational(seed, index, 10)
    assert exactnum._table.cache_info().currsize == exactnum._TABLES == 4
    # the four newest keys are kept, each with its first ten draws
    assert remembered([(seed, 10) for seed in range(8, 12)]) == [10] * 4


def test_remembered_value_is_returned_as_stored(fresh_memo):
    first = sample_rational(3, 17, 10)
    assert sample_rational(3, 17, 10) is first


def test_stream_calls_the_sampler_once_per_draw(fresh_memo, monkeypatch):
    calls = []
    draw = exactnum.sample_rational

    def counting(seed, index, bound):
        calls.append(index)
        return draw(seed, index, bound)

    monkeypatch.setattr(exactnum, "sample_rational", counting)
    for _ in range(2):
        stream = RationalStream(5, 10)
        for _ in range(4):
            stream.next()
    assert calls == [0, 1, 2, 3] * 2


def test_stream_walks_indices():
    stream = RationalStream(5, 10)
    first, second = stream.next(), stream.next()
    assert (first, second) == (sample_rational(5, 0, 10), sample_rational(5, 1, 10))
    assert stream.index == 2


def test_stream_nonzero_skips_zeros():
    stream = RationalStream(0, 1)
    values = [stream.next_nonzero() for _ in range(20)]
    assert all(v != 0 for v in values)


def test_gamma_pair_validates_constraint():
    GammaPair(beta=Fraction(0), gamma=Fraction(1), delta=1)
    GammaPair(beta=Fraction(2), gamma=Fraction(-2), delta=0)
    with pytest.raises(ValueError):
        GammaPair(beta=Fraction(1), gamma=Fraction(1), delta=1)
    with pytest.raises(ValueError):
        GammaPair(beta=Fraction(0), gamma=Fraction(1), delta=2)


def test_gamma_pair_from_slope_worked_values():
    assert gamma_pair_from_slope(Fraction(1), 1) == GammaPair(
        beta=Fraction(0), gamma=Fraction(1), delta=1
    )
    assert gamma_pair_from_slope(Fraction(2), 1) == GammaPair(
        beta=Fraction(-3, 4), gamma=Fraction(5, 4), delta=1
    )
    assert gamma_pair_from_slope(Fraction(2), 0) == GammaPair(
        beta=Fraction(-1), gamma=Fraction(1), delta=0
    )


def test_gamma_pair_from_slope_rejects_zero():
    with pytest.raises(ZeroSlope):
        gamma_pair_from_slope(Fraction(0), 1)


@given(
    st.fractions(min_value=-20, max_value=20, max_denominator=30).filter(lambda s: s != 0),
    st.sampled_from([0, 1]),
)
def test_slope_parametrizes_the_curve(slope, delta):
    pair = gamma_pair_from_slope(slope, delta)
    assert pair.gamma - pair.beta == slope
    assert pair.gamma + pair.beta == Fraction(delta) / slope
