from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from yblattice import exactnum
from yblattice.errors import ZeroSlope
from yblattice.exactnum import (
    GammaPair,
    RationalStream,
    format_rational,
    gamma_pair_from_slope,
    parse_rational,
    sample_rational,
)


def test_parse_plain_and_fraction():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("+4/6") == Fraction(2, 3)


@pytest.mark.parametrize("text", ["", "1.5", "1e3", " 1", "1 ", "1/-2", "a/b", "1//2"])
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
