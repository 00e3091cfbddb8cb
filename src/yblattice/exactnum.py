"""Exact rational scalars, seeded sampling, and constrained parameter pairs.

All arithmetic in this package is exact: values are `fractions.Fraction`
instances (re-exported as `Rational`), always in canonical form (positive
denominator, reduced).  Serialized form is "p/q" with "/q" omitted when the
denominator is 1, which is exactly `str()` of a Fraction.

Sampling is deterministic: `sample_rational(seed, index, bound)` is a pure
function of its arguments, so any run with the same seed reproduces
byte-for-byte.  Every sweep restarts its stream at index 0, so the same
values are asked for over and over; `sample_rational` remembers the first
8,192 draws of each of the 4 most recently used (seed, bound) pairs.  The
memo holds only values the draw itself returned, keyed by index, so no
order or interleaving of draws can change a value.  At worst it holds
4 x 8,192 `Fraction`s: about 3.7 MiB at bound 10, more only as far as the
drawn integers are larger.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .errors import ZeroSlope

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Rational:
    """Parse "p/q" or "p" into a Rational.

    Stricter than the Fraction constructor: no floats, no exponents, no
    whitespace, and the denominator (when present) must be a positive
    integer literal.
    """
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal (expected p or p/q): {text!r}")
    value = text.split("/")
    if len(value) == 2 and int(value[1]) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(text)


def format_rational(r: Rational) -> str:
    """Canonical "p/q" form, "/q" omitted when the denominator is 1.

    Integers beyond CPython's int-to-str digit limit (4,300 digits by
    default), which grown chains reach, are written through `Decimal`,
    whose conversion has no such limit.
    """
    try:
        return str(r)
    except ValueError:
        num = str(Decimal(r.numerator))
        return num if r.denominator == 1 else f"{num}/{Decimal(r.denominator)}"


# (seed, bound) pairs whose draws are remembered, and indices kept per pair
_TABLES = 4
_TABLE_ENTRIES = 8192


@lru_cache(maxsize=_TABLES, typed=True)
def _table(seed: int, bound: int) -> dict:
    return {}


def _draw(seed: int, index: int, bound: int) -> Rational:
    rng = random.Random(f"{seed}:{index}:{bound}")
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def sample_rational(seed: int, index: int, bound: int) -> Rational:
    """Deterministic rational with |numerator| <= bound, 1 <= denominator <= bound.

    Each (seed, index, bound) triple owns an independent generator, so
    samples can be drawn in any order.  Canonical reduction can only
    shrink numerator and denominator, so the bounds survive it.

    Draws are remembered by index in one table per (seed, bound).  The
    `_TABLES` most recently used tables are kept, each with its first
    `_TABLE_ENTRIES` draws; a remembered draw returns the stored
    `Fraction` without seeding a generator.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if type(index) is not int:
        # an int subclass would share its int's key but not its seed string
        return _draw(seed, index, bound)
    table = _table(seed, bound)
    value = table.get(index)
    if value is None:
        value = _draw(seed, index, bound)
        if len(table) < _TABLE_ENTRIES:
            table[index] = value
    return value


@dataclass
class RationalStream:
    """Incrementing view over sample_rational, for reject-and-retry sampling.

    Callers that need "generic" values (nonzero, distinct, ...) draw again
    with the next index; determinism is preserved because the index is the
    only moving part.
    """

    seed: int
    bound: int
    index: int = 0

    def next(self) -> Rational:
        value = sample_rational(self.seed, self.index, self.bound)
        self.index += 1
        return value

    def next_nonzero(self) -> Rational:
        # bound >= 1 guarantees nonzero values exist in range
        while True:
            value = self.next()
            if value != 0:
                return value


@dataclass(frozen=True)
class GammaPair:
    """Edge parameter (beta, gamma) constrained by gamma^2 - beta^2 = delta.

    delta is 0 or 1 and is shared by every edge of one lattice system.
    """

    beta: Rational
    gamma: Rational
    delta: int

    def __post_init__(self) -> None:
        if self.delta not in (0, 1):
            raise ValueError(f"delta must be 0 or 1, got {self.delta}")
        if self.gamma**2 - self.beta**2 != self.delta:
            raise ValueError(
                f"gamma^2 - beta^2 = {self.gamma**2 - self.beta**2} != {self.delta}"
            )


def gamma_pair_from_slope(slope: Rational, delta: int) -> GammaPair:
    """Rational point on gamma^2 - beta^2 = delta from a chord slope.

    beta = (delta/slope - slope)/2, gamma = (delta/slope + slope)/2, so
    gamma - beta = slope and gamma + beta = delta/slope; every rational
    solution with gamma - beta != 0 arises this way.  slope must be nonzero.
    """
    if slope == 0:
        raise ZeroSlope("slope must be nonzero")
    if delta not in (0, 1):
        raise ValueError(f"delta must be 0 or 1, got {delta}")
    beta = (Fraction(delta) / slope - slope) / 2
    gamma = (Fraction(delta) / slope + slope) / 2
    return GammaPair(beta=beta, gamma=gamma, delta=delta)
