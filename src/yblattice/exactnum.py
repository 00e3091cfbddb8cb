"""Exact rational scalars, seeded sampling, and constrained parameter pairs.

All arithmetic in this package is exact: values are `Rational`, a
`fractions.Fraction` subclass, always in canonical form (positive
denominator, reduced).  Serialized form is "p/q" with "/q" omitted when the
denominator is 1, which is exactly `str()` of a Fraction.

`Rational` changes only the cost of `+ - * /` (with their reflected forms),
unary `-`, `==` and `< <= > >=`.  With an exact `int`, `Fraction` or
`Rational` operand they run CPython's own reductions (Knuth, TAOCP vol. 2,
4.5.1) or cross-multiplications directly on the two integers and build any
result without the generic constructor; any other operand goes to the
`Fraction` method.  A `Rational` is a `Fraction`, so `str`, `hash`,
ordering and equality agree with the Fraction's, and a plain `Fraction`
mixed with a `Rational` yields a `Rational` (Python tries the subclass's
reflected method first).  Sampling, parsing and every other place the
package makes a scalar yield `Rational`s.  One compound kernel,
`_y_over_one_minus_yz`, serves the e1 lattice face: it builds the quotient
from the four integers at once and takes gcds only against the primes that
can cancel, never between two products.

Sampling is deterministic: `sample_rational(seed, index, bound)` is a pure
function of its arguments, so any run with the same seed reproduces
byte-for-byte.  Every sweep restarts its stream at index 0, so the same
values are asked for over and over; `sample_rational` remembers the first
8,192 draws of each of the 4 most recently used (seed, bound) pairs.  The
memo holds only values the draw itself returned, keyed by index, so no
order or interleaving of draws can change a value.  At worst it holds
4 x 8,192 `Rational`s: about 3.7 MiB at bound 10, more only as far as the
drawn integers are larger.
"""

from __future__ import annotations

import operator
import random
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import gcd as _gcd

from .errors import ZeroSlope

_new = object.__new__

# The kernels take two canonical (numerator, denominator) pairs and return
# their canonical result, by the reductions of CPython's `fractions`.


def _add(na, da, nb, db):
    g = _gcd(da, db)
    if g == 1:
        n, d = na * db + da * nb, da * db
    else:
        s = da // g
        n = na * (db // g) + nb * s
        g2 = _gcd(n, g)
        if g2 == 1:
            d = s * db
        else:
            n //= g2
            d = s * (db // g2)
    r = _new(Rational)
    r._numerator = n
    r._denominator = d
    return r


def _sub(na, da, nb, db):
    return _add(na, da, -nb, db)


def _mul(na, da, nb, db):
    g1 = _gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = _gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    r = _new(Rational)
    r._numerator = na * nb
    r._denominator = da * db
    return r


def _div(na, da, nb, db):
    if not nb:
        raise ZeroDivisionError("Rational division by zero")
    g1 = _gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = _gcd(da, db)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    if d < 0:
        n, d = -n, -d
    r = _new(Rational)
    r._numerator = n
    r._denominator = d
    return r


def _y_over_one_minus_yz(y, z):
    """y / (1 - y*z); ZeroDivisionError when y*z = 1.

    With y = p/q and z = s/t in lowest terms (q, t > 0) the quotient is
    p*t / (q*t - p*s).  A prime dividing both sides divides gcd(p, t): if
    it divides p it divides q*t, hence t, as gcd(p, q) = 1; if it divides
    t it divides p*s, hence p, as gcd(s, t) = 1.  So the fraction is
    reduced by its gcd with the part of the denominator built from the
    primes of gcd(p, t): every gcd has one side made of those primes, and
    none is taken between two double-width products.
    Operands that are not exactly `int`, `Fraction` or `Rational` take the
    textbook expression, as in `_operators`.
    """
    if type(y) not in _EXACT or type(z) not in _EXACT:
        den = 1 - y * z
        if den == 0:
            raise ZeroDivisionError("1 - y*z")
        return y / den
    p, q, s, t = y.numerator, y.denominator, z.numerator, z.denominator
    n, d = p * t, q * t - p * s
    if not d:
        raise ZeroDivisionError("1 - y*z")
    h = _gcd(d, _gcd(p, t))
    if h > 1:
        # common: the largest divisor of d made of the primes of h.  Each
        # round takes the gcd with all of common, not with the last h, so
        # a prime's exponent in common at least doubles per round.
        common, rest = h, d // h
        h = _gcd(rest, common)
        while h > 1:
            common *= h
            rest //= h
            h = _gcd(rest, common)
        g = _gcd(n, common)
        if g > 1:
            n //= g
            d //= g
    if d < 0:
        n, d = -n, -d
    r = _new(Rational)
    r._numerator = n
    r._denominator = d
    return r


def _operators(kernel, fallback, rfallback):
    """`a op b` and its reflected form for one integer kernel.

    Exact `int`, `Fraction` and `Rational` operands go to the kernel as
    (numerator, denominator) pairs; anything else, `bool` and `float`
    included, goes to the `Fraction` method, as if `Rational` were absent.
    """

    def forward(a, b):
        t = type(b)
        if t is Rational or t is Fraction:
            return kernel(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return kernel(a._numerator, a._denominator, b, 1)
        return fallback(a, b)

    def reverse(b, a):
        t = type(a)
        if t is int:
            return kernel(a, 1, b._numerator, b._denominator)
        if t is Fraction or t is Rational:
            return kernel(a._numerator, a._denominator, b._numerator, b._denominator)
        return rfallback(b, a)

    forward.__name__, reverse.__name__ = fallback.__name__, rfallback.__name__
    return forward, reverse


def _ordering(op, fallback):
    """`a op b` for one ordering, cross-multiplied on the positive denominators.

    The operands take the same paths as in `_operators`.  No reflected form
    is needed: `x < a` with `a` a `Rational` is `a > x`.
    """

    def compare(a, b):
        t = type(b)
        if t is Rational or t is Fraction:
            return op(a._numerator * b._denominator, b._numerator * a._denominator)
        if t is int:
            return op(a._numerator, b * a._denominator)
        return fallback(a, b)

    compare.__name__ = fallback.__name__
    return compare


class Rational(Fraction):
    """A `Fraction` whose arithmetic skips the generic dispatch and constructor."""

    __slots__ = ()

    __add__, __radd__ = _operators(_add, Fraction.__add__, Fraction.__radd__)
    __sub__, __rsub__ = _operators(_sub, Fraction.__sub__, Fraction.__rsub__)
    __mul__, __rmul__ = _operators(_mul, Fraction.__mul__, Fraction.__rmul__)
    __truediv__, __rtruediv__ = _operators(
        _div, Fraction.__truediv__, Fraction.__rtruediv__
    )

    def __neg__(a):
        r = _new(Rational)
        r._numerator = -a._numerator
        r._denominator = a._denominator
        return r

    def __eq__(a, b):
        t = type(b)
        if t is Rational or t is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if t is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    # defining __eq__ would otherwise set __hash__ to None
    __hash__ = Fraction.__hash__

    __lt__ = _ordering(operator.lt, Fraction.__lt__)
    __le__ = _ordering(operator.le, Fraction.__le__)
    __gt__ = _ordering(operator.gt, Fraction.__gt__)
    __ge__ = _ordering(operator.ge, Fraction.__ge__)


# operand types that `_y_over_one_minus_yz` reads as integer pairs
_EXACT = frozenset({int, Fraction, Rational})


_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Rational:
    """Parse "p/q" or "p" into a Rational.

    Stricter than the Fraction constructor: ASCII digits only, no floats, no
    exponents, no whitespace (a trailing newline included), and the
    denominator (when present) must be a positive integer literal.
    """
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal (expected p or p/q): {text!r}")
    value = text.split("/")
    if len(value) == 2 and int(value[1]) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Rational(text)


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
    return Rational(num, den)


def sample_rational(seed: int, index: int, bound: int) -> Rational:
    """Deterministic rational with |numerator| <= bound, 1 <= denominator <= bound.

    Each (seed, index, bound) triple owns an independent generator, so
    samples can be drawn in any order.  Canonical reduction can only
    shrink numerator and denominator, so the bounds survive it.

    Draws are remembered by index in one table per (seed, bound).  The
    `_TABLES` most recently used tables are kept, each with its first
    `_TABLE_ENTRIES` draws; a remembered draw returns the stored
    `Rational` without seeding a generator.
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
    beta = (Rational(delta) / slope - slope) / 2
    gamma = (Rational(delta) / slope + slope) / 2
    return GammaPair(beta=beta, gamma=gamma, delta=delta)
