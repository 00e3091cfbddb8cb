"""Spectral matrices for the basic two-field map and zero-curvature checks.

The map e1-shaded factors through 2x2 matrices linear in a spectral
variable: W(a, b, beta) = [[a, -a*b], [1, lam - beta - b]].  The map's
defining property is the matrix identity

    W(y, beta2) W(x, beta1) = W(p, beta1) W(q, beta2)

holding for every value of lam, where (p, q) is the image of (x, y).
The variable lam stays symbolic throughout: matrices are stored as
coefficient pairs (lam^0, lam^1), products are compared coefficient by
coefficient, and the comparison is exact.

The first output component is also the image of x^1 under the linear
fractional action of W(y^1, y^2, beta2) evaluated at lam = beta1, which
`moebius_p1` computes in closed form.
"""

from __future__ import annotations

from .errors import SingularInput
from .exactnum import Rational
from .ybmaps import YBPoint

from dataclasses import dataclass

Matrix2 = tuple


def _mat(a, b, c, d) -> Matrix2:
    return ((Rational(a), Rational(b)), (Rational(c), Rational(d)))


def _mat_mul(a: Matrix2, b: Matrix2) -> Matrix2:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _mat_add(a: Matrix2, b: Matrix2) -> Matrix2:
    return tuple(
        tuple(a[i][j] + b[i][j] for j in range(2)) for i in range(2)
    )


@dataclass(frozen=True)
class LaxMatrix:
    """2x2 matrix with entries linear in the spectral variable.

    Stored as the coefficient pair (c0, c1) of lam^0 and lam^1; for the
    matrices built here c1 is always [[0, 0], [0, 1]].
    """

    c0: Matrix2
    c1: Matrix2

    def __mul__(self, other: "LaxMatrix") -> tuple:
        """Coefficients (lam^0, lam^1, lam^2) of the matrix product."""
        return (
            _mat_mul(self.c0, other.c0),
            _mat_add(_mat_mul(self.c0, other.c1), _mat_mul(self.c1, other.c0)),
            _mat_mul(self.c1, other.c1),
        )


def lax_matrix(xi1: Rational, xi2: Rational, beta: Rational) -> LaxMatrix:
    """The spectral matrix attached to a point (xi1, xi2) on a beta edge."""
    c0 = _mat(xi1, -xi1 * xi2, 1, -beta - xi2)
    c1 = _mat(0, 0, 0, 1)
    return LaxMatrix(c0, c1)


def check_zero_curvature(
    x: YBPoint,
    y: YBPoint,
    p: YBPoint,
    q: YBPoint,
    beta1: Rational,
    beta2: Rational,
) -> bool:
    """W(y, beta2) W(x, beta1) = W(p, beta1) W(q, beta2) for all lam.

    All three coefficient matrices of the degree-2 products must agree
    exactly; the comparison is total, so any candidate (p, q) may be
    tested, not only images of the map.
    """
    lhs = lax_matrix(*y.pair(), beta2) * lax_matrix(*x.pair(), beta1)
    rhs = lax_matrix(*p.pair(), beta1) * lax_matrix(*q.pair(), beta2)
    return lhs == rhs


def moebius_p1(
    x1: Rational,
    y1: Rational,
    y2: Rational,
    beta1: Rational,
    beta2: Rational,
) -> Rational:
    """First output component as a linear fractional transformation of x1.

    Equals y1 (x1 - y2) / (x1 - y2 + beta1 - beta2), the Moebius action
    of W(y1, y2, beta2) at lam = beta1 on x1, and coincides with the p^1
    component of the e1-shaded map.
    """
    den = x1 - y2 + beta1 - beta2
    if den == 0:
        raise SingularInput("x1 - y2 + beta1 - beta2")
    return y1 * (x1 - y2) / den
