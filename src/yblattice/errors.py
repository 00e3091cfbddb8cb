"""Exception types shared across the package.

Everything here is raised on *mathematically meaningful* failure modes
(vanishing denominators, incompatible group actions, degenerate sampling),
never on programming errors; those stay plain ValueError/TypeError.
"""

from __future__ import annotations


class SingularInput(ArithmeticError):
    """A denominator required by a formula vanished.

    The message names the vanishing expression (and, where relevant, the
    face or sweep position it occurred at) so callers can report or
    resample precisely.
    """


class ZeroSlope(ValueError):
    """Slope parameter must be nonzero."""


class ZeroScale(ValueError):
    """Scaling symmetry requires a nonzero scale factor."""


class IncompatibleAction(ValueError):
    """Symmetry action not admitted by the selected lattice family."""


class IndexOutOfRange(IndexError):
    """Flip index does not address an interior vertex of an open path."""


class RetryBudgetExhausted(RuntimeError):
    """Sampling could not find enough nonsingular configurations.

    Signals a degenerate parameter choice (bound too small, forced
    coincidences) rather than a property failure.
    """
