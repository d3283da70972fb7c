"""Exception types shared across the package."""


class QfuncError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QfuncError):
    """Argument outside the mathematical domain of the operation, or a
    value there that a double cannot hold."""


class NonConvergence(QfuncError):
    """A series or product failed to meet its tail bound within the term cap."""


class PoleError(QfuncError):
    """Evaluation requested at (or too close to) a pole."""


class ParameterPole(QfuncError):
    """A series parameter makes a denominator Pochhammer symbol vanish."""


class LimitUnstable(QfuncError):
    """Integer-order limit extrapolation disagrees between offsets."""


class NegativeProduct(QfuncError):
    """Geometric mean requested for a coefficient product that is negative."""
