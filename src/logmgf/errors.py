"""Exception types shared across the library."""


class LogMgfError(Exception):
    """Base class for every error raised by this package."""


class DomainError(LogMgfError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NonFiniteIntegrand(LogMgfError, ArithmeticError):
    """An integrand evaluation produced inf or nan.

    Carries the offending abscissa in ``x`` so callers can see where the
    integrand blew up (typically the right tail of exp(theta*e^x) for
    theta > 0).
    """

    def __init__(self, message: str, x: float):
        super().__init__(message)
        self.x = x


class NegativeRadicand(LogMgfError, ArithmeticError):
    """The variance-drift radicand went negative (theta < 0, small t)."""

    def __init__(self, message: str, t: float, radicand: float):
        super().__init__(message)
        self.t = t
        self.radicand = radicand


class DivergenceError(LogMgfError, OverflowError):
    """A computation left the float range, with the step or block index.

    zero_entropy and monte_carlo raise it on the divergent MGF at theta > 0:
    the moment ODE diverges (``step`` is the Euler step), or a Monte Carlo
    summand or its square overflows (``step`` is the sample block).
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class ConvergenceError(LogMgfError, ArithmeticError):
    """An iterative solver failed to meet its residual contract."""


class PathOverflow(LogMgfError, OverflowError):
    """A simulated path exceeded the overflow guard, or ensemble moments overflowed."""
