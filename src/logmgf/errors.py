"""Exception types shared across the library, and the argument checks that raise one."""

import math
import numbers
import operator


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


def _index(name: str, value) -> int:
    """value as an int (Python and numpy integers pass); DomainError otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _real(name: str, value) -> float:
    """value as a float, +-inf past the float range; DomainError where it is not real.

    Any complex value is refused, a numpy one included, whose float() would
    drop the imaginary part with only a warning. math.isfinite converts as
    float() does, except that it parses no string.
    """
    if isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        math.isfinite(value)
    except TypeError:
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    except OverflowError:  # an int or a Fraction past the largest double
        return math.inf if value > 0 else -math.inf
    return float(value)


def _instance(name: str, value, cls) -> None:
    """DomainError unless value is an instance of cls."""
    if not isinstance(value, cls):
        raise DomainError(f"{name} must be a {cls.__name__}, got {value!r}")


def _config(cfg, cls):
    """cfg, or cls() for None; DomainError for a config of any other type."""
    if cfg is None:
        return cls()
    if not isinstance(cfg, cls):
        raise DomainError(f"cfg must be a {cls.__name__} or None, got {cfg!r}")
    return cfg
