"""Shared domain types: the problem instance and method-tagged results."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import DomainError, _real
from .gaussian import GaussianParams


class Method(str, enum.Enum):
    ZERO_ENTROPY = "zero_entropy"
    THIN_TILE = "thin_tile"
    LAPLACE_W = "laplace_w"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class MgfQuery(GaussianParams):
    """One MGF problem instance: E[exp(theta * e^x)] with x ~ N(mu, sigma^2).

    The Gaussian law (mu, sigma) is checked by GaussianParams, and theta is
    stored as a float like them. theta == 0 is a boundary case every method
    short-circuits to 1 exactly; it is never fed to log|theta|.
    """

    theta: float

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "theta", _real("theta", self.theta))
        if not math.isfinite(self.theta):
            raise DomainError(f"theta must be finite, got {self.theta}")

    @property
    def sign_theta(self) -> float:
        return 1.0 if self.theta > 0 else -1.0


@dataclass(frozen=True)
class MgfEstimate:
    """A method-tagged MGF value with per-method diagnostics.

    diagnostics is a flat map of named reals; the keys populated depend on
    the method (coverage, steps, std_error, m_1, v_1, lambert_iterations...).
    """

    value: float
    method: Method
    diagnostics: dict[str, float] = field(default_factory=dict)
