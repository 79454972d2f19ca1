"""Gaussian and lognormal primitives used by every other module.

Everything here runs in 64-bit floats. The standard-normal CDF is evaluated
through the complementary error function; the quantile uses a rational
initial approximation polished by a Newton step against that CDF, which
keeps |cdf(inverse(p)) - p| <= 1e-12 across the whole open unit interval. The
quantile runs on whole arrays; the scalar form is a one-element call of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_TWO_PI = 1.0 / _SQRT_TWO_PI


@dataclass(frozen=True)
class GaussianParams:
    """Location/scale of a Gaussian law N(mu, sigma^2); sigma > 0."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0):
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise DomainError("mu and sigma must be finite")


@dataclass(frozen=True)
class RngSeed:
    """64-bit seed; identical seeds yield bit-identical sample streams.

    Streams are numpy PCG64 generators. Derived sub-streams are keyed by
    (seed, index) through SeedSequence, so a computation partitioned over
    indices gives the same draws regardless of execution order.
    """

    seed: int

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise DomainError(f"seed must fit in 64 bits, got {self.seed}")

    def stream(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def substream(self, index: int) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed, index)))
        )


def pdf(x: float, p: GaussianParams) -> float:
    """Density of N(mu, sigma^2) at x; strictly positive, peak at x = mu."""
    z = (x - p.mu) / p.sigma
    return _INV_SQRT_TWO_PI / p.sigma * math.exp(-0.5 * z * z)


def cdf_std(x: float) -> float:
    """Standard-normal CDF via erfc; absolute error well below 1e-14.

    The erfc form keeps full relative accuracy in the left tail, which the
    tile grid relies on when its cumulative area approaches 1.
    """
    return 0.5 * math.erfc(-x / _SQRT2)


# Acklam's rational approximation to the standard-normal quantile
# (relative error < 1.15e-9 before polishing).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _horner(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def _acklam(p: np.ndarray) -> np.ndarray:
    z = np.empty_like(p)
    tail_mass = np.minimum(p, 1.0 - p)
    tail = tail_mass < _P_LOW
    q = p[~tail] - 0.5
    r = q * q
    z[~tail] = _horner(_A, r) * q / _horner(_B + (1.0,), r)
    q = np.sqrt(-2.0 * np.log(tail_mass[tail]))
    lower = _horner(_C, q) / _horner(_D + (1.0,), q)
    z[tail] = np.where(p[tail] < 0.5, lower, -lower)
    return z


def inverse_cdf_std_array(p: np.ndarray) -> np.ndarray:
    """Standard-normal quantile of a 1-D array; |cdf_std(z) - p| <= 1e-12.

    Rational approximation seeded, then one Newton step against cdf_std.
    Raises DomainError unless every element lies in the open unit interval.
    """
    p = np.asarray(p, dtype=np.float64)
    outside = ~((p > 0.0) & (p < 1.0))
    if outside.any():
        bad = float(p[outside][0])
        raise DomainError(f"quantile argument must lie in (0, 1), got {bad}")
    z = _acklam(p)
    # Newton polish; the seed is already ~1e-9 accurate so one step lands at
    # the evaluation noise floor of cdf_std. numpy has no erfc, so cdf_std's
    # erfc runs element by element.
    cdf = 0.5 * np.fromiter(map(math.erfc, -z / _SQRT2), np.float64, len(z))
    z -= (cdf - p) / (_INV_SQRT_TWO_PI * np.exp(-0.5 * z * z))
    return z


def inverse_cdf_std(p: float) -> float:
    """Standard-normal quantile; |cdf_std(z) - p| <= 1e-12.

    A one-element call of inverse_cdf_std_array. Raises DomainError outside
    the open unit interval.
    """
    return float(inverse_cdf_std_array(np.array([p], dtype=np.float64))[0])


def sample(p: GaussianParams, stream: np.random.Generator, size: int | None = None):
    """Draw from N(mu, sigma^2) using the stream's ziggurat normal transform.

    The transform is numpy's Generator.standard_normal, fixed per release of
    numpy's bit-generator contract, so a given RngSeed reproduces the same
    draws run over run. Mutates only the passed stream.
    """
    z = stream.standard_normal(size)
    if size is None:
        return p.mu + p.sigma * float(z)
    return p.mu + p.sigma * z


def lognormal_mean(p: GaussianParams) -> float:
    """E[e^x] = exp(mu + sigma^2/2) for x ~ N(mu, sigma^2)."""
    return math.exp(p.mu + 0.5 * p.sigma * p.sigma)


def lognormal_variance(p: GaussianParams) -> float:
    """Var[e^x] = (exp(sigma^2) - 1) * exp(2*mu + sigma^2)."""
    s2 = p.sigma * p.sigma
    return math.expm1(s2) * math.exp(2.0 * p.mu + s2)
