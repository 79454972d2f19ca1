"""Closed-form benchmark for the lognormal MGF via the Lambert-W function.

The leading term comes from a Gaussian (saddle-point) evaluation of the MGF
integral and is expressed through the principal branch W of w*e^w = x:

    M_L(theta) = exp(-(W(a)^2 + 2*W(a)) / (2*sigma^2)) / sqrt(1 + W(a)),
    a = -theta * sigma^2 * e^mu.

For theta < 0 the Gaussian evaluation leaves an exact residual factor,
E[exp(-(W/sigma^2) * (e^Y - 1 - Y - Y^2/2))] with Y ~ N(0, sigma^2/(1+W)),
which this module evaluates with the tile integrator and multiplies in. The
integrator's `expectation` closes both Gaussian tails beyond the grid, which
keeps table 3's cells within 9.9e-6 of the published digits (2.2e-5 with the
truncated rule). The factor differs from 1 by 9e-7 to 1.3e-5 over table 2
(sigma = 0.0625) and by up to ~1.2% at sigma = 1.
For theta > 0 that residual expectation diverges (same mechanism as the MGF
integral itself), so the leading term alone is returned.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .gaussian import GaussianParams
from .thintile import TileGridConfig, expectation
from .types import Method, MgfEstimate, MgfQuery

_BRANCH_POINT = -math.exp(-1.0)  # -1/e, domain edge of the principal branch
_MAX_ITER = 50
_RESIDUAL_TOL = 1e-12
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # math.exp overflows above it


@dataclass(frozen=True)
class LambertResult:
    w: float
    iterations: int
    residual: float


def _initial_guess(x: float) -> float:
    if x < -0.25:
        # series around the branch point; exact at x = -1/e
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        return -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p**3
    if x < math.e:
        return math.log1p(x) if x > -0.2 else x
    # asymptotic seed for large arguments
    lx = math.log(x)
    return lx - math.log(lx)


def lambert_w0(x: float) -> LambertResult:
    """Principal-branch solution of w * e^w = x by Halley iteration.

    Residual contract: |w*e^w - x| <= 1e-12 * max(1, |x|). Raises DomainError
    for x < -1/e and ConvergenceError if the contract is unmet in 50 rounds.
    """
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x}")
    if x < _BRANCH_POINT:
        raise DomainError(f"no real principal-branch value for x={x!r} < -1/e")
    if x == 0.0:
        return LambertResult(0.0, 0, 0.0)
    tol = _RESIDUAL_TOL * max(1.0, abs(x))
    floor = 4e-16 * max(1.0, abs(x))
    w = _initial_guess(x)
    best_w = w
    best_res = abs(w * math.exp(w) - x)
    iterations = 0
    # iterate past the contract down to the evaluation floor so the closed
    # form is never the accuracy bottleneck in cross-method comparisons
    while best_res > floor and iterations < _MAX_ITER:
        iterations += 1
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        if wp1 == 0.0:
            break  # square-root singularity; the series seed is already tight
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        w -= f / denom
        res = abs(w * math.exp(w) - x)
        if res >= best_res:
            break  # stalled at the rounding floor
        best_w, best_res = w, res
    if best_res > tol:
        raise ConvergenceError(
            f"Lambert-W residual {best_res:.3g} above {tol:.3g} "
            f"after {iterations} iterations at x={x!r}"
        )
    return LambertResult(max(best_w, -1.0), iterations, best_res)


def mgf_asmussen(q: MgfQuery, tile_config: TileGridConfig | None = None) -> MgfEstimate:
    """Closed-form MGF benchmark; exact-residual corrected for theta < 0.

    Requires a = -theta*sigma^2*e^mu >= -1/e, which always holds for
    theta <= 0 and bounds the admissible positive theta. Raises DomainError
    there, where sigma^2 underflows to 0, and where e^mu or the leading term
    leaves the float range.
    """
    if q.theta == 0.0:
        return MgfEstimate(
            1.0,
            Method.LAPLACE_W,
            {"lambert_w": 0.0, "lambert_iterations": 0.0, "lambert_residual": 0.0},
        )
    s2 = q.sigma * q.sigma
    if s2 == 0.0:
        raise DomainError(f"sigma^2 underflows to 0 at sigma={q.sigma!r}")
    if q.mu > _LOG_FLOAT_MAX:
        raise DomainError(f"e^mu leaves the float range at mu={q.mu!r}")
    a = -q.theta * s2 * math.exp(q.mu)
    if a < _BRANCH_POINT:
        raise DomainError(
            f"theta={q.theta!r} puts the Lambert argument {a!r} below -1/e; "
            "the closed form does not reach this far into theta > 0"
        )
    lw = lambert_w0(a)
    w = lw.w
    if 1.0 + w <= 0.0:
        raise DomainError(f"1 + W = {1.0 + w!r} is not positive")  # unreachable on W0
    exponent = -(w * w + 2.0 * w) / (2.0 * s2)
    # the cap keeps math.exp from raising; dividing by sqrt(1 + W) < 1 can
    # still overflow, so both cases are caught by the check that follows
    leading = math.exp(min(exponent, _LOG_FLOAT_MAX)) / math.sqrt(1.0 + w)
    if exponent > _LOG_FLOAT_MAX or math.isinf(leading):
        raise DomainError(
            f"the leading term exp({exponent:.6g}) / sqrt(1 + W) leaves the "
            f"float range at theta={q.theta!r}"
        )
    tail_factor = 1.0
    if q.theta < 0.0:
        c = w / s2
        spread = math.sqrt(s2 / (1.0 + w))
        tail_factor = expectation(
            lambda y: np.exp(-c * (np.expm1(y) - y - 0.5 * y * y)),
            GaussianParams(0.0, spread),
            tile_config or TileGridConfig(),
        ).value
    return MgfEstimate(
        value=leading * tail_factor,
        method=Method.LAPLACE_W,
        diagnostics={
            "lambert_w": w,
            "lambert_iterations": float(lw.iterations),
            "lambert_residual": lw.residual,
            "leading_term": leading,
            "tail_factor": tail_factor,
        },
    )
