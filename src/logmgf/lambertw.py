"""Closed-form benchmark for the lognormal MGF via the Lambert-W function.

The leading term comes from a Gaussian (saddle-point) evaluation of the MGF
integral and is expressed through the principal branch W of w*e^w = x:

    M_L(theta) = exp(-(W(a)^2 + 2*W(a)) / (2*sigma^2)) / sqrt(1 + W(a)),
    a = -theta * sigma^2 * e^mu.

For theta < 0 the Gaussian evaluation leaves an exact residual factor,
E[exp(-(W/sigma^2) * (e^Y - 1 - Y - Y^2/2))] with Y ~ N(0, sigma^2/(1+W))
(Asmussen, Jensen & Rojas-Nandayapa, Methodol. Comput. Appl. Probab. 2016),
which this module evaluates by the trapezoid rule in z = Y / sd(Y) and
multiplies in. The integrand is smooth and decays like a Gaussian, where the
rule converges exponentially in the step: 641 to 837 nodes give the ten
theta < 0 table cells error budgets below 7.4e-15. The factor differs from
1 by 9e-7 to 1.3e-5 over table 2 (sigma = 0.0625) and by up to ~1.2% at
sigma = 1 (table 3).
For theta > 0 that residual expectation diverges (same mechanism as the MGF
integral itself), so the leading term alone is returned.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, _instance, _real
from .types import Method, MgfEstimate, MgfQuery

_BRANCH_POINT = -math.exp(-1.0)  # -1/e, domain edge of the principal branch
_MAX_ITER = 50
_RESIDUAL_TOL = 1e-12
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # math.exp overflows above it
_LOG_FORM_FROM = 1e300  # lambert_w0 iterates on log(w e^w) above it
_TRAPEZOID_MAX_NODES = 1 << 16
_TRAPEZOID_ROUNDING = 32.0 * sys.float_info.epsilon


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
    Above _LOG_FORM_FROM, where Halley's (w + 2) f overflows from about
    2.76e307, Newton iterates on w + log w = log x instead, and the residual
    is x |expm1(w + log w - log x)|.
    """
    x = _real("x", x)
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x}")
    if x < _BRANCH_POINT:
        raise DomainError(f"no real principal-branch value for x={x!r} < -1/e")
    if x == 0.0:
        return LambertResult(0.0, 0, 0.0)
    log_form = x > _LOG_FORM_FROM
    log_x = math.log(x) if log_form else 0.0

    def residual(w: float) -> float:
        if log_form:
            return x * abs(math.expm1(w + math.log(w) - log_x))
        return abs(w * math.exp(w) - x)

    tol = _RESIDUAL_TOL * max(1.0, abs(x))
    floor = 4e-16 * abs(x)
    w = _initial_guess(x)
    best_w = w
    best_res = residual(w)
    iterations = 0
    # iterate past the contract down to the evaluation floor so the closed
    # form is never the accuracy bottleneck in cross-method comparisons; the
    # floor is relative to |x|, so W stays accurate relative to itself at
    # small |x|, where W ~ x
    while best_res > floor and iterations < _MAX_ITER:
        iterations += 1
        if log_form:
            w -= (w + math.log(w) - log_x) * w / (w + 1.0)
        else:
            ew = math.exp(w)
            f = w * ew - x
            wp1 = w + 1.0
            if wp1 == 0.0:
                break  # square-root singularity; the series seed is already tight
            denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
            w -= f / denom
        res = residual(w)
        if res >= best_res:
            break  # stalled at the rounding floor
        best_w, best_res = w, res
    if best_res > tol:
        raise ConvergenceError(
            f"Lambert-W residual {best_res:.3g} above {tol:.3g} "
            f"after {iterations} iterations at x={x!r}"
        )
    return LambertResult(max(best_w, -1.0), iterations, best_res)


def _trapezoid_factor(c: float, spread: float, w: float) -> tuple[float, int, float]:
    """Residual factor by the trapezoid rule in z, its node count and its error budget.

    exp(-c e^Y) falls from 1 to 0 within about 1/spread in z; steps of
    1/(8 spread) resolve that, and on such a smooth, decaying integrand the
    change from the doubled step bounds the error. The log integrand is below
    -800 past z = 40 and below z = -40 sqrt(1 + W). Nodes are lo + i*h, since
    np.arange's rounded step would scale the sum by up to 1e-12. Where expm1
    overflows at the outer nodes (sigma of about 35 and more) the term is
    exp(-inf) = 0, its limit; a factor that is not finite is left for the
    caller to reject.
    """
    lo = -40.0 * math.sqrt(1.0 + w)
    h = max(min(1.0, 1.0 / spread) / 8.0, (40.0 - lo) / _TRAPEZOID_MAX_NODES)
    z = lo + h * np.arange(math.ceil((40.0 - lo) / h))
    y = spread * z
    with np.errstate(over="ignore", invalid="ignore"):
        e = -0.5 * z * z - c * (np.expm1(y) - y - 0.5 * y * y)
        top = e.max()
        terms = np.exp(e - top)
    scale = h * math.exp(top) / math.sqrt(2.0 * math.pi)
    fine, coarse = scale * float(terms.sum()), 2.0 * scale * float(terms[::2].sum())
    return fine, len(z), abs(fine - coarse) + _TRAPEZOID_ROUNDING * fine


def mgf_asmussen(q: MgfQuery, tile_config: object = None) -> MgfEstimate:
    """Closed-form MGF benchmark; exact-residual corrected for theta < 0.

    Requires a = -theta*sigma^2*e^mu >= -1/e, which always holds for
    theta <= 0 and bounds the admissible positive theta. Raises DomainError
    there, where sigma^2 underflows to 0, where e^mu, a or the leading term
    leaves the float range, and where the residual factor is not finite.
    `tile_config` is ignored; it is accepted for callers that still pass it.
    """
    _instance("q", q, MgfQuery)
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
    if not math.isfinite(a):  # the product overflowed, or is inf * 0 = nan
        raise DomainError(
            f"the Lambert argument -theta sigma^2 e^mu = {a!r} is not finite at "
            f"mu={q.mu!r}, sigma={q.sigma!r}, theta={q.theta!r}"
        )
    lw = lambert_w0(a)
    w = lw.w
    if 1.0 + w <= 0.0:  # a = -1/e: W = -1, and 1/sqrt(1 + W) is infinite
        raise DomainError(f"1 + W = {1.0 + w!r} is not positive")
    exponent = -(w * w + 2.0 * w) / (2.0 * s2)
    # the cap keeps math.exp from raising; dividing by sqrt(1 + W) < 1 can
    # still overflow, so both cases are caught by the check that follows
    leading = math.exp(min(exponent, _LOG_FLOAT_MAX)) / math.sqrt(1.0 + w)
    if exponent > _LOG_FLOAT_MAX or math.isinf(leading):
        raise DomainError(
            f"the leading term exp({exponent:.6g}) / sqrt(1 + W) leaves the "
            f"float range at theta={q.theta!r}"
        )
    tail_factor, tail_nodes, tail_budget = 1.0, 0, 0.0
    c = w / s2
    if q.theta < 0.0 and c > 0.0:  # at c = 0 the factor is exactly 1
        tail_factor, tail_nodes, tail_budget = _trapezoid_factor(
            c, math.sqrt(s2 / (1.0 + w)), w
        )
        if not math.isfinite(tail_factor):
            raise DomainError(
                f"the residual factor is not finite at sigma={q.sigma!r}, "
                f"theta={q.theta!r}"
            )
    return MgfEstimate(
        value=leading * tail_factor,
        method=Method.LAPLACE_W,
        diagnostics={
            "lambert_w": w,
            "lambert_iterations": float(lw.iterations),
            "lambert_residual": lw.residual,
            "leading_term": leading,
            "tail_factor": tail_factor,
            "tail_nodes": float(tail_nodes),
            "tail_budget": tail_budget,
        },
    )
