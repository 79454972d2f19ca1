"""Stochastic route to the lognormal MGF.

A change of variable turns the MGF problem into a process y_t whose first
moment m_t and variance v_t obey coupled scalar ODEs on t in [0, 1]:

    m' = mu + sigma^2/2 + sign(theta) * (sigma^2/2) * exp(m + v/2),
    v' = sqrt( v*sigma^2/t
             + v*sigma^4*g^2*(e^v - 1)*e^(2m + v)
             + sign(theta)*2*(sigma^3/sqrt(t))*g*v^(3/2)*e^(m + v/2) ),

with m_0 = log|theta|, the adjustment factor g = sqrt(1 + sigma^2/2), and the
MGF estimated from the endpoint as exp(sign(theta) * exp(m_1)).

Both equations are integrated by explicit Euler with equidistant steps,
drifts taken at each step's left endpoint. The variance equation never gets
evaluated at the singular t = 0: v = 0 is an exact fixed point (every
radicand term carries a factor of v) and is short-circuited without a drift
call, while a positive v_0 has its first step taken at t = dt. The variance
therefore stays identically zero from the v_0 = 0 start used for theta < 0,
the regime of tables 2 and 3. There the moment equation is
m' = a - b e^m (a = mu + sigma^2/2, b = sigma^2/2), which mgf_zero_entropy
solves exactly instead of stepping; Euler converges to that solution at
first order. theta > 0 starts from v_0 = sigma^2, which activates the
variance dynamics (the nonzero start stands in for the covariance terms the
single-factor adjustment drops).

One switch departs from that default: variance_kick starts v at 0 for
either sign of theta, where the simulated paths start, and forces the known
initial slope v'(0) = sigma^2 on the first step. This is the configuration
to use when comparing (m_1, v_1) against the paths, whose spread is real.

Every exponent above _OVERFLOW_GUARD counts as a blow-up: the drifts, the
estimator and a simulated path stop there, well inside the float range.

An Euler-Maruyama simulator for the underlying SDE
dy = (mu + sigma^2/2 + sign(theta)*(sigma^2/2)*e^y) dt + sigma dW serves as
the independent oracle for the ODE system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .errors import DivergenceError, DomainError, PathOverflow, _config, _index, _instance
from .gaussian import _STREAMS, RngSeed, _pool, _usable_cpus
from .lambertw import _LOG_FLOAT_MAX
from .types import Method, MgfEstimate, MgfQuery

_OVERFLOW_GUARD = 700.0  # exp(710) overflows a double
_PATH_BLOCK = 1024  # paths stepped together, one ufunc call per step operation
# float64 shocks held at once: 8.2 MB, one 1000-step chunk of a whole block
_SHOCK_FLOATS = 1024 * 1000


@dataclass(frozen=True)
class OdeState:
    """The (t, m_t, v_t) triple; v stays nonnegative at every accepted step."""

    t: float
    m: float
    v: float


@dataclass(frozen=True)
class ZeroEntropyConfig:
    steps: int = 2000
    variance_kick: bool = False

    def __post_init__(self):
        if _index("steps", self.steps) < 10:
            raise DomainError(f"steps must be >= 10, got {self.steps}")
        if not isinstance(self.variance_kick, (bool, np.bool_)):
            raise DomainError(f"variance_kick must be a bool, got {self.variance_kick!r}")


@dataclass
class IntegrationInfo:
    """Side channel for events the integrator tolerates but reports."""

    clamped_steps: int = 0


@dataclass(frozen=True)
class PathEnsemble:
    """Terminal samples of y at t = 1.

    n_paths counts the retained paths; overflowed paths (positive theta) are
    excluded and counted in n_overflowed.
    """

    terminal_values: np.ndarray
    n_paths: int
    n_overflowed: int = 0


def _euler(
    q: MgfQuery, cfg: ZeroEntropyConfig, info: IntegrationInfo
) -> Iterator[tuple[float, float, float]]:
    """Euler trajectory of (m, v) over [0, 1] as (t, m, v) floats.

    The one evaluation of the module docstring's drifts, v' taken at
    t = max(i, 1) * dt and e^(m+v/2) computed once per step for both. With
    variance_kick, v starts at 0 for either sign of theta.

    The radicand is negative only by rounding. Write X = sigma sqrt(v/t) and
    Y = sigma^2 g e^(m+v/2) sqrt(v (e^v - 1)); the radicand is X^2 + Y^2 plus
    a cross term of size 2 sigma^3 g v^1.5 e^(m+v/2) / sqrt(t), which is at
    most 2XY because e^v - 1 >= v. So the radicand is at least (X - Y)^2.
    A rounded negative radicand clamps that step's v' to zero and is counted
    in info.clamped_steps. A step diverges where m + v/2 or 2m + v passes
    _OVERFLOW_GUARD, where e^v - 1 overflows, or where the radicand is not
    finite, as it is once sigma^3 has left the float range.
    """
    _instance("q", q, MgfQuery)
    _instance("cfg", cfg, ZeroEntropyConfig)
    if q.theta == 0.0:
        raise DomainError("theta = 0 short-circuits to MGF 1; not integrable")
    dt = 1.0 / cfg.steps
    s2 = q.sigma * q.sigma
    base, pull = q.mu + 0.5 * s2, q.sign_theta * 0.5 * s2
    g = math.sqrt(1.0 + 0.5 * q.sigma * q.sigma)
    sign2 = q.sign_theta * 2.0
    try:
        sigma3 = q.sigma**3
    except OverflowError:
        sigma3 = math.inf
    m = math.log(abs(q.theta))
    v = s2 if q.theta > 0.0 and not cfg.variance_kick else 0.0
    yield 0.0, m, v
    for i in range(cfg.steps):
        exponent = m + 0.5 * v
        if exponent > _OVERFLOW_GUARD:
            raise DivergenceError(
                f"diverged at step {i}: moment drift exponent {exponent:.3g} "
                f"exceeds guard {_OVERFLOW_GUARD:.3g}",
                i,
            )
        e_half = math.exp(exponent)
        dm = base + pull * e_half
        if cfg.variance_kick and i == 0:
            dv = s2
        elif v == 0.0:
            dv = 0.0  # exact fixed point; also keeps t = 0 unevaluated
        else:
            # the exponents of e^(2m+v) and of e^v - 1, where math.expm1 would overflow
            if 2.0 * m + v > _OVERFLOW_GUARD or _LOG_FLOAT_MAX < v < math.inf:
                raise DivergenceError(
                    f"diverged at step {i}: variance drift exponent exceeds guard "
                    f"{_OVERFLOW_GUARD:.3g}",
                    i,
                )
            t = max(i, 1) * dt
            radicand = (
                v * s2 / t
                + v * s2 * s2 * g * g * math.expm1(v) * math.exp(2.0 * m + v)
                + sign2 * (sigma3 / math.sqrt(t)) * g * v**1.5 * e_half
            )
            if not math.isfinite(radicand):
                # a term overflowed (and may have met an underflowed factor: inf * 0)
                raise DivergenceError(
                    f"diverged at step {i}: variance radicand {radicand} at t={t:.6g} "
                    "is not finite",
                    i,
                )
            if radicand < 0.0:
                dv = 0.0
                info.clamped_steps += 1
            else:
                dv = math.sqrt(radicand)
        m += dm * dt
        v += dv * dt
        yield (i + 1) * dt, m, v


def integrate_with_info(
    q: MgfQuery, cfg: ZeroEntropyConfig
) -> tuple[OdeState, IntegrationInfo]:
    info = IntegrationInfo()
    for t, m, v in _euler(q, cfg, info):
        pass
    return OdeState(t, m, v), info


def integrate(q: MgfQuery, cfg: ZeroEntropyConfig) -> OdeState:
    """State at t = 1 after explicit Euler over the unit interval."""
    return integrate_with_info(q, cfg)[0]


def _frozen_variance_m1(q: MgfQuery) -> float:
    """m_1 solved exactly where v stays 0 (theta < 0, no variance kick).

    With v = 0 the moment ODE is m' = a - b e^m, a = mu + sigma^2/2 and
    b = sigma^2/2, so u = e^(-m) obeys the linear u' = b - a u and
    u_1 = e^(-a)/|theta| + b * phi(a), phi(a) = -expm1(-a)/a, phi(0) = 1.
    The two terms are added in log space, so neither leaves the float range;
    m_1 = -log(u_1). nan where a is not finite (sigma^2 overflows).
    """
    b = 0.5 * q.sigma * q.sigma
    a = q.mu + b
    if not math.isfinite(a):
        return math.nan
    log_start = -a - math.log(-q.theta)
    if b == 0.0:  # sigma^2 underflows: m' = a
        return -log_start
    if a == 0.0:
        log_phi = 0.0
    elif a > -_OVERFLOW_GUARD:
        log_phi = math.log(-math.expm1(-a) / a)
    else:  # e^(-a) - 1 rounds to e^(-a), which would overflow
        log_phi = -a - math.log(-a)
    return -float(np.logaddexp(log_start, math.log(b) + log_phi))


def mgf_zero_entropy(q: MgfQuery, cfg: ZeroEntropyConfig | None = None) -> MgfEstimate:
    """MGF estimate exp(sign(theta) * exp(m_1)); theta = 0 returns 1 exactly.

    For theta < 0 without variance_kick, v stays 0 and m_1 comes from the
    exact solution (_frozen_variance_m1): no Euler steps are taken and the
    diagnostics report steps = 0. Otherwise m_1 is the Euler endpoint.

    Raises DomainError where m_1 is nan (inf - inf in the drift, e.g. where
    sigma^2 overflows).
    """
    _instance("q", q, MgfQuery)
    cfg = _config(cfg, ZeroEntropyConfig)
    if q.theta == 0.0:
        return MgfEstimate(1.0, Method.ZERO_ENTROPY, {"steps": 0.0})
    if q.theta < 0.0 and not cfg.variance_kick:
        m_1, v_1, steps, clamped_steps = _frozen_variance_m1(q), 0.0, 0, 0
    else:
        state, info = integrate_with_info(q, cfg)
        m_1, v_1, steps, clamped_steps = state.m, state.v, cfg.steps, info.clamped_steps
    if math.isnan(m_1):
        raise DomainError(
            f"the moment ODE leaves the float range at mu={q.mu!r}, sigma={q.sigma!r}"
        )
    # the last step can carry m past the drifts' guard; capped, math.exp
    # cannot raise, and exp(700) still trips the estimator guard for theta > 0
    inner = math.exp(min(m_1, _OVERFLOW_GUARD))
    if q.sign_theta > 0.0 and inner > _OVERFLOW_GUARD:
        raise DivergenceError(
            f"estimator exponent {inner:.3g} exceeds guard {_OVERFLOW_GUARD:.3g}",
            cfg.steps,
        )
    return MgfEstimate(
        value=math.exp(q.sign_theta * inner),
        method=Method.ZERO_ENTROPY,
        diagnostics={
            "m_1": m_1,
            "v_1": v_1,
            "steps": float(steps),
            "clamped_steps": float(clamped_steps),
        },
    )


def trajectory_csv(q: MgfQuery, cfg: ZeroEntropyConfig, sink: TextIO) -> None:
    """Dump the Euler trajectory as CSV `i,t,m,v`, one row per state.

    The header goes out with the initial state, so an argument that the
    integrator rejects writes nothing.
    """
    for i, (t, m, v) in enumerate(_euler(q, cfg, IntegrationInfo())):
        if i == 0:
            sink.write("i,t,m,v\n")
        sink.write(f"{i},{t!r},{m!r},{v!r}\n")


def simulate_paths(q: MgfQuery, n_paths: int, steps: int, seed: RngSeed) -> PathEnsemble:
    """Euler-Maruyama ensemble of y over [0, 1] from y_0 = log|theta|.

    Path p draws its shocks from the sub-stream keyed by (seed, p), so the
    ensemble is identical however the paths are batched or ordered. Blocks of
    _PATH_BLOCK paths are stepped a chunk of steps at a time, with shocks in
    one buffer of at most _SHOCK_FLOATS doubles. Each usable CPU draws a
    contiguous share of the block's rows (numpy releases the GIL while it
    draws): the caller share 0 and any the worker pool refuses, the pool the
    rest. The caller alone steps, as threads stepping at once pass the GIL
    to each other on every ufunc call. Exploding paths (positive theta) are
    excluded and counted; if every path explodes, PathOverflow is raised.
    """
    _instance("q", q, MgfQuery)
    if q.theta == 0.0:
        raise DomainError("theta = 0 has no driving process; MGF is 1 exactly")
    if not isinstance(seed, RngSeed):
        raise DomainError(f"seed must be an RngSeed, got {seed!r}")
    if not 1 <= _index("n_paths", n_paths) <= _STREAMS:  # one sub-stream per path
        raise DomainError(f"n_paths must lie in [1, 2^32], got {n_paths}")
    if _index("steps", steps) < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    dt = 1.0 / steps
    shock_scale = q.sigma * math.sqrt(dt)
    y0 = math.log(abs(q.theta))
    s2h = 0.5 * q.sigma * q.sigma
    base_drift = q.mu + s2h
    sign = q.sign_theta
    pull = sign * s2h
    terminal = np.empty(n_paths)
    width = min(_PATH_BLOCK, n_paths)
    chunk = min(steps, _SHOCK_FLOATS // width)
    workers = min(_usable_cpus(), width)
    # allocated here, not in the workers: a buffer freed in a worker thread
    # stays in that thread's malloc arena, so repeated calls would pile them up
    buffer = np.empty((width, chunk))

    def draw(worker: int) -> None:
        """One contiguous share of the current block's rows fills its part of the chunk."""
        share = slice(len(streams) * worker // workers, len(streams) * (worker + 1) // workers)
        rows = shocks[share]
        for row, stream in zip(rows, streams[share]):
            stream.standard_normal(out=row)
        # the error state is per thread; a pool thread runs with the default
        with np.errstate(over="ignore"):
            rows *= shock_scale

    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_paths, _PATH_BLOCK):
            stop = min(start + _PATH_BLOCK, n_paths)
            streams = seed.substreams(start, stop)
            y = terminal[start:stop]
            y.fill(y0)
            drift = np.empty_like(y)
            for first in range(0, steps, chunk):
                shocks = buffer[: stop - start, : min(chunk, steps - first)]
                jobs = []
                for worker in range(1, workers):  # one at a time: a refused share is drawn once
                    try:
                        jobs.append(_pool().submit(draw, worker))
                    except RuntimeError:  # the interpreter is shutting down
                        draw(worker)
                draw(0)
                for job in jobs:
                    job.result()
                for dw in shocks.T:
                    np.exp(y, out=drift)
                    drift *= pull
                    drift += base_drift
                    drift *= dt
                    y += drift
                    y += dw
                    if sign > 0.0:
                        y[y > _OVERFLOW_GUARD] = np.inf
    keep = np.isfinite(terminal) & (terminal <= _OVERFLOW_GUARD)
    n_overflowed = int(n_paths - keep.sum())
    if n_overflowed == n_paths:
        raise PathOverflow(f"all {n_paths} paths exceeded the overflow guard")
    return PathEnsemble(
        terminal_values=terminal[keep],
        n_paths=int(keep.sum()),
        n_overflowed=n_overflowed,
    )


def ensemble_moments(values: np.ndarray) -> dict[str, float]:
    """Mean, unbiased variance, skewness and excess kurtosis of a sample.

    The higher moments are taken of the standardized deviations, so a spread
    whose cube underflows (or whose fourth power overflows) stays finite.
    Finite values whose mean or variance leaves the float range raise
    PathOverflow; a sample that is not numeric, empty, not 1-D or not finite
    raises DomainError.
    """
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"ensemble_moments needs a numeric sample: {exc}") from None
    if values.ndim != 1 or values.size == 0:
        raise DomainError(f"ensemble_moments needs a non-empty 1-D sample, not {values.shape}")
    if not np.isfinite(values).all():
        raise DomainError("ensemble_moments needs finite values; the sample holds nan or inf")
    n = len(values)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
        centered = values - mean
        var = float(np.dot(centered, centered) / (n - 1)) if n > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise PathOverflow(
            f"ensemble moments leave the float range: mean {mean!r}, variance {var!r}"
        )
    if var > 0.0:
        z = centered / math.sqrt(var)
        skew = float(np.mean(z**3))
        exkurt = float(np.mean(z**4)) - 3.0
    else:
        skew = 0.0
        exkurt = 0.0
    return {
        "mean": mean,
        "variance": var,
        "skewness": skew,
        "excess_kurtosis": exkurt,
    }
