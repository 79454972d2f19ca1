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
which is precisely the regime the comparison tables are built in. theta > 0
starts from v_0 = sigma^2, which activates the variance dynamics (the nonzero
start stands in for the covariance terms the single-factor adjustment drops).

One switch departs from that default: variance_kick forces the known initial
slope v'(0) = sigma^2 on the first step, waking the variance from the v_0 = 0
fixed point. This is the configuration to use when comparing (m_1, v_1)
against simulated paths, whose spread is real for every theta.

Every exponent above _OVERFLOW_GUARD counts as a blow-up: the drifts, the
estimator and a simulated path stop there, well inside the float range.

An Euler-Maruyama simulator for the underlying SDE
dy = (mu + sigma^2/2 + sign(theta)*(sigma^2/2)*e^y) dt + sigma dW serves as
the independent oracle for the ODE system.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .errors import DivergenceError, DomainError, NegativeRadicand, PathOverflow
from .gaussian import RngSeed
from .types import Method, MgfEstimate, MgfQuery

_OVERFLOW_GUARD = 700.0  # exp(710) overflows a double
_PATH_BLOCK = 2048  # paths stepped together, one ufunc call per step operation
# float64 shocks held at once by all path workers together: 32.8 MB, the size
# of one whole 2048-path x 2000-step shock matrix
_SHOCK_FLOATS = 2048 * 2000


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
        if self.steps < 10:
            raise DomainError(f"steps must be >= 10, got {self.steps}")


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
    steps: int
    seed: RngSeed
    n_overflowed: int = 0


def drift_m(s: OdeState, q: MgfQuery) -> float:
    """Time derivative of the first moment m_t; theta must be nonzero."""
    exponent = s.m + 0.5 * s.v
    if exponent > _OVERFLOW_GUARD:
        raise OverflowError(
            f"moment drift exponent {exponent:.3g} exceeds guard {_OVERFLOW_GUARD:.3g}"
        )
    s2 = q.sigma * q.sigma
    return q.mu + 0.5 * s2 + q.sign_theta * 0.5 * s2 * math.exp(exponent)


def drift_v(s: OdeState, q: MgfQuery) -> float:
    """Time derivative of the variance v_t; requires t > 0.

    Raises NegativeRadicand when the expression under the square root goes
    negative (possible for theta < 0 at small t with large sigma); the
    integrator clamps such steps to zero and counts them.
    """
    if not (s.t > 0.0):
        raise DomainError(f"variance drift needs t > 0, got t={s.t}")
    if s.v < 0.0:
        raise DomainError(f"variance must be nonnegative, got v={s.v}")
    if 2.0 * s.m + s.v > _OVERFLOW_GUARD or s.m + 0.5 * s.v > _OVERFLOW_GUARD:
        raise OverflowError(
            f"variance drift exponent exceeds guard {_OVERFLOW_GUARD:.3g}"
        )
    g = math.sqrt(1.0 + 0.5 * q.sigma * q.sigma)
    s2 = q.sigma * q.sigma
    radicand = (
        s.v * s2 / s.t
        + s.v * s2 * s2 * g * g * math.expm1(s.v) * math.exp(2.0 * s.m + s.v)
        + q.sign_theta
        * 2.0
        * (q.sigma**3 / math.sqrt(s.t))
        * g
        * s.v**1.5
        * math.exp(s.m + 0.5 * s.v)
    )
    if not math.isfinite(radicand):
        # a term overflowed (and may have met an underflowed factor: inf * 0)
        raise OverflowError(
            f"variance radicand {radicand} at t={s.t:.6g} is not finite"
        )
    if radicand < 0.0:
        raise NegativeRadicand(
            f"variance radicand {radicand:.3g} < 0 at t={s.t:.6g}", s.t, radicand
        )
    return math.sqrt(radicand)


def iter_states(
    q: MgfQuery, cfg: ZeroEntropyConfig, info: IntegrationInfo | None = None
) -> Iterator[OdeState]:
    """Euler trajectory of (m, v) over [0, 1], yielding every state.

    The first yielded state is the initial condition; each subsequent one is
    the state after one step of size 1/steps.
    """
    if q.theta == 0.0:
        raise DomainError("theta = 0 short-circuits to MGF 1; not integrable")
    dt = 1.0 / cfg.steps
    m = math.log(abs(q.theta))
    v = q.sigma * q.sigma if q.theta > 0.0 else 0.0
    yield OdeState(0.0, m, v)
    for i in range(cfg.steps):
        try:
            dm = drift_m(OdeState(i * dt, m, v), q)
            if cfg.variance_kick and i == 0:
                dv = q.sigma * q.sigma
            elif v == 0.0:
                dv = 0.0  # exact fixed point; also keeps t = 0 unevaluated
            else:
                try:
                    dv = drift_v(OdeState(max(i, 1) * dt, m, v), q)
                except NegativeRadicand:
                    dv = 0.0
                    if info is not None:
                        info.clamped_steps += 1
        except OverflowError as exc:
            raise DivergenceError(f"diverged at step {i}: {exc}", i) from exc
        m += dm * dt
        v += dv * dt
        yield OdeState((i + 1) * dt, m, v)


def integrate_with_info(
    q: MgfQuery, cfg: ZeroEntropyConfig
) -> tuple[OdeState, IntegrationInfo]:
    info = IntegrationInfo()
    state = None
    for state in iter_states(q, cfg, info):
        pass
    assert state is not None
    return state, info


def integrate(q: MgfQuery, cfg: ZeroEntropyConfig) -> OdeState:
    """State at t = 1 after explicit Euler over the unit interval."""
    return integrate_with_info(q, cfg)[0]


def mgf_zero_entropy(q: MgfQuery, cfg: ZeroEntropyConfig | None = None) -> MgfEstimate:
    """MGF estimate exp(sign(theta) * exp(m_1)); theta = 0 returns 1 exactly.

    Raises DomainError where the Euler solve leaves m_1 nan (inf - inf in the
    drift, e.g. where sigma^2 overflows).
    """
    cfg = cfg or ZeroEntropyConfig()
    if q.theta == 0.0:
        return MgfEstimate(1.0, Method.ZERO_ENTROPY, {"steps": 0.0})
    state, info = integrate_with_info(q, cfg)
    if math.isnan(state.m):
        raise DomainError(
            f"the moment ODE leaves the float range at mu={q.mu!r}, sigma={q.sigma!r}"
        )
    # the last step can carry m past the drifts' guard; capped, math.exp
    # cannot raise, and exp(700) still trips the estimator guard for theta > 0
    inner = math.exp(min(state.m, _OVERFLOW_GUARD))
    if q.sign_theta > 0.0 and inner > _OVERFLOW_GUARD:
        raise DivergenceError(
            f"estimator exponent {inner:.3g} exceeds guard {_OVERFLOW_GUARD:.3g}",
            cfg.steps,
        )
    return MgfEstimate(
        value=math.exp(q.sign_theta * inner),
        method=Method.ZERO_ENTROPY,
        diagnostics={
            "m_1": state.m,
            "v_1": state.v,
            "steps": float(cfg.steps),
            "clamped_steps": float(info.clamped_steps),
        },
    )


def trajectory_csv(q: MgfQuery, cfg: ZeroEntropyConfig, sink: TextIO) -> None:
    """Dump the Euler trajectory as CSV `i,t,m,v`, one row per state."""
    sink.write("i,t,m,v\n")
    for i, s in enumerate(iter_states(q, cfg)):
        sink.write(f"{i},{s.t!r},{s.m!r},{s.v!r}\n")


def simulate_paths(q: MgfQuery, n_paths: int, steps: int, seed: RngSeed) -> PathEnsemble:
    """Euler-Maruyama ensemble of y over [0, 1] from y_0 = log|theta|.

    Path p draws its shocks from the sub-stream keyed by (seed, p), so the
    ensemble is identical however the paths are batched or ordered. Blocks of
    _PATH_BLOCK paths are dealt round-robin to one thread per usable CPU
    (numpy releases the GIL while it draws normals and runs ufunc loops).
    Each thread draws its block's shocks a chunk of steps at a time into its
    one buffer; the chunk is sized so that all buffers together hold at most
    _SHOCK_FLOATS doubles. Exploding paths (positive theta) are excluded and
    counted; if every path explodes, PathOverflow is raised.
    """
    if q.theta == 0.0:
        raise DomainError("theta = 0 has no driving process; MGF is 1 exactly")
    if n_paths < 1:
        raise DomainError(f"n_paths must be >= 1, got {n_paths}")
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    dt = 1.0 / steps
    shock_scale = q.sigma * math.sqrt(dt)
    y0 = math.log(abs(q.theta))
    s2h = 0.5 * q.sigma * q.sigma
    base_drift = q.mu + s2h
    sign = q.sign_theta
    pull = sign * s2h
    terminal = np.empty(n_paths)
    starts = range(0, n_paths, _PATH_BLOCK)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(starts))
    width = min(_PATH_BLOCK, n_paths)
    chunk = max(1, min(steps, _SHOCK_FLOATS // (workers * width)))
    # allocated here, not in the workers: a buffer freed in a worker thread
    # stays in that thread's malloc arena, so repeated calls would pile them up
    buffers = [np.empty((width, chunk)) for _ in range(workers)]

    def step_blocks(worker: int) -> None:
        buffer = buffers[worker]
        # the error state is per thread; a new thread starts from the default
        with np.errstate(over="ignore", invalid="ignore"):
            for start in starts[worker::workers]:
                stop = min(start + _PATH_BLOCK, n_paths)
                streams = seed.substreams(start, stop)
                y = terminal[start:stop]
                y.fill(y0)
                drift = np.empty_like(y)
                for first in range(0, steps, chunk):
                    shocks = buffer[: stop - start, : min(chunk, steps - first)]
                    for row, stream in zip(shocks, streams):
                        stream.standard_normal(out=row)
                    shocks *= shock_scale
                    for dw in shocks.T:
                        np.exp(y, out=drift)
                        drift *= pull
                        drift += base_drift
                        drift *= dt
                        y += drift
                        y += dw
                        if sign > 0.0:
                            y[y > _OVERFLOW_GUARD] = np.inf

    if workers == 1:
        step_blocks(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(step_blocks, range(workers)))
    keep = np.isfinite(terminal) & (terminal <= _OVERFLOW_GUARD)
    n_overflowed = int(n_paths - keep.sum())
    if n_overflowed == n_paths:
        raise PathOverflow(f"all {n_paths} paths exceeded the overflow guard")
    return PathEnsemble(
        terminal_values=terminal[keep],
        n_paths=int(keep.sum()),
        steps=steps,
        seed=seed,
        n_overflowed=n_overflowed,
    )


def ensemble_moments(values: np.ndarray) -> dict[str, float]:
    """Mean, unbiased variance, skewness and excess kurtosis of a sample.

    The higher moments are taken of the standardized deviations, so a spread
    whose cube underflows (or whose fourth power overflows) stays finite.
    Finite values whose mean or variance leaves the float range raise
    PathOverflow.
    """
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
