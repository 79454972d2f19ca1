"""Expectation of f(x) for Gaussian x over a non-uniform tile grid.

The grid pairs mirrored tiles symmetrically about the mode. Pair n has a
fixed tile height h = sqrt(1/(2N)) and a width set by the slope coefficient
s_n = max(1, |z|*phi(z)) in standardized units z = (x - mu)/sigma (phi the
standard-normal density), so each pair contributes the incremental two-sided
probability mass dA_n = 2*h^2/s_n. Coordinates follow from the cumulative mass
through the normal quantile: x_n = mu - sigma * inverse_cdf((1 - A_n)/2).

The slope rule reduces to s_n = 1 for every pair: |z|*phi(z) peaks at z = 1
with value 1/sqrt(2*pi*e) ~ 0.242 < 1. So dA_n = 1/N and A_n = n/N, and the
grid is closed form, built with one array call of the quantile.

The slope is taken in standardized coordinates, which makes grids for any
(mu, sigma) exact affine images of the standard grid; the builder caches the
standard grid per (n_pairs, tail_cutoff) and maps it. Working with the
sigma-scaled density instead would starve the grid: its slope term exceeds 1
over a wide band for sigma < 1 and the tile budget runs out near the mode
(coverage stalls around 64% for sigma = 0.1 at N = 80,000).
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from .errors import DomainError, NonFiniteIntegrand
from .gaussian import GaussianParams, inverse_cdf_std_array
from .types import Method, MgfEstimate, MgfQuery


@dataclass(frozen=True)
class TileGridConfig:
    """Number of tile pairs N and the tail mass at which building stops.

    The tile height h = sqrt(1/(2N)) is derived, never stored.
    """

    n_pairs: int = 80_000
    tail_cutoff: float = 1e-12

    def __post_init__(self):
        if self.n_pairs < 2:
            raise DomainError(f"n_pairs must be >= 2, got {self.n_pairs}")
        if not (0.0 < self.tail_cutoff <= 1e-6):
            raise DomainError(
                f"tail_cutoff must lie in (0, 1e-6], got {self.tail_cutoff}"
            )

    @property
    def tile_height(self) -> float:
        return math.sqrt(1.0 / (2.0 * self.n_pairs))


@dataclass(frozen=True)
class TileGrid:
    """Immutable tile partition for one Gaussian law.

    coordinates holds x_0 = mu .. x_K (strictly increasing); slopes and
    increments hold s_n and dA_n for pairs n = 1..K; areas holds the
    cumulative two-sided mass A_n. K <= n_pairs - 1 and coverage = A_K < 1.
    """

    mu: float
    sigma: float
    coordinates: np.ndarray
    slopes: np.ndarray
    increments: np.ndarray
    areas: np.ndarray
    coverage: float

    @property
    def n_pairs(self) -> int:
        return len(self.increments)

    def to_csv(self, sink: TextIO | str) -> None:
        """Dump `n,x_n,s_n,dA_n,A_n`, one row per pair of tiles."""
        buf = sink if not isinstance(sink, str) else io.StringIO()
        buf.write("n,x_n,s_n,dA_n,A_n\n")
        for n in range(1, len(self.coordinates)):
            buf.write(
                f"{n},{float(self.coordinates[n])!r},{float(self.slopes[n - 1])!r},"
                f"{float(self.increments[n - 1])!r},{float(self.areas[n - 1])!r}\n"
            )
        if isinstance(sink, str):
            with open(sink, "w") as fh:
                fh.write(buf.getvalue())


@dataclass(frozen=True)
class Expectation:
    """Weighted-average result with its realized coverage and eval count."""

    value: float
    coverage: float
    n_evals: int


@functools.lru_cache(maxsize=16)
def _standard_grid(n_pairs: int, tail_cutoff: float):
    """Grid for N(0, 1) in closed form; shared by every affine image.

    Every slope is 1 (see the module docstring), so pair n carries mass 1/N,
    A_n = n/N and z_n = -inverse_cdf((1 - A_n)/2). Pairs run from n = 1 to the
    first n whose uncovered mass 1 - A_n is below tail_cutoff, or to N - 1.
    """
    areas = np.arange(1, n_pairs, dtype=np.float64) / n_pairs
    # 1 - A_n decreases, so the pairs at or above the cutoff form a prefix;
    # the first pair below it is kept too
    areas = areas[: np.count_nonzero(1.0 - areas >= tail_cutoff) + 1]
    z = np.concatenate(([0.0], -inverse_cdf_std_array((1.0 - areas) / 2.0)))
    slopes = np.broadcast_to(1.0, areas.shape)
    increments = np.broadcast_to(1.0 / n_pairs, areas.shape)
    for a in (z, areas):
        a.flags.writeable = False
    return z, slopes, increments, areas


def build_grid(p: GaussianParams, cfg: TileGridConfig) -> TileGrid:
    """Build the tile grid for N(mu, sigma^2).

    Maps the cached standard grid to x_n = mu + sigma * z_n. It holds
    n_pairs - 1 pairs, or fewer when the uncovered tail mass drops below
    tail_cutoff first.
    """
    z, slopes, increments, areas = _standard_grid(cfg.n_pairs, cfg.tail_cutoff)
    return TileGrid(
        mu=p.mu,
        sigma=p.sigma,
        coordinates=p.mu + p.sigma * z,
        slopes=slopes,
        increments=increments,
        areas=areas,
        coverage=float(areas[-1]),
    )


def _evaluate(f: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """Apply f over an abscissa array, accepting scalar-only callables."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = np.asarray(f(xs), dtype=np.float64)
        if out.shape == xs.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.asarray([f(float(x)) for x in xs], dtype=np.float64)


def _first_bad(values: np.ndarray, xs: np.ndarray) -> float:
    idx = int(np.flatnonzero(~np.isfinite(values))[0])
    return float(xs[idx])


def expectation_on_grid(f: Callable[[float], float], grid: TileGrid) -> Expectation:
    """E[f(x)] over an existing grid; safe to share across concurrent calls.

    The average is normalized by the realized coverage, which is unbiased for
    bounded f; integrands with heavy growth at the tails carry a truncation
    bias on the order of the f-moment of the uncovered mass (about 2.5e-4
    relative for f(x) = x^2 at the default 80,000 pairs).
    """
    xs = grid.coordinates
    mirrored = 2.0 * grid.mu - xs
    fx = _evaluate(f, xs)
    fm = _evaluate(f, mirrored)
    if not np.isfinite(fx).all():
        x_bad = _first_bad(fx, xs)
        raise NonFiniteIntegrand(f"integrand non-finite at x={x_bad!r}", x_bad)
    if not np.isfinite(fm).all():
        x_bad = _first_bad(fm, mirrored)
        raise NonFiniteIntegrand(f"integrand non-finite at x={x_bad!r}", x_bad)
    # arithmetic mean over the four symmetric points of each pair of tiles
    pair_means = 0.25 * (fx[1:] + fx[:-1] + fm[1:] + fm[:-1])
    # fsum keeps the weighted average exactly rounded, so constants come back
    # bit-exact after the coverage normalization
    numer = math.fsum(pair_means * grid.increments)
    denom = math.fsum(grid.increments)
    return Expectation(
        value=numer / denom,
        coverage=grid.coverage,
        n_evals=2 * len(xs),
    )


def expectation(
    f: Callable[[float], float], p: GaussianParams, cfg: TileGridConfig
) -> Expectation:
    """E[f(x)] for x ~ N(mu, sigma^2), building the grid on the fly."""
    return expectation_on_grid(f, build_grid(p, cfg))


def mgf_thintile(q: MgfQuery, cfg: TileGridConfig | None = None) -> MgfEstimate:
    """Lognormal MGF by tile integration of exp(theta * e^x).

    For theta > 0 the underlying integral diverges; the value returned is the
    grid-truncated one, and an overflowing evaluation raises
    NonFiniteIntegrand carrying the offending abscissa.
    """
    cfg = cfg or TileGridConfig()
    grid = build_grid(GaussianParams(q.mu, q.sigma), cfg)
    theta = q.theta
    est = expectation_on_grid(lambda x: np.exp(theta * np.exp(x)), grid)
    return MgfEstimate(
        value=est.value,
        method=Method.THIN_TILE,
        diagnostics={
            "coverage": est.coverage,
            "n_evals": float(est.n_evals),
            "n_pairs": float(grid.n_pairs),
        },
    )
