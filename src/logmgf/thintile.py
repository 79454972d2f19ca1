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
standard grid per n_pairs and maps it. Working with the sigma-scaled density
instead would starve the grid: its slope term exceeds 1 over a wide band for
sigma < 1 and the tile budget runs out near the mode (coverage stalls around
64% for sigma = 0.1 at N = 80,000).

The grid holds K = N - 1 pairs and covers A_K = 1 - 1/N of the mass.
expectation_on_grid averages over that coverage alone (the paper's
truncated rule, used by mgf_thintile); expectation adds one cell per tail so
that the whole mass is counted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from .errors import DomainError, NonFiniteIntegrand
from .gaussian import GaussianParams, inverse_cdf_std_array, pdf
from .types import Method, MgfEstimate, MgfQuery

_PIECE = 1 << 13  # pairs per piece of expectation_on_grid: 64 KiB temporaries


@dataclass(frozen=True)
class TileGridConfig:
    """Number of tile pairs N; the grid holds N - 1 of them."""

    n_pairs: int = 80_000

    def __post_init__(self):
        if self.n_pairs < 2:
            raise DomainError(f"n_pairs must be >= 2, got {self.n_pairs}")


@dataclass(frozen=True)
class TileGrid:
    """Immutable tile partition for one Gaussian law.

    coordinates holds x_0 = mu .. x_K (strictly increasing) and areas the
    cumulative two-sided mass A_n for pairs n = 1..K, with K = n_pairs - 1 of
    the configuration and coverage = A_K < 1. Every pair has slope s_n = 1
    and mass dA_n = tile_mass.
    """

    mu: float
    sigma: float
    coordinates: np.ndarray
    areas: np.ndarray
    coverage: float

    @property
    def n_pairs(self) -> int:
        return len(self.areas)

    @property
    def tile_mass(self) -> float:
        """Mass dA_n of every pair: A_1 = 1/N exactly."""
        return float(self.areas[0])

    def to_csv(self, sink: TextIO) -> None:
        """Dump `n,x_n,s_n,dA_n,A_n`, one row per pair of tiles."""
        sink.write("n,x_n,s_n,dA_n,A_n\n")
        slope_and_mass = f"1.0,{self.tile_mass!r}"
        for n in range(1, len(self.coordinates)):
            sink.write(
                f"{n},{float(self.coordinates[n])!r},{slope_and_mass},"
                f"{float(self.areas[n - 1])!r}\n"
            )


@dataclass(frozen=True)
class Expectation:
    """Weighted-average result with its realized coverage and eval count."""

    value: float
    coverage: float
    n_evals: int


@functools.lru_cache(maxsize=16)
def _standard_grid(n_pairs: int):
    """Grid for N(0, 1) in closed form; shared by every affine image.

    Every slope is 1 (see the module docstring), so pair n carries mass 1/N,
    A_n = n/N and z_n = -inverse_cdf((1 - A_n)/2) for n = 1 .. N - 1.
    """
    areas = np.arange(1, n_pairs, dtype=np.float64) / n_pairs
    z = np.concatenate(([0.0], -inverse_cdf_std_array((1.0 - areas) / 2.0)))
    for a in (z, areas):
        a.flags.writeable = False
    return z, areas


def build_grid(p: GaussianParams, cfg: TileGridConfig) -> TileGrid:
    """Build the tile grid for N(mu, sigma^2) with n_pairs - 1 pairs.

    Maps the cached standard grid to x_n = mu + sigma * z_n. For sigma beyond
    about 4e307 the outer x_n overflow to +-inf, where the integrand is
    evaluated at its limit.
    """
    z, areas = _standard_grid(cfg.n_pairs)
    with np.errstate(over="ignore"):
        coordinates = p.mu + p.sigma * z
    return TileGrid(
        mu=p.mu,
        sigma=p.sigma,
        coordinates=coordinates,
        areas=areas,
        coverage=float(areas[-1]),
    )


def _evaluate(f: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """Apply f over an abscissa array, accepting scalar-only callables.

    f is called element-wise when it rejects the array with a TypeError (as
    math.cos does) or returns another shape. Any other exception propagates
    from the one array call.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = np.asarray(f(xs), dtype=np.float64)
        if out.shape == xs.shape:
            return out
    except TypeError:
        pass
    return np.asarray([f(float(x)) for x in xs], dtype=np.float64)


def _first_bad(values: np.ndarray, xs: np.ndarray) -> float:
    idx = int(np.flatnonzero(~np.isfinite(values))[0])
    return float(xs[idx])


def _exact_parts(w: np.ndarray) -> list[float]:
    """Return floats whose math.fsum is math.fsum(w.tolist()), mostly from numpy.

    A correctly rounded sum is unique, so any exact decomposition of the sum
    gives fsum's float, and so does the concatenation of the parts of several
    arrays for their joint sum. Each pass splits the remainder r without error
    (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1), 2008): with sigma = 2^k,
    hi = (sigma + r) - sigma and r - hi are exact. Choosing 2^m > 2n and
    |r| <= 2^(k-m) makes every hi a multiple of 2^(k-53) with
    |hi| <= 2^(k-m), so every partial sum of the his is exact and numpy may
    add them in any order. The new remainder is at most 2^(k-53), which sets
    the next k. Passes stop once at most n/64 remainders are nonzero, and the
    parts are the pass sums and those remainders. A non-finite or all-zero w,
    or one whose 2^k would overflow, is its own parts, w.tolist(): that keeps
    fsum's inf, nan, OverflowError and signed zero.
    """
    n = len(w)
    top = max(float(w.max(initial=0.0)), -float(w.min(initial=0.0)))
    m = (2 * n).bit_length()
    k = math.frexp(top)[1] + m
    if not 0.0 < top < math.inf or k > 1023:  # nan fails the comparison
        return w.tolist()
    parts = []
    r = w.copy()
    hi = np.empty_like(r)
    nonzero = n
    while nonzero > n // 64:
        sigma = math.ldexp(1.0, k)
        np.add(r, sigma, out=hi)
        hi -= sigma
        parts.append(float(hi.sum()))
        r -= hi
        nonzero = np.count_nonzero(r)
        k += m - 53
    if nonzero:
        parts += r[r != 0].tolist()
    return parts


def _raise_non_finite(
    fx: np.ndarray, fm: np.ndarray, xs: np.ndarray, mirrored: np.ndarray
) -> None:
    """Raise NonFiniteIntegrand at the first bad f(x_n), else the first bad mirror."""
    if not np.isfinite(fx).all():
        x_bad = _first_bad(fx, xs)
        raise NonFiniteIntegrand(f"integrand non-finite at x={x_bad!r}", x_bad)
    if not np.isfinite(fm).all():
        x_bad = _first_bad(fm, mirrored)
        if math.isnan(x_bad):
            # 2*mu - x_n is inf - inf where 2*mu overflows: name the first
            # finite grid point whose mirror left the float range (x_0 = mu)
            x_bad = float(xs[np.isfinite(xs) & ~np.isfinite(mirrored)][0])
            raise NonFiniteIntegrand(
                f"mirror 2*mu - x_n of grid point x_n={x_bad!r} is not finite", x_bad
            )
        raise NonFiniteIntegrand(f"integrand non-finite at x={x_bad!r}", x_bad)


def _mirror(mu: float, xs: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # nan, inf: caught later
        return 2.0 * mu - xs


def expectation_on_grid(f: Callable[[float], float], grid: TileGrid) -> Expectation:
    """E[f(x)] over an existing grid by the paper's truncated rule.

    The average runs over the covered mass A_K = coverage < 1 and is
    normalized by it; the two tails beyond x_K are left out. That truncation
    is a bias of the order of the f-moment of the uncovered mass (2.5e-4
    relative for f(x) = x^2, 3.6e-5 for the bounded exp(-e^x) at
    N(1, 0.25), both at the default 80,000 pairs). mgf_thintile uses this
    rule because the published thin_tile column is that rule. Safe to share
    the grid across concurrent calls.

    The grid is walked in pieces of _PIECE pairs, so every temporary stays
    near 64 KiB, in cache and below the allocator's mmap threshold. Adjacent
    pieces share one coordinate, which is evaluated in both; n_evals counts
    each grid point and its mirror once. The exact parts of all pieces are
    rounded by one fsum, so the value does not depend on the piece size. A
    non-finite value anywhere names the first bad f(x_n) over the whole grid
    before any bad mirror.
    """
    xs_all = grid.coordinates
    parts = []
    for start in range(0, grid.n_pairs, _PIECE):
        xs = xs_all[start : start + _PIECE + 1]
        mirrored = _mirror(grid.mu, xs)
        fx = _evaluate(f, xs)
        fm = _evaluate(f, mirrored)
        if not (np.isfinite(fx).all() and np.isfinite(fm).all()):
            # the first bad f(x_n) of the whole grid is named before any bad
            # mirror, even one in an earlier piece
            whole = _mirror(grid.mu, xs_all)
            _raise_non_finite(_evaluate(f, xs_all), _evaluate(f, whole), xs_all, whole)
            _raise_non_finite(fx, fm, xs, mirrored)  # f changed its values
        # arithmetic mean over the four symmetric points of each pair of tiles
        with np.errstate(over="ignore"):  # an overflowed sum is redone below
            pair_sums = fx[1:] + fx[:-1] + fm[1:] + fm[:-1]
        pair_means = 0.25 * pair_sums
        lost = np.isinf(pair_sums)
        if lost.any():
            # four finite terms have a finite mean: quarter them first, which
            # is exact at this magnitude
            corners = (fx[1:], fx[:-1], fm[1:], fm[:-1])
            pair_means[lost] = sum(0.25 * t[lost] for t in corners)
        parts += _exact_parts(pair_means * grid.tile_mass)
    # the exactly rounded sum brings constants back bit-exact after the
    # coverage normalization. The total mass K/N is one product: it rounds
    # the exact value once, as fsum of K copies of 1/N does
    numer = math.fsum(parts)
    denom = grid.n_pairs * grid.tile_mass
    return Expectation(
        value=numer / denom,
        coverage=grid.coverage,
        n_evals=2 * len(xs_all),
    )


def expectation(
    f: Callable[[float], float], p: GaussianParams, cfg: TileGridConfig
) -> Expectation:
    """E[f(x)] for x ~ N(mu, sigma^2), with both Gaussian tails closed.

    Averages over the grid by expectation_on_grid, then adds one cell per
    tail beyond x_K: mass (1 - A_K)/2 at the tail's conditional mean
    x = mu +- sigma * phi(z_K) / ((1 - A_K)/2), with z_K = (x_K - mu)/sigma.
    Against quadrature for x^2, e^x and exp(-e^x) under N(0, 1), N(0, 0.01)
    and N(1, 0.25) the worst relative error is 3.4e-6, against 3.6e-4 for
    the truncated rule. The tail cells add exactly 0 to a constant f. n_evals
    counts the two tail points.
    """
    grid = build_grid(p, cfg)
    inner = expectation_on_grid(f, grid)
    tail_mass = 1.0 - grid.coverage
    z_k = (grid.coordinates[-1] - grid.mu) / grid.sigma
    tail_mean_z = pdf(z_k, GaussianParams(0.0, 1.0)) / (0.5 * tail_mass)
    x_tail = grid.mu + grid.sigma * tail_mean_z
    xs = np.array([x_tail, 2.0 * grid.mu - x_tail])
    fx = _evaluate(f, xs)
    if not np.isfinite(fx).all():
        x_bad = _first_bad(fx, xs)
        raise NonFiniteIntegrand(f"integrand non-finite at x={x_bad!r}", x_bad)
    # A_K + (1 - A_K) is exactly 1, so the mean over grid and tails is
    # E_grid + (1 - A_K)(E_tail - E_grid); the second term is 0 for constant f
    a, b = float(fx[0]), float(fx[1])
    tail_mean = 0.5 * (a + b) if math.isfinite(a + b) else 0.5 * a + 0.5 * b
    return Expectation(
        value=inner.value + tail_mass * (tail_mean - inner.value),
        coverage=grid.coverage,
        n_evals=inner.n_evals + 2,
    )


def mgf_thintile(q: MgfQuery, cfg: TileGridConfig | None = None) -> MgfEstimate:
    """Lognormal MGF by tile integration of exp(theta * e^x).

    Uses the truncated rule of expectation_on_grid for both signs of theta,
    because the published thin_tile column is that rule: it reproduces all 15
    table cells within 9.0e-7, while closing the tails moves table 1 by up to
    1.4e-5 and table 3 by up to 5.0e-6. For theta > 0 the underlying integral
    diverges; an overflowing evaluation raises NonFiniteIntegrand carrying
    the offending abscissa. theta = 0 returns 1 exactly without evaluating,
    since exp(x) can overflow there and 0 * inf is nan. The truncated rule
    misses mass that lies beyond the grid without saying so: at (mu, sigma,
    theta) = (0, 1, -1e4) exp(theta * e^x) peaks near x = -9, past the last
    pair, and the rule gives 3.0e-61 where M = 1.11538e-15.
    """
    cfg = cfg or TileGridConfig()
    grid = build_grid(GaussianParams(q.mu, q.sigma), cfg)
    theta = q.theta
    if theta == 0.0:
        return MgfEstimate(
            1.0,
            Method.THIN_TILE,
            {"coverage": grid.coverage, "n_evals": 0.0, "n_pairs": float(grid.n_pairs)},
        )
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
