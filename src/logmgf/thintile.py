"""Expectation of f(x) for Gaussian x over a non-uniform tile grid.

The grid pairs mirrored tiles symmetrically about the mode. Pair n has a
fixed tile height h = sqrt(1/(2N)) and a width set by the slope coefficient
s_n = max(1, |z|*phi(z)) in standardized units z = (x - mu)/sigma (phi the
standard-normal density), so each pair contributes the incremental two-sided
probability mass dA_n = 2*h^2/s_n. Coordinates follow from the cumulative mass
through the normal quantile: x_n = mu - sigma * inverse_cdf((1 - A_n)/2).

The slope rule reduces to s_n = 1 for every pair: |z|*phi(z) peaks at z = 1
with value 1/sqrt(2*pi*e) ~ 0.242 < 1. So dA_n = 1/N and A_n = n/N, and the
grid is closed form, built piece by piece with the quantile. A grid keeps
only its nodes: every mass follows from N = len(z).

The slope is taken in standardized coordinates, which makes grids for any
(mu, sigma) exact affine images of the standard grid; the builder caches the
standard nodes per n_pairs, and the rules map each node z to both points of its
pair, mu + sigma*z and mu - sigma*z. Working with the sigma-scaled density
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

from .errors import DomainError, NonFiniteIntegrand, _config, _index, _instance
from .gaussian import GaussianParams, inverse_cdf_std_array, pdf
from .types import Method, MgfEstimate, MgfQuery

_PIECE = 1 << 13  # pairs per piece of every grid-long loop: 64 KiB temporaries


@dataclass(frozen=True)
class TileGridConfig:
    """Number of tile pairs N; the grid holds N - 1 of them."""

    n_pairs: int = 80_000

    def __post_init__(self):
        # up to 2^53 every mass n/N is a quotient of exactly represented integers
        if not 2 <= _index("n_pairs", self.n_pairs) <= 2**53:
            raise DomainError(f"n_pairs must lie in [2, 2^53], got {self.n_pairs}")


@dataclass(frozen=True)
class TileGrid:
    """Immutable tile partition for one Gaussian law.

    z holds the standard nodes z_0 = 0 .. z_K (strictly increasing), the
    cached, read-only standard grid, with K = n_pairs - 1 of the
    configuration. Every pair has slope s_n = 1, so the masses need no array:
    with N = len(z), pair n has mass dA_n = 1/N and A_n = n/N, each the
    correctly rounded quotient of two integers.
    """

    mu: float
    sigma: float
    z: np.ndarray

    @property
    def coordinates(self) -> np.ndarray:
        """x_n = mu + sigma * z_n, made on each access; for sigma beyond about
        4e307 the outer x_n are +-inf, where the integrand takes its limit."""
        with np.errstate(over="ignore"):
            return self.mu + self.sigma * self.z

    @property
    def coverage(self) -> float:
        """Covered mass A_K = K/N < 1."""
        return self.n_pairs / len(self.z)

    @property
    def n_pairs(self) -> int:
        return len(self.z) - 1

    @property
    def tile_mass(self) -> float:
        """Mass dA_n = 1/N of every pair."""
        return 1.0 / len(self.z)

    def to_csv(self, sink: TextIO) -> None:
        """Dump `n,x_n,s_n,dA_n,A_n`, one row per pair of tiles, _PIECE pairs at a time."""
        sink.write("n,x_n,s_n,dA_n,A_n\n")
        slope_and_mass = f"1.0,{self.tile_mass!r}"
        for start in range(1, len(self.z), _PIECE):
            with np.errstate(over="ignore"):  # x_n as the coordinates property gives it
                xs = self.mu + self.sigma * self.z[start : start + _PIECE]
            for n, x in enumerate(xs.tolist(), start):
                sink.write(f"{n},{x!r},{slope_and_mass},{n / len(self.z)!r}\n")


@dataclass(frozen=True)
class Expectation:
    """Weighted-average result with its realized coverage and eval count."""

    value: float
    coverage: float
    n_evals: int


@functools.lru_cache(maxsize=16)
def _standard_grid(n_pairs: int) -> np.ndarray:
    """Nodes of the grid for N(0, 1) in closed form; shared by every affine image.

    Every slope is 1 (see the module docstring), so pair n carries mass 1/N,
    A_n = n/N and z_n = -inverse_cdf((1 - A_n)/2) for n = 1 .. N - 1. The
    quantile works element by element, so it runs on _PIECE nodes at a time
    and only the result is grid-sized.
    """
    z = np.empty(n_pairs)
    z[0] = 0.0
    for start in range(1, n_pairs, _PIECE):
        areas = np.arange(start, min(start + _PIECE, n_pairs), dtype=np.float64) / n_pairs
        z[start : start + len(areas)] = -inverse_cdf_std_array((1.0 - areas) / 2.0)
    z.flags.writeable = False
    return z


def build_grid(p: GaussianParams, cfg: TileGridConfig) -> TileGrid:
    """The tile grid for N(mu, sigma^2) with n_pairs - 1 pairs, on the cached standard grid."""
    _instance("p", p, GaussianParams)
    _instance("cfg", cfg, TileGridConfig)
    return TileGrid(p.mu, p.sigma, _standard_grid(cfg.n_pairs))


def _evaluate(f: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """Apply f over an abscissa array, accepting scalar-only callables.

    f is called element-wise when it rejects the array with a TypeError (as
    math.cos does) or returns another shape. Any other exception propagates
    from the one array call. Values that are not real numbers (of bool,
    integer or float dtype) raise DomainError, complex ones included.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = np.asarray(f(xs))
    except TypeError:
        out = None
    if out is None or out.shape != xs.shape:
        out = np.asarray([f(float(x)) for x in xs])
    if out.dtype.kind not in "biuf":
        raise DomainError(f"f must return real numbers, got values of dtype {out.dtype}")
    return out.astype(np.float64, copy=False)


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


def _raise_non_finite(values: np.ndarray, xs: np.ndarray) -> None:
    """Raise NonFiniteIntegrand at the abscissa of the first non-finite value.

    Every abscissa is mu +- sigma * z from a standard node, so it is a real
    number or +-inf, never nan, and the error always names a point.
    """
    x_bad = float(xs[np.flatnonzero(~np.isfinite(values))[0]])
    raise NonFiniteIntegrand(f"integrand non-finite at x={x_bad!r}", x_bad)


def expectation_on_grid(f: Callable[[float], float], grid: TileGrid) -> Expectation:
    """E[f(x)] over an existing grid by the paper's truncated rule.

    The average runs over the covered mass A_K = coverage < 1 and is
    normalized by it; the two tails beyond x_K are left out. That truncation
    is a bias of the order of the f-moment of the uncovered mass (2.5e-4
    relative for f(x) = x^2, 3.6e-5 for the bounded exp(-e^x) at
    N(1, 0.25), both at the default 80,000 pairs). mgf_thintile uses this
    rule because the published thin_tile column is that rule. Safe to share
    the grid across concurrent calls.

    The grid is walked in pieces of _PIECE pairs, each mapped from the
    standard nodes to x_n = mu + sigma * z_n and its mirror mu - sigma * z_n
    as it is reached, so every temporary stays near 64 KiB, in cache and
    below the allocator's mmap threshold. Adjacent pieces share one
    coordinate, which is evaluated in both; n_evals counts each grid point
    and its mirror once. The exact parts of all pieces are rounded by one
    fsum, so the value does not depend on the piece size. A non-finite
    f(x_n) raises in the piece where it appears; the first bad mirror is
    held until every f(x_n) is known to be finite, so the first bad f(x_n)
    of the whole grid is named before it.
    """
    _instance("grid", grid, TileGrid)
    if not callable(f):
        raise DomainError(f"f must be callable, got {f!r}")
    parts = []
    held = None  # values and abscissae of the first piece with a bad mirror
    for start in range(0, grid.n_pairs, _PIECE):
        with np.errstate(over="ignore"):
            offsets = grid.sigma * grid.z[start : start + _PIECE + 1]
            xs, mirrored = grid.mu + offsets, grid.mu - offsets
        fx = _evaluate(f, xs)
        if not np.isfinite(fx).all():
            _raise_non_finite(fx, xs)
        if held is not None:
            continue  # only the f(x_n) of later pieces can still be named first
        fm = _evaluate(f, mirrored)
        if not np.isfinite(fm).all():
            held = fm, mirrored
            continue
        # arithmetic mean over the four symmetric points of each pair of
        # tiles; quartered first (exactly, f may return a read-only array),
        # so four finite values always have a finite mean
        qx, qm = 0.25 * fx, 0.25 * fm
        pair_means = qx[1:] + qx[:-1]
        pair_means += qm[1:]
        pair_means += qm[:-1]
        parts += _exact_parts(pair_means * grid.tile_mass)
    if held is not None:
        _raise_non_finite(*held)
    # the exactly rounded sum brings constants back bit-exact after the
    # coverage normalization. The total mass K/N is one product: it rounds
    # the exact value once, as fsum of K copies of 1/N does
    numer = math.fsum(parts)
    denom = grid.n_pairs * grid.tile_mass
    return Expectation(
        value=numer / denom,
        coverage=grid.coverage,
        n_evals=2 * len(grid.z),
    )


def expectation(
    f: Callable[[float], float], p: GaussianParams, cfg: TileGridConfig
) -> Expectation:
    """E[f(x)] for x ~ N(mu, sigma^2), with both Gaussian tails closed.

    Averages over the grid by expectation_on_grid, then adds one cell per
    tail beyond x_K: mass (1 - A_K)/2 at the tail's conditional mean
    x = mu +- sigma * phi(z_K) / ((1 - A_K)/2), z_K the last standard node.
    Against quadrature for x^2, e^x and exp(-e^x) under N(0, 1), N(0, 0.01)
    and N(1, 0.25) the worst relative error is 3.4e-6, against 3.6e-4 for
    the truncated rule. The tail cells add exactly 0 to a constant f. n_evals
    counts the two tail points.
    """
    grid = build_grid(p, cfg)
    inner = expectation_on_grid(f, grid)
    tail_mass = 1.0 - grid.coverage
    z_k = float(grid.z[-1])
    tail_mean_z = pdf(z_k, GaussianParams(0.0, 1.0)) / (0.5 * tail_mass)
    offset = grid.sigma * tail_mean_z
    xs = np.array([grid.mu + offset, grid.mu - offset])
    fx = _evaluate(f, xs)
    if not np.isfinite(fx).all():
        _raise_non_finite(fx, xs)
    # A_K + (1 - A_K) is exactly 1, so the mean over grid and tails is
    # E_grid + (1 - A_K)(E_tail - E_grid); the second term is 0 for constant f
    tail_mean = 0.5 * float(fx[0]) + 0.5 * float(fx[1])
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
    _instance("q", q, MgfQuery)
    grid = build_grid(q, _config(cfg, TileGridConfig))
    theta = q.theta
    if theta == 0.0:
        est = Expectation(1.0, grid.coverage, 0)
    else:
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
