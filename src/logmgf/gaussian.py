"""Gaussian primitives and seeded random streams used by every other module.

Everything here runs in 64-bit floats. The standard-normal quantile runs on
whole arrays: a rational initial approximation polished by one Newton step
against the CDF Phi(z) = erfc(-z/sqrt 2)/2, which keeps |Phi(z) - p| <= 1e-12
across the whole open unit interval. Sub-streams are keyed by one algorithm,
numpy's SeedSequence hash run on index arrays.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _index, _real

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_TWO_PI = 1.0 / _SQRT_TWO_PI


@dataclass(frozen=True)
class GaussianParams:
    """Location/scale of a Gaussian law N(mu, sigma^2); sigma > 0.

    Both fields are stored as floats, whatever real type they were given as.
    """

    mu: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _real("mu", self.mu))
        object.__setattr__(self, "sigma", _real("sigma", self.sigma))
        if not (self.sigma > 0):
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise DomainError("mu and sigma must be finite")


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): its constants,
# its 4-word pool and the 16-bit xorshift of every hash and mix.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# sub-streams per seed: index p is one 32-bit word of the key (seed, p)
_STREAMS = 2**32


def _keyed_states(seed: int, start: int, stop: int) -> np.ndarray:
    """Rows of SeedSequence((seed, p)).generate_state(4, uint64), p in [start, stop).

    numpy's hash, run on uint32 arrays (which wrap mod 2^32 like its C code)
    so every index of the range goes through it at once. The entropy of
    (seed, p) is seed's little-endian 32-bit words, then p as one word, which
    is why p stays below 2^32; that is at most 3 words, so the pool's zero
    padding applies and no word is left for the final mixing loop.
    """
    n = stop - start
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.full(n, w, np.uint32) for w in words]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    entropy += [np.zeros(n, np.uint32)] * (_POOL_SIZE - len(entropy))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        value ^= value >> 16
        return value

    pool = [hashmix(word) for word in entropy]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed = _MIX_MULT_L * pool[i_dst] - _MIX_MULT_R * hashmix(pool[i_src])
                mixed ^= mixed >> 16
                pool[i_dst] = mixed
    state = np.empty((n, 8), np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        value ^= value >> 16
        state[:, i] = value
    # two uint32 words per uint64, low word first, as generate_state assembles them
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _state_words_type() -> type:
    """ISeedSequence handing PCG64 precomputed state words.

    Built on first use because numpy.random loads lazily and `import logmgf`
    should not pay for it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or dtype is not np.uint64:
                raise ValueError(f"holds {len(self.words)} uint64 state words only")
            return self.words

    return StateWords


@dataclass(frozen=True)
class RngSeed:
    """64-bit seed; identical seeds yield bit-identical sample streams from run
    to run on one host. Values taken through np.exp follow numpy's exp kernel.

    Streams are numpy PCG64 generators. Derived sub-streams are keyed by
    (seed, index) with 0 <= index < 2^32: sub-stream i is the generator seeded
    by SeedSequence((seed, i)), so a computation partitioned over indices gives
    the same draws regardless of execution order. `substreams` keys a whole
    index range with one array pass of SeedSequence's hash; `substream` is its
    one-index case.
    """

    seed: int

    def __post_init__(self):
        if not (0 <= _index("seed", self.seed) < 2**64):
            raise DomainError(f"seed must fit in 64 bits, got {self.seed}")

    def substreams(self, start: int, stop: int) -> list[np.random.Generator]:
        """Sub-streams start, ..., stop - 1.

        Raises DomainError unless integers 0 <= start <= stop <= 2^32.
        """
        if not (0 <= _index("start", start) <= _index("stop", stop) <= _STREAMS):
            raise DomainError(
                f"sub-stream indices must lie in [0, 2^32), got [{start}, {stop})"
            )
        words_type = _state_words_type()
        generator, pcg64 = np.random.Generator, np.random.PCG64
        return [
            generator(pcg64(words_type(words)))
            for words in _keyed_states(self.seed, start, stop)
        ]

    def substream(self, index: int) -> np.random.Generator:
        """Generator seeded by SeedSequence((seed, index)); 0 <= index < 2^32."""
        index = _index("index", index)
        return self.substreams(index, index + 1)[0]


def _usable_cpus() -> int:
    """CPUs this process may run on, read afresh on every call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_executor = None  # made by _pool on first use
_executor_lock = threading.Lock()


def _pool():
    """The process's one ThreadPoolExecutor, of max(usable CPUs - 1, 1) threads named logmgf_*
    as every caller works too; at interpreter shutdown it or its submit raises RuntimeError."""
    global _executor
    with _executor_lock:
        if _executor is None:
            # imported here: `logmgf compute` would pay about 10 ms for it at import
            from concurrent.futures import ThreadPoolExecutor

            _executor = ThreadPoolExecutor(max(_usable_cpus() - 1, 1), thread_name_prefix="logmgf")
        return _executor


def _forget_pool() -> None:
    # a forked child has none of the pool's threads, and the lock may have been held at the fork
    global _executor, _executor_lock
    _executor, _executor_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def pdf(x: float, p: GaussianParams) -> float:
    """Density of N(mu, sigma^2) at x; strictly positive, peak at x = mu."""
    z = (x - p.mu) / p.sigma
    return _INV_SQRT_TWO_PI / p.sigma * math.exp(-0.5 * z * z)


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
    """Standard-normal quantile of a 1-D array; |Phi(z) - p| <= 1e-12.

    Rational approximation seeded, then one Newton step against
    Phi(z) = erfc(-z/sqrt 2)/2. Raises DomainError unless every element lies
    in the open unit interval.
    """
    p = np.asarray(p, dtype=np.float64)
    outside = ~((p > 0.0) & (p < 1.0))
    if outside.any():
        bad = float(p[outside][0])
        raise DomainError(f"quantile argument must lie in (0, 1), got {bad}")
    z = _acklam(p)
    # Newton polish; the seed is already ~1e-9 accurate so one step lands at
    # the evaluation noise floor of Phi. numpy has no erfc, so it runs element
    # by element; the erfc form keeps full relative accuracy in the left tail.
    cdf = 0.5 * np.fromiter(map(math.erfc, -z / _SQRT2), np.float64, len(z))
    z -= (cdf - p) / (_INV_SQRT_TWO_PI * np.exp(-0.5 * z * z))
    return z

