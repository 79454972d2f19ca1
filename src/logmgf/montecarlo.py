"""Seeded Monte Carlo estimator of the lognormal MGF.

Sampling is partitioned into blocks of _BLOCK draws, each drawing from its
own deterministic sub-stream keyed by (seed, block index). Each block is
evaluated in pieces of _PIECE draws, and the piece sums are combined with
math.fsum, which rounds the exact total once, so a fixed configuration gives
bit-identical results run to run, whatever the machine or the call order.
The second moment is accumulated around the first piece's mean to dodge
cancellation at large sample counts.

A block's normals depend on (seed, block index, block size) alone, not on the
query, so they are cached per that key: one block is held (8 MiB at the full
block size), read-only, and a call that repeats the key, e.g. every query at
the default 10^6 samples and seed 0, draws nothing. The pieces run one after
another in one reused buffer of 512 KiB, which stays in cache, in the order of
the out-of-place expression exp(theta * exp(mu + sigma * x)) and with the same
roundings.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, DomainError
from .gaussian import RngSeed
from .types import Method, MgfEstimate, MgfQuery

_BLOCK = 1 << 20  # draws per sub-stream; another size draws other streams
_PIECE = 1 << 16  # draws evaluated at once: a 512 KiB buffer fits in L2


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 1_000_000
    seed: RngSeed = field(default_factory=lambda: RngSeed(0))

    def __post_init__(self):
        if self.n_samples < 1_000:
            raise DomainError(
                f"n_samples must be >= 1000 for a meaningful standard error, "
                f"got {self.n_samples}"
            )


@functools.lru_cache(maxsize=1)
def _normals(seed: RngSeed, block: int, size: int) -> np.ndarray:
    """The read-only standard normals of one block: sub-stream `block` of seed."""
    x = seed.substream(block).standard_normal(size)
    x.flags.writeable = False
    return x


def mgf_monte_carlo(q: MgfQuery, cfg: McConfig | None = None) -> MgfEstimate:
    """Average of exp(theta * e^x) over n_samples Gaussian draws.

    For theta > 0 the population mean is infinite; a draw overflowing the
    float range aborts with DivergenceError (an OverflowError) carrying the
    block index, rather than silently truncating.
    """
    cfg = cfg or McConfig()
    n = cfg.n_samples
    if q.theta == 0.0:
        # every summand is exactly 1, so this is what the blocks would give;
        # drawing them could also turn an overflowing e^x into 0 * inf = nan
        n_blocks = float(math.ceil(n / _BLOCK))
        return MgfEstimate(
            1.0,
            Method.MONTE_CARLO,
            {"std_error": 0.0, "n_samples": float(n), "n_batches": n_blocks},
        )
    piece_sums = []
    piece_sqs = []
    shift = None
    n_blocks = 0
    done = 0
    beyond = f"theta={q.theta!r} is beyond the finite-sample regime"
    buf = np.empty(min(_PIECE, n))
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n:
            size = min(_BLOCK, n - done)
            x = _normals(cfg.seed, n_blocks, size)
            for start in range(0, size, _PIECE):
                f = buf[: min(_PIECE, size - start)]
                # x * sigma + mu rounds as mu + sigma * x does: both ops commute
                np.multiply(x[start : start + len(f)], q.sigma, out=f)
                f += q.mu
                np.exp(f, out=f)
                f *= q.theta
                np.exp(f, out=f)
                if shift is None:
                    shift = float(f.mean())
                f -= shift
                piece_sums.append(float(np.sum(f)))
                np.square(f, out=f)
                piece_sqs.append(float(np.sum(f)))
                # an overflowing summand or squared deviation makes this inf or nan
                if not math.isfinite(piece_sqs[-1]):
                    raise DivergenceError(
                        f"summands overflowed in block {n_blocks}; {beyond}", n_blocks
                    )
            done += size
            n_blocks += 1
    assert shift is not None
    shifted_sum = math.fsum(piece_sums)
    mean = shift + shifted_sum / n
    try:
        var = (math.fsum(piece_sqs) - shifted_sum**2 / n) / (n - 1)
    except OverflowError as exc:
        raise DivergenceError(
            f"the sample variance overflowed; {beyond}", n_blocks - 1
        ) from exc
    var = max(var, 0.0)
    return MgfEstimate(
        value=mean,
        method=Method.MONTE_CARLO,
        diagnostics={
            "std_error": math.sqrt(var / n),
            "n_samples": float(n),
            "n_batches": float(n_blocks),
        },
    )
