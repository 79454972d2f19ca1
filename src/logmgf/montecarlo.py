"""Seeded Monte Carlo estimator of the lognormal MGF.

Sampling is partitioned into fixed-size blocks, each drawing from its own
deterministic sub-stream keyed by (seed, block index). Block sums are
combined with math.fsum, which rounds the exact total once, so a fixed
configuration gives bit-identical results run to run. The second moment is
accumulated around the first block's mean to dodge cancellation at large
sample counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .gaussian import RngSeed
from .types import Method, MgfEstimate, MgfQuery


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 1_000_000
    seed: RngSeed = field(default_factory=lambda: RngSeed(0))
    batch: int = 1_048_576

    def __post_init__(self):
        if self.n_samples < 1_000:
            raise DomainError(
                f"n_samples must be >= 1000 for a meaningful standard error, "
                f"got {self.n_samples}"
            )
        if self.batch < 1:
            raise DomainError(f"batch must be positive, got {self.batch}")


def mgf_monte_carlo(q: MgfQuery, cfg: McConfig | None = None) -> MgfEstimate:
    """Average of exp(theta * e^x) over n_samples Gaussian draws.

    For theta > 0 the population mean is infinite; a draw overflowing the
    float range aborts with OverflowError rather than silently truncating.
    """
    cfg = cfg or McConfig()
    n = cfg.n_samples
    block_sums = []
    block_sqs = []
    shift = None
    n_blocks = 0
    done = 0
    with np.errstate(over="ignore"):
        while done < n:
            size = min(cfg.batch, n - done)
            gen = cfg.seed.substream(n_blocks)
            x = gen.standard_normal(size)
            f = np.exp(q.theta * np.exp(q.mu + q.sigma * x))
            if not np.isfinite(f).all():
                bad = int(np.count_nonzero(~np.isfinite(f)))
                raise OverflowError(
                    f"{bad} summand(s) overflowed in block {n_blocks}; "
                    f"theta={q.theta!r} is beyond the finite-sample regime"
                )
            if shift is None:
                shift = float(f.mean())
            d = f - shift
            block_sums.append(float(np.sum(d)))
            block_sqs.append(float(np.sum(d * d)))
            done += size
            n_blocks += 1
    assert shift is not None
    shifted_sum = math.fsum(block_sums)
    mean = shift + shifted_sum / n
    var = (math.fsum(block_sqs) - shifted_sum**2 / n) / (n - 1)
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
