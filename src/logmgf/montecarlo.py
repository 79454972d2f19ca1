"""Seeded Monte Carlo estimator of the lognormal MGF.

Sampling is partitioned into blocks of _BLOCK draws, each drawing from its
own deterministic sub-stream keyed by (seed, block index). Block sums are
combined with math.fsum, which rounds the exact total once, so a fixed
configuration gives bit-identical results run to run. The second moment is
accumulated around the first block's mean to dodge cancellation at large
sample counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, DomainError
from .gaussian import RngSeed
from .types import Method, MgfEstimate, MgfQuery

_BLOCK = 1 << 20  # draws per sub-stream; another size draws other streams


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
    block_sums = []
    block_sqs = []
    shift = None
    n_blocks = 0
    done = 0
    beyond = f"theta={q.theta!r} is beyond the finite-sample regime"
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n:
            size = min(_BLOCK, n - done)
            gen = cfg.seed.substream(n_blocks)
            x = gen.standard_normal(size)
            f = np.exp(q.theta * np.exp(q.mu + q.sigma * x))
            if shift is None:
                shift = float(f.mean())
            d = f - shift
            block_sums.append(float(np.sum(d)))
            block_sqs.append(float(np.sum(d * d)))
            # an overflowing summand or squared deviation makes this inf or nan
            if not math.isfinite(block_sqs[-1]):
                raise DivergenceError(
                    f"summands overflowed in block {n_blocks}; {beyond}", n_blocks
                )
            done += size
            n_blocks += 1
    assert shift is not None
    shifted_sum = math.fsum(block_sums)
    mean = shift + shifted_sum / n
    try:
        var = (math.fsum(block_sqs) - shifted_sum**2 / n) / (n - 1)
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
