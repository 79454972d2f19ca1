"""Seeded Monte Carlo estimator of the lognormal MGF.

Sampling is partitioned into blocks of _BLOCK draws, each drawing from its
own deterministic sub-stream keyed by (seed, block index). Each block is
evaluated in pieces of _PIECE draws, and the piece sums are combined with
math.fsum, which rounds the exact total once, so a fixed configuration gives
bit-identical results run to run, whatever the machine, the call order or
which thread evaluated a piece. The second moment is accumulated around the
first piece's mean to dodge cancellation at large sample counts.

A block's normals depend on (seed, block index, block size) alone, not on the
query. The first sight of a key keeps nothing: the caller draws the block's
sub-stream piece by piece into a 512 KiB buffer and evaluates each piece in
place. Only when the next block asked for repeats the key is the block drawn
whole (8 MiB at the full block size) and kept, read-only, in the one slot;
from then on a call with that key, e.g. every query at the default 10^6
samples and seed 0, draws nothing. So a one-shot process such as `logmgf
compute` never holds the 8 MiB, nor more than one piece of it at a time, and a
repeated key is drawn twice, streamed and then whole. Only the key
streamed last is remembered, so a call of several blocks streams every one.
The elementwise steps run in the order of the out-of-place expression
exp(theta * exp(mu + sigma * x)) and with the same roundings, in place in a
reused buffer, so a piece's sums do not depend on whether its normals were
streamed or kept.

Where more than one CPU is usable, the helper, a job on the process's worker
pool, shares the pieces of a kept block; the pool keeps one thread fewer than
those CPUs, so on two, back-to-back calls queue their helpers on one thread.
The caller submits _help with a weak reference to the block, and then caller
and helper alike claim the next unclaimed piece, one at a time, and evaluate
it in their own kept buffer of one piece. The caller never waits for the
helper, but evaluates any piece the helper has claimed and not yet stored, so
a stalled, failing or refused helper (the pool refuses jobs once the
interpreter is shutting down) costs only time, and a job whose caller has
returned claims nothing and keeps nothing alive. A streamed block is drawn in
the order its pieces are claimed, so its caller evaluates it alone: on one
usable CPU, or before a key repeats, no helper job is submitted.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, DomainError, _config, _index, _instance
from .gaussian import _STREAMS, RngSeed, _pool, _usable_cpus
from .types import Method, MgfEstimate, MgfQuery

_BLOCK = 1 << 20  # draws per sub-stream; another size draws other streams
_PIECE = 1 << 16  # draws per partial sum: a 512 KiB buffer fits in L2


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 1_000_000
    seed: RngSeed = field(default_factory=lambda: RngSeed(0))

    def __post_init__(self):
        if not isinstance(self.seed, RngSeed):
            raise DomainError(f"seed must be an RngSeed, got {self.seed!r}")
        if _index("n_samples", self.n_samples) < 1_000:
            raise DomainError(
                f"n_samples must be >= 1000 for a meaningful standard error, "
                f"got {self.n_samples}"
            )
        if self.n_samples > _BLOCK * _STREAMS:  # one sub-stream per block
            raise DomainError(
                f"n_samples must be <= 2^32 blocks of {_BLOCK}, got {self.n_samples}"
            )


_kept = None  # (key, read-only normals) of the one block kept
_streamed = None  # the key of the block streamed last


def _normals(seed: RngSeed, block: int, size: int) -> np.ndarray | np.random.Generator:
    """The standard normals of one block, sub-stream `block` of seed.

    The kept read-only block if its key is kept, or drawn whole and kept if
    the block streamed last had this key; otherwise the sub-stream itself,
    from which the caller draws piece by piece, keeping nothing. Each global
    is replaced in one assignment: racing callers may redraw, never differ.
    """
    global _kept, _streamed
    key = (seed, block, size)
    kept = _kept
    if kept is not None and kept[0] == key:
        return kept[1]
    rng = seed.substream(block)
    if _streamed != key:
        _streamed = key
        return rng
    x = rng.standard_normal(size)
    x.flags.writeable = False
    _kept = key, x
    return x


class _Block:
    """The pieces of one block, claimed one at a time, in order, from one cursor.

    Caller and helper each claim the next unclaimed piece, so when the pieces
    run out the helper is evaluating at most one that the caller may find
    unstored.
    """

    def __init__(self, x: np.ndarray | np.random.Generator, size: int, q: MgfQuery,
                 shift: float | None):
        self.x, self.size, self.q, self.shift = x, size, q, shift
        # moments[i] is piece i's (sum, sum of squares), stored in one
        # assignment, so a reader sees all of a piece or none of it
        self.moments: list[tuple[float, float] | None] = [None] * -(-size // _PIECE)
        self._claims = threading.Lock()
        self._next = 0  # the first piece not yet claimed
        if shift is None:  # piece 0 alone fixes the shift before the pieces are shared
            self.evaluate(0)
            self._next = 1

    def evaluate(self, i: int) -> None:
        """Store the moments of piece i about the shift, in the thread's buffer.

        Without a shift, the piece sets it to its mean. A streamed block
        draws the piece's normals here: its caller alone claims them, front
        to back, so they are drawn in stream order.
        """
        lo = i * _PIECE
        buf = getattr(_buffers, "buf", None)
        if buf is None:
            buf = _buffers.buf = np.empty(_PIECE)
        f = buf[: min(_PIECE, self.size - lo)]
        q = self.q
        # x * sigma + mu rounds as mu + sigma * x does: both ops commute
        if isinstance(self.x, np.ndarray):
            np.multiply(self.x[lo : lo + len(f)], q.sigma, out=f)
        else:
            self.x.standard_normal(out=f)
            f *= q.sigma
        f += q.mu
        np.exp(f, out=f)
        f *= q.theta
        np.exp(f, out=f)
        if self.shift is None:
            self.shift = float(f.mean())
        f -= self.shift
        total = float(np.sum(f))
        np.square(f, out=f)
        self.moments[i] = total, float(np.sum(f))

    def run(self) -> None:
        """Claim the next piece and evaluate it until none is left."""
        while True:
            with self._claims:
                i = self._next
                if i == len(self.moments):
                    return
                self._next = i + 1
            self.evaluate(i)


_buffers = threading.local()  # each thread's buffer of one piece, kept


def _help(ref: weakref.ref) -> None:
    block = ref()  # None once its caller has returned; an exception stays in the unread future
    if block is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # the state is per thread
            block.run()


def mgf_monte_carlo(q: MgfQuery, cfg: McConfig | None = None) -> MgfEstimate:
    """Average of exp(theta * e^x) over n_samples Gaussian draws.

    For theta > 0 the population mean is infinite; a draw overflowing the
    float range aborts with DivergenceError (an OverflowError) carrying the
    block index, rather than silently truncating.
    """
    _instance("q", q, MgfQuery)
    cfg = _config(cfg, McConfig)
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
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n:
            size = min(_BLOCK, n - done)
            x = _normals(cfg.seed, n_blocks, size)
            block = _Block(x, size, q, shift)
            shift = block.shift
            # a streamed block's pieces are drawn as claimed: its caller claims them all
            if isinstance(x, np.ndarray) and len(block.moments) > 1 and _usable_cpus() > 1:
                try:
                    _pool().submit(_help, weakref.ref(block))
                except RuntimeError:  # the interpreter is shutting down
                    pass
            block.run()
            for i, moments in enumerate(block.moments):
                if moments is None:  # claimed by the helper, not yet stored
                    block.evaluate(i)
            for total, squares in block.moments:
                piece_sums.append(total)
                piece_sqs.append(squares)
                # an overflowing summand or squared deviation makes this inf or nan
                if not math.isfinite(squares):
                    raise DivergenceError(
                        f"summands overflowed in block {n_blocks}; {beyond}", n_blocks
                    )
            done += size
            n_blocks += 1
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
