"""Seeded Monte Carlo estimator of the lognormal MGF.

Sampling is partitioned into blocks of _BLOCK draws, each drawing from its
own deterministic sub-stream keyed by (seed, block index). Each block is
evaluated in pieces of _PIECE draws, and the piece sums are combined with
math.fsum, which rounds the exact total once, so a fixed configuration gives
bit-identical results run to run, whatever the machine, the call order or
which thread evaluated a piece. The second moment is accumulated around the
first piece's mean to dodge cancellation at large sample counts.

A block's normals depend on (seed, block index, block size) alone, not on the
query, so they are cached per that key: one block is held (8 MiB at the full
block size), read-only, and a call that repeats the key, e.g. every query at
the default 10^6 samples and seed 0, draws nothing. The elementwise steps run
in the order of the out-of-place expression exp(theta * exp(mu + sigma * x))
and with the same roundings, in place in a reused buffer, so a piece's sums do
not depend on how many pieces one numpy call covers.

Where more than one CPU is usable, one daemon helper thread per process shares
the pieces of a block. The caller posts the block; then it claims spans of
_SPAN pieces from the front, in a 2 MiB buffer that each calling thread keeps,
while the helper claims single pieces from the back in its own 512 KiB buffer.
The caller never waits for the helper: when the claims meet, it evaluates any
piece the helper has claimed but not yet stored itself, from the same inputs
and so to the same floats. A stalled or failing helper therefore costs only
the time of its pieces. On one usable CPU no helper starts and the caller
claims every piece.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, DomainError
from .gaussian import RngSeed
from .types import Method, MgfEstimate, MgfQuery

_BLOCK = 1 << 20  # draws per sub-stream; another size draws other streams
_PIECE = 1 << 16  # draws per partial sum: a 512 KiB buffer fits in L2
_SPAN = 4  # pieces the caller evaluates at once, in a 2 MiB buffer


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


class _Block:
    """The pieces of one block, claimed from both ends.

    The caller claims spans of up to _SPAN pieces from the front and the
    helper single pieces from the back, so when the claims meet at most one
    of the helper's pieces is still being evaluated. A span is evaluated with
    one numpy call per step, and each call hands the interpreter lock over
    at most twice: the fewer the caller makes, the less often it sleeps until
    the helper lets go of the lock.
    """

    def __init__(self, x: np.ndarray, q: MgfQuery, shift: float | None):
        self.x, self.q, self.shift = x, q, shift
        n_pieces = -(-len(x) // _PIECE)
        # moments[i] is piece i's (sum, sum of squares), stored in one
        # assignment, so a reader sees all of a piece or none of it
        self.moments: list[tuple[float, float] | None] = [None] * n_pieces
        self._claims = threading.Lock()
        self._front, self._back = 0, n_pieces  # pieces not yet claimed

    def evaluate(self, start: int, stop: int, buf: np.ndarray) -> None:
        """Store the moments of pieces start..stop-1 about the shift.

        Without a shift, the one piece evaluated sets it to its mean.
        """
        x = self.x[start * _PIECE : stop * _PIECE]
        f = buf[: len(x)]
        q = self.q
        # x * sigma + mu rounds as mu + sigma * x does: both ops commute
        np.multiply(x, q.sigma, out=f)
        f += q.mu
        np.exp(f, out=f)
        f *= q.theta
        np.exp(f, out=f)
        if self.shift is None:
            self.shift = float(f.mean())
        f -= self.shift
        sums = _piece_sums(f)
        np.square(f, out=f)
        for i, moments in enumerate(zip(sums, _piece_sums(f)), start):
            self.moments[i] = moments

    def claim_front(self, span: int) -> tuple[int, int]:
        """Claim up to span pieces from the front; start == stop if none is left."""
        with self._claims:
            start = self._front
            self._front = stop = min(start + span, self._back)
        return start, stop

    def run_front(self, buf: np.ndarray) -> None:
        """Claim and evaluate spans that fill buf until none is left to claim."""
        span = max(1, len(buf) // _PIECE)
        while True:
            start, stop = self.claim_front(span)
            if start == stop:
                return
            self.evaluate(start, stop, buf)

    def run_back(self, buf: np.ndarray) -> None:
        """Claim and evaluate single pieces until none is left to claim."""
        while True:
            with self._claims:
                if self._back <= self._front:
                    return
                self._back -= 1
                i = self._back
            self.evaluate(i, i + 1, buf)


def _piece_sums(f: np.ndarray) -> list[float]:
    """np.sum of each _PIECE-long slice of f: a row sum adds as a 1-D sum does."""
    whole = len(f) - len(f) % _PIECE
    sums = f[:whole].reshape(-1, _PIECE).sum(axis=1).tolist()
    if whole < len(f):
        sums.append(float(np.sum(f[whole:])))
    return sums


_spans = threading.local()


def _span_buffer(n: int) -> np.ndarray:
    """The calling thread's span buffer, allocated on its first call and kept."""
    buf = getattr(_spans, "buf", None)
    if buf is None:
        buf = _spans.buf = np.empty(_SPAN * _PIECE)
    return buf[:n]


class _Helper:
    """A daemon thread that runs the block posted in its one job slot."""

    def __init__(self):
        self._ready = threading.Condition()
        self._job: _Block | None = None
        self._buf = np.empty(_PIECE)
        self.thread = threading.Thread(
            target=self._serve, name="logmgf-montecarlo", daemon=True
        )
        self.thread.start()

    def post(self, job: _Block) -> None:
        """Offer job, replacing any other caller's; that caller finishes alone."""
        with self._ready:
            self._job = job
            self._ready.notify()

    def withdraw(self, job: _Block) -> None:
        with self._ready:
            if self._job is job:
                self._job = None

    def _serve(self) -> None:
        # the error state is per thread; a new thread starts from the default
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                with self._ready:
                    while self._job is None:
                        self._ready.wait()
                    job, self._job = self._job, None
                try:
                    job.run_back(self._buf)
                except Exception:
                    pass  # the caller evaluates every piece left unstored, and raises
                job = None  # hold no block of normals while idle


_helper: _Helper | None = None
_starting = threading.Lock()


def _helper_for(n_pieces: int) -> _Helper | None:
    """The process's helper, started on first need; None if it cannot help."""
    global _helper
    if n_pieces < 2:
        return None
    if _helper is None:
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        if cpus > 1:
            with _starting:
                if _helper is None:
                    _helper = _Helper()
    return _helper


def _forget_helper() -> None:
    # a forked child has no helper thread, and a lock may have been held at the fork
    global _helper, _starting
    _helper, _starting = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


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
    buf = _span_buffer(n)
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n:
            size = min(_BLOCK, n - done)
            block = _Block(_normals(cfg.seed, n_blocks, size), q, shift)
            if shift is None:
                # piece 0 alone fixes the shift before the pieces are shared
                block.evaluate(*block.claim_front(1), buf)
                shift = block.shift
            helper = _helper_for(len(block.moments))
            if helper is not None:
                helper.post(block)
            try:
                block.run_front(buf)
            finally:
                if helper is not None:
                    helper.withdraw(block)
            for i, moments in enumerate(block.moments):
                if moments is None:  # claimed by the helper, not yet stored
                    block.evaluate(i, i + 1, buf)
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
