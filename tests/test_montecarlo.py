import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from numpy.random import PCG64, Generator, SeedSequence

import logmgf.gaussian as gaussian
import logmgf.montecarlo as mc
from logmgf import (
    DivergenceError,
    DomainError,
    McConfig,
    MgfQuery,
    RngSeed,
    mgf_monte_carlo,
    mgf_thintile,
)


def test_config_validation():
    with pytest.raises(DomainError):
        McConfig(n_samples=100)
    # block b's sub-stream key needs b < 2^32
    assert McConfig(n_samples=mc._BLOCK << 32).n_samples == 2**52
    with pytest.raises(DomainError, match="2\\^32 blocks"):
        McConfig(n_samples=(mc._BLOCK << 32) + 1)


def test_theta_zero_exact():
    est = mgf_monte_carlo(MgfQuery(0.0, 1.0, 0.0), McConfig(n_samples=10_000))
    assert est.value == 1.0
    assert est.diagnostics["std_error"] == 0.0


def test_bit_identical_determinism(monkeypatch):
    monkeypatch.setattr(mc, "_BLOCK", 16_384)  # four blocks, the last partial
    cfg = McConfig(n_samples=50_000, seed=RngSeed(9))
    q = MgfQuery(0.0, 0.0625, -1.0)
    a = mgf_monte_carlo(q, cfg)
    b = mgf_monte_carlo(q, cfg)
    assert a.value == b.value
    assert a.diagnostics == b.diagnostics
    assert a.diagnostics["n_batches"] == 4.0


def test_batch_partition_does_not_change_oracle_band(monkeypatch):
    # different block sizes draw different streams; both must sit inside the
    # sampling band around the tile value
    q = MgfQuery(0.0, 0.0625, -1.0)
    target = mgf_thintile(q).value
    for block in (8_192, mc._BLOCK):
        monkeypatch.setattr(mc, "_BLOCK", block)
        est = mgf_monte_carlo(q, McConfig(n_samples=200_000, seed=RngSeed(13)))
        assert abs(est.value - target) <= 4.0 * est.diagnostics["std_error"]


def test_published_row_within_sampling_error():
    est = mgf_monte_carlo(
        MgfQuery(0.0, 0.0625, -1.0),
        McConfig(n_samples=10_000_000, seed=RngSeed(0)),
    )
    se = est.diagnostics["std_error"]
    assert abs(est.value - 0.367884) <= 4.0 * se
    est3 = mgf_monte_carlo(
        MgfQuery(0.0, 1.0, -2.0),
        McConfig(n_samples=10_000_000, seed=RngSeed(0)),
    )
    assert abs(est3.value - 0.216326) <= 4.0 * est3.diagnostics["std_error"]


def test_error_non_increasing_with_sample_growth():
    q = MgfQuery(0.0, 0.0625, -1.0)
    target = mgf_thintile(q).value
    errs = {}
    ses = {}
    for n in (10_000, 100_000, 1_000_000):
        est = mgf_monte_carlo(q, McConfig(n_samples=n, seed=RngSeed(5)))
        errs[n] = abs(est.value - target)
        ses[n] = est.diagnostics["std_error"]
    assert errs[100_000] <= errs[10_000] + 2.0 * ses[10_000]
    assert errs[1_000_000] <= errs[100_000] + 2.0 * ses[100_000]


def test_standard_error_calibration():
    q = MgfQuery(0.0, 0.0625, -1.0)
    estimates = []
    reported = []
    for seed in range(100):
        est = mgf_monte_carlo(q, McConfig(n_samples=10_000, seed=RngSeed(seed)))
        estimates.append(est.value)
        reported.append(est.diagnostics["std_error"])
    spread = float(np.std(estimates, ddof=1))
    mean_se = float(np.mean(reported))
    assert 0.7 * mean_se <= spread <= 1.3 * mean_se


def test_positive_theta_overflow_aborts():
    with pytest.raises(OverflowError) as exc_info:
        mgf_monte_carlo(
            MgfQuery(0.0, 3.0, 1.0), McConfig(n_samples=10_000, seed=RngSeed(2))
        )
    assert isinstance(exc_info.value, DivergenceError)
    assert exc_info.value.step == 0  # the block that overflowed


def reference_monte_carlo(q, n, seed, block, piece=None):
    """The estimator written out of place, one fresh generator per block.

    Each block is summed whole, or in slices of `piece` draws with the shift
    taken from the first slice. Returns (value, std_error), or the block index
    of the first overflow.
    """
    sums, sqs, shift = [], [], None
    with np.errstate(over="ignore", invalid="ignore"):
        for b, start in enumerate(range(0, n, block)):
            x = Generator(PCG64(SeedSequence((seed, b)))).standard_normal(
                min(block, n - start)
            )
            f = np.exp(q.theta * np.exp(q.mu + q.sigma * x))
            for s in range(0, len(f), piece or len(f)):
                part = f[s : s + (piece or len(f))]
                if shift is None:
                    shift = float(part.mean())
                d = part - shift
                sums.append(float(np.sum(d)))
                sqs.append(float(np.sum(d * d)))
            if not all(math.isfinite(v) for v in sqs):
                return b
    total = math.fsum(sums)
    var = max((math.fsum(sqs) - total**2 / n) / (n - 1), 0.0)
    return shift + total / n, math.sqrt(var / n)


def see(monkeypatch, sight):
    """Forget every block key, then serve each block as `sight` says.

    "first sight" streams every block. "kept" asks for each key twice, so
    every block is drawn whole and kept before it is evaluated: a call that
    repeats a one-block key finds it so, but one of several blocks never
    does, since only the key streamed last is remembered.
    """
    monkeypatch.setattr(mc, "_kept", None)
    monkeypatch.setattr(mc, "_streamed", None)
    if sight == "kept":
        normals = mc._normals

        def kept(seed, block, size):
            normals(seed, block, size)
            x = normals(seed, block, size)
            assert isinstance(x, np.ndarray) and not x.flags.writeable
            return x

        monkeypatch.setattr(mc, "_normals", kept)


SIGHTS = ["first sight", "kept"]


@pytest.mark.parametrize("sight", SIGHTS)
@pytest.mark.parametrize("n_blocks", [1, 3])
@pytest.mark.parametrize(
    "q", [MgfQuery(0.0, 1.0, -2.0), MgfQuery(0.3, 0.7, -5.5), MgfQuery(-0.2, 0.1, 0.4)]
)
def test_cached_in_place_blocks_equal_the_reference(monkeypatch, q, n_blocks, sight):
    block = 20_000
    monkeypatch.setattr(mc, "_BLOCK", block)
    see(monkeypatch, sight)
    n = block * n_blocks - 7_000  # the last block is partial
    est = mgf_monte_carlo(q, McConfig(n_samples=n, seed=RngSeed(11)))
    assert (est.value, est.diagnostics["std_error"]) == reference_monte_carlo(
        q, n, 11, block
    )
    assert est.diagnostics["n_batches"] == float(n_blocks)


@pytest.mark.parametrize("sharing", ["streamed", "kept alone", "kept with the helper"])
@pytest.mark.parametrize("block", [mc._PIECE + 1, 9 * mc._PIECE + 5])
def test_claimed_pieces_equal_the_per_piece_reference(monkeypatch, block, sharing):
    # pieces claimed one at a time by the caller and the helper, a partial
    # last piece in every block and a partial last block
    monkeypatch.setattr(mc, "_BLOCK", block)
    see(monkeypatch, "first sight" if sharing == "streamed" else "kept")
    if sharing == "kept alone":
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 1)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    q = MgfQuery(0.3, 0.7, -5.5)
    n = 2 * block + 3 * mc._PIECE + 17
    est = mgf_monte_carlo(q, McConfig(n_samples=n, seed=RngSeed(17)))
    assert (est.value, est.diagnostics["std_error"]) == reference_monte_carlo(
        q, n, 17, block, piece=mc._PIECE
    )


@pytest.mark.parametrize(
    "n", [1, mc._PIECE - 1, mc._PIECE, mc._PIECE + 1, 4 * mc._PIECE - 3, 4 * mc._PIECE]
)
def test_piece_sums_equal_the_sum_of_each_slice(n):
    # a piece's two sums are np.sum of its 1-D slice about the shift; the
    # end-to-end values cannot show this, since fsum and the division by n
    # hide an ulp
    q = MgfQuery(0.0, 1.0, 0.4)
    x = np.random.default_rng(n).standard_normal(n)
    block = mc._Block(x, n, q, None)
    block.run()
    f = np.exp(q.theta * np.exp(q.mu + q.sigma * x))
    shift = float(f[: mc._PIECE].mean())
    want = []
    for s in range(0, n, mc._PIECE):
        d = f[s : s + mc._PIECE] - shift
        want.append((float(np.sum(d)), float(np.sum(d * d))))
    assert block.shift == shift
    assert block.moments == want


@pytest.mark.parametrize("block", [mc._PIECE // 4 + 3, 3 * mc._PIECE // 2 + 5])
def test_pieces_stay_within_two_ulp_of_whole_blocks(monkeypatch, block):
    # a block shorter than a piece is one piece; a longer one that is not a
    # multiple of it ends in a partial piece. The reference shifts by the
    # first block's mean and sums each block whole
    monkeypatch.setattr(mc, "_BLOCK", block)
    q = MgfQuery(0.3, 0.7, -5.5)
    n = 3 * block - 1_000
    cfg = McConfig(n_samples=n, seed=RngSeed(21))
    a, b = mgf_monte_carlo(q, cfg), mgf_monte_carlo(q, cfg)
    assert (a.value, a.diagnostics) == (b.value, b.diagnostics)
    value, std_error = reference_monte_carlo(q, n, 21, block)
    assert abs(a.value - value) <= 2.0 * math.ulp(value)
    assert abs(a.diagnostics["std_error"] - std_error) <= 2.0 * math.ulp(std_error)


def test_a_warm_call_allocates_no_block_sized_buffer(monkeypatch):
    # the first sight streams its draws through the piece buffer, the second
    # draws the block's 8 MiB of normals and keeps them, the third draws nothing
    see(monkeypatch, "first sight")
    q, cfg = MgfQuery(0.0, 1.0, -2.0), McConfig(n_samples=1_000_000)
    mgf_monte_carlo(q, McConfig(n_samples=1_000_000, seed=RngSeed(1)))  # the piece buffer
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            mgf_monte_carlo(q, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1 << 20 and peaks[2] < 1 << 20
    assert peaks[1] >= 8 * 1_000_000


def test_a_first_sight_holds_one_piece_of_draws(monkeypatch):
    # a fresh thread has no buffer yet: streaming a block needs one piece of
    # it, and evaluating a kept block needs no more
    see(monkeypatch, "first sight")
    q = MgfQuery(0.0, 1.0, -2.0)
    mgf_monte_carlo(q, McConfig(n_samples=1_000_000, seed=RngSeed(8)))  # imports, untraced
    cfg = McConfig(n_samples=1_000_000, seed=RngSeed(7))
    seen = []

    def fresh_thread():
        tracemalloc.start()
        try:
            mgf_monte_carlo(q, cfg)
            seen.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        seen.append(len(mc._buffers.buf))
        mgf_monte_carlo(q, cfg)  # keeps the block
        seen.append(len(mc._buffers.buf))

    thread = threading.Thread(target=fresh_thread)
    thread.start()
    thread.join()
    # 517 KiB, where a 2 MiB span buffer peaked at 2,053 KiB
    assert seen[0] < 1 << 20
    assert seen[1:] == [mc._PIECE, mc._PIECE]


# (value, std_error) in hex, as the estimator gave them when every thread
# evaluated in a 2 MiB span buffer: the buffer's size must not move a bit
PINNED = [
    (MgfQuery(0.0, 1.0, -2.0), 1_000_000, 0, "0x1.bab03a7f4aa1bp-3", "0x1.dade41d16fbacp-13"),
    (MgfQuery(-0.2, 0.1, 0.4), 70_001, 5, "0x1.6400b573f2aaep+0", "0x1.6d16d0e0ce55cp-13"),
    (MgfQuery(0.3, 0.7, -5.5), 2_500_000, 3, "0x1.13991935cc6afp-6", "0x1.dd99a7d562724p-16"),
]


@pytest.mark.parametrize("q, n, seed, value, std_error", PINNED)
def test_streamed_kept_and_hit_calls_keep_their_bits(monkeypatch, q, n, seed, value,
                                                      std_error):
    # a one-block key is streamed, then kept, then hit; three blocks stream thrice
    see(monkeypatch, "first sight")
    cfg = McConfig(n_samples=n, seed=RngSeed(seed))
    for _ in range(3):
        est = mgf_monte_carlo(q, cfg)
        assert (est.value.hex(), est.diagnostics["std_error"].hex()) == (value, std_error)
    assert (mc._kept is not None and mc._kept[0] == (cfg.seed, 0, n)) == (n <= mc._BLOCK)


def test_cold_cache_equals_warm_and_holds_one_read_only_block(monkeypatch):
    see(monkeypatch, "first sight")
    q = MgfQuery(0.0, 1.0, -2.0)
    cfg = McConfig(n_samples=10_000, seed=RngSeed(4))
    first = mgf_monte_carlo(q, cfg)
    assert mc._kept is None  # a first sight keeps nothing
    second = mgf_monte_carlo(q, cfg)
    key, x = mc._kept
    assert key == (RngSeed(4), 0, 10_000)
    third = mgf_monte_carlo(q, cfg)
    assert mc._kept[1] is x  # served from the kept block, not redrawn
    assert (first.value, first.diagnostics) == (second.value, second.diagnostics)
    assert (first.value, first.diagnostics) == (third.value, third.diagnostics)
    assert not x.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    mgf_monte_carlo(q, McConfig(n_samples=10_000, seed=RngSeed(5)))
    assert mc._kept[1] is x  # the first sight of another key keeps nothing


def test_a_fresh_process_starts_no_helper_on_its_first_call():
    # two usable CPUs, so that the second call, which keeps the block, makes
    # the pool and submits the helper, whose job starts one pool thread
    code = """if True:
        import os, threading
        os.sched_getaffinity = lambda pid: {0, 1}
        import logmgf.gaussian
        from logmgf import MgfQuery, mgf_monte_carlo
        def helpers():
            return sum(t.name.startswith("logmgf_") for t in threading.enumerate())
        q = MgfQuery(0.0, 1.0, -2.0)
        mgf_monte_carlo(q)
        first = helpers(), logmgf.gaussian._executor is None
        mgf_monte_carlo(q)
        print(*first, helpers())
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "True", "1"]


@pytest.mark.parametrize("sight", SIGHTS)
def test_overflow_block_matches_the_reference(monkeypatch, sight):
    # at sigma = 1.8 the first overflowing summand falls in block 0, 1 or 2,
    # or in none of the three, depending on the seed
    block, n = 1_024, 3_000
    monkeypatch.setattr(mc, "_BLOCK", block)
    see(monkeypatch, sight)
    q = MgfQuery(0.0, 1.8, 1.0)
    outcomes = set()
    for seed in range(8):
        want = reference_monte_carlo(q, n, seed, block)
        try:
            est = mgf_monte_carlo(q, McConfig(n_samples=n, seed=RngSeed(seed)))
            got = (est.value, est.diagnostics["std_error"])
        except DivergenceError as exc:
            got = exc.step
        assert got == want
        outcomes.add(want if isinstance(want, int) else "finite")
    assert outcomes == {0, 1, 2, "finite"}


def test_variance_overflow_raises_on_streamed_kept_and_hit_calls(monkeypatch):
    # summands near e^349: every sum of squares is finite, but the square of
    # the shifted sum is not
    see(monkeypatch, "first sight")
    q = MgfQuery(math.log(349), 0.002, 1.0)
    cfg = McConfig(n_samples=2 * mc._PIECE, seed=RngSeed(0))
    kept = []
    for _ in range(3):  # streamed, then kept, then served from the kept block
        with pytest.raises(DivergenceError) as exc_info:
            mgf_monte_carlo(q, cfg)
        assert str(exc_info.value) == (
            "the sample variance overflowed; theta=1.0 is beyond the finite-sample regime"
        )
        assert exc_info.value.step == 0
        kept.append(mc._kept)
    assert kept[0] is None
    assert kept[1][0] == (cfg.seed, 0, cfg.n_samples) and kept[2] is kept[1]


def serial(q, cfg):
    """(value, diagnostics) on one usable CPU: no helper, the caller evaluates every piece."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "_usable_cpus", lambda: 1)
        est = mgf_monte_carlo(q, cfg)
    return est.value, est.diagnostics


def keep(q, cfg):
    """serial(q, cfg), after which cfg's one block is kept: the next call
    shares it with the helper, which a first sight would not."""
    want = serial(q, cfg)
    assert serial(q, cfg) == want
    assert mc._kept[0] == (cfg.seed, 0, cfg.n_samples)
    return want


def helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("logmgf_")]


@pytest.fixture
def fresh_pool(monkeypatch):
    """No worker pool yet, as in a fresh process; a pool the test makes is shut down after it."""
    monkeypatch.setattr(gaussian, "_executor", None)
    yield
    if gaussian._executor is not None:
        gaussian._executor.shutdown()


@pytest.fixture
def helper(monkeypatch):
    """The thread that runs every helper job: the one thread of a pool that
    stands in for the process's, with two usable CPUs whatever the machine.
    Found by submitting a helper job that records its thread."""
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pool = ThreadPoolExecutor(1, thread_name_prefix="logmgf")
    monkeypatch.setattr(gaussian, "_executor", pool)
    served = queue.SimpleQueue()

    class Probe:  # run as a block is
        def run(self):
            served.put(threading.current_thread())

    probe = Probe()
    try:
        gaussian._pool().submit(mc._help, weakref.ref(probe))
        thread = served.get(timeout=10)
        assert thread is not threading.current_thread()
        assert thread in helper_threads() and thread.is_alive()
        yield thread
    finally:
        pool.shutdown()


def make_the_helper_take_a_piece(monkeypatch, helper, in_helper):
    """Patch _Block: the caller's claims, which follow the shift piece,
    wait (10 s at most) until the helper has claimed a piece, and in_helper
    evaluates each piece the helper claims."""
    evaluate, run = mc._Block.evaluate, mc._Block.run
    claimed = threading.Event()

    def helper_evaluate(block, i):
        if threading.current_thread() is not helper:
            return evaluate(block, i)
        claimed.set()
        in_helper(evaluate, block, i)

    def caller_run(block):
        if threading.current_thread() is not helper:
            claimed.wait(10)
        return run(block)

    monkeypatch.setattr(mc._Block, "evaluate", helper_evaluate)
    monkeypatch.setattr(mc._Block, "run", caller_run)
    return claimed


def test_a_stalled_helper_never_delays_the_call(monkeypatch, helper):
    # the helper claims a piece and then stalls until the call has returned;
    # a caller that waited for it would hang until the helper's wait timed out
    q = MgfQuery(0.3, 0.7, -5.5)
    cfg = McConfig(n_samples=5 * mc._PIECE + 123, seed=RngSeed(31))
    want = keep(q, cfg)
    returned, woke = threading.Event(), []

    def stall(real, block, i):
        woke.append(returned.wait(10))
        real(block, i)

    claimed = make_the_helper_take_a_piece(monkeypatch, helper, stall)
    est = mgf_monte_carlo(q, cfg)
    returned.set()
    assert claimed.is_set()
    assert (est.value, est.diagnostics) == want
    deadline = time.monotonic() + 10
    while not woke and time.monotonic() < deadline:
        time.sleep(0.01)
    assert woke == [True]  # the call returned while the helper still held its piece


def test_a_queued_job_keeps_no_block_alive_after_its_call(monkeypatch, helper):
    # the helper stalls on a piece of the first call's block; the second
    # call's job waits behind it, and its block must die when the call returns
    q = MgfQuery(0.3, 0.7, -5.5)
    cfg = McConfig(n_samples=3 * mc._PIECE + 11, seed=RngSeed(23))
    want = keep(q, cfg)
    blocks, returned, woke = [], threading.Event(), []

    class Recorded(mc._Block):
        def __init__(self, *args):
            super().__init__(*args)
            blocks.append(weakref.ref(self))

    def stall(real, block, i):
        woke.append(returned.wait(10))
        real(block, i)

    monkeypatch.setattr(mc, "_Block", Recorded)
    claimed = make_the_helper_take_a_piece(monkeypatch, helper, stall)
    got = [mgf_monte_carlo(q, cfg) for _ in range(2)]
    try:
        assert claimed.is_set() and not woke  # the helper is still stalled
        assert len(blocks) == 2 and blocks[1]() is None
    finally:
        returned.set()
    assert [(est.value, est.diagnostics) for est in got] == [want, want]
    deadline = time.monotonic() + 10
    while blocks[0]() is not None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert woke == [True] and blocks[0]() is None  # released, the helper lets it go


def test_racing_first_calls_make_exactly_one_pool(monkeypatch, fresh_pool):
    # every caller reaches the pool's lock before any of them enters it, so
    # only the check under the lock keeps them from making four pools
    import concurrent.futures

    callers = 4
    arrived = threading.Barrier(callers)
    made, executor = [], concurrent.futures.ThreadPoolExecutor

    class Gate:
        lock = threading.Lock()

        def __enter__(self):
            arrived.wait(10)
            self.lock.acquire()

        def __exit__(self, *exc_info):
            self.lock.release()

    def counted(*args, **kwargs):
        made.append(executor(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(gaussian, "_executor_lock", Gate())
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counted)
    q, cfg = MgfQuery(0.0, 1.0, -2.0), McConfig(n_samples=2 * mc._PIECE + 1, seed=RngSeed(5))
    want = keep(q, cfg)
    got = []

    def call():
        est = mgf_monte_carlo(q, cfg)
        got.append((est.value, est.diagnostics))

    threads = [threading.Thread(target=call) for _ in range(callers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * callers
    assert len(made) == 1 and gaussian._executor is made[0]


def test_a_failing_helper_job_is_recomputed_by_the_caller(monkeypatch, helper):
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    q = MgfQuery(-0.2, 0.1, 0.4)
    cfg = McConfig(n_samples=4 * mc._PIECE + 9, seed=RngSeed(8))
    want = keep(q, cfg)
    raised = []

    def fail(real, block, i):
        raised.append(i)
        raise MemoryError("injected")

    claimed = make_the_helper_take_a_piece(monkeypatch, helper, fail)
    est = mgf_monte_carlo(q, cfg)
    assert claimed.is_set() and raised
    assert (est.value, est.diagnostics) == want
    assert escaped == [] and helper.is_alive()
    assert gaussian._pool().submit(threading.current_thread).result(timeout=10) is helper


def test_caller_and_helper_each_evaluate_in_a_buffer_of_one_piece(monkeypatch, helper):
    # every thread claims single pieces, so each keeps a buffer of one piece;
    # no piece of this block is partial
    q = MgfQuery(0.3, 0.7, -5.5)
    cfg = McConfig(n_samples=6 * mc._PIECE, seed=RngSeed(29))
    want = keep(q, cfg)
    lengths = []

    def record(real, block, i):
        real(block, i)
        lengths.append(len(mc._buffers.buf))

    claimed = make_the_helper_take_a_piece(monkeypatch, helper, record)
    est = mgf_monte_carlo(q, cfg)
    assert claimed.is_set()
    assert (est.value, est.diagnostics) == want
    assert len(mc._buffers.buf) == mc._PIECE  # the caller's
    deadline = time.monotonic() + 10
    while not lengths and time.monotonic() < deadline:
        time.sleep(0.01)
    assert lengths and set(lengths) == {mc._PIECE}


@pytest.mark.parametrize("n_blocks", [1, 3])
def test_concurrent_callers_each_get_their_serial_value(monkeypatch, helper, n_blocks):
    # more callers than CPUs and frequent thread switches. One block: every
    # caller shares the kept block with the helper and replaces its job.
    # Three: the callers race to stream, and at times keep, each other's keys
    block = 3 * mc._PIECE + 5
    monkeypatch.setattr(mc, "_BLOCK", block)
    queries = [MgfQuery(0.3, 0.7, -5.5), MgfQuery(-0.2, 0.1, 0.4),
               MgfQuery(0.0, 1.0, -2.0), MgfQuery(0.1, 0.5, -0.5)]
    cfg = McConfig(n_samples=n_blocks * block - 1_000, seed=RngSeed(3))
    want = [serial(q, cfg) for q in queries]
    if n_blocks == 1:
        keep(queries[0], cfg)
    got = [[] for _ in queries]

    def call(k):
        for _ in range(4):
            est = mgf_monte_carlo(queries[k], cfg)
            got[k].append((est.value, est.diagnostics))

    threads = [threading.Thread(target=call, args=(k,)) for k in range(len(queries))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 4 for w in want]


def test_one_usable_cpu_starts_no_helper(monkeypatch, fresh_pool):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    q, cfg = MgfQuery(0.0, 1.0, -2.0), McConfig(n_samples=300_000, seed=RngSeed(6))
    want = keep(q, cfg)
    before = threading.enumerate()
    est = mgf_monte_carlo(q, cfg)
    assert gaussian._executor is None
    assert threading.enumerate() == before
    assert (est.value, est.diagnostics) == want


def test_back_to_back_calls_on_two_cpus_keep_one_helper_thread(monkeypatch, fresh_pool):
    # the caller is one of the two workers, so the pool has one thread: a
    # helper job submitted while the last one still runs waits for it instead
    # of starting a second thread, with a second piece-long buffer
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    queries = [MgfQuery(0.3, 0.7, -5.5), MgfQuery(-0.2, 0.1, 0.4),
               MgfQuery(0.0, 1.0, -2.0), MgfQuery(0.1, 0.5, -0.5)]
    cfg = McConfig(n_samples=8 * mc._PIECE, seed=RngSeed(17))
    want = [serial(q, cfg) for q in queries]
    keep(queries[0], cfg)
    before = helper_threads()
    for i in range(200):
        est = mgf_monte_carlo(queries[i % 4], cfg)
        assert (est.value, est.diagnostics) == want[i % 4]
    started = [t for t in helper_threads() if t not in before]
    assert len(started) == 1
    buf = gaussian._pool().submit(lambda: getattr(mc._buffers, "buf", None)).result(timeout=10)
    assert buf is not None and len(buf) == mc._PIECE


def test_a_refused_helper_leaves_every_piece_to_the_caller(monkeypatch):
    # the process's pool refuses jobs once the interpreter is shutting down
    submitted = []

    class Refusing:
        def submit(self, fn, *args):
            submitted.append(fn)
            raise RuntimeError("cannot schedule new futures after interpreter shutdown")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(gaussian, "_executor", Refusing())
    q, cfg = MgfQuery(0.3, 0.7, -5.5), McConfig(n_samples=5 * mc._PIECE + 7, seed=RngSeed(2))
    want = keep(q, cfg)
    est = mgf_monte_carlo(q, cfg)
    assert submitted == [mc._help]
    assert (est.value, est.diagnostics) == want


def test_an_exit_handler_gets_the_values_of_the_main_phase():
    # at exit the pool refuses jobs: Monte Carlo's caller evaluates every
    # piece of a kept block, and the path simulator draws every share itself
    code = """if True:
        import atexit, hashlib, os
        os.sched_getaffinity = lambda pid: {0, 1}
        import logmgf.montecarlo as mc
        from logmgf import MgfQuery, RngSeed, mgf_monte_carlo, simulate_paths
        def run():
            mc._kept = mc._streamed = None
            q = MgfQuery(0.0, 0.5, -1.0)
            estimates = [mgf_monte_carlo(q) for _ in range(3)]  # streamed, kept, hit
            values = [(e.value.hex(), e.diagnostics["std_error"].hex()) for e in estimates]
            paths = simulate_paths(q, 64, 10, RngSeed(1)).terminal_values
            print(values, hashlib.sha256(paths.tobytes()).hexdigest(), flush=True)
        run()
        atexit.register(run)
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert (out.returncode, out.stderr) == (0, "")
    main, at_exit = out.stdout.splitlines()
    assert main == at_exit


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_its_own_pool(helper):
    # the fork happens while another thread holds the pool's lock, which no
    # thread of the child could ever release; the child has none of the
    # parent's pool threads, so it must make a pool of its own
    q, cfg = MgfQuery(0.3, 0.7, -5.5), McConfig(n_samples=300_000, seed=RngSeed(12))
    want = keep(q, cfg)
    parent_pool = gaussian._pool()
    held, release = threading.Event(), threading.Event()

    def hold():
        with gaussian._executor_lock:
            held.set()
            release.wait(60)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                est = mgf_monte_carlo(q, cfg)
                pool = gaussian._executor
                fresh = pool is not None and pool is not parent_pool and helper_threads()
                code = 0 if fresh and (est.value, est.diagnostics) == want else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish within 60 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0
    finally:
        release.set()
        holder.join(timeout=10)
    assert not holder.is_alive()


def test_overflow_names_the_same_block_with_the_helper(monkeypatch, helper):
    # blocks of three pieces; at sigma = 1.25 these seeds overflow first in
    # block 0, nowhere, block 1 and block 2
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    block = 2 * mc._PIECE + 5
    monkeypatch.setattr(mc, "_BLOCK", block)
    see(monkeypatch, "kept")  # so that the helper shares every block
    n = 3 * block - 1_000
    q = MgfQuery(0.0, 1.25, 1.0)
    claimed = make_the_helper_take_a_piece(
        monkeypatch, helper, lambda real, *args: real(*args)
    )
    outcomes, want = [], []
    for seed in (0, 1, 7, 16):
        cfg = McConfig(n_samples=n, seed=RngSeed(seed))
        ref = reference_monte_carlo(q, n, seed, block)
        want.append(ref if isinstance(ref, int) else serial(q, cfg))
        try:
            est = mgf_monte_carlo(q, cfg)
            outcomes.append((est.value, est.diagnostics))
        except DivergenceError as exc:
            outcomes.append(exc.step)
    assert outcomes == want
    assert [w if isinstance(w, int) else "finite" for w in want] == [0, "finite", 1, 2]
    assert claimed.is_set()
    assert escaped == []
