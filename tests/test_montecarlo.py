import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.random import PCG64, Generator, SeedSequence

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


@pytest.mark.parametrize("n_blocks", [1, 3])
@pytest.mark.parametrize(
    "q", [MgfQuery(0.0, 1.0, -2.0), MgfQuery(0.3, 0.7, -5.5), MgfQuery(-0.2, 0.1, 0.4)]
)
def test_cached_in_place_blocks_equal_the_reference(monkeypatch, q, n_blocks):
    block = 20_000
    monkeypatch.setattr(mc, "_BLOCK", block)
    n = block * n_blocks - 7_000  # the last block is partial
    est = mgf_monte_carlo(q, McConfig(n_samples=n, seed=RngSeed(11)))
    assert (est.value, est.diagnostics["std_error"]) == reference_monte_carlo(
        q, n, 11, block
    )
    assert est.diagnostics["n_batches"] == float(n_blocks)


@pytest.mark.parametrize("sharing", ["alone", "with the helper"])
@pytest.mark.parametrize("block", [mc._PIECE + 1, 9 * mc._PIECE + 5])
def test_spans_and_pieces_equal_the_per_piece_reference(monkeypatch, block, sharing):
    # spans of up to _SPAN pieces from the front, single pieces from the back,
    # a partial last piece in every block and a partial last block
    monkeypatch.setattr(mc, "_BLOCK", block)
    if sharing == "alone":
        monkeypatch.setattr(mc, "_helper_for", lambda n_pieces: None)
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
    # a row of a reshaped span is summed as the 1-D slice is; the end-to-end
    # values cannot show this, since fsum and the division by n hide an ulp
    f = np.exp(3.0 * np.random.default_rng(n).standard_normal(n))
    want = [float(np.sum(f[s : s + mc._PIECE])) for s in range(0, n, mc._PIECE)]
    assert mc._piece_sums(f) == want


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


def test_a_warm_call_allocates_no_block_sized_buffer():
    q, cfg = MgfQuery(0.0, 1.0, -2.0), McConfig(n_samples=1_000_000)
    mgf_monte_carlo(q, cfg)  # draws and caches the block's 8 MiB of normals
    tracemalloc.start()
    try:
        mgf_monte_carlo(q, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cold_cache_equals_warm_and_holds_one_read_only_block():
    q = MgfQuery(0.0, 1.0, -2.0)
    cfg = McConfig(n_samples=10_000, seed=RngSeed(4))
    mc._normals.cache_clear()
    cold = mgf_monte_carlo(q, cfg)
    warm = mgf_monte_carlo(q, cfg)
    assert mc._normals.cache_info().hits == 1
    assert (cold.value, cold.diagnostics) == (warm.value, warm.diagnostics)
    x = mc._normals(RngSeed(4), 0, 10_000)
    assert not x.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    mgf_monte_carlo(q, McConfig(n_samples=10_000, seed=RngSeed(5)))
    assert mc._normals.cache_info().currsize == 1


def test_overflow_block_matches_the_reference(monkeypatch):
    # at sigma = 1.8 the first overflowing summand falls in block 0, 1 or 2,
    # or in none of the three, depending on the seed
    block, n = 1_024, 3_000
    monkeypatch.setattr(mc, "_BLOCK", block)
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


def serial(q, cfg):
    """(value, diagnostics) with the helper disabled: the caller evaluates every piece."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "_helper_for", lambda n_pieces: None)
        est = mgf_monte_carlo(q, cfg)
    return est.value, est.diagnostics


@pytest.fixture
def helper(monkeypatch):
    """The process's helper, started even where one CPU is usable."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    h = mc._helper_for(2)
    assert h is not None and h.thread.is_alive()
    return h


def make_the_helper_take_a_piece(monkeypatch, helper, in_helper):
    """Patch _Block: once the shift is fixed, the caller's first claim waits
    (10 s at most) until the helper has claimed a piece, and in_helper
    evaluates each piece the helper claims."""
    evaluate, claim_front = mc._Block.evaluate, mc._Block.claim_front
    claimed = threading.Event()

    def helper_evaluate(block, start, stop, buf):
        if threading.current_thread() is not helper.thread:
            return evaluate(block, start, stop, buf)
        claimed.set()
        in_helper(evaluate, block, start, stop, buf)

    def caller_claim_front(block, span):
        if block.shift is not None:
            claimed.wait(10)
        return claim_front(block, span)

    monkeypatch.setattr(mc._Block, "evaluate", helper_evaluate)
    monkeypatch.setattr(mc._Block, "claim_front", caller_claim_front)
    return claimed


def test_a_stalled_helper_never_delays_the_call(monkeypatch, helper):
    # the helper claims a piece and then stalls until the call has returned;
    # a caller that waited for it would hang until the helper's wait timed out
    q = MgfQuery(0.3, 0.7, -5.5)
    cfg = McConfig(n_samples=5 * mc._PIECE + 123, seed=RngSeed(31))
    want = serial(q, cfg)
    returned, woke = threading.Event(), []

    def stall(real, block, start, stop, buf):
        woke.append(returned.wait(10))
        real(block, start, stop, buf)

    claimed = make_the_helper_take_a_piece(monkeypatch, helper, stall)
    est = mgf_monte_carlo(q, cfg)
    returned.set()
    assert claimed.is_set()
    assert (est.value, est.diagnostics) == want
    deadline = time.monotonic() + 10
    while not woke and time.monotonic() < deadline:
        time.sleep(0.01)
    assert woke == [True]  # the call returned while the helper still held its piece


def test_a_failing_helper_job_is_recomputed_by_the_caller(monkeypatch, helper):
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    q = MgfQuery(-0.2, 0.1, 0.4)
    cfg = McConfig(n_samples=4 * mc._PIECE + 9, seed=RngSeed(8))
    want = serial(q, cfg)
    raised = []

    def fail(real, block, start, stop, buf):
        raised.append(start)
        raise MemoryError("injected")

    claimed = make_the_helper_take_a_piece(monkeypatch, helper, fail)
    est = mgf_monte_carlo(q, cfg)
    assert claimed.is_set() and raised
    assert (est.value, est.diagnostics) == want
    assert escaped == [] and helper.thread.is_alive()


def test_concurrent_callers_each_get_their_serial_value(monkeypatch, helper):
    # more callers than CPUs, several blocks each (the cached block thrashes),
    # and frequent thread switches; each caller replaces the helper's job
    block = 3 * mc._PIECE + 5
    monkeypatch.setattr(mc, "_BLOCK", block)
    queries = [MgfQuery(0.3, 0.7, -5.5), MgfQuery(-0.2, 0.1, 0.4),
               MgfQuery(0.0, 1.0, -2.0), MgfQuery(0.1, 0.5, -0.5)]
    cfg = McConfig(n_samples=2 * block + 1_000, seed=RngSeed(3))
    want = [serial(q, cfg) for q in queries]
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


def test_one_usable_cpu_starts_no_helper(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(mc, "_helper", None)
    before = threading.enumerate()
    q, cfg = MgfQuery(0.0, 1.0, -2.0), McConfig(n_samples=300_000, seed=RngSeed(6))
    est = mgf_monte_carlo(q, cfg)
    assert mc._helper is None
    assert threading.enumerate() == before
    assert (est.value, est.diagnostics) == serial(q, cfg)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helper(helper):
    # the fork happens while another thread holds the parent helper's lock,
    # which no thread of the child could ever release
    q, cfg = MgfQuery(0.3, 0.7, -5.5), McConfig(n_samples=300_000, seed=RngSeed(12))
    want = serial(q, cfg)
    held, release = threading.Event(), threading.Event()

    def hold():
        with helper._ready:
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
                fresh = mc._helper is not None and mc._helper is not helper
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
