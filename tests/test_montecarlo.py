import math
import tracemalloc

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


def reference_monte_carlo(q, n, seed, block):
    """The estimator written out of place, one fresh generator per block.

    Returns (value, std_error), or the block index of the first overflow.
    """
    sums, sqs, shift = [], [], None
    with np.errstate(over="ignore", invalid="ignore"):
        for b, start in enumerate(range(0, n, block)):
            x = Generator(PCG64(SeedSequence((seed, b)))).standard_normal(
                min(block, n - start)
            )
            f = np.exp(q.theta * np.exp(q.mu + q.sigma * x))
            if shift is None:
                shift = float(f.mean())
            d = f - shift
            sums.append(float(np.sum(d)))
            sqs.append(float(np.sum(d * d)))
            if not math.isfinite(sqs[-1]):
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
