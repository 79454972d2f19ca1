import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmgf import (
    DomainError,
    GaussianParams,
    RngSeed,
    cdf_std,
    inverse_cdf_std,
    lognormal_mean,
    lognormal_variance,
    pdf,
)
from logmgf.gaussian import inverse_cdf_std_array

# frozen with mpmath at 40 digits: exp(-1/8) / (2*sqrt(2*pi))
PDF_1_0_2 = 0.17603266338214973889
# frozen with mpmath: root of Phi(z) = 0.975 found by high-precision bisection
Z_975 = 1.9599639845400542355


def test_pdf_mode_value():
    assert pdf(0.0, GaussianParams(0.0, 1.0)) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), abs=1e-15
    )


def test_pdf_frozen_value():
    assert pdf(1.0, GaussianParams(0.0, 2.0)) == pytest.approx(PDF_1_0_2, abs=1e-16)


@given(
    mu=st.floats(-50, 50),
    sigma=st.floats(0.01, 50),
    x=st.floats(-200, 200),
)
def test_pdf_symmetric_about_mode(mu, sigma, x):
    p = GaussianParams(mu, sigma)
    assert pdf(x, p) == pytest.approx(pdf(2.0 * mu - x, p), rel=1e-12, abs=1e-300)


def test_params_validation():
    with pytest.raises(DomainError):
        GaussianParams(0.0, 0.0)
    with pytest.raises(DomainError):
        GaussianParams(0.0, -1.0)
    with pytest.raises(DomainError):
        GaussianParams(math.inf, 1.0)


def test_cdf_center_and_reflection():
    assert cdf_std(0.0) == 0.5
    for x in [0.3, 1.7, 4.2, 7.5]:
        assert cdf_std(x) + cdf_std(-x) == pytest.approx(1.0, abs=1e-15)


def test_cdf_vs_high_precision():
    # oracle values from mpmath erfc at 30 digits
    oracle = {
        -8.0: 6.22096057427178412351e-16,
        -4.0: 3.16712418331199212537e-05,
        -1.0: 0.158655253931457051415,
        0.5: 0.691462461274013103638,
        2.0: 0.977249868051820792629,
        6.0: 0.999999999013412354962,
    }
    for x, val in oracle.items():
        assert abs(cdf_std(x) - val) <= 1e-14


def test_cdf_derived_value():
    assert cdf_std(1.959964) == pytest.approx(0.975, abs=1e-6)


def test_inverse_cdf_trivials():
    assert inverse_cdf_std(0.5) == 0.0
    assert inverse_cdf_std(cdf_std(1.234)) == pytest.approx(1.234, abs=1e-10)
    assert inverse_cdf_std(0.975) == pytest.approx(Z_975, abs=1e-6)


def test_inverse_cdf_domain():
    for p in [0.0, 1.0, -0.2, 1.5, math.nan]:
        with pytest.raises(DomainError):
            inverse_cdf_std(p)
        with pytest.raises(DomainError):
            inverse_cdf_std_array(np.array([0.3, p, 0.7]))


@settings(max_examples=300)
@given(p=st.floats(1e-12, 1.0 - 1e-12))
def test_inverse_cdf_round_trip(p):
    z = inverse_cdf_std(p)
    assert abs(cdf_std(z) - p) <= 1e-12


@settings(max_examples=200)
@given(ps=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                   min_size=1, max_size=50))
def test_inverse_cdf_array_matches_scalar(ps):
    zs = inverse_cdf_std_array(np.array(ps))
    for p, z in zip(ps, zs):
        assert abs(z - inverse_cdf_std(p)) <= 1e-12


def test_monotonicity_on_grids():
    # stop at |x| = 7: beyond that the CDF increments fall under 1 ulp of 1.0
    # and strict increase is unrepresentable in doubles
    xs = np.linspace(-7.0, 7.0, 10_000)
    cs = [cdf_std(float(x)) for x in xs]
    assert all(b > a for a, b in zip(cs, cs[1:]))
    ps = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
    zs = [inverse_cdf_std(float(p)) for p in ps]
    assert all(b > a for a, b in zip(zs, zs[1:]))


def test_substreams_differ():
    s = RngSeed(5)
    a = s.substream(0).standard_normal(8)
    b = s.substream(1).standard_normal(8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, RngSeed(5).substream(0).standard_normal(8))


def _seedsequence_stream(seed, index):
    """The generator a sub-stream must equal, keyed by numpy's own SeedSequence."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def _assert_keyed_like_seedsequence(seed, start, stop):
    streams = RngSeed(seed).substreams(start, stop)
    assert len(streams) == stop - start
    for i, stream in enumerate(streams):
        expected = _seedsequence_stream(seed, start + i).standard_normal(6)
        assert np.array_equal(stream.standard_normal(6), expected), (seed, start + i)


# one-word, two-word and all-ones seeds: the entropy layouts of the hash
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("start, stop", [(0, 5), (2**32 - 3, 2**32)])
def test_substreams_match_seedsequence_edge_seeds(seed, start, stop):
    _assert_keyed_like_seedsequence(seed, start, stop)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    start=st.one_of(st.just(0), st.integers(0, 2**32 - 1)),
    length=st.integers(1, 20),
)
def test_substreams_match_seedsequence(seed, start, length):
    _assert_keyed_like_seedsequence(seed, start, min(start + length, 2**32))


def test_substream_index_domain():
    s = RngSeed(3)
    for call in (
        lambda: s.substream(2**32),
        lambda: s.substreams(2**32 - 1, 2**32 + 1),
        lambda: s.substream(-1),
        lambda: s.substreams(4, 3),
    ):
        with pytest.raises(DomainError):
            call()
    assert s.substreams(7, 7) == []


def test_lognormal_moments():
    assert lognormal_mean(GaussianParams(0.0, 1e-12)) == pytest.approx(1.0, abs=1e-10)
    assert lognormal_mean(GaussianParams(0.0, 1.0)) == pytest.approx(
        math.exp(0.5), rel=1e-15
    )
    assert lognormal_mean(GaussianParams(1.0, 0.5)) == pytest.approx(
        math.exp(1.125), rel=1e-15
    )
    assert lognormal_variance(GaussianParams(0.0, 1e-12)) == pytest.approx(0.0, abs=1e-10)
    assert lognormal_variance(GaussianParams(0.0, 1.0)) == pytest.approx(
        (math.e - 1.0) * math.e, rel=1e-15
    )
    assert lognormal_variance(GaussianParams(0.0, 0.1)) == pytest.approx(
        math.expm1(0.01) * math.exp(0.01), rel=1e-14
    )


def test_lognormal_moment_overflow():
    with pytest.raises(OverflowError):
        lognormal_mean(GaussianParams(1e6, 1.0))
    with pytest.raises(OverflowError):
        lognormal_variance(GaussianParams(500.0, 1.0))
