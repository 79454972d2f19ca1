import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from logmgf import DomainError, GaussianParams, RngSeed, pdf
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


def _quantile(p):
    return float(inverse_cdf_std_array(np.array([p]))[0])


def test_quantile_vs_high_precision():
    # (x, Phi(x)) from mpmath erfc at 30 digits. Near x the quantile's slope is
    # 1/phi(x), so |z(P) - x| phi(x) is the CDF error |Phi(z) - P| it implies
    oracle = {
        -8.0: 6.22096057427178412351e-16,
        -4.0: 3.16712418331199212537e-05,
        -1.0: 0.158655253931457051415,
        0.5: 0.691462461274013103638,
        2.0: 0.977249868051820792629,
        6.0: 0.999999999013412354962,
    }
    std = GaussianParams(0.0, 1.0)
    for x, val in oracle.items():
        assert abs(_quantile(val) - x) * pdf(x, std) <= 1e-12, x


def test_inverse_cdf_trivials():
    assert _quantile(0.5) == 0.0
    assert _quantile(ndtr(1.234)) == pytest.approx(1.234, abs=1e-10)
    assert _quantile(0.975) == pytest.approx(Z_975, abs=1e-6)


def test_inverse_cdf_domain():
    for p in [0.0, 1.0, -0.2, 1.5, math.nan]:
        with pytest.raises(DomainError):
            _quantile(p)
        with pytest.raises(DomainError):
            inverse_cdf_std_array(np.array([0.3, p, 0.7]))


@settings(max_examples=300)
@given(p=st.floats(1e-12, 1.0 - 1e-12))
def test_inverse_cdf_round_trip(p):
    z = _quantile(p)
    assert abs(ndtr(z) - p) <= 1e-12


@settings(max_examples=200)
@given(ps=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                   min_size=1, max_size=50))
def test_inverse_cdf_array_matches_scalar(ps):
    # an element's quantile does not depend on the elements beside it
    zs = inverse_cdf_std_array(np.array(ps))
    for p, z in zip(ps, zs):
        assert abs(z - _quantile(p)) <= 1e-12


def test_monotonicity_on_grids():
    ps = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
    zs = [_quantile(float(p)) for p in ps]
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


@pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1])
@pytest.mark.parametrize("index", [0, 2**32 - 1])
def test_substream_matches_seedsequence(seed, index):
    # substream is substreams' one-index case, so numpy is its reference
    expected = _seedsequence_stream(seed, index).standard_normal(6)
    assert np.array_equal(RngSeed(seed).substream(index).standard_normal(6), expected)


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


@pytest.mark.parametrize(
    "bad", [1.5, 2.0, None, "1"], ids=["float", "integral float", "None", "str"]
)
def test_a_non_integer_index_raises_domain_error(bad):
    s = RngSeed(3)
    for call in (
        lambda: s.substream(bad),
        lambda: s.substreams(bad, 4),
        lambda: s.substreams(0, bad),
    ):
        with pytest.raises(DomainError, match="must be an integer"):
            call()
