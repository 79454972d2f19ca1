"""Every mgf_* method returns a finite value or raises a LogMgfError."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logmgf import (
    LogMgfError,
    McConfig,
    MgfQuery,
    RngSeed,
    TileGridConfig,
    ZeroEntropyConfig,
    mgf_asmussen,
    mgf_monte_carlo,
    mgf_thintile,
    mgf_zero_entropy,
)

# small engines: the failure modes depend on (mu, sigma, theta), not on size
METHODS = {
    "zero_entropy": lambda q: mgf_zero_entropy(q, ZeroEntropyConfig(steps=200)),
    "thin_tile": lambda q: mgf_thintile(q, TileGridConfig(n_pairs=2_000)),
    "laplace_w": lambda q: mgf_asmussen(q, TileGridConfig(n_pairs=2_000)),
    "monte_carlo": lambda q: mgf_monte_carlo(
        q, McConfig(n_samples=1_000, seed=RngSeed(0))
    ),
}


@pytest.mark.parametrize("method", sorted(METHODS))
@settings(max_examples=150, deadline=None)
@given(
    mu=st.floats(-800.0, 800.0),
    sigma=st.floats(1e-3, 20.0),
    theta=st.floats(-1e4, 1e4) | st.just(0.0),
)
# inputs that once escaped as another exception or a non-finite value
@example(mu=800.0, sigma=1.0, theta=-1.0)  # laplace_w: e^mu
@example(mu=0.0, sigma=0.01, theta=3678.0)  # laplace_w: exp of the leading term
@example(mu=0.0, sigma=0.02661, theta=519.536146599351)  # ... divided by sqrt(1 + W)
@example(mu=0.0, sigma=3.0, theta=1.0)  # monte_carlo: summands
@example(mu=0.0, sigma=0.25, theta=182.0)  # monte_carlo: the sample variance
@example(mu=800.0, sigma=1.0, theta=0.0)  # monte_carlo: 0 * inf where e^x overflows
@example(mu=72.0, sigma=1e-200, theta=-1.0)  # laplace_w: sigma^2 underflows to 0
@example(mu=0.0, sigma=1e200, theta=-1.0)  # zero_entropy: sigma^2 overflows, nan m_1
@example(mu=-138.0, sigma=14.0, theta=1.5035546590265694e-298)  # zero_entropy: nan v
@example(mu=726.0, sigma=0.25, theta=1.1125369292536007e-308)  # zero_entropy: e^m_1
def test_finite_value_or_typed_error(method, mu, sigma, theta):
    try:
        est = METHODS[method](MgfQuery(mu, sigma, theta))
    except LogMgfError:
        return
    assert math.isfinite(est.value)


@pytest.mark.parametrize("mu", [-800.0, 0.0, 800.0])
def test_every_method_gives_exactly_one_at_theta_zero(mu):
    # M(0) = 1 even where e^x overflows and theta * e^x would be 0 * inf
    q = MgfQuery(mu, 1.0, 0.0)
    assert {name: run(q).value for name, run in METHODS.items()} == dict.fromkeys(
        METHODS, 1.0
    )
