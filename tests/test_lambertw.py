import math
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw as scipy_lambertw

from logmgf import (
    TABLES,
    DomainError,
    LogMgfError,
    MgfQuery,
    lambert_w0,
    mgf_asmussen,
    mgf_thintile,
)


def test_trivial_points():
    res = lambert_w0(0.0)
    assert res.w == 0.0
    assert res.iterations == 0
    assert res.residual == 0.0
    assert lambert_w0(math.e).w == pytest.approx(1.0, abs=1e-12)
    assert lambert_w0(-math.exp(-1.0)).w == pytest.approx(-1.0, abs=1e-6)


def test_domain_error_below_branch_point():
    with pytest.raises(DomainError):
        lambert_w0(-0.3678794411714424)  # one ulp past -1/e
    with pytest.raises(DomainError):
        lambert_w0(-1.0)
    with pytest.raises(DomainError):
        lambert_w0(math.nan)


def _grid():
    near_branch = -math.exp(-1.0) + np.logspace(-15.0, -0.5, 60)
    positive = np.logspace(-9.0, 6.0, 120)
    return np.concatenate((near_branch, [-0.05, 0.0, 0.5, math.e], positive))


def test_defining_identity_on_grid():
    for x in _grid():
        res = lambert_w0(float(x))
        assert res.residual <= 1e-12 * max(1.0, abs(x))
        assert res.w >= -1.0
        assert res.iterations <= 50


def test_monotone_on_grid():
    ws = [lambert_w0(float(x)).w for x in np.sort(_grid())]
    assert all(b >= a for a, b in zip(ws, ws[1:]))


def test_against_scipy_oracle():
    # sqrt-singularity at -1/e limits *any* solver to ~sqrt(eps) there, so the
    # cross-check applies outside a small neighbourhood of the branch point
    for x in _grid():
        if x + math.exp(-1.0) < 1e-8:
            continue
        mine = lambert_w0(float(x)).w
        ref = float(scipy_lambertw(float(x)).real)
        assert mine == pytest.approx(ref, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_small_arguments_match_mpmath_relatively(sign):
    # the residual floor scales with |x|, so W keeps its relative accuracy
    # however small x is (a floor of 4e-16 left 1e-8 at |x| = 1e-8)
    with mp.workdps(40):
        for x in sign * np.logspace(-300.0, -0.5, 200):
            ref = mp.lambertw(mp.mpf(float(x)))
            assert abs(lambert_w0(float(x)).w - ref) <= 1e-15 * abs(ref)


@settings(max_examples=300)
@given(x=st.floats(-0.36, 1e6))
def test_identity_property(x):
    res = lambert_w0(x)
    assert abs(res.w * math.exp(res.w) - x) <= 1e-12 * max(1.0, abs(x))


def test_mgf_theta_zero_collapses_to_one():
    assert mgf_asmussen(MgfQuery(0.0, 1.0, 0.0)).value == 1.0


def test_mgf_positive_theta_domain():
    # theta*sigma^2*e^mu = 0.4 > 1/e: beyond the closed form's validity
    with pytest.raises(DomainError):
        mgf_asmussen(MgfQuery(0.0, 0.1, 40.0))
    # 0.05 <= 1/e stays inside
    assert mgf_asmussen(MgfQuery(0.0, 0.1, 5.0)).value > 0.0


def test_mgf_published_rows():
    assert mgf_asmussen(MgfQuery(0.0, 0.1, 1.0)).value == pytest.approx(
        2.745950, abs=5e-6
    )
    assert mgf_asmussen(MgfQuery(0.0, 0.0625, -4.0)).value == pytest.approx(
        0.018744, abs=2e-6
    )
    assert mgf_asmussen(MgfQuery(0.0, 1.0, -0.5)).value == pytest.approx(
        0.561717, abs=3e-5
    )


def test_mgf_diagnostics():
    est = mgf_asmussen(MgfQuery(0.0, 1.0, -1.0))
    assert est.diagnostics["lambert_w"] == pytest.approx(0.5671432904097838, rel=1e-10)
    assert est.diagnostics["lambert_residual"] <= 1e-12
    assert est.diagnostics["tail_factor"] < 1.0  # ~1.2% shave at sigma = 1
    assert est.diagnostics["tail_nodes"] == 128.0
    assert 0.0 < est.diagnostics["tail_budget"] <= 1e-13
    pos = mgf_asmussen(MgfQuery(0.0, 0.1, 0.5))
    assert pos.diagnostics["tail_factor"] == 1.0  # no convergent remainder
    assert pos.diagnostics["tail_nodes"] == 0.0
    assert pos.diagnostics["tail_budget"] == 0.0


def test_agreement_with_tile_integration():
    for theta in (-0.5, -1.0, -2.0, -4.0, -8.0):
        q = MgfQuery(0.0, 0.0625, theta)
        a = mgf_asmussen(q).value
        t = mgf_thintile(q).value
        assert abs(a - t) <= 2e-6


# Finite breakpoints in standard-normal units: mpmath's tanh-sinh rule on
# infinite limits is slow here, and every integrand below is negligible
# beyond |x| = 60.
_BREAKS = [-60, -30, -15, -8, -4, 0, 4, 8, 15, 30, 60]


def _mp_mgf(q: MgfQuery):
    """E[exp(theta * e^(mu + sigma * Z))] by 30-digit quadrature."""
    with mp.workdps(30):
        def f(z):
            return mp.exp(q.theta * mp.exp(q.mu + q.sigma * z) - z * z / 2)

        return mp.quad(f, _BREAKS) / mp.sqrt(2 * mp.pi)


def _mp_residual(c: float, spread: float):
    """E[exp(-c * (e^Y - 1 - Y - Y^2/2))], Y = spread * Z, by 20-digit quadrature."""
    with mp.workdps(20):
        def f(x):
            y = spread * x
            return mp.exp(-x * x / 2 - c * (mp.expm1(y) - y - y * y / 2))

        return mp.quad(f, _BREAKS) / mp.sqrt(2 * mp.pi)


_NEGATIVE_CELLS = [
    MgfQuery(spec.mu, spec.sigma, theta)
    for spec in TABLES.values()
    for theta in spec.thetas
    if theta < 0.0
]


@pytest.mark.parametrize("q", _NEGATIVE_CELLS, ids=lambda q: f"sigma={q.sigma}-theta={q.theta}")
def test_negative_table_cells_match_mpmath(q):
    ref = _mp_mgf(q)
    assert abs(mgf_asmussen(q).value - ref) <= 1e-13 * ref


def test_far_negative_theta_matches_mpmath():
    # exp(-1e4 e^x) keeps its mass near x = -9, beyond the tile grid's reach
    q = MgfQuery(0.0, 1.0, -1e4)
    ref = _mp_mgf(q)
    assert float(ref) == pytest.approx(1.11538e-15, rel=1e-5)
    assert abs(mgf_asmussen(q).value - ref) <= 1e-12 * ref


@settings(max_examples=25, deadline=None)
@given(
    mu=st.floats(-2.0, 2.0),
    log_sigma=st.floats(math.log(1e-3), math.log(20.0)),
    log_neg_theta=st.floats(math.log(1e-3), math.log(1e4)),
)
def test_tail_budget_covers_the_quadrature_error(mu, log_sigma, log_neg_theta):
    sigma = math.exp(log_sigma)
    d = mgf_asmussen(MgfQuery(mu, sigma, -math.exp(log_neg_theta))).diagnostics
    w, s2 = d["lambert_w"], sigma * sigma
    ref = _mp_residual(w / s2, math.sqrt(s2 / (1.0 + w)))
    assert abs(d["tail_factor"] - ref) <= d["tail_budget"]


def test_wide_sigma_is_finite_or_typed_without_warnings():
    # expm1 overflows at the outer nodes from sigma of about 35
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the Lambert argument underflows to 0 at mu = -800: W = 0, and the
        # factor is exactly 1, with no 0 * inf at the overflowing nodes
        assert mgf_asmussen(MgfQuery(-800.0, 50.0, -1.0)).value == 1.0
        try:
            value = mgf_asmussen(MgfQuery(0.0, 100.0, -1.0)).value
        except LogMgfError:
            return
    assert math.isfinite(value)


def test_cli_import_leaves_numpy_polynomial_unloaded():
    code = "import sys, logmgf.cli; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"
