import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from logmgf import (
    DomainError,
    GaussianParams,
    MgfQuery,
    NonFiniteIntegrand,
    TileGridConfig,
    build_grid,
    cdf_std,
    expectation,
    expectation_on_grid,
    inverse_cdf_std,
    mgf_thintile,
    pdf,
)


def quad_expectation(f, mu, sigma):
    """Adaptive quadrature oracle for E[f(x)], x ~ N(mu, sigma^2)."""
    val, err = quad(
        lambda x: f(x) * pdf(x, GaussianParams(mu, sigma)),
        mu - 12.0 * sigma,
        mu + 12.0 * sigma,
        limit=300,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


def test_config_validation():
    with pytest.raises(DomainError):
        TileGridConfig(n_pairs=1)


def test_first_pair_forced_by_construction():
    cfg = TileGridConfig(n_pairs=500)
    grid = build_grid(GaussianParams(0.0, 1.0), cfg)
    two_h2 = 1.0 / cfg.n_pairs
    assert grid.tile_mass == two_h2
    expected_x1 = -inverse_cdf_std((1.0 - two_h2) / 2.0)
    assert grid.coordinates[1] == pytest.approx(expected_x1, abs=1e-15)


def test_affine_equivariance():
    cfg = TileGridConfig(n_pairs=2_000)
    base = build_grid(GaussianParams(0.0, 1.0), cfg)
    mapped = build_grid(GaussianParams(3.0, 2.0), cfg)
    assert np.array_equal(base.areas, mapped.areas)
    assert base.tile_mass == mapped.tile_mass
    assert np.allclose(mapped.coordinates, 3.0 + 2.0 * base.coordinates, atol=1e-12)


def test_area_accounting():
    grid = build_grid(GaussianParams(0.0, 1.0), TileGridConfig(n_pairs=5_000))
    assert grid.coverage < 1.0
    assert grid.coverage == pytest.approx(grid.n_pairs * grid.tile_mass, abs=1e-13)
    assert np.all(np.diff(grid.areas) > 0)
    # dA_n = 2 h^2 / s_n with every slope 1
    assert np.allclose(np.diff(grid.areas), 1.0 / 5_000, rtol=0, atol=1e-15)
    assert grid.n_pairs == 5_000 - 1


def test_closed_form_matches_slope_recurrence():
    # the sequential slope recurrence the closed form replaces, as a reference
    n_pairs = 2_000
    std = GaussianParams(0.0, 1.0)
    z = [0.0]
    total = comp = 0.0
    for _ in range(1, n_pairs):
        s = max(1.0, abs(z[-1]) * pdf(z[-1], std))
        y = 1.0 / n_pairs / s - comp
        t = total + y
        comp = (t - total) - y
        total = t
        z.append(-inverse_cdf_std((1.0 - total) / 2.0))
    grid = build_grid(std, TileGridConfig(n_pairs=n_pairs))
    assert len(grid.coordinates) == len(z)
    assert np.max(np.abs(grid.coordinates - np.array(z))) <= 1e-12
    # max |z| phi(z) = 1/sqrt(2 pi e) < 1, so the slope floor always wins
    assert all(max(1.0, abs(x) * pdf(x, std)) == 1.0 for x in grid.coordinates)


def test_coordinate_area_consistency():
    grid = build_grid(GaussianParams(1.0, 0.5), TileGridConfig(n_pairs=3_000))
    for n in [1, 50, 1500, grid.n_pairs]:
        z = (grid.coordinates[n] - 1.0) / 0.5
        recomputed = 1.0 - 2.0 * cdf_std(-z)
        assert abs(recomputed - grid.areas[n - 1]) <= 1e-10


def test_expectation_constant_exact():
    est = expectation(lambda x: 4.25 + 0.0 * x, GaussianParams(0.7, 2.0),
                      TileGridConfig(n_pairs=2_000))
    assert est.value == 4.25


def test_expectation_identity_function():
    for mu, sigma in [(0.0, 1.0), (1.5, 0.3)]:
        est = expectation(lambda x: x, GaussianParams(mu, sigma),
                          TileGridConfig(n_pairs=10_000))
        assert abs(est.value - mu) <= 1e-12


def test_expectation_square_against_quadrature():
    p = GaussianParams(0.0, 1.0)
    oracle = quad_expectation(lambda x: x * x, 0.0, 1.0)
    # the tail cells close the uncovered 1/N of the mass (measured 1.4e-6)
    est = expectation(lambda x: x * x, p, TileGridConfig())
    assert est.value == pytest.approx(oracle, rel=1e-5)
    # the truncated rule leaves that mass out; for x^2 it carries ~2.5e-4 of
    # the second moment
    trunc = expectation_on_grid(lambda x: x * x, build_grid(p, TileGridConfig()))
    assert trunc.value == pytest.approx(1.0, abs=3e-4)
    assert trunc.value == pytest.approx(oracle, abs=3e-4)
    assert trunc.value < oracle  # truncation always sheds positive tail mass


# tolerance per integrand reflects the error of the tail cells at N = 80,000
# (measured worst over the three laws: 1.4e-6, 3.4e-6, 1.7e-8): zero for
# odd/cancelling f, largest for f growing fastest at the tails
ORACLE_CASES = [
    ("x", lambda x: x, 1e-12),
    ("x^2", lambda x: x * x, 2e-6),
    ("e^x", np.exp, 5e-6),
    ("e^-e^x", lambda x: np.exp(-np.exp(x)), 5e-8),
]


@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (0.0, 0.1), (1.0, 0.5)])
@pytest.mark.parametrize("name,f,tol", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_oracle_equivalence(mu, sigma, name, f, tol):
    est = expectation(f, GaussianParams(mu, sigma), TileGridConfig())
    oracle = quad_expectation(f, mu, sigma)
    assert abs(est.value - oracle) <= tol * max(1.0, abs(oracle))


def test_monotone_refinement():
    grids = [1_000 * 2**k for k in range(7)]  # 1,000 .. 64,000
    oracle = quad_expectation(lambda x: np.exp(-np.exp(x)), 0.0, 1.0)
    errors = [
        abs(
            expectation(lambda x: np.exp(-np.exp(x)), GaussianParams(0.0, 1.0),
                        TileGridConfig(n_pairs=n)).value
            - oracle
        )
        for n in grids
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse + 1e-10


def test_eval_count_uses_symmetry():
    grid = build_grid(GaussianParams(0.0, 1.0), TileGridConfig(n_pairs=400))
    est = expectation_on_grid(lambda x: x * x, grid)
    assert est.n_evals == 2 * (grid.n_pairs + 1)
    assert est.coverage == grid.coverage


def test_scalar_only_callable_falls_back():
    est = expectation(
        lambda x: math.cos(x),  # rejects arrays, exercising the fallback path
        GaussianParams(0.0, 1.0),
        TileGridConfig(n_pairs=2_000),
    )
    oracle = quad_expectation(math.cos, 0.0, 1.0)
    assert est.value == pytest.approx(oracle, rel=2e-3)


def test_non_finite_integrand_reports_abscissa():
    q = MgfQuery(mu=7.0, sigma=1.0, theta=1.0)
    with pytest.raises(NonFiniteIntegrand) as exc_info:
        mgf_thintile(q)
    assert exc_info.value.x >= 7.0  # blow-up starts at the mode here


def test_mgf_matches_published_digits():
    est = mgf_thintile(MgfQuery(0.0, 0.0625, -1.0))
    assert est.value == pytest.approx(0.367880, abs=2e-6)
    assert est.method.value == "thin_tile"
    assert 0.0 < est.diagnostics["coverage"] < 1.0
    est3 = mgf_thintile(MgfQuery(0.0, 1.0, -8.0))
    assert est3.value == pytest.approx(0.034264, abs=3e-5)


def test_mgf_theta_zero_exact():
    assert mgf_thintile(MgfQuery(0.0, 1.0, 0.0)).value == 1.0


def test_lognormal_identities_cross_module():
    # tile expectations of e^x and its squared deviation against the moment
    # identities; tolerances sized by the tail-cell error of each integrand
    # (measured worst: 1.3e-7 and 1.6e-5)
    from logmgf import lognormal_mean, lognormal_variance

    for mu, sigma in [(0.0, 0.25), (0.5, 0.5)]:
        p = GaussianParams(mu, sigma)
        mean = lognormal_mean(p)
        got_mean = expectation(np.exp, p, TileGridConfig()).value
        assert abs(got_mean - mean) / mean <= 1e-6
        var = lognormal_variance(p)
        got_var = expectation(lambda x: (np.exp(x) - mean) ** 2, p,
                              TileGridConfig()).value
        assert abs(got_var - var) / var <= 5e-5


def test_csv_dump_round_trip():
    grid = build_grid(GaussianParams(0.0, 1.0), TileGridConfig(n_pairs=50))
    buf = io.StringIO()
    grid.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "n,x_n,s_n,dA_n,A_n"
    assert len(lines) == 1 + grid.n_pairs
    n, x, s, da, a = lines[1].split(",")
    assert int(n) == 1
    assert float(x) == grid.coordinates[1]
    assert float(a) == grid.areas[0]
    for row in lines[1:]:
        _, _, s, da, _ = row.split(",")
        assert float(s) == 1.0
        assert float(da) == grid.tile_mass


@settings(max_examples=60, deadline=None)
@given(n_pairs=st.integers(2, 2_000_000))
def test_total_mass_product_equals_fsum(n_pairs):
    # expectation_on_grid divides by (N - 1) * (1/N) in place of the fsum of
    # N - 1 copies of 1/N: both round the exact total once
    k = n_pairs - 1
    assert k * (1.0 / n_pairs) == math.fsum([1.0 / n_pairs] * k)
