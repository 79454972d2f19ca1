import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from logmgf import (
    DomainError,
    GaussianParams,
    MgfQuery,
    NonFiniteIntegrand,
    TABLES,
    TileGridConfig,
    build_grid,
    cdf_std,
    expectation,
    expectation_on_grid,
    mgf_asmussen,
    mgf_thintile,
    pdf,
)
import logmgf.thintile as tt
from logmgf.gaussian import inverse_cdf_std_array
from logmgf.thintile import _exact_parts


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
    expected_x1 = -inverse_cdf_std_array(np.array([(1.0 - two_h2) / 2.0]))[0]
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
        z.append(-float(inverse_cdf_std_array(np.array([(1.0 - total) / 2.0]))[0]))
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
    for mu, sigma in [(0.0, 0.25), (0.5, 0.5)]:
        p = GaussianParams(mu, sigma)
        mean = math.exp(mu + 0.5 * sigma * sigma)
        got_mean = expectation(np.exp, p, TileGridConfig()).value
        assert abs(got_mean - mean) / mean <= 1e-6
        var = math.expm1(sigma * sigma) * math.exp(2.0 * mu + sigma * sigma)
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


def test_vectorised_integrand_error_propagates_after_one_call():
    # only a TypeError from the array call means "scalar-only callable"; any
    # other error is the integrand's own and is not retried point by point
    calls = 0

    def rejects_arrays(x):
        nonlocal calls
        calls += 1
        if np.ndim(x):
            raise ValueError("shapes do not broadcast")
        return math.exp(x)

    grid = build_grid(GaussianParams(0.0, 1.0), TileGridConfig())
    with pytest.raises(ValueError, match="shapes do not broadcast"):
        expectation_on_grid(rejects_arrays, grid)
    assert calls == 1


def test_overflowing_pair_sum_keeps_the_finite_mean():
    # near x_K the four corner values of a pair are finite but their sum
    # overflows. Dividing f by 2^10 scales every rounding of the rule
    # exactly, so the mended value is 2^10 times the rule on f / 2^10,
    # where no sum overflows
    theta = 679.4
    q = MgfQuery(0.0, 0.01, theta)
    grid = build_grid(GaussianParams(q.mu, q.sigma), TileGridConfig())
    scaled = expectation_on_grid(lambda x: np.exp(theta * np.exp(x)) / 1024.0, grid)
    assert mgf_thintile(q).value == 1024.0 * scaled.value
    # a constant near the float maximum overflows every pair sum and
    # expectation's two-point tail sum
    def constant(c):
        return lambda x: np.full_like(x, c)

    big, small = constant(1.2e308), constant(1.2e308 / 1024.0)
    assert (
        expectation_on_grid(big, grid).value
        == 1024.0 * expectation_on_grid(small, grid).value
    )
    p, cfg = GaussianParams(0.0, 1.0), TileGridConfig()
    assert expectation(big, p, cfg).value == 1024.0 * expectation(small, p, cfg).value


def reference_on_grid(f, grid):
    """The truncated rule in one pass over the whole grid, summed by math.fsum."""
    xs = grid.coordinates
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        for points in (xs, 2.0 * grid.mu - xs):
            try:
                values.append(np.asarray(f(points), dtype=np.float64))
            except TypeError:
                values.append(np.array([f(float(x)) for x in points]))
        fx, fm = values
        corners = (fx[1:], fx[:-1], fm[1:], fm[:-1])
        means = 0.25 * sum(corners)
    lost = np.isinf(means)
    means[lost] = sum(0.25 * t[lost] for t in corners)
    weights = (means * grid.tile_mass).tolist()
    return math.fsum(weights) / (grid.n_pairs * grid.tile_mass)


def _big_beyond_the_first_piece(grid):
    # every pair from the one that ends on the first shared coordinate onward
    # overflows its corner sum, on both sides of each piece boundary
    edge = grid.coordinates[min(tt._PIECE, grid.n_pairs) - 1] - grid.mu
    return lambda x: np.where(np.abs(x - grid.mu) >= edge, 1.2e308, 1.0)


PIECE_INTEGRANDS = {
    "mgf": lambda grid: lambda x: np.exp(-2.0 * np.exp(x)),
    "cos": lambda grid: math.cos,  # scalar-only: evaluated point by point
    "big": lambda grid: lambda x: np.full_like(x, 1.2e308),
    "big-past-boundary": _big_beyond_the_first_piece,
}


@pytest.mark.parametrize("name", PIECE_INTEGRANDS)
# K = N - 1 pairs: 999; one piece and one pair; nine pieces and 6,271 pairs
@pytest.mark.parametrize(
    "n_pairs",
    [1_000, tt._PIECE + 2, 80_000],
    ids=["below-one-piece", "one-piece-plus-one", "many-pieces"],
)
def test_pieces_equal_the_whole_grid_rule(n_pairs, name):
    grid = build_grid(GaussianParams(0.3, 1.0), TileGridConfig(n_pairs=n_pairs))
    f = PIECE_INTEGRANDS[name](grid)
    est = expectation_on_grid(f, grid)
    assert est.value.hex() == reference_on_grid(f, grid).hex()
    assert est.n_evals == 2 * (grid.n_pairs + 1)


def test_a_bad_point_is_named_before_a_bad_mirror_of_an_earlier_piece():
    grid = build_grid(GaussianParams(0.0, 1.0), TileGridConfig())
    xs = grid.coordinates  # mu = 0: every mirror is exactly -x_n
    first_bad = 2 * tt._PIECE + 101
    lo, hi = xs[100], xs[first_bad - 1]

    def f(x):
        return np.where((x < -lo) | (x > hi), np.nan, 1.0)

    with pytest.raises(NonFiniteIntegrand, match="integrand non-finite") as exc_info:
        expectation_on_grid(f, grid)
    assert exc_info.value.x == xs[first_bad]


def test_an_integrand_finite_on_its_second_call_still_raises():
    # a stateful f: nan in the first piece, finite when the whole grid is
    # evaluated again to name the first bad point
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return np.full_like(x, np.nan if calls == 1 else 1.0)

    grid = build_grid(GaussianParams(0.0, 1.0), TileGridConfig())
    with pytest.raises(NonFiniteIntegrand) as exc_info:
        expectation_on_grid(f, grid)
    assert exc_info.value.x == grid.coordinates[0]


def test_a_warm_call_allocates_no_grid_sized_temporaries():
    q = MgfQuery(0.0, 1.0, -2.0)
    mgf_thintile(q)  # caches the standard grid
    tracemalloc.start()
    try:
        mgf_thintile(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (1 << 20)


# every mgf_thintile / mgf_asmussen table value: (thin_tile, laplace_w). The
# thin_tile values are the truncated rule summed with math.fsum over the
# weighted pair means. The laplace_w values are the Lambert-W leading term,
# times the Gauss-Hermite residual factor at theta < 0.
TABLE_HEX = {
    (1, 0.1): ("0x1.1b14778bc07c1p+0", "0x1.1b1462d04d406p+0"),
    (1, 0.3): ("0x1.5a3e08f7b26b0p+0", "0x1.5a3dbe1105f20p+0"),
    (1, 0.5): ("0x1.a7abdea84c4dfp+0", "0x1.a7ab4874941c2p+0"),
    (1, 1.0): ("0x1.5f7c3801bf296p+1", "0x1.5f7b4ab877fb6p+1"),
    (1, 1.2): ("0x1.aeb6622387e07p+1", "0x1.aeb50d2c7c09bp+1"),
    (2, -0.5): ("0x1.366476a133202p-1", "0x1.36647434392c0p-1"),
    (2, -1.0): ("0x1.78b5921db1a37p-2", "0x1.78b592330a923p-2"),
    (2, -2.0): ("0x1.163ef461d755ap-3", "0x1.163f059c9481ap-3"),
    (2, -4.0): ("0x1.331a7f0a477e3p-6", "0x1.331af00b47d1fp-6"),
    (2, -8.0): ("0x1.873307dfd74ccp-12", "0x1.8735eca123c50p-12"),
    (3, -0.5): ("0x1.1f98381998d27p-1", "0x1.1f981d199eabap-1"),
    (3, -1.0): ("0x1.86eacbf1019dfp-2", "0x1.86eb2aaca5400p-2"),
    (3, -2.0): ("0x1.bafe4d063d791p-3", "0x1.bb0017403d404p-3"),
    (3, -4.0): ("0x1.9198c7f51f6fdp-4", "0x1.919dc6882b74ep-4"),
    (3, -8.0): ("0x1.18b01d8f9a7ccp-5", "0x1.18bb4081afdb6p-5"),
}


def test_table_values_are_bit_identical_to_the_fsum_rule():
    got = {
        (table_id, theta): (
            mgf_thintile(MgfQuery(spec.mu, spec.sigma, theta)).value.hex(),
            mgf_asmussen(MgfQuery(spec.mu, spec.sigma, theta)).value.hex(),
        )
        for table_id, spec in TABLES.items()
        for theta in spec.thetas
    }
    assert got == TABLE_HEX


def _sum_outcome(total, w):
    try:
        return total(w).hex()
    except OverflowError:
        return "OverflowError"


def _fsum_list(w):
    return math.fsum(w.tolist())


def _fsum_parts(w):
    return math.fsum(_exact_parts(w))


_SUMMANDS = st.floats(allow_nan=False, allow_infinity=False) | st.builds(
    math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1000)
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_SUMMANDS, max_size=300), cancel=st.booleans())
@example(values=[], cancel=False)
@example(values=[-0.0, -0.0], cancel=False)
@example(values=[0.0, -0.0, 0.0], cancel=False)
@example(values=[5e-324, -5e-324, 5e-324], cancel=False)
@example(values=[1.5, 2.0**-60, 2.0**-120], cancel=True)
@example(values=[1.7e308, 1.7e308, -1.0], cancel=False)  # fsum overflows
@example(values=[1e308, 2.0**-1074], cancel=False)
@example(values=[1.0] * 32 + [-1.0] * 32 + [2.0**-200], cancel=False)  # remainder
def test_exact_parts_sum_to_fsum(values, cancel):
    w = np.array(values + [-v for v in reversed(values)] if cancel else values)
    assert _sum_outcome(_fsum_parts, w) == _sum_outcome(_fsum_list, w)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log2_n=st.floats(0.0, 21.0),
    e_lo=st.integers(-1074, 1023),
    span=st.integers(0, 2100),
    low=st.sampled_from([-1.0, 0.0, 0.5]),
    cancel=st.sampled_from([0.0, 0.5, 1.0]),
    zeros=st.booleans(),
)
@example(seed=1, log2_n=21.0, e_lo=-40, span=60, low=-1.0, cancel=0.0, zeros=False)
@example(seed=2, log2_n=21.0, e_lo=-1074, span=2100, low=-1.0, cancel=1.0, zeros=True)
@example(seed=3, log2_n=21.0, e_lo=-20, span=0, low=0.5, cancel=0.0, zeros=False)
@example(seed=4, log2_n=16.3, e_lo=-30, span=15, low=0.0, cancel=0.0, zeros=False)
def test_exact_parts_sum_to_fsum_on_large_arrays(
    seed, log2_n, e_lo, span, low, cancel, zeros
):
    # exponents from e_lo up to e_lo + span, mantissas in [low, 1) (low >= 0:
    # one sign, so the pass sums grow as fast as they can), a share of
    # exactly cancelling pairs and optional zeros, with n up to 2^21
    rng = np.random.default_rng(seed)
    n = int(2.0**log2_n)
    e = rng.integers(e_lo, min(e_lo + span, 1023), endpoint=True, size=n)
    w = np.ldexp(rng.uniform(low, 1.0, size=n), e)
    mirrored = rng.random(n) < cancel
    w = np.concatenate([w, -w[mirrored]])
    if zeros:
        w[rng.random(len(w)) < 0.5] = 0.0
    rng.shuffle(w)
    assert _sum_outcome(_fsum_parts, w) == _sum_outcome(_fsum_list, w)
