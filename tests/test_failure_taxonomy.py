"""Every mgf_* method returns a finite value or raises a LogMgfError."""

import io
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logmgf
from logmgf import (
    DomainError,
    GaussianParams,
    LogMgfError,
    McConfig,
    Method,
    MgfQuery,
    RngSeed,
    TABLES,
    TileGridConfig,
    ZeroEntropyConfig,
    build_grid,
    ensemble_moments,
    expectation,
    expectation_on_grid,
    integrate,
    integrate_with_info,
    lambert_w0,
    mgf_asmussen,
    mgf_monte_carlo,
    mgf_thintile,
    mgf_zero_entropy,
    simulate_paths,
)
from logmgf.zeroentropy import trajectory_csv

# small engines: the failure modes depend on (mu, sigma, theta), not on size
METHODS = {
    "zero_entropy": lambda q: mgf_zero_entropy(q, ZeroEntropyConfig(steps=200)),
    "thin_tile": lambda q: mgf_thintile(q, TileGridConfig(n_pairs=2_000)),
    "laplace_w": mgf_asmussen,
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
@example(mu=0.0, sigma=28.28, theta=1e-30)  # zero_entropy: e^v - 1 in the radicand
# the closed form for theta < 0: e^{-a} overflows (the value is 1), and a = 0
@example(mu=-800.0, sigma=1.0, theta=-2.0)
@example(mu=-0.5, sigma=1.0, theta=-2.0)
def test_finite_value_or_typed_error(method, mu, sigma, theta):
    try:
        est = METHODS[method](MgfQuery(mu, sigma, theta))
    except LogMgfError:
        return
    assert math.isfinite(est.value)


Q = MgfQuery(0.0, 1.0, -1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: mgf_monte_carlo(Q, McConfig(seed=5)),
        lambda: McConfig(n_samples=1e6),
        lambda: RngSeed(1.5),
        lambda: TileGridConfig(n_pairs=2.5),
        lambda: ZeroEntropyConfig(steps=20.5),
        lambda: simulate_paths(Q, 10, 10, 3),
        lambda: simulate_paths(Q, 10.0, 10, RngSeed(0)),
        lambda: simulate_paths(Q, 10, 10.5, RngSeed(0)),
        lambda: mgf_thintile(Q, 2000),
        lambda: mgf_zero_entropy(Q, 200),
        lambda: mgf_monte_carlo(Q, {"n_samples": 2000}),
        lambda: mgf_thintile(Q, 0),
        lambda: mgf_zero_entropy(Q, ""),
        lambda: mgf_monte_carlo(Q, {}),
        lambda: mgf_thintile(Q, McConfig()),
        lambda: ZeroEntropyConfig(variance_kick="no"),
        lambda: ZeroEntropyConfig(variance_kick=1),
    ],
    ids=["mc seed", "n_samples", "RngSeed", "n_pairs", "steps", "paths seed", "n_paths", "paths steps",
         "tile cfg", "zero cfg", "mc cfg", "falsy tile cfg", "falsy zero cfg", "falsy mc cfg",
         "other cfg", "variance_kick str", "variance_kick int"],
)
def test_wrong_typed_seeds_and_sizes_raise_domain_error(make):
    with pytest.raises(DomainError):
        make()


QUERY_ENTRY_POINTS = {
    **METHODS,
    "simulate_paths": lambda q: simulate_paths(q, 2, 10, RngSeed(0)),
    "integrate": lambda q: integrate(q, ZeroEntropyConfig(steps=10)),
}


@pytest.mark.parametrize(
    "q", [(0.0, 1.0, -1.0), None, GaussianParams(0.0, 1.0)], ids=["tuple", "None", "GaussianParams"]
)
@pytest.mark.parametrize("run", QUERY_ENTRY_POINTS.values(), ids=QUERY_ENTRY_POINTS.keys())
def test_a_query_of_another_type_raises_domain_error(run, q):
    with pytest.raises(DomainError, match="q must be a MgfQuery"):
        run(q)


GRID_ENTRY_POINTS = {
    "build_grid": lambda p: build_grid(p, TileGridConfig(n_pairs=100)),
    "expectation": lambda p: expectation(np.exp, p, TileGridConfig(n_pairs=100)),
}


@pytest.mark.parametrize("run", GRID_ENTRY_POINTS.values(), ids=GRID_ENTRY_POINTS.keys())
def test_grid_entry_points_take_any_gaussian_law_and_type_check_it(run):
    run(GaussianParams(0.0, 1.0))
    run(MgfQuery(0.0, 1.0, -1.0))
    for p in [(0.0, 1.0), None]:
        with pytest.raises(DomainError, match="p must be a GaussianParams"):
            run(p)


def _csv_writes_nothing(q, cfg):
    sink = io.StringIO()
    try:
        trajectory_csv(q, cfg, sink)
    finally:
        assert sink.getvalue() == ""  # the check runs before the header


ZERO_ENTROPY_CFG_ENTRY_POINTS = {
    "integrate": lambda cfg: integrate(Q, cfg),
    "integrate_with_info": lambda cfg: integrate_with_info(Q, cfg),
    "trajectory_csv": lambda cfg: _csv_writes_nothing(Q, cfg),
}
TILE_CFG_ENTRY_POINTS = {
    "build_grid": lambda cfg: build_grid(Q, cfg),
    "expectation": lambda cfg: expectation(np.exp, Q, cfg),
}


@pytest.mark.parametrize(
    "cfg", [None, 5, TileGridConfig(n_pairs=100)], ids=["None", "int", "TileGridConfig"]
)
@pytest.mark.parametrize(
    "run", ZERO_ENTROPY_CFG_ENTRY_POINTS.values(), ids=ZERO_ENTROPY_CFG_ENTRY_POINTS.keys()
)
def test_a_required_zero_entropy_config_of_another_type_raises_domain_error(run, cfg):
    with pytest.raises(DomainError, match="cfg must be a ZeroEntropyConfig"):
        run(cfg)


@pytest.mark.parametrize(
    "cfg", [None, 5, ZeroEntropyConfig(steps=10)], ids=["None", "int", "ZeroEntropyConfig"]
)
@pytest.mark.parametrize("run", TILE_CFG_ENTRY_POINTS.values(), ids=TILE_CFG_ENTRY_POINTS.keys())
def test_a_required_tile_config_of_another_type_raises_domain_error(run, cfg):
    with pytest.raises(DomainError, match="cfg must be a TileGridConfig"):
        run(cfg)


@pytest.mark.parametrize(
    "grid", [None, 5, TileGridConfig(n_pairs=100)], ids=["None", "int", "TileGridConfig"]
)
def test_a_grid_of_another_type_raises_domain_error(grid):
    with pytest.raises(DomainError, match="grid must be a TileGrid"):
        expectation_on_grid(np.exp, grid)


@pytest.mark.parametrize("f", [None, 5], ids=["None", "int"])
def test_an_integrand_that_is_not_callable_raises_domain_error(f):
    cfg = TileGridConfig(n_pairs=100)
    grid = build_grid(Q, cfg)
    for run in (lambda: expectation(f, Q, cfg), lambda: expectation_on_grid(f, grid)):
        with pytest.raises(DomainError, match="f must be callable"):
            run()


@pytest.mark.parametrize(
    "f, dtype",
    [(lambda x: "a", "<U1"), (lambda x: 1j * x * x, "complex128")],
    ids=["text", "complex"],
)
def test_an_integrand_without_real_values_raises_domain_error(f, dtype):
    # text once escaped as numpy's ValueError; a complex value lost its
    # imaginary part to a ComplexWarning, and 1j * x^2 averaged to 0.0
    cfg = TileGridConfig(n_pairs=100)
    grid = build_grid(Q, cfg)
    for run in (lambda: expectation(f, Q, cfg), lambda: expectation_on_grid(f, grid)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"f must return real numbers.*{dtype}"):
                run()


@pytest.mark.parametrize(
    "make",
    [
        lambda: MgfQuery("0", 1.0, 1.0),
        lambda: MgfQuery(0.0, "1", 1.0),
        lambda: MgfQuery(0.0, 1.0, None),
        lambda: MgfQuery(0.0, 1.0, 1j),
        lambda: GaussianParams(None, 1.0),
        lambda: GaussianParams(0.0, None),
        lambda: lambert_w0("x"),
        lambda: MgfQuery(0.0, 1.0, np.complex128(-1 + 1j)),
        lambda: MgfQuery(np.complex64(0), 1.0, -1.0),
        lambda: GaussianParams(0.0, complex(1, 0)),
        lambda: MgfQuery(0.0, 1.0, np.array(-1 + 1j)),
        lambda: lambert_w0(np.complex128(1)),
    ],
    ids=["str mu", "str sigma", "None theta", "complex theta", "None mu", "None sigma", "str x",
         "numpy complex theta", "numpy complex mu", "real complex sigma", "0-d complex array",
         "numpy complex x"],
)
def test_a_scalar_that_is_not_real_raises_domain_error(make):
    # numpy's float() of a complex value warns and drops the imaginary part
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="must be a real number"):
            make()


def test_real_scalars_of_every_numeric_type_are_still_accepted():
    for mu, sigma, theta in [
        (0, True, -1),
        (np.float32(0.5), np.int8(2), np.float64(-1.0)),
        (Fraction(1, 3), Fraction(1, 2), Fraction(-2)),
        (Decimal("0.5"), Decimal("0.25"), Decimal("-1")),
    ]:
        assert MgfQuery(mu, sigma, theta).theta == theta
    for x in [0, True, np.float32(0.5), Fraction(1, 2)]:
        assert lambert_w0(x).residual <= 1e-12


def _outcome(run, q):
    """An estimate's value and diagnostics as hex, or its exception's type and message."""
    try:
        est = run(q)
    except LogMgfError as exc:
        return type(exc), str(exc)
    return est.value.hex(), {k: v.hex() for k, v in est.diagnostics.items()}


def _retyped(x: float, kind: str):
    return {"int": int, "numpy": np.float64, "Fraction": Fraction, "Decimal": Decimal}[kind](x)


@settings(max_examples=30, deadline=None)
@given(
    mu=st.floats(-2.0, 2.0) | st.integers(-2, 2).map(float),
    sigma=st.floats(0.05, 1.5) | st.just(1.0),
    theta=st.floats(-8.0, 1.2) | st.integers(-8, 1).map(float),
    kind=st.sampled_from(["int", "numpy", "Fraction", "Decimal"]),
)
def test_every_real_type_gives_the_estimate_of_its_float(mu, sigma, theta, kind):
    fields = [_retyped(x, kind) if kind != "int" or x.is_integer() else x
              for x in (mu, sigma, theta)]
    q = MgfQuery(*fields)
    assert all(type(x) is float for x in (q.mu, q.sigma, q.theta))
    for run in METHODS.values():
        assert _outcome(run, q) == _outcome(run, MgfQuery(mu, sigma, theta))


def test_an_int_or_fraction_past_the_float_range_is_not_finite():
    for fields in [(10**400, 1.0, -1.0), (0.0, 1.0, Fraction(-10**400))]:
        with pytest.raises(DomainError, match="must be finite"):
            MgfQuery(*fields)


def test_a_theta_the_table_does_not_print_raises_domain_error():
    assert TABLES[1].paper_value(Method.THIN_TILE, 0.3) == 1.352509
    with pytest.raises(DomainError, match=r"thetas \(0.1, 0.3, 0.5, 1.0, 1.2\), not 0.2"):
        TABLES[1].paper_value(Method.THIN_TILE, 0.2)


def test_numpy_integers_are_integers():
    assert McConfig(n_samples=np.int64(1_000), seed=RngSeed(np.uint64(7))).n_samples == 1_000
    assert TileGridConfig(n_pairs=np.int32(2)).n_pairs == 2
    assert ZeroEntropyConfig(steps=np.int16(10)).steps == 10
    assert ZeroEntropyConfig(variance_kick=np.bool_(True)).variance_kick


@pytest.mark.parametrize("mu", [-800.0, 0.0, 800.0])
def test_every_method_gives_exactly_one_at_theta_zero(mu):
    # M(0) = 1 even where e^x overflows and theta * e^x would be 0 * inf
    q = MgfQuery(mu, 1.0, 0.0)
    assert {name: run(q).value for name, run in METHODS.items()} == dict.fromkeys(
        METHODS, 1.0
    )


def test_every_exported_name_resolves_and_errors_are_typed():
    namespace = {}
    exec("from logmgf import *", namespace)  # AttributeError on a stale name
    assert set(logmgf.__all__) <= namespace.keys()
    errors = [v for v in namespace.values() if isinstance(v, type) and issubclass(v, Exception)]
    assert errors and all(issubclass(e, LogMgfError) for e in errors)


@pytest.mark.parametrize(
    "values",
    [np.array([]), [], 3.0, [[1.0, 2.0], [3.0, 5.0]]],
    ids=["empty array", "empty list", "scalar", "2-D"],
)
def test_ensemble_moments_of_an_empty_or_shaped_sample_raise_domain_error(values):
    with pytest.raises(DomainError, match="non-empty 1-D sample"):
        ensemble_moments(values)


@pytest.mark.parametrize(
    "values",
    [["a"], [[1.0], [1.0, 2.0]], object()],
    ids=["string", "ragged", "object"],
)
def test_ensemble_moments_of_a_non_numeric_sample_raise_domain_error(values):
    with pytest.raises(DomainError, match="numeric sample"):
        ensemble_moments(values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ensemble_moments_of_a_non_finite_sample_raise_domain_error(bad):
    with pytest.raises(DomainError, match="holds nan or inf"):
        ensemble_moments([1.0, bad, 2.0])


def test_ensemble_moments_take_a_plain_list():
    sample = [1.0, 2.0, 4.0]
    assert ensemble_moments(sample) == ensemble_moments(np.array(sample))
