import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logmgf.zeroentropy as ze
from logmgf import (
    DivergenceError,
    DomainError,
    MgfQuery,
    NegativeRadicand,
    OdeState,
    PathOverflow,
    RngSeed,
    ZeroEntropyConfig,
    drift_m,
    drift_v,
    ensemble_moments,
    integrate,
    integrate_with_info,
    iter_states,
    mgf_zero_entropy,
    simulate_paths,
)
from logmgf.zeroentropy import trajectory_csv

TABLE1_SETS = [(0.0, 0.1, t) for t in (0.1, 0.3, 0.5, 1.0, 1.2)]
TABLE2_SETS = [(0.0, 0.0625, t) for t in (-0.5, -1.0, -2.0, -4.0, -8.0)]
TABLE3_SETS = [(0.0, 1.0, t) for t in (-0.5, -1.0, -2.0, -4.0, -8.0)]


def test_config_validation():
    with pytest.raises(DomainError):
        ZeroEntropyConfig(steps=5)


def test_drift_m_direct_substitution():
    # every term cancels at the fixed point of the theta=-1 start
    assert drift_m(OdeState(0.0, 0.0, 0.0), MgfQuery(0.0, 0.1, -1.0)) == 0.0
    assert drift_m(OdeState(0.0, 0.0, 0.0), MgfQuery(0.0, 0.1, 0.5)) == pytest.approx(
        0.01, rel=1e-15
    )


def test_drift_m_frozen_oracle():
    # mpmath 40-digit evaluation of the drift at (m=-1, v=0.04, sigma=0.0625)
    got = drift_m(OdeState(0.2, -1.0, 0.04), MgfQuery(0.0, 0.0625, -2.0))
    assert got == pytest.approx(0.0012200955100558603, rel=1e-14)


def test_drift_m_overflow_guard():
    with pytest.raises(OverflowError):
        drift_m(OdeState(0.5, 800.0, 0.0), MgfQuery(0.0, 1.0, 2.0))


def test_drift_v_small_time_limit():
    # with v = sigma^2 * t the radicand tends to sigma^4
    q = MgfQuery(0.0, 0.3, -1.0)
    t = 1e-10
    got = drift_v(OdeState(t, 0.0, 0.09 * t), q)
    assert got == pytest.approx(0.09, rel=1e-4)


def test_drift_v_zero_variance_is_fixed_point():
    for theta in (-2.0, 0.7):
        got = drift_v(OdeState(1.0, 0.3, 0.0), MgfQuery(0.0, 0.5, theta))
        assert got == 0.0


def test_drift_v_frozen_oracle():
    # mpmath 40-digit evaluation at (t=0.5, m=0, v=0.005, sigma=0.1, theta=-1)
    got = drift_v(OdeState(0.5, 0.0, 0.005), MgfQuery(0.0, 0.1, -1.0))
    assert got == pytest.approx(0.009949750004739704, rel=1e-13)


def test_drift_v_rejects_bad_states():
    q = MgfQuery(0.0, 0.1, -1.0)
    with pytest.raises(DomainError):
        drift_v(OdeState(0.0, 0.0, 0.01), q)
    with pytest.raises(DomainError):
        drift_v(OdeState(0.5, 0.0, -0.01), q)


@settings(max_examples=300)
@given(
    t=st.floats(1e-6, 1.0),
    m=st.floats(-20.0, 20.0),
    v=st.floats(1e-300, 5.0),
    sigma=st.floats(0.01, 3.0),
    theta=st.sampled_from([-4.0, -1.0, -0.25, 0.5, 2.0]),
)
def test_drift_v_radicand_never_negative(t, m, v, sigma, theta):
    # the radicand is (a-b)^2 + b^2*((e^v-1)/v - 1) >= 0, so clamping can only
    # ever fire on floating-point noise at the tangency
    q = MgfQuery(0.0, sigma, theta)
    try:
        got = drift_v(OdeState(t, m, v), q)
    except OverflowError:
        return
    except NegativeRadicand as exc:
        assert abs(exc.radicand) < 1e-12, "radicand materially negative"
        return
    assert got >= 0.0


def test_integrator_clamps_and_counts(monkeypatch):
    calls = {"n": 0}

    def explode(s, q):
        calls["n"] += 1
        raise NegativeRadicand("forced", s.t, -1.0)

    monkeypatch.setattr(ze, "drift_v", explode)
    q = MgfQuery(0.0, 0.1, 1.0)  # positive theta so v_0 > 0 engages drift_v
    state, info = integrate_with_info(q, ZeroEntropyConfig(steps=100))
    assert calls["n"] == 100
    assert info.clamped_steps == 100
    assert state.v == 0.1 * 0.1  # clamped flat at v_0


def test_first_euler_step_forced():
    # kick mode: the first step must add exactly sigma^2 * dt to v and keep
    # m at zero for theta = -1
    q = MgfQuery(0.0, 0.1, -1.0)
    cfg = ZeroEntropyConfig(steps=10, variance_kick=True)
    states = list(iter_states(q, cfg))
    assert states[0] == OdeState(0.0, 0.0, 0.0)
    assert states[1].m == 0.0
    assert states[1].v == pytest.approx(1e-3, rel=1e-12)


def test_initial_variance_depends_on_sign_and_gamma():
    pos = next(iter_states(MgfQuery(0.0, 0.2, 1.0), ZeroEntropyConfig()))
    assert pos.v == pytest.approx(0.04, rel=1e-12)
    neg = next(iter_states(MgfQuery(0.0, 0.2, -1.0), ZeroEntropyConfig()))
    assert neg.v == 0.0


def test_variance_frozen_without_kick_for_negative_theta():
    state = integrate(MgfQuery(0.0, 0.0625, -2.0), ZeroEntropyConfig())
    assert state.v == 0.0
    kicked = integrate(MgfQuery(0.0, 0.0625, -2.0),
                       ZeroEntropyConfig(variance_kick=True))
    assert kicked.v > 0.0


def test_integrate_published_rows():
    est = mgf_zero_entropy(MgfQuery(0.0, 0.0625, -1.0))
    assert est.value == pytest.approx(0.367879, abs=2e-6)
    est = mgf_zero_entropy(MgfQuery(0.0, 1.0, -8.0))
    assert est.value == pytest.approx(0.118724, abs=1e-3)
    est = mgf_zero_entropy(MgfQuery(0.0, 0.1, 0.1))
    assert est.value == pytest.approx(1.105780, abs=2e-4)
    est = mgf_zero_entropy(MgfQuery(0.0, 0.1, 1.2))
    assert est.value == pytest.approx(3.365088, abs=2e-4)


def test_theta_zero_short_circuits():
    est = mgf_zero_entropy(MgfQuery(0.0, 1.0, 0.0))
    assert est.value == 1.0
    with pytest.raises(DomainError):
        integrate(MgfQuery(0.0, 1.0, 0.0), ZeroEntropyConfig())


def test_divergence_error_carries_step():
    with pytest.raises(DivergenceError) as exc_info:
        mgf_zero_entropy(MgfQuery(0.0, 1.0, 5.0))
    assert 0 <= exc_info.value.step <= 2000


def test_step_refinement_stability():
    for mu, sigma, theta in TABLE1_SETS + TABLE2_SETS:
        q = MgfQuery(mu, sigma, theta)
        m_coarse = integrate(q, ZeroEntropyConfig(steps=2000)).m
        m_fine = integrate(q, ZeroEntropyConfig(steps=4000)).m
        assert abs(m_coarse - m_fine) <= 1e-6


def test_small_sigma_limit():
    for theta in (-2.0, -1.0, 0.5):
        est = mgf_zero_entropy(MgfQuery(0.0, 1e-4, theta))
        assert est.value == pytest.approx(math.exp(theta), rel=1e-6)


def test_variance_monotone_non_decreasing():
    for mu, sigma, theta in TABLE1_SETS + TABLE2_SETS + TABLE3_SETS:
        q = MgfQuery(mu, sigma, theta)
        vs = [s.v for s in iter_states(q, ZeroEntropyConfig(steps=500))]
        assert all(b >= a for a, b in zip(vs, vs[1:]))


def test_trajectory_csv():
    buf = io.StringIO()
    trajectory_csv(MgfQuery(0.0, 0.1, -1.0), ZeroEntropyConfig(steps=50), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "i,t,m,v"
    assert len(lines) == 52  # initial state + 50 steps + header
    assert lines[1].startswith("0,0.0,")


def test_paths_drift_only_limit():
    q = MgfQuery(0.4, 1e-6, -1.0)
    ens = simulate_paths(q, 200, 100, RngSeed(3))
    assert np.allclose(ens.terminal_values, 0.4, atol=1e-4)


def test_paths_deterministic_and_prefix_stable():
    q = MgfQuery(0.0, 0.5, -1.0)
    a = simulate_paths(q, 50, 100, RngSeed(11))
    b = simulate_paths(q, 50, 100, RngSeed(11))
    assert np.array_equal(a.terminal_values, b.terminal_values)
    # path p depends only on (seed, p), not on how many paths run alongside
    c = simulate_paths(q, 10, 100, RngSeed(11))
    assert np.array_equal(a.terminal_values[:10], c.terminal_values)


def test_paths_match_ode_moments():
    q = MgfQuery(0.0, 0.0625, -1.0)
    steps = 400
    ens = simulate_paths(q, 20_000, steps, RngSeed(42))
    mom = ensemble_moments(ens.terminal_values)
    state = integrate(q, ZeroEntropyConfig(steps=steps, variance_kick=True))
    n = ens.n_paths
    se_mean = math.sqrt(mom["variance"] / n)
    se_var = mom["variance"] * math.sqrt(2.0 / (n - 1))
    assert abs(mom["mean"] - state.m) <= 4.0 * se_mean
    assert abs(mom["variance"] - state.v) <= 4.0 * se_var
    # the estimator built from the empirical mean lands on the published row
    assert math.exp(-math.exp(mom["mean"])) == pytest.approx(0.367879, abs=1e-3)


def _unthreaded_simulate(q, n_paths, steps, seed, overflow_guard=700.0):
    """The simulator as it was before threading: a (paths, steps) shock matrix
    per 2048-path block, each row one SeedSequence((seed, p)) stream, stepped
    one strided column at a time on one thread."""
    dt = 1.0 / steps
    sqrt_dt = math.sqrt(dt)
    y0 = math.log(abs(q.theta))
    s2h = 0.5 * q.sigma * q.sigma
    base_drift = q.mu + s2h
    sign = q.sign_theta
    terminal = np.empty(n_paths)
    for start in range(0, n_paths, 2048):
        stop = min(start + 2048, n_paths)
        shocks = np.empty((stop - start, steps))
        for j, p in enumerate(range(start, stop)):
            stream = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence((seed.seed, p)))
            )
            shocks[j] = stream.standard_normal(steps)
        y = np.full(stop - start, y0)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(steps):
                y += (base_drift + sign * s2h * np.exp(y)) * dt
                y += q.sigma * sqrt_dt * shocks[:, i]
                if sign > 0.0:
                    y[y > overflow_guard] = np.inf
        terminal[start:stop] = y
    keep = np.isfinite(terminal) & (terminal <= overflow_guard)
    return terminal[keep], int(n_paths - keep.sum())


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize(
    "q, n_paths, steps, seed, shock_floats",
    [
        # two blocks, the second partial; one chunk of steps
        (MgfQuery(0.0, 0.25, -4.0), 2500, 300, 42, ze._SHOCK_FLOATS),
        # some paths overflow and are dropped
        (MgfQuery(0.0, 1.0, 3.0), 3000, 50, 7, ze._SHOCK_FLOATS),
        # three blocks on two workers, and a small buffer: chunks of steps,
        # the last one partial
        (MgfQuery(0.3, 0.7, -0.5), 4500, 700, 9, 2048 * 300),
    ],
    ids=["partial-block", "overflow", "chunked"],
)
def test_paths_match_unthreaded_reference(
    monkeypatch, cpus, q, n_paths, steps, seed, shock_floats
):
    monkeypatch.setattr(ze.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(ze, "_SHOCK_FLOATS", shock_floats)
    expected, n_overflowed = _unthreaded_simulate(q, n_paths, steps, RngSeed(seed))
    ens = simulate_paths(q, n_paths, steps, RngSeed(seed))
    assert np.array_equal(ens.terminal_values, expected)
    assert ens.n_overflowed == n_overflowed
    assert ens.n_paths == n_paths - n_overflowed
    if q.theta > 0.0:
        assert 0 < n_overflowed < n_paths


def test_paths_overflow_flagged():
    with pytest.raises(PathOverflow):
        simulate_paths(MgfQuery(0.0, 1.0, 20.0), 8, 50, RngSeed(1))


def test_moments_beyond_the_float_range_raise_path_overflow():
    with pytest.raises(PathOverflow):
        ensemble_moments(np.array([-1e308, -1e308]))  # the sum for the mean
    with pytest.raises(PathOverflow):
        ensemble_moments(np.array([-1e308, 1e308]))  # the sum of squares


def test_paths_rejects_theta_zero():
    with pytest.raises(DomainError):
        simulate_paths(MgfQuery(0.0, 1.0, 0.0), 10, 10, RngSeed(0))


def test_ensemble_moments_gaussian_sample():
    draws = np.random.default_rng(17).standard_normal(200_000)
    mom = ensemble_moments(draws)
    assert mom["mean"] == pytest.approx(0.0, abs=0.01)
    assert mom["variance"] == pytest.approx(1.0, abs=0.02)
    assert abs(mom["skewness"]) < 0.03
    assert abs(mom["excess_kurtosis"]) < 0.06
