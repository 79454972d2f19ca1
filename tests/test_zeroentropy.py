import io
import math
import os
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logmgf.gaussian as gaussian
import logmgf.zeroentropy as ze
from logmgf import (
    DivergenceError,
    DomainError,
    MgfQuery,
    OdeState,
    PathOverflow,
    RngSeed,
    ZeroEntropyConfig,
    ensemble_moments,
    integrate,
    integrate_with_info,
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


def _reference_drift_m(s, q):
    """m' at state s; OverflowError past the guard."""
    exponent = s.m + 0.5 * s.v
    if exponent > 700.0:
        raise OverflowError(f"moment drift exponent {exponent:.3g}")
    s2 = q.sigma * q.sigma
    return q.mu + 0.5 * s2 + q.sign_theta * 0.5 * s2 * math.exp(exponent)


def _reference_radicand(s, q):
    """The expression under v's square root at state s; OverflowError where
    a term leaves the float range."""
    if 2.0 * s.m + s.v > 700.0 or s.m + 0.5 * s.v > 700.0:
        raise OverflowError("variance drift exponent")
    g = math.sqrt(1.0 + 0.5 * q.sigma * q.sigma)
    s2 = q.sigma * q.sigma
    radicand = (
        s.v * s2 / s.t
        + s.v * s2 * s2 * g * g * math.expm1(s.v) * math.exp(2.0 * s.m + s.v)
        + q.sign_theta
        * 2.0
        * (q.sigma**3 / math.sqrt(s.t))
        * g
        * s.v**1.5
        * math.exp(s.m + 0.5 * s.v)
    )
    if not math.isfinite(radicand):
        raise OverflowError("variance radicand")
    return radicand


def _reference_drift_v(s, q):
    """v' at state s, or None where the radicand is negative."""
    radicand = _reference_radicand(s, q)
    return None if radicand < 0.0 else math.sqrt(radicand)


def test_drift_m_direct_substitution():
    # every term cancels at the fixed point of the theta=-1 start
    assert _reference_drift_m(OdeState(0.0, 0.0, 0.0), MgfQuery(0.0, 0.1, -1.0)) == 0.0
    got = _reference_drift_m(OdeState(0.0, 0.0, 0.0), MgfQuery(0.0, 0.1, 0.5))
    assert got == pytest.approx(0.01, rel=1e-15)


def test_drift_m_frozen_oracle():
    # mpmath 40-digit evaluation of the drift at (m=-1, v=0.04, sigma=0.0625)
    got = _reference_drift_m(OdeState(0.2, -1.0, 0.04), MgfQuery(0.0, 0.0625, -2.0))
    assert got == pytest.approx(0.0012200955100558603, rel=1e-14)


def test_drift_m_overflow_guard():
    with pytest.raises(OverflowError):
        _reference_drift_m(OdeState(0.5, 800.0, 0.0), MgfQuery(0.0, 1.0, 2.0))


def test_drift_v_small_time_limit():
    # with v = sigma^2 * t the radicand tends to sigma^4
    q = MgfQuery(0.0, 0.3, -1.0)
    t = 1e-10
    got = _reference_drift_v(OdeState(t, 0.0, 0.09 * t), q)
    assert got == pytest.approx(0.09, rel=1e-4)


def test_drift_v_zero_variance_is_fixed_point():
    for theta in (-2.0, 0.7):
        got = _reference_radicand(OdeState(1.0, 0.3, 0.0), MgfQuery(0.0, 0.5, theta))
        assert got == 0.0


def test_drift_v_frozen_oracle():
    # mpmath 40-digit evaluation at (t=0.5, m=0, v=0.005, sigma=0.1, theta=-1)
    got = _reference_drift_v(OdeState(0.5, 0.0, 0.005), MgfQuery(0.0, 0.1, -1.0))
    assert got == pytest.approx(0.009949750004739704, rel=1e-13)


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
    try:
        radicand = _reference_radicand(OdeState(t, m, v), MgfQuery(0.0, sigma, theta))
    except OverflowError:
        return
    if radicand < 0.0:
        assert abs(radicand) < 1e-12, "radicand materially negative"


def test_integrator_clamps_and_counts(monkeypatch):
    calls = {"n": 0}

    def negative_expm1(x):
        calls["n"] += 1
        return -1e300  # drives the radicand, still finite, below zero

    # math as zeroentropy sees it, with e^v - 1 replaced
    zeroentropy_math = types.SimpleNamespace(**dict(vars(math), expm1=negative_expm1))
    monkeypatch.setattr(ze, "math", zeroentropy_math)
    q = MgfQuery(0.0, 0.1, 1.0)  # positive theta so v_0 > 0 engages v'
    state, info = integrate_with_info(q, ZeroEntropyConfig(steps=100))
    assert calls["n"] == 100
    assert info.clamped_steps == 100
    assert state.v == 0.1 * 0.1  # clamped flat at v_0


@pytest.mark.parametrize(
    "mu, sigma, theta, kick, step, message",
    [
        (0.0, 1.0, 5.0, False, 73, "moment drift exponent 8.39e+44 exceeds guard 700"),
        (0.0, 0.1, 5e173, False, 0, "variance drift exponent exceeds guard 700"),
        # e^v - 1 overflows while 2m + v stays below the guard
        (0.0, 28.28, 1e-30, False, 0, "variance drift exponent exceeds guard 700"),
        (0.0, 1e200, -1.0, True, 1, "variance radicand nan at t=0.0005 is not finite"),
    ],
    ids=["moment exponent", "2m + v", "e^v - 1", "radicand"],
)
def test_each_guard_raises_divergence_with_its_step(mu, sigma, theta, kick, step, message):
    with pytest.raises(DivergenceError) as exc_info:
        integrate(MgfQuery(mu, sigma, theta), ZeroEntropyConfig(variance_kick=kick))
    assert str(exc_info.value) == f"diverged at step {step}: {message}"
    assert exc_info.value.step == step


def test_first_euler_step_forced():
    # kick mode: the first step must add exactly sigma^2 * dt to v and keep
    # m at zero for theta = -1
    q = MgfQuery(0.0, 0.1, -1.0)
    cfg = ZeroEntropyConfig(steps=10, variance_kick=True)
    states = [OdeState(*s) for s in ze._euler(q, cfg, ze.IntegrationInfo())]
    assert states[0] == OdeState(0.0, 0.0, 0.0)
    assert states[1].m == 0.0
    assert states[1].v == pytest.approx(1e-3, rel=1e-12)


def test_initial_variance_depends_on_sign_and_gamma():
    cfg, info = ZeroEntropyConfig(), ze.IntegrationInfo()
    _, _, v_pos = next(ze._euler(MgfQuery(0.0, 0.2, 1.0), cfg, info))
    assert v_pos == pytest.approx(0.04, rel=1e-12)
    _, _, v_neg = next(ze._euler(MgfQuery(0.0, 0.2, -1.0), cfg, info))
    assert v_neg == 0.0


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
        vs = [v for _, _, v in ze._euler(q, ZeroEntropyConfig(steps=500), ze.IntegrationInfo())]
        assert all(b >= a for a, b in zip(vs, vs[1:]))


def test_trajectory_csv():
    buf = io.StringIO()
    trajectory_csv(MgfQuery(0.0, 0.1, -1.0), ZeroEntropyConfig(steps=50), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "i,t,m,v"
    assert len(lines) == 52  # initial state + 50 steps + header
    assert lines[1].startswith("0,0.0,")


def test_closed_form_mends_unstable_euler_step():
    # 200 Euler steps overshoot on the first step here (b e^m is about 2e6)
    # and used to return 1.0 with m_1 = -8990.8; exactly, u_1 = b/a = 0.2
    est = mgf_zero_entropy(MgfQuery(800.0, 20.0, -1e4), ZeroEntropyConfig(steps=200))
    assert est.diagnostics["m_1"] == pytest.approx(math.log(5.0), rel=1e-15)
    assert est.value == pytest.approx(math.exp(-5.0), rel=1e-14)
    assert est.diagnostics["v_1"] == 0.0
    assert est.diagnostics["steps"] == 0.0
    assert est.diagnostics["clamped_steps"] == 0.0


def test_closed_form_edges():
    # a = mu + sigma^2/2 = 0: u_1 = 1/|theta| + b
    est = mgf_zero_entropy(MgfQuery(-0.5, 1.0, -4.0))
    assert est.diagnostics["m_1"] == pytest.approx(-math.log(0.75), rel=1e-15)
    # e^{-a} overflows: m_1 = log|theta| + a - log(1 + b|theta|/|a|) stays
    # finite and the value is its limit, 1
    est = mgf_zero_entropy(MgfQuery(-800.0, 1.0, -2.0))
    assert est.diagnostics["m_1"] == pytest.approx(
        math.log(2.0) - 799.5 - math.log1p(1.0 / 799.5), rel=1e-15
    )
    assert est.value == 1.0
    # sigma^2 underflows to 0: m' = a, so m_1 = log|theta| + mu
    est = mgf_zero_entropy(MgfQuery(3.0, 1e-200, -2.0))
    assert est.diagnostics["m_1"] == pytest.approx(math.log(2.0) + 3.0, rel=1e-15)
    with pytest.raises(DomainError):
        mgf_zero_entropy(MgfQuery(0.0, 1e200, -1.0))


@pytest.mark.parametrize(
    "mu, sigma, theta",
    [
        (0.0, 1.0, -0.5),  # |theta| < 1: e^m rises towards a/b
        (-0.5, 1.0, -2.0),  # a = 0 exactly
        (0.0, 0.0625, -4.0),
        (0.3, 0.5, -8.0),
    ],
)
def test_euler_converges_to_closed_form_at_first_order(mu, sigma, theta):
    q = MgfQuery(mu, sigma, theta)
    exact = mgf_zero_entropy(q).diagnostics["m_1"]
    gaps = [abs(integrate(q, ZeroEntropyConfig(steps=n)).m - exact) for n in (500, 1000, 2000)]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 0.45 <= fine / coarse <= 0.55


def _reference_states(q, cfg, clamps):
    """The Euler loop as it was with one OdeState per drift call; clamped
    steps are appended to `clamps`."""
    dt = 1.0 / cfg.steps
    m = math.log(abs(q.theta))
    v = q.sigma * q.sigma if q.theta > 0.0 and not cfg.variance_kick else 0.0
    yield OdeState(0.0, m, v)
    for i in range(cfg.steps):
        try:
            dm = _reference_drift_m(OdeState(i * dt, m, v), q)
            if cfg.variance_kick and i == 0:
                dv = q.sigma * q.sigma
            elif v == 0.0:
                dv = 0.0
            else:
                dv = _reference_drift_v(OdeState(max(i, 1) * dt, m, v), q)
                if dv is None:  # negative radicand
                    dv = 0.0
                    clamps.append(i)
        except OverflowError as exc:
            raise DivergenceError(f"diverged at step {i}", i) from exc
        m += dm * dt
        v += dv * dt
        yield OdeState((i + 1) * dt, m, v)


def _euler_run(states, info):
    """(m_1.hex, v_1.hex, clamped steps, divergence step, CSV bytes) of one
    trajectory; info() reads the clamp count once the states are spent."""
    buf = io.StringIO()
    buf.write("i,t,m,v\n")
    state = None
    try:
        for i, state in enumerate(states):
            buf.write(f"{i},{state.t!r},{state.m!r},{state.v!r}\n")
    except DivergenceError as exc:
        return None, None, info(), exc.step, buf.getvalue()
    return state.m.hex(), state.v.hex(), info(), None, buf.getvalue()


def _assert_euler_bit_identical(q, cfg):
    clamps = []
    expected = _euler_run(_reference_states(q, cfg, clamps), lambda: len(clamps))
    info = ze.IntegrationInfo()
    got = _euler_run(
        (OdeState(*state) for state in ze._euler(q, cfg, info)), lambda: info.clamped_steps
    )
    assert got == expected
    # the two public consumers of the same loop
    buf = io.StringIO()
    try:
        trajectory_csv(q, cfg, buf)
    except DivergenceError:
        pass
    assert buf.getvalue() == expected[4]
    try:
        state, info = integrate_with_info(q, cfg)
    except DivergenceError as exc:
        assert exc.step == expected[3]
    else:
        assert (state.m.hex(), state.v.hex(), info.clamped_steps) == expected[:3]


@pytest.mark.parametrize(
    "mu, sigma, theta, kick",
    [(mu, s, t, False) for mu, s, t in TABLE1_SETS]
    + [(mu, s, t, True) for mu, s, t in TABLE1_SETS + TABLE2_SETS + TABLE3_SETS]
    + [(0.0, 1.0, 5.0, False)]  # diverges
    # 2m + v passes the guard; e^v - 1 overflows below it
    + [(0.0, 0.1, 5e173, False), (0.0, 28.28, 1e-30, False)]
    # sigma^3 overflows: the step that first needs it diverges
    + [(0.0, 1e200, 1.0, False), (0.0, 1e200, -1.0, True), (1e308, 1e308, 1e308, False)],
)
def test_euler_bit_identical_to_reference_on_tables(mu, sigma, theta, kick):
    _assert_euler_bit_identical(
        MgfQuery(mu, sigma, theta), ZeroEntropyConfig(variance_kick=kick)
    )


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(-1.0, 1.0),
    sigma=st.floats(0.01, 3.0),
    theta=st.floats(0.05, 8.0) | st.floats(-8.0, -0.05),
    steps=st.integers(10, 400),
)
def test_euler_bit_identical_to_reference(mu, sigma, theta, steps):
    # theta < 0 only with the kick: without it v stays 0 and the closed form
    # answers instead
    q = MgfQuery(mu, sigma, theta)
    _assert_euler_bit_identical(q, ZeroEntropyConfig(steps, variance_kick=theta < 0.0))


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


@pytest.mark.parametrize("mu, sigma, theta", TABLE1_SETS)
def test_kicked_ode_matches_the_paths_at_positive_theta(mu, sigma, theta):
    # criterion 7's statistic on table 1: with the kick the ODE starts at
    # v_0 = 0, where the paths start, for either sign of theta
    q = MgfQuery(mu, sigma, theta)
    steps = 400
    ens = simulate_paths(q, 20_000, steps, RngSeed(42))
    mom = ensemble_moments(ens.terminal_values)
    state = integrate(q, ZeroEntropyConfig(steps=steps, variance_kick=True))
    n = ens.n_paths
    se_mean = math.sqrt(mom["variance"] / n)
    se_var = mom["variance"] * math.sqrt(2.0 / (n - 1))
    assert abs(mom["mean"] - state.m) <= 4.0 * se_mean
    assert abs(mom["variance"] - state.v) <= 4.0 * se_var


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
        # five blocks, and a small buffer: chunks of steps, the last one partial
        (MgfQuery(0.3, 0.7, -0.5), 4500, 700, 9, 2048 * 300),
        # fewer paths than CPUs (at cpus=3): one share per path
        (MgfQuery(0.0, 0.5, -2.0), 2, 40, 5, ze._SHOCK_FLOATS),
    ],
    ids=["partial-block", "overflow", "chunked", "fewer-paths-than-cpus"],
)
def test_paths_match_unthreaded_reference(
    monkeypatch, cpus, q, n_paths, steps, seed, shock_floats
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(ze, "_SHOCK_FLOATS", shock_floats)
    expected, n_overflowed = _unthreaded_simulate(q, n_paths, steps, RngSeed(seed))
    ens = simulate_paths(q, n_paths, steps, RngSeed(seed))
    assert np.array_equal(ens.terminal_values, expected)
    assert ens.n_overflowed == n_overflowed
    assert ens.n_paths == n_paths - n_overflowed
    if q.theta > 0.0:
        assert 0 < n_overflowed < n_paths


@pytest.mark.parametrize("accepted", [0, 1, 4])
def test_shares_the_pool_refuses_are_drawn_once_by_the_caller(monkeypatch, accepted):
    # a pool that takes the first `accepted` shares and then refuses every
    # job, as the process's pool does once the interpreter is shutting down:
    # three shares per chunk, two of them offered to the pool, one chunk per
    # block, three blocks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    pool, taken, refused = gaussian._pool(), [], []

    class Refusing:
        def submit(self, fn, *args):
            if len(taken) == accepted:
                refused.append(args)
                raise RuntimeError("cannot schedule new futures after interpreter shutdown")
            taken.append(args)
            return pool.submit(fn, *args)

    monkeypatch.setattr(gaussian, "_executor", Refusing())
    q = MgfQuery(0.0, 0.25, -4.0)
    expected, _ = _unthreaded_simulate(q, 2500, 300, RngSeed(42))
    ens = simulate_paths(q, 2500, 300, RngSeed(42))
    assert np.array_equal(ens.terminal_values, expected)
    assert (len(taken), len(refused)) == (accepted, 6 - accepted)


def test_one_usable_cpu_draws_every_share_without_a_pool(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(gaussian, "_executor", None)
    q = MgfQuery(0.0, 0.25, -4.0)
    expected, _ = _unthreaded_simulate(q, 2500, 300, RngSeed(42))
    ens = simulate_paths(q, 2500, 300, RngSeed(42))
    assert gaussian._executor is None
    assert np.array_equal(ens.terminal_values, expected)


def test_paths_hold_one_small_shock_buffer():
    # a memory bound, not a timing gate: criterion 7's 8192 x 2000 ensemble
    # once held 35.9 MiB of shocks at its traced peak
    q = MgfQuery(0.0, 0.0625, -1.0)
    simulate_paths(q, 8192, 2000, RngSeed(1))  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        simulate_paths(q, 8192, 2000, RngSeed(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_paths_overflow_flagged():
    with pytest.raises(PathOverflow):
        simulate_paths(MgfQuery(0.0, 1.0, 20.0), 8, 50, RngSeed(1))


def test_shocks_beyond_the_float_range_raise_path_overflow():
    # sigma * sqrt(dt) * z overflows in the drawing threads, whose error state
    # is numpy's default; a warning there would escape as a RuntimeWarning
    with pytest.raises(PathOverflow):
        simulate_paths(MgfQuery(0.0, 1e308, -1.0), 64, 1, RngSeed(0))


def test_moments_beyond_the_float_range_raise_path_overflow():
    with pytest.raises(PathOverflow):
        ensemble_moments(np.array([-1e308, -1e308]))  # the sum for the mean
    with pytest.raises(PathOverflow):
        ensemble_moments(np.array([-1e308, 1e308]))  # the sum of squares


def test_paths_rejects_theta_zero():
    with pytest.raises(DomainError):
        simulate_paths(MgfQuery(0.0, 1.0, 0.0), 10, 10, RngSeed(0))


def test_paths_reject_zero_steps():
    with pytest.raises(DomainError, match="steps must be >= 1"):
        simulate_paths(MgfQuery(0.0, 1.0, -1.0), 10, 0, RngSeed(0))


def test_paths_beyond_the_substream_keys_raise_before_allocating():
    # path p's sub-stream key needs p < 2^32; the check comes before the
    # 32 GiB terminal array and before any path is stepped
    with pytest.raises(DomainError, match=r"2\^32"):
        simulate_paths(MgfQuery(0.0, 1.0, -1.0), 2**32 + 1, 10, RngSeed(0))


def test_ensemble_moments_gaussian_sample():
    draws = np.random.default_rng(17).standard_normal(200_000)
    mom = ensemble_moments(draws)
    assert mom["mean"] == pytest.approx(0.0, abs=0.01)
    assert mom["variance"] == pytest.approx(1.0, abs=0.02)
    assert abs(mom["skewness"]) < 0.03
    assert abs(mom["excess_kurtosis"]) < 0.06
