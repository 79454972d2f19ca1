"""The moment ODEs against a deterministic oracle: the Fokker–Planck law of y_t.

The zero-entropy ODEs track the mean and variance of the SDE
dy = (a + sign(theta) b e^y) dt + sigma dW, y_0 = log|theta|, with
a = mu + sigma^2/2 and b = sigma^2/2 (see logmgf.zeroentropy). Its density
p(y, t) obeys dp/dt = -dJ/dy with the flux J = A(y) p - D dp/dy,
A(y) = a + sign(theta) b e^y and D = sigma^2/2. The solver below steps that
law on a uniform grid:

- Scharfetter–Gummel fluxes (Scharfetter & Gummel, IEEE Trans. Electron
  Devices 16, 1969), exact for a constant drift across each face, so the
  scheme keeps p >= 0 whatever the drift's sign and size;
- reflecting ends: no flux through the two outer faces, so the mass stays 1;
- Crank–Nicolson in time after four implicit-Euler quarter steps, which damp
  the start from a point mass (Rannacher, Numer. Math. 43, 1984);
- scipy's banded solver for each step's tridiagonal system.

No path ensemble runs here: the oracle has no noise, so its distance from the
ODE is the ODE's own error.
"""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from logmgf import MgfQuery
from logmgf.tables import TABLES
from logmgf.zeroentropy import ZeroEntropyConfig, integrate

STEPS = 2000  # the Euler steps of the ODE under test
GRID_STEP = 0.01  # the oracle's coarse grid; it is also solved at half this step
FP_STEPS = 1000  # the oracle's time steps; four times as many move no moment by 1e-10 here


def _bernoulli(x):
    """x / (e^x - 1), with its limit 1 at x = 0."""
    out = np.ones_like(x)
    nonzero = x != 0.0
    out[nonzero] = x[nonzero] / np.expm1(x[nonzero])
    return out


def fokker_planck_moments(q, h):
    """Mean and variance of y_1, and the mass left in the two end cells.

    The grid's cells are h wide and centred on y_0, which starts with all the
    mass. It reaches 12 sigma, plus twice the starting drift, beyond y_0 on
    either side.
    """
    d = 0.5 * q.sigma**2
    a, b, sign = q.mu + d, d, math.copysign(1.0, q.theta)
    y0 = math.log(abs(q.theta))
    half = math.ceil((12 * q.sigma + 2 * abs(a + sign * b * math.exp(y0))) / h)
    y = y0 + h * np.arange(-half, half + 1)
    peclet = (a + sign * b * np.exp(y[:-1] + 0.5 * h)) * h / d  # at each inner face
    # J at the face between cells i and i + 1 is (D/h) (B(-P) p_i - B(P) p_{i+1})
    to_right, to_left = d / h**2 * _bernoulli(-peclet), d / h**2 * _bernoulli(peclet)
    diag = np.zeros_like(y)
    diag[:-1] -= to_right
    diag[1:] -= to_left

    def implicit(k):  # I - k L in solve_banded's layout
        return np.stack([np.r_[0.0, -k * to_left], 1.0 - k * diag, np.r_[-k * to_right, 0.0]])

    def explicit(k, p):  # (I + k L) p
        out = (1.0 + k * diag) * p
        out[:-1] += k * to_left * p[1:]
        out[1:] += k * to_right * p[:-1]
        return out

    p = np.zeros_like(y)
    p[half] = 1.0
    dt = 1.0 / FP_STEPS
    quarter = implicit(dt / 4)
    for _ in range(4):
        p = solve_banded((1, 1), quarter, p)
    crank_nicolson = implicit(dt / 2)
    for _ in range(FP_STEPS - 1):
        p = solve_banded((1, 1), crank_nicolson, explicit(dt / 2, p))
    mean = np.dot(y, p) / p.sum()
    return mean, np.dot((y - mean) ** 2, p) / p.sum(), p[0] + p[-1]


_POINTS = [(t, TABLES[t].mu, TABLES[t].sigma, theta) for t in (1, 2) for theta in TABLES[t].thetas]


@pytest.mark.parametrize("table, mu, sigma, theta", _POINTS,
                         ids=[f"table{t}-theta{theta:g}" for t, _, _, theta in _POINTS])
def test_the_kicked_ode_meets_the_fokker_planck_moments(table, mu, sigma, theta):
    """(m_1, v_1) of the kicked ODE against the oracle at tables 1 and 2.

    Both sides carry a numerical error, and the tolerance is their sum:
    - Euler's: the step-halving difference |E(N) - E(N/2)| estimates the error
      of E(N) at first order; four times it still covers an order of 1/3;
    - the oracle's: its error is of second order in the grid step, so the
      difference between the grid steps h and h/2 is three times the error of
      the h/2 solve, and the whole difference is allowed.
    The variance also carries the model's own gap. To first order in
    theta sigma^2 the variance ODE reads v' = sigma sqrt(v/t) + sign(theta)
    sigma^2 g v e^m; with v = sigma^2 t (1 + c t) that gives c = (2/3) theta
    sigma^2. The SDE gives Var' = sigma^2 + theta sigma^2 Var instead, so v_1
    overshoots Var[y_1] by theta sigma^4 / 6. That gap, 100 to 250 times
    Euler's error at these points, is taken off before the comparison.
    """
    q = MgfQuery(mu, sigma, theta)
    ode = integrate(q, ZeroEntropyConfig(STEPS, variance_kick=True))
    half = integrate(q, ZeroEntropyConfig(STEPS // 2, variance_kick=True))
    coarse_m, coarse_v, _ = fokker_planck_moments(q, GRID_STEP)
    fp_m, fp_v, ends = fokker_planck_moments(q, GRID_STEP / 2)
    assert ends < 1e-20  # the reflecting ends hold no mass that matters
    tol_m = 4 * abs(ode.m - half.m) + abs(fp_m - coarse_m)
    tol_v = 4 * abs(ode.v - half.v) + abs(fp_v - coarse_v)
    assert abs(ode.m - fp_m) <= tol_m
    assert abs(ode.v - theta * sigma**4 / 6 - fp_v) <= tol_v
    # the gap is the model's: without it the variance misses by far more
    assert abs(ode.v - fp_v) > 10 * tol_v
