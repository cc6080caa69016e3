import math

import numpy as np
import pytest

from kslab import diagnostics as diag
from kslab import frequency as freq
from kslab import kinetic, order

TWO_PI = 2.0 * math.pi


def dirac_state(n_theta, profile, K=1.0):
    grid = kinetic.PhaseGrid(n_theta)
    return kinetic.state_from_profile(grid, freq.dirac_at_zero(), 1, K, profile)


def test_uniform_density_has_zero_amplitude():
    st = dirac_state(128, lambda th: np.full_like(th, 1.0 / TWO_PI))
    op = order.global_order(st)
    assert op.R <= 1e-12
    assert not op.defined


@pytest.mark.parametrize("a,theta0", [(0.2, 0.0), (0.35, 1.3), (0.5, 4.0)])
def test_cosine_profile_amplitude_and_phase(a, theta0):
    st = dirac_state(256, freq.cosine_profile(a, theta0))
    op = order.global_order(st)
    dth = st.grid.dtheta
    assert abs(op.R - a) <= 5.0 * dth ** 2
    assert abs((op.phi - theta0 + math.pi) % TWO_PI - math.pi) <= 1e-10


def test_narrow_bump_limit():
    st = dirac_state(512, freq.von_mises_profile(400.0, 2.0))
    op = order.global_order(st)
    assert op.R > 0.995
    assert abs(op.phi - 2.0) < 1e-3


def multi_slice_state(n_theta=256, n_omega=8, K=2.0):
    """Slices with distinct profiles, so their order parameters differ."""
    grid = kinetic.PhaseGrid(n_theta)
    g = freq.uniform(0.5)
    pairs = np.array(freq.quadrature_nodes(g, n_omega))
    values = np.empty((n_omega, n_theta))
    for k in range(n_omega):
        prof = freq.cosine_profile(0.1 + 0.04 * k, 0.3 * k)
        values[k] = kinetic.project_profile(grid, prof)
        values[k] /= values[k].sum() * grid.dtheta
    return kinetic.KineticState(grid, pairs[:, 0], pairs[:, 1], values, K=K)


def test_local_global_consistency():
    # the global phasor is the weight-folded sum of the slice phasors
    st = multi_slice_state()
    g = order.global_order(st)
    dth = st.grid.dtheta
    z = sum(st.weights[k] * order.phasor(st.grid, np.ones(1), st.values[k:k + 1])
            for k in range(st.n_omega))
    z *= complex(math.cos(g.phi), -math.sin(g.phi))
    assert abs(z.real - g.R) <= 5.0 * dth ** 2
    assert abs(z.imag) <= 5.0 * dth ** 2


def test_moment_identity():
    st = multi_slice_state()
    op = order.global_order(st)
    dth = st.grid.dtheta
    rho = st.marginal_density()
    resid = float(np.sin(st.grid.centers - op.phi) @ rho) * dth
    assert abs(resid) <= 5.0 * dth ** 2


def test_rotation_invariance():
    st = multi_slice_state()
    op = order.global_order(st)
    shift = 37
    rolled = kinetic.KineticState(st.grid, st.omega, st.weights,
                                  np.roll(st.values, shift, axis=1), K=st.K)
    op2 = order.global_order(rolled)
    assert abs(op2.R - op.R) <= 1e-12
    expected = (op.phi + shift * st.grid.dtheta) % TWO_PI
    assert abs((op2.phi - expected + math.pi) % TWO_PI - math.pi) <= 1e-10


def rates(state, op=None):
    """The solver's closed-form (dR/dt, dphi/dt), by default at the state's
    own order parameters."""
    op = order.global_order(state) if op is None else op
    return order._rates(state, op, state.marginal_density())


def rates_direct(state, op):
    """dR/dt and dphi/dt with one sin/cos call per cell: the oracle for the
    table-based rate formulas."""
    dth = state.grid.dtheta
    d = state.grid.centers - op.phi
    s = np.sin(d)
    rho = state.weights @ state.values
    wo = state.weights * state.omega
    rdot = (-float(np.sum(wo * (state.values @ s * dth)))
            + state.K * op.R * float(rho @ (s * s)) * dth)
    phidot = (float(np.sum(wo * (state.values @ np.cos(d) * dth))) / op.R
              - 0.5 * state.K * float(rho @ np.sin(2.0 * d)) * dth)
    return rdot, phidot


@pytest.mark.parametrize("K", [0.0, 2.0, 9.0])
def test_rate_formulas_match_direct_trig(K):
    rng = np.random.default_rng(8)
    states = [multi_slice_state(K=K), dirac_state(512, freq.von_mises_profile(6.0, 5.9), K=K)]
    for st in states:
        ops = [order.global_order(st)] + [
            order.OrderParams(rng.uniform(0.05, 1.0), rng.uniform(0.0, TWO_PI), True)
            for _ in range(10)]
        for op in ops:
            want = rates_direct(st, op)
            got = rates(st, op)
            assert abs(got[0] - want[0]) <= 1e-14
            assert abs(got[1] - want[1]) <= 1e-14


def test_rdot_sign_for_identical_oscillators():
    st = dirac_state(256, freq.cosine_profile(0.25, 1.0))
    assert rates(st)[0] >= 0.0


def test_rdot_vanishes_on_concentrated_state():
    # all mass in one cell: the average phase sits on the spike and the
    # sin^2 weight vanishes there exactly
    grid = kinetic.PhaseGrid(128)
    values = np.zeros((1, 128))
    values[0, 40] = 1.0 / grid.dtheta
    st = kinetic.KineticState(grid, np.zeros(1), np.ones(1), values, K=1.0)
    assert rates(st)[0] == pytest.approx(0.0, abs=1e-15)


def test_rdot_requires_defined_phase():
    st = dirac_state(128, lambda th: np.full_like(th, 1.0 / TWO_PI))
    with pytest.raises(ValueError):
        rates(st)


def test_phidot_even_density_is_zero():
    st = dirac_state(256, freq.cosine_profile(0.3, 0.9))
    assert rates(st)[1] == pytest.approx(0.0, abs=1e-12)


def test_phidot_bounded_on_random_states():
    st = multi_slice_state()
    op = order.global_order(st)
    M = float(np.max(np.abs(st.omega)))
    val = rates(st)[1]
    assert abs(val) <= order.phidot_bound(op.R, M, st.K) + 1e-12


def test_phidot_bound_values():
    assert order.phidot_bound(1.0, 0.0, 3.0) == 0.0
    assert order.phidot_bound(1.0, 2.0, 5.0) == 2.0
    assert order.phidot_bound(0.5, 1.0, 4.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        order.phidot_bound(0.0, 1.0, 1.0)


def test_kinetic_potential_extremes():
    spike = dirac_state(512, freq.von_mises_profile(3000.0), K=2.0)
    assert order.kinetic_potential(spike, order.global_order(spike)) == pytest.approx(
        0.0, abs=1e-3)
    flat = dirac_state(128, lambda th: np.full_like(th, 1.0 / TWO_PI), K=2.0)
    assert order.kinetic_potential(flat, order.global_order(flat)) == pytest.approx(
        1.0, abs=1e-10)


def test_rate_formulas_match_short_run():
    # solver-vs-formula cross-check on a smooth identical-oscillator run
    st = dirac_state(128, freq.cosine_profile(0.2, 0.4), K=1.0)
    sample = 0.05
    res = kinetic.run(st, 1.0, sample, sampler=lambda s, op: s, cfl=0.5)
    states = res.records
    dth = st.grid.dtheta
    tol = 10.0 * (res.max_dt + dth ** 2)
    for i in range(1, len(states) - 1):
        r_prev = order.global_order(states[i - 1]).R
        r_next = order.global_order(states[i + 1]).R
        measured = (r_next - r_prev) / (2.0 * sample)
        assert abs(measured - rates(states[i])[0]) <= tol


# ---------------------------------------------------------------------------
# the shared fixed-step RK4 path against the loops each solver had before it


def riccati_reference(T, eta, beta_T, M, K, horizon):
    r_minus, r_plus = diag.r_pm(eta, M, K)
    tau = 4.0 * diag.SQRT3 / (K * max(r_plus - r_minus, 1e-12))
    n_steps = max(400, int(math.ceil(horizon / (0.02 * tau))))
    h = horizon / n_steps
    ts = T + h * np.arange(n_steps + 1)
    betas = np.empty(n_steps + 1)
    b = float(beta_T)
    betas[0] = b
    for i in range(n_steps):
        b = order.rk4_step(lambda t, beta: diag.riccati_rhs(beta, eta, M, K), ts[i], b, h)
        betas[i + 1] = b
    return ts, betas


def barrier_reference(p_star, t_star, T_kappa, kappa, K, eps_kappa):
    p_lim = math.sqrt(1.0 - eps_kappa ** 2)
    p0 = np.asarray(p_star, dtype=float)
    span = t_star - T_kappa
    n_steps = max(100, int(math.ceil(span * kappa * K / 0.005)))
    h = -span / n_steps
    ts = t_star + h * np.arange(n_steps + 1)
    ps = np.empty((n_steps + 1,) + p0.shape)
    p = np.clip(p0, -p_lim, p_lim)
    ps[0] = p
    for i in range(n_steps):
        q = order.rk4_step(lambda t, q: diag.barrier_speed(q, kappa, K, eps_kappa), ts[i], p, h)
        p = np.clip(q, -p_lim, p_lim)
        ps[i + 1] = p
    return ts[::-1].copy(), ps[::-1].copy()


def characteristics_reference(series, theta0, omega0, t0, t1, K):
    theta0 = np.asarray(theta0, dtype=float)
    omega0 = np.asarray(omega0, dtype=float)
    span = t1 - t0
    max_step = min(0.01 / (1.0 + K * float(np.max(series.R))
                           + float(np.max(np.abs(omega0)))),
                   float(np.min(np.diff(series.ts))))
    n = max(1, int(np.ceil(abs(span) / max_step)))
    h = span / n
    ts = t0 + h * np.arange(n + 1)
    out = np.empty((n + 1,) + np.broadcast_shapes(theta0.shape, omega0.shape))
    th = np.broadcast_to(theta0, out.shape[1:]).astype(float).copy()
    out[0] = th

    def rhs(t, theta):
        R, phi = series.interp(t)
        return omega0 - K * R * np.sin(theta - phi)

    for i in range(n):
        th = order.rk4_step(rhs, ts[i], th, h)
        out[i + 1] = th
    return ts, out


def assert_paths_equal(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("T, eta, beta_T, M, K, horizon", [
    (0.0, 0.0, 0.9, 0.01, 5.0, 3.0),
    (1.5, 0.01, 0.5, 0.02, 10.0, 20.0),       # more than 400 steps
    (0.0, 0.0, 0.75, 0.0, 2.0, 1.0),
])
def test_riccati_path_matches_old_loop(T, eta, beta_T, M, K, horizon):
    want = riccati_reference(T, eta, beta_T, M, K, horizon)
    assert_paths_equal(diag.riccati_solve(T, eta, beta_T, M, K, horizon), want)


@pytest.mark.parametrize("p_star", ["scalar", "array", "edge"])
def test_barrier_path_matches_old_loop(p_star):
    kappa, K, M = 0.75, 8.0, 0.05
    eps_kappa = diag.epsilon_kappa(kappa, M, K)[0]
    p_lim = math.sqrt(1.0 - eps_kappa ** 2)
    start = {"scalar": 0.3,
             "array": np.array([[-0.5, 0.0], [0.2, 0.6]]),
             # on the band edge, and past it by less than the 1e-12 allowance
             "edge": np.array([p_lim, -p_lim, p_lim + 5e-13])}[p_star]
    want = barrier_reference(start, 2.0, 0.5, kappa, K, eps_kappa)
    got = diag.barrier_solve(start, 2.0, 0.5, kappa, K, eps_kappa)
    assert_paths_equal(got, want)
    assert np.all(np.abs(got[1]) <= p_lim)


def wavy_series():
    ts = np.linspace(0.0, 3.0, 61)
    return kinetic.OrderSeries(ts, 0.5 + 0.3 * np.sin(ts), 0.4 * ts + 0.2 * np.cos(2 * ts))


@pytest.mark.parametrize("theta0, omega0, t0, t1", [
    (2.5, 0.1, 0.0, 1.5),                                    # scalar, forward
    (2.5, 0.1, 2.7, 0.4),                                    # scalar, backward
    (np.array([[0.0], [1.0], [4.0]]), np.array([-0.2, 0.0, 0.3, 0.5]), 0.3, 2.9),
    (np.array([0.5, 3.0]), 0.05, 3.0, 0.0),                  # array, backward
])
def test_characteristics_path_matches_old_loop(theta0, omega0, t0, t1):
    series = wavy_series()
    want = characteristics_reference(series, theta0, omega0, t0, t1, K=1.5)
    assert_paths_equal(kinetic.characteristics(series, theta0, omega0, t0, t1, K=1.5), want)


def literal_rk4(f, t, y, h):
    """The classical RK4 step written out: y + (h/6)(k1 + 2 k2 + 2 k3 + k4)."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def float_ode(t, y):
    return math.sin(3.0 * y) * math.cos(t) - 0.7 * y * y


def array_ode(t, y):
    return np.sin(3.0 * y) * np.cos(t) - 0.7 * y * y


@pytest.mark.parametrize("f, y0", [(float_ode, 0.3), (float_ode, -1.7),
                                   (array_ode, np.array([[-0.5, 0.1], [0.2, 2.0]]))])
@pytest.mark.parametrize("t, h", [(0.0, 0.1), (1.3, -0.37), (-2.0, 1e-3)])
def test_rk4_step_is_the_literal_tableau(f, y0, t, h):
    # rk4_increment sums k2, k3 and k4 in place in the formula's order, so
    # the step keeps the bits of the formula, on a float and an array ODE
    y = y0.copy() if isinstance(y0, np.ndarray) else y0
    got = order.rk4_step(f, t, y, h)
    want = literal_rk4(f, t, y0, h)
    assert type(got) is type(want)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(y, y0)


def test_rk4_increment_leaves_its_first_slope_unchanged():
    y = np.array([-0.5, 0.1, 0.2, 2.0])
    k1 = array_ode(0.4, y)
    kept = k1.copy()
    inc = order.rk4_increment(lambda s, d: array_ode(s, y + d), 0.4, 0.05, k1)
    np.testing.assert_array_equal(k1, kept)
    np.testing.assert_array_equal(y + inc, literal_rk4(array_ode, 0.4, y, 0.05))


def test_rk4_path_projects_each_step():
    ts, ys = order.rk4_path(lambda t, y: np.ones_like(y), 1.0, np.zeros(2), 0.25, 4,
                            project=lambda y: np.minimum(y, 0.6))
    np.testing.assert_array_equal(ts, 1.0 + 0.25 * np.arange(5))
    np.testing.assert_array_equal(ys[:, 0], [0.0, 0.25, 0.5, 0.6, 0.6])


@pytest.mark.parametrize("t0, t_end, sample_every, n", [
    (0.0, 1.0, 0.1, 10), (0.3, 0.8, 0.1, 5), (2.0, 2.0, 0.1, 0),
    (0.0, 0.3, 0.1, 3),             # 0.3 / 0.1 rounds to 2.9999999999999996
    (0.0, 1.0000000001, 0.1, 10),   # within 1e-9 of 10 intervals
    (0.0, 0.9999999999, 0.1, 10)])
def test_sample_count(t0, t_end, sample_every, n):
    assert order.sample_count(t0, t_end, sample_every) == n


@pytest.mark.parametrize("t_end, sample_every, match", [
    (0.25, 0.1, "whole number of sample intervals"),
    (math.inf, 0.1, "whole number of sample intervals"),
    (1.0, 5e-324, "whole number of sample intervals"),     # the span overflows
    (-0.1, 0.1, "must not precede"), (math.nan, 0.1, "must not precede"),
    (1.0, 0.0, "sample_every must be positive"), (1.0, -0.1, "sample_every must be positive"),
    (1.0, math.nan, "sample_every must be positive")])
def test_sample_count_rejects(t_end, sample_every, match):
    with pytest.raises(ValueError, match=match):
        order.sample_count(0.0, t_end, sample_every)
