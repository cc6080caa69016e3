import math

import numpy as np
import pytest

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
    st = dirac_state(256, kinetic.cosine_profile(a, theta0))
    op = order.global_order(st)
    dth = st.grid.dtheta
    assert abs(op.R - a) <= 5.0 * dth ** 2
    assert abs((op.phi - theta0 + math.pi) % TWO_PI - math.pi) <= 1e-10


def test_narrow_bump_limit():
    st = dirac_state(512, kinetic.von_mises_profile(400.0, 2.0))
    op = order.global_order(st)
    assert op.R > 0.995
    assert abs(op.phi - 2.0) < 1e-3


def test_local_order_single_slice_equals_global():
    st = dirac_state(128, kinetic.cosine_profile(0.3, 0.7))
    g = order.global_order(st)
    l = order.local_order(st, 0)
    assert l.R == pytest.approx(g.R, abs=1e-13)
    assert l.phi == pytest.approx(g.phi, abs=1e-13)


def test_local_order_zero_mass_slice_rejected():
    st = dirac_state(128, kinetic.cosine_profile(0.3))
    values = st.values.copy()
    values[0] = 0.0
    empty = kinetic.KineticState(st.grid, st.omega, st.weights, values, K=1.0)
    with pytest.raises(ValueError):
        order.local_order(empty, 0)


def multi_slice_state(n_theta=256, n_omega=8, K=2.0):
    """Slices with distinct profiles, so local order parameters differ."""
    grid = kinetic.PhaseGrid(n_theta)
    g = freq.uniform(0.5, n_nodes=n_omega)
    pairs = np.array(freq.quadrature_nodes(g, n_omega))
    values = np.empty((n_omega, n_theta))
    for k in range(n_omega):
        prof = kinetic.cosine_profile(0.1 + 0.04 * k, 0.3 * k)
        values[k] = kinetic.project_profile(grid, prof)
        values[k] /= values[k].sum() * grid.dtheta
    return kinetic.KineticState(grid, pairs[:, 0], pairs[:, 1], values, K=K)


def test_local_global_consistency():
    # the global phasor is the weight-folded sum of the local phasors
    st = multi_slice_state()
    g = order.global_order(st)
    dth = st.grid.dtheta
    cos_sum = 0.0
    sin_sum = 0.0
    for k in range(st.n_omega):
        l = order.local_order(st, k)
        mass_k = float(st.values[k].sum()) * dth
        cos_sum += st.weights[k] * mass_k * l.R * math.cos(l.phi - g.phi)
        sin_sum += st.weights[k] * mass_k * l.R * math.sin(l.phi - g.phi)
    assert abs(cos_sum - g.R) <= 5.0 * dth ** 2
    assert abs(sin_sum) <= 5.0 * dth ** 2


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
    states = [multi_slice_state(K=K), dirac_state(512, kinetic.von_mises_profile(6.0, 5.9), K=K)]
    for st in states:
        ops = [order.global_order(st)] + [
            order.OrderParams(rng.uniform(0.05, 1.0), rng.uniform(0.0, TWO_PI), True)
            for _ in range(10)]
        for op in ops:
            want = rates_direct(st, op)
            assert abs(order.rdot_formula(st, op) - want[0]) <= 1e-14
            assert abs(order.phidot_formula(st, op) - want[1]) <= 1e-14


def test_rdot_sign_for_identical_oscillators():
    st = dirac_state(256, kinetic.cosine_profile(0.25, 1.0))
    assert order.rdot_formula(st) >= 0.0


def test_rdot_vanishes_on_concentrated_state():
    # all mass in one cell: the average phase sits on the spike and the
    # sin^2 weight vanishes there exactly
    grid = kinetic.PhaseGrid(128)
    values = np.zeros((1, 128))
    values[0, 40] = 1.0 / grid.dtheta
    st = kinetic.KineticState(grid, np.zeros(1), np.ones(1), values, K=1.0)
    assert order.rdot_formula(st) == pytest.approx(0.0, abs=1e-15)


def test_rdot_requires_defined_phase():
    st = dirac_state(128, lambda th: np.full_like(th, 1.0 / TWO_PI))
    with pytest.raises(ValueError):
        order.rdot_formula(st)


def test_phidot_even_density_is_zero():
    st = dirac_state(256, kinetic.cosine_profile(0.3, 0.9))
    assert order.phidot_formula(st) == pytest.approx(0.0, abs=1e-12)


def test_phidot_bounded_on_random_states():
    st = multi_slice_state()
    op = order.global_order(st)
    M = float(np.max(np.abs(st.omega)))
    val = order.phidot_formula(st)
    assert abs(val) <= order.phidot_bound(op.R, M, st.K) + 1e-12


def test_phidot_bound_values():
    assert order.phidot_bound(1.0, 0.0, 3.0) == 0.0
    assert order.phidot_bound(1.0, 2.0, 5.0) == 2.0
    assert order.phidot_bound(0.5, 1.0, 4.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        order.phidot_bound(0.0, 1.0, 1.0)


def test_kinetic_potential_extremes():
    spike = dirac_state(512, kinetic.von_mises_profile(3000.0), K=2.0)
    assert order.kinetic_potential(spike) == pytest.approx(0.0, abs=1e-3)
    flat = dirac_state(128, lambda th: np.full_like(th, 1.0 / TWO_PI), K=2.0)
    assert order.kinetic_potential(flat) == pytest.approx(1.0, abs=1e-10)


def test_rate_formulas_match_short_run():
    # solver-vs-formula cross-check on a smooth identical-oscillator run
    st = dirac_state(128, kinetic.cosine_profile(0.2, 0.4), K=1.0)
    sample = 0.05
    res = kinetic.run(st, 1.0, sample, sampler=lambda s: s, cfl=0.5)
    states = res.records
    dth = st.grid.dtheta
    tol = 10.0 * (res.max_dt + dth ** 2)
    for i in range(1, len(states) - 1):
        r_prev = order.global_order(states[i - 1]).R
        r_next = order.global_order(states[i + 1]).R
        measured = (r_next - r_prev) / (2.0 * sample)
        assert abs(measured - order.rdot_formula(states[i])) <= tol
