import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from kslab import frequency as freq
from kslab import kinetic, particle
from kslab.order import _from_phasor, rk4_step

TWO_PI = 2.0 * math.pi


def rhs_direct(thetas, omegas, K):
    """O(N^2) oracle: thetadot_i = omega_i + (K/N) sum_j sin(theta_j - theta_i)."""
    diff = thetas[None, :] - thetas[:, None]
    return omegas + (K / thetas.size) * np.sin(diff).sum(axis=1)


def rk4_direct(thetas, omegas, K, dt):
    """One classical RK4 step of the direct-sum right-hand side."""
    k1 = rhs_direct(thetas, omegas, K)
    k2 = rhs_direct(thetas + 0.5 * dt * k1, omegas, K)
    k3 = rhs_direct(thetas + 0.5 * dt * k2, omegas, K)
    k4 = rhs_direct(thetas + dt * k3, omegas, K)
    return thetas + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4(state, dt):
    """One RK4 step of a state (``_mean_field_step``) from the exact trig of
    its phases, the rotation planned for this step as ``run_particles``
    plans it for a run; t advances by dt."""
    rotation = particle._rotation(state.omegas, state.K, dt)
    thetas = state.thetas + particle._mean_field_step(particle._unit(state.thetas), state.omegas,
                                                      state.K, dt, rotation)
    return particle.ParticleState(thetas, state.omegas, state.K, t=state.t + dt)


def mean_field_rhs(thetas, omegas, K):
    """The mean-field drift of phases (..., N), one system per row, from the
    exact trig of the phases."""
    return particle._drift(particle._unit(thetas), omegas, K)[0]


@pytest.mark.parametrize("K", [-1.0, math.nan, math.inf])
def test_state_rejects_a_negative_or_non_finite_coupling(K):
    # NaN passed the old K < 0 check, and a run returned NaN rows
    with pytest.raises(ValueError, match="coupling strength must be finite and nonnegative"):
        particle.ParticleState(np.array([0.1, 0.2]), np.zeros(2), K=K)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_state_rejects_non_finite_phases(bad):
    with pytest.raises(ValueError, match="thetas and omegas must be finite"):
        particle.ParticleState(np.array([0.1, bad]), np.zeros(2), K=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_state_rejects_non_finite_frequencies(bad):
    with pytest.raises(ValueError, match="thetas and omegas must be finite"):
        particle.ParticleState(np.array([0.1, 0.2]), np.array([bad, 0.0]), K=1.0)


def test_rotation_plan_rejects_an_overflowing_step_bound():
    # finite inputs whose bound |dt| (max|omega| + K) overflows: m doublings
    # of an infinite bound never reach ROTATION_MAX
    with pytest.raises(ValueError, match="is not finite"):
        particle._rotation(np.array([1e308]), 1e308, 10.0)


def test_rhs_single_oscillator():
    st = particle.ParticleState(np.array([0.7]), np.array([1.3]), K=2.0)
    assert particle.particle_rhs(st) == pytest.approx([1.3])


def test_rhs_antipodal_pair_is_stationary_coupling():
    st = particle.ParticleState(np.array([0.0, math.pi]), np.array([0.4, 0.4]), K=3.0)
    assert particle.particle_rhs(st) == pytest.approx([0.4, 0.4], abs=1e-15)


def test_rhs_three_oscillators_brute_force():
    # hand/brute-force oracle: thetadot_i = omega_i + (K/N) sum_j sin(th_j - th_i)
    thetas = np.array([0.0, math.pi / 2.0, math.pi])
    st = particle.ParticleState(thetas, np.zeros(3), K=1.0)
    oracle = np.array([sum(math.sin(tj - ti) for tj in thetas) / 3.0
                       for ti in thetas])
    assert oracle == pytest.approx([1.0 / 3.0, 0.0, -1.0 / 3.0])
    assert particle.particle_rhs(st) == pytest.approx(oracle, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 500])
def test_mean_field_and_direct_rhs_agree(n):
    rng = np.random.default_rng(n)
    th = rng.uniform(-10.0, 10.0, n)
    om = rng.normal(0, 1, n)
    for K in (0.0, 1.7, 6.0):
        st = particle.ParticleState(th, om, K=K)
        a = particle.particle_rhs(st)
        assert np.max(np.abs(a - rhs_direct(th, om, K))) <= 1e-13
        if K == 0.0:
            np.testing.assert_array_equal(a, om)


def test_batched_rhs_rows_are_single_systems():
    # a leading batch axis runs independent systems, each row bit-identical
    # to the 1-d call
    rng = np.random.default_rng(12)
    th = rng.uniform(-5.0, 5.0, (7, 40))
    om = rng.normal(0.0, 1.0, 40)
    def rhs(t, thetas):
        return mean_field_rhs(thetas, om, 1.3)

    batched = rhs(0.0, th)
    stepped = rk4_step(rhs, 0.0, th, 0.05)
    for i in range(th.shape[0]):
        np.testing.assert_array_equal(batched[i], rhs(0.0, th[i]))
        np.testing.assert_array_equal(stepped[i], rk4_step(rhs, 0.0, th[i], 0.05))


def largest_bound(terms: int) -> float:
    """The largest step bound at which the rule picks the given Taylor terms:
    (2^-55 (2 terms)!)^(1/(2 terms)), capped at ROTATION_MAX, less 1e-9."""
    exact = (2.0 ** -55 * math.factorial(2 * terms)) ** (1.0 / (2 * terms))
    return min(particle.ROTATION_MAX, exact) * (1.0 - 1e-9)


@pytest.mark.parametrize("bound, terms", [(0.021, 4), (0.05, 5), (0.1, 5), (0.1001, 5),
                                          (0.0, 2)])
def test_taylor_terms_follow_the_step_bound(bound, terms):
    # the fewest terms whose first omitted term at bound / 2^m is below
    # 2^-55; particle-mf and criterion 8 step at 0.021, criterion 10 at 0.05,
    # and 0.1001 takes one doubling
    assert particle._rotation(np.array([0.0, -0.5, 0.25]), 0.5, bound)[0] == terms
    assert particle._rotation(0.0, 1.0, bound)[0] == terms


@pytest.mark.parametrize("bound, doublings", [(0.021, 0), (0.1, 0), (0.1001, 1), (0.2, 1),
                                              (0.4, 2), (1.6, 4), (1.61, 5)])
def test_doublings_follow_the_step_bound(bound, doublings):
    # the fewest doublings m with bound / 2^m <= ROTATION_MAX; K = 10 at
    # dt 0.01 (bound 0.1 + 0.01 max|omega|) takes one
    assert particle._rotation(np.array([0.0, -0.5, 0.25]), 0.5, bound)[1] == doublings
    assert particle._rotation(0.0, 1.0, bound)[1] == doublings


def test_rotation_matches_trig():
    # exp(i y), y = theta + d, from exp(i theta), in versine form (a carried
    # table, ``_rotate``) and in one pass (a stage's, ``_turn``), against
    # np.cos/np.sin of y itself, over |d| up to the largest bound at which
    # the rule picks each number of terms (no doubling) and each number
    # m = 1..4 of doublings, on 200,001 points
    rng = np.random.default_rng(40)
    th = rng.uniform(-20.0, 20.0, 200_001)
    cases = [(largest_bound(terms), (terms, 0)) for terms in (2, 3, 4, 5)]
    cases += [(particle.ROTATION_MAX * 2 ** m * (1.0 - 1e-9), (5, m)) for m in (1, 2, 3, 4)]
    for dmax, rotation in cases:
        assert particle._rotation(0.0, 1.0, dmax) == rotation
        # just above it, the rule takes one term more, or one doubling more
        terms, m = rotation
        above = (terms + 1, m) if terms < 5 else (5, m + 1)
        assert particle._rotation(0.0, 1.0, dmax * (1.0 + 1e-8)) == above
        # shrunk by 1e-9, so that d = y - theta, rounded, stays within the bound
        y = th + np.linspace(-dmax, dmax, th.size) * (1.0 - 1e-9)
        d = y - th
        assert np.max(np.abs(d)) <= dmax
        for rotate in (particle._rotate, particle._turn):
            w = rotate(particle._unit(th), d, rotation)
            assert np.max(np.abs(w.real - np.cos(y))) <= 1.5e-15
            assert np.max(np.abs(w.imag - np.sin(y))) <= 1.5e-15
            w0 = rotate(particle._unit(th), np.zeros(th.size), rotation)
            np.testing.assert_array_equal(w0.real, np.cos(th))
            np.testing.assert_array_equal(w0.imag, np.sin(th))


@pytest.mark.parametrize("bound, tol", [(0.021, 3e-14), (0.1, 1e-13)])
def test_repeated_rotation_keeps_the_unit_modulus(bound, tol):
    # 20,000 rotations of a unit table of 1,000 entries, each by its own d,
    # |d| up to the step bound, repeated every time, as a locked, turning
    # ensemble repeats its phase change.  max||w| - 1| reads 1.3e-14 at
    # 0.021 and 3.7e-14 at 0.1, the random walk of the rounding of w + w v.
    # Rounding cos d near 1, as the carried cos/sin table did, drifted
    # 1.1e-12 at 0.021; a versine of as few terms as sin d, whose first
    # omitted term is a quarter of an ulp of 1, not of cos d - 1, drifted
    # 2.5e-14 at 0.021 and 5.4e-13 at 0.1
    rng = np.random.default_rng(42)
    rotation = particle._rotation(0.0, 1.0, bound)
    assert rotation[1] == 0
    d = rng.uniform(-bound, bound, 1000)
    w = particle._unit(rng.uniform(0.0, TWO_PI, 1000))
    for _ in range(20_000):
        w = particle._rotate(w, d, rotation)
    assert np.max(np.abs(np.abs(w) - 1.0)) <= tol


@pytest.mark.parametrize("dt, undoubled", [(0.01, True), (0.05, False), (0.2, False),
                                            (-0.1, False)])
def test_step_guard_branches(dt, undoubled, monkeypatch):
    # the data of test_step_matches_direct_rk4: stages 2-4 turn the
    # step-start table, by d / 2^m and m doublings when |dt| (max|omega| + K)
    # exceeds ROTATION_MAX; the step takes np.cos/np.sin once and stays
    # within roundoff of the plain RK4 of the mean-field right-hand side
    rng = np.random.default_rng(41)
    th = rng.uniform(0, TWO_PI, 200)
    om = rng.normal(0, 1, 200)
    K = 2.5
    assert particle._rotation(om, K, dt)[1] == {0.01: 0, 0.05: 2, 0.2: 4, -0.1: 3}[dt]
    assert (abs(dt) * (np.max(np.abs(om)) + K) <= particle.ROTATION_MAX) == undoubled
    calls = []
    turn = particle._turn
    monkeypatch.setattr(particle, "_turn", lambda *a: calls.append(1) or turn(*a))
    trig = count_trig(monkeypatch)
    out = rk4(particle.ParticleState(th, om, K=K), dt).thetas
    monkeypatch.undo()
    assert len(calls) == 3
    assert trig == {"cos": 1, "sin": 1}
    plain = rk4_step(lambda t, y: mean_field_rhs(y, om, K), 0.0, th, dt)
    assert np.max(np.abs(out - plain)) <= 1e-14


@pytest.mark.parametrize("dt", [0.05, 0.3])
def test_batched_step_rows_are_single_systems(dt):
    # with and without doublings: max|omega| + K is just under 1.8, so
    # |dt| (max|omega| + K) is below ROTATION_MAX at dt 0.05, above at dt 0.3;
    # five steps of the stepping loop advance each row of a batch, phases and
    # table, as they advance that row alone
    rng = np.random.default_rng(13)
    th = rng.uniform(-5.0, 5.0, (7, 40))
    om = rng.uniform(-0.5, 0.5, 40)
    rotation = particle._rotation(om, 1.3, dt)
    assert rotation == ((5, 0) if dt == 0.05 else (5, 3))
    batch = th.copy()
    w = particle._advance(particle._unit(batch), batch, om, 1.3, dt, rotation, 5)
    assert w.shape == batch.shape == (7, 40)
    assert np.max(np.abs(batch - th)) > 0.0
    for i in range(th.shape[0]):
        row = th[i].copy()
        row_w = particle._advance(particle._unit(row), row, om, 1.3, dt, rotation, 5)
        np.testing.assert_array_equal(batch[i], row)
        np.testing.assert_array_equal(w[i], row_w)


def test_stepping_loop_takes_no_trig(monkeypatch):
    # the loop carries the table it is given: no np.cos/np.sin at any step,
    # with and without doublings
    rng = np.random.default_rng(14)
    om = rng.uniform(-0.5, 0.5, 40)
    for dt in (0.05, 0.3):
        th = rng.uniform(-5.0, 5.0, (3, 40))
        w = particle._unit(th)
        trig = count_trig(monkeypatch)
        particle._advance(w, th, om, 1.3, dt, particle._rotation(om, 1.3, dt), 5)
        monkeypatch.undo()
        assert trig == {"cos": 0, "sin": 0}


@pytest.mark.parametrize("dt", [0.01, 0.05, 0.2, -0.1])
def test_step_matches_direct_rk4(dt):
    rng = np.random.default_rng(41)
    th = rng.uniform(0, TWO_PI, 200)
    om = rng.normal(0, 1, 200)
    st = particle.ParticleState(th, om, K=2.5, t=1.0)
    out = rk4(st, dt)
    assert np.max(np.abs(out.thetas - rk4_direct(th, om, 2.5, dt))) <= 1e-13


finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(th=hst.lists(hst.floats(-10.0, 10.0, **finite), min_size=1, max_size=24),
       seed=hst.integers(0, 2**32 - 1),
       K=hst.floats(0.0, 5.0, **finite),
       dt=hst.floats(-0.2, 0.2, **finite),
       c=hst.floats(-10.0, 10.0, **finite))
def test_step_rotation_and_reflection_symmetry(th, seed, K, dt, c):
    th = np.array(th)
    om = np.random.default_rng(seed).normal(0.0, 1.0, th.size)
    out = rk4(particle.ParticleState(th, om, K=K), dt).thetas
    rotated = rk4(particle.ParticleState(th + c, om, K=K), dt).thetas
    assert np.max(np.abs(rotated - (out + c))) <= 1e-12
    reflected = rk4(particle.ParticleState(-th, -om, K=K), dt).thetas
    assert np.max(np.abs(reflected + out)) <= 1e-12


def test_step_exact_for_rigid_rotation():
    st = particle.ParticleState(np.array([0.1, 2.0, 4.0]),
                                np.full(3, 0.8), K=0.0)
    out = rk4(st, 0.37)
    assert out.thetas == pytest.approx(st.thetas + 0.8 * 0.37, abs=1e-15)


def test_step_fourth_order():
    # halving dt divides the one-step (local) error by about 2^5 = 32
    rng = np.random.default_rng(5)
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 12),
                                rng.normal(0, 0.5, 12), K=1.0)
    dt = 0.2

    def local_error(h):
        ref = st
        for _ in range(256):
            ref = rk4(ref, h / 256.0)
        return np.max(np.abs(rk4(st, h).thetas - ref.thetas))

    ratio = local_error(dt) / local_error(dt / 2.0)
    assert 22.0 <= ratio <= 45.0


def test_step_reversibility():
    rng = np.random.default_rng(6)
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 10),
                                rng.normal(0, 0.5, 10), K=1.2)
    dt = 0.05
    back = rk4(rk4(st, dt), -dt)
    assert np.max(np.abs(back.thetas - st.thetas)) <= 10.0 * dt ** 5


def test_balanced_law():
    rng = np.random.default_rng(11)
    om = rng.normal(0, 1, 16)
    om -= om.mean()
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 16), om, K=2.0)
    total0 = st.thetas.sum()
    for _ in range(200):
        st = rk4(st, 0.02)
    assert abs(st.thetas.sum() - total0) <= 1e-10


def test_order_all_equal():
    st = particle.ParticleState(np.full(5, 2.2), np.zeros(5), K=1.0)
    op = particle.particle_order(st)
    assert op.R == pytest.approx(1.0)
    assert op.phi == pytest.approx(2.2)


def test_order_splay_state():
    st = particle.ParticleState(np.array([0.0, 0.5, 1.0, 1.5]) * math.pi,
                                np.zeros(4), K=1.0)
    op = particle.particle_order(st)
    assert op.R <= 1e-12
    assert not op.defined


def test_order_two_oscillators():
    st = particle.ParticleState(np.array([0.0, math.pi / 2.0]), np.zeros(2), K=1.0)
    op = particle.particle_order(st)
    # direct complex-sum oracle: |(1 + i)/2| = sqrt(2)/2, arg = pi/4
    assert op.R == pytest.approx(math.sqrt(2.0) / 2.0)
    assert op.phi == pytest.approx(math.pi / 4.0)


def test_order_rotation_invariance():
    rng = np.random.default_rng(12)
    th = rng.uniform(0, TWO_PI, 20)
    st = particle.ParticleState(th, np.zeros(20), K=1.0)
    shifted = particle.ParticleState(th + 1.234, np.zeros(20), K=1.0)
    assert abs(particle.particle_order(shifted).R
               - particle.particle_order(st).R) <= 1e-12


def potential(state):
    """The solver's gradient potential at the state's own amplitude."""
    return particle._potential(state.thetas, state.omegas, state.K,
                               particle.particle_order(state).R)


def test_potential_synchronized_zero():
    st = particle.ParticleState(np.full(6, 1.0), np.zeros(6), K=2.0)
    assert potential(st) == pytest.approx(0.0, abs=1e-12)


def test_potential_antipodal_pair():
    # (1/4) * sum_ij (1 - cos(dtheta)) = (1/4)(0 + 2 + 2 + 0) = 1
    st = particle.ParticleState(np.array([0.0, math.pi]), np.zeros(2), K=1.0)
    assert potential(st) == pytest.approx(1.0)


def test_gradient_identity():
    rng = np.random.default_rng(8)
    n, K, h = 8, 1.3, 1e-5
    th = rng.uniform(0, TWO_PI, n)
    om = rng.normal(0, 1, n)
    st = particle.ParticleState(th, om, K=K)

    def vp(x):  # independent double-sum evaluation
        return (-float(om @ x)
                + (K / (2 * n)) * float(np.sum(1 - np.cos(x[None, :] - x[:, None]))))

    grad = np.array([(vp(th + h * e) - vp(th - h * e)) / (2 * h)
                     for e in np.eye(n)])
    assert np.max(np.abs(particle.particle_rhs(st) + grad)) <= 1e-6


def test_potential_monotone_identical_oscillators():
    rng = np.random.default_rng(13)
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 24), np.zeros(24), K=1.5)
    v = potential(st)
    for _ in range(300):
        st = rk4(st, 0.02)
        v_new = potential(st)
        assert v_new <= v + 1e-10
        v = v_new


def test_phase_diameter():
    assert particle.phase_diameter(np.full(4, 0.3)) == 0.0
    assert particle.phase_diameter(np.array([0.0, 1.0, 2.0])) == pytest.approx(2.0)


def test_diameter_amplitude_inequality_sampled():
    rng = np.random.default_rng(15)
    for _ in range(100):
        spread = rng.uniform(0.1, math.pi * 0.99)
        th = rng.uniform(-spread / 2, spread / 2, 16)
        st = particle.ParticleState(th, np.zeros(16), K=1.0)
        d = particle.phase_diameter(st.thetas)
        assert d < math.pi
        assert particle.particle_order(st).R >= math.cos(d / 2.0) - 1e-12


def test_classify_all_synchronized():
    final = particle.ParticleState(np.full(6, 0.8), np.zeros(6), K=1.0)
    assert particle.antipodal_count(final) == 0


def test_classify_bipolar():
    final = np.full(6, 1.0)
    final[3] = 1.0 + math.pi
    assert particle.antipodal_count(particle.ParticleState(final, np.zeros(6), K=1.0)) == 1


def test_classify_unconverged():
    rng = np.random.default_rng(16)
    th = rng.uniform(0, TWO_PI, 8)
    st = particle.ParticleState(th, np.zeros(8), K=1.0)
    assert np.ptp(particle.particle_rhs(st)) > 1e-6
    assert particle.antipodal_count(st) is None


def sample_times(st, t_end, dt, sample_every):
    """(per, h, rotation, ts) of a run's ``step_plan``: per steps of h in
    each sample interval, the plan of their rotation, and the sample times
    t0 + i sample_every."""
    n, per, h, rotation = particle.step_plan(st, t_end, dt, sample_every)
    return per, h, rotation, st.t + sample_every * np.arange(n + 1)


def chain_states(st, t_end, dt, sample_every):
    """(state, table) at the sample times of a chain of single RK4 steps
    (``rk4``), each of which takes np.cos/np.sin at its own start, with the
    exact trig of the sample phases."""
    per, h, _, ts = sample_times(st, t_end, dt, sample_every)
    states = []
    for i, t in enumerate(ts):
        for _ in range(per if i else 0):
            st = rk4(st, h)
        states.append((particle.ParticleState(st.thetas, st.omegas, st.K, t=float(t)),
                       particle._unit(st.thetas)))
    return states


def sample_states(st, t_end, dt, sample_every):
    """(state, table) at the sample times of a run, stepped as run_particles
    steps: np.cos/np.sin of the start phases only, each step rotating the
    table by its phase change delta (``_rotate``), across sample boundaries
    too."""
    per, h, rotation, ts = sample_times(st, t_end, dt, sample_every)
    th = st.thetas
    w = particle._unit(th)
    states = [(particle.ParticleState(th, st.omegas, st.K, t=float(ts[0])), w)]
    for t in ts[1:]:
        for _ in range(per):
            delta = particle._mean_field_step(w, st.omegas, st.K, h, rotation)
            th = th + delta
            w = particle._rotate(w, delta, rotation)
        states.append((particle.ParticleState(th, st.omegas, st.K, t=float(t)), w))
    return states


def recomputed_rows(st, t_end, dt, sample_every, states=sample_states):
    """The rows t, r, phi, D, V_p recomputed from the sample states and their
    tables through the phasor mean, phase_diameter and the potential."""
    rows = []
    for s, w in states(st, t_end, dt, sample_every):
        op = _from_phasor(complex(particle._mean(w)[0]))
        rows.append((s.t, op.R, op.phi, particle.phase_diameter(s.thetas),
                     particle._potential(s.thetas, s.omegas, s.K, op.R)))
    return np.array(rows)


def assert_near_chain(rows, st, t_end, dt, sample_every, tol=1e-13):
    """r, phi and D of the rows within tol of those of the single-step chain;
    returns the chain's rows."""
    chain = recomputed_rows(st, t_end, dt, sample_every, chain_states)
    np.testing.assert_array_equal(rows[:, 0], chain[:, 0])
    dphi = (rows[:, 2] - chain[:, 2] + math.pi) % TWO_PI - math.pi
    for name, err in (("r", rows[:, 1] - chain[:, 1]), ("phi", dphi),
                      ("D", rows[:, 3] - chain[:, 3])):
        assert np.max(np.abs(err)) <= tol, (name, np.max(np.abs(err)))
    return chain


def test_run_particles_and_csv(tmp_path):
    rng = np.random.default_rng(17)
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 12),
                                np.zeros(12), K=1.0)
    rows = particle.run_particles(st, 2.0, dt=0.01, sample_every=0.5)
    assert rows.shape == (5, 5)
    assert rows[-1, 0] == pytest.approx(2.0)
    np.testing.assert_array_equal(rows, recomputed_rows(st, 2.0, 0.01, 0.5))
    assert_near_chain(rows, st, 2.0, 0.01, 0.5)
    path = tmp_path / "traj.csv"
    particle.trajectory_to_csv(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,r,phi,D,V_p"


def test_csv_rows_match_order_and_potential(tmp_path):
    rng = np.random.default_rng(18)
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 300),
                                rng.normal(0, 0.5, 300), K=1.5)
    rows = particle.run_particles(st, 1.0, dt=0.02, sample_every=0.1)
    path = tmp_path / "traj.csv"
    particle.trajectory_to_csv(rows, path)
    lines = path.read_text().splitlines()[1:]
    np.testing.assert_array_equal(
        rows, [[float(x) for x in line.split(",")] for line in lines])
    states = [s for s, _ in sample_states(st, 1.0, 0.02, 0.1)]
    assert rows.shape == (len(states), 5) == (11, 5)
    for (t, r, phi, d, v), s in zip(rows, states):
        op = particle.particle_order(s)
        assert t == s.t
        assert abs(r - op.R) <= 1e-14
        assert abs(phi - op.phi) <= 1e-14
        assert d == particle.phase_diameter(s.thetas)
        assert abs(v - potential(s)) <= 1e-14 * max(1.0, abs(v))


def test_csv_phasors_from_steps_match_recompute(tmp_path):
    # the rows, whose r, phi and V_p come from the phasor means the steps
    # take, give the same bytes as rows recomputed from the sample phases
    rng = np.random.default_rng(21)
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 500),
                                rng.uniform(-0.1, 0.1, 500), K=2.0)
    rows = particle.run_particles(st, 0.5, dt=0.01, sample_every=0.05)
    particle.trajectory_to_csv(rows, tmp_path / "stored.csv")
    particle.trajectory_to_csv(recomputed_rows(st, 0.5, 0.01, 0.05), tmp_path / "fresh.csv")
    assert (tmp_path / "stored.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert_near_chain(rows, st, 0.5, 0.01, 0.05)


@pytest.mark.parametrize("K, dt, undoubled", [(2.0, 0.01, True), (10.0, 0.02, False)])
def test_run_snapshots_are_particle_steps(K, dt, undoubled):
    # the run steps arrays and plans its rotation once; its rows are within
    # roundoff of those of the states a chain of single steps (``rk4``),
    # each from exact trig, reaches, with and without doublings
    rng = np.random.default_rng(22)
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 300),
                                rng.uniform(-0.1, 0.1, 300), K=K)
    assert particle._rotation(st.omegas, K, dt)[1] == (0 if undoubled else 2)
    rows = particle.run_particles(st, 0.2, dt=dt, sample_every=0.1)
    np.testing.assert_array_equal(rows, recomputed_rows(st, 0.2, dt, 0.1))
    assert_near_chain(rows, st, 0.2, dt, 0.1)


def test_run_particles_exact_sample_times(tmp_path):
    rng = np.random.default_rng(19)
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 8), np.zeros(8), K=1.0)
    rows = particle.run_particles(st, 0.5, dt=0.01, sample_every=0.05)
    np.testing.assert_array_equal(rows[:, 0], 0.05 * np.arange(11))
    assert rows[-1, 0] == 0.5
    particle.trajectory_to_csv(rows, tmp_path / "traj.csv")
    t_col = [line.split(",")[0]
             for line in (tmp_path / "traj.csv").read_text().splitlines()[1:]]
    assert t_col[-1] == "0.5"
    later = particle.ParticleState(st.thetas, st.omegas, K=1.0, t=0.3)
    rows = particle.run_particles(later, 0.8, dt=0.01, sample_every=0.1)
    np.testing.assert_array_equal(rows[:, 0], 0.3 + 0.1 * np.arange(6))
    np.testing.assert_array_equal(rows, recomputed_rows(later, 0.8, 0.01, 0.1))
    assert_near_chain(rows, later, 0.8, 0.01, 0.1)
    assert particle.run_particles(later, 0.3, dt=0.01, sample_every=0.1).shape == (1, 5)


def flow_map_orders(thetas, omega, K, ts, h):
    """(R, phi) at the times ts of N identical oscillators at frequency omega
    from the Watanabe-Strogatz flow map, and their phases on [0, 2pi) at
    ts[-1]: z_j(t) = M(z_j(0)) for one Moebius map
    M(z) = (p11 z + p12) / (p21 z + p22) with P' = A P, P(0) = I and
    A = [[i omega / 2, K Z / 2], [K conj(Z) / 2, -i omega / 2]], Z the mean of
    M over the start points; RK4 steps of h, a whole number per interval.
    Phases (..., N) are a batch of systems, one flow map per row, and the
    results get the batch axes after the time axis."""
    z0 = np.exp(1j * thetas)

    def moebius(p):
        return ((p[..., 0, 0, None] * z0 + p[..., 0, 1, None])
                / (p[..., 1, 0, None] * z0 + p[..., 1, 1, None]))

    def rhs(t, p):
        Z = np.mean(moebius(p), axis=-1)
        a = np.stack([np.full(Z.shape, 0.5j * omega), 0.5 * K * Z,
                      0.5 * K * np.conj(Z), np.full(Z.shape, -0.5j * omega)], axis=-1)
        return a.reshape(Z.shape + (2, 2)) @ p

    p, out = np.broadcast_to(np.eye(2, dtype=complex), thetas.shape[:-1] + (2, 2)), []
    for i, t in enumerate(ts):
        if i:
            steps = round((t - ts[i - 1]) / h)
            for _ in range(steps):
                p = rk4_step(rhs, 0.0, p, (t - ts[i - 1]) / steps)
        Z = np.mean(moebius(p), axis=-1)
        out.append(np.stack([np.abs(Z), np.angle(Z) % TWO_PI], axis=-1))
    return np.array(out), np.angle(moebius(p)) % TWO_PI


def test_run_particles_match_the_flow_map_of_identical_oscillators():
    # ten steps per sample interval, so the run carries its rotated cos/sin
    # table from step to step; the flow map is exact up to its own RK4 error
    th = np.random.default_rng(10).uniform(0.0, TWO_PI, 10)
    st = particle.ParticleState(th, np.zeros(10), K=1.0)
    assert particle.step_plan(st, 2.0, 0.01, 0.1) == (20, 10, 0.01, (4, 0))
    rows = particle.run_particles(st, 2.0, dt=0.01, sample_every=0.1)
    exact = flow_map_orders(th, 0.0, 1.0, rows[:, 0], 1e-3)[0]
    assert np.max(np.abs(rows[:, 1] - exact[:, 0])) <= 1e-9
    dphi = (rows[:, 2] - exact[:, 1] + math.pi) % TWO_PI - math.pi
    assert np.max(np.abs(dphi)) <= 1e-9


def test_batched_steps_match_the_flow_map_of_identical_oscillators():
    # criterion 10's start and stepping loop: 200 systems of 10 oscillators
    # at K = 1, stepped together by RK4 steps of 0.05 to t = 2.  Their phases
    # differ from the flow map's (h = 1e-3, within 4e-12 of h = 5e-3) by at
    # most 3.9e-8, which falls 16-fold per halving of the step (6.1e-7 at
    # dt = 0.1, 2.5e-9 at 0.025): RK4's own error, so the bound is 1e-7
    thetas = np.random.default_rng(10).uniform(0.0, TWO_PI, (200, 10))
    assert np.abs(np.mean(np.exp(1j * thetas), axis=1)).min() >= 0.01   # none redrawn
    dt = 0.05
    rotation = particle._rotation(0.0, 1.0, dt)
    assert rotation == (5, 0)
    th = thetas.copy()
    particle._advance(particle._unit(th), th, 0.0, 1.0, dt, rotation, 40)
    orders, phases = flow_map_orders(thetas, 0.0, 1.0, [0.0, 2.0], 1e-3)
    assert orders.shape == (2, 200, 2) and phases.shape == (200, 10)
    dphase = (th - phases + math.pi) % TWO_PI - math.pi
    assert np.max(np.abs(dphase)) <= 1e-7
    r = np.abs(np.mean(np.exp(1j * th), axis=1))
    assert np.max(np.abs(r - orders[-1, :, 0])) <= 1e-7


def test_long_rotating_interval_stays_near_the_step_chain():
    # 2,000 rotating steps in one sample interval: the carried cos/sin table
    # does not drift from np.cos/np.sin beyond roundoff
    rng = np.random.default_rng(24)
    st = particle.ParticleState(rng.uniform(0.0, TWO_PI, 2000),
                                rng.uniform(-0.5, 0.5, 2000), K=2.0)
    assert particle.step_plan(st, 20.0, 0.01, 20.0) == (1, 2000, 0.01, (4, 0))
    rows = particle.run_particles(st, 20.0, dt=0.01, sample_every=20.0)
    op = particle.particle_order(st)
    assert (rows[0, 1], rows[0, 2]) == (op.R, op.phi)
    assert_near_chain(rows, st, 20.0, 0.01, 20.0, tol=1e-12)


def test_rotating_run_of_20000_steps_stays_near_the_exact_trig_chain():
    # the table carried over 20,000 rotating steps and nine sample
    # boundaries keeps r within 1e-14 of np.cos/np.sin of the chain's phases
    # (6.7e-16 here; the cos/sin table before the versine form drifted
    # 6.2e-13).  phi and D get 1e-11 (1.6e-12 and 1.6e-14 here): the
    # ensemble locks and turns, so each step's phase change repeats and every
    # stored phase, of the run and of the chain, loses the same fraction of an
    # ulp each step, which does not average out.  The run's r and phi, read
    # from the table, stay within 2.2e-16 of an RK4 run in long double, the
    # chain's phi not.
    rng = np.random.default_rng(26)
    st = particle.ParticleState(rng.uniform(0.0, TWO_PI, 1000),
                                rng.uniform(-0.5, 0.5, 1000), K=2.0)
    assert particle.step_plan(st, 200.0, 0.01, 20.0) == (10, 2000, 0.01, (4, 0))
    rows = particle.run_particles(st, 200.0, dt=0.01, sample_every=20.0)
    chain = assert_near_chain(rows, st, 200.0, 0.01, 20.0, tol=1e-11)
    assert np.max(np.abs(rows[:, 1] - chain[:, 1])) <= 1e-14


def count_trig(monkeypatch) -> dict:
    """Counts of the np.cos and np.sin calls made until monkeypatch.undo()."""
    calls = {"cos": 0, "sin": 0}
    for name, trig in (("cos", np.cos), ("sin", np.sin)):
        monkeypatch.setattr(np, name, lambda x, name=name, trig=trig, **kw:
                            calls.__setitem__(name, calls[name] + 1) or trig(x, **kw))
    return calls


@pytest.mark.parametrize("K, dt, undoubled", [(2.0, 0.01, True), (10.0, 0.02, False),
                                              (10.0, 0.01, False)])
def test_a_rotating_run_takes_trig_once(K, dt, undoubled, monkeypatch):
    # over four sample intervals a run calls np.cos and np.sin once each, at
    # its start, with and without doublings (K = 10 at dt 0.01 needs one),
    # and its rows stay within roundoff of the single-step chain's
    rng = np.random.default_rng(22)
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 300),
                                rng.uniform(-0.1, 0.1, 300), K=K)
    n_samples, _, _, rotation = particle.step_plan(st, 0.4, dt, 0.1)
    assert (n_samples, rotation[1]) == (4, {0.01: 0 if K == 2.0 else 1, 0.02: 2}[dt])
    assert (rotation[1] == 0) == undoubled
    calls = count_trig(monkeypatch)
    rows = particle.run_particles(st, 0.4, dt=dt, sample_every=0.1)
    monkeypatch.undo()
    assert calls == {"cos": 1, "sin": 1}
    assert_near_chain(rows, st, 0.4, dt, 0.1)


def test_run_particles_memory_does_not_grow_with_samples():
    # the run keeps its rows, not the phases of each sample: 90 more samples
    # of 20,000 oscillators must cost less than one array of their phases
    rng = np.random.default_rng(23)
    n = 20000
    st = particle.ParticleState(rng.uniform(0, TWO_PI, n), rng.uniform(-0.5, 0.5, n), K=1.0)

    def peak(t_end):
        tracemalloc.start()
        try:
            particle.run_particles(st, t_end, dt=0.01, sample_every=0.01)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(0.1), peak(1.0)
    assert many - few < 8 * n, (few, many)


def _run_particles(t_end, sample_every):
    st = particle.ParticleState(np.array([0.1, 0.2]), np.zeros(2), K=1.0)
    return particle.run_particles(st, t_end, dt=0.01, sample_every=sample_every)


def _run_kinetic(t_end, sample_every):
    st = kinetic.state_from_profile(kinetic.PhaseGrid(16), freq.dirac_at_zero(), 1, 1.0,
                                    freq.cosine_profile(0.2))
    return kinetic.run(st, t_end, sample_every)


@pytest.mark.parametrize("run, t_end", [
    pytest.param(run, t_end, id=f"{prefix}{t_end}")
    for prefix, run in (("", _run_particles), ("kinetic-", _run_kinetic))
    for t_end in (0.52, 0.549, 0.02)])
def test_run_particles_rejects_incommensurate_t_end(run, t_end):
    # both steppers take their samples from order.sample_count
    with pytest.raises(ValueError, match="whole number of sample intervals"):
        run(t_end, 0.05)
    with pytest.raises(ValueError, match="must not precede"):
        run(-0.05, 0.05)
    for sample_every in (0.0, -0.1):
        with pytest.raises(ValueError, match="sample_every must be positive"):
            run(t_end, sample_every)


def test_run_particles_rejects_sample_intervals_within_time_tolerance():
    # order.sample_count holds the floor that kinetic.run already had; a
    # particle run used to take its steps at any positive interval
    for sample_every in (1e-13, 1e-12):
        with pytest.raises(ValueError, match="time tolerance 1e-12"):
            _run_particles(10 * sample_every, sample_every)


@pytest.mark.parametrize("dt", [0.0, -0.01, math.inf, math.nan])
def test_run_particles_rejects_bad_dt(dt):
    st = particle.ParticleState(np.array([0.1, 0.2]), np.zeros(2), K=1.0)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        particle.run_particles(st, 0.2, dt, 0.1)


def test_step_plan_rejects_a_dt_whose_step_count_overflows():
    # sample_every / dt is inf: math.ceil of it raised OverflowError
    st = particle.ParticleState(np.array([0.1, 0.2]), np.zeros(2), K=1.0)
    assert math.isinf(1e300 / 1e-11)
    with pytest.raises(ValueError, match="1e-11 is too small"):
        particle.step_plan(st, 1e300, 1e-11, 1e300)


@pytest.mark.parametrize("dt", [1e-300, 1e-12])
def test_step_plan_rejects_a_dt_within_time_tolerance(dt):
    # 1e-300 planned 1e299 steps per interval of 0.1, so the run never ended
    st = particle.ParticleState(np.array([0.1, 0.2]), np.zeros(2), K=1.0)
    with pytest.raises(ValueError, match=f"dt {dt!r} is too small: it must exceed the "
                                         "time tolerance 1e-12"):
        particle.step_plan(st, 0.1, dt, 0.1)


@pytest.mark.parametrize("sample_every, dt, per", [
    (0.07, 0.01, 7), (0.14, 0.005, 28), (0.28, 0.02, 14),    # ratio lifted by roundoff
    (0.05, 0.01, 5), (0.1, 0.03, 4), (0.1, 0.3, 1)])
def test_step_plan_takes_a_whole_ratio_as_its_step_count(sample_every, dt, per):
    # a ratio within order.RATIO_TOL of a whole number takes that many steps;
    # 0.07 / 0.01 reads 7.000000000000001, which math.ceil made 8 steps
    st = particle.ParticleState(np.array([0.1, 0.2]), np.zeros(2), K=1.0)
    assert particle.step_plan(st, sample_every, dt, sample_every)[1:3] == (
        per, sample_every / per)


def test_sample_phases_follows_profile():
    def profile(th):
        return (1.0 + 0.8 * np.cos(th)) / TWO_PI
    th = freq.sample_phases(profile, 20000, np.random.default_rng(3))
    assert th.shape == (20000,)
    assert np.all((th >= 0.0) & (th < TWO_PI))
    # first Fourier mode of the profile: E[cos] = 0.4
    assert np.mean(np.cos(th)) == pytest.approx(0.4, abs=0.02)
    again = freq.sample_phases(profile, 20000, np.random.default_rng(3))
    np.testing.assert_array_equal(th, again)


def test_sample_phases_inverts_a_spike_table(capped_rng):
    # nearly all the mass sits on [1, 1.000002]: rejection under the peak
    # accepts 1.6e-7 of its candidates, inverting the CDF takes n draws
    knots, heights = [0.0, 1.0, 1.000001, 1.000002, 3.0], [0.0, 0.0, 1.0, 0.0, 0.0]
    profile = freq.table_profile(knots, heights)
    n = 20000
    th = freq.sample_phases(profile, n, capped_rng(5, 4 * n))
    assert th.shape == (n,)
    assert np.all((th >= 1.0) & (th <= 1.000002))
    # the table's CDF at its knots is 0, 0, 1/2, 1, 1
    cdf = np.array([np.mean(th <= x) for x in knots])
    assert np.max(np.abs(cdf - [0.0, 0.0, 0.5, 1.0, 1.0])) <= 5.0 * math.sqrt(0.25 / n), cdf


def test_sample_phases_follows_a_table_cdf():
    # a table whose first knot lies above 0, so one segment wraps through 0:
    # the share of phases in [knots[0], x] is the trapezoid mass there
    knots = np.array([0.5, 1.5, 2.0, 4.0, 6.0])
    heights = np.array([1.0, 3.0, 0.0, 2.0, 0.25])
    profile = freq.table_profile(knots, heights)
    n = 200000
    th = freq.sample_phases(profile, n, np.random.default_rng(9))
    assert np.all((th >= 0.0) & (th < TWO_PI))
    x = np.append(knots, knots[0] + TWO_PI)
    y = np.append(heights, heights[0])
    mass = np.concatenate([[0.0], np.cumsum(np.diff(x) * 0.5 * (y[:-1] + y[1:]))])
    cdf = mass[:-1] / mass[-1]
    emp = np.array([np.mean((th >= knots[0]) & (th <= v)) for v in knots])
    assert np.max(np.abs(emp - cdf)) <= 5.0 * math.sqrt(0.25 / n), (emp, cdf)
    again = freq.sample_phases(profile, n, np.random.default_rng(9))
    np.testing.assert_array_equal(th, again)


def test_sample_phases_bound_covers_a_peak_between_grid_points():
    # the peak of a von Mises profile of concentration 1e6 lies midway between
    # two of the 4,096 grid points, where the profile is 0.745 of it: a bound
    # of 1.05 times the grid maximum would cut the peak and draw 0.4746 of the
    # phases within 7e-4 of the centre, not the exact erf(0.7 / sqrt 2) = 0.5161
    centre = 1000.5 * TWO_PI / 4096
    profile = freq.von_mises_profile(1e6, centre)
    n = 10000
    th = freq.sample_phases(profile, n, np.random.default_rng(4))
    share = math.erf(0.7 / math.sqrt(2.0))
    sampled = np.mean(np.abs(th - centre) < 7e-4)
    assert abs(sampled - share) <= 4.0 * math.sqrt(share * (1.0 - share) / n), sampled


def test_draw_is_the_particle_start():
    # phases from default_rng(seed) through sample_phases, frequencies from
    # sample with seed + 1
    g, profile = freq.uniform(0.1), freq.cosine_profile(-0.4, 2.0)
    thetas, omegas = freq.draw(g, profile, 500, 7)
    np.testing.assert_array_equal(
        thetas, freq.sample_phases(profile, 500, np.random.default_rng(7)))
    np.testing.assert_array_equal(omegas, freq.sample(g, 500, 8))
