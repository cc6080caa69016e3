import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from kslab import frequency as freq
from kslab import kinetic, particle
from kslab.order import rk4_step, sample_count

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
    """One RK4 step of a state (``_mean_field_step``), the guard decided for
    this step as ``run_particles`` decides it for a run; t advances by dt."""
    terms = particle._taylor_terms(state.omegas, state.K, dt)
    thetas = particle._mean_field_step(state.thetas, state.omegas, state.K, dt, terms)[0]
    return particle.ParticleState(thetas, state.omegas, state.K, t=state.t + dt)


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
        return particle._mean_field_rhs(thetas, om, 1.3)

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


@pytest.mark.parametrize("bound, terms", [(0.021, 4), (0.05, 5), (0.1, 5), (0.1001, 0),
                                          (0.0, 2)])
def test_taylor_terms_follow_the_step_bound(bound, terms):
    # the fewest terms whose first omitted term at the bound is below 2^-55;
    # particle-mf and criterion 8 step at 0.021, criterion 10 at 0.05
    assert particle._taylor_terms(np.array([0.0, -0.5, 0.25]), 0.5, bound) == terms
    assert particle._taylor_terms(0.0, 1.0, bound) == terms


def test_rotation_matches_trig():
    # cos and sin of y = theta + d from those of theta, against np.cos/np.sin
    # of y itself, over |d| up to the largest bound at which the rule picks
    # each number of terms, on 200,001 points
    rng = np.random.default_rng(40)
    th = rng.uniform(-20.0, 20.0, 200_001)
    for terms in (2, 3, 4, 5):
        dmax = largest_bound(terms)
        assert particle._taylor_terms(0.0, 1.0, dmax) == terms
        # just above it, the rule takes one term more, or no rotation above ROTATION_MAX
        above = particle._taylor_terms(0.0, 1.0, dmax * (1.0 + 1e-8))
        assert above == (terms + 1 if terms < 5 else 0)
        # shrunk by 1e-9, so that d = y - theta, rounded, stays within the bound
        y = th + np.linspace(-dmax, dmax, th.size) * (1.0 - 1e-9)
        d = y - th
        assert np.max(np.abs(d)) <= dmax
        c, s = particle._rotate(np.cos(th), np.sin(th), d, terms)
        assert np.max(np.abs(c - np.cos(y))) <= 1.5e-15
        assert np.max(np.abs(s - np.sin(y))) <= 1.5e-15
        zero = np.zeros(th.size)
        c0, s0 = particle._rotate(np.cos(th), np.sin(th), zero, terms)
        np.testing.assert_array_equal(c0, np.cos(th))
        np.testing.assert_array_equal(s0, np.sin(th))


@pytest.mark.parametrize("dt, rotates", [(0.01, True), (0.05, False), (0.2, False),
                                         (-0.1, False)])
def test_step_guard_branches(dt, rotates, monkeypatch):
    # the data of test_step_matches_direct_rk4: stages 2-4 rotate only when
    # |dt| (max|omega| + K) <= ROTATION_MAX; otherwise they take np.cos/np.sin
    # and the step is the plain RK4 of the mean-field right-hand side, bit for bit
    rng = np.random.default_rng(41)
    th = rng.uniform(0, TWO_PI, 200)
    om = rng.normal(0, 1, 200)
    K = 2.5
    assert (abs(dt) * (np.max(np.abs(om)) + K) <= particle.ROTATION_MAX) == rotates
    calls = []
    rotate = particle._rotate
    monkeypatch.setattr(particle, "_rotate",
                        lambda *a: calls.append(1) or rotate(*a))
    out = rk4(particle.ParticleState(th, om, K=K), dt).thetas
    assert len(calls) == (3 if rotates else 0)
    plain = rk4_step(lambda t, y: particle._mean_field_rhs(y, om, K), 0.0, th, dt)
    if rotates:
        assert np.max(np.abs(out - plain)) <= 1e-14
    else:
        np.testing.assert_array_equal(out, plain)


@pytest.mark.parametrize("dt", [0.05, 0.3])
def test_batched_step_rows_are_single_systems(dt):
    # both branches of the guard: max|omega| + K is just under 1.8, so
    # |dt| (max|omega| + K) is below ROTATION_MAX at dt 0.05, above at dt 0.3
    rng = np.random.default_rng(13)
    th = rng.uniform(-5.0, 5.0, (7, 40))
    om = rng.uniform(-0.5, 0.5, 40)
    terms = particle._taylor_terms(om, 1.3, dt)
    assert bool(terms) == (dt == 0.05)
    stepped, z_re, z_im = particle._mean_field_step(th, om, 1.3, dt, terms)
    assert z_re.shape == z_im.shape == (7, 1)
    for i in range(th.shape[0]):
        row, row_re, row_im = particle._mean_field_step(th[i], om, 1.3, dt, terms)
        np.testing.assert_array_equal(stepped[i], row)
        assert (z_re[i, 0], z_im[i, 0]) == (row_re[0], row_im[0])


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
    return particle._potential(state, particle.particle_order(state).R)


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
    assert particle.phase_diameter(
        particle.ParticleState(np.full(4, 0.3), np.zeros(4), K=1.0)) == 0.0
    st = particle.ParticleState(np.array([0.0, 1.0, 2.0]), np.zeros(3), K=1.0)
    assert particle.phase_diameter(st) == pytest.approx(2.0)


def test_diameter_amplitude_inequality_sampled():
    rng = np.random.default_rng(15)
    for _ in range(100):
        spread = rng.uniform(0.1, math.pi * 0.99)
        th = rng.uniform(-spread / 2, spread / 2, 16)
        st = particle.ParticleState(th, np.zeros(16), K=1.0)
        d = particle.phase_diameter(st)
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
    """(per, h, ts): per steps of h = sample_every / per in each sample
    interval, dt shrunk to divide sample_every as run_particles does, and
    the sample times t0 + i sample_every."""
    per = max(1, math.ceil(sample_every / dt))
    n = sample_count(st.t, t_end, sample_every)
    return per, sample_every / per, st.t + sample_every * np.arange(n + 1)


def chain_states(st, t_end, dt, sample_every):
    """The states at the sample times of a chain of single RK4 steps (``rk4``),
    each of which takes np.cos/np.sin at its own start."""
    per, h, ts = sample_times(st, t_end, dt, sample_every)
    states = [particle.ParticleState(st.thetas, st.omegas, st.K, t=float(ts[0]))]
    for t in ts[1:]:
        for _ in range(per):
            st = rk4(st, h)
        states.append(particle.ParticleState(st.thetas, st.omegas, st.K, t=float(t)))
    return states


def sample_states(st, t_end, dt, sample_every):
    """The states at the sample times of a run, stepped as run_particles
    steps: np.cos/np.sin of the phases at each sample start and, when the
    steps rotate, each later step start's cos/sin rotated from the previous
    one by the stored phase change new - old (np.cos/np.sin otherwise)."""
    per, h, ts = sample_times(st, t_end, dt, sample_every)
    terms = particle._taylor_terms(st.omegas, st.K, h)
    th = st.thetas
    states = [particle.ParticleState(th, st.omegas, st.K, t=float(ts[0]))]
    for t in ts[1:]:
        c, s = np.cos(th), np.sin(th)
        for _ in range(per):
            new = particle._mean_field_step(th, st.omegas, st.K, h, terms, (c, s))[0]
            c, s = (particle._rotate(c, s, new - th, terms) if terms
                    else (np.cos(new), np.sin(new)))
            th = new
        states.append(particle.ParticleState(th, st.omegas, st.K, t=float(t)))
    return states


def recomputed_rows(st, t_end, dt, sample_every, states=sample_states):
    """The rows t, r, phi, D, V_p recomputed from the sample states through
    particle_order, phase_diameter and the potential."""
    rows = []
    for s in states(st, t_end, dt, sample_every):
        op = particle.particle_order(s)
        rows.append((s.t, op.R, op.phi, particle.phase_diameter(s), potential(s)))
    return np.array(rows)


def assert_near_chain(rows, st, t_end, dt, sample_every, tol=1e-13):
    """r, phi and D of the rows within tol of those of the single-step chain."""
    chain = recomputed_rows(st, t_end, dt, sample_every, chain_states)
    np.testing.assert_array_equal(rows[:, 0], chain[:, 0])
    dphi = (rows[:, 2] - chain[:, 2] + math.pi) % TWO_PI - math.pi
    for name, err in (("r", rows[:, 1] - chain[:, 1]), ("phi", dphi),
                      ("D", rows[:, 3] - chain[:, 3])):
        assert np.max(np.abs(err)) <= tol, (name, np.max(np.abs(err)))


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
    states = sample_states(st, 1.0, 0.02, 0.1)
    assert rows.shape == (len(states), 5) == (11, 5)
    for (t, r, phi, d, v), s in zip(rows, states):
        op = particle.particle_order(s)
        assert t == s.t
        assert abs(r - op.R) <= 1e-14
        assert abs(phi - op.phi) <= 1e-14
        assert d == particle.phase_diameter(s)
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


@pytest.mark.parametrize("K, dt, rotates", [(2.0, 0.01, True), (10.0, 0.02, False)])
def test_run_snapshots_are_particle_steps(K, dt, rotates):
    # the run steps arrays and decides the guard once; without rotation its
    # rows are those of the states a chain of single steps (``rk4``) reaches,
    # which decides it per step, bit for bit; with it, they differ at roundoff
    rng = np.random.default_rng(22)
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 300),
                                rng.uniform(-0.1, 0.1, 300), K=K)
    assert bool(particle._taylor_terms(st.omegas, K, dt)) == rotates
    rows = particle.run_particles(st, 0.2, dt=dt, sample_every=0.1)
    np.testing.assert_array_equal(rows, recomputed_rows(st, 0.2, dt, 0.1))
    assert_near_chain(rows, st, 0.2, dt, 0.1)
    if not rotates:
        np.testing.assert_array_equal(rows, recomputed_rows(st, 0.2, dt, 0.1, chain_states))


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
    assert particle.step_plan(st, 2.0, 0.01, 0.1) == (20, 10, 0.01, 4)
    rows = particle.run_particles(st, 2.0, dt=0.01, sample_every=0.1)
    exact = flow_map_orders(th, 0.0, 1.0, rows[:, 0], 1e-3)[0]
    assert np.max(np.abs(rows[:, 1] - exact[:, 0])) <= 1e-9
    dphi = (rows[:, 2] - exact[:, 1] + math.pi) % TWO_PI - math.pi
    assert np.max(np.abs(dphi)) <= 1e-9


def test_batched_steps_match_the_flow_map_of_identical_oscillators():
    # criterion 10's start and steps: 200 systems of 10 oscillators at K = 1,
    # stepped together by rotating RK4 steps of 0.05 to t = 2.  Their phases
    # differ from the flow map's (h = 1e-3, within 4e-12 of h = 5e-3) by at
    # most 3.9e-8, which falls 16-fold per halving of the step (6.1e-7 at
    # dt = 0.1, 2.5e-9 at 0.025): RK4's own error, so the bound is 1e-7
    thetas = np.random.default_rng(10).uniform(0.0, TWO_PI, (200, 10))
    assert np.abs(np.mean(np.exp(1j * thetas), axis=1)).min() >= 0.01   # none redrawn
    dt = 0.05
    terms = particle._taylor_terms(0.0, 1.0, dt)
    assert terms == 5
    th = thetas
    for _ in range(40):
        th = particle._mean_field_step(th, 0.0, 1.0, dt, terms)[0]
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
    assert particle.step_plan(st, 20.0, 0.01, 20.0) == (1, 2000, 0.01, 4)
    rows = particle.run_particles(st, 20.0, dt=0.01, sample_every=20.0)
    op = particle.particle_order(st)
    assert (rows[0, 1], rows[0, 2]) == (op.R, op.phi)
    assert_near_chain(rows, st, 20.0, 0.01, 20.0, tol=1e-12)


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


def test_sample_phases_follows_profile():
    def profile(th):
        return (1.0 + 0.8 * np.cos(th)) / TWO_PI
    th = freq.sample_phases(profile, 1.8 / TWO_PI, 20000, np.random.default_rng(3))
    assert th.shape == (20000,)
    assert np.all((th >= 0.0) & (th < TWO_PI))
    # first Fourier mode of the profile: E[cos] = 0.4
    assert np.mean(np.cos(th)) == pytest.approx(0.4, abs=0.02)
    again = freq.sample_phases(profile, 1.8 / TWO_PI, 20000, np.random.default_rng(3))
    np.testing.assert_array_equal(th, again)


def test_sample_phases_inverts_a_spike_table(capped_rng):
    # nearly all the mass sits on [1, 1.000002]: rejection under the peak
    # accepts 1.6e-7 of its candidates, inverting the CDF takes n draws
    knots, heights = [0.0, 1.0, 1.000001, 1.000002, 3.0], [0.0, 0.0, 1.0, 0.0, 0.0]
    profile = freq.table_profile(knots, heights)
    n = 20000
    th = freq.sample_phases(profile, 1.0, n, capped_rng(5, 4 * n))
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
    th = freq.sample_phases(profile, 3.0, n, np.random.default_rng(9))
    assert np.all((th >= 0.0) & (th < TWO_PI))
    x = np.append(knots, knots[0] + TWO_PI)
    y = np.append(heights, heights[0])
    mass = np.concatenate([[0.0], np.cumsum(np.diff(x) * 0.5 * (y[:-1] + y[1:]))])
    cdf = mass[:-1] / mass[-1]
    emp = np.array([np.mean((th >= knots[0]) & (th <= v)) for v in knots])
    assert np.max(np.abs(emp - cdf)) <= 5.0 * math.sqrt(0.25 / n), (emp, cdf)
    again = freq.sample_phases(profile, 3.0, n, np.random.default_rng(9))
    np.testing.assert_array_equal(th, again)
