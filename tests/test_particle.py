import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from kslab import particle

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
    batched = particle._mean_field_rhs(th, om, 1.3)
    stepped = particle._rk4(th, om, 1.3, 0.05)
    for i in range(th.shape[0]):
        np.testing.assert_array_equal(batched[i], particle._mean_field_rhs(th[i], om, 1.3))
        np.testing.assert_array_equal(stepped[i], particle._rk4(th[i], om, 1.3, 0.05))


@pytest.mark.parametrize("dt", [0.01, 0.05, 0.2, -0.1])
def test_step_matches_direct_rk4(dt):
    rng = np.random.default_rng(41)
    th = rng.uniform(0, TWO_PI, 200)
    om = rng.normal(0, 1, 200)
    st = particle.ParticleState(th, om, K=2.5, t=1.0)
    out = particle.particle_step(st, dt)
    assert np.max(np.abs(out.thetas - rk4_direct(th, om, 2.5, dt))) <= 1e-13
    assert out.t == 1.0 + dt


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
    out = particle.particle_step(particle.ParticleState(th, om, K=K), dt).thetas
    rotated = particle.particle_step(particle.ParticleState(th + c, om, K=K), dt).thetas
    assert np.max(np.abs(rotated - (out + c))) <= 1e-12
    reflected = particle.particle_step(particle.ParticleState(-th, -om, K=K), dt).thetas
    assert np.max(np.abs(reflected + out)) <= 1e-12


def test_step_exact_for_rigid_rotation():
    st = particle.ParticleState(np.array([0.1, 2.0, 4.0]),
                                np.full(3, 0.8), K=0.0)
    out = particle.particle_step(st, 0.37)
    assert out.thetas == pytest.approx(st.thetas + 0.8 * 0.37, abs=1e-15)
    assert out.t == pytest.approx(0.37)


def test_step_fourth_order():
    # halving dt divides the one-step (local) error by about 2^5 = 32
    rng = np.random.default_rng(5)
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 12),
                                rng.normal(0, 0.5, 12), K=1.0)
    dt = 0.2

    def local_error(h):
        ref = st
        for _ in range(256):
            ref = particle.particle_step(ref, h / 256.0)
        return np.max(np.abs(particle.particle_step(st, h).thetas - ref.thetas))

    ratio = local_error(dt) / local_error(dt / 2.0)
    assert 22.0 <= ratio <= 45.0


def test_step_reversibility():
    rng = np.random.default_rng(6)
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 10),
                                rng.normal(0, 0.5, 10), K=1.2)
    dt = 0.05
    back = particle.particle_step(particle.particle_step(st, dt), -dt)
    assert np.max(np.abs(back.thetas - st.thetas)) <= 10.0 * dt ** 5


def test_balanced_law():
    rng = np.random.default_rng(11)
    om = rng.normal(0, 1, 16)
    om -= om.mean()
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 16), om, K=2.0)
    total0 = st.thetas.sum()
    for _ in range(200):
        st = particle.particle_step(st, 0.02)
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


def test_potential_synchronized_zero():
    st = particle.ParticleState(np.full(6, 1.0), np.zeros(6), K=2.0)
    assert particle.particle_potential(st) == pytest.approx(0.0, abs=1e-12)


def test_potential_antipodal_pair():
    # (1/4) * sum_ij (1 - cos(dtheta)) = (1/4)(0 + 2 + 2 + 0) = 1
    st = particle.ParticleState(np.array([0.0, math.pi]), np.zeros(2), K=1.0)
    assert particle.particle_potential(st) == pytest.approx(1.0)


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
    v = particle.particle_potential(st)
    for _ in range(300):
        st = particle.particle_step(st, 0.02)
        v_new = particle.particle_potential(st)
        assert v_new <= v + 1e-10
        v = v_new


def test_order_rate_formula_consistency():
    rng = np.random.default_rng(14)
    om = rng.normal(0, 0.3, 16)
    om -= om.mean()
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 16), om, K=1.0)
    dt = 1e-3
    fwd = particle.particle_step(st, dt)
    back = particle.particle_step(st, -dt)
    r_dot_fd = (particle.particle_order(fwd).R
                - particle.particle_order(back).R) / (2 * dt)
    r_dot, _ = particle.particle_order_rates(st)
    assert abs(r_dot_fd - r_dot) <= 10.0 * dt ** 2


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
    traj = particle.ParticleTrajectory(
        np.array([0.0, 10.0]),
        np.vstack([np.linspace(0, 1, 6), np.full(6, 0.8)]),
        np.zeros(6), K=1.0)
    cls = particle.classify_asymptotic(traj)
    assert cls.converged
    assert cls.n_anti == 0
    assert len(cls.i_sync) == 6


def test_classify_bipolar():
    final = np.full(6, 1.0)
    final[3] = 1.0 + math.pi
    traj = particle.ParticleTrajectory(
        np.array([0.0, 10.0]),
        np.vstack([np.linspace(0, 2, 6), final]),
        np.zeros(6), K=1.0)
    cls = particle.classify_asymptotic(traj, phi_ref=lambda t: 1.0)
    assert cls.converged
    assert cls.n_anti == 1
    assert cls.i_anti == (3,)


def test_classify_unconverged():
    rng = np.random.default_rng(16)
    th = rng.uniform(0, TWO_PI, 8)
    traj = particle.ParticleTrajectory(
        np.array([0.0, 1.0]), np.vstack([th, th]), np.zeros(8), K=1.0)
    cls = particle.classify_asymptotic(traj, tol=1e-9)
    assert not cls.converged
    assert set(cls.labels) == {"undetermined"}


def test_run_particles_and_csv(tmp_path):
    rng = np.random.default_rng(17)
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 12),
                                np.zeros(12), K=1.0)
    traj = particle.run_particles(st, 2.0, dt=0.01, sample_every=0.5)
    assert traj.n_samples == 5
    assert traj.ts[-1] == pytest.approx(2.0)
    path = tmp_path / "traj.csv"
    particle.trajectory_to_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,r,phi,D,V_p"
    back = particle.load_config_csv(_write_config(tmp_path, st), K=st.K)
    assert np.allclose(back.thetas, st.thetas)
    assert np.allclose(back.omegas, st.omegas)


def test_csv_rows_match_order_and_potential(tmp_path):
    rng = np.random.default_rng(18)
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 300),
                                rng.normal(0, 0.5, 300), K=1.5)
    traj = particle.run_particles(st, 1.0, dt=0.02, sample_every=0.1)
    path = tmp_path / "traj.csv"
    rows = particle.trajectory_to_csv(traj, path)
    lines = path.read_text().splitlines()[1:]
    np.testing.assert_array_equal(
        rows, [[float(x) for x in line.split(",")] for line in lines])
    assert rows.shape == (traj.n_samples, 5)
    for i, (t, r, phi, d, v) in enumerate(rows):
        s = traj.state_at(i)
        op = particle.particle_order(s)
        assert t == s.t
        assert abs(r - op.R) <= 1e-14
        assert abs(phi - op.phi) <= 1e-14
        assert d == particle.phase_diameter(s)
        assert abs(v - particle.particle_potential(s)) <= 1e-14 * max(1.0, abs(v))


def test_run_particles_exact_sample_times(tmp_path):
    rng = np.random.default_rng(19)
    st = particle.ParticleState(rng.uniform(0, TWO_PI, 8), np.zeros(8), K=1.0)
    traj = particle.run_particles(st, 0.5, dt=0.01, sample_every=0.05)
    np.testing.assert_array_equal(traj.ts, 0.05 * np.arange(11))
    assert traj.ts[-1] == 0.5
    particle.trajectory_to_csv(traj, tmp_path / "traj.csv")
    t_col = [line.split(",")[0]
             for line in (tmp_path / "traj.csv").read_text().splitlines()[1:]]
    assert t_col[-1] == "0.5"
    later = particle.ParticleState(st.thetas, st.omegas, K=1.0, t=0.3)
    traj = particle.run_particles(later, 0.8, dt=0.01, sample_every=0.1)
    np.testing.assert_array_equal(traj.ts, 0.3 + 0.1 * np.arange(6))
    assert particle.run_particles(later, 0.3, dt=0.01, sample_every=0.1).n_samples == 1


@pytest.mark.parametrize("t_end", [0.52, 0.549, 0.02])
def test_run_particles_rejects_incommensurate_t_end(t_end):
    st = particle.ParticleState(np.array([0.1, 0.2]), np.zeros(2), K=1.0)
    with pytest.raises(ValueError, match="whole number of sample intervals"):
        particle.run_particles(st, t_end, dt=0.01, sample_every=0.05)
    with pytest.raises(ValueError, match="must not precede"):
        particle.run_particles(st, -0.05, dt=0.01, sample_every=0.05)


def _write_config(tmp_path, st):
    import csv
    path = tmp_path / "config.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "omega"])
        for th, om in zip(st.thetas, st.omegas):
            w.writerow([format(th, ".17g"), format(om, ".17g")])
    return path


def test_sample_phases_follows_profile():
    def profile(th):
        return (1.0 + 0.8 * np.cos(th)) / TWO_PI
    th = particle.sample_phases(profile, 1.8 / TWO_PI, 20000, np.random.default_rng(3))
    assert th.shape == (20000,)
    assert np.all((th >= 0.0) & (th < TWO_PI))
    # first Fourier mode of the profile: E[cos] = 0.4
    assert np.mean(np.cos(th)) == pytest.approx(0.4, abs=0.02)
    again = particle.sample_phases(profile, 1.8 / TWO_PI, 20000, np.random.default_rng(3))
    np.testing.assert_array_equal(th, again)
