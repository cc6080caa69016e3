import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as hst
from scipy import special
from scipy.integrate import solve_ivp

from kslab import frequency as freq
from kslab import kinetic, order

TWO_PI = 2.0 * math.pi

# MUSCL is the one kinetic scheme; this one-value parametrization only keeps
# the `[...-muscl]` test ids stable, so `scheme` is unused in the tests it marks
MUSCL = pytest.mark.parametrize("scheme", ["muscl"])


def dirac_state(n_theta, profile, K=1.0):
    grid = kinetic.PhaseGrid(n_theta)
    return kinetic.state_from_profile(grid, freq.dirac_at_zero(), 1, K, profile)


def uniform_state(n_theta=64, n_omega=8, K=2.0, halfwidth=0.5, a=0.3):
    grid = kinetic.PhaseGrid(n_theta)
    g = freq.uniform(halfwidth)
    return kinetic.state_from_profile(grid, g, n_omega, K,
                                      freq.cosine_profile(a))


def test_grid_validation():
    with pytest.raises(ValueError):
        kinetic.PhaseGrid(8)
    grid = kinetic.PhaseGrid(32)
    assert grid.dtheta == pytest.approx(TWO_PI / 32)
    assert grid.centers[0] == pytest.approx(0.5 * grid.dtheta)
    assert tuple(grid.trig_edges[0]) == (0.0, 1.0)      # sin, cos of the edge at 0


def velocity(state, op):
    """The solver's edge velocities (``_edge_velocity``) at the grid's edges,
    from the phasor of op."""
    z = op.R * complex(math.cos(op.phi), math.sin(op.phi)) if op.defined else 0j
    return kinetic._edge_velocity(state, z, state.grid.trig_edges,
                                  np.empty(state.values.shape))


def test_velocity_at_average_phase():
    st = uniform_state()
    op = order.OrderParams(0.5, 7 * st.grid.dtheta, True)
    v = velocity(st, op)
    assert v[:, 7] == pytest.approx(st.omega, abs=1e-14)


def test_velocity_without_coupling_term():
    st = uniform_state()
    op = order.OrderParams(0.0, 0.0, False)
    v = velocity(st, op)
    assert np.allclose(v, st.omega[:, None])


def test_velocity_direct_value():
    # omega = 0.1, K = 2, R = 0.5, theta - phi = pi/2 -> 0.1 - 1.0 = -0.9
    grid = kinetic.PhaseGrid(16)
    values = np.full((1, 16), 1.0 / TWO_PI)
    st = kinetic.KineticState(grid, np.array([0.1]), np.ones(1), values, K=2.0)
    op = order.OrderParams(0.5, 0.0, True)
    v = velocity(st, op)
    j = 4  # edge at pi/2 on the 16-cell grid
    assert j * grid.dtheta == pytest.approx(math.pi / 2)
    assert v[0, j] == pytest.approx(-0.9)


def velocity_direct(state, op):
    """omega_k - K R sin(theta_j - phi) with one sine per edge: the oracle
    for the table-based velocity."""
    KR = state.K * (op.R if op.defined else 0.0)
    edges = np.arange(state.grid.n_theta) * state.grid.dtheta
    return state.omega[:, None] - KR * np.sin(edges - op.phi)[None, :]


@pytest.mark.parametrize("K", [0.0, 1.7, 6.0])
def test_velocity_field_matches_direct_sine(K):
    rng = np.random.default_rng(3)
    st = uniform_state(n_theta=128, n_omega=5, K=K)
    ops = [order.OrderParams(rng.uniform(0.0, 1.0), rng.uniform(0.0, TWO_PI), True)
           for _ in range(20)] + [order.OrderParams(1e-13, 0.0, False)]
    for op in ops:
        v = velocity(st, op)
        assert np.max(np.abs(v - velocity_direct(st, op))) <= 1e-14
    # the stepping path takes the velocity straight from the phasor, at the
    # padded edges 0 .. n_theta + 1 of the stepper (edge n_theta is edge 0)
    z = order.phasor(st.grid, st.weights, st.values)
    muscl = kinetic._Muscl(st, 0.5)
    v = kinetic._edge_velocity(st, z, muscl.trig, muscl.vel.a)
    assert np.max(np.abs(v[:, :-2] - velocity_direct(st, order.global_order(st)))) <= 1e-14
    assert np.array_equal(v[:, -2], v[:, 0])


def test_cfl_degenerate_returns_dt_max():
    # no velocity anywhere: the CFL length is inf, and cfl_dt and run cap it at
    # DT_MAX; a sample interval of 2.5 takes two DT_MAX steps and one of 0.5
    grid = kinetic.PhaseGrid(32)
    values = np.full((1, 32), 1.0 / TWO_PI)
    st = kinetic.KineticState(grid, np.zeros(1), np.ones(1), values, K=0.0)
    assert kinetic._Muscl(st, 0.5).step_length(st, 0.0) == math.inf
    assert kinetic.cfl_dt(st, 0.5) == kinetic.DT_MAX == 1.0
    res = kinetic.run(st, 2.5, 2.5)
    assert res.max_dt == 1.0 and res.n_steps == 3


def test_stepper_contract():
    # z and the phasor each step returns are those of the stepper's values,
    # bit for bit, and a sample is the state at its time with a copy of them
    st = uniform_state(n_theta=64, n_omega=3, K=2.0)
    muscl = kinetic._Muscl(st, 0.5)
    assert np.array_equal(muscl.values, st.values)
    assert muscl.z == order.phasor(st.grid, st.weights, muscl.values)
    z, t = muscl.z, 0.0
    for _ in range(3):
        dt = muscl.step_length(st, abs(z))
        z = muscl.step(st, t, dt, z)
        t += dt
        assert z == order.phasor(st.grid, st.weights, muscl.values)
    sample = muscl.sample(st, t)
    assert sample.t == t and np.array_equal(sample.values, muscl.values)
    assert not np.shares_memory(sample.values, muscl.values)
    assert sample.grid is st.grid and sample.omega is st.omega and sample.weights is st.weights
    assert sample.K == st.K


def test_cfl_at_full_velocity_bound():
    # all mass in one cell: R = 1, so the bound M + K R is M + K exactly
    grid = kinetic.PhaseGrid(256)
    values = np.zeros((1, 256))
    values[0, 10] = 1.0 / grid.dtheta
    st = kinetic.KineticState(grid, np.array([1.0]), np.ones(1), values, K=4.0)
    dt = kinetic.cfl_dt(st, 0.5)
    assert dt == pytest.approx(0.5 * grid.dtheta / 5.0)
    assert dt <= 0.5 * (TWO_PI / 256) / 5.0 * (1 + 1e-12)


@MUSCL
def test_step_uniform_profile_is_steady(scheme):
    st = uniform_state(a=0.0)
    out = kinetic.step(st, 1e-3)
    assert np.allclose(out.values, st.values, atol=1e-15)
    assert out.t == pytest.approx(1e-3)


def test_step_zero_velocity_keeps_state():
    st = dirac_state(64, freq.cosine_profile(0.4), K=0.0)
    out = kinetic.step(st, 0.01)
    assert np.array_equal(out.values, st.values)


def kernel_stage(state, values, dt):
    """One forward-Euler stage of the solver's kernel from values at state.t."""
    muscl = kinetic._Muscl(state, 1.0)
    src, dst = muscl.bufs[0], muscl.bufs[1]
    src.inner[...] = values
    muscl.stage(state, src, dst, dt, order.phasor(state.grid, state.weights, src.inner))
    return dst.inner.copy()


@MUSCL
def test_step_amplitude_grows_and_matches_dense_ode(scheme):
    # independent oracle: the same semi-discrete system integrated by a
    # high-order adaptive method
    st = dirac_state(64, freq.cosine_profile(0.2), K=1.0)
    dt = 2e-3
    R0 = order.global_order(st).R
    out = kinetic.step(st, dt)
    R1 = order.global_order(out).R
    assert R1 > R0

    def rhs(t, y):
        values = y.reshape(st.values.shape)
        return (kernel_stage(st, values, 1.0) - values).ravel()

    sol = solve_ivp(rhs, (0.0, dt), st.values.ravel(), rtol=1e-11, atol=1e-13)
    ref = kinetic.KineticState(st.grid, st.omega, st.weights,
                               sol.y[:, -1].reshape(st.values.shape), K=st.K)
    R_ref = order.global_order(ref).R
    assert abs(R1 - R_ref) <= 50.0 * dt ** 3


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, -math.inf])
def test_step_rejects_a_dt_that_is_not_positive(dt):
    # a NaN dt is a bad argument, not a non-finite cell
    st = dirac_state(64, freq.cosine_profile(0.2), K=1.0)
    with pytest.raises(ValueError, match="dt must be positive"):
        kinetic.step(st, dt)


def test_step_aborts_on_nan_with_location():
    with pytest.raises(kinetic.FluxNanError) as err:
        kinetic.step(two_slice_state(1, 5, math.nan), 1e-4)
    assert err.value.slice_index == 1


@MUSCL
@pytest.mark.parametrize("omega", [0.1, -0.1])
def test_nan_reported_at_its_own_cell(scheme, omega):
    with pytest.raises(kinetic.FluxNanError) as err:
        kinetic.step(two_slice_state(1, 5, math.nan, omega), 1e-4)
    assert (err.value.slice_index, err.value.cell_index) == (1, 5)


@MUSCL
@pytest.mark.parametrize("omega", [0.1, -0.1])
def test_nan_next_to_a_ghost_column_reported_at_its_own_cell(scheme, omega):
    # cells 0 and n_theta - 1 are copied into the ghost columns of the buffers;
    # a NaN there is reported at its cell, in either slice, never at a ghost
    for k, j in ((0, 0), (0, 31), (1, 0), (1, 31)):
        with pytest.raises(kinetic.FluxNanError) as err:
            kinetic.step(two_slice_state(k, j, math.nan, omega), 1e-4)
        assert (err.value.slice_index, err.value.cell_index) == (k, j)


def _phi_gap(a, b):
    return abs((a - b + math.pi) % TWO_PI - math.pi)


@settings(max_examples=30, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1),
       n_theta=hst.sampled_from([16, 24, 64]),
       n_omega=hst.integers(1, 3),
       K=hst.floats(0.0, 5.0, allow_nan=False),
       m=hst.integers(1, 63))
def test_step_properties(seed, n_theta, n_omega, K, m):
    # conservation, positivity, rotation equivariance and reflection symmetry
    # of one step on random nonnegative data (with exact zeros)
    rng = np.random.default_rng(seed)
    grid = kinetic.PhaseGrid(n_theta)
    values = (rng.uniform(0.0, 1.0, (n_omega, n_theta))
              * (rng.uniform(0.0, 1.0, (n_omega, n_theta)) < 0.8)
              * (1.0 + 0.5 * np.cos(grid.centers - rng.uniform(0.0, TWO_PI))))
    omega = rng.uniform(-1.0, 1.0, n_omega)
    weights = rng.uniform(0.1, 1.0, n_omega)

    def make(om, vals):
        return kinetic.KineticState(grid, om, weights, vals, K=K)

    st = make(omega, values)
    op = order.global_order(st)
    assume(op.R > 1e-2)
    dt = kinetic.cfl_dt(st, 0.5)
    out = kinetic.step(st, dt)
    m0 = st.slice_masses()
    assert np.all(np.abs(out.slice_masses() - m0) <= 1e-12 * m0)
    assert np.min(out.values) >= -1e-13
    out_op = order.global_order(out)

    m %= n_theta
    shifted = kinetic.step(make(omega, np.roll(values, m, axis=1)), dt)
    assert np.max(np.abs(shifted.values - np.roll(out.values, m, axis=1))) <= 1e-12
    sh_op = order.global_order(shifted)
    assert abs(sh_op.R - out_op.R) <= 1e-12
    assert _phi_gap(sh_op.phi, out_op.phi + m * grid.dtheta) <= 1e-12

    mirrored = kinetic.step(make(-omega, values[:, ::-1]), dt)
    assert np.max(np.abs(mirrored.values - out.values[:, ::-1])) <= 1e-12
    mi_op = order.global_order(mirrored)
    assert abs(mi_op.R - out_op.R) <= 1e-12
    assert _phi_gap(mi_op.phi, -out_op.phi) <= 1e-12


@MUSCL
def test_conservation_and_velocity_bound(scheme):
    st = uniform_state(n_theta=128, n_omega=8, K=2.0, halfwidth=0.5)
    m0 = st.slice_masses()
    M = float(np.max(np.abs(st.omega)))
    for _ in range(100):
        dt = kinetic.cfl_dt(st, 0.5)
        prev = st.slice_masses()
        op = order.global_order(st)
        v = velocity(st, op)
        assert np.max(np.abs(v)) <= M + st.K + 1e-12
        st = kinetic.step(st, dt)
        m = st.slice_masses()
        assert np.all(np.abs(m - prev) <= 1e-12 * m0)
        assert np.min(st.values) >= -1e-13


def test_positivity_preserved():
    st = dirac_state(128, freq.von_mises_profile(20.0), K=1.0)
    res = kinetic.run(st, 2.0, 0.5)
    assert np.min(res.final_state.values) >= -1e-13


def test_run_checks_positivity_each_step(monkeypatch):
    st = dirac_state(64, freq.cosine_profile(0.2))
    res = kinetic.run(st, 0.5, 0.25)
    assert 0.0 < res.min_cell_value <= min(np.min(st.values),
                                           np.min(res.final_state.values))

    advance = kinetic._Muscl.advance

    def dip(depth):
        def dipped(muscl, *args):
            out = advance(muscl, *args)
            out[0, 3] = -depth
            return out
        return dipped

    monkeypatch.setattr(kinetic._Muscl, "advance", dip(1e-14))
    assert kinetic.run(st, 0.5, 0.25).min_cell_value == -1e-14
    monkeypatch.setattr(kinetic._Muscl, "advance", dip(1e-12))
    with pytest.raises(ValueError, match="nonnegative"):
        kinetic.run(st, 0.5, 0.25)


def two_slice_state(k, j, value, omega=0.1):
    """A 2-slice state on 32 cells, at -omega and omega, whose cell (k, j)
    holds value, set after the state is built (its own check rejects a -inf
    cell)."""
    grid = kinetic.PhaseGrid(32)
    st = kinetic.KineticState(grid, np.array([-omega, omega]), np.full(2, 0.5),
                              np.full((2, 32), 1.0 / TWO_PI), K=1.0)
    st.values[k, j] = value
    return st


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k, j", [(0, 0), (0, 31), (1, 0), (1, 5), (1, 31)])
def test_run_names_a_non_finite_start_cell(k, j, value):
    # run and step take one checked step: each names the cell, in either slice
    # and next to the ghost columns (cells 0 and 31 are copied there), never a
    # ghost, whichever way the slices move; an infinite cell makes inf - inf on
    # the way, which numpy warns about
    entries = (lambda st: kinetic.run(st, 0.5, 0.25), lambda st: kinetic.step(st, 1e-4))
    for omega in (0.1, -0.1):
        for entry in entries:
            with np.errstate(invalid="ignore"), pytest.raises(kinetic.FluxNanError) as err:
                entry(two_slice_state(k, j, value, omega))
            assert (err.value.slice_index, err.value.cell_index) == (k, j)
            assert str(err.value).endswith(", t=0")


def nan_at_call(n, cell=(0, 3)):
    """An advance that puts a NaN into cell of the result of its n-th call
    and records the step length of each call."""
    advance, calls = kinetic._Muscl.advance, []

    def advanced(muscl, *args):         # args end with dt, z
        out = advance(muscl, *args)
        calls.append(args[-2])
        if len(calls) == n:
            out[cell] = math.nan
        return out
    return advanced, calls


def test_run_names_a_nan_that_appears_mid_run(monkeypatch):
    st = dirac_state(64, freq.cosine_profile(0.2))
    advanced, calls = nan_at_call(3)
    monkeypatch.setattr(kinetic._Muscl, "advance", advanced)
    with pytest.raises(kinetic.FluxNanError) as err:
        kinetic.run(st, 2.0, 1.0)
    assert (err.value.slice_index, err.value.cell_index) == (0, 3)
    # the third step ends inside the first sample interval, at the sum of the three steps
    assert sum(calls[:3]) < 1.0
    assert str(err.value).endswith(f", t={sum(calls[:3]):.6g}")


def test_run_names_a_nan_in_its_last_step(monkeypatch):
    st = dirac_state(64, freq.cosine_profile(0.2))
    n_steps = kinetic.run(st, 0.5, 0.25).n_steps
    advanced, calls = nan_at_call(n_steps, cell=(0, 63))
    monkeypatch.setattr(kinetic._Muscl, "advance", advanced)
    with pytest.raises(kinetic.FluxNanError) as err:
        kinetic.run(st, 0.5, 0.25)
    assert (err.value.slice_index, err.value.cell_index) == (0, 63)
    assert len(calls) == n_steps


def test_state_rejects_a_negative_cell():
    grid = kinetic.PhaseGrid(32)
    values = np.full((1, 32), 1.0 / TWO_PI)
    values[0, 7] = -1e-12
    with pytest.raises(ValueError, match="nonnegative"):
        kinetic.KineticState(grid, np.zeros(1), np.ones(1), values, K=1.0)


@pytest.mark.parametrize("K", [-1.0, math.nan, math.inf])
def test_state_rejects_a_negative_or_non_finite_coupling(K):
    # NaN passed the old K < 0 check
    values = np.full((1, 32), 1.0 / TWO_PI)
    with pytest.raises(ValueError, match="coupling strength must be finite and nonnegative"):
        kinetic.KineticState(kinetic.PhaseGrid(32), np.zeros(1), np.ones(1), values, K=K)


def test_sampler_gets_the_run_values_at_each_sample_time(monkeypatch):
    st = uniform_state(n_theta=64, n_omega=3, K=2.0)
    samples = []
    with monkeypatch.context() as m:
        # the run's own per-step checks stand in for the state's full scan
        m.setattr(kinetic.KineticState, "__post_init__", lambda self: pytest.fail("rescan"))
        res = kinetic.run(st, 0.75, 0.25, sampler=lambda s, op: samples.append(s) or s.t)
    assert res.records == [0.0, 0.25, 0.5, 0.75]
    assert samples[-1] is res.final_state
    for i, s in enumerate(samples[1:], start=1):
        alone = kinetic.run(st, 0.25 * i, 0.25).final_state
        assert s.t == alone.t == 0.25 * i
        assert np.array_equal(s.values, alone.values)
        assert s.grid is st.grid and s.omega is st.omega and s.weights is st.weights
        assert s.K == st.K
    for a, b in zip(samples, samples[1:]):
        assert not np.shares_memory(a.values, b.values)


def oracle_stage(state, values, dt, z):
    """The plain-array stage the ghost-padded kernel replaced: periodic shifts
    by copy, minmod as max(min(dl, dr), 0) + min(max(dl, dr), 0), and a fresh
    array for every intermediate."""
    def shift_right(a):           # out[:, j] = a[:, j - 1]
        return np.concatenate([a[:, -1:], a[:, :-1]], axis=1)

    def shift_left(a):            # out[:, j] = a[:, j + 1]
        return np.concatenate([a[:, 1:], a[:, :1]], axis=1)

    if state.K == 0.0 or not abs(z) > order.TOL_R:
        v_edges = np.broadcast_to(state.omega[:, None], values.shape)
    else:
        v_edges = state.omega[:, None] - state.grid.trig_edges @ (state.K * z.real,
                                                                  -state.K * z.imag)
    dr = shift_left(values) - values
    dl = shift_right(dr)
    slopes = (np.maximum(np.minimum(dl, dr), 0.0)
              + np.minimum(np.maximum(dl, dr), 0.0))
    left, right = shift_right(values + 0.5 * slopes), values - 0.5 * slopes
    flux = v_edges * np.where(v_edges >= 0.0, left, right)
    return values - (dt / state.grid.dtheta) * (shift_left(flux) - flux)


def oracle_step(state, values, dt, z):
    f1 = oracle_stage(state, values, dt, z)
    f2 = oracle_stage(state, f1, dt, order.phasor(state.grid, state.weights, f1))
    return 0.5 * (values + f2)


def kernel_state(n_omega, n_theta, K, seam, seed=11):
    """Random nonnegative slices (with exact zeros) of unit total mass; with
    `seam`, every other slice is scaled by 1e6, so a slice that read its
    neighbour's cells would be visibly wrong."""
    rng = np.random.default_rng(seed)
    grid = kinetic.PhaseGrid(n_theta)
    values = (rng.uniform(0.0, 1.0, (n_omega, n_theta))
              * (rng.uniform(0.0, 1.0, (n_omega, n_theta)) < 0.8))
    if seam:
        values *= 1e6 ** (np.arange(n_omega) % 2)[:, None]
    omega = np.array([-0.6]) if n_omega == 1 else np.linspace(-0.7, 0.9, n_omega)
    weights = 1.0 / (n_omega * values.sum(axis=1) * grid.dtheta)
    return kinetic.KineticState(grid, omega, weights, values, K=K)


KERNEL_CASES = ([(n_omega, n_theta, K, False) for n_omega in (1, 3)
                 for n_theta in (16, 17, 64) for K in (0.0, 2.5)]
                + [(3, n_theta, K, True) for n_theta in (16, 17) for K in (0.0, 2.5)])


@MUSCL
@pytest.mark.parametrize("n_omega,n_theta,K,seam", KERNEL_CASES)
def test_kernel_matches_plain_array_oracle(n_omega, n_theta, K, seam, scheme):
    st = kernel_state(n_omega, n_theta, K, seam)
    dt = 2.0 ** math.floor(math.log2(0.5 * st.grid.dtheta / (0.9 + K)))
    z = order.phasor(st.grid, st.weights, st.values)
    assert np.array_equal(kernel_stage(st, st.values, dt),
                          oracle_stage(st, st.values, dt, z))
    assert np.array_equal(kinetic.step(st, dt).values, oracle_step(st, st.values, dt, z))

    # 50 steps of run, dt a power of two below the CFL length, sampled every dt
    # so every step takes it exactly; the sampler keeps the values it is
    # handed, so they must be copies
    res = kinetic.run(st, 50 * dt, dt, sampler=lambda s, op: s.values)
    m0 = st.slice_masses()
    total0 = float(st.weights @ m0)
    values, samples = st.values, [st.values]
    prev_R, min_dR, drift_rel, total_drift = None, 0.0, 0.0, 0.0
    min_value = float(values.min())
    for i in range(1, 51):
        z = order.phasor(st.grid, st.weights, values)
        if prev_R is not None:
            min_dR = min(min_dR, abs(z) - prev_R)
        prev_R = abs(z)
        values = oracle_step(st, values, dt, z)
        min_value = min(min_value, float(values.min()))
        m = values.sum(axis=1) * st.grid.dtheta
        drift_rel = max(drift_rel, float(np.max(np.abs(m - m0) / m0)))
        total_drift = max(total_drift, abs(float(st.weights @ m) - total0))
        if i % 10 == 0:
            samples.append(values)
    min_dR = min(min_dR, order.global_order(res.final_state).R - prev_R)
    assert res.n_steps == 50 and res.max_dt == dt
    assert len(res.records) == 51 and len(samples) == 6
    assert all(np.array_equal(a, b) for a, b in zip(res.records[::10], samples))
    assert np.array_equal(res.final_state.values, values)
    assert (res.min_step_delta_R, res.max_slice_mass_drift_rel,
            res.max_total_mass_drift, res.min_cell_value) == (
                min_dR, drift_rel, total_drift, min_value)


def test_rigid_rotation_at_zero_coupling():
    # at K = 0 each slice translates: f_k(theta, t) = f0(theta - omega_k t);
    # slices of both signs move apart, so a leak across the seams would show
    profile = freq.cosine_profile(0.3, 1.0)
    errs = []
    for n in (64, 128, 256, 512):
        grid = kinetic.PhaseGrid(n)
        st = kinetic.state_from_profile(grid, freq.uniform(0.8), 4, 0.0, profile)
        assert np.min(st.omega) < 0.0 < np.max(st.omega)
        out = kinetic.run(st, 1.0, 1.0, cfl=0.5).final_state
        norm = kinetic.project_profile(grid, profile).sum() * grid.dtheta
        exact = np.array([kinetic.project_profile(grid, lambda th, w=w: profile(th - w))
                          for w in st.omega]) / norm
        errs.append(np.sum(np.abs(out.values - exact), axis=1) * grid.dtheta)
    errs = np.array(errs)                       # (grid level, slice), L1 per slice
    rates = np.log2(errs[:-1] / errs[1:])
    assert rates.min() >= 1.75, rates            # seen 1.84-1.94
    assert errs[-1].max() <= 5e-5, errs[-1]      # seen 3.0e-5


def test_run_zero_horizon_returns_initial_record():
    st = dirac_state(64, freq.cosine_profile(0.2))
    res = kinetic.run(st, st.t, 0.1, sampler=lambda s, op: s.t)
    assert res.records == [0.0]
    with pytest.raises(ValueError):
        kinetic.run(st, -1.0, 0.1)


def test_sampler_gets_each_state_with_its_order_parameters():
    st = kinetic.state_from_profile(kinetic.PhaseGrid(64), freq.uniform(0.5), 4, 1.5,
                                    freq.von_mises_profile(2.0, 1.0))
    calls = []
    res = kinetic.run(st, 1.0, 0.1, sampler=lambda s, op: calls.append((s, op)))
    assert [s.t for s, _ in calls] == pytest.approx(0.1 * np.arange(11))
    assert all(op == order.global_order(s) for s, op in calls)
    assert res.final_state is calls[-1][0]


def test_run_flushes_subnormal_cells_at_each_sample():
    # the contraction drives the far field of a step profile from 1e-305 into
    # the subnormal range, where arithmetic is slow: each sample flushes it to 0
    grid = kinetic.PhaseGrid(64)
    rho = np.where(np.cos(grid.centers) > 0.0, 1.0, 1e-305)
    st = kinetic.KineticState(grid, np.zeros(1), np.ones(1),
                              (rho / (rho.sum() * grid.dtheta))[None, :], K=40.0)
    res = kinetic.run(st, 0.5, 0.05, sampler=lambda s, op: s.values)
    tiny = np.finfo(float).tiny
    assert not any(np.any((v != 0.0) & (np.abs(v) < tiny)) for v in res.records)
    assert np.count_nonzero(res.final_state.values == 0.0) > 0


def test_run_rejects_sample_intervals_within_time_tolerance():
    # such a run used to take no step yet stamp its samples with their times
    st = dirac_state(64, freq.cosine_profile(0.2))
    for sample_every in (1e-13, 1e-12):
        with pytest.raises(ValueError, match="time tolerance"):
            kinetic.run(st, 10 * sample_every, sample_every)
    res = kinetic.run(st, 2e-11, 2e-12, sampler=lambda s, op: s.t)
    assert res.n_steps == 10 and res.records[-1] == res.final_state.t
    assert res.final_state.t == pytest.approx(2e-11, rel=1e-12)


def test_run_is_deterministic():
    make = lambda: dirac_state(64, freq.cosine_profile(0.2), K=1.0)
    r1 = kinetic.run(make(), 2.0, 0.1, sampler=lambda s, op: s.values.copy())
    r2 = kinetic.run(make(), 2.0, 0.1, sampler=lambda s, op: s.values.copy())
    assert len(r1.records) == len(r2.records)
    for a, b in zip(r1.records, r2.records):
        assert np.array_equal(a, b)


def test_identical_case_long_run_reaches_unity():
    st = dirac_state(64, freq.cosine_profile(0.2), K=1.0)
    res = kinetic.run(st, 40.0, 0.5)
    assert order.global_order(res.final_state).R >= 0.99
    assert res.min_step_delta_R >= -1e-9
    assert res.max_slice_mass_drift_rel <= 1e-12


def test_sampling_cadence():
    st = dirac_state(64, freq.cosine_profile(0.2))
    res = kinetic.run(st, 1.0, 0.25, sampler=lambda s, op: s.t)
    assert res.records == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize("t0", [0.0, 0.3])
def test_sample_times_are_exact_multiples(t0):
    st = dataclasses.replace(kinetic.state_from_profile(
        kinetic.PhaseGrid(64), freq.dirac_at_zero(), 1, 1.0, freq.cosine_profile(0.2)), t=t0)
    res = kinetic.run(st, t0 + 2.0, 0.1, sampler=lambda s, op: s.t)
    assert res.records == [t0 + i * 0.1 for i in range(21)]
    assert res.final_state.t == t0 + 20 * 0.1


def test_t_end_within_tolerance_ends_at_the_last_sample():
    # 1.0000000001 is 10 sample intervals to 1e-9: the run takes the steps of
    # t_end 1.0 and no step past the sample at 1.0
    st = kinetic.state_from_profile(kinetic.PhaseGrid(64), freq.dirac_at_zero(), 1, 1.0,
                                    freq.cosine_profile(0.2))
    exact = kinetic.run(st, 1.0, 0.1, sampler=lambda s, op: s.t)
    res = kinetic.run(st, 1.0000000001, 0.1, sampler=lambda s, op: s.t)
    assert res.final_state.t == res.records[-1] == exact.final_state.t == 1.0
    assert res.records == exact.records
    assert res.n_steps == exact.n_steps
    np.testing.assert_array_equal(res.final_state.values, exact.final_state.values)


def _restrict(values, factor):
    n_omega, n = values.shape
    return values.reshape(n_omega, n // factor, factor).mean(axis=2)


def test_muscl_second_order_convergence():
    t_end = 0.3
    profile = freq.von_mises_profile(4.0, 1.0)
    ref_n = 2048
    ref = kinetic.run(dirac_state(ref_n, profile, K=1.0), t_end, t_end, cfl=0.4).final_state
    errs = []
    for n in (128, 256, 512):
        out = kinetic.run(dirac_state(n, profile, K=1.0), t_end, t_end, cfl=0.4).final_state
        coarse_ref = _restrict(ref.values, ref_n // n)
        errs.append(float(np.sum(np.abs(out.values - coarse_ref)) * out.grid.dtheta))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(rates) >= 1.7


def wrapped_cauchy(r0):
    """Density of the wrapped Cauchy law with first moment r0."""
    return lambda th: (1.0 - r0 * r0) / (TWO_PI * (1.0 + r0 * r0 - 2.0 * r0 * np.cos(th)))


def oa_order(t, r0, K):
    """Exact R(t) for identical oscillators on the Ott-Antonsen manifold:
    R^2 = R0^2 e^{Kt} / (1 - R0^2 + R0^2 e^{Kt})."""
    e = r0 * r0 * math.exp(K * t)
    return math.sqrt(e / (1.0 - r0 * r0 + e))


def test_ott_antonsen_exact_order():
    # a wrapped-Cauchy start of identical oscillators stays wrapped Cauchy,
    # so R(t) is known in closed form; MUSCL converges to it at second order
    errs = []
    for n in (128, 256, 512, 1024):
        res = kinetic.run(dirac_state(n, wrapped_cauchy(0.3), K=2.0), 2.0, 0.1,
                          sampler=lambda s, op: (s.t, op.R), cfl=0.5)
        assert len(res.records) == 21
        errs.append(max(abs(R - oa_order(t, 0.3, 2.0)) for t, R in res.records))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(rates) >= 1.8, (errs, rates)
    assert errs[-1] <= 3e-5


# ---------------------------------------------------------------------------
# characteristics


def constant_series(R, phi, t0=0.0, t1=10.0):
    ts = np.linspace(t0, t1, 101)
    return kinetic.OrderSeries(ts, np.full(101, R), np.full(101, phi))


def test_characteristics_free_streaming():
    series = constant_series(0.5, 0.0)
    ts, th = kinetic.characteristics(series, 0.3, 1.7, 0.0, 4.0, K=0.0)
    assert th[-1] == pytest.approx((0.3 + 1.7 * 4.0), abs=1e-12)


def test_characteristics_fixed_point():
    series = constant_series(0.5, 1.1)
    ts, th = kinetic.characteristics(series, 1.1, 0.0, 0.0, 5.0, K=2.0)
    assert np.allclose(th, 1.1, atol=1e-12)


def test_characteristics_matches_richardson_oracle():
    # the closed-form Adler solution at constant R and phi, omega = 0:
    # tan((theta - phi)/2) = tan((theta0 - phi)/2) exp(-K R t)
    R, phi, K, theta0 = 0.5, 0.3, 2.0, 2.9
    series = constant_series(R, phi, 0.0, 2.0)
    ts, th = kinetic.characteristics(series, theta0, 0.0, 0.0, 1.0, K=K)
    exact = phi + 2.0 * np.arctan(np.tan((theta0 - phi) / 2.0) * np.exp(-K * R * ts))
    assert np.max(np.abs(th - exact)) <= 1e-8


def test_characteristics_backward():
    series = constant_series(0.5, 0.0, 0.0, 2.0)
    _, fwd = kinetic.characteristics(series, 0.1, 0.3, 0.5, 1.5, K=2.0)
    _, back = kinetic.characteristics(series, float(fwd[-1]), 0.3, 1.5, 0.5, K=2.0)
    assert float(back[-1]) == pytest.approx(0.1, abs=1e-9)


def test_characteristics_outside_series_rejected():
    series = constant_series(0.5, 0.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        kinetic.characteristics(series, 0.1, 0.0, 0.0, 3.0, K=1.0)


def test_characteristics_vectorized():
    series = constant_series(0.4, 0.2, 0.0, 3.0)
    th0 = np.array([0.0, 1.0, 2.0])
    ts, th = kinetic.characteristics(series, th0, 0.0, 0.0, 2.0, K=1.5)
    assert th.shape == (ts.size, 3)
    for i in range(3):
        _, single = kinetic.characteristics(series, th0[i], 0.0, 0.0, 2.0, K=1.5)
        assert np.allclose(th[:, i], single)


def test_profile_presets():
    grid = kinetic.PhaseGrid(256)
    for profile in (freq.cosine_profile(0.4, 1.0),
                    freq.von_mises_profile(12.0, 2.0),
                    freq.table_profile([0.0, 2.0, 4.0], [0.2, 0.5, 0.1])):
        st = kinetic.state_from_profile(grid, freq.dirac_at_zero(), 1, 1.0, profile)
        assert st.slice_masses() == pytest.approx([1.0], abs=1e-14)
        assert np.min(st.values) >= 0.0
    with pytest.raises(ValueError):
        freq.cosine_profile(0.6)
    with pytest.raises(ValueError, match="zero mass"):
        freq.table_profile([0.0, 1.0, 3.0], [0.0, 0.0, 0.0])


def test_gauss4_literals_are_numpys_rule():
    # project_profile, and every initial state with it, stays bit for bit the same
    x, w = np.polynomial.legendre.leggauss(4)
    assert np.array_equal(kinetic._GAUSS4_X, x)
    assert np.array_equal(kinetic._GAUSS4_W, w)


def test_i0e_matches_scipy():
    # the von Mises normalizer: numpy's I0 below 50, the asymptotic series above
    xs = np.concatenate([[0.0, 49.999, 50.0, 50.001], np.linspace(0.0, 100.0, 4001),
                         np.linspace(100.0, 1e4, 2001), 10.0 ** np.linspace(-10.0, 4.0, 281)])
    got = np.array([freq._i0e(float(x)) for x in xs])
    np.testing.assert_allclose(got, special.i0e(xs), rtol=1e-15, atol=0.0)
