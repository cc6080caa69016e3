import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as hst
from scipy import special
from scipy.integrate import solve_ivp

from kslab import frequency as freq
from kslab import kinetic, order

TWO_PI = 2.0 * math.pi


def dirac_state(n_theta, profile, K=1.0):
    grid = kinetic.PhaseGrid(n_theta)
    return kinetic.state_from_profile(grid, freq.dirac_at_zero(), 1, K, profile)


def uniform_state(n_theta=64, n_omega=8, K=2.0, halfwidth=0.5, a=0.3):
    grid = kinetic.PhaseGrid(n_theta)
    g = freq.uniform(halfwidth, n_nodes=n_omega)
    return kinetic.state_from_profile(grid, g, n_omega, K,
                                      kinetic.cosine_profile(a))


def test_grid_validation():
    with pytest.raises(ValueError):
        kinetic.PhaseGrid(8)
    grid = kinetic.PhaseGrid(32)
    assert grid.dtheta == pytest.approx(TWO_PI / 32)
    assert grid.centers[0] == pytest.approx(0.5 * grid.dtheta)
    assert grid.edges[0] == 0.0


def test_velocity_at_average_phase():
    st = uniform_state()
    op = order.OrderParams(0.5, st.grid.edges[7], True)
    v = kinetic.velocity_field(st, op)
    assert v[:, 7] == pytest.approx(st.omega, abs=1e-14)


def test_velocity_without_coupling_term():
    st = uniform_state()
    op = order.OrderParams(0.0, 0.0, False)
    v = kinetic.velocity_field(st, op)
    assert np.allclose(v, st.omega[:, None])


def test_velocity_direct_value():
    # omega = 0.1, K = 2, R = 0.5, theta - phi = pi/2 -> 0.1 - 1.0 = -0.9
    grid = kinetic.PhaseGrid(16)
    values = np.full((1, 16), 1.0 / TWO_PI)
    st = kinetic.KineticState(grid, np.array([0.1]), np.ones(1), values, K=2.0)
    op = order.OrderParams(0.5, 0.0, True)
    v = kinetic.velocity_field(st, op)
    j = 4  # edge at pi/2 on the 16-cell grid
    assert grid.edges[j] == pytest.approx(math.pi / 2)
    assert v[0, j] == pytest.approx(-0.9)


def velocity_direct(state, op):
    """omega_k - K R sin(theta_j - phi) with one sine per edge: the oracle
    for the table-based velocity."""
    KR = state.K * (op.R if op.defined else 0.0)
    return state.omega[:, None] - KR * np.sin(state.grid.edges - op.phi)[None, :]


@pytest.mark.parametrize("K", [0.0, 1.7, 6.0])
def test_velocity_field_matches_direct_sine(K):
    rng = np.random.default_rng(3)
    st = uniform_state(n_theta=128, n_omega=5, K=K)
    ops = [order.OrderParams(rng.uniform(0.0, 1.0), rng.uniform(0.0, TWO_PI), True)
           for _ in range(20)] + [order.OrderParams(1e-13, 0.0, False)]
    for op in ops:
        v = kinetic.velocity_field(st, op)
        assert np.max(np.abs(v - velocity_direct(st, op))) <= 1e-14
    # the stepping path takes the velocity straight from the phasor
    z = order.phasor(st.grid, st.weights, st.values)
    v = kinetic._edge_velocity(st, z)
    assert np.max(np.abs(v - velocity_direct(st, order.global_order(st)))) <= 1e-14


def test_cfl_degenerate_returns_dt_max():
    grid = kinetic.PhaseGrid(32)
    values = np.full((1, 32), 1.0 / TWO_PI)
    st = kinetic.KineticState(grid, np.zeros(1), np.ones(1), values, K=0.0)
    assert kinetic.cfl_dt(st, 0.5, dt_max=0.37) == 0.37


def test_cfl_at_full_velocity_bound():
    # all mass in one cell: R = 1, so the bound M + K R is M + K exactly
    grid = kinetic.PhaseGrid(256)
    values = np.zeros((1, 256))
    values[0, 10] = 1.0 / grid.dtheta
    st = kinetic.KineticState(grid, np.array([1.0]), np.ones(1), values, K=4.0)
    dt = kinetic.cfl_dt(st, 0.5)
    assert dt == pytest.approx(0.5 * grid.dtheta / 5.0)
    assert dt <= 0.5 * (TWO_PI / 256) / 5.0 * (1 + 1e-12)


@pytest.mark.parametrize("scheme", ["upwind", "muscl"])
def test_step_uniform_profile_is_steady(scheme):
    st = uniform_state(a=0.0)
    out = kinetic.step(st, 1e-3, scheme=scheme)
    assert np.allclose(out.values, st.values, atol=1e-15)
    assert out.t == pytest.approx(1e-3)


def test_step_zero_velocity_keeps_state():
    st = dirac_state(64, kinetic.cosine_profile(0.4), K=0.0)
    out = kinetic.step(st, 0.01, scheme="muscl")
    assert np.array_equal(out.values, st.values)


@pytest.mark.parametrize("scheme", ["upwind", "muscl"])
def test_step_amplitude_grows_and_matches_dense_ode(scheme):
    # independent oracle: the same semi-discrete system integrated by a
    # high-order adaptive method
    st = dirac_state(64, kinetic.cosine_profile(0.2), K=1.0)
    dt = 2e-3
    R0 = order.global_order(st).R
    out = kinetic.step(st, dt, scheme=scheme)
    R1 = order.global_order(out).R
    assert R1 > R0

    def rhs(t, y):
        values = y.reshape(st.values.shape)
        return (kinetic._stage(st, values, 1.0, scheme) - values).ravel()

    sol = solve_ivp(rhs, (0.0, dt), st.values.ravel(), rtol=1e-11, atol=1e-13)
    ref = kinetic.KineticState(st.grid, st.omega, st.weights,
                               sol.y[:, -1].reshape(st.values.shape), K=st.K)
    R_ref = order.global_order(ref).R
    assert abs(R1 - R_ref) <= 50.0 * dt ** 3


def test_step_rejects_cfl_violation():
    st = dirac_state(64, kinetic.cosine_profile(0.2), K=1.0)
    with pytest.raises(kinetic.CflError) as err:
        kinetic.step(st, 10.0)
    assert err.value.admissible < 10.0


def test_step_aborts_on_nan_with_location():
    grid = kinetic.PhaseGrid(32)
    values = np.full((2, 32), 1.0 / TWO_PI)
    values[1, 5] = math.nan
    st = kinetic.KineticState(grid, np.array([-0.1, 0.1]),
                              np.full(2, 0.5), values, K=1.0)
    with pytest.raises(kinetic.FluxNanError) as err:
        kinetic.step(st, 1e-4)
    assert err.value.slice_index == 1


@pytest.mark.parametrize("scheme", ["upwind", "muscl"])
@pytest.mark.parametrize("omega", [0.1, -0.1])
def test_nan_reported_at_its_own_cell(scheme, omega):
    grid = kinetic.PhaseGrid(32)
    values = np.full((2, 32), 1.0 / TWO_PI)
    values[1, 5] = math.nan
    st = kinetic.KineticState(grid, np.array([-omega, omega]),
                              np.full(2, 0.5), values, K=1.0)
    with pytest.raises(kinetic.FluxNanError) as err:
        kinetic.step(st, 1e-4, scheme=scheme)
    assert (err.value.slice_index, err.value.cell_index) == (1, 5)


def _phi_gap(a, b):
    return abs((a - b + math.pi) % TWO_PI - math.pi)


@settings(max_examples=30, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1),
       n_theta=hst.sampled_from([16, 24, 64]),
       n_omega=hst.integers(1, 3),
       K=hst.floats(0.0, 5.0, allow_nan=False),
       m=hst.integers(1, 63),
       scheme=hst.sampled_from(["muscl", "upwind"]))
def test_step_properties(seed, n_theta, n_omega, K, m, scheme):
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
    out = kinetic.step(st, dt, scheme=scheme)
    m0 = st.slice_masses()
    assert np.all(np.abs(out.slice_masses() - m0) <= 1e-12 * m0)
    assert np.min(out.values) >= -1e-13
    out_op = order.global_order(out)

    m %= n_theta
    shifted = kinetic.step(make(omega, np.roll(values, m, axis=1)), dt, scheme=scheme)
    assert np.max(np.abs(shifted.values - np.roll(out.values, m, axis=1))) <= 1e-12
    sh_op = order.global_order(shifted)
    assert abs(sh_op.R - out_op.R) <= 1e-12
    assert _phi_gap(sh_op.phi, out_op.phi + m * grid.dtheta) <= 1e-12

    mirrored = kinetic.step(make(-omega, values[:, ::-1]), dt, scheme=scheme)
    assert np.max(np.abs(mirrored.values - out.values[:, ::-1])) <= 1e-12
    mi_op = order.global_order(mirrored)
    assert abs(mi_op.R - out_op.R) <= 1e-12
    assert _phi_gap(mi_op.phi, -out_op.phi) <= 1e-12


@pytest.mark.parametrize("scheme", ["upwind", "muscl"])
def test_conservation_and_velocity_bound(scheme):
    st = uniform_state(n_theta=128, n_omega=8, K=2.0, halfwidth=0.5)
    m0 = st.slice_masses()
    M = float(np.max(np.abs(st.omega)))
    for _ in range(100):
        dt = kinetic.cfl_dt(st, 0.5)
        prev = st.slice_masses()
        op = order.global_order(st)
        v = kinetic.velocity_field(st, op)
        assert np.max(np.abs(v)) <= M + st.K + 1e-12
        st = kinetic.step(st, dt, scheme=scheme)
        m = st.slice_masses()
        assert np.all(np.abs(m - prev) <= 1e-12 * m0)
        assert np.min(st.values) >= -1e-13


def test_positivity_preserved():
    st = dirac_state(128, kinetic.von_mises_profile(20.0), K=1.0)
    res = kinetic.run(st, 2.0, 0.5)
    assert np.min(res.final_state.values) >= -1e-13


def test_run_checks_positivity_each_step(monkeypatch):
    st = dirac_state(64, kinetic.cosine_profile(0.2))
    res = kinetic.run(st, 0.5, 0.25)
    assert 0.0 < res.min_cell_value <= min(np.min(st.values),
                                           np.min(res.final_state.values))

    def dip(depth):
        def advance(state, values, t, dt, scheme, z):
            out = values.copy()
            out[0, 3] = -depth
            return out
        return advance

    monkeypatch.setattr(kinetic, "_advance", dip(1e-14))
    assert kinetic.run(st, 0.5, 0.25).min_cell_value == -1e-14
    monkeypatch.setattr(kinetic, "_advance", dip(1e-12))
    with pytest.raises(ValueError, match="nonnegative"):
        kinetic.run(st, 0.5, 0.25)


def test_run_zero_horizon_returns_initial_record():
    st = dirac_state(64, kinetic.cosine_profile(0.2))
    res = kinetic.run(st, st.t, 0.1, sampler=lambda s: s.t)
    assert res.records == [0.0]
    with pytest.raises(ValueError):
        kinetic.run(st, -1.0, 0.1)


def test_run_is_deterministic():
    make = lambda: dirac_state(64, kinetic.cosine_profile(0.2), K=1.0)
    r1 = kinetic.run(make(), 2.0, 0.1, sampler=lambda s: s.values.copy())
    r2 = kinetic.run(make(), 2.0, 0.1, sampler=lambda s: s.values.copy())
    assert len(r1.records) == len(r2.records)
    for a, b in zip(r1.records, r2.records):
        assert np.array_equal(a, b)


def test_identical_case_long_run_reaches_unity():
    st = dirac_state(64, kinetic.cosine_profile(0.2), K=1.0)
    res = kinetic.run(st, 40.0, 0.5)
    assert order.global_order(res.final_state).R >= 0.99
    assert res.min_step_delta_R >= -1e-9
    assert res.max_slice_mass_drift_rel <= 1e-12


def test_sampling_cadence():
    st = dirac_state(64, kinetic.cosine_profile(0.2))
    res = kinetic.run(st, 1.0, 0.25, sampler=lambda s: s.t)
    assert res.records == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize("t0", [0.0, 0.3])
def test_sample_times_are_exact_multiples(t0):
    st = kinetic.state_from_profile(kinetic.PhaseGrid(64), freq.dirac_at_zero(), 1,
                                    1.0, kinetic.cosine_profile(0.2), t=t0)
    res = kinetic.run(st, t0 + 2.0, 0.1, sampler=lambda s: s.t)
    assert res.records == [t0 + i * 0.1 for i in range(21)]
    assert res.final_state.t == t0 + 20 * 0.1


def _restrict(values, factor):
    n_omega, n = values.shape
    return values.reshape(n_omega, n // factor, factor).mean(axis=2)


def _convergence_rates(scheme):
    t_end = 0.3
    profile = kinetic.von_mises_profile(4.0, 1.0)
    ref_n = 2048
    ref = kinetic.run(dirac_state(ref_n, profile, K=1.0), t_end, t_end,
                      cfl=0.4, scheme=scheme).final_state
    errs = []
    for n in (128, 256, 512):
        out = kinetic.run(dirac_state(n, profile, K=1.0), t_end, t_end,
                          cfl=0.4, scheme=scheme).final_state
        coarse_ref = _restrict(ref.values, ref_n // n)
        errs.append(float(np.sum(np.abs(out.values - coarse_ref)) * out.grid.dtheta))
    return [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]


def test_upwind_first_order_convergence():
    rates = _convergence_rates("upwind")
    assert min(rates) >= 0.8


def test_muscl_second_order_convergence():
    rates = _convergence_rates("muscl")
    assert min(rates) >= 1.7


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
    series = constant_series(0.5, 0.0, 0.0, 2.0)
    _, coarse = kinetic.characteristics(series, 0.1, 0.0, 0.0, 1.0, K=2.0)
    _, fine = kinetic.characteristics(series, 0.1, 0.0, 0.0, 1.0, K=2.0,
                                      max_step=1e-4)
    assert abs(float(coarse[-1]) - float(fine[-1])) <= 1e-8


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


# ---------------------------------------------------------------------------
# external interfaces


def test_checkpoint_round_trip(tmp_path):
    st = uniform_state(n_theta=64, n_omega=4, K=1.5)
    st = kinetic.run(st, 0.5, 0.5).final_state
    path = tmp_path / "state.bin"
    kinetic.save_checkpoint(st, path)
    g = freq.uniform(0.5, n_nodes=4)
    back = kinetic.load_checkpoint(path, g)
    assert np.array_equal(back.values, st.values)
    assert back.t == st.t and back.K == st.K
    raw = path.read_bytes()
    n_theta, n_omega, t, K = struct.unpack("<qqdd", raw[:32])
    assert (n_theta, n_omega) == (64, 4)
    assert (t, K) == (st.t, st.K)
    vals = np.frombuffer(raw[32:], dtype="<f8")
    assert vals.size == 64 * 4


def test_initial_csv_round_trip(tmp_path):
    st = uniform_state(n_theta=32, n_omega=3)
    path = tmp_path / "init.csv"
    kinetic.save_initial_csv(st, path)
    back = kinetic.load_initial_csv(path, freq.uniform(0.5, n_nodes=3), K=st.K)
    assert np.allclose(back.values, st.values, rtol=0, atol=1e-16)


def test_initial_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0,1.0\n")
    with pytest.raises(ValueError):
        kinetic.load_initial_csv(path, freq.dirac_at_zero(), K=1.0)


def test_profile_presets():
    grid = kinetic.PhaseGrid(256)
    for profile in (kinetic.cosine_profile(0.4, 1.0),
                    kinetic.von_mises_profile(12.0, 2.0),
                    kinetic.table_profile([0.0, 2.0, 4.0], [0.2, 0.5, 0.1])):
        st = kinetic.state_from_profile(grid, freq.dirac_at_zero(), 1, 1.0, profile)
        assert st.slice_masses() == pytest.approx([1.0], abs=1e-14)
        assert np.min(st.values) >= 0.0
    with pytest.raises(ValueError):
        kinetic.cosine_profile(0.6)


def test_i0e_matches_scipy():
    # the von Mises normalizer: numpy's I0 below 50, the asymptotic series above
    xs = np.concatenate([[0.0, 49.999, 50.0, 50.001], np.linspace(0.0, 100.0, 4001),
                         np.linspace(100.0, 1e4, 2001), 10.0 ** np.linspace(-10.0, 4.0, 281)])
    got = np.array([kinetic._i0e(float(x)) for x in xs])
    np.testing.assert_allclose(got, special.i0e(xs), rtol=1e-15, atol=0.0)
