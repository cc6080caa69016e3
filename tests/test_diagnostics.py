import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as hst
from scipy import optimize

from kslab import diagnostics as diag
from kslab import frequency as freq
from kslab import kinetic, order

TWO_PI = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)


def dirac_state(n_theta, profile, K=1.0):
    grid = kinetic.PhaseGrid(n_theta)
    return kinetic.state_from_profile(grid, freq.dirac_at_zero(), 1, K, profile)


# ---------------------------------------------------------------------------
# intervals and masses


def arc_mass(st, lo, hi):
    """Mass of the theta marginal on the arc [lo, hi] (``_arc_sum``)."""
    return float(diag._arc_sum(st.grid, lo, hi, st.marginal_density()))


def on_interval(st, iv, f, op=None):
    """``_arc_sum`` of f over the interval iv at the average phase of op,
    by default the state's own order parameters."""
    op = order.global_order(st) if op is None else op
    return diag._arc_sum(st.grid, *iv.endpoints(op.phi), f)


def test_interval_validation_and_endpoints():
    with pytest.raises(ValueError):
        diag.Interval("i_plus", 0.0)
    with pytest.raises(ValueError):
        diag.Interval("i_plus", math.pi / 2)
    with pytest.raises(ValueError):
        diag.Interval("arc", 0.3)
    iv = diag.Interval("i_minus", 0.4)
    lo, hi = iv.endpoints(1.0)
    assert (lo, hi) == pytest.approx((1.0 + math.pi - 0.4, 1.0 + math.pi + 0.4))


def test_arc_identity_between_families():
    # the near half-arc with margin gamma is the near interval of width pi/2-gamma
    gamma = 1.0
    a = diag.Interval("l_plus", gamma).endpoints(0.3)
    b = diag.Interval("i_plus", math.pi / 2 - gamma).endpoints(0.3)
    assert a == pytest.approx(b)


def test_mass_full_circle_and_complementarity():
    st = dirac_state(128, freq.cosine_profile(0.3, 0.5))
    assert arc_mass(st, 0.0, TWO_PI) == pytest.approx(1.0, abs=1e-10)
    op = order.global_order(st)
    rho = st.marginal_density()
    plus = float(on_interval(st, diag.Interval("i_plus", 0.7), rho, op))
    minus = float(on_interval(st, diag.Interval("i_minus", 0.7), rho, op))
    rest = (arc_mass(st, op.phi + 0.7, op.phi + math.pi - 0.7)
            + arc_mass(st, op.phi + math.pi + 0.7, op.phi + TWO_PI - 0.7))
    assert plus + minus + rest == pytest.approx(1.0, abs=1e-10)


def test_mass_shrinks_with_width():
    st = dirac_state(128, freq.cosine_profile(0.3))
    masses = [float(on_interval(st, diag.Interval("i_plus", d), st.marginal_density()))
              for d in (0.8, 0.4, 0.2, 0.05, 0.01)]
    assert all(a > b for a, b in zip(masses, masses[1:]))
    assert masses[-1] < 0.01


def test_mass_subcell_apportionment_exact_for_flat_density():
    st = dirac_state(64, lambda th: np.full_like(th, 1.0 / TWO_PI))
    # arbitrary arc endpoints cutting through cell interiors
    lo, hi = 0.123, 2.345
    assert arc_mass(st, lo, hi) == pytest.approx((hi - lo) / TWO_PI,
                                                         abs=1e-14)


def test_mass_continuous_in_phase():
    st = dirac_state(64, freq.cosine_profile(0.4, 1.0))
    rho_max = float(np.max(st.marginal_density()))
    vals = [arc_mass(st, 1.0 + e, 2.0 + e) for e in np.linspace(0, 0.01, 11)]
    for a, b in zip(vals, vals[1:]):
        assert abs(b - a) <= 2.5 * rho_max * 0.001


def test_record_sampler_masses_are_nan_without_a_phase():
    # a uniform start has R below TOL_R: no phase, so no phi-anchored value
    st = dirac_state(64, lambda th: np.full_like(th, 1.0 / TWO_PI))
    op = order.global_order(st)
    assert not op.defined
    cfg = {"intervals": [diag.Interval("i_plus", 0.3)],
           "lambda_interval": diag.Interval("i_minus", 0.5),
           "gamma_plus": diag.Interval("l_plus", 1.0)}
    row = diag.RecordSampler(cfg)(st, op)
    assert math.isnan(row["mass_i_plus_0.3"]) and math.isnan(row["gamma_plus_0"])
    assert (row["lambda"], row["rdot_formula"]) == (None, None)
    assert row["phi_defined"] == 0


def test_lyapunov_constant_density():
    st = dirac_state(128, freq.cosine_profile(0.3, 0.0))
    values = np.full_like(st.values, 1.0 / TWO_PI)
    flat = kinetic.KineticState(st.grid, st.omega, st.weights, values, K=1.0)
    iv = diag.Interval("i_minus", 0.5)
    op = order.OrderParams(0.5, 1.0, True)
    # rho = 1/2pi on an interval of length 1.0 integrates to L / (4 pi^2)
    assert float(on_interval(flat, iv, flat.marginal_density() ** 2, op)) == pytest.approx(
        1.0 / (4.0 * math.pi ** 2), abs=1e-14)
    per = on_interval(flat, iv, flat.values ** 2, op)
    assert per.shape == (1,)
    assert per[0] == pytest.approx(1.0 / (4.0 * math.pi ** 2), abs=1e-14)


def test_lyapunov_empty_interval_limit():
    st = dirac_state(128, freq.cosine_profile(0.3))
    tiny = float(on_interval(st, diag.Interval("i_minus", 1e-9), st.marginal_density() ** 2))
    assert tiny == pytest.approx(0.0, abs=1e-9)


def arc_fractions(grid, lo, hi):
    """Per-cell overlap fractions of the arc [lo, hi] (hi - lo clipped to
    [0, 2pi]), cell by cell: the oracle for the arc sums."""
    length = hi - lo
    if length <= 0:
        return np.zeros(grid.n_theta)
    length = min(length, TWO_PI)
    lo = lo % TWO_PI
    hi = lo + length
    dth = grid.dtheta
    left = np.arange(grid.n_theta) * dth
    right = left + dth
    frac = np.zeros(grid.n_theta)
    for shift in (0.0, TWO_PI):
        a, b = lo + shift - TWO_PI, hi + shift - TWO_PI
        frac += np.clip(np.minimum(right, b) - np.maximum(left, a), 0.0, dth)
    return frac / dth


def _arc_cases(grid, rng):
    dth = grid.dtheta
    edges = np.arange(grid.n_theta) * dth
    cases = [(lo, lo + ln) for lo, ln in zip(rng.uniform(-10.0, 10.0, 60),
                                             rng.uniform(0.0, TWO_PI, 60))]
    cases += [(TWO_PI - 0.3, TWO_PI + 1.0), (-0.2, 0.9),          # wrap past 2pi
              (1.1, 1.1 + TWO_PI), (0.0, TWO_PI), (2.0, 11.0),     # full circle
              (edges[5], edges[40]), (edges[7], 3.3), (0.4, edges[30]),
              (edges[0], edges[1]), (edges[60], edges[61]),        # on edges
              (edges[3] + 0.2 * dth, edges[3] + 0.7 * dth),        # inside a cell
              (edges[-1] + 0.5 * dth, TWO_PI), (edges[9], edges[9] + 0.3 * dth),
              (1.0, 1.0), (1.0, 0.5)]
    lo = rng.uniform(0.0, TWO_PI, 20)
    cases += list(zip(lo, lo + rng.uniform(0.0, 1.0, 20) * dth))
    return cases


def _assert_arc_close(got, want, length, dth):
    if length > dth:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    else:
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def test_arc_sums_match_overlap_fractions():
    # values bounded away from zero: beside a near-empty cell, the ulp by
    # which an arc's float length misses a whole number of cells moves the
    # sum by more than 1e-12 relative, in the overlap sum as in the arc sum
    rng = np.random.default_rng(17)
    grid = kinetic.PhaseGrid(96)
    values = rng.uniform(0.5, 2.0, (3, 96))
    st = kinetic.KineticState(grid, np.array([-0.2, 0.0, 0.3]),
                              np.array([0.2, 0.5, 0.3]), values, K=1.0)
    rho = st.marginal_density()
    dth = grid.dtheta
    for lo, hi in _arc_cases(grid, rng):
        frac = arc_fractions(grid, lo, hi)
        length = min(max(hi - lo, 0.0), TWO_PI)
        _assert_arc_close(arc_mass(st, lo, hi), float(frac @ rho) * dth, length, dth)
        for f in (rho ** 2, values ** 2):
            _assert_arc_close(diag._arc_sum(grid, lo, hi, f), f @ frac * dth, length, dth)


def test_antipodal_arc_sums_keep_relative_accuracy():
    # concentrated state: the antipodal masses and L2 values are tiny, and
    # must still match the overlap sum to 1e-12 relative
    grid = kinetic.PhaseGrid(256)
    g = freq.uniform(0.1)
    st = kinetic.state_from_profile(grid, g, 3, 1.0, freq.von_mises_profile(20.0, 2.4))
    op = order.global_order(st)
    rho = st.marginal_density()
    dth = grid.dtheta
    tiny = []
    for delta in (0.05, 0.2, 0.5, 1.0, 1.4):
        iv = diag.Interval("i_minus", delta)
        frac = arc_fractions(grid, *iv.endpoints(op.phi))
        mass = float(on_interval(st, iv, rho, op))
        np.testing.assert_allclose(mass, float(frac @ rho) * dth, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(float(on_interval(st, iv, rho ** 2, op)),
                                   float((rho * rho) @ frac) * dth, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(on_interval(st, iv, st.values ** 2, op),
                                   (st.values ** 2) @ frac * dth, rtol=1e-12, atol=0.0)
        tiny.append(mass < 1e-8)
    assert any(tiny)


# ---------------------------------------------------------------------------
# fitting


def test_fit_exact_exponential():
    ts = np.linspace(0.0, 5.0, 60)
    fit = diag.fit_exponential_rate(zip(ts, np.exp(-2.0 * ts)), (0.0, 5.0))
    assert fit.slope == pytest.approx(-2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_constant_series():
    ts = np.linspace(0.0, 5.0, 30)
    fit = diag.fit_exponential_rate(zip(ts, np.full(30, 3.7)), (0.0, 5.0))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_noisy_decay():
    rng = np.random.default_rng(20)
    ts = np.linspace(0.0, 4.0, 200)
    vals = np.exp(-1.5 * ts) * (1.0 + 0.01 * rng.normal(size=200))
    fit = diag.fit_exponential_rate(zip(ts, vals), (0.0, 4.0))
    assert abs(fit.slope - (-1.5)) <= 0.05 * 1.5


def test_fit_shrinks_on_nonpositive_values():
    ts = np.linspace(0.0, 1.0, 10)
    vals = np.exp(-ts)
    vals[3] = 0.0
    # the zero sample is dropped (its log would be -inf): the nine left are exact
    fit = diag.fit_exponential_rate(zip(ts, vals), (0.0, 1.0))
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_needs_five_samples():
    with pytest.raises(ValueError):
        diag.fit_exponential_rate([(0.0, 1.0), (1.0, 0.5)], (0.0, 1.0))


def test_detect_transient():
    ts = np.arange(50.0)
    vals = np.concatenate([np.ones(10) + 0.1 * np.sin(np.arange(10)),
                           np.exp(-0.1 * np.arange(40))])
    onset = diag.detect_transient(ts, vals)
    assert onset is not None and 8.0 <= onset <= 11.0
    assert diag.detect_transient(ts, np.sin(ts)) is None


# ---------------------------------------------------------------------------
# closed-form constants


def test_mstar_inadmissible_raises_with_named_constraint():
    with pytest.raises(ValueError, match="eps0"):
        diag.mstar(0.5, 1.1)
    with pytest.raises(ValueError, match="gamma0"):
        diag.mstar(0.1, 1.5)


def test_mstar_value_against_hand_formula():
    eps0, g0 = 0.1, 1.2
    hand = (2.0 + eps0 + math.cos(g0)) / ((1.0 + math.sin(g0)) * (1.0 + math.cos(g0)))
    val = diag.mstar(eps0, g0)
    assert val == pytest.approx(hand, abs=1e-15)
    assert (1.0 + eps0) / (1.0 + math.sin(g0)) < val < 1.0


def test_constants_E_vanishing_support():
    gamma = 1.2
    e1, e2, e3 = diag.constants_E(K=5.0, M=0.0, r_low=0.4, gamma=gamma, mu=0.01)
    assert e1 == pytest.approx((1.0 - math.sin(gamma)) / 2.0)
    assert e2 == pytest.approx(1.0 - math.sin(gamma))
    assert e3 == 0.0
    e1b, e2b, _ = diag.constants_E(K=5.0, M=0.0, r_low=0.4, gamma=1.5707, mu=0.01)
    assert e1b < 1e-4 and e2b < 2e-4


def test_constants_E_dual_implementation():
    # independently retyped formulas
    K, M, rl, gamma, mu = 100.0, 1.0, 0.3, 1.4, 0.05
    sg, cg = math.sin(gamma), math.cos(gamma)
    e1_hand = (sg / cg ** 2) * M / (K * rl) + (1.0 - sg) / 2.0
    e2_hand = (1.0 - sg + (1.0 + sg) * M / (K * rl * cg ** 2)
               + (sg / cg ** 2) * M / (K * rl))
    a = rl * K * mu / 3.0 - (M ** 2 / (6.0 * rl * K) - M ** 2 / (4.0 * K))
    b = M ** 2 / (4.0 * K) + M ** 2 / (2.0 * rl * K)
    e3_hand = abs((rl / 12.0) * mu * b / a
                  + (M ** 2 / (6.0 * rl * K) - M ** 2 / (4.0 * K)) / (4.0 * K)
                  * (1.0 - b / a)
                  + b * math.log(a / b) / (4.0 * K))
    got = diag.constants_E(K, M, rl, gamma, mu)
    assert got == pytest.approx((e1_hand, e2_hand, e3_hand), rel=1e-14)


def test_constants_E_bad_preconditions():
    with pytest.raises(ValueError, match="gamma"):
        diag.constants_E(1.0, 0.1, 0.5, 0.5, 0.1)
    with pytest.raises(ValueError, match="growth-budget"):
        diag.constants_E(K=1.0, M=1.0, r_low=0.1, gamma=1.4, mu=1e-8)


def test_r_infinity_values():
    assert diag.r_infinity(0.0, 3.0) == 1.0
    # direct evaluations: 1 + q - sqrt(q^2 + 4q)
    assert diag.r_infinity(0.01, 1.0) == pytest.approx(1.01 - math.sqrt(0.0401),
                                                       abs=1e-15)
    assert diag.r_infinity(0.01, 1.0) == pytest.approx(0.8097501561, abs=1e-9)
    assert diag.r_infinity(0.005, 1.0) == pytest.approx(0.8634903, abs=1e-6)
    qs = [diag.r_infinity(q, 1.0) for q in (0.0, 1e-4, 1e-3, 1e-2, 0.1)]
    assert all(a > b for a, b in zip(qs, qs[1:]))
    assert diag.r_infinity(1e-10, 1.0) == pytest.approx(1.0, abs=1e-4)


def test_r_pm_pure_quadratic():
    r_minus, r_plus = diag.r_pm(0.0, 0.0, 2.0)
    assert r_minus == pytest.approx(0.0, abs=1e-15)
    assert r_plus == pytest.approx(SQRT3 / 2.0)


def test_r_pm_roots_satisfy_quadratic():
    eta, M, K = 0.01, 1e-4, 1.0
    for root in diag.r_pm(eta, M, K):
        resid = root ** 2 - (SQRT3 / 2.0) * root + 4.0 * SQRT3 * M / K + eta
        assert abs(resid) <= 1e-12


def test_r_pm_negative_discriminant():
    with pytest.raises(ValueError, match="K too small"):
        diag.r_pm(0.0, 1.0, 1.0)


def test_riccati_equilibria_constant():
    M, K = 1e-3, 1.0
    r_minus, r_plus = diag.r_pm(0.0, M, K)
    for root in (r_minus, r_plus):
        _, betas = diag.riccati_solve(0.0, 0.0, root, M, K, horizon=50.0)
        assert np.max(np.abs(betas - root)) <= 1e-12


def test_riccati_monotone_between_roots():
    M, K = 1e-3, 1.0
    r_minus, r_plus = diag.r_pm(0.0, M, K)
    ts, betas = diag.riccati_solve(0.0, 0.0, 0.5 * (r_minus + r_plus), M, K,
                                   horizon=400.0)
    assert np.all(np.diff(betas) >= -1e-14)          # sign analysis: increasing
    assert abs(betas[-1] - r_plus) <= 1e-6


def test_epsilon_kappa_values():
    val, ok = diag.epsilon_kappa(1.0, 0.0, 1.0)
    assert val == 0.0 and ok
    val, _ = diag.epsilon_kappa(2.0 / 3.0, 0.0, 1.0)
    assert val == pytest.approx(0.5)
    val, _ = diag.epsilon_kappa(2.0 / 3.0, 0.01, 1.0)
    assert val == pytest.approx(0.5375)
    with pytest.raises(ValueError):
        diag.epsilon_kappa(0.0, 0.1, 1.0)


def test_barrier_fixed_points_are_constant():
    eps_k = 0.4
    p_lim = math.sqrt(1.0 - eps_k ** 2)
    for p0 in (p_lim, -p_lim):
        ts, ps = diag.barrier_solve(p0, 5.0, 0.0, kappa=0.8, K=2.0, eps_kappa=eps_k)
        assert np.max(np.abs(ps - p0)) <= 1e-12


def test_barrier_increasing_through_zero():
    eps_k = 0.4
    ts, ps = diag.barrier_solve(0.0, 5.0, 0.0, kappa=0.8, K=2.0, eps_kappa=eps_k)
    assert ps[-1] == pytest.approx(0.0, abs=1e-12)    # endpoint is the anchor
    assert np.all(np.diff(ps) >= -1e-14)              # increasing toward t_star
    assert ps[0] < -0.5                               # fell toward the lower end


def test_barrier_out_of_band_rejected():
    with pytest.raises(ValueError):
        diag.barrier_solve(0.99, 1.0, 0.0, kappa=0.8, K=2.0, eps_kappa=0.4)


def test_barrier_crossing_time_below_bound():
    kappa, K, eps_k, eps = 0.8, 2.0, 0.4, 0.15
    p_lim = math.sqrt(1.0 - eps_k ** 2)
    bound = diag.barrier_crossing_bound(eps, kappa, K, eps_k)
    t_star = 2.0 * bound
    ts, ps = diag.barrier_solve(p_lim - eps, t_star, 0.0, kappa, K, eps_k)
    below = ps <= -p_lim + eps
    assert below.any()
    crossing = t_star - float(ts[np.where(below)[0][-1]])
    assert 0.0 < crossing < bound


# ---------------------------------------------------------------------------
# equilibrium self-consistency


def test_equilibrium_dirac_is_unity():
    for K in (0.5, 1.0, 10.0):
        res = freq.equilibrium_R(freq.dirac_at_zero(), K)
        assert res.found and res.R == 1.0 and res.residual == 0.0


def test_equilibrium_probe_quarter_circle():
    # the probe H(1) at K = 1
    assert freq.locked_phasor_mean(freq.uniform(1.0), 1.0) == pytest.approx(math.pi / 4.0,
                                                                            abs=1e-12)


def test_equilibrium_no_solution_at_small_coupling():
    res = freq.equilibrium_R(freq.uniform(1.0), 1.0)
    assert not res.found
    assert "no solution" in res.message
    assert res.probe_at_one == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_equilibrium_fixed_point_against_brentq_oracle():
    g = freq.uniform(1.0)
    K = 5.0
    res = freq.equilibrium_R(g, K)
    assert res.found
    assert res.residual <= 1e-10
    assert res.R >= 0.5
    assert res.bound_sqrt_ok and res.bound_mass_ok
    assert res.bound_mass == pytest.approx(0.5)

    def psi(R):  # independently coded closed form for the uniform density
        a = K * R
        u = min(1.0, 1.0 / a)
        return R - (a / 2.0) * (u * math.sqrt(max(0.0, 1.0 - u * u)) + math.asin(u))

    oracle = optimize.brentq(psi, 0.5, 1.0, xtol=1e-14)
    assert res.R == pytest.approx(oracle, abs=1e-10)


def test_equilibrium_table_density():
    om = np.linspace(-0.5, 0.5, 41)
    g = freq.from_table(om, 1.0 - np.abs(om) / 0.5)
    res = freq.equilibrium_R(g, K=4.0)
    assert res.found
    assert res.residual <= 1e-10
    assert res.bound_sqrt_ok


def _reference_root_search(g, K):
    """equilibrium_R's search written plainly: one 2,048-point scan, then
    one scalar call per halving.  Returns (R, residual), or None when the
    scan finds no sign change."""
    def psi(R):
        return R - freq.locked_phasor_mean(g, K * R)

    grid = np.linspace(1.0, g.support / K * (1.0 + 1e-12), 2048)
    vals = psi(grid)
    for i in range(2047):
        if vals[i] == 0.0:
            a, b = grid[i], grid[i]
            break
        if vals[i] > 0.0 and vals[i + 1] <= 0.0:
            a, b = grid[i + 1], grid[i]
            break
    else:
        return None
    for _ in range(200):
        mid = 0.5 * (a + b)
        psi_mid = psi(mid)
        if psi_mid <= 0.0:
            a = mid
        else:
            b = mid
        if abs(psi_mid) <= 1e-11 and (b - a) < 1e-15:
            break
    root = 0.5 * (a + b)
    return root, abs(psi(root))


def _triangle(rows):
    om = np.linspace(-0.5, 0.5, rows)
    return freq.from_table(om, 1.0 - np.abs(om) / 0.5)


_BIMODAL = ([-1.0, -0.6, -0.2, 0.0, 0.2, 0.6, 1.0], [0.3, 1.0, 0.1, 0.05, 0.1, 1.0, 0.3])


@pytest.mark.parametrize("g, K", [
    (_triangle(5), 4.0), (_triangle(41), 4.0),
    # K = 1 empties the lock band, K = 1.2 scans all 2,048 points without a
    # sign change, K = 2.94 brackets the root between scan points 63 and 64,
    # across the first chunk's end, and K = 2 near point 197, in the second
    # chunk
    (freq.uniform(1.0), 1.0), (freq.uniform(1.0), 1.2), (freq.uniform(1.0), 2.94),
    (freq.uniform(1.0), 2.0),
    (freq.uniform(1.0), 5.0), (freq.uniform(0.05), 10.0),
    *[(freq.from_table(*_BIMODAL), K) for K in (1.2, 1.5, 2.0, 3.0, 6.0, 20.0)],
])
def test_equilibrium_matches_reference_search(g, K):
    _assert_matches_reference(g, K)


def _assert_matches_reference(g, K):
    """equilibrium_R(g, K) is, to the bit, the result of the plain search."""
    probe_1 = freq.locked_phasor_mean(g, K)
    bound_mass = freq._inner_mass_bound(g)
    found = _reference_root_search(g, K) if g.support < K else None
    res = freq.equilibrium_R(g, K)
    if found is None:
        assert not res.found and "no solution" in res.message
        assert (res.R, res.residual, res.probe_at_one, res.bound_sqrt, res.bound_sqrt_ok,
                res.bound_mass, res.bound_mass_ok) == (None, math.inf, probe_1, 0.0, False,
                                                       bound_mass, False)
        return
    root, residual = found
    arg = g.support / (K * root)
    bound_sqrt = math.sqrt(max(0.0, 1.0 - arg * arg))
    assert res == freq.EquilibriumResult(
        True, root, residual, probe_1, bound_sqrt, root >= bound_sqrt - 1e-12,
        bound_mass, root >= bound_mass - 1e-12, f"R = {root:.12g}")


@settings(max_examples=40, deadline=None)
@given(width=hst.floats(0.01, 2.0), half=hst.lists(hst.floats(0.0, 1.0), min_size=2,
                                                  max_size=10),
       table=hst.booleans(), ratio=hst.floats(1.01, 100.0))
def test_equilibrium_matches_reference_search_on_random_densities(width, half, table, ratio):
    # a uniform width or a symmetric table on [-width, width], at a coupling
    # K = ratio * width whose lock band (width / K, 1] is not empty
    assume(max(half) >= 1e-3)
    if table:
        pos = np.linspace(0.0, width, len(half))
        g = freq.from_table(np.concatenate((-pos[:0:-1], pos)),
                            np.concatenate((half[:0:-1], half)))
    else:
        g = freq.uniform(width)
    K = ratio * g.support
    assume(g.support < K)
    _assert_matches_reference(g, K)


@pytest.mark.parametrize("K", [0.0, -1.0, math.inf, math.nan])
def test_equilibrium_rejects_a_bad_coupling(K):
    with pytest.raises(ValueError, match="positive and finite"):
        freq.equilibrium_R(freq.uniform(1.0), K)


def test_equilibrium_call_count(monkeypatch):
    sizes = []
    inner = freq.locked_phasor_mean

    def counted(g, a):
        sizes.append(np.size(a))
        return inner(g, a)

    monkeypatch.setattr(freq, "locked_phasor_mean", counted)
    # the scan's first chunk, which gives H(1) too, and one call for each
    # stretch of the bisection path that a secant predicts
    assert freq.equilibrium_R(_triangle(5), 4.0).found
    assert len(sizes) <= 4
    sizes.clear()
    # with no sign change the scan evaluates every point, and nothing else
    assert not freq.equilibrium_R(freq.uniform(1.0), 1.2).found
    assert sum(sizes) == 2048


# ---------------------------------------------------------------------------
# hypothesis report


def check_named(report, name):
    """The check of the hypothesis report called name."""
    return next(c for c in report["checks"] if c["name"] == name)


def test_hypothesis_all_pass_without_frequency_spread():
    report = diag.hypothesis_check(K=50.0, M=0.0, R0=0.3, mu=5e-4,
                                   gamma=1.5695, kappa=0.7, eps0=0.2, gamma0=1.1)
    assert report["all_passed"], [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["amplitude_floor_gate_passed"]


def test_hypothesis_coupling_equal_to_spread_fails():
    report = diag.hypothesis_check(K=1.0, M=1.0, R0=0.3, mu=1e-3,
                                   gamma=1.45, kappa=0.7, eps0=0.2, gamma0=1.1)
    c = check_named(report, "arc_trapping_coupling")
    assert not c["passed"]
    assert c["margin"] < 0.0
    assert not report["all_passed"]


def test_hypothesis_dual_implementation():
    # published-style regime; re-evaluate each margin independently
    K, M, R0, mu = 50.0, 0.05, 0.3, 1e-3
    gamma, kappa, eps0, gamma0 = 1.45, 0.7, 0.2, 1.1
    report = diag.hypothesis_check(K, M, R0, mu, gamma, kappa, eps0, gamma0)
    margin = {c["name"]: c["margin"] for c in report["checks"]}

    drift = (2 * M / (K * R0) + 4 * M / (K * R0 ** 2)
             + 2 * math.sqrt(2) / R0 ** 1.5 * math.sqrt(M / K + mu))
    assert margin["phase_drift_budget"] == pytest.approx(0.5 - drift)
    budget = K * K * mu - (2 * M * M / R0 ** 2 - 1.5 * M * M / R0)
    assert margin["growth_budget"] == pytest.approx(budget)
    floor = max(64 * M / SQRT3, 64 * SQRT3 * M / (3 - (SQRT3 - 2 * R0) ** 2))
    assert margin["coupling_floor"] == pytest.approx(K - floor)
    cap = SQRT3 / 4 + 0.25 * math.sqrt(3 - 64 * SQRT3 * M / K)
    assert margin["barrier_level_cap"] == pytest.approx(cap - kappa)
    ek = (kappa + 1) / kappa ** 2 * (M / K) + (1 - kappa) / kappa
    assert margin["barrier_offset_valid"] == pytest.approx(1 - ek)
    thr = (M / eps0) * (1 + 1 / eps0)
    assert margin["arc_trapping_coupling"] == pytest.approx(K - thr)
    floor2 = 15 * M / (2 * (math.sqrt(4 - 2 * math.sqrt(2)) - 1))
    assert margin["floor_coupling"] == pytest.approx(K - floor2)
    assert {"params", "all_passed", "amplitude_floor_gate_passed",
            "checks"} <= set(report)


def test_hypothesis_never_raises():
    report = diag.hypothesis_check(K=-1.0, M=0.5, R0=0.0, mu=0.0,
                                   gamma=3.0, kappa=0.0, eps0=0.0, gamma0=0.5)
    assert not report["all_passed"]


COUPLING_CHECKS = ("phase_drift_budget", "growth_budget", "coupling_floor")
SANDWICH_CHECKS = ("amplitude_retention", "growth_exceeds_losses")
FLOAT_RANGE = "every term in the float range"     # the need of a NaN margin


def _unmet(K, M, R0, mu, checks, need):
    # the id of a coupling case names R0, mu and the need, as when they were its only parameters
    case_id = f"{R0}-{mu}-{need}" if checks is COUPLING_CHECKS else f"K={K}-M={M}-{need}"
    return pytest.param(K, M, R0, mu, diag.EPS0, checks, need, id=case_id)


@pytest.mark.parametrize("K, M, R0, mu, eps0, checks, need", [
    _unmet(1.0, 0.5, 0.3, -1.0, COUPLING_CHECKS, "M/K + mu >= 0"),   # sqrt of a negative
    _unmet(1.0, 0.5, 1e-200, 1e-3, COUPLING_CHECKS, "K R0^2 > 0"),   # R0^2 underflows to 0
    _unmet(1.0, 0.5, 1e200, 1e-3, COUPLING_CHECKS, "R0^2 finite"),   # R0^2 overflows
    # constants_E divides by K R0/2 and by a multiple of M^2/K, which underflow to 0
    _unmet(5e-324, 0.5, 0.3, 1e-3, SANDWICH_CHECKS, "K R0/2 > 0"),
    _unmet(1.0, 1e-200, 0.3, 1e-3, SANDWICH_CHECKS, "M^2/K > 0"),
    # margins that would be NaN: M^2 overflows (inf - inf); in E3, b/(4K) underflows
    # to 0 against log(a/b) = inf; M/eps0 = 0 times 1/eps0 = inf
    pytest.param(1.0, 1e200, 0.3, 1e-3, diag.EPS0, ("growth_budget", "growth_exceeds_losses"),
                 FLOAT_RANGE, id="K=1.0-M=1e+200-float range"),
    pytest.param(1e308, 0.05, 0.3, 1e-3, diag.EPS0, ("growth_exceeds_losses",),
                 FLOAT_RANGE, id="K=1e+308-M=0.05-float range"),
    pytest.param(1.0, 0.0, 0.3, 1e-3, 5e-324, ("arc_trapping_coupling",),
                 FLOAT_RANGE, id="M=0.0-eps0=5e-324-float range"),
])
def test_hypothesis_reports_an_unmet_need_as_undefined(K, M, R0, mu, eps0, checks, need):
    report = diag.hypothesis_check(K=K, M=M, R0=R0, mu=mu, eps0=eps0)
    for name in checks:
        c = check_named(report, name)
        assert (c["passed"], c["margin"]) == (False, -math.inf)
        assert c["detail"].startswith("undefined: needs ") and need in c["detail"]


@pytest.mark.parametrize("M, K", [(0.05, 10.0), (0.0, 1.0), (0.01, 50.0), (-0.5, 1e-3),
                                  (1e-300, 1e-290)])
def test_barrier_level_cap_is_the_upper_comparison_root(M, K):
    margin = check_named(diag.hypothesis_check(K=K, M=M, R0=0.3), "barrier_level_cap")["margin"]
    assert margin == diag.r_pm(0.0, M, K)[1] - diag.KAPPA


_FINITE = hst.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(K=_FINITE, M=_FINITE, R0=_FINITE, mu=_FINITE, gamma=_FINITE, kappa=_FINITE,
       eps0=_FINITE, gamma0=_FINITE)
def test_hypothesis_reports_every_check_on_finite_inputs(K, M, R0, mu, gamma, kappa, eps0,
                                                         gamma0):
    # a check whose terms leave the float range is reported undefined, never NaN
    report = diag.hypothesis_check(K, M, R0, mu, gamma, kappa, eps0, gamma0)
    assert len(report["checks"]) == 14
    for c in report["checks"]:
        assert not math.isnan(c["margin"]), c
        if c["detail"].startswith("undefined"):
            assert c["detail"].startswith("undefined: ")
            assert (c["passed"], c["margin"]) == (False, -math.inf)


# ---------------------------------------------------------------------------
# trajectory rows


def run_with_rows(n_theta=128, t_end=2.0):
    """The rows of a short run, filled by finalize_records, and their bound checks."""
    st = dirac_state(n_theta, freq.cosine_profile(0.25, 0.7), K=1.0)
    cfg = {"intervals": [diag.Interval("i_plus", 0.3), diag.Interval("i_minus", 0.3)],
           "lambda_interval": diag.Interval("i_minus", 0.5),
           "gamma_plus": diag.Interval("l_plus", 1.0)}
    res = kinetic.run(st, t_end, 0.05, sampler=diag.RecordSampler(cfg))
    checks = diag.finalize_records(res.records, K=1.0, m_bound=0.0)
    return res.records, checks


def test_records_fields_and_finalize():
    records, checks = run_with_rows()
    assert records[0]["rdot_measured"] is None      # endpoint has no central diff
    assert checks[0] == {}
    i = len(records) // 2
    mid = records[i]
    assert mid["phi_defined"]
    assert mid["rdot_measured"] is not None
    assert mid["rdot_formula"] is not None
    assert mid["lambda"] >= 0.0
    assert [c for c in mid if c.startswith("gamma_plus_")] == ["gamma_plus_0"]
    assert {c for c in mid if c.startswith("mass_")} == {"mass_i_plus_0.3", "mass_i_minus_0.3"}
    assert checks[i]["rdot_lipschitz"]["passed"]
    assert checks[i]["phidot_bound"]["passed"]


def test_records_csv_and_json(tmp_path):
    records, checks = run_with_rows()
    csv_path = tmp_path / "trajectory.csv"
    diag.records_to_csv(records, csv_path)
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["t", "R", "phi", "phi_defined", "v_k"]
    assert "mass_i_plus_0.3" in header
    assert "gamma_plus_0" in header
    assert len(lines) == len(records) + 1
    json_path = tmp_path / "bounds.json"
    diag.bound_checks_to_json(records, checks, json_path)
    payload = json.loads(json_path.read_text())
    assert len(payload) == len(records)
    assert "rdot_lipschitz" in payload[1]["checks"]
