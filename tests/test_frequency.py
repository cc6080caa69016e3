import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as hst

from kslab import cli
from kslab import frequency as freq


def moments(g, n):
    """Zeroth and first moments of g by its n-point rule."""
    pairs = np.array(freq.quadrature_nodes(g, n))
    return float(np.sum(pairs[:, 1])), float(np.sum(pairs[:, 0] * pairs[:, 1]))


def test_dirac_moments():
    g = freq.dirac_at_zero()
    assert moments(g, 1) == (1.0, 0.0)


def test_dirac_quadrature_any_n():
    g = freq.dirac_at_zero()
    for n in (1, 5, 64):
        assert np.array_equal(freq.quadrature_nodes(g, n), [[0.0, 1.0]])


def test_dirac_samples_are_zero():
    g = freq.dirac_at_zero()
    assert np.all(freq.sample(g, 5, seed=3) == 0.0)


def test_uniform_moments():
    mass, mean = moments(freq.uniform(1.0), 64)
    assert abs(mass - 1.0) <= 1e-12
    assert abs(mean) <= 1e-12


def test_uniform_two_point_rule():
    # standard 2-point Gauss-Legendre: nodes +-1/sqrt(3), density folded in
    pairs = freq.quadrature_nodes(freq.uniform(1.0), 2)
    nodes = sorted(p[0] for p in pairs)
    assert nodes == pytest.approx([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)])
    assert [p[1] for p in pairs] == pytest.approx([0.5, 0.5])


def test_uniform_second_moment():
    nodes, weights = np.array(freq.quadrature_nodes(freq.uniform(1.0), 64)).T
    second = float(np.sum(weights * nodes ** 2))
    assert abs(second - 1.0 / 3.0) <= 1e-12


@pytest.mark.parametrize("n", [8, 16, 33, 64])
def test_builtin_rule_invariants(n):
    for g in (freq.dirac_at_zero(), freq.uniform(0.3)):
        mass, mean = moments(g, n)
        assert abs(mass - 1.0) <= 1e-10
        assert abs(mean) <= 1e-10
        nodes, weights = np.array(freq.quadrature_nodes(g, n)).T
        assert np.all(np.abs(nodes) <= g.support + 1e-12)
        assert np.all(weights >= 0.0)
        assert np.all(np.diff(nodes) >= 0.0)   # nodes sorted


# A uniform g on [-h, h] is the one-segment table with density 1/(2h); its
# closed forms are references for the table path.
UNIFORM_WIDTHS = [0.05, 0.3, 1.0]


def uniform_locked_mean(h, a):
    """H(a) of the uniform density on [-h, h]: with u = min(1, h/a),
    (a/2h) (u sqrt(1 - u^2) + asin u)."""
    u = np.minimum(1.0, h / a)
    return (a / (2.0 * h)) * (u * np.sqrt(1.0 - u * u) + np.arcsin(u))


@pytest.mark.parametrize("h", UNIFORM_WIDTHS)
def test_uniform_is_a_one_segment_table(h):
    g = freq.uniform(h)
    assert g.kind == "table"
    assert g.table_omega.tolist() == [-h, h]
    assert g.table_density.tolist() == [0.5 / h, 0.5 / h]
    assert freq._inner_mass_bound(g) == h * (1.0 / (2.0 * h))


@pytest.mark.parametrize("h", UNIFORM_WIDTHS)
def test_uniform_locked_mean_matches_closed_form(h):
    g = freq.uniform(h)
    a = h * np.logspace(-3.0, 3.0, 601)
    ref = uniform_locked_mean(h, a)
    np.testing.assert_allclose(freq.locked_phasor_mean(g, a), ref, rtol=1e-15, atol=0.0)
    assert freq.locked_phasor_mean(g, float(a[0])) == pytest.approx(ref[0], rel=1e-15)


@pytest.mark.parametrize("h", UNIFORM_WIDTHS)
@pytest.mark.parametrize("n", [1, 2, 8, 16, 33, 64])
def test_uniform_rule_is_gauss_legendre(h, n):
    # one segment gets max(2, n) Gauss nodes, so n = 1 gives two
    x, w = np.polynomial.legendre.leggauss(max(2, n))
    nodes, weights = np.array(freq.quadrature_nodes(freq.uniform(h), n)).T
    np.testing.assert_array_equal(nodes, h * x)
    np.testing.assert_allclose(weights, 0.5 * w, rtol=0.0, atol=4e-16)


@pytest.mark.parametrize("h", UNIFORM_WIDTHS)
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_uniform_sample_matches_rng_uniform(h, seed):
    # the inverse CDF of one flat segment is -h + u / (1/2h), u uniform on
    # [0, 1): the draws of rng.uniform(-h, h) up to rounding
    got = freq.sample(freq.uniform(h), 5000, seed=seed)
    ref = np.random.default_rng(seed).uniform(-h, h, 5000)
    assert np.max(np.abs(got - ref)) <= 2.0 * np.finfo(float).eps * h


def test_sample_uniform_statistics():
    n = 10 ** 5
    x = freq.sample(freq.uniform(1.0), n, seed=1)
    # std of the sample mean is ell/sqrt(3n); allow three of them
    assert abs(x.mean()) <= 3.0 / math.sqrt(3.0 * n)
    assert np.all(np.abs(x) <= 1.0)


def test_sample_is_pure_in_seed():
    g = freq.uniform(0.5)
    a = freq.sample(g, 1000, seed=42)
    b = freq.sample(g, 1000, seed=42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, freq.sample(g, 1000, seed=43))


def test_sample_rejects_bad_count():
    with pytest.raises(ValueError):
        freq.sample(freq.dirac_at_zero(), 0, seed=1)


def test_quadrature_rejects_zero_nodes():
    with pytest.raises(ValueError):
        freq.quadrature_nodes(freq.uniform(1.0), 0)


def test_table_moments_and_normalization(caplog):
    om = np.linspace(-1.0, 1.0, 21)
    de = 2.0 * (1.0 - np.abs(om))        # integrates to 2, gets renormalized
    with caplog.at_level(logging.INFO, logger="kslab.frequency"):
        g = freq.from_table(om, de)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("kslab.frequency", logging.INFO, "table density renormalized by factor 0.5")]
    mass, mean = moments(g, 64)
    assert abs(mass - 1.0) <= 1e-12
    assert abs(mean) <= 1e-12
    assert g.support == 1.0


def table_rule_loop(om, de, n):
    """The composite Gauss-Legendre rule of a table, one segment at a time."""
    x, w = np.polynomial.legendre.leggauss(max(2, math.ceil(n / (om.size - 1))))
    nodes, weights = [], []
    for a, b in zip(om[:-1], om[1:]):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        seg_nodes = mid + half * x
        nodes.append(seg_nodes)
        weights.append(half * w * np.interp(seg_nodes, om, de))
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("n", [1, 3, 8, 17, 64])
def test_table_rule_is_the_per_segment_loop(n):
    # the array form takes the same operations per node, so it is bit for bit the loop's
    rng = np.random.default_rng(n)
    for size in (2, 5, 21):
        om = np.cumsum(rng.uniform(0.01, 1.0, size))
        om -= om.mean()
        de = rng.uniform(0.0, 2.0, size)
        nodes, weights = table_rule_loop(om, de, n)
        rule = freq._table_rule(om, de, n)
        assert np.array_equal(rule[:, 0], nodes) and np.array_equal(rule[:, 1], weights)


def test_table_all_zero_flaggable():
    # a table without mass cannot be renormalized, so it is rejected
    with pytest.raises(ValueError, match="zero mass"):
        freq.from_table([-1.0, 0.0, 1.0], [0.0, 0.0, 0.0])


def test_table_negative_density_rejected():
    with pytest.raises(ValueError):
        freq.from_table([-1.0, 1.0], [1.0, -0.5])


def test_table_nonzero_mean_rejected():
    with pytest.raises(ValueError):
        freq.from_table([0.0, 1.0], [1.0, 1.0])


def test_table_sampling_matches_density():
    om = np.linspace(-1.0, 1.0, 41)
    de = 1.0 - np.abs(om)
    g = freq.from_table(om, de)
    x = freq.sample(g, 50_000, seed=7)
    assert np.all(np.abs(x) <= 1.0)
    # triangular density has zero mean and variance 1/6
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0 / 6.0) < 0.01


def test_table_sampling_inverts_a_narrow_peak(monkeypatch, capped_rng):
    # all the mass lies within 1e-6 of 0: rejection under the peak accepts
    # one candidate in 2e6 (~0.23 s a draw), inverting the CDF takes n draws
    knots = [-1.0, -1e-6, 0.0, 1e-6, 1.0]
    g = freq.from_table(knots, [0.0, 0.0, 1.0, 0.0, 0.0])
    n = 20000
    monkeypatch.setattr(np.random, "default_rng", lambda seed: capped_rng(seed, 4 * n))
    x = freq.sample(g, n, seed=1)
    assert x.shape == (n,)
    assert np.all(np.abs(x) <= 1e-6)
    # the table's CDF at its knots is 0, 0, 1/2, 1, 1
    cdf = np.array([np.mean(x <= k) for k in knots])
    assert np.max(np.abs(cdf - [0.0, 0.0, 0.5, 1.0, 1.0])) <= 5.0 * math.sqrt(0.25 / n), cdf


@pytest.mark.parametrize("omegas, densities", [
    ([-1.0, math.nan, 1.0], [0.5, 1.0, 0.5]), ([-1.0, 0.0, 1.0], [0.5, math.nan, 0.5]),
    ([-math.inf, 0.0, 1.0], [0.5, 1.0, 0.5]), ([-1.0, 0.0, 1.0], [0.5, math.inf, 0.5])])
def test_table_non_finite_knot_rejected(omegas, densities):
    # a NaN density used to be reported as zero mass
    with pytest.raises(ValueError, match="must be finite"):
        freq.from_table(omegas, densities)


@pytest.mark.parametrize("thetas, values", [
    ([0.0, math.nan, 3.0], [1.0, 1.0, 1.0]), ([0.0, 1.0, 3.0], [1.0, math.nan, 1.0]),
    ([0.0, math.inf, 3.0], [1.0, 1.0, 1.0]), ([0.0, 1.0, 3.0], [1.0, -math.inf, 1.0])])
def test_table_profile_non_finite_knot_rejected(thetas, values):
    # a NaN theta used to build a finite but wrong state, a NaN value a NaN one
    with pytest.raises(ValueError, match="must be finite"):
        freq.table_profile(thetas, values)


def _table_config(path):
    return {"frequency": {"kind": "table", "path": str(path)}, "n_omega": 32}


def test_csv_round_trip(tmp_path):
    # the CLI reads a density table from CSV and hands its columns to from_table
    path = tmp_path / "g.csv"
    path.write_text("omega,density\n-0.5,1.0\n0.0,1.0\n0.5,1.0\n")
    g = cli.build_frequency(_table_config(path))
    assert g.kind == "table" and g.table_omega.tolist() == [-0.5, 0.0, 0.5]
    mass, mean = moments(g, 32)
    assert abs(mass - 1.0) <= 1e-12
    assert abs(mean) <= 1e-12


def test_csv_requires_header(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("-0.5,1.0\n0.5,1.0\n")
    with pytest.raises(ValueError, match="g.csv"):
        cli.build_frequency(_table_config(path))


def test_locked_phasor_mean_closed_forms():
    # fully lockable band: the average of sqrt(1 - (w/a)^2) over U[-1,1]
    # at a = 1 is the quarter-circle area, pi/4
    g = freq.uniform(1.0)
    assert freq.locked_phasor_mean(g, 1.0) == pytest.approx(math.pi / 4.0, abs=1e-14)
    assert freq.locked_phasor_mean(freq.dirac_at_zero(), 0.7) == 1.0
    # a >> ell: mean -> 1 - var/(2 a^2) = 1 - 1/(6 a^2)
    a = 50.0
    assert freq.locked_phasor_mean(g, a) == pytest.approx(1.0 - 1.0 / (6.0 * a * a),
                                                          abs=1e-6)


def test_locked_phasor_mean_table_matches_quadrature_oracle():
    om = np.linspace(-1.0, 1.0, 81)
    de = np.full(81, 0.5)
    g = freq.from_table(om, de)
    # independent oracle: dense trapezoid of the clipped integrand
    w = np.linspace(-1.0, 1.0, 200_001)
    a = 1.3
    oracle = np.trapezoid(0.5 * np.sqrt(np.maximum(0.0, 1.0 - (w / a) ** 2)), w)
    assert freq.locked_phasor_mean(g, a) == pytest.approx(oracle, abs=1e-8)


def _segment_oracle(om, de, a, n=40):
    """H(a) by Gauss-Legendre per table segment in omega = a sin(theta).

    On each segment the integrand a g(a sin theta) cos(theta)^2 is an entire
    function of theta, so a 40-point rule is exact to roundoff; the sum is
    taken with math.fsum.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    parts = []
    for i in range(om.size - 1):
        lo, hi = max(om[i], -a), min(om[i + 1], a)
        if lo >= hi:
            continue
        t_lo, t_hi = math.asin(lo / a), math.asin(hi / a)
        half = 0.5 * (t_hi - t_lo)
        t = 0.5 * (t_lo + t_hi) + half * x
        omega = a * np.sin(t)
        dens = de[i] + (de[i + 1] - de[i]) / (om[i + 1] - om[i]) * (omega - om[i])
        parts.extend(half * w * a * dens * np.cos(t) ** 2)
    return math.fsum(parts)


def _random_symmetric_table(rng, with_zero_knot):
    half = np.unique(rng.uniform(0.0, 1.0, rng.integers(2, 30))) * rng.uniform(0.05, 3.0)
    half = half[half > 0]
    dens = rng.uniform(0.0, 5.0, half.size + 1)
    if rng.random() < 0.5:
        dens[-1] = 0.0                       # decays to zero at the support edge
    if with_zero_knot:
        om = np.concatenate([-half[::-1], [0.0], half])
        de = np.concatenate([dens[:0:-1], dens[:1], dens[1:]])
    else:                                    # one segment straddles omega = 0
        om = np.concatenate([-half[::-1], half])
        de = np.concatenate([dens[:0:-1], dens[1:]])
    return om, de


def test_locked_phasor_mean_table_matches_segment_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(60):
        om, de = _random_symmetric_table(rng, with_zero_knot=trial % 2 == 0)
        g = freq.from_table(om, de)
        om, de = g.table_omega, g.table_density      # renormalized to unit mass
        knots = om[om > 0]
        a_vals = np.concatenate([10.0 ** rng.uniform(-2.0, 3.0, 12),
                                 knots[:3], [knots[-1], 1.5 * knots[-1]]])
        got = freq.locked_phasor_mean(g, a_vals)
        for a, h in zip(a_vals, got):
            worst = max(worst, abs(h - _segment_oracle(om, de, a)))
    assert worst <= 1e-13


def test_locked_phasor_mean_triangle_at_small_a():
    # the 41-row triangle of the table equilibrium test; [-0.1, 0.1] spans
    # 8 of its segments
    om = np.linspace(-0.5, 0.5, 41)
    g = freq.from_table(om, 1.0 - np.abs(om) / 0.5)
    oracle = _segment_oracle(g.table_omega, g.table_density, 0.1)
    assert freq.locked_phasor_mean(g, 0.1) == pytest.approx(oracle, abs=1e-15)


def test_locked_phasor_mean_vectorised_matches_scalar():
    om = np.linspace(-0.5, 0.5, 7)
    table = freq.from_table(om, 1.0 - np.abs(om) / 0.5)
    a_vals = np.array([-1.0, 0.0, 1e-3, 0.1, 0.5, 0.77, 4.0, 1e3])
    for g in (freq.dirac_at_zero(), freq.uniform(0.4), table):
        vec = freq.locked_phasor_mean(g, a_vals)
        assert vec.shape == a_vals.shape
        scalars = [freq.locked_phasor_mean(g, float(a)) for a in a_vals]
        assert all(isinstance(h, float) for h in scalars)
        np.testing.assert_allclose(vec, scalars, rtol=0.0, atol=1e-15)
        assert vec[0] == vec[1] == 0.0
        grid = freq.locked_phasor_mean(g, a_vals.reshape(2, 4))
        np.testing.assert_array_equal(grid.ravel(), vec)


@settings(max_examples=60, deadline=None)
@given(half=hst.lists(hst.floats(0.0, 1.0), min_size=2, max_size=12),
       width=hst.floats(0.01, 2.0),
       a_vals=hst.lists(hst.floats(-1.0, 10.0), min_size=1, max_size=40))
def test_locked_phasor_mean_array_equals_scalar_calls(half, width, a_vals):
    # equilibrium_R evaluates its scan and bisection in array calls and must
    # land on the values scalar calls give, so the match is exact
    assume(max(half) >= 1e-3)
    pos = np.linspace(0.0, width, len(half))
    table = freq.from_table(np.concatenate((-pos[:0:-1], pos)),
                            np.concatenate((half[:0:-1], half)))
    for g in (table, freq.uniform(width)):
        vec = freq.locked_phasor_mean(g, np.array(a_vals))
        assert vec.tolist() == [freq.locked_phasor_mean(g, a) for a in a_vals]


def test_locked_phasor_mean_large_table_blocks():
    # more (a, segment) pairs than one evaluation block holds
    om = np.linspace(-0.5, 0.5, 401)
    g = freq.from_table(om, 1.0 - np.abs(om) / 0.5)
    a_vals = np.linspace(0.01, 2.0, 400)
    vec = freq.locked_phasor_mean(g, a_vals)
    oracle = [_segment_oracle(g.table_omega, g.table_density, a) for a in a_vals[::40]]
    np.testing.assert_allclose(vec[::40], oracle, rtol=0.0, atol=1e-13)


def test_inner_support_radius():
    # the bound m min g on the inner support radius m of g
    assert freq._inner_mass_bound(freq.dirac_at_zero()) == 0.0
    assert freq._inner_mass_bound(freq.uniform(0.4)) == pytest.approx(0.4 * 1.25)
    # the support is the closure of {g > 0}: it reaches the zero end knots +-1
    # (on [-0.5, 0.5] alone the bound would be 1/3)
    g = freq.from_table([-1.0, -0.5, 0.5, 1.0], [0.0, 1.0, 1.0, 0.0])
    assert freq._inner_mass_bound(g) == 0.0
    # support [-2, 1]: m = 1, and g is least on [-1, 1] at -1 and 0, 1/3 each
    skew = freq.from_table([-2.0, -1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 2.0])
    assert freq._inner_mass_bound(skew) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_min_density_on_inner_finds_minimum_between_grid_points():
    # the minima sit at the knots +-0.3, which a uniform grid on [-1, 1] misses
    g = freq.from_table([-1.0, -0.3, 0.0, 0.3, 1.0], [1.0, 0.2, 1.0, 0.2, 1.0])
    assert freq._inner_mass_bound(g) == pytest.approx(0.2 / 1.2, rel=1e-15)
    triangle = freq.from_table([-0.5, -0.25, 0.0, 0.25, 0.5], [0.0, 0.5, 1.0, 0.5, 0.0])
    assert freq._inner_mass_bound(triangle) == 0.0
