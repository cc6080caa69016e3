"""Pinned desk-scale verification scenarios.

Each criterion function takes a shared RunCache (expensive solver runs are
reused across criteria), evaluates its checks at the pinned tolerances, and
returns a CriterionResult.  The CLI verify command and the acceptance test
suite both drive these.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics as diag
from . import frequency as freq
from . import kinetic, particle

TWO_PI = 2.0 * math.pi


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    failures: list[str]
    details: dict
    elapsed: float


@dataclass
class _CachedRun:
    result: kinetic.RunResult
    grid: kinetic.PhaseGrid
    K: float
    M: float
    max_dt: float
    build_seconds: float
    config: diag.DiagnosticsConfig
    extra: dict = field(default_factory=dict)


class RunCache:
    """Lazy store for the three expensive kinetic runs."""

    def __init__(self):
        self._runs: dict[str, _CachedRun] = {}

    # -- run 1: distributed frequencies, conservation / consistency host ----
    def run1(self) -> _CachedRun:
        if "run1" not in self._runs:
            g = freq.uniform(0.1, n_nodes=16)
            grid = kinetic.PhaseGrid(512)
            state = kinetic.state_from_profile(grid, g, 16, K=2.0,
                                               profile=_skewed_profile)
            cfg = diag.DiagnosticsConfig(m_bound=0.1)
            t0 = time.perf_counter()
            res = kinetic.run(state, 20.0, 0.05,
                              sampler=diag.RecordSampler(cfg), cfl=0.5)
            dt_build = time.perf_counter() - t0
            diag.finalize_records(res.records, K=2.0, m_bound=0.1,
                                  config=cfg, dtheta=grid.dtheta)
            self._runs["run1"] = _CachedRun(res, grid, 2.0, 0.1, res.max_dt,
                                            dt_build, cfg, {"g": g})
        return self._runs["run1"]

    # -- run 2: identical oscillators, point-attractor host ------------------
    def run2(self) -> _CachedRun:
        if "run2" not in self._runs:
            g = freq.dirac_at_zero()
            grid = kinetic.PhaseGrid(1024)
            state = kinetic.state_from_profile(grid, g, 1, K=1.0,
                                               profile=kinetic.cosine_profile(0.2))
            cfg = diag.DiagnosticsConfig(
                intervals=(diag.Interval("i_plus", 0.2), diag.Interval("i_minus", 0.2),
                           diag.Interval("i_plus", 0.5), diag.Interval("i_minus", 0.5)),
                lambda_interval=diag.Interval("i_minus", 0.5),
                m_bound=0.0)
            t0 = time.perf_counter()
            res = kinetic.run(state, 40.0, 0.05,
                              sampler=diag.RecordSampler(cfg), cfl=0.5)
            dt_build = time.perf_counter() - t0
            diag.finalize_records(res.records, K=1.0, m_bound=0.0,
                                  config=cfg, dtheta=grid.dtheta)
            self._runs["run2"] = _CachedRun(res, grid, 1.0, 0.0, res.max_dt,
                                            dt_build, cfg)
        return self._runs["run2"]

    # -- run 12: large coupling, asymptotic amplitude host -------------------
    def run12(self) -> _CachedRun:
        if "run12" not in self._runs:
            g = freq.uniform(0.05, n_nodes=16)
            grid = kinetic.PhaseGrid(1024)
            state = kinetic.state_from_profile(grid, g, 16, K=10.0,
                                               profile=kinetic.cosine_profile(0.3))
            cfg = diag.DiagnosticsConfig(
                intervals=(diag.Interval("l_plus", math.pi / 3),
                           diag.Interval("l_minus", math.pi / 3)),
                gamma_minus_interval=diag.Interval("l_minus", math.pi / 3),
                m_bound=0.05,
                sandwich_gamma=1.45, sandwich_r_low=0.15, sandwich_mu=1e-3)
            t0 = time.perf_counter()
            res = kinetic.run(state, 60.0, 0.05,
                              sampler=diag.RecordSampler(cfg), cfl=0.5)
            dt_build = time.perf_counter() - t0
            diag.finalize_records(res.records, K=10.0, m_bound=0.05,
                                  config=cfg, dtheta=grid.dtheta)
            self._runs["run12"] = _CachedRun(res, grid, 10.0, 0.05, res.max_dt,
                                             dt_build, cfg, {"g": g})
        return self._runs["run12"]


def _skewed_profile(th):
    """Positive density with R0 = 0.2 and a genuinely moving average phase."""
    return (1.0 + 0.4 * np.cos(th) + 0.3 * np.sin(2.0 * th)) / TWO_PI


def _interior(records):
    return [r for r in records if r.rdot_measured is not None]


def _check(failures, ok: bool, message: str):
    if not ok:
        failures.append(message)


# ---------------------------------------------------------------------------
# criteria


def criterion_1(cache: RunCache) -> CriterionResult:
    t0 = time.perf_counter()
    run = cache.run1()
    failures = []
    _check(failures, run.result.max_slice_mass_drift_rel <= 1e-12,
           f"per-slice mass drift {run.result.max_slice_mass_drift_rel:.3e} > 1e-12")
    _check(failures, run.result.max_total_mass_drift <= 1e-10,
           f"total mass drift {run.result.max_total_mass_drift:.3e} > 1e-10")
    _check(failures, run.build_seconds < 30.0,
           f"runtime {run.build_seconds:.1f}s >= 30s")
    details = {"slice_drift": run.result.max_slice_mass_drift_rel,
               "total_drift": run.result.max_total_mass_drift,
               "runtime_s": run.build_seconds}
    return CriterionResult(1, "conservation under transport", not failures,
                           failures, details, time.perf_counter() - t0)


def criterion_2(cache: RunCache) -> CriterionResult:
    t0 = time.perf_counter()
    run = cache.run2()
    recs = run.result.records
    final = recs[-1]
    failures = []
    for delta in (0.2, 0.5):
        label = diag.Interval("i_plus", delta).label
        _check(failures, final.masses[label] >= 0.99,
               f"final mass in the near interval ({delta}) "
               f"{final.masses[label]:.4f} < 0.99")
    label = diag.Interval("i_plus", 0.2).label
    _check(failures, run.result.min_step_delta_R >= -1e-8,
           f"R decreased by {-run.result.min_step_delta_R:.3e} in one step")
    _check(failures, final.R >= 0.99, f"final R {final.R:.4f} < 0.99")
    _check(failures, run.build_seconds < 60.0,
           f"runtime {run.build_seconds:.1f}s >= 60s")
    # amplitude settles: measured dR/dt dies out over the last quarter
    quarter = [r for r in _interior(recs) if r.t >= 30.0]
    max_late_rdot = max(abs(r.rdot_measured) for r in quarter)
    _check(failures, max_late_rdot <= 1e-4,
           f"late |dR/dt| {max_late_rdot:.3e} > 1e-4")
    details = {"final_mass_near": final.masses[label], "final_R": final.R,
               "min_step_dR": run.result.min_step_delta_R,
               "late_rdot": max_late_rdot, "runtime_s": run.build_seconds}
    return CriterionResult(2, "identical-case concentration", not failures,
                           failures, details, time.perf_counter() - t0)


def criterion_3(cache: RunCache) -> CriterionResult:
    t0 = time.perf_counter()
    run = cache.run2()
    recs = run.result.records
    series = [(r.t, r.lambda_value) for r in recs if r.lambda_value is not None]
    ts = [t for t, _ in series]
    vals = [v for _, v in series]
    onset = diag.detect_transient(ts, vals, direction="decreasing", run_length=20)
    failures = []
    _check(failures, onset is not None, "no monotone-decay onset detected")
    details = {"onset": onset}
    if onset is not None:
        window = diag.late_window(onset, ts[-1])
        fit = diag.fit_exponential_rate(series, window)
        rate_bound = -0.9 * (0.2 * math.cos(0.5) / 2.0) * run.K
        _check(failures, fit.slope <= rate_bound,
               f"fitted slope {fit.slope:.4f} > bound {rate_bound:.4f}")
        _check(failures, fit.r_squared >= 0.98,
               f"r^2 {fit.r_squared:.4f} < 0.98")
        details.update({"window": window, "slope": fit.slope,
                        "rate_bound": rate_bound, "r_squared": fit.r_squared})
    return CriterionResult(3, "antipodal L2 decay rate", not failures,
                           failures, details, time.perf_counter() - t0)


def criterion_4(cache: RunCache) -> CriterionResult:
    t0 = time.perf_counter()
    failures = []
    details = {}
    for name, run in (("run1", cache.run1()), ("run2", cache.run2())):
        slack = 10.0 * (run.max_dt + run.grid.dtheta ** 2)
        worst = math.inf
        lipschitz_bad = 0
        for r in _interior(run.result.records):
            if not r.bound_checks["rdot_lipschitz"]["passed"]:
                lipschitz_bad += 1
            if r.R <= 0.05 or r.phidot_measured is None:
                continue
            bound = run.M / r.R + run.K * (1.0 - r.R) + slack
            worst = min(worst, bound - abs(r.phidot_measured))
        _check(failures, worst >= 0.0,
               f"{name}: |dphi/dt| exceeds its bound by {-worst:.3e}")
        _check(failures, lipschitz_bad == 0,
               f"{name}: {lipschitz_bad} samples broke the |dR/dt| <= M+K bound")
        details[name] = {"min_margin": worst, "slack": slack}
    return CriterionResult(4, "average-phase drift bound", not failures,
                           failures, details, time.perf_counter() - t0)


def criterion_5(cache: RunCache) -> CriterionResult:
    t0 = time.perf_counter()
    run = cache.run1()
    slack_r = 10.0 * (run.max_dt + run.grid.dtheta ** 2) * (run.M + run.K)
    slack_p = slack_r
    worst_r = 0.0
    worst_p = 0.0
    for r in _interior(run.result.records):
        if r.rdot_formula is not None:
            worst_r = max(worst_r, abs(r.rdot_measured - r.rdot_formula))
        if r.R > 0.05 and r.phidot_measured is not None and r.phidot_formula is not None:
            worst_p = max(worst_p, abs(r.phidot_measured - r.phidot_formula))
    failures = []
    _check(failures, worst_r <= slack_r,
           f"dR/dt mismatch {worst_r:.3e} > {slack_r:.3e}")
    _check(failures, worst_p <= slack_p,
           f"dphi/dt mismatch {worst_p:.3e} > {slack_p:.3e}")
    details = {"rdot_mismatch": worst_r, "phidot_mismatch": worst_p,
               "tolerance": slack_r}
    return CriterionResult(5, "order-parameter rate formulas", not failures,
                           failures, details, time.perf_counter() - t0)


def criterion_6(cache: RunCache) -> CriterionResult:
    t0 = time.perf_counter()
    run = cache.run2()
    recs = run.result.records
    vk = np.array([r.v_k for r in recs])
    failures = []
    rise = float(np.max(np.diff(vk)))
    _check(failures, rise <= 1e-9, f"potential increased by {rise:.3e} between samples")
    slack = 10.0 * (run.max_dt + run.grid.dtheta ** 2) * run.K ** 2
    ts = np.array([r.t for r in recs])
    vkdot = np.gradient(vk, ts)
    worst = 0.0
    for i, r in enumerate(recs[1:-1], start=1):
        if r.rdot_formula is None:
            continue
        dissipation = -run.K * r.R * r.rdot_formula   # equals -(K R)^2 <sin^2 rho>
        worst = max(worst, abs(vkdot[i] - dissipation))
    _check(failures, worst <= slack,
           f"dissipation identity off by {worst:.3e} > {slack:.3e}")
    details = {"max_vk_rise": rise, "dissipation_mismatch": worst, "tolerance": slack}
    return CriterionResult(6, "potential dissipation identity", not failures,
                           failures, details, time.perf_counter() - t0)


def criterion_7(cache: RunCache) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n, K, h = 8, 1.3, 1e-5
    thetas = rng.uniform(0.0, TWO_PI, n)
    omegas = rng.uniform(-1.0, 1.0, n)
    omegas -= omegas.mean()
    state = particle.ParticleState(thetas, omegas, K=K)

    def potential(th):
        # independent double-sum evaluation, no phasor shortcut
        pair = np.sum(1.0 - np.cos(th[None, :] - th[:, None]))
        return -float(omegas @ th) + (K / (2.0 * n)) * pair

    grad = np.empty(n)
    for i in range(n):
        up, dn = thetas.copy(), thetas.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (potential(up) - potential(dn)) / (2.0 * h)
    err = float(np.max(np.abs(particle.particle_rhs(state) + grad)))
    elapsed = time.perf_counter() - t0
    failures = []
    _check(failures, err <= 1e-6, f"gradient identity error {err:.3e} > 1e-6")
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    return CriterionResult(7, "particle gradient identity", not failures,
                           failures, {"error": err}, elapsed)


def criterion_8(cache: RunCache) -> CriterionResult:
    t0 = time.perf_counter()
    run = cache.run1()
    g = run.extra["g"]
    n_part = 20000
    rng = np.random.default_rng(8)
    thetas = particle.sample_phases(_skewed_profile, 1.7 / TWO_PI, n_part, rng)
    omegas = freq.sample(g, n_part, seed=8)
    pstate = particle.ParticleState(thetas, omegas, K=run.K)
    tp0 = time.perf_counter()
    traj = particle.run_particles(pstate, 20.0, dt=0.01, sample_every=0.05)
    particle_seconds = time.perf_counter() - tp0
    r_part = np.array([particle.particle_order(traj.state_at(i)).R
                       for i in range(traj.n_samples)])
    recs = run.result.records
    r_kin = np.array([r.R for r in recs])
    failures = []
    _check(failures, traj.n_samples == len(recs),
           f"sample grids differ: {traj.n_samples} vs {len(recs)}")
    gap = float(np.max(np.abs(r_kin[:traj.n_samples] - r_part[:len(recs)])))
    _check(failures, gap <= 0.05, f"kinetic/particle gap {gap:.4f} > 0.05")
    total = particle_seconds + run.build_seconds
    _check(failures, total < 180.0, f"runtime {total:.1f}s >= 180s")
    details = {"max_gap": gap, "particle_seconds": particle_seconds,
               "kinetic_seconds": run.build_seconds}
    return CriterionResult(8, "mean-field consistency", not failures,
                           failures, details, time.perf_counter() - t0)


def criterion_9(cache: RunCache) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    failures = []
    worst = math.inf
    for _ in range(1000):
        spread = rng.uniform(0.05, math.pi * 0.999)
        center = rng.uniform(0.0, TWO_PI)
        th = center + rng.uniform(-spread / 2.0, spread / 2.0, 16)
        st = particle.ParticleState(th, np.zeros(16), K=1.0)
        d = particle.phase_diameter(st)
        r = particle.particle_order(st).R
        worst = min(worst, r - math.cos(d / 2.0))
    _check(failures, worst >= -1e-12,
           f"r >= cos(D/2) violated by {-worst:.3e}")
    tight = particle.ParticleState(1.234 + rng.uniform(-5e-10, 5e-10, 16),
                                   np.zeros(16), K=1.0)
    r_tight = particle.particle_order(tight).R
    _check(failures, r_tight >= 1.0 - 1e-15,
           f"r {r_tight} below 1 for diameter <= 1e-9")
    loose = particle.ParticleState(np.linspace(0.0, 0.5, 16), np.zeros(16), K=1.0)
    r_loose = particle.particle_order(loose).R
    _check(failures, r_loose < 1.0 - 1e-6,
           f"r {r_loose} not strictly below 1 for positive diameter")
    details = {"min_margin": worst, "r_at_zero_diameter": r_tight}
    return CriterionResult(9, "amplitude vs phase diameter", not failures,
                           failures, details, time.perf_counter() - t0)


def criterion_10(cache: RunCache) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    n_seeds, n_osc, K = 200, 10, 1.0
    thetas = rng.uniform(0.0, TWO_PI, (n_seeds, n_osc))
    # regenerate rows with a nearly splayed start (the average phase must exist)
    for _ in range(10):
        z = np.abs(np.mean(np.exp(1j * thetas), axis=1))
        bad = z < 0.01
        if not bad.any():
            break
        thetas[bad] = rng.uniform(0.0, TWO_PI, (int(bad.sum()), n_osc))
    initial = thetas.copy()

    dt, t_max = 0.05, 600.0
    t = 0.0
    while t < t_max:
        for _ in range(20):
            thetas = particle._rk4(thetas, 0.0, K, dt)
        t += 20 * dt
        rates = particle._mean_field_rhs(thetas, 0.0, K)
        if float(np.max(rates.max(axis=1) - rates.min(axis=1))) < 1e-8:
            break

    n_converged = 0
    n_ok = 0
    anti_counts = []
    for s in range(n_seeds):
        traj = particle.ParticleTrajectory(
            np.array([0.0, t]), np.vstack([initial[s], thetas[s]]),
            np.zeros(n_osc), K)
        cls = particle.classify_asymptotic(traj, tol=1e-6, band=0.1)
        if cls.converged:
            n_converged += 1
            anti_counts.append(cls.n_anti)
            if cls.n_anti <= 1:
                n_ok += 1
    failures = []
    _check(failures, n_converged > 0, "no run converged")
    frac = n_ok / n_converged if n_converged else 0.0
    _check(failures, frac >= 0.99,
           f"only {frac:.3f} of converged runs had at most one antipodal oscillator")
    details = {"converged": n_converged, "unconverged": n_seeds - n_converged,
               "ok_fraction": frac,
               "max_anti": max(anti_counts) if anti_counts else None}
    return CriterionResult(10, "antipodal set has at most one member",
                           not failures, failures, details,
                           time.perf_counter() - t0)


def criterion_11(cache: RunCache) -> CriterionResult:
    t0 = time.perf_counter()
    failures = []
    g = freq.uniform(1.0, n_nodes=64)
    probe = diag.equilibrium_probe(g, K=1.0, R=1.0)
    _check(failures, abs(probe - math.pi / 4.0) <= 1e-10,
           f"H(1) = {probe!r} differs from pi/4")
    res_k1 = diag.equilibrium_R(g, K=1.0)
    _check(failures, not res_k1.found, "spurious equilibrium found at K=1")
    res = diag.equilibrium_R(g, K=5.0)
    _check(failures, res.found, "no equilibrium found at K=5")
    if res.found:
        _check(failures, res.residual <= 1e-10,
               f"residual {res.residual:.3e} > 1e-10")
        _check(failures, res.R >= 0.5, f"R {res.R:.4f} < 0.5")
        _check(failures, res.bound_sqrt_ok, "square-root lower bound violated")
        _check(failures, res.bound_mass_ok, "inner-mass lower bound violated")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    details = {"probe_H1": probe, "R": res.R if res.found else None,
               "residual": res.residual if res.found else None}
    return CriterionResult(11, "locked-equilibrium self-consistency",
                           not failures, failures, details, elapsed)


def criterion_12(cache: RunCache) -> CriterionResult:
    t0 = time.perf_counter()
    failures = []
    report = diag.hypothesis_check(K=10.0, M=0.05, R0=0.3, mu=1e-3,
                                   gamma=1.45, kappa=0.7, eps0=0.2, gamma0=1.1)
    _check(failures, report.amplitude_floor_gate_passed,
           "structural hypothesis gate failed: "
           + "; ".join(c.name for c in report.checks
                       if c.name in diag.AMPLITUDE_FLOOR_GATE and not c.passed))
    run = cache.run12()
    recs = run.result.records
    floor = diag.r_infinity(0.05, 10.0) - 0.02
    late = [r.R for r in recs if r.t >= 40.0]
    late_min = min(late)
    _check(failures, late_min >= floor,
           f"late-window min R {late_min:.4f} < {floor:.4f}")
    _check(failures, run.build_seconds < 300.0,
           f"runtime {run.build_seconds:.1f}s >= 300s")

    # antipodal quarter-arc L2 decays at the guaranteed rate once the trend sets in
    fold = [(r.t, float(run.result.final_state.weights @ r.gamma_minus))
            for r in recs if r.gamma_minus is not None]
    onset = diag.detect_transient([t for t, _ in fold], [v for _, v in fold],
                                  direction="decreasing", run_length=20)
    gamma_slope = None
    if onset is None:
        failures.append("no decay onset for the antipodal L2 functional")
    else:
        fit = diag.fit_exponential_rate(fold, (onset, onset + 3.0))
        gamma_slope = fit.slope
        bound = -0.9 * 10.0 * 0.3 / 4.0
        _check(failures, fit.slope <= bound,
               f"antipodal L2 slope {fit.slope:.3f} > {bound:.3f}")

    sandwich_failures = sum(
        1 for r in recs if r.bound_checks
        and "amplitude_mass_sandwich" in r.bound_checks
        and not r.bound_checks["amplitude_mass_sandwich"]["passed"])
    _check(failures, sandwich_failures == 0,
           f"{sandwich_failures} samples violated the mass/amplitude sandwich")

    details = {"hypothesis": report.to_dict(), "late_min_R": late_min,
               "floor": floor, "gamma_minus_slope": gamma_slope,
               "runtime_s": run.build_seconds}
    return CriterionResult(12, "asymptotic amplitude floor", not failures,
                           failures, details, time.perf_counter() - t0)


def criterion_13(cache: RunCache) -> CriterionResult:
    t0 = time.perf_counter()
    eps0, gamma0, M = 0.2, 1.1, 0.01
    K = 1.2 * (M / eps0) * (1.0 + 1.0 / eps0)
    failures = []
    report = diag.hypothesis_check(K=K, M=M, R0=0.9, mu=1e-3, gamma=1.45,
                                   kappa=0.7, eps0=eps0, gamma0=gamma0)
    _check(failures, report.passed(("arc_trapping_coupling",
                                    "mass_threshold_eps_window",
                                    "mass_threshold_angle_window")),
           "the large-coupling condition or the admissibility window failed")
    threshold = diag.mstar(eps0, gamma0)

    g = freq.uniform(M, n_nodes=8)
    grid = kinetic.PhaseGrid(1024)
    state = kinetic.state_from_profile(grid, g, 8, K=K,
                                       profile=kinetic.von_mises_profile(30.0))
    arc = diag.Interval("l_plus", gamma0)
    cfg = diag.DiagnosticsConfig(intervals=(arc,), gamma_plus_interval=arc, m_bound=M)
    res = kinetic.run(state, 4.0, 0.02, sampler=diag.RecordSampler(cfg), cfl=0.5)
    recs = res.records

    masses = np.array([r.masses[arc.label] for r in recs])
    _check(failures, masses[0] >= threshold,
           f"initial arc mass {masses[0]:.4f} < threshold {threshold:.4f}")
    dip = float(np.min(np.diff(masses)))
    _check(failures, dip >= -1e-6, f"arc mass fell by {-dip:.3e} between samples")

    slope_bound = 0.9 * K * eps0 * math.sin(gamma0)
    slopes = []
    for k in range(state.n_omega):
        series = [(r.t, float(r.gamma_plus[k])) for r in recs]
        fit = diag.fit_exponential_rate(series, (0.5, 3.0))
        slopes.append(fit.slope)
    _check(failures, min(slopes) >= slope_bound,
           f"slowest per-frequency L2 growth {min(slopes):.4f} < {slope_bound:.4f}")
    details = {"K": K, "threshold": threshold, "initial_mass": float(masses[0]),
               "min_mass_step": dip, "slopes": slopes, "slope_bound": slope_bound}
    return CriterionResult(13, "arc mass monotonicity and L2 growth",
                           not failures, failures, details,
                           time.perf_counter() - t0)


def criterion_14(cache: RunCache) -> CriterionResult:
    t0 = time.perf_counter()
    run = cache.run12()
    recs = run.result.records
    K, M, kappa = run.K, run.M, 0.7
    eps_k, valid = diag.epsilon_kappa(kappa, M, K)
    failures = []
    _check(failures, valid, "barrier offset not below 1")
    p_lim = math.sqrt(1.0 - eps_k ** 2)

    Rs = np.array([r.R for r in recs])
    ts = np.array([r.t for r in recs])
    above = Rs > kappa
    if above[-1]:
        idx = len(Rs) - 1
        while idx > 0 and above[idx - 1]:
            idx -= 1
        T_kappa = float(ts[idx])
    else:
        T_kappa = math.inf
    _check(failures, T_kappa < 50.0, "amplitude never settled above kappa")
    if T_kappa >= 50.0:
        return CriterionResult(14, "barrier dominates the characteristics",
                               False, failures, {"T_kappa": T_kappa},
                               time.perf_counter() - t0)
    series = kinetic.OrderSeries.from_records(recs)
    t_star = T_kappa + 5.0

    rng = np.random.default_rng(14)
    _, phi_star = series.interp(t_star)
    offs = rng.uniform(0.52, math.pi, 50) * rng.choice([-1.0, 1.0], 50)
    theta_star = phi_star + offs
    omega_star = rng.uniform(-M, M, 50)
    p_star = np.maximum(np.cos(theta_star - phi_star), -p_lim)
    _check(failures, bool(np.all(p_star <= p_lim)), "a start violated the barrier band")

    cts, chars = kinetic.characteristics(series, theta_star, omega_star,
                                         t_star, T_kappa, K)
    bts, barriers = diag.barrier_solve(p_star, t_star, T_kappa, kappa, K, eps_k)
    Rv, phiv = series.interp(cts)
    cosines = np.cos(chars - phiv[:, None])
    p_interp = np.empty_like(cosines)
    for j in range(p_star.size):
        p_interp[:, j] = np.interp(cts, bts, barriers[:, j])
    worst = float(np.max(cosines - p_interp))
    _check(failures, worst <= 1e-4,
           f"characteristic crossed its barrier by {worst:.3e}")

    eps = 0.2
    bound = diag.barrier_crossing_bound(eps, kappa, K, eps_k)
    hi = p_lim - eps
    ts2, path = diag.barrier_solve(hi, t_star=1.5 * bound, T_kappa=0.0,
                                   kappa=kappa, K=K, eps_kappa=eps_k)
    lo = -p_lim + eps
    below = path <= lo
    _check(failures, bool(below.any()), "barrier never reached the lower end")
    crossing = None
    if below.any():
        # the path ascends in time, so the crossing starts at the last instant
        # it still sits at or below the lower end
        i_last = int(np.where(below)[0][-1])
        crossing = 1.5 * bound - float(ts2[i_last])
        _check(failures, crossing < bound,
               f"crossing time {crossing:.3f} >= bound {bound:.3f}")
    details = {"T_kappa": T_kappa, "worst_excess": worst,
               "crossing_time": crossing, "crossing_bound": bound}
    return CriterionResult(14, "barrier dominates the characteristics",
                           not failures, failures, details,
                           time.perf_counter() - t0)


def criterion_15(cache: RunCache) -> CriterionResult:
    t0 = time.perf_counter()
    failures = []
    K = 1.0
    details = {}
    for ratio in (0.0, 1e-4, 1e-3):
        M = ratio * K
        r_minus, r_plus = diag.r_pm(0.0, M, K)
        gap = r_plus - r_minus
        horizon = 300.0 / (K * gap)
        for beta0 in (r_minus + 0.01, 0.5, r_plus):
            _, betas = diag.riccati_solve(0.0, 0.0, beta0, M, K, horizon)
            if beta0 == r_plus:
                dev = float(np.max(np.abs(betas - r_plus)))
                _check(failures, dev <= 1e-12,
                       f"M/K={ratio}: equilibrium path wandered {dev:.3e}")
            else:
                err = abs(float(betas[-1]) - r_plus)
                _check(failures, err <= 1e-6,
                       f"M/K={ratio}, beta0={beta0:.3f}: end error {err:.3e}")
        details[str(ratio)] = {"r_minus": r_minus, "r_plus": r_plus}
    return CriterionResult(15, "comparison flow converges to its upper root",
                           not failures, failures, details,
                           time.perf_counter() - t0)


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11, 12: criterion_12,
    13: criterion_13, 14: criterion_14, 15: criterion_15,
}

SUITES = {
    "conservation": (1,),
    "thm31": (2, 3, 4, 5, 6),
    "thm32": (13,),
    "thm33": (12, 15),
    "gradient": (7, 8, 9, 10),
    "barriers": (14,),
    "equilibrium": (11,),
    "all": tuple(range(1, 16)),
}


def run_suite(name: str, cache: RunCache | None = None):
    """Run the named suite; returns (results, all_passed)."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    cache = cache if cache is not None else RunCache()
    results = [CRITERIA[cid](cache) for cid in SUITES[name]]
    return results, all(r.passed for r in results)
