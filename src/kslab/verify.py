"""Pinned desk-scale verification scenarios.

Each criterion is a check ``(cache, failures, details)`` registered in
CRITERIA by ``@_criterion(cid, name)``.  The check takes every kinetic run
it reads from the shared RunCache, which builds and summarizes each run of
the _PINNED_RUNS table once, appends a message to ``failures`` for each broken
check at the pinned tolerances, and records what it measured in
``details``.  ``CRITERIA[cid](cache)`` times the check and returns its
verify.json entry ``{criterion, name, passed, failures, details,
elapsed_s}``, which passes when no failure was appended.  The CLI verify
command (through run_suite) and the acceptance test suite both call it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import diagnostics as diag
from . import frequency as freq
from . import kinetic, particle
from .order import TWO_PI


def _skewed_profile(th):
    """Positive density with R0 = 0.2 and a genuinely moving average phase."""
    return (1.0 + 0.4 * np.cos(th) + 0.3 * np.sin(2.0 * th)) / TWO_PI

# criterion 13's support bound M, arc l_plus(gamma0) and coupling 1.2 (M/eps0)(1 + 1/eps0)
_M13, _ARC13 = 0.01, diag.Interval("l_plus", diag.GAMMA0)
_K13 = 1.2 * (_M13 / diag.EPS0) * (1.0 + 1.0 / diag.EPS0)

# name: (density g, n_theta, n_omega, K, initial profile, t_end, sample
# interval, parsed diagnostics section): every kinetic run a criterion reads,
# each stepped at CFL 0.5 and summarized as ``simulate`` summarizes its run
_PINNED_RUNS = {
    # distributed frequencies: conservation / consistency host
    "run1": (freq.uniform(0.1), 512, 16, 2.0, _skewed_profile, 20.0, 0.05, {}),
    # identical oscillators: point-attractor host
    "run2": (freq.dirac_at_zero(), 1024, 1, 1.0, freq.cosine_profile(0.2), 40.0, 0.05,
             {"intervals": [diag.Interval("i_plus", 0.2), diag.Interval("i_minus", 0.2),
                            diag.Interval("i_plus", 0.5), diag.Interval("i_minus", 0.5)],
              "lambda_interval": diag.Interval("i_minus", 0.5)}),
    # large coupling: asymptotic amplitude host
    "run12": (freq.uniform(0.05), 1024, 16, 10.0, freq.cosine_profile(0.3), 60.0, 0.05,
              {"intervals": [diag.Interval("l_plus", math.pi / 3),
                             diag.Interval("l_minus", math.pi / 3)],
               "gamma_minus": diag.Interval("l_minus", math.pi / 3)}),
    # large coupling, concentrated start: arc-trapping host
    "run13": (freq.uniform(_M13), 1024, 8, _K13, freq.von_mises_profile(30.0), 4.0, 0.02,
              {"intervals": [_ARC13], "gamma_plus": _ARC13}),
}


@dataclass
class _CachedRun:
    result: kinetic.RunResult
    g: freq.FrequencyDensity
    build_seconds: float        # time in kinetic.run
    checks: list[dict]          # the bound checks of each row (``finalize_records``)
    summary: dict               # the run's summary.json (``diag.summarize_run``)


class RunCache:
    """Lazy store for the expensive pinned kinetic runs."""

    def __init__(self):
        self._runs: dict[str, _CachedRun] = {}

    def run(self, name: str) -> _CachedRun:
        """The pinned run `name`, built, timed, finalized and summarized on first use."""
        if name not in self._runs:
            g, n_theta, n_omega, K, profile, t_end, sample_every, cfg = _PINNED_RUNS[name]
            state = kinetic.state_from_profile(kinetic.PhaseGrid(n_theta), g, n_omega,
                                               K=K, profile=profile)
            t0 = time.perf_counter()
            res = kinetic.run(state, t_end, sample_every, sampler=diag.RecordSampler(cfg), cfl=0.5)
            build_seconds = time.perf_counter() - t0
            checks = diag.finalize_records(res.records, K=K, m_bound=g.support)
            summary = diag.summarize_run(res, checks, K, g.support)
            self._runs[name] = _CachedRun(res, g, build_seconds, checks, summary)
        return self._runs[name]


def _interior(rows):
    return [r for r in rows if r["rdot_measured"] is not None]


def _check(failures, ok: bool, message: str):
    if not ok:
        failures.append(message)


def _slack(run: _CachedRun) -> float:
    """Discretization slack 10 (max dt + dtheta^2) of a run's rate checks."""
    return 10.0 * (run.result.max_dt + run.result.final_state.grid.dtheta ** 2)


# ---------------------------------------------------------------------------
# criteria

CRITERIA = {}


def _criterion(cid: int, name: str):
    """Register check(cache, failures, details) as CRITERIA[cid], which times
    the check and returns its verify.json entry."""
    def register(check):
        def evaluate(cache: RunCache) -> dict:
            t0 = time.perf_counter()
            failures, details = [], {}
            check(cache, failures, details)
            return {"criterion": cid, "name": name, "passed": not failures,
                    "failures": failures, "details": details,
                    "elapsed_s": time.perf_counter() - t0}

        CRITERIA[cid] = evaluate
        return check

    return register


@_criterion(1, "conservation under transport")
def _conservation(cache, failures, details):
    run = cache.run("run1")
    drift = run.summary["mass_drift"]
    _check(failures, drift["per_slice_ok"],
           f"per-slice mass drift {drift['per_slice_rel']:.3e} > {diag.SLICE_DRIFT_GATE:g}")
    _check(failures, drift["total_ok"],
           f"total mass drift {drift['total']:.3e} > {diag.TOTAL_DRIFT_GATE:g}")
    _check(failures, run.build_seconds < 30.0,
           f"runtime {run.build_seconds:.1f}s >= 30s")
    details.update({"slice_drift": drift["per_slice_rel"], "total_drift": drift["total"],
                    "runtime_s": run.build_seconds})


@_criterion(2, "identical-case concentration")
def _identical_concentration(cache, failures, details):
    run = cache.run("run2")
    summary, masses = run.summary, run.summary["final_masses"]
    for delta in (0.2, 0.5):
        mass = masses[diag.Interval("i_plus", delta).label]
        _check(failures, mass >= 0.99,
               f"final mass in the near interval ({delta}) {mass:.4f} < 0.99")
    min_dR, final_R = summary["min_step_delta_R"], summary["final_R"]
    _check(failures, min_dR >= -1e-8, f"R decreased by {-min_dR:.3e} in one step")
    _check(failures, final_R >= 0.99, f"final R {final_R:.4f} < 0.99")
    _check(failures, run.build_seconds < 60.0,
           f"runtime {run.build_seconds:.1f}s >= 60s")
    # amplitude settles: measured dR/dt dies out over the last quarter
    quarter = [r for r in _interior(run.result.records) if r["t"] >= 30.0]
    max_late_rdot = max(abs(r["rdot_measured"]) for r in quarter)
    _check(failures, max_late_rdot <= 1e-4,
           f"late |dR/dt| {max_late_rdot:.3e} > 1e-4")
    details.update({"final_mass_near": masses[diag.Interval("i_plus", 0.2).label],
                    "final_R": final_R, "min_step_dR": min_dR,
                    "min_step_delta_R_ok": summary["min_step_delta_R_ok"],
                    "late_rdot": max_late_rdot, "runtime_s": run.build_seconds})


@_criterion(3, "antipodal L2 decay rate")
def _antipodal_decay_rate(cache, failures, details):
    run = cache.run("run2")
    fit = run.summary.get("lambda_rate")     # absent without an onset or a fit
    _check(failures, fit is not None, "no monotone-decay onset detected")
    details["onset"] = None
    if fit is not None:
        rate_bound = -0.9 * (0.2 * math.cos(0.5) / 2.0) * run.result.final_state.K
        _check(failures, fit["slope"] <= rate_bound,
               f"fitted slope {fit['slope']:.4f} > bound {rate_bound:.4f}")
        _check(failures, fit["r_squared"] >= 0.98,
               f"r^2 {fit['r_squared']:.4f} < 0.98")
        details.update(fit, rate_bound=rate_bound,
                       window=diag.late_window(fit["onset"], run.summary["final_t"]))


@_criterion(4, "average-phase drift bound")
def _phase_drift_bound(cache, failures, details):
    for name in ("run1", "run2"):
        run = cache.run(name)
        slack = _slack(run)
        worst = math.inf
        lipschitz_bad = 0
        # the interior rows: the endpoints have no central difference
        for r, checks in zip(run.result.records[1:-1], run.checks[1:-1]):
            if not checks["rdot_lipschitz"]["passed"]:
                lipschitz_bad += 1
            if r["R"] <= 0.05 or r["phidot_measured"] is None:
                continue
            bound = checks["phidot_bound"]["bound"] + slack
            worst = min(worst, bound - abs(r["phidot_measured"]))
        _check(failures, worst >= 0.0,
               f"{name}: |dphi/dt| exceeds its bound by {-worst:.3e}")
        _check(failures, lipschitz_bad == 0,
               f"{name}: {lipschitz_bad} samples broke the |dR/dt| <= M+K bound")
        details[name] = {"min_margin": worst, "slack": slack}


@_criterion(5, "order-parameter rate formulas")
def _rate_formulas(cache, failures, details):
    run = cache.run("run1")
    slack = _slack(run) * (run.g.support + run.result.final_state.K)
    worst_r = 0.0
    worst_p = 0.0
    for r in _interior(run.result.records):
        if r["rdot_formula"] is not None:
            worst_r = max(worst_r, abs(r["rdot_measured"] - r["rdot_formula"]))
        if (r["R"] > 0.05 and r["phidot_measured"] is not None
                and r["phidot_formula"] is not None):
            worst_p = max(worst_p, abs(r["phidot_measured"] - r["phidot_formula"]))
    _check(failures, worst_r <= slack,
           f"dR/dt mismatch {worst_r:.3e} > {slack:.3e}")
    _check(failures, worst_p <= slack,
           f"dphi/dt mismatch {worst_p:.3e} > {slack:.3e}")
    details.update({"rdot_mismatch": worst_r, "phidot_mismatch": worst_p,
                    "tolerance": slack})


@_criterion(6, "potential dissipation identity")
def _potential_dissipation(cache, failures, details):
    run = cache.run("run2")
    recs = run.result.records
    K = run.result.final_state.K
    vk = np.array([r["v_k"] for r in recs])
    rise = float(np.max(np.diff(vk)))
    _check(failures, rise <= 1e-9, f"potential increased by {rise:.3e} between samples")
    slack = _slack(run) * K ** 2
    ts = np.array([r["t"] for r in recs])
    vkdot = np.gradient(vk, ts)
    worst = 0.0
    for i, r in enumerate(recs[1:-1], start=1):
        if r["rdot_formula"] is None:
            continue
        dissipation = -K * r["R"] * r["rdot_formula"]   # equals -(K R)^2 <sin^2 rho>
        worst = max(worst, abs(vkdot[i] - dissipation))
    _check(failures, worst <= slack,
           f"dissipation identity off by {worst:.3e} > {slack:.3e}")
    details.update({"max_vk_rise": rise, "dissipation_mismatch": worst,
                    "tolerance": slack})


@_criterion(7, "particle gradient identity")
def _particle_gradient_identity(cache, failures, details):
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
    _check(failures, err <= 1e-6, f"gradient identity error {err:.3e} > 1e-6")
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    details["error"] = err


@_criterion(8, "mean-field consistency")
def _mean_field_consistency(cache, failures, details):
    run = cache.run("run1")
    n_part = 20000
    pstate = particle.ParticleState(*freq.draw(run.g, _skewed_profile, n_part, 8),
                                    K=run.result.final_state.K)
    n_samples, per = particle.step_plan(pstate, 20.0, 0.01, 0.05)[:2]
    n_steps = n_samples * per
    tp0 = time.perf_counter()
    r_part = particle.run_particles(pstate, 20.0, dt=0.01, sample_every=0.05)[:, 1]
    particle_seconds = time.perf_counter() - tp0
    recs = run.result.records
    r_kin = np.array([r["R"] for r in recs])
    _check(failures, r_part.size == len(recs),
           f"sample grids differ: {r_part.size} vs {len(recs)}")
    gap = float(np.max(np.abs(r_kin[:r_part.size] - r_part[:len(recs)])))
    _check(failures, gap <= 0.05, f"kinetic/particle gap {gap:.4f} > 0.05")
    total = particle_seconds + run.build_seconds
    _check(failures, total < 180.0, f"runtime {total:.1f}s >= 180s")
    details.update({"max_gap": gap, "particle_seconds": particle_seconds,
                    "particle_steps": n_steps,
                    "particle_ns_per_oscillator_step": 1e9 * particle_seconds / (n_steps * n_part),
                    "kinetic_seconds": run.build_seconds})


@_criterion(9, "amplitude vs phase diameter")
def _diameter_amplitude_bound(cache, failures, details):
    rng = np.random.default_rng(9)
    worst = math.inf
    for _ in range(1000):
        spread = rng.uniform(0.05, math.pi * 0.999)
        center = rng.uniform(0.0, TWO_PI)
        th = center + rng.uniform(-spread / 2.0, spread / 2.0, 16)
        st = particle.ParticleState(th, np.zeros(16), K=1.0)
        d = particle.phase_diameter(st.thetas)
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
    details.update({"min_margin": worst, "r_at_zero_diameter": r_tight})


@_criterion(10, "antipodal set has at most one member")
def _antipodal_cardinality(cache, failures, details):
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

    dt, t_max = 0.05, 600.0
    terms = particle._rotation(0.0, K, dt)
    w = particle._unit(thetas)
    t = 0.0
    while t < t_max:
        w = particle._advance(w, thetas, 0.0, K, dt, terms, 20)
        t += 20 * dt
        rates = particle._drift(w, 0.0, K)[0]
        if float(np.max(rates.max(axis=1) - rates.min(axis=1))) < 1e-8:
            break

    counts = [particle.antipodal_count(particle.ParticleState(th, np.zeros(n_osc), K))
              for th in thetas]
    anti_counts = [n for n in counts if n is not None]     # one per converged run
    n_converged, n_ok = len(anti_counts), sum(n <= 1 for n in anti_counts)
    _check(failures, n_converged > 0, "no run converged")
    frac = n_ok / n_converged if n_converged else 0.0
    _check(failures, frac >= 0.99,
           f"only {frac:.3f} of converged runs had at most one antipodal oscillator")
    details.update({"converged": n_converged, "unconverged": n_seeds - n_converged,
                    "ok_fraction": frac,
                    "max_anti": max(anti_counts) if anti_counts else None})


@_criterion(11, "locked-equilibrium self-consistency")
def _equilibrium_self_consistency(cache, failures, details):
    t0 = time.perf_counter()
    g = freq.uniform(1.0)
    probe = freq.locked_phasor_mean(g, 1.0)     # H(1) at K = 1
    _check(failures, abs(probe - math.pi / 4.0) <= 1e-10,
           f"H(1) = {probe!r} differs from pi/4")
    res_k1 = freq.equilibrium_R(g, K=1.0)
    _check(failures, not res_k1.found, "spurious equilibrium found at K=1")
    res = freq.equilibrium_R(g, K=5.0)
    _check(failures, res.found, "no equilibrium found at K=5")
    if res.found:
        _check(failures, res.residual <= 1e-10,
               f"residual {res.residual:.3e} > 1e-10")
        _check(failures, res.R >= 0.5, f"R {res.R:.4f} < 0.5")
        _check(failures, res.bound_sqrt_ok, "square-root lower bound violated")
        _check(failures, res.bound_mass_ok, "inner-mass lower bound violated")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    details.update({"probe_H1": probe, "R": res.R if res.found else None,
                    "residual": res.residual if res.found else None})


@_criterion(12, "asymptotic amplitude floor")
def _amplitude_floor(cache, failures, details):
    run = cache.run("run12")
    recs, K, M = run.result.records, run.result.final_state.K, run.g.support
    report = diag.hypothesis_check(K=K, M=M, R0=0.3)
    _check(failures, report["amplitude_floor_gate_passed"],
           "structural hypothesis gate failed: "
           + "; ".join(c["name"] for c in report["checks"]
                       if c["name"] in diag.AMPLITUDE_FLOOR_GATE and not c["passed"]))
    floor = diag.r_infinity(M, K) - 0.02
    late = [r["R"] for r in recs if r["t"] >= 40.0]
    late_min = min(late)
    _check(failures, late_min >= floor,
           f"late-window min R {late_min:.4f} < {floor:.4f}")
    _check(failures, run.build_seconds < 300.0,
           f"runtime {run.build_seconds:.1f}s >= 300s")

    # antipodal quarter-arc L2 decays at the guaranteed rate once the trend sets in
    weights = run.result.final_state.weights
    columns = [f"gamma_minus_{k}" for k in range(weights.size)]
    fold = [(r["t"], float(weights @ [r[c] for c in columns]))
            for r in recs if r["phi_defined"]]
    onset = diag.detect_transient([t for t, _ in fold], [v for _, v in fold])
    gamma_slope = None
    if onset is None:
        failures.append("no decay onset for the antipodal L2 functional")
    else:
        fit = diag.fit_exponential_rate(fold, (onset, onset + 3.0))
        gamma_slope = fit.slope
        bound = -0.9 * K * 0.3 / 4.0
        _check(failures, fit.slope <= bound,
               f"antipodal L2 slope {fit.slope:.3f} > {bound:.3f}")

    # mass/amplitude sandwich at interior samples where R does not grow, on
    # the l_plus(pi/3) mass, with a 5 dtheta quadrature slack
    e1, e2, _ = diag.constants_E(K, M, 0.15, diag.GAMMA, diag.MU)
    column = f"mass_{diag.Interval('l_plus', math.pi / 3).label}"
    slack = 5.0 * run.result.final_state.grid.dtheta
    sandwich_failures = 0
    for r in _interior(recs):
        if r["rdot_measured"] <= 0 and math.isfinite(r[column]):
            lo_margin = r["R"] - (2.0 * r[column] - e2 - 1.0)
            hi_margin = (2.0 * r[column] + 2.0 * e1 - 1.0) - r["R"]
            if not (lo_margin >= -slack and hi_margin >= -slack):
                sandwich_failures += 1
    _check(failures, sandwich_failures == 0,
           f"{sandwich_failures} samples violated the mass/amplitude sandwich")
    details.update({"hypothesis": report, "late_min_R": late_min,
                    "floor": floor, "gamma_minus_slope": gamma_slope,
                    "runtime_s": run.build_seconds})


@_criterion(13, "arc mass monotonicity and L2 growth")
def _arc_mass_and_growth(cache, failures, details):
    eps0, gamma0, M, K = diag.EPS0, diag.GAMMA0, _M13, _K13
    report = diag.hypothesis_check(K=K, M=M, R0=0.9)
    passed = {c["name"]: c["passed"] for c in report["checks"]}
    window = ("arc_trapping_coupling", "mass_threshold_eps_window", "mass_threshold_angle_window")
    _check(failures, all(passed[name] for name in window),
           "the large-coupling condition or the admissibility window failed")
    threshold = diag.mstar(eps0, gamma0)

    run = cache.run("run13")
    recs = run.result.records
    masses = np.array([r[f"mass_{_ARC13.label}"] for r in recs])
    _check(failures, masses[0] >= threshold,
           f"initial arc mass {masses[0]:.4f} < threshold {threshold:.4f}")
    dip = float(np.min(np.diff(masses)))
    _check(failures, dip >= -1e-6, f"arc mass fell by {-dip:.3e} between samples")

    slope_bound = 0.9 * K * eps0 * math.sin(gamma0)
    slopes = []
    for k in range(run.result.final_state.n_omega):
        series = [(r["t"], float(r[f"gamma_plus_{k}"])) for r in recs]
        fit = diag.fit_exponential_rate(series, (0.5, 3.0))
        slopes.append(fit.slope)
    _check(failures, min(slopes) >= slope_bound,
           f"slowest per-frequency L2 growth {min(slopes):.4f} < {slope_bound:.4f}")
    details.update({"K": K, "threshold": threshold, "initial_mass": float(masses[0]),
                    "min_mass_step": dip, "slopes": slopes, "slope_bound": slope_bound})


@_criterion(14, "barrier dominates the characteristics")
def _barrier_comparison(cache, failures, details):
    run = cache.run("run12")
    recs = run.result.records
    K, M, kappa = run.result.final_state.K, run.g.support, diag.KAPPA
    eps_k, valid = diag.epsilon_kappa(kappa, M, K)
    _check(failures, valid, "barrier offset not below 1")
    p_lim = math.sqrt(1.0 - eps_k ** 2)

    Rs = np.array([r["R"] for r in recs])
    ts = np.array([r["t"] for r in recs])
    above = Rs > kappa
    if above[-1]:
        idx = len(Rs) - 1
        while idx > 0 and above[idx - 1]:
            idx -= 1
        T_kappa = float(ts[idx])
    else:
        T_kappa = math.inf
    details["T_kappa"] = T_kappa
    _check(failures, T_kappa < 50.0, "amplitude never settled above kappa")
    if T_kappa >= 50.0:
        return
    series = kinetic.OrderSeries(ts, Rs, [r["phi"] for r in recs])
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
    details.update({"worst_excess": worst, "crossing_time": crossing,
                    "crossing_bound": bound})


@_criterion(15, "comparison flow converges to its upper root")
def _comparison_flow(cache, failures, details):
    K = 1.0
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


def run_suite(name: str):
    """Run the suite SUITES[name]; returns (results, all_passed)."""
    cache = RunCache()
    results = [CRITERIA[cid](cache) for cid in SUITES[name]]
    return results, all(r["passed"] for r in results)
