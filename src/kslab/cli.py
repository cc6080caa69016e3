"""Configuration-driven experiment runner.

Subcommands: simulate, sweep, verify, equilibrium, characteristics.
Exit codes: 0 success, 1 criterion failure, 2 configuration error.

The configuration is a single JSON document; unknown keys are errors so a
typo in an inequality parameter cannot silently change an experiment.  CSV
outputs use RFC-4180 quoting, '.' decimals, and 17-significant-digit floats,
and are byte-identical across reruns of the same configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from . import frequency as freq
from . import kinetic, particle, verify

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration parsing


_TOP_KEYS = {"model", "frequency", "initial", "coupling", "n_theta", "n_omega",
             "n_particles", "t_end", "sample_every", "cfl", "scheme",
             "diagnostics", "seed", "out_dir", "dt_particle", "hypothesis",
             "dt_max"}
_FREQ_KEYS = {"kind", "halfwidth", "path"}
_INIT_KEYS = {"preset", "amplitude", "concentration", "center", "path"}
_DIAG_KEYS = {"intervals", "lambda_interval", "gamma_plus", "gamma_minus"}
_INTERVAL_KEYS = {"kind", "parameter"}
_HYP_KEYS = {"R0", "mu", "gamma", "kappa", "eps0", "gamma0"}


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def validate_config(cfg: dict) -> dict:
    """Check every field against the module preconditions; returns cfg."""
    _require(isinstance(cfg, dict), "configuration must be a JSON object")
    _reject_unknown(cfg, _TOP_KEYS, "configuration")
    model = cfg.get("model", "kinetic")
    _require(model in ("kinetic", "particle", "both"),
             f"model must be kinetic, particle, or both, not {model!r}")

    fcfg = cfg.get("frequency", {"kind": "dirac"})
    _reject_unknown(fcfg, _FREQ_KEYS, "frequency")
    kind = fcfg.get("kind")
    _require(kind in ("dirac", "uniform", "table"),
             f"frequency.kind must be dirac, uniform, or table, not {kind!r}")
    if kind == "uniform":
        _require(float(fcfg.get("halfwidth", 0)) > 0,
                 "frequency.halfwidth must be positive")
    if kind == "table":
        _require("path" in fcfg, "frequency.path required for table densities")

    icfg = cfg.get("initial", {"preset": "cosine", "amplitude": 0.2})
    _reject_unknown(icfg, _INIT_KEYS, "initial")
    preset = icfg.get("preset")
    _require(preset in ("cosine", "von_mises", "table"),
             f"initial.preset must be cosine, von_mises, or table, not {preset!r}")
    if preset == "cosine":
        _require(abs(float(icfg.get("amplitude", 0.0))) <= 0.5,
                 "initial.amplitude must satisfy |a| <= 1/2")
    if preset == "von_mises":
        _require(float(icfg.get("concentration", -1)) >= 0,
                 "initial.concentration must be nonnegative")
    if preset == "table":
        _require("path" in icfg, "initial.path required for table profiles")

    coupling = cfg.get("coupling", 1.0)
    if isinstance(coupling, list):
        _require(all(isinstance(k, (int, float)) and k > 0 for k in coupling),
                 "every coupling value must be positive")
    else:
        _require(isinstance(coupling, (int, float)) and coupling >= 0,
                 "coupling must be nonnegative")

    n_theta = int(cfg.get("n_theta", 256))
    _require(n_theta >= kinetic.MIN_CELLS,
             f"n_theta must be >= {kinetic.MIN_CELLS}")
    _require(int(cfg.get("n_omega", 8)) >= 1, "n_omega must be >= 1")
    _require(int(cfg.get("n_particles", 1000)) >= 1, "n_particles must be >= 1")
    _require(float(cfg.get("t_end", 10.0)) >= 0, "t_end must be nonnegative")
    _require(float(cfg.get("sample_every", 0.1)) > 0, "sample_every must be positive")
    cfl = float(cfg.get("cfl", 0.5))
    _require(0.0 < cfl <= 1.0, "cfl must lie in (0, 1]")
    _require(cfg.get("scheme", "muscl") in ("muscl", "upwind"),
             "scheme must be muscl or upwind")
    if "dt_particle" in cfg:
        _require(float(cfg["dt_particle"]) > 0, "dt_particle must be positive")

    dcfg = cfg.get("diagnostics", {})
    _reject_unknown(dcfg, _DIAG_KEYS, "diagnostics")
    for key in ("lambda_interval", "gamma_plus", "gamma_minus"):
        if key in dcfg:
            _reject_unknown(dcfg[key], _INTERVAL_KEYS, f"diagnostics.{key}")
            _parse_interval(dcfg[key])
    for iv in dcfg.get("intervals", []):
        _reject_unknown(iv, _INTERVAL_KEYS, "diagnostics.intervals[]")
        _parse_interval(iv)

    if "hypothesis" in cfg:
        _reject_unknown(cfg["hypothesis"], _HYP_KEYS, "hypothesis")
    if "seed" in cfg:
        _require(int(cfg["seed"]) >= 0, "seed must be a nonnegative integer")
    return cfg


def _parse_interval(iv: dict) -> diag.Interval:
    try:
        return diag.Interval(iv["kind"], float(iv["parameter"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad interval {iv!r}: {exc}") from None


def build_frequency(cfg: dict) -> freq.FrequencyDensity:
    fcfg = cfg.get("frequency", {"kind": "dirac"})
    n = int(cfg.get("n_omega", 8))
    if fcfg["kind"] == "dirac":
        return freq.dirac_at_zero()
    if fcfg["kind"] == "uniform":
        return freq.uniform(float(fcfg["halfwidth"]), n_nodes=n)
    return freq.from_csv(fcfg["path"], n_nodes=n)


def build_profile(cfg: dict):
    icfg = cfg.get("initial", {"preset": "cosine", "amplitude": 0.2})
    center = float(icfg.get("center", 0.0))
    if icfg["preset"] == "cosine":
        return kinetic.cosine_profile(float(icfg["amplitude"]), center)
    if icfg["preset"] == "von_mises":
        return kinetic.von_mises_profile(float(icfg["concentration"]), center)
    with open(icfg["path"], newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["theta", "value"]:
            raise ConfigError("profile table needs CSV header 'theta,value'")
        rows = [(float(r[0]), float(r[1])) for r in reader if r]
    th, va = zip(*rows)
    return kinetic.table_profile(np.array(th), np.array(va))


def build_diag_config(cfg: dict, M: float) -> diag.DiagnosticsConfig:
    dcfg = cfg.get("diagnostics", {})
    intervals = tuple(_parse_interval(iv) for iv in dcfg.get("intervals", []))
    return diag.DiagnosticsConfig(
        intervals=intervals,
        lambda_interval=_parse_interval(dcfg["lambda_interval"])
        if "lambda_interval" in dcfg else None,
        gamma_plus_interval=_parse_interval(dcfg["gamma_plus"])
        if "gamma_plus" in dcfg else None,
        gamma_minus_interval=_parse_interval(dcfg["gamma_minus"])
        if "gamma_minus" in dcfg else None,
        m_bound=M)


# ---------------------------------------------------------------------------
# simulate


def _run_kinetic(cfg: dict, K: float, out: Path) -> dict:
    g = build_frequency(cfg)
    grid = kinetic.PhaseGrid(int(cfg.get("n_theta", 256)))
    state = kinetic.state_from_profile(grid, g, int(cfg.get("n_omega", 8)),
                                       K=K, profile=build_profile(cfg))
    M = g.support
    dconfig = build_diag_config(cfg, M)
    res = kinetic.run(state, float(cfg.get("t_end", 10.0)),
                      float(cfg.get("sample_every", 0.1)),
                      sampler=diag.RecordSampler(dconfig),
                      cfl=float(cfg.get("cfl", 0.5)),
                      scheme=cfg.get("scheme", "muscl"),
                      dt_max=float(cfg.get("dt_max", 1.0)))
    diag.finalize_records(res.records, K=K, m_bound=M, config=dconfig,
                          dtheta=grid.dtheta)
    out.mkdir(parents=True, exist_ok=True)
    diag.records_to_csv(res.records, out / "trajectory.csv")
    diag.bound_checks_to_json(res.records, out / "bound_checks.json")

    summary = _summarize_kinetic(cfg, K, M, res)
    if "hypothesis" in cfg:
        h = cfg["hypothesis"]
        report = diag.hypothesis_check(
            K=K, M=M, R0=float(h.get("R0", res.records[0].R)),
            mu=float(h.get("mu", 1e-3)), gamma=float(h.get("gamma", 1.45)),
            kappa=float(h.get("kappa", 0.7)), eps0=float(h.get("eps0", 0.2)),
            gamma0=float(h.get("gamma0", 1.1)))
        summary["hypothesis"] = report.to_dict()
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    _write_plot_script(res.records, out / "plot.gp")
    return summary


def _summarize_kinetic(cfg, K, M, res: kinetic.RunResult) -> dict:
    recs = res.records
    final = recs[-1]
    bad_bounds = sum(1 for r in recs if r.bound_checks
                     for name, c in r.bound_checks.items() if not c["passed"])
    summary = {
        "model": "kinetic", "K": K, "M": M,
        "n_steps": res.n_steps, "max_dt": res.max_dt,
        "final_R": final.R, "final_t": final.t,
        "final_masses": dict(final.masses),
        "min_step_delta_R": res.min_step_delta_R,
        "positivity_margin": res.min_cell_value,
        "mass_drift": {"per_slice_rel": res.max_slice_mass_drift_rel,
                       "total": res.max_total_mass_drift,
                       "per_slice_ok": res.max_slice_mass_drift_rel <= 1e-12,
                       "total_ok": res.max_total_mass_drift <= 1e-10},
        "bound_check_failures": bad_bounds,
    }
    lam = [(r.t, r.lambda_value) for r in recs if r.lambda_value is not None]
    if len(lam) >= 25:
        onset = diag.detect_transient([t for t, _ in lam], [v for _, v in lam])
        if onset is not None:
            try:
                fit = diag.fit_exponential_rate(lam, diag.late_window(onset, lam[-1][0]))
                summary["lambda_rate"] = {"onset": onset, "slope": fit.slope,
                                          "r_squared": fit.r_squared}
            except ValueError:
                pass
    return summary


def _write_plot_script(records, path: Path) -> None:
    cols = diag._record_columns(records)
    idx = {name: i + 1 for i, name in enumerate(cols)}   # gnuplot is 1-based
    mass_cols = [c for c in cols if c.startswith("mass_")]
    gamma_cols = [c for c in cols if c.startswith("gamma_")]
    lines = [
        "# gnuplot script regenerating the standard panels from trajectory.csv",
        "set datafile separator ','",
        "set terminal pngcairo size 1400,1000",
        "set output 'panels.png'",
        "set multiplot layout 2,2",
        "set key left bottom",
        "set title 'order parameter'",
        f"plot 'trajectory.csv' using {idx['t']}:{idx['R']} with lines title 'R'",
        "set title 'interval masses'",
    ]
    if mass_cols:
        parts = ", ".join(
            f"'trajectory.csv' using {idx['t']}:{idx[c]} with lines title '{c[5:]}'"
            for c in mass_cols)
        lines.append(f"plot {parts}")
    else:
        lines.append(f"plot 'trajectory.csv' using {idx['t']}:{idx['R']} "
                     "with lines title 'R'")
    lines += ["set title 'L2 functionals'", "set logscale y"]
    l2_parts = []
    if "lambda" in idx:
        l2_parts.append(f"'trajectory.csv' using {idx['t']}:{idx['lambda']} "
                        "with lines title 'Lambda'")
    l2_parts += [f"'trajectory.csv' using {idx['t']}:{idx[c]} with lines notitle"
                 for c in gamma_cols[:8]]
    lines.append("plot " + ", ".join(l2_parts))
    lines += [
        "unset logscale y",
        "set title 'rate formulas'",
        f"plot 'trajectory.csv' using {idx['t']}:{idx['rdot_formula']} with lines "
        "title 'dR/dt formula', "
        f"'trajectory.csv' using {idx['t']}:{idx['rdot_measured']} with lines "
        "title 'dR/dt measured'",
        "unset multiplot",
    ]
    path.write_text("\n".join(lines) + "\n")


def _run_particle(cfg: dict, K: float, out: Path, seed: int) -> dict:
    g = build_frequency(cfg)
    profile = build_profile(cfg)
    n = int(cfg.get("n_particles", 1000))
    rng = np.random.default_rng(seed)
    bound = _profile_bound(profile)
    thetas = particle.sample_phases(profile, bound, n, rng)
    omegas = freq.sample(g, n, seed=seed + 1)
    state = particle.ParticleState(thetas, omegas, K=K)
    dt = float(cfg.get("dt_particle", float(cfg.get("sample_every", 0.1)) / 5.0))
    traj = particle.run_particles(state, float(cfg.get("t_end", 10.0)), dt,
                                  float(cfg.get("sample_every", 0.1)))
    out.mkdir(parents=True, exist_ok=True)
    _, r, phi, diameter, potential = particle.trajectory_to_csv(
        traj, out / "particles.csv")[-1]
    return {"model": "particle", "K": K, "n_particles": n,
            "final_r": float(r), "final_phi": float(phi),
            "final_diameter": float(diameter), "final_potential": float(potential)}


def _profile_bound(profile) -> float:
    th = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    return float(np.max(profile(th))) * 1.05


def cmd_simulate(args) -> int:
    cfg, raw = _load_config(args.config)
    out = Path(args.out or cfg.get("out_dir", "out"))
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
    coupling = cfg.get("coupling", 1.0)
    if isinstance(coupling, list):
        raise ConfigError("simulate needs a single coupling value; use sweep for lists")
    K = float(coupling)
    model = cfg.get("model", "kinetic")
    if model in ("particle", "both"):
        # fail before any run or output when the particle samples cannot tile t_end
        particle.sample_count(0.0, float(cfg.get("t_end", 10.0)),
                              float(cfg.get("sample_every", 0.1)))
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_bytes(raw)
    summaries = {}
    if model in ("kinetic", "both"):
        summaries["kinetic"] = _run_kinetic(cfg, K, out)
    if model in ("particle", "both"):
        summaries["particle"] = _run_particle(cfg, K, out, seed)
        if model == "particle":
            with open(out / "summary.json", "w") as fh:
                json.dump(summaries["particle"], fh, indent=1, sort_keys=True)
                fh.write("\n")
            _write_particle_plot(out / "plot.gp")
    if model == "both":
        with open(out / "summary.json", "w") as fh:
            json.dump(summaries, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"wrote artifacts to {out}")
    return 0


def _write_particle_plot(path: Path) -> None:
    path.write_text("\n".join([
        "set datafile separator ','",
        "set terminal pngcairo size 900,600",
        "set output 'particles.png'",
        "plot 'particles.csv' using 1:2 with lines title 'r', "
        "'particles.csv' using 1:5 with lines title 'V_p'",
    ]) + "\n")


# ---------------------------------------------------------------------------
# sweep


def _sweep_one(payload):
    cfg, K, out_dir = payload
    summary = _run_kinetic(cfg, K, Path(out_dir))
    return K, summary


def cmd_sweep(args) -> int:
    cfg, raw = _load_config(args.config)
    coupling = cfg.get("coupling")
    if not isinstance(coupling, list) or len(coupling) < 2:
        raise ConfigError("sweep needs a coupling list with at least 2 values")
    out = Path(args.out or cfg.get("out_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_bytes(raw)
    g = build_frequency(cfg)
    M = g.support
    jobs = [(cfg, float(K), str(out / f"K_{K:g}")) for K in coupling]
    threads = max(1, int(args.threads))
    rows = []
    failures = []
    if threads == 1:
        for job in jobs:
            rows.append(_try_sweep_job(job, failures))
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_sweep_one, job) for job in jobs]
            for job, fut in zip(jobs, futures):
                try:
                    rows.append(fut.result())
                except Exception as exc:
                    failures.append(f"K={job[1]}: {exc}")
                    rows.append(None)
    rows = [r for r in rows if r is not None]

    table = []
    for K, summary in rows:
        r_inf = diag.r_infinity(M, K) if K > 0 else math.nan
        masses = summary.get("final_masses", {})
        first_mass = next(iter(masses.values())) if masses else math.nan
        table.append({"K": K, "final_R": summary["final_R"], "r_infinity": r_inf,
                      "gap": summary["final_R"] - r_inf,
                      "final_interval_mass": first_mass})
    finals = [row["final_R"] for row in table]
    monotone = all(b >= a - 1e-9 for a, b in zip(finals, finals[1:]))
    with open(out / "sweep.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["K", "final_R", "r_infinity", "gap", "final_interval_mass"])
        for row in table:
            w.writerow([format(row[c], ".17g") for c in
                        ("K", "final_R", "r_infinity", "gap", "final_interval_mass")])
    with open(out / "sweep_summary.json", "w") as fh:
        json.dump({"rows": table, "final_R_increasing": monotone,
                   "failed_couplings": failures}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"swept {len(table)} coupling values; final R increasing: {monotone}")
    for msg in failures:
        print(f"sweep failure: {msg}", file=sys.stderr)
    return 0


def _try_sweep_job(job, failures):
    try:
        return _sweep_one(job)
    except Exception as exc:  # per-coupling failures are isolated
        failures.append(f"K={job[1]}: {exc}")
        return None


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    suite = args.suite
    if suite not in verify.SUITES:
        print(f"unknown suite {suite!r}; choose from {sorted(verify.SUITES)}",
              file=sys.stderr)
        return 2
    results, ok = verify.run_suite(suite)
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] criterion {r.cid:>2}  {r.name:<{width}}  {r.elapsed:7.2f}s")
        for f in r.failures:
            print(f"       - {f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = {"suite": suite, "all_passed": ok,
                   "results": [{"criterion": r.cid, "name": r.name,
                                "passed": r.passed, "failures": r.failures,
                                "elapsed_s": r.elapsed} for r in results]}
        with open(out / "verify.json", "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True, default=_json_default)
            fh.write("\n")
    return 0 if ok else 1


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# equilibrium


def cmd_equilibrium(args) -> int:
    cfg, raw = _load_config(args.config)
    g = build_frequency(cfg)
    coupling = cfg.get("coupling", 1.0)
    k_list = coupling if isinstance(coupling, list) else [coupling]
    rows = []
    for K in k_list:
        res = diag.equilibrium_R(g, float(K))
        rows.append((float(K), res))
        if res.found:
            print(f"K={K:g}: R = {res.R:.12g} (residual {res.residual:.2e}, "
                  f"bounds {'ok' if res.bound_sqrt_ok and res.bound_mass_ok else 'VIOLATED'})")
        else:
            print(f"K={K:g}: {res.message}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_bytes(raw)
        with open(out / "equilibrium.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["K", "R", "residual", "H_at_1",
                        "bound_sqrt_margin", "bound_sqrt_ok",
                        "bound_mass_margin", "bound_mass_ok"])
            for K, res in rows:
                sq_margin = res.R - res.bound_sqrt if res.found else math.nan
                ms_margin = res.R - res.bound_mass if res.found else math.nan
                w.writerow([format(K, ".17g"),
                            format(res.R, ".17g") if res.found else "no solution",
                            format(res.residual, ".17g") if res.found else "nan",
                            format(res.probe_at_one, ".17g"),
                            format(sq_margin, ".17g"), int(res.bound_sqrt_ok),
                            format(ms_margin, ".17g"), int(res.bound_mass_ok)])
    return 0


# ---------------------------------------------------------------------------
# characteristics


def cmd_characteristics(args) -> int:
    ts, Rs, phis = _load_series(args.series)
    series = kinetic.OrderSeries(ts, Rs, phis)
    cts, thetas = kinetic.characteristics(series, args.theta0, args.omega0,
                                          args.t0, args.t1, K=args.coupling)
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "path.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "theta"])
        for t, th in zip(cts, np.atleast_2d(thetas.T)[0]):
            w.writerow([format(t, ".17g"), format(float(th), ".17g")])
    print(f"wrote {out / 'path.csv'}")
    return 0


def _load_series(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError("empty series file")
        try:
            it, ir, ip = header.index("t"), header.index("R"), header.index("phi")
        except ValueError:
            raise ConfigError("series file needs t, R, phi columns") from None
        rows = [(float(r[it]), float(r[ir]), float(r[ip])) for r in reader if r]
    ts, Rs, phis = map(np.array, zip(*rows))
    return ts, Rs, phis


# ---------------------------------------------------------------------------
# entry point


def _load_config(path) -> tuple[dict, bytes]:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    raw = p.read_bytes()
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return validate_config(cfg), raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kslab",
        description="Kuramoto-Sakaguchi kinetic equation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one experiment")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_sw = sub.add_parser("sweep", help="run a coupling sweep")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--out", default=None)
    p_sw.add_argument("--threads", type=int, default=1)
    p_sw.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="run pinned verification suites")
    p_ver.add_argument("--suite", required=True)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_eq = sub.add_parser("equilibrium", help="locked-equilibrium table")
    p_eq.add_argument("--config", required=True)
    p_eq.add_argument("--out", default=None)
    p_eq.set_defaults(func=cmd_equilibrium)

    p_ch = sub.add_parser("characteristics", help="integrate one characteristic")
    p_ch.add_argument("--series", required=True,
                      help="trajectory.csv with t, R, phi columns")
    p_ch.add_argument("--coupling", type=float, required=True)
    p_ch.add_argument("--theta0", type=float, required=True)
    p_ch.add_argument("--omega0", type=float, required=True)
    p_ch.add_argument("--t0", type=float, required=True)
    p_ch.add_argument("--t1", type=float, required=True)
    p_ch.add_argument("--out", default=None)
    p_ch.set_defaults(func=cmd_characteristics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
