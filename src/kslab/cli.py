"""Configuration-driven experiment runner.

Subcommands: simulate, sweep, verify, equilibrium, characteristics.
Exit codes: 0 success, 1 criterion failure, 2 configuration error.

The configuration is a single JSON document; unknown keys are errors so a
typo in an inequality parameter cannot silently change an experiment.  Every
CSV and JSON output is written by ``files``.  Importing this module loads only
``files``, ``frequency`` and ``order``; each command loads the other modules
and the process pool that it calls, so ``equilibrium`` loads none of them.
The argument parser is built at the first ``main`` call of a process, and
reused by every later one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import frequency as freq
from .files import write_csv, write_json
from .order import MIN_CELLS, TIME_TOL, sample_count


# ---------------------------------------------------------------------------
# configuration parsing


#: every optional top-level field and its default; a section the user gives
#: replaces the default section whole
_DEFAULTS = {
    "model": "kinetic", "frequency": {"kind": "dirac"},
    "initial": {"preset": "cosine", "amplitude": 0.2}, "coupling": 1.0,
    "n_theta": 256, "n_omega": 8, "n_particles": 1000, "seed": 0,
    "t_end": 10.0, "sample_every": 0.1, "cfl": 0.5, "scheme": "muscl", "diagnostics": {},
}
#: the hypothesis fields; ``diagnostics.hypothesis_check`` defaults each one but R0
_HYP_KEYS = {"R0", "mu", "gamma", "kappa", "eps0", "gamma0"}
_TOP_KEYS = set(_DEFAULTS) | {"dt_particle", "hypothesis"}
#: the keys that each frequency kind and each initial preset reads
_FREQ_KEYS = {"dirac": {"kind"}, "uniform": {"kind", "halfwidth"}, "table": {"kind", "path"}}
_INIT_KEYS = {"cosine": {"preset", "amplitude", "center"},
              "von_mises": {"preset", "concentration", "center"}, "table": {"preset", "path"}}
_DIAG_KEYS = {"intervals", "lambda_interval", "gamma_plus", "gamma_minus"}
_INTERVAL_KEYS = {"kind", "parameter"}


def _require(cond, message):
    if not cond:
        raise ValueError(message)


def _object(value, allowed, where, tag=None) -> dict:
    """A copy of value, which must be a JSON object with keys from allowed;
    with a tag, value[tag] must be a key of allowed, and the keys of value
    must come from allowed[value[tag]]."""
    _require(isinstance(value, dict), f"{where} must be a JSON object, not {value!r}")
    if tag is not None:
        names, choice = list(allowed), value.get(tag)
        _require(choice in names, f"{where}.{tag} must be {', '.join(names[:-1])}, "
                 f"or {names[-1]}, not {choice!r}")
        allowed, where = allowed[choice], f"{where} ({tag} {choice})"
    unknown = set(value) - allowed
    _require(not unknown, f"unknown key(s) {sorted(unknown)} in {where}")
    return dict(value)


def _path(mapping: dict, key: str, where: str) -> str:
    """mapping[key], which must be given and be a non-empty string: an integer
    or a bool would open that file descriptor (0 is stdin)."""
    _require(key in mapping, f"{where}{key} is required")
    value = mapping[key]
    _require(isinstance(value, str) and value != "",
             f"{where}{key} must be a non-empty string, not {value!r}")
    return value


def validate_config(raw: dict) -> dict:
    """Check every field's presence and JSON type, and each range that no
    ``frequency`` builder checks.

    Returns a new config: the _DEFAULTS under the user's keys, real-valued
    fields as finite floats, dt_particle (sample_every / 5 unless given),
    initial.center of a cosine or von Mises preset (0.0 unless given), and
    the hypothesis and diagnostics sections under their own keys, intervals
    parsed ({} for no diagnostics).  A frequency kind or initial preset
    accepts only, and needs, the keys it reads: path a non-empty string, any
    other a finite number.  t_end must be a whole number of sample intervals
    that each exceed ``order.TIME_TOL`` (``order.sample_count``), dt_particle
    must exceed it too, and no two diagnostics intervals may share a label,
    which names their trajectory.csv column.
    """
    cfg = {**_DEFAULTS, **_object(raw, _TOP_KEYS, "configuration")}
    _require(cfg["model"] in ("kinetic", "particle", "both"),
             f"model must be kinetic, particle, or both, not {cfg['model']!r}")

    for section, keys, tag in (("frequency", _FREQ_KEYS, "kind"),
                               ("initial", _INIT_KEYS, "preset")):
        part = cfg[section] = _object(cfg[section], keys, section, tag)
        fields = keys[part[tag]] - {tag}
        if "center" in fields:    # the one field with a default
            part.setdefault("center", 0.0)
        for key in sorted(fields):
            part[key] = (_path if key == "path" else _real)(part, key, f"{section}.")

    if isinstance(cfg["coupling"], list):
        _require(cfg["coupling"] and all(_is_number(k) and k > 0 for k in cfg["coupling"]),
                 "a coupling list must be nonempty, each value a positive finite number")
        cfg["coupling"] = [float(k) for k in cfg["coupling"]]
    else:
        _require(_is_number(cfg["coupling"]) and cfg["coupling"] >= 0,
                 "coupling must be a nonnegative finite number")
        cfg["coupling"] = float(cfg["coupling"])

    for key, low in (("n_theta", MIN_CELLS), ("n_omega", 1),
                     ("n_particles", 1), ("seed", 0)):
        value = cfg[key]
        _require(isinstance(value, int) and not isinstance(value, bool) and value >= low,
                 f"{key} must be an integer >= {low}, not {value!r}")
    cfg.setdefault("dt_particle", _real(cfg, "sample_every") / 5.0)
    for key in ("t_end", "sample_every", "cfl", "dt_particle"):
        cfg[key] = _real(cfg, key)
    _require(cfg["t_end"] >= 0, "t_end must be nonnegative")
    sample_count(0.0, cfg["t_end"], cfg["sample_every"])    # the samples must tile t_end
    _require(0.0 < cfg["cfl"] <= 1.0, "cfl must lie in (0, 1]")
    _require(cfg["scheme"] == "muscl",
             f"scheme must be 'muscl' ('upwind' was removed), not {cfg['scheme']!r}")
    _require(cfg["dt_particle"] > 0, "dt_particle must be positive")
    _require(cfg["dt_particle"] > TIME_TOL
             and math.isfinite(cfg["sample_every"] / cfg["dt_particle"]),
             f"dt_particle {cfg['dt_particle']!r} is too small: it must exceed the time "
             f"tolerance {TIME_TOL:g} and leave sample_every / dt_particle finite")

    if cfg["diagnostics"] != {}:    # an empty section loads no diagnostics module
        dcfg = cfg["diagnostics"] = _object(cfg["diagnostics"], _DIAG_KEYS, "diagnostics")
        for key, value in dcfg.items():
            if key == "intervals":
                _require(isinstance(value, list), "diagnostics.intervals must be a JSON list")
                dcfg[key] = [_interval(iv, "diagnostics.intervals[]") for iv in value]
            else:
                dcfg[key] = _interval(value, f"diagnostics.{key}")
        ivs = dcfg.get("intervals", [])
        for i, iv in enumerate(ivs):
            for j, other in enumerate(ivs[:i]):
                _require(iv.label != other.label,
                         f"diagnostics.intervals[{j}] ({other.kind} {other.parameter!r}) and "
                         f"[{i}] ({iv.kind} {iv.parameter!r}) share the column "
                         f"mass_{iv.label}: interval labels must be unique")

    if "hypothesis" in cfg:
        h = _object(cfg["hypothesis"], _HYP_KEYS, "hypothesis")
        cfg["hypothesis"] = {key: _real(h, key, "hypothesis.") for key in h}
    return cfg


def _is_number(value) -> bool:
    """Whether value is a JSON number with a finite float value: not a bool,
    not Infinity or NaN, and no integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _real(mapping: dict, key: str, where: str = "") -> float:
    """mapping[key] as a float; it must be given and be a finite JSON number,
    so a bool, a numeric string, Infinity or NaN is a ValueError."""
    _require(key in mapping, f"{where}{key} is required")
    value = mapping[key]
    _require(_is_number(value), f"{where}{key} must be a finite number, not {value!r}")
    return float(value)


def _interval(value, where: str):
    from . import diagnostics as diag
    iv = _object(value, _INTERVAL_KEYS, where)
    try:
        _require(_is_number(iv["parameter"]), "parameter must be a number")
        return diag.Interval(iv["kind"], float(iv["parameter"]))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad interval {iv!r}: {exc}") from None


def _read_columns(path, names: tuple[str, ...]) -> list[np.ndarray]:
    """One float array per named column of a CSV file with a header row.

    Header names match stripped and case-insensitively, in any order, and
    other columns are ignored.  Blank lines are skipped.  Raises ValueError,
    naming the path, for a missing or repeated column, no data rows, a row
    shorter than the header, or a cell that is not a finite number.

    The file is UTF-8, after any byte-order mark; other bytes are a
    ValueError naming the path.  The header is read by ``csv``, the data
    rows by one ``np.loadtxt`` pass under the same quoting: a '#' starts no
    comment, every header column must be present (an ignored one reads as
    0.0) and longer rows pass.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = [h.strip().lower() for h in next((r for r in csv.reader(fh) if r), [])]
            # csv skips only empty lines; a line of spaces is a (short) row
            first = next((line for line in fh if line.strip("\r\n")), None)
        except UnicodeDecodeError as exc:    # one in a later row reaches loadtxt's below
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
        for name in names:
            if header.count(name.lower()) != 1:
                raise ValueError(f"{path}: needs one header column named {name!r} "
                                 f"(columns {', '.join(names)})")
        if first is None:
            raise ValueError(f"{path}: no data rows")
        wanted = [header.index(name.lower()) for name in names]
        try:
            table = np.loadtxt(itertools.chain([first], fh), delimiter=",",
                               quotechar='"', comments=None, ndmin=2,
                               usecols=range(len(header)),
                               converters=dict.fromkeys(set(range(len(header))) - set(wanted),
                                                        lambda cell: 0.0))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    columns = []
    for name, j in zip(names, wanted):
        col = np.ascontiguousarray(table[:, j])
        if not np.all(np.isfinite(col)):
            raise ValueError(f"{path}: column {name!r} has a non-finite value")
        columns.append(col)
    return columns


def build_frequency(cfg: dict) -> freq.FrequencyDensity:
    fcfg = cfg["frequency"]
    if fcfg["kind"] == "dirac":
        return freq.dirac_at_zero()
    if fcfg["kind"] == "uniform":
        return freq.uniform(fcfg["halfwidth"])
    return freq.from_table(*_read_columns(fcfg["path"], ("omega", "density")))


def build_profile(cfg: dict):
    icfg = cfg["initial"]
    if icfg["preset"] == "cosine":
        return freq.cosine_profile(icfg["amplitude"], icfg["center"])
    if icfg["preset"] == "von_mises":
        return freq.von_mises_profile(icfg["concentration"], icfg["center"])
    return freq.table_profile(*_read_columns(icfg["path"], ("theta", "value")))


# ---------------------------------------------------------------------------
# simulate


def _run_kinetic(cfg: dict, K: float, out: Path, g: freq.FrequencyDensity,
                 profile) -> dict:
    from . import diagnostics as diag
    from . import kinetic
    state = kinetic.state_from_profile(kinetic.PhaseGrid(cfg["n_theta"]), g,
                                       cfg["n_omega"], K=K, profile=profile)
    M = g.support
    sampler = diag.RecordSampler(cfg["diagnostics"])
    res = kinetic.run(state, cfg["t_end"], cfg["sample_every"], sampler=sampler, cfl=cfg["cfl"])
    checks = diag.finalize_records(res.records, K=K, m_bound=M)
    out.mkdir(parents=True, exist_ok=True)
    diag.records_to_csv(res.records, out / "trajectory.csv")
    diag.bound_checks_to_json(res.records, checks, out / "bound_checks.json")

    summary = diag.summarize_run(res, checks, K, M)
    if "hypothesis" in cfg:    # R0 defaults to the initial R of the run
        hyp = {"R0": res.records[0]["R"], **cfg["hypothesis"]}
        summary["hypothesis"] = diag.hypothesis_check(K=K, M=M, **hyp)
    _write_plot_script(list(res.records[0]), out / "plot.gp")
    return summary


def _write_plot_script(cols: list[str], path: Path) -> None:
    """A gnuplot script of the standard panels of the trajectory.csv columns cols."""
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
    l2_parts = [f"'trajectory.csv' using {idx['t']}:{idx['lambda']} "
                "with lines title 'Lambda'"]
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


def _run_particle(cfg: dict, K: float, out: Path, g: freq.FrequencyDensity,
                  profile) -> dict:
    from . import particle
    n = cfg["n_particles"]
    state = particle.ParticleState(*freq.draw(g, profile, n, cfg["seed"]), K=K)
    t_end, dt, sample_every = cfg["t_end"], cfg["dt_particle"], cfg["sample_every"]
    n_samples, per, dt_taken, rotation = particle.step_plan(state, t_end, dt, sample_every)
    rows = particle.run_particles(state, t_end, dt, sample_every)
    particle.trajectory_to_csv(rows, out / "particles.csv")
    _, r, phi, diameter, potential = rows[-1]
    return {"model": "particle", "K": K, "n_particles": n,
            "n_steps": n_samples * per, "dt": dt_taken, "rotation_doublings": rotation[1],
            "final_r": float(r), "final_phi": float(phi),
            "final_diameter": float(diameter), "final_potential": float(potential)}


def cmd_simulate(args) -> int:
    cfg, raw = _load_config(args.config)
    out = Path(args.out or "out")
    K, model = cfg["coupling"], cfg["model"]
    if isinstance(K, list):
        raise ValueError("simulate needs a single coupling value; use sweep for lists")
    # read and check the input tables, once, before any output exists
    g, profile = build_frequency(cfg), build_profile(cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_bytes(raw)
    summaries = {}
    if model in ("kinetic", "both"):
        summaries["kinetic"] = _run_kinetic(cfg, K, out, g, profile)
    if model in ("particle", "both"):
        summaries["particle"] = _run_particle(cfg, K, out, g, profile)
        if model == "particle":
            _write_particle_plot(out / "plot.gp")
    write_json(out / "summary.json", summaries if model == "both" else summaries[model])
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


def _sweep_one(job):
    """(K, summary, error) of one sweep coupling; a failure is returned as
    its message, so the other couplings still run."""
    cfg, K, out_dir, g, profile = job
    try:
        summary = _run_kinetic(cfg, K, Path(out_dir), g, profile)
        write_json(Path(out_dir) / "summary.json", summary)
        return K, summary, None
    except Exception as exc:  # per-coupling failures are isolated
        return K, None, f"K={K}: {exc}"


def cmd_sweep(args) -> int:
    _require(args.threads >= 1, f"--threads must be at least 1, not {args.threads}")
    cfg, raw = _load_config(args.config)
    coupling = cfg["coupling"]
    if not isinstance(coupling, list) or len(coupling) < 2:
        raise ValueError("sweep needs a coupling list with at least 2 values")
    if cfg["model"] != "kinetic":
        raise ValueError(f"sweep runs only the kinetic model, not {cfg['model']!r}")
    names = [f"K_{K:g}" for K in coupling]
    if len(set(names)) < len(names):
        raise ValueError(f"couplings {coupling} share output directory names {names}")
    out = Path(args.out or "out")
    # read and check the input tables, once, before any output exists
    g, profile = build_frequency(cfg), build_profile(cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_bytes(raw)
    M = g.support
    jobs = [(cfg, K, str(out / name), g, profile)
            for K, name in zip(coupling, names)]
    # the pool forks all its workers at the first submit, so ask for no idle ones
    threads = min(args.threads, len(jobs))
    if threads == 1:
        results = [_sweep_one(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_sweep_one, jobs))
    failures = [error for _, _, error in results if error is not None]

    from .diagnostics import r_infinity
    table = []
    for K, summary, _ in results:
        if summary is None:
            continue
        r_inf = r_infinity(M, K)
        masses = summary["final_masses"]
        first_mass = next(iter(masses.values())) if masses else math.nan
        table.append({"K": K, "final_R": summary["final_R"], "r_infinity": r_inf,
                      "gap": summary["final_R"] - r_inf,
                      "final_interval_mass": first_mass})
    finals = [row["final_R"] for row in sorted(table, key=lambda row: row["K"])]
    monotone = all(b >= a - 1e-9 for a, b in zip(finals, finals[1:]))
    columns = ["K", "final_R", "r_infinity", "gap", "final_interval_mass"]
    write_csv(out / "sweep.csv", columns, ([row[c] for c in columns] for row in table))
    write_json(out / "sweep_summary.json",
                {"rows": table, "final_R_increasing": monotone, "failed_couplings": failures})
    print(f"swept {len(table)} coupling values; final R increasing: {monotone}")
    for msg in failures:
        print(f"sweep failure: {msg}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from . import verify
    suite = args.suite
    if suite not in verify.SUITES:
        print(f"unknown suite {suite!r}; choose from {sorted(verify.SUITES)}",
              file=sys.stderr)
        return 2
    results, ok = verify.run_suite(suite)
    width = max(len(r["name"]) for r in results)
    for r in results:
        mark = "PASS" if r["passed"] else "FAIL"
        print(f"[{mark}] criterion {r['criterion']:>2}  {r['name']:<{width}}  "
              f"{r['elapsed_s']:7.2f}s")
        for f in r["failures"]:
            print(f"       - {f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "verify.json", {"suite": suite, "all_passed": ok, "results": results})
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# equilibrium


def cmd_equilibrium(args) -> int:
    cfg, raw = _load_config(args.config)
    g = build_frequency(cfg)
    coupling = cfg["coupling"]
    rows = []
    for K in coupling if isinstance(coupling, list) else [coupling]:
        res = freq.equilibrium_R(g, K)
        if res.found:
            print(f"K={K:g}: R = {res.R:.12g} (residual {res.residual:.2e}, "
                  f"bounds {'ok' if res.bound_sqrt_ok and res.bound_mass_ok else 'VIOLATED'})")
            rows.append([K, res.R, res.residual, res.probe_at_one, res.R - res.bound_sqrt,
                         int(res.bound_sqrt_ok), res.R - res.bound_mass, int(res.bound_mass_ok)])
        else:
            print(f"K={K:g}: {res.message}")
            rows.append([K, "no solution", None, res.probe_at_one, None,
                         int(res.bound_sqrt_ok), None, int(res.bound_mass_ok)])
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_bytes(raw)
        write_csv(out / "equilibrium.csv", ["K", "R", "residual", "H_at_1", "bound_sqrt_margin",
                                            "bound_sqrt_ok", "bound_mass_margin", "bound_mass_ok"],
                  rows)
    return 0


# ---------------------------------------------------------------------------
# characteristics


def cmd_characteristics(args) -> int:
    _require(math.isfinite(args.coupling) and args.coupling >= 0,
             f"--coupling must be a finite nonnegative number, not {args.coupling!r}")
    for flag in ("theta0", "omega0", "t0", "t1"):
        value = getattr(args, flag)
        _require(math.isfinite(value), f"--{flag} must be a finite number, not {value!r}")
    from . import kinetic
    series = kinetic.OrderSeries(*_read_columns(args.series, ("t", "R", "phi")))
    cts, thetas = kinetic.characteristics(series, args.theta0, args.omega0,
                                          args.t0, args.t1, K=args.coupling)
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "path.csv", ["t", "theta"], zip(cts, np.atleast_2d(thetas.T)[0]))
    print(f"wrote {out / 'path.csv'}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _load_config(path) -> tuple[dict, bytes]:
    p = Path(path)
    if not p.exists():
        raise ValueError(f"config file {path} does not exist")
    raw = p.read_bytes()
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    return validate_config(cfg), raw


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The kslab argument parser, built at the first call in a process; a
    parse leaves it unchanged, so every later ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="kslab",
        description="Kuramoto-Sakaguchi kinetic equation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("simulate", "run one experiment"), ("sweep", "run a coupling sweep"),
                       ("equilibrium", "locked-equilibrium table")):
        p_cfg = sub.add_parser(name, help=text)
        p_cfg.add_argument("--config", required=True)
        p_cfg.add_argument("--out", default=None)
    sub.choices["sweep"].add_argument("--threads", type=int, default=1)

    p_ver = sub.add_parser("verify", help="run pinned verification suites")
    p_ver.add_argument("--suite", required=True)
    p_ver.add_argument("--out", default=None)

    p_ch = sub.add_parser("characteristics", help="integrate one characteristic")
    p_ch.add_argument("--series", required=True,
                      help="trajectory.csv with t, R, phi columns")
    p_ch.add_argument("--coupling", type=float, required=True)
    p_ch.add_argument("--theta0", type=float, required=True)
    p_ch.add_argument("--omega0", type=float, required=True)
    p_ch.add_argument("--t0", type=float, required=True)
    p_ch.add_argument("--t1", type=float, required=True)
    p_ch.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the command functions are looked up at each call, not stored in the
    # cached parser, so a function patched onto this module is the one that runs
    command = {"simulate": cmd_simulate, "sweep": cmd_sweep, "verify": cmd_verify,
               "equilibrium": cmd_equilibrium,
               "characteristics": cmd_characteristics}[args.command]
    try:
        return command(args)
    except (ValueError, OSError, FloatingPointError) as exc:  # kinetic.FluxNanError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
