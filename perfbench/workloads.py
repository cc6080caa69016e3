"""The three benchmark workloads: their inputs, drawn from a seed, and their
correctness gates.

Each workload is one `kslab` command line.  `prepare` writes the config JSON
and any CSV inputs into a directory and returns the argument list for
`kslab.cli.main`; `check` reads what the command wrote and returns the
list of failed gates plus the accuracy figures it measured.

The seed draws only the initial centre phase and the particle sample, so
the work done per run does not depend on it.  README.md in this directory
says why each workload was chosen.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

TWO_PI = 2.0 * math.pi

NAMES = ("kinetic-oa", "particle-mf", "equilibrium-table")

# The tolerances a run must meet.  Mass drift gates are the ones
# `summary.json` already states; R_ERR_TOL sits 100x above the ~1e-6 the
# seed code reaches on kinetic-oa, so only a real loss of accuracy trips it.
SLICE_DRIFT_TOL = 1e-12
TOTAL_DRIFT_TOL = 1e-10
R_ERR_TOL = 1e-4
RESIDUAL_TOL = 1e-10

OA_R0 = 0.3
OA_COUPLING = 2.0
OA_TABLE_ROWS = 4096

# Full sizes, and the tiny ones the smoke test runs in seconds.  Every
# workload's per-step working set stays inside a 2 MiB L2: on a shared host
# larger ones swing 1.5-2x with other tenants' load (see README.md).
SIZES = {
    False: {"oa_t_end": 0.25, "particle_t_end": 0.5,
            "eq_rows": 5, "eq_couplings": [4.0]},
    True: {"oa_t_end": 0.02, "particle_t_end": 0.1,
           "eq_rows": 3, "eq_couplings": [4.0]},
}


def _centre(seed: int) -> float:
    return random.Random(seed).uniform(0.0, TWO_PI)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([format(x, ".17g") for x in row] for row in rows)


def wrapped_cauchy(theta: float, r0: float, centre: float) -> float:
    """Density of the wrapped Cauchy law with first moment r0 e^{i centre}."""
    return (1.0 - r0 * r0) / (TWO_PI * (1.0 + r0 * r0 - 2.0 * r0 * math.cos(theta - centre)))


def oa_order(t: float, r0: float = OA_R0, K: float = OA_COUPLING) -> float:
    """Exact R(t) for identical oscillators on the Ott-Antonsen manifold:
    R^2 = R0^2 e^{Kt} / (1 - R0^2 + R0^2 e^{Kt})."""
    e = r0 * r0 * math.exp(K * t)
    return math.sqrt(e / (1.0 - r0 * r0 + e))


def config(name: str, seed: int, tiny: bool = False) -> dict:
    """The config document of a workload; `prepare` fills in input paths."""
    size = SIZES[tiny]
    centre = _centre(seed)
    if name == "kinetic-oa":
        return {
            "model": "kinetic",
            "frequency": {"kind": "dirac"},
            "initial": {"preset": "table", "path": "profile.csv"},
            "coupling": OA_COUPLING, "n_theta": 4096, "n_omega": 1,
            "t_end": size["oa_t_end"], "sample_every": 0.01, "cfl": 0.5,
            "diagnostics": {
                "intervals": [{"kind": k, "parameter": p}
                              for p in (0.2, 0.5) for k in ("i_plus", "i_minus")],
                "lambda_interval": {"kind": "i_minus", "parameter": 0.5}},
        }
    if name == "particle-mf":
        return {
            "model": "particle",
            "frequency": {"kind": "uniform", "halfwidth": 0.1},
            "initial": {"preset": "cosine", "amplitude": 0.2, "center": centre},
            "coupling": 2.0, "n_particles": 5000, "dt_particle": 0.01,
            "t_end": size["particle_t_end"], "sample_every": 0.05, "seed": seed,
        }
    if name == "equilibrium-table":
        return {
            "frequency": {"kind": "table", "path": "density.csv"},
            "n_omega": 32,
            "coupling": size["eq_couplings"],
        }
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def prepare(name: str, seed: int, directory: Path, tiny: bool = False) -> list[str]:
    """Write the workload's inputs into `directory`; return the argv for
    `kslab.cli.main`, to which the caller appends `--out DIR`."""
    directory.mkdir(parents=True, exist_ok=True)
    cfg = config(name, seed, tiny)
    if name == "kinetic-oa":
        centre = _centre(seed)
        thetas = [TWO_PI * i / OA_TABLE_ROWS for i in range(OA_TABLE_ROWS)]
        _write_csv(directory / "profile.csv", ["theta", "value"],
                   [(th, wrapped_cauchy(th, OA_R0, centre)) for th in thetas])
        cfg["initial"]["path"] = str(directory / "profile.csv")
    if name == "equilibrium-table":
        n = SIZES[tiny]["eq_rows"]
        omegas = [-0.5 + i / (n - 1) for i in range(n)]
        _write_csv(directory / "density.csv", ["omega", "density"],
                   [(om, 1.0 - abs(om) / 0.5) for om in omegas])
        cfg["frequency"]["path"] = str(directory / "density.csv")
    (directory / "config.json").write_text(json.dumps(cfg, indent=1) + "\n")
    command = "equilibrium" if name == "equilibrium-table" else "simulate"
    return [command, "--config", str(directory / "config.json")]


def _read_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [r[i] for r in rows[1:]] for i, name in enumerate(rows[0])}


def check(name: str, out: Path) -> tuple[list[str], dict]:
    """Gate the outputs of one run.  Returns (failures, accuracy figures)."""
    failures: list[str] = []
    figures: dict = {}
    if name == "kinetic-oa":
        drift = json.loads((out / "summary.json").read_text())["mass_drift"]
        if not drift["per_slice_rel"] <= SLICE_DRIFT_TOL:
            failures.append(f"per-slice mass drift {drift['per_slice_rel']:.3g} > {SLICE_DRIFT_TOL:g}")
        if not drift["total"] <= TOTAL_DRIFT_TOL:
            failures.append(f"total mass drift {drift['total']:.3g} > {TOTAL_DRIFT_TOL:g}")
    if name == "kinetic-oa":
        cols = _read_columns(out / "trajectory.csv")
        err = max(abs(float(R) - oa_order(float(t))) for t, R in zip(cols["t"], cols["R"]))
        figures["r_err_max"] = err
        if not err <= R_ERR_TOL:
            failures.append(f"r_err_max {err:.3g} > {R_ERR_TOL:g}")
    if name == "particle-mf":
        v = [float(x) for x in _read_columns(out / "particles.csv")["V_p"]]
        rises = [b - a for a, b in zip(v, v[1:]) if b > a]
        if len(v) < 2 or rises:
            failures.append(f"V_p rose {len(rises)} times between samples "
                            f"(of {len(v)} samples)")
    if name == "equilibrium-table":
        cols = _read_columns(out / "equilibrium.csv")
        for i, K in enumerate(cols["K"]):
            if cols["R"][i] == "no solution":
                failures.append(f"K={K}: no equilibrium found")
                continue
            if not float(cols["residual"][i]) <= RESIDUAL_TOL:
                failures.append(f"K={K}: residual {cols['residual'][i]} > {RESIDUAL_TOL:g}")
            if cols["bound_sqrt_ok"][i] != "1" or cols["bound_mass_ok"][i] != "1":
                failures.append(f"K={K}: an equilibrium lower bound is violated")
        if not cols["K"]:
            failures.append("equilibrium.csv has no rows")
    return failures, figures


def working_set_bytes(name: str, tiny: bool = False) -> dict:
    """Computed sizes of the arrays each workload keeps live (no cache model)."""
    cfg = config(name, 0, tiny)
    if cfg.get("model") == "kinetic":
        state = cfg["n_omega"] * cfg["n_theta"] * 8
        return {"state_bytes": state}
    if cfg.get("model") == "particle":
        n = cfg["n_particles"]
        samples = int(round(cfg["t_end"] / cfg["sample_every"])) + 1
        return {"state_bytes": 2 * n * 8, "snapshot_bytes": samples * n * 8}
    return {"table_bytes": SIZES[tiny]["eq_rows"] * 2 * 8}
