import concurrent.futures
import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kslab
from kslab import cli, kinetic
from kslab import diagnostics as diag
from kslab import frequency as freq


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "model": "kinetic",
        "frequency": {"kind": "dirac"},
        "initial": {"preset": "cosine", "amplitude": 0.2},
        "coupling": 1.0,
        "n_theta": 64,
        "n_omega": 1,
        "t_end": 2.0,
        "sample_every": 0.1,
        "cfl": 0.5,
        "diagnostics": {"intervals": [{"kind": "i_plus", "parameter": 0.3}],
                        "lambda_interval": {"kind": "i_minus", "parameter": 0.5}},
        "seed": 1,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_json(path):
    """A JSON output, read strictly: NaN, Infinity and -Infinity, which are not
    JSON (RFC 8259), raise."""
    def reject(constant):
        raise ValueError(f"{path}: {constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_simulate_smoke(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("trajectory.csv", "bound_checks.json", "summary.json",
                 "plot.gp", "config.json"):
        assert (out / name).exists(), name
    summary = read_json(out / "summary.json")
    assert summary["final_R"] > 0.2
    assert summary["mass_drift"]["per_slice_ok"]
    # the config echo is byte-for-byte the input document
    assert (out / "config.json").read_bytes() == cfg.read_bytes()


def test_simulate_t_column_is_exact(tmp_path):
    # sample times are i * sample_every, not a running sum of steps
    cfg = write_config(tmp_path, t_end=2.0, sample_every=0.1)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == [format(i * 0.1, ".17g") for i in range(21)]
    summary = read_json(out / "summary.json")
    assert 0.0 < summary["positivity_margin"] < 1.0 / (2.0 * math.pi)


def test_simulate_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_identical_oscillators_flag_decreasing_R(tmp_path):
    # a dirac g gets the min_step_delta_R_ok monitor; a distributed g does not
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["min_step_delta_R"] >= -1e-12 and summary["min_step_delta_R_ok"] is True
    cfg = write_config(tmp_path, frequency={"kind": "uniform", "halfwidth": 0.5}, n_omega=4)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "u")]) == 0
    assert "min_step_delta_R_ok" not in read_json(tmp_path / "u" / "summary.json")

    from kslab import diagnostics, kinetic
    st = kinetic.state_from_profile(kinetic.PhaseGrid(64), kslab.frequency.dirac_at_zero(),
                                    1, 1.0, freq.cosine_profile(0.2))
    res = kinetic.run(st, 0.2, 0.1, sampler=diagnostics.RecordSampler({}))
    checks = diagnostics.finalize_records(res.records, K=1.0, m_bound=0.0)
    for dR, ok in ((-1e-12, True), (-1.01e-12, False)):
        res.min_step_delta_R = dR
        assert diagnostics.summarize_run(res, checks, 1.0, 0.0)["min_step_delta_R_ok"] is ok


def test_simulate_rejects_small_grid(tmp_path):
    cfg = write_config(tmp_path, n_theta=8)
    assert cli.main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2


def test_simulate_rejects_sample_interval_within_time_tolerance(tmp_path, capsys):
    # the kinetic run used to take no step yet record every sample
    cfg = write_config(tmp_path, t_end=1e-11, sample_every=1e-12)
    assert cli.main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2
    assert "time tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["kinetic", "particle"])
def test_sample_interval_within_time_tolerance_leaves_no_output(tmp_path, capsys, model):
    cfg = write_config(tmp_path, model=model, t_end=1e-12, sample_every=1e-13)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "time tolerance 1e-12" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, gamma_zero=1.1)   # typo-like stray key
    assert cli.main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2


def test_unknown_nested_key_rejected(tmp_path):
    path = tmp_path / "config.json"
    cfg = json.loads(write_config(tmp_path).read_text())
    cfg["frequency"]["halfwidths"] = 0.1
    path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 2


def test_simulate_particle_model(tmp_path):
    cfg = write_config(tmp_path, model="particle", n_particles=200)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "particles.csv").exists()
    summary = read_json(out / "summary.json")
    assert summary["model"] == "particle"
    # identical oscillators synchronize: r grows
    assert summary["final_r"] > 0.2
    last = (out / "particles.csv").read_text().splitlines()[-1].split(",")
    assert last[0] == "2"
    assert [summary[k] for k in ("final_r", "final_phi", "final_diameter",
                                 "final_potential")] == [float(x) for x in last[1:]]


@pytest.mark.parametrize("dt_particle, coupling, per, undoubled", [
    (0.03, 1.0, 4, True), (0.1, 2.0, 1, False), (0.1, 5.0, 1, False)])
def test_particle_summary_reports_its_steps(tmp_path, dt_particle, coupling, per, undoubled):
    # dt_particle is shrunk to divide sample_every; the steps rotate the table
    # by d / 2^m and m doublings, m the fewest that bring dt (max|omega| + K)
    # / 2^m to at most ROTATION_MAX: 0 while dt K <= 0.1 (omega = 0 here),
    # 1 at dt K = 0.2 and 3 at 0.5
    doublings = {(0.03, 1.0): 0, (0.1, 2.0): 1, (0.1, 5.0): 3}[dt_particle, coupling]
    assert (doublings == 0) == undoubled
    cfg = write_config(tmp_path, model="particle", n_particles=50, t_end=0.5,
                       dt_particle=dt_particle, coupling=coupling)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert (summary["n_steps"], summary["dt"], summary["rotation_doublings"]) == (
        5 * per, 0.1 / per, doublings)


@pytest.mark.parametrize("model", ["particle", "both"])
def test_simulate_rejects_incommensurate_particle_t_end(tmp_path, capsys, model):
    cfg = write_config(tmp_path, model=model, n_particles=20, t_end=2.05,
                       sample_every=0.1)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "whole number of sample intervals" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, coupling", [
    ("simulate", 1.0), ("sweep", [1.0, 2.0]), ("equilibrium", 1.0)],
    ids=["simulate", "sweep", "equilibrium"])
def test_kinetic_t_end_off_the_sample_grid_is_config_error(tmp_path, capsys, command,
                                                           coupling):
    # every command that reads a config checks t_end against the sample clock
    cfg = write_config(tmp_path, coupling=coupling, t_end=0.25, sample_every=0.1)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "whole number of sample intervals" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_both_models(tmp_path):
    cfg = write_config(tmp_path, model="both", n_particles=200)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "particles.csv").exists()
    summary = read_json(out / "summary.json")
    assert {"kinetic", "particle"} <= set(summary)


def test_sweep_needs_coupling_list(tmp_path):
    cfg = write_config(tmp_path, coupling=[2.0])
    assert cli.main(["sweep", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2


def test_sweep_identical_case(tmp_path):
    # vanishing frequency spread: the final amplitude is near 1 for every K
    cfg = write_config(tmp_path, coupling=[1.0, 2.0], n_theta=64, t_end=30.0,
                       sample_every=0.5)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "K,final_R,r_infinity,gap,final_interval_mass"
    finals = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(f >= 0.99 for f in finals)
    summary = read_json(out / "sweep_summary.json")
    assert summary["final_R_increasing"]


def test_sweep_distributed_monotone(tmp_path):
    cfg = write_config(
        tmp_path, coupling=[5.0, 10.0, 20.0, 40.0], n_theta=128,
        frequency={"kind": "uniform", "halfwidth": 0.05}, n_omega=8,
        initial={"preset": "cosine", "amplitude": 0.3}, t_end=10.0,
        sample_every=0.5)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_json(out / "sweep_summary.json")
    assert summary["final_R_increasing"]
    for row in summary["rows"]:
        assert math.isfinite(row["gap"])
    assert summary["failed_couplings"] == []


def test_sweep_monotonicity_is_judged_in_coupling_order(tmp_path):
    # couplings listed in decreasing order: final R rises with K, and the
    # rows keep the order of the list
    cfg = write_config(tmp_path, coupling=[2.0, 1.0], n_theta=64, n_omega=2,
                       frequency={"kind": "uniform", "halfwidth": 0.1}, t_end=1.0)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_json(out / "sweep_summary.json")
    assert [row["K"] for row in summary["rows"]] == [2.0, 1.0]
    assert summary["rows"][0]["final_R"] > summary["rows"][1]["final_R"]
    assert summary["final_R_increasing"]
    assert [r.split(",")[0] for r in (out / "sweep.csv").read_text().splitlines()[1:]] == [
        "2", "1"]


def test_sweep_threaded_matches_serial(tmp_path):
    cfg = write_config(tmp_path, coupling=[1.0, 2.0], t_end=2.0)
    out1, out2 = tmp_path / "serial", tmp_path / "pool"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out2),
                     "--threads", "2"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_sweep_rejects_threads_below_one(tmp_path, capsys, threads):
    cfg = write_config(tmp_path, coupling=[1.0, 2.0], t_end=0.5)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_unknown_suite(tmp_path, capsys):
    assert cli.main(["verify", "--suite", "nonsense"]) == 2


def test_verify_equilibrium_suite(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["verify", "--suite", "equilibrium", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured
    payload = read_json(out / "verify.json")
    assert payload["all_passed"]
    assert payload["results"][0]["criterion"] == 11
    assert payload["results"][0]["details"]["R"] >= 0.5


def test_equilibrium_command(tmp_path, capsys):
    path = tmp_path / "eq.json"
    path.write_text(json.dumps({
        "frequency": {"kind": "uniform", "halfwidth": 1.0},
        "n_omega": 64,
        "coupling": [1.0, 5.0],
    }))
    out = tmp_path / "out"
    assert cli.main(["equilibrium", "--config", str(path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "no solution" in printed
    rows = (out / "equilibrium.csv").read_text().splitlines()
    assert rows[1].split(",")[1] == "no solution"
    r5 = float(rows[2].split(",")[1])
    assert r5 >= 0.5


def test_equilibrium_checks_only_the_frequency_ranges(tmp_path, capsys):
    # equilibrium builds no initial profile, so only frequency's ranges apply
    uniform = {"kind": "uniform", "halfwidth": 1.0}
    tables = []
    for amplitude in (0.2, 0.9):
        cfg = write_config(tmp_path, frequency=uniform, coupling=[1.0, 5.0],
                           initial={"preset": "cosine", "amplitude": amplitude})
        out = tmp_path / f"amplitude-{amplitude}"
        assert cli.main(["equilibrium", "--config", str(cfg), "--out", str(out)]) == 0
        tables.append((out / "equilibrium.csv").read_bytes())
    assert tables[0] == tables[1]
    cfg = write_config(tmp_path, frequency={"kind": "uniform", "halfwidth": -1.0})
    out = tmp_path / "negative-halfwidth"
    assert cli.main(["equilibrium", "--config", str(cfg), "--out", str(out)]) == 2
    assert "halfwidth must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_empty_coupling_list_is_config_error(tmp_path, capsys):
    # equilibrium used to exit 0 with a header-only equilibrium.csv
    cfg = write_config(tmp_path, coupling=[])
    out = tmp_path / "out"
    assert cli.main(["equilibrium", "--config", str(cfg), "--out", str(out)]) == 2
    assert "coupling list must be nonempty" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_takes_its_seed_from_the_config_only(tmp_path):
    cfg = write_config(tmp_path, model="particle")
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"),
                  "--seed", "3"])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_simulate_hypothesis_section_takes_the_documented_defaults(tmp_path):
    cfg = write_config(tmp_path, hypothesis={"kappa": 0.75})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    first = dict(zip(rows[0].split(","), rows[1].split(",")))
    params = read_json(out / "summary.json")["hypothesis"]["params"]
    assert params == {"K": 1.0, "M": 0.0, "R0": float(first["R"]), "mu": 1e-3,
                      "gamma": 1.45, "kappa": 0.75, "eps0": 0.2, "gamma0": 1.1}


def test_simulate_reports_an_undefined_hypothesis_check(tmp_path):
    # mu = -1 makes M/K + mu negative: the coupling checks are undefined
    cfg = write_config(tmp_path, hypothesis={"mu": -1.0})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    checks = read_json(out / "summary.json")["hypothesis"]["checks"]
    drift = next(c for c in checks if c["name"] == "phase_drift_budget")
    assert drift["detail"] == "undefined: needs M/K + mu >= 0"
    assert (out / "plot.gp").exists()


@pytest.mark.parametrize("concentration, code", [(2.0, 0), (-1.0, 2)])
def test_von_mises_preset_from_a_config(tmp_path, capsys, concentration, code):
    cfg = write_config(tmp_path, model="both", n_particles=50, t_end=0.5,
                       initial={"preset": "von_mises", "concentration": concentration})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == code
    if code == 0:
        assert read_json(out / "summary.json")["kinetic"]["final_R"] > 0.5
    else:
        assert "concentration must be nonnegative" in capsys.readouterr().err
        assert not out.exists()


def test_simulate_rejects_a_coupling_list(tmp_path, capsys):
    cfg = write_config(tmp_path, coupling=[1.0, 2.0])
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "use sweep for lists" in capsys.readouterr().err
    assert not out.exists()


def test_equilibrium_command_large_table(tmp_path):
    # 401 rows put ~400 knots inside the lock band
    om = [-0.5 + i / 400.0 for i in range(401)]
    table = tmp_path / "density.csv"
    table.write_text("omega,density\n" + "".join(
        f"{w!r},{1.0 - abs(w) / 0.5!r}\n" for w in om))
    path = tmp_path / "eq.json"
    path.write_text(json.dumps({"frequency": {"kind": "table", "path": str(table)},
                                "n_omega": 32, "coupling": 4.0}))
    out = tmp_path / "out"
    assert cli.main(["equilibrium", "--config", str(path), "--out", str(out)]) == 0
    header, row = (out / "equilibrium.csv").read_text().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["R"] != "no solution"
    assert float(fields["residual"]) <= 1e-10
    assert fields["bound_sqrt_ok"] == fields["bound_mass_ok"] == "1"


def src_env() -> dict:
    """The environment with kslab's source directory first on PYTHONPATH."""
    src = str(Path(kslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_scipy_out():
    code = ("import sys, kslab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


#: the kslab modules that importing kslab.cli loads, and all that equilibrium loads
CLI_IMPORT_MODULES = {"kslab", "kslab.cli", "kslab.files", "kslab.frequency", "kslab.order"}


def test_cli_import_leaves_command_only_modules_out():
    # the solver modules, verify, the process pool and numpy.polynomial load
    # with the commands that use them
    code = "import sys, kslab.cli; print(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, check=True)
    loaded = done.stdout.split()
    assert {m for m in loaded if m.split(".")[0] == "kslab"} == CLI_IMPORT_MODULES
    assert [m for m in loaded if m.split(".")[0] in ("multiprocessing", "logging")
            or m == "concurrent.futures.process"
            or m.startswith("numpy.polynomial")] == []


def test_cli_import_builds_no_parser():
    # the parser is built at the first main call of a process, not at import
    code = "import kslab.cli; print(kslab.cli.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "0"


def test_cached_parser_survives_usage_and_config_errors(tmp_path, capsys):
    # one process: an argparse usage error, a config error, then a good call,
    # whose table is byte for byte a fresh process's
    with pytest.raises(SystemExit) as exc:
        cli.main(["equilibrium", "--out", str(tmp_path / "none")])
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err
    bad = write_config(tmp_path, "bad.json", frequency={"kind": "uniform", "halfwidth": -1.0})
    assert cli.main(["equilibrium", "--config", str(bad), "--out", str(tmp_path / "bad")]) == 2
    assert "halfwidth must be positive" in capsys.readouterr().err
    good = write_config(tmp_path, "good.json", frequency={"kind": "uniform", "halfwidth": 1.0},
                        coupling=[1.0, 5.0])
    assert cli.main(["equilibrium", "--config", str(good), "--out", str(tmp_path / "a")]) == 0
    subprocess.run([sys.executable, "-m", "kslab.cli", "equilibrium", "--config", str(good),
                    "--out", str(tmp_path / "b")], env=src_env(), capture_output=True,
                   check=True)
    assert ((tmp_path / "a" / "equilibrium.csv").read_bytes()
            == (tmp_path / "b" / "equilibrium.csv").read_bytes())
    assert not (tmp_path / "none").exists() and not (tmp_path / "bad").exists()


def test_main_runs_the_command_patched_after_a_first_call(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, frequency={"kind": "uniform", "halfwidth": 1.0})
    argv = ["equilibrium", "--config", str(cfg)]
    assert cli.main(argv) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_equilibrium", lambda args: seen.append(args.config) or 7)
    assert cli.main(argv) == 7
    assert seen == [str(cfg)]


@pytest.mark.parametrize("command, leaves_out", [
    ("equilibrium", {"kslab.kinetic", "kslab.particle", "kslab.diagnostics", "kslab.verify"}),
    ("simulate-particle", {"kslab.kinetic", "kslab.diagnostics", "kslab.verify"}),
    ("simulate-kinetic", {"kslab.particle", "kslab.verify"}),
    ("characteristics", {"kslab.particle", "kslab.diagnostics", "kslab.verify"})])
def test_command_loads_only_the_modules_it_runs(tmp_path, command, leaves_out):
    # each run is a fresh process, so sys.modules after main shows what the command loaded;
    # an empty diagnostics section loads no diagnostics module
    if command == "characteristics":
        series = tmp_path / "trajectory.csv"
        series.write_text("t,R,phi\n0,0.2,0\n1,0.3,0.1\n2,0.4,0.2\n")
        argv = ["characteristics", "--series", str(series), "--coupling", "1", "--theta0",
                "2.5", "--omega0", "0", "--t0", "0", "--t1", "1.5"]
    elif command == "equilibrium":
        argv = ["equilibrium", "--config", str(write_config(
            tmp_path, frequency={"kind": "uniform", "halfwidth": 1.0}, coupling=[1.0, 5.0],
            diagnostics={}))]
    else:
        # the kinetic run keeps write_config's diagnostics section
        model = command.split("-")[1]
        extra = {"diagnostics": {}} if model == "particle" else {}
        argv = ["simulate", "--config", str(write_config(
            tmp_path, model=model, t_end=0.2, n_particles=50, **extra))]
    code = ("import sys, kslab.cli; code = kslab.cli.main(sys.argv[1:]); "
            "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'kslab'))")
    done = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path / "out")],
                          env=src_env(), capture_output=True, text=True, check=True)
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0", done.stderr
    assert CLI_IMPORT_MODULES <= set(loaded) and not leaves_out & set(loaded)
    if command == "equilibrium":
        assert set(loaded) == CLI_IMPORT_MODULES


def test_module_run_gives_no_runtime_warning(tmp_path):
    # runpy warns when importing the package has already imported kslab.cli
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "kslab.cli",
                           "verify", "--suite", "equilibrium"],
                          env=src_env(), cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_characteristics_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    path_out = tmp_path / "char"
    assert cli.main(["characteristics", "--series", str(out / "trajectory.csv"),
                     "--coupling", "1.0", "--theta0", "2.5", "--omega0", "0.0",
                     "--t0", "0.0", "--t1", "1.5", "--out", str(path_out)]) == 0
    rows = (path_out / "path.csv").read_text().splitlines()
    assert rows[0] == "t,theta"
    start = float(rows[1].split(",")[1])
    end = float(rows[-1].split(",")[1])
    assert start == pytest.approx(2.5)
    # the phase is pulled toward the average phase at 0 (mod 2pi)
    assert abs(end) < abs(start)


@pytest.mark.parametrize("flag, value", [
    ("coupling", "inf"), ("coupling", "nan"), ("coupling", "-1"), ("theta0", "nan"),
    ("omega0", "inf"), ("omega0", "-inf"), ("t0", "nan"), ("t1", "inf")])
def test_characteristics_rejects_bad_flags(tmp_path, capsys, flag, value):
    series = tmp_path / "series.csv"
    series.write_text("t,R,phi\n" + "".join(f"{0.1 * i},0.5,0.0\n" for i in range(21)))
    flags = {"coupling": "1.0", "theta0": "2.5", "omega0": "0.0", "t0": "0.0", "t1": "1.5",
             flag: value}
    out = tmp_path / "out"
    assert cli.main(["characteristics", "--series", str(series), "--out", str(out)]
                    + [f"--{name}={v}" for name, v in flags.items()]) == 2
    assert f"--{flag}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_is_config_error(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 2


def test_bad_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2


# pytest names a case whose value is a section by its place in this list
# (frequency-value14), so a retired case is replaced in place, not deleted
@pytest.mark.parametrize("key, value", [
    ("dt_particle", 0), ("dt_particle", -1.0),
    ("coupling", True), ("coupling", [2.0, True]),
    ("n_theta", 64.9), ("n_theta", 64.0), ("n_omega", True),
    ("n_particles", "100"), ("seed", 1.5),
    # a real-valued field must be a JSON number: not a bool, not a string
    ("t_end", True), ("cfl", "0.5"), ("sample_every", True), ("dt_particle", "0.02"),
    ("dt_particle", True),
    ("frequency", {"kind": "uniform", "halfwidth": "0.1"}),
    ("initial", {"preset": "cosine", "amplitude": True}),
    ("initial", {"preset": "von_mises", "concentration": "2"}),
    ("initial", {"preset": "cosine", "amplitude": 0.2, "center": False}),
    ("hypothesis", {"mu": "1e-3"}),
    ("diagnostics", {"intervals": [{"kind": "i_plus", "parameter": True}]}),
    # every section is a JSON object, intervals a list of them, a path a
    # non-empty string (0 and true would read stdin and stdout)
    ("frequency", 5), ("initial", []), ("diagnostics", []), ("hypothesis", []),
    ("diagnostics", {"intervals": 3}), ("diagnostics", {"intervals": [5]}),
    ("diagnostics", {"lambda_interval": 3}), ("initial", {"preset": "table", "path": ""}),
    ("frequency", {"kind": "table", "path": 0}),
    ("frequency", {"kind": "table", "path": True}),
    ("initial", {"preset": "table", "path": 0}),
    # a field that the preset or kind needs has no default
    ("initial", {"preset": "cosine"}), ("initial", {"preset": "von_mises"}),
    ("frequency", {"kind": "uniform"}),
    # MUSCL is the one kinetic scheme
    ("scheme", "upwind"),
    # JSON Infinity is no whole number of sample intervals
    ("t_end", math.inf),
    # nor is Infinity or NaN a coupling, a width, a centre or a concentration
    ("coupling", math.inf), ("coupling", math.nan), ("coupling", [4.0, math.inf]),
    ("frequency", {"kind": "uniform", "halfwidth": math.inf}),
    ("initial", {"preset": "cosine", "amplitude": 0.2, "center": math.nan}),
    ("initial", {"preset": "von_mises", "concentration": math.inf}),
    ("dt_particle", math.inf), ("hypothesis", {"mu": math.nan}),
    # an integer too large for a float
    pytest.param("coupling", 10 ** 400, id="coupling-10**400"),
    # a range of a frequency builder
    ("frequency", {"kind": "uniform", "halfwidth": 0}),
    ("frequency", {"kind": "uniform", "halfwidth": -0.1}),
    ("initial", {"preset": "cosine", "amplitude": 0.6}),
    ("initial", {"preset": "cosine", "amplitude": -0.6})])
def test_config_rejects_bad_values(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, **{key: value})
    command = "sweep" if key == "coupling" and isinstance(value, list) else "simulate"
    assert cli.main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert any(name in err for name in {key} | sub_keys(value)), err


def sub_keys(value) -> set:
    """The keys of every JSON object in value, at any depth."""
    if isinstance(value, dict):
        return set(value).union(*map(sub_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(sub_keys, value))
    return set()


@pytest.mark.parametrize("keys, name, builder", [
    (cli._FREQ_KEYS, "dirac", freq.dirac_at_zero), (cli._FREQ_KEYS, "uniform", freq.uniform),
    (cli._INIT_KEYS, "cosine", freq.cosine_profile),
    (cli._INIT_KEYS, "von_mises", freq.von_mises_profile)],
    ids=["dirac", "uniform", "cosine", "von_mises"])
def test_each_kind_reads_its_builders_parameters(keys, name, builder):
    # each config key is the builder parameter it is passed as, by name
    assert keys[name] - {"kind", "preset"} == set(inspect.signature(builder).parameters)


@pytest.mark.parametrize("section, value", [
    ("frequency", {"kind": "dirac", "halfwidth": 0.1}),
    ("frequency", {"kind": "dirac", "path": "density.csv"}),
    ("frequency", {"kind": "uniform", "halfwidth": 0.1, "path": "density.csv"}),
    ("frequency", {"kind": "table", "path": "density.csv", "halfwidth": 0.1}),
    ("initial", {"preset": "cosine", "amplitude": 0.2, "concentration": 2.0}),
    ("initial", {"preset": "cosine", "amplitude": 0.2, "path": "profile.csv"}),
    ("initial", {"preset": "von_mises", "concentration": 2.0, "amplitude": 0.2}),
    ("initial", {"preset": "table", "path": "profile.csv", "center": 2.0})])
def test_config_rejects_a_key_its_kind_does_not_read(tmp_path, capsys, section, value):
    # such a key would be ignored, so a typo or a stale field could not
    # change the run it seems to change
    cfg = write_config(tmp_path, **{section: value})
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "unknown key(s)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_upwind_scheme_is_reported_removed(tmp_path, capsys):
    cfg = write_config(tmp_path, scheme="upwind")
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "'upwind' was removed" in capsys.readouterr().err


#: every optional top-level field at its documented default
DEFAULTS = {
    "model": "kinetic", "frequency": {"kind": "dirac"},
    "initial": {"preset": "cosine", "amplitude": 0.2, "center": 0.0},
    "coupling": 1.0, "n_theta": 256, "n_omega": 8, "n_particles": 1000, "seed": 0,
    "t_end": 10.0, "sample_every": 0.1, "cfl": 0.5, "scheme": "muscl", "diagnostics": {},
}


@pytest.mark.parametrize("key, value", [("dt_max", 1.0), ("out_dir", "out")])
def test_removed_config_keys_are_unknown(tmp_path, capsys, key, value):
    # --out chooses the output directory, and the sample interval caps each step
    cfg = write_config(tmp_path, **{key: value})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"unknown key(s) ['{key}']" in capsys.readouterr().err
    assert not out.exists()


def test_readme_default_table_names_every_top_level_key():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("Each optional field has one default")[1].split("\n\n")[1]
    rows = [line.split("|")[1] for line in table.splitlines()[2:]]
    assert {name for row in rows for name in re.findall(r"`(\w+)`", row)} == cli._TOP_KEYS


@pytest.mark.parametrize("short, written", [
    ({"t_end": 1.0}, "trajectory.csv"),
    ({"t_end": 1.0, "model": "particle"}, "particles.csv")])
def test_defaults_match_the_fields_written_out(tmp_path, short, written):
    assert set(DEFAULTS) == set(cli._DEFAULTS)
    outs = []
    for name, cfg in (("short", short), ("long", {**DEFAULTS, **short})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        outs.append(tmp_path / name)
        assert cli.main(["simulate", "--config", str(path), "--out", str(outs[-1])]) == 0
    for file in (written, "summary.json"):
        assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes()


@pytest.mark.parametrize("model", ["particle", "both"])
def test_sweep_runs_only_the_kinetic_model(tmp_path, capsys, model):
    # sweep used to run the kinetic solver whatever the model
    cfg = write_config(tmp_path, model=model, coupling=[1.0, 2.0], t_end=0.5)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "sweep runs only the kinetic model" in capsys.readouterr().err
    assert not out.exists()


def test_zero_mass_density_table_is_config_error(tmp_path, capsys):
    # an all-zero table used to run with total mass 0 and R = 0 throughout
    table = tmp_path / "density.csv"
    table.write_text("omega,density\n-0.5,0\n0,0\n0.5,0\n")
    cfg = write_config(tmp_path, frequency={"kind": "table", "path": str(table)},
                       n_omega=4, n_theta=64)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "zero mass" in capsys.readouterr().err
    assert not out.exists()


def test_table_path_zero_does_not_read_stdin(tmp_path):
    # open(0) would read the density table from stdin and run on it
    cfg = write_config(tmp_path, frequency={"kind": "table", "path": 0}, n_omega=4, t_end=0.2)
    src = str(Path(kslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    main = "import sys, kslab.cli; sys.exit(kslab.cli.main())"
    done = subprocess.run([sys.executable, "-c", main, "simulate", "--config", str(cfg),
                           "--out", str(out)], input="omega,density\n-0.5,1\n0.5,1\n",
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert "frequency.path must be a non-empty string" in done.stderr
    assert not out.exists()


def test_sweep_rejects_couplings_sharing_a_directory(tmp_path, capsys):
    # both values format as K_1
    cfg = write_config(tmp_path, coupling=[1.0, 1.0000001])
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "K_1" in capsys.readouterr().err
    assert not out.exists()


# the three input tables: columns, data rows, and the file each run writes
TABLES = {
    "density": (["omega", "density"], [[-0.5, 0.0], [0.0, 2.0], [0.5, 0.0]],
                "equilibrium.csv"),
    "profile": (["theta", "value"], [[0.0, 0.2], [2.0, 0.1], [4.0, 0.15]],
                "trajectory.csv"),
    "series": (["t", "R", "phi"], [[0.0, 0.3, 0.1], [1.0, 0.4, 0.2], [2.0, 0.5, 0.3]],
               "path.csv"),
}


def csv_text(columns, rows):
    return "".join(",".join(map(str, line)) + "\n" for line in [columns] + rows)


def run_with_table(tmp_path, kind, text, encoding="utf-8"):
    """Run the command that reads a `kind` table from `text`, written in
    `encoding`; returns (exit code, table path, output directory)."""
    tmp_path.mkdir(exist_ok=True)
    table = tmp_path / f"{kind}.csv"
    table.write_text(text, encoding=encoding)
    out = tmp_path / "out"
    if kind == "density":
        cfg = write_config(tmp_path, frequency={"kind": "table", "path": str(table)},
                           n_omega=8, coupling=[4.0])
        argv = ["equilibrium", "--config", str(cfg)]
    elif kind == "profile":
        cfg = write_config(tmp_path, initial={"preset": "table", "path": str(table)},
                           t_end=0.5)
        argv = ["simulate", "--config", str(cfg)]
    else:
        argv = ["characteristics", "--series", str(table), "--coupling", "1.0",
                "--theta0", "2.5", "--omega0", "0.0", "--t0", "0.0", "--t1", "1.5"]
    return cli.main(argv + ["--out", str(out)]), table, out


BAD_TABLES = {
    "header only": lambda cols, rows: csv_text(cols, []),
    "short row": lambda cols, rows: csv_text(cols, [rows[0], rows[1][:-1], rows[2]]),
    "abc": lambda cols, rows: csv_text(cols, [rows[0], ["abc"] + rows[1][1:], rows[2]]),
    "nan": lambda cols, rows: csv_text(cols, [rows[0], rows[1][:-1] + ["nan"], rows[2]]),
    "missing column": lambda cols, rows: csv_text(cols[:-1], [r[:-1] for r in rows]),
    # blank lines are skipped, so a header followed by blank lines has no data rows
    "blank lines only": lambda cols, rows: csv_text(cols, []) + "\n\n",
    # a row shorter than the header fails even where it lacks only an ignored column
    "short ignored column": lambda cols, rows: csv_text(
        cols + ["note"], [rows[0] + ["x"], rows[1], rows[2] + ["x"]]),
    # a line holding only spaces is a one-field row, not a blank line
    "whitespace line": lambda cols, rows: csv_text(cols, [rows[0], [" "], rows[1], rows[2]]),
    # '#' starts no comment: the cell is not a number
    "hash in cell": lambda cols, rows: csv_text(
        cols, [rows[0], rows[1][:-1] + [f"{rows[1][-1]}#1"], rows[2]]),
}


@pytest.mark.parametrize("bad", BAD_TABLES)
@pytest.mark.parametrize("kind", TABLES)
def test_bad_input_table_is_config_error(tmp_path, capsys, kind, bad):
    columns, rows, _ = TABLES[kind]
    code, table, out = run_with_table(tmp_path, kind, BAD_TABLES[bad](columns, rows))
    assert code == 2
    assert str(table) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["header", "row", "late row"])
@pytest.mark.parametrize("kind", TABLES)
def test_non_utf8_input_table_is_config_error(tmp_path, capsys, kind, where):
    # a cp1252 e-acute in an ignored header column or cell; a late row's
    # lies past the first 8 KiB that the header and first row are read from
    columns, rows, _ = TABLES[kind]
    note = {"header": "caf\u00e9", "row": "caf\u00e9", "late row": "x" * 9000 + "\u00e9"}[where]
    cells = [[note if where != "header" and i == 1 else "x"] for i in range(len(rows))]
    text = csv_text(columns + [note if where == "header" else "note"],
                    [r + c for r, c in zip(rows, cells)])
    code, table, out = run_with_table(tmp_path, kind, text, encoding="cp1252")
    assert code == 2
    err = capsys.readouterr().err
    assert str(table) in err and "'utf-8' codec can't decode" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", TABLES)
def test_input_table_columns_match_by_name(tmp_path, kind):
    # reversed, upper-case, padded columns and an extra column read as the plain file
    columns, rows, written = TABLES[kind]
    code, _, out = run_with_table(tmp_path / "plain", kind, csv_text(columns, rows))
    assert code == 0
    shuffled = csv_text([f" {c.upper()} " for c in columns[::-1]] + ["note"],
                        [r[::-1] + ["x"] for r in rows])
    code, _, out2 = run_with_table(tmp_path / "shuffled", kind, shuffled)
    assert code == 0
    assert (out / written).read_bytes() == (out2 / written).read_bytes()


def _csv_lines(columns, rows):
    return [",".join(map(str, line)) for line in [columns] + rows]


# layouts that read as the plain table
GOOD_TABLES = {
    "crlf": lambda cols, rows: "\r\n".join(_csv_lines(cols, rows)) + "\r\n",
    "blank lines": lambda cols, rows: "\n\n" + "\n\n".join(_csv_lines(cols, rows)) + "\n",
    "quoted number": lambda cols, rows: csv_text(
        cols, [[f'"{rows[0][0]}"'] + rows[0][1:]] + rows[1:]),
    "quoted comma": lambda cols, rows: csv_text(cols + ["note"], [r + ['"a,b"'] for r in rows]),
    "longer row": lambda cols, rows: csv_text(cols, [rows[0] + [7, "x"]] + rows[1:]),
    # spreadsheets start a UTF-8 export with a byte-order mark
    "utf-8 bom": lambda cols, rows: "\ufeff" + csv_text(cols, rows),
}


@pytest.mark.parametrize("layout", GOOD_TABLES)
@pytest.mark.parametrize("kind", TABLES)
def test_input_table_layouts_read_as_the_plain_table(tmp_path, kind, layout):
    columns, rows, written = TABLES[kind]
    code, _, out = run_with_table(tmp_path / "plain", kind, csv_text(columns, rows))
    assert code == 0
    code, _, out2 = run_with_table(tmp_path / "layout", kind, GOOD_TABLES[layout](columns, rows))
    assert code == 0
    assert (out / written).read_bytes() == (out2 / written).read_bytes()


@pytest.mark.parametrize("model", ["kinetic", "particle", "both"])
@pytest.mark.parametrize("kind", ["profile", "density"])
def test_rejected_input_table_leaves_no_output(tmp_path, model, kind):
    # simulate reads its input tables before it creates the output directory
    columns, rows, _ = TABLES[kind]
    table = tmp_path / f"{kind}.csv"
    table.write_text(BAD_TABLES["nan"](columns, rows))
    key = {"profile": "initial", "density": "frequency"}[kind]
    spec = {"profile": {"preset": "table", "path": str(table)},
            "density": {"kind": "table", "path": str(table)}}[kind]
    cfg = write_config(tmp_path, model=model, t_end=0.5, n_particles=50, **{key: spec})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kind", ["profile", "density"])
def test_sweep_rejects_bad_input_table_before_output(tmp_path, capsys, kind):
    # a nan profile cell used to give exit 0 and an empty sweep.csv, a nan
    # density cell exit 2 with config.json left behind
    columns, rows, _ = TABLES[kind]
    table = tmp_path / f"{kind}.csv"
    table.write_text(BAD_TABLES["nan"](columns, rows))
    key = {"profile": "initial", "density": "frequency"}[kind]
    spec = {"profile": {"preset": "table", "path": str(table)},
            "density": {"kind": "table", "path": str(table)}}[kind]
    cfg = write_config(tmp_path, coupling=[1.0, 2.0], t_end=0.5, n_omega=4, **{key: spec})
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert str(table) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_reads_each_table_once(tmp_path, monkeypatch, threads):
    density, profile = tmp_path / "density.csv", tmp_path / "profile.csv"
    density.write_text(csv_text(*TABLES["density"][:2]))
    profile.write_text(csv_text(*TABLES["profile"][:2]))
    cfg = write_config(tmp_path, coupling=[1.0, 2.0, 3.0], t_end=0.5, n_omega=4,
                       frequency={"kind": "table", "path": str(density)},
                       initial={"preset": "table", "path": str(profile)})
    reads = []
    read = cli._read_columns

    def read_once(path, names):
        # forked pool workers inherit this reader and the reads made before them
        assert path not in reads, f"{path} read again"
        reads.append(path)
        return read(path, names)

    monkeypatch.setattr(cli, "_read_columns", read_once)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 0
    assert sorted(map(str, reads)) == sorted([str(density), str(profile)])
    assert read_json(out / "sweep_summary.json")["failed_couplings"] == []
    assert len((out / "sweep.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_isolates_a_failed_coupling(tmp_path, monkeypatch, threads):
    run = cli._run_kinetic

    def fail_at_two(cfg, K, *rest):
        if K == 2.0:
            raise RuntimeError("boom")
        return run(cfg, K, *rest)

    monkeypatch.setattr(cli, "_run_kinetic", fail_at_two)
    cfg = write_config(tmp_path, coupling=[1.0, 2.0, 3.0], t_end=0.5)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 0
    summary = read_json(out / "sweep_summary.json")
    assert summary["failed_couplings"] == ["K=2.0: boom"]
    assert [row["K"] for row in summary["rows"]] == [1.0, 3.0]


def test_sweep_pool_has_no_more_workers_than_couplings(tmp_path, monkeypatch):
    # a fake pool: the real one would fork every requested worker at once
    requested = []

    class Pool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    cfg = write_config(tmp_path, coupling=[1.0, 2.0], t_end=0.5)
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--threads", "8"]) == 0
    assert requested == [2]


def test_simulate_reads_each_table_once(tmp_path, monkeypatch):
    density, profile = tmp_path / "density.csv", tmp_path / "profile.csv"
    density.write_text(csv_text(*TABLES["density"][:2]))
    profile.write_text(csv_text(*TABLES["profile"][:2]))
    cfg = write_config(tmp_path, model="both", t_end=0.5, n_particles=50, n_omega=4,
                       frequency={"kind": "table", "path": str(density)},
                       initial={"preset": "table", "path": str(profile)})
    reads = []
    read = cli._read_columns
    monkeypatch.setattr(cli, "_read_columns",
                        lambda path, names: reads.append(path) or read(path, names))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert sorted(map(str, reads)) == sorted([str(density), str(profile)])


def test_particle_start_phases_follow_a_narrow_table_peak(tmp_path, monkeypatch, capped_rng):
    # the peak of 50 at theta = 1.0004 lies between the points of a 4,096-point
    # grid, whose maximum there is ~20; the table is drawn by inverting its
    # CDF, at n uniform draws, with no rejection bound that could cut the
    # peak and undersample [1, 1.0008]
    table = tmp_path / "profile.csv"
    table.write_text(csv_text(["theta", "value"],
                              [[0, 1], [1, 1], [1.0004, 50], [1.0008, 1], [3, 1]]))
    sample_phases, drawn = freq.sample_phases, []

    def recording(profile, n, rng):
        drawn.append(sample_phases(profile, n, rng))
        return drawn[-1]

    monkeypatch.setattr(freq, "sample_phases", recording)
    n = 100000
    monkeypatch.setattr(np.random, "default_rng", lambda seed: capped_rng(seed, n))
    cfg = write_config(tmp_path, model="particle", n_particles=n, t_end=0.0,
                       initial={"preset": "table", "path": str(table)})
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    thetas, = drawn
    # exact mass on [1, 1.0008] over the total, by trapezoids on the table
    share = 0.0204 / (2.0 * math.pi + 0.0204 - 0.0008)
    sampled = np.mean((thetas >= 1.0) & (thetas <= 1.0008))
    assert abs(sampled - share) <= 5.0 * math.sqrt(share * (1.0 - share) / n), sampled


def test_tiny_dt_particle_exits_2_before_any_output(tmp_path, capsys):
    # sample_every / dt_particle overflows: step_plan's math.ceil raised
    # OverflowError (exit 1) after the kinetic run had written its files;
    # 1e-320 is also below the time tolerance, which now rejects it first
    cfg = write_config(tmp_path, model="both", n_particles=20, dt_particle=1e-320)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "dt_particle 1e-320 is too small" in capsys.readouterr().err
    assert not out.exists()


def test_dt_particle_within_time_tolerance_exits_2_before_any_output(tmp_path, capsys):
    # 1e-300 planned 1e299 RK4 steps per sample interval: simulate wrote
    # config.json and never ended
    cfg = write_config(tmp_path, model="particle", n_particles=10, t_end=0.1,
                       dt_particle=1e-300)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert ("dt_particle 1e-300 is too small: it must exceed the time tolerance 1e-12"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    {"coupling": 1e300},
    {"frequency": {"kind": "uniform", "halfwidth": 1e300}, "n_omega": 1}])
def test_kinetic_cfl_step_within_time_tolerance_exits_2(tmp_path, capsys, overrides):
    # a CFL step of ~2e-301 falls below half an ulp of t once t passes
    # ~4.5e-286, so t stopped advancing and simulate never ended
    cfg = write_config(tmp_path, n_theta=16, t_end=0.1, **overrides)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "within the time tolerance 1e-12" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_sweep_lists_a_coupling_whose_cfl_step_is_within_time_tolerance(tmp_path):
    cfg = write_config(tmp_path, coupling=[1.0, 1e300], n_theta=16, t_end=0.1)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_json(out / "sweep_summary.json")
    assert [row["K"] for row in summary["rows"]] == [1.0]
    [failure] = summary["failed_couplings"]
    assert failure.startswith("K=1e+300: the CFL step") and "time tolerance" in failure


@pytest.mark.parametrize("model", ["kinetic", "particle"])
def test_zero_mass_initial_table_is_config_error(tmp_path, monkeypatch, capsys, model):
    # kinetic divided by the zero mass, and particle drew phases below a bound
    # of 0 forever; table_profile rejects the table before any draw
    def no_draw(*args):
        raise AssertionError("a zero-mass table reached the phase sampler")

    monkeypatch.setattr(freq, "sample_phases", no_draw)
    table = tmp_path / "profile.csv"
    table.write_text(csv_text(["theta", "value"], [[0, 0], [1, 0], [3, 0]]))
    cfg = write_config(tmp_path, model=model, n_particles=20,
                       initial={"preset": "table", "path": str(table)})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "zero mass" in capsys.readouterr().err
    assert not out.exists()


def test_flux_nan_is_reported_with_exit_2(tmp_path, monkeypatch, capsys):
    # exit 1 is what verify reserves for a failed criterion
    def failing(*args, **kwargs):
        raise kinetic.FluxNanError(0, 3, 0.5)

    monkeypatch.setattr(kinetic, "run", failing)
    cfg = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: non-finite flux at slice 0, cell 3")


def count_json_writes(monkeypatch) -> list[str]:
    """The paths json.dump writes to from now on, in order."""
    dump, written = json.dump, []

    def counting(obj, fh, **kwargs):
        written.append(fh.name)
        return dump(obj, fh, **kwargs)

    monkeypatch.setattr(json, "dump", counting)
    return written


@pytest.mark.parametrize("model", ["kinetic", "particle", "both"])
def test_simulate_writes_summary_once(tmp_path, monkeypatch, model):
    # a "both" run wrote a kinetic summary first and then overwrote it
    written = count_json_writes(monkeypatch)
    cfg = write_config(tmp_path, model=model, n_particles=50, t_end=0.5)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert written.count(str(out / "summary.json")) == 1
    summary = read_json(out / "summary.json")
    if model == "both":
        assert set(summary) == {"kinetic", "particle"}
    else:
        assert summary["model"] == model


def test_sweep_writes_each_summary_once(tmp_path, monkeypatch):
    written = count_json_writes(monkeypatch)
    cfg = write_config(tmp_path, coupling=[1.0, 2.0], t_end=0.5)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(w for w in written if w.endswith("summary.json")) == [
        str(out / "K_1" / "summary.json"), str(out / "K_2" / "summary.json"),
        str(out / "sweep_summary.json")]


# ---------------------------------------------------------------------------
# the cell format of every CSV output


@pytest.mark.parametrize("fields", [
    {"frequency": {"kind": "uniform", "halfwidth": 1.0}, "coupling": [4.0, math.inf]},
    {"frequency": {"kind": "uniform", "halfwidth": math.inf}, "coupling": 4.0}])
def test_equilibrium_rejects_non_finite_numbers(tmp_path, capsys, fields):
    # each used to exit 0, with a row of nan or with H(1) = nan
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(fields))
    out = tmp_path / "out"
    assert cli.main(["equilibrium", "--config", str(path), "--out", str(out)]) == 2
    assert "finite number" in capsys.readouterr().err
    assert not out.exists()


def test_equilibrium_csv_cells(tmp_path):
    path = tmp_path / "eq.json"
    path.write_text(json.dumps({"frequency": {"kind": "uniform", "halfwidth": 1.0},
                                "n_omega": 64, "coupling": [1.0, 5.0]}))
    out = tmp_path / "out"
    assert cli.main(["equilibrium", "--config", str(path), "--out", str(out)]) == 0
    header, none, found = (out / "equilibrium.csv").read_text().splitlines()
    assert header == ("K,R,residual,H_at_1,bound_sqrt_margin,bound_sqrt_ok,"
                      "bound_mass_margin,bound_mass_ok")
    g = cli.build_frequency(cli.validate_config(json.loads(path.read_text())))
    res = freq.equilibrium_R(g, 1.0)
    assert none == f"1,no solution,nan,{res.probe_at_one:.17g},nan,0,nan,0"
    res = freq.equilibrium_R(g, 5.0)
    assert found.split(",") == [
        format(x, ".17g") for x in (5.0, res.R, res.residual, res.probe_at_one,
                                    res.R - res.bound_sqrt)] + ["1"] + [
        format(res.R - res.bound_mass, ".17g"), "1"]


@pytest.mark.parametrize("amplitude, defined", [(0.2, "1"), (0.0, "0")])
def test_trajectory_csv_cells(tmp_path, amplitude, defined):
    cfg = write_config(tmp_path, initial={"preset": "cosine", "amplitude": amplitude},
                       t_end=0.5)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    header, *rows = (out / "trajectory.csv").read_text().splitlines()
    col = {name: i for i, name in enumerate(header.split(","))}
    rows = [r.split(",") for r in rows]
    # the endpoints have no central difference; an undefined phase has no phidot
    for name in ("rdot_measured", "phidot_measured"):
        assert rows[0][col[name]] == rows[-1][col[name]] == "nan"
    assert rows[1][col["rdot_measured"]] != "nan"
    assert (rows[1][col["phidot_measured"]] == "nan") == (defined == "0")
    assert {r[col["phi_defined"]] for r in rows} == {defined}
    assert all(len(r) == len(col) for r in rows)


def test_trajectory_rows_keep_their_columns_without_a_phase(tmp_path):
    # uncoupled spread frequencies drive R below TOL_R at t = 163; the rows from
    # there on used to drop their gamma_plus cells, so characteristics could
    # not read the file
    cfg = write_config(tmp_path, frequency={"kind": "uniform", "halfwidth": 5.0},
                       coupling=0.0, n_theta=16, t_end=260.0, sample_every=1.0,
                       diagnostics={"intervals": [{"kind": "i_plus", "parameter": 0.5}],
                                    "gamma_plus": {"kind": "i_plus", "parameter": 0.5}})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    header, *rows = (out / "trajectory.csv").read_text().splitlines()
    columns = header.split(",")
    rows = [r.split(",") for r in rows]
    assert len(rows) == 261 and all(len(r) == len(columns) for r in rows)
    undefined = [r for r in rows if r[columns.index("phi_defined")] == "0"]
    assert undefined and all(r[columns.index(c)] == "nan" for r in undefined
                             for c in columns if c.startswith(("mass_", "gamma_plus_")))
    assert cli.main(["characteristics", "--series", str(out / "trajectory.csv"),
                     "--coupling", "0", "--theta0", "0.5", "--omega0", "0",
                     "--t0", "1", "--t1", "200", "--out", str(tmp_path / "ch")]) == 0


#: uncoupled spread frequencies: R falls below TOL_R at t = 163, and from
#: there on the phase comes and goes
UNCOUPLED = dict(frequency={"kind": "uniform", "halfwidth": 5.0}, coupling=0.0, n_theta=16,
                 t_end=260.0, sample_every=1.0,
                 diagnostics={"intervals": [{"kind": "i_plus", "parameter": 0.5}],
                              "gamma_plus": {"kind": "i_plus", "parameter": 0.5}})


def test_a_phaseless_neighbour_gives_no_measured_phidot(tmp_path):
    # rows t = 162, 165 and 172 used to read a phidot of about +-pi/2, a central
    # difference against the phi that a phaseless neighbour carries
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(write_config(tmp_path, **UNCOUPLED)),
                     "--out", str(out)]) == 0
    header, *rows = (out / "trajectory.csv").read_text().splitlines()
    columns = header.split(",")
    defined = [r.split(",")[columns.index("phi_defined")] == "1" for r in rows]
    measured = [r.split(",")[columns.index("phidot_measured")] != "nan" for r in rows]
    checked = ["phidot_bound" in c["checks"] for c in read_json(out / "bound_checks.json")]
    assert not all(defined)
    for i in range(1, len(rows) - 1):
        assert measured[i] == checked[i] == all(defined[i - 1:i + 2]), i


@pytest.mark.parametrize("command, overrides, output, read", [
    ("sweep", {"coupling": [1.0, 2.0], "t_end": 0.5, "diagnostics": {}}, "sweep_summary.json",
     lambda s: [r["final_interval_mass"] for r in s["rows"]]),
    ("simulate", {"hypothesis": {"mu": -1.0}}, "summary.json",
     lambda s: [c["margin"] for c in s["hypothesis"]["checks"]
                if c["detail"].startswith("undefined")]),
    ("simulate", UNCOUPLED, "summary.json", lambda s: list(s["final_masses"].values())),
], ids=["sweep-no-intervals", "undefined-hypothesis-check", "phaseless-final-sample"])
def test_a_non_finite_value_is_written_as_null(tmp_path, command, overrides, output, read):
    # each used to be written as a bare NaN or -Infinity, which no RFC 8259 reader takes
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(write_config(tmp_path, **overrides)),
                     "--out", str(out)]) == 0
    values = read(read_json(out / output))
    assert values and all(v is None for v in values)


@pytest.mark.parametrize("second", [0.2000001, 0.2])
def test_simulate_rejects_intervals_sharing_a_label(tmp_path, capsys, second):
    # both used to write one mass_i_plus_0.2 column and one final_masses entry
    ivs = [{"kind": "i_plus", "parameter": 0.2}, {"kind": "l_plus", "parameter": 1.0},
           {"kind": "i_plus", "parameter": second}]
    cfg = write_config(tmp_path, diagnostics={"intervals": ivs})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"intervals[0] (i_plus 0.2) and [2] (i_plus {second!r})" in err
    assert "interval labels must be unique" in err
    assert not out.exists()


def assert_17g_cells(rows, values):
    """Each cell is the 17-significant-digit form of its value and reads back
    as exactly that value."""
    for row, want in zip(rows, values, strict=True):
        assert row == [format(x, ".17g") for x in want]
        assert [float(c) for c in row] == [float(x) for x in want]


def test_sweep_csv_cells_round_trip(tmp_path):
    cfg = write_config(tmp_path, coupling=[1.0, 2.5, 4.0], t_end=0.5,
                       frequency={"kind": "uniform", "halfwidth": 0.1}, n_omega=4)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    columns = header.split(",")
    table = read_json(out / "sweep_summary.json")["rows"]
    assert_17g_cells([r.split(",") for r in rows], [[t[c] for c in columns] for t in table])


@pytest.mark.parametrize("t0, t1", [("0.0", "1.5"), ("1.7", "0.2")])
def test_path_csv_cells_round_trip(tmp_path, t0, t1):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    series = out / "trajectory.csv"
    assert cli.main(["characteristics", "--series", str(series), "--coupling", "1.0",
                     "--theta0", "2.5", "--omega0", "0.1", "--t0", t0, "--t1", t1,
                     "--out", str(tmp_path / "char")]) == 0
    header, *rows = (tmp_path / "char" / "path.csv").read_text().splitlines()
    assert header == "t,theta"
    ts, thetas = kinetic.characteristics(
        kinetic.OrderSeries(*cli._read_columns(series, ("t", "R", "phi"))),
        2.5, 0.1, float(t0), float(t1), K=1.0)
    assert_17g_cells([r.split(",") for r in rows], zip(ts, thetas))


@pytest.mark.parametrize("theta", [2.0 * math.pi, -1e-17], ids=["2pi", "below-0"])
@pytest.mark.parametrize("value", [0.2, 0.3], ids=["agrees", "differs"])
def test_profile_table_gives_one_value_per_angle(tmp_path, capsys, theta, value):
    # both thetas are a second row at theta = 0 (-1e-17 mod 2 pi rounds to 2 pi): a
    # different value there used to make the profile jump, argsort's order of equal
    # keys choosing which value won
    columns, rows, _ = TABLES["profile"]
    codes = {}
    for name, extra in (("open", []), ("closed", [[theta, value]])):
        table = tmp_path / f"{name}.csv"
        table.write_text(csv_text(columns, rows + extra))
        cfg = write_config(tmp_path, f"{name}.json", model="both", t_end=0.5, n_particles=50,
                           initial={"preset": "table", "path": str(table)})
        codes[name] = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)])
    if value != rows[0][1]:
        assert codes == {"open": 0, "closed": 2}
        assert "two values at theta = " in capsys.readouterr().err
        assert not (tmp_path / "closed").exists()
        return
    assert codes == {"open": 0, "closed": 0}
    for file in ("trajectory.csv", "particles.csv", "summary.json"):
        assert (tmp_path / "open" / file).read_bytes() == (tmp_path / "closed" / file).read_bytes()


#: the pinned runs of ``verify`` that a config expresses (run1 and run12 start
#: from a profile or density no config gives)
PINNED_CONFIGS = {
    "run2": dict(n_theta=1024, n_omega=1, coupling=1.0, t_end=40.0, sample_every=0.05,
                 diagnostics={"intervals": [{"kind": kind, "parameter": delta}
                                            for delta in (0.2, 0.5)
                                            for kind in ("i_plus", "i_minus")],
                              "lambda_interval": {"kind": "i_minus", "parameter": 0.5}}),
    "run13": dict(frequency={"kind": "uniform", "halfwidth": 0.01}, n_theta=1024, n_omega=8,
                  coupling=1.2 * (0.01 / diag.EPS0) * (1.0 + 1.0 / diag.EPS0),
                  initial={"preset": "von_mises", "concentration": 30.0},
                  t_end=4.0, sample_every=0.02,
                  diagnostics={"intervals": [{"kind": "l_plus", "parameter": diag.GAMMA0}],
                               "gamma_plus": {"kind": "l_plus", "parameter": diag.GAMMA0}}),
}


@pytest.mark.parametrize("name", PINNED_CONFIGS)
def test_pinned_run_is_what_simulate_writes(tmp_path, name):
    # the criteria read the rows and summary that simulate writes, not a copy of its code
    from kslab import verify
    from kslab.files import write_json
    run = verify.RunCache().run(name)
    diag.records_to_csv(run.result.records, tmp_path / "trajectory.csv")
    write_json(tmp_path / "summary.json", run.summary)
    cfg = write_config(tmp_path, **PINNED_CONFIGS[name])
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    for file in ("trajectory.csv", "summary.json"):
        assert (tmp_path / file).read_bytes() == (tmp_path / "out" / file).read_bytes(), file
