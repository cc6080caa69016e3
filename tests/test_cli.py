import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kslab
from kslab import cli


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


def test_simulate_smoke(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("trajectory.csv", "bound_checks.json", "summary.json",
                 "plot.gp", "config.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
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
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 < summary["positivity_margin"] < 1.0 / (2.0 * math.pi)


def test_simulate_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_simulate_rejects_small_grid(tmp_path):
    cfg = write_config(tmp_path, n_theta=8)
    assert cli.main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2


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
    summary = json.loads((out / "summary.json").read_text())
    assert summary["model"] == "particle"
    # identical oscillators synchronize: r grows
    assert summary["final_r"] > 0.2
    last = (out / "particles.csv").read_text().splitlines()[-1].split(",")
    assert last[0] == "2"
    assert [summary[k] for k in ("final_r", "final_phi", "final_diameter",
                                 "final_potential")] == [float(x) for x in last[1:]]


@pytest.mark.parametrize("model", ["particle", "both"])
def test_simulate_rejects_incommensurate_particle_t_end(tmp_path, capsys, model):
    cfg = write_config(tmp_path, model=model, n_particles=20, t_end=2.05,
                       sample_every=0.1)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "whole number of sample intervals" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_both_models(tmp_path):
    cfg = write_config(tmp_path, model="both", n_particles=200)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "particles.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
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
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["final_R_increasing"]


def test_sweep_distributed_monotone(tmp_path):
    cfg = write_config(
        tmp_path, coupling=[5.0, 10.0, 20.0, 40.0], n_theta=128,
        frequency={"kind": "uniform", "halfwidth": 0.05}, n_omega=8,
        initial={"preset": "cosine", "amplitude": 0.3}, t_end=10.0,
        sample_every=0.5)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["final_R_increasing"]
    for row in summary["rows"]:
        assert math.isfinite(row["gap"])
    assert summary["failed_couplings"] == []


def test_sweep_threaded_matches_serial(tmp_path):
    cfg = write_config(tmp_path, coupling=[1.0, 2.0], t_end=2.0)
    out1, out2 = tmp_path / "serial", tmp_path / "pool"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out2),
                     "--threads", "2"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_verify_unknown_suite(tmp_path, capsys):
    assert cli.main(["verify", "--suite", "nonsense"]) == 2


def test_verify_equilibrium_suite(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["verify", "--suite", "equilibrium", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured
    payload = json.loads((out / "verify.json").read_text())
    assert payload["all_passed"]
    assert payload["results"][0]["criterion"] == 11


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


def test_cli_import_leaves_scipy_out():
    src = str(Path(kslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, kslab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


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


def test_missing_config_is_config_error(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 2


def test_bad_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
