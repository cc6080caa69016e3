"""kslab benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kslab source tree.  The workload's inputs are drawn
from --seed and written under perfbench/work/.  Worker processes
(worker.py) each import `kslab.cli` from ./src, which is one set-up
sample, and then repeat `kslab.cli.main` calls for a few seconds; fresh
workers follow one another until --seconds have passed.  Every call is one
repetition, and its outputs are checked (workloads.check).

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians:
wall_s over the calls and setup_s over the workers, each time scaled to a
reference host speed by the calibration loops timed around it, and
peak_rss_mb over the workers.
--trace 1 spends half the time on untraced calls and half on traced ones,
one per worker, and reports the per-layer metrics as medians over the
traced calls.  The last line of standard output is the JSON result; the
lines before it, and perfbench/work/<run>/report.json, give sample counts,
quartiles, accuracy, the failure fraction and the machine block.  Exits
with code 2, printing no result, when ./src holds no kslab or no
repetition could be timed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from worker import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
DEADLINE_S = 170.0           # every run ends well inside three minutes
MIN_SETUP_SAMPLES = 5
SLICE_S = 4.0                # each worker process repeats calls for this long
# Other tenants of a shared host slow a call by up to 2x, and how busy they
# are changes from second to second and from run to run.  So each call's
# time is scaled by CALIB_REF_S / (the faster of the calibration loops timed
# on its CPU right before and right after it): wall_s is the call's time on
# a host where worker.calibrate takes CALIB_REF_S, about the fastest it took
# on a 2-vCPU Xeon host.  The faster loop, because a 12-ms loop that meets
# a burst of another tenant's work overstates how busy the host was during
# the call (see README.md).  setup_s is scaled alike, by the interpreter
# loops timed around the import, which cannot use numpy before importing it.
CALIB_REF_S = 0.0125
INTERPRETER_REF_S = 0.0105


# ---------------------------------------------------------------------------
# machine block


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return caches


def _blas() -> str:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def machine_block(tiny: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": _blas(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "working_set_bytes": {name: workloads.working_set_bytes(name, tiny)
                              for name in workloads.NAMES},
    }


# ---------------------------------------------------------------------------
# repetitions


def run_worker(proc_dir: Path, argv: list[str] | None, trace: bool, slice_s: float,
               timeout: float, cpu_offset: int = 0):
    """Run worker.py once; returns (result dict or None, error message or None)."""
    proc_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--result", str(proc_dir / "result.json"), "--slice", repr(slice_s),
           "--cpu-offset", str(cpu_offset)]
    if argv is not None:
        cmd += ["--argv", json.dumps(argv), "--out", str(proc_dir / "out")]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f}s"
    if proc.returncode != 0 or not (proc_dir / "result.json").exists():
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        return None, f"worker exit code {proc.returncode}: {' | '.join(tail)}"
    result = json.loads((proc_dir / "result.json").read_text())
    result["stderr"] = proc.stderr
    return result, None


def scaled_setup_s(result: dict, raw: list) -> float:
    raw.append([result["setup_s"], result["setup_calib_s"]])
    return result["setup_s"] * INTERPRETER_REF_S / min(result["setup_calib_s"])


def check_call(name: str, cfg: dict, call: dict, result: dict, traced: bool,
               proc_dir: Path) -> dict:
    """Gate one cli.main call; returns its repetition record."""
    rep = {"traced": traced, "wall_s": call["wall_s"], "calib_s": call["calib_s"],
           "failures": []}
    if call["exit_code"] != 0:
        tail = result["stderr"].strip().splitlines()[-3:]
        rep["failures"].append(f"kslab exit code {call['exit_code']}: {' | '.join(tail)}")
        return rep
    out = Path(call["out"])
    try:
        rep["failures"], rep["figures"] = workloads.check(name, out)
        if traced:
            spans = json.loads((proc_dir / "spans.json").read_text())
            rep["layers"] = layer_metrics(name, cfg, spans, result, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        rep["failures"].append(f"output check raised {exc!r}")
    return rep


def layer_metrics(name: str, cfg: dict, spans: list, result: dict, out: Path) -> dict:
    """Per-layer metrics of one traced repetition."""
    summary = tracing.summarize(spans)
    by_name = summary["by_name"]

    def total(span):
        return by_name.get(span, {}).get("total_s", 0.0)

    def calls(span):
        return by_name.get(span, {}).get("calls", 0)

    def per(x, n, scale):
        return x / n * scale if n else 0.0

    def size(path):
        return path.stat().st_size if path.exists() else 0

    m = {f"{layer}.self_s": s for layer, s in summary["layer_self_s"].items()}
    if cfg.get("model") == "kinetic":
        run_summary = json.loads((out / "summary.json").read_text())
        n_steps = run_summary["n_steps"]
        cells = cfg["n_omega"] * cfg["n_theta"]
        run_self = total("kinetic.run") - tracing.child_time(
            spans, "kinetic.run", "diagnostics.RecordSampler")
        micro = result["micro"]
        m.update({
            "kinetic.n_steps": n_steps,
            "kinetic.mean_dt": per(cfg["t_end"], n_steps, 1.0),
            "kinetic.max_dt": run_summary["max_dt"],
            "kinetic.run_self_s": run_self,
            "kinetic.us_per_step": per(run_self, n_steps, 1e6),
            "kinetic.ns_per_cell_step": per(run_self, n_steps * cells, 1e9),
            "kinetic.step_us": micro["step_us"],
            "kinetic.loop_overhead_us": per(run_self, n_steps, 1e6) - micro["step_us"],
            "kinetic.state_bytes": cells * 8,
            "kinetic.mass_drift_rel": run_summary["mass_drift"]["per_slice_rel"],
            "order.global_order_us": micro["global_order_us"],
        })
    else:
        m.update(dict.fromkeys(
            ("kinetic.n_steps", "kinetic.mean_dt", "kinetic.max_dt", "kinetic.run_self_s",
             "kinetic.us_per_step", "kinetic.ns_per_cell_step", "kinetic.step_us",
             "kinetic.loop_overhead_us", "kinetic.state_bytes", "kinetic.mass_drift_rel",
             "order.global_order_us"), 0))
    m["kinetic.setup_s"] = total("kinetic.state_from_profile")

    sampler = "diagnostics.RecordSampler"
    m.update({
        "diagnostics.sampler_calls": calls(sampler),
        "diagnostics.sampler_s": total(sampler),
        "diagnostics.sampler_us_per_call": per(total(sampler), calls(sampler), 1e6),
        "diagnostics.finalize_s": total("diagnostics.finalize_records"),
        "diagnostics.csv_s": total("diagnostics.records_to_csv"),
        "diagnostics.csv_bytes": size(out / "trajectory.csv"),
        "diagnostics.json_s": total("diagnostics.bound_checks_to_json"),
        "diagnostics.json_bytes": size(out / "bound_checks.json"),
        "diagnostics.equilibrium_s_per_K": per(total("diagnostics.equilibrium_R"),
                                               calls("diagnostics.equilibrium_R"), 1.0),
    })

    lpm = "frequency.locked_phasor_mean"
    m.update({
        "frequency.locked_phasor_mean_calls": calls(lpm),
        "frequency.locked_phasor_mean_us": per(total(lpm), calls(lpm), 1e6),
        "frequency.sample_s": total("frequency.sample"),
    })

    p_steps = calls("particle.particle_step")
    p_run = total("particle.run_particles")
    n_particles = cfg.get("n_particles", 0) if name == "particle-mf" else 0
    n_samples = 0
    if (out / "particles.csv").exists():
        n_samples = len((out / "particles.csv").read_text().splitlines()) - 1
    m.update({
        "particle.n_steps": p_steps,
        "particle.run_s": p_run,
        "particle.step_us": per(p_run, p_steps, 1e6),
        "particle.ns_per_particle_step": per(p_run, p_steps * n_particles, 1e9),
        "particle.csv_s": total("particle.trajectory_to_csv"),
        "particle.snapshot_bytes": n_samples * n_particles * 8,
    })
    m["traced_wall_s"] = result["calls"][0]["wall_s"]
    return m


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes: every workload finishes in seconds")
    args = p.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "kslab" / "cli.py").is_file():
        print(f"error: no kslab source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    name = args.workload
    run_dir = WORK / f"{name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    kslab_argv = workloads.prepare(name, args.seed, run_dir / "inputs", args.tiny)
    cfg = workloads.config(name, args.seed, args.tiny)
    machine = machine_block(args.tiny)
    calibration = [calibrate()]

    def remaining():
        return DEADLINE_S - (time.perf_counter() - start)

    # Warm-up: compiles bytecode and fills the file cache; not timed.
    run_worker(run_dir / "warmup", None, False, 0.0, remaining())
    shutil.rmtree(run_dir / "warmup", ignore_errors=True)

    measure_start = time.perf_counter()
    reps: list[dict] = []
    setup_samples: list[float] = []
    raw_setup: list = []            # [import seconds, interpreter loops around it]
    peak_rss: list[float] = []
    failures: list[str] = []
    untraced_until = args.seconds / 2 if args.trace else args.seconds
    phases = [(False, untraced_until)] + ([(True, args.seconds)] if args.trace else [])
    n_proc = 0
    for traced, until in phases:
        first = True
        while first or (time.perf_counter() - measure_start < until and remaining() > 0):
            first = False
            proc_dir = run_dir / f"proc{n_proc}"
            n_proc += 1
            slice_s = min(SLICE_S, until - (time.perf_counter() - measure_start))
            result, error = run_worker(proc_dir, kslab_argv, traced, slice_s, remaining(),
                                       cpu_offset=n_proc)
            if error:
                reps.append({"traced": traced, "failures": [error]})
            else:
                if not traced:
                    setup_samples.append(scaled_setup_s(result, raw_setup))
                    peak_rss.append(result["peak_rss_mb"])
                for call in result["calls"]:
                    reps.append(check_call(name, cfg, call, result, traced, proc_dir))
                if traced:
                    shutil.copy(proc_dir / "spans.json", run_dir / "spans.json")
            shutil.rmtree(proc_dir, ignore_errors=True)
    while not args.trace and len(setup_samples) < MIN_SETUP_SAMPLES and remaining() > 10:
        proc_dir = run_dir / f"setup{len(setup_samples)}"
        result, _ = run_worker(proc_dir, None, False, 0.0, remaining())
        shutil.rmtree(proc_dir, ignore_errors=True)
        if result is None:
            break
        setup_samples.append(scaled_setup_s(result, raw_setup))
    calibration.append(calibrate())
    for i, rep in enumerate(reps):
        failures += [f"call {i}: {f}" for f in rep["failures"]]

    untraced = [r for r in reps if not r["traced"] and "wall_s" in r]
    traced_reps = [r for r in reps if r["traced"] and "layers" in r]
    if not untraced or (args.trace and not traced_reps) or not setup_samples:
        print("error: no repetition could be timed", file=sys.stderr)
        for f in failures[:5]:
            print(f"  {f}", file=sys.stderr)
        return 2

    raw_wall = [r["wall_s"] for r in untraced]
    calib = [min(r["calib_s"]) for r in untraced]
    samples = {"wall_s": [w * CALIB_REF_S / c for w, c in zip(raw_wall, calib)],
               "setup_s": setup_samples,
               "peak_rss_mb": peak_rss}
    if args.trace:
        wall_untraced = statistics.median(raw_wall)
        samples = {k: [r["layers"][k] for r in traced_reps]
                   for k in traced_reps[0]["layers"]}
        samples["trace.overhead_s"] = [w - wall_untraced for w in samples.pop("traced_wall_s")]
    missing = set(units) - set(samples)
    if missing:
        print(f"error: metrics {sorted(missing)} were not measured", file=sys.stderr)
        return 2
    metrics = {k: {"value": statistics.median(samples[k]), "unit": units[k]} for k in units}

    attempted, failed = len(reps), sum(bool(r["failures"]) for r in reps)
    r_err = [r["figures"]["r_err_max"] for r in reps if "r_err_max" in r.get("figures", {})]
    report = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "machine": machine,
              "calibration_s": {"before": calibration[0], "after": calibration[1],
                                "per_call": [r["calib_s"] for r in untraced]},
              "raw_wall_s": raw_wall, "raw_setup_s": raw_setup,
              "attempted": attempted, "failed": failed, "failures": failures,
              "r_err_max": max(r_err) if r_err else None,
              "metrics": metrics, "samples": samples, "config": cfg}
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"kslab benchmark: workload {name}, seed {args.seed}, trace {args.trace}, "
          f"{args.seconds:g} s")
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"calibration_s: before {calibration[0]:.4f}, after {calibration[1]:.4f}; "
          f"around each call: fastest {min(calib):.5f}, median {statistics.median(calib):.5f} "
          f"(reference {CALIB_REF_S:g})")
    print(f"raw wall_s: fastest {min(raw_wall):.6g}, median {statistics.median(raw_wall):.6g} s "
          f"of {len(raw_wall)} untraced calls")
    for k, m in metrics.items():
        lo, hi = quartiles(samples[k])
        print(f"{k:36s} {m['value']:.6g} {m['unit']}  (median of {len(samples[k])}; "
              f"quartiles {lo:.6g} .. {hi:.6g})")
    if r_err:
        print(f"r_err_max {max(r_err):.3e} (max over {len(r_err)} calls; "
              f"tolerance {workloads.R_ERR_TOL:g})")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.3g}")
    for f in failures:
        print(f"failure: {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
