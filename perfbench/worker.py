"""Repetitions of a workload, in a fresh process.

    python3 worker.py --src SRC --result RESULT.json [--argv JSON --out DIR]
                      [--slice SECONDS] [--cpu-offset N] [--trace]

Times the import of `kslab.cli` (with numpy and scipy), then calls
`kslab.cli.main(argv + ["--out", DIR/call<i>])` again and again until
--slice seconds have passed (at least once), timing each call.  Right
before and right after the import it times the fixed `interpreter_loop`,
and right before and right after each call the fixed `calibrate` loop, on
the same CPU, so the run can tell how fast the host was at the time.  The
peak resident set is read after the first call, so it is that of one call
in a fresh process.  Without --argv it only imports.

The import and the first call run on CPU number --cpu-offset of the
process's affinity set, and each further call on the next one.  On a shared
host other tenants slow each CPU at different times, and a process stays
on its CPU, so moving between them lets the run's fastest call find the
quiet one.

With --trace it makes one call with spans around each layer's public
functions, micro-times `kinetic.step` and `order.global_order` on the
workload's initial state, and writes the spans next to RESULT.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path


def interpreter_loop() -> float:
    """Seconds taken by a fixed loop of pure interpreter work; it needs no import."""
    t0 = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds taken by a fixed loop of interpreter and numpy work.

    It does the same kinds of work as the workloads, so other tenants of a
    shared host slow it as they slow them.
    """
    import numpy as np
    a = np.linspace(0.0, 1.0, 16384)
    t0 = time.perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i
    for _ in range(60):
        a = np.sin(a) * 0.5 + 0.25
    return time.perf_counter() - t0


def micro_time_us(fn, *args, batches: int = 5, batch_s: float = 0.05) -> float:
    """Median time of one call over `batches` batches, in microseconds."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        elapsed = time.perf_counter() - t0
        if elapsed >= batch_s:
            break
        n *= 2
    per_call = [elapsed / n]
    for _ in range(batches - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        per_call.append((time.perf_counter() - t0) / n)
    return statistics.median(per_call) * 1e6


def kinetic_micro(cli, cfg: dict) -> dict:
    """Per-call cost of the public step and order functions on the initial state."""
    from kslab import kinetic, order
    g = cli.build_frequency(cfg)
    state = kinetic.state_from_profile(kinetic.PhaseGrid(int(cfg["n_theta"])), g,
                                       int(cfg["n_omega"]), K=float(cfg["coupling"]),
                                       profile=cli.build_profile(cfg))
    dt = kinetic.cfl_dt(state, float(cfg.get("cfl", 0.5)))
    return {"step_us": micro_time_us(kinetic.step, state, dt),
            "global_order_us": micro_time_us(order.global_order, state)}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--argv", default=None, help="JSON list of kslab arguments")
    p.add_argument("--out", default=None)
    p.add_argument("--slice", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--cpu-offset", type=int, default=0)
    args = p.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    cpus = sorted(os.sched_getaffinity(0))

    def pin(i):
        if len(cpus) > 1:
            try:
                os.sched_setaffinity(0, {cpus[(args.cpu_offset + i) % len(cpus)]})
            except OSError:
                pass    # a host that forbids it just runs the calls unpinned

    pin(0)
    loop_before = interpreter_loop()
    t0 = time.perf_counter()
    import kslab.cli as cli
    setup_s = time.perf_counter() - t0
    setup_calib_s = [loop_before, interpreter_loop()]
    if src not in Path(cli.__file__).resolve().parents:
        print(f"kslab was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    result: dict = {"setup_s": setup_s, "setup_calib_s": setup_calib_s, "calls": []}
    if args.argv is not None:
        argv = json.loads(args.argv)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        while not result["calls"] or (not tracer and time.perf_counter() - start < args.slice):
            i = len(result["calls"])
            pin(i)
            calib_before = calibrate()
            out = Path(args.out) / f"call{i}"
            t1 = time.perf_counter()
            code = cli.main(argv + ["--out", str(out)])
            wall_s = time.perf_counter() - t1
            calib_s = [calib_before, calibrate()]
            result["calls"].append({"wall_s": wall_s, "calib_s": calib_s,
                                    "exit_code": code, "out": str(out)})
            if len(result["calls"]) == 1:
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
            cfg = json.loads(Path(argv[argv.index("--config") + 1]).read_text())
            if argv[0] == "simulate" and cfg.get("model", "kinetic") == "kinetic":
                result["micro"] = kinetic_micro(cli, cfg)
            t_first = tracer.spans[0][1] if tracer.spans else 0.0
            spans = [[n, s - t_first, e - t_first, parent] for n, s, e, parent in tracer.spans]
            Path(args.result).with_name("spans.json").write_text(json.dumps(spans))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
