#!/usr/bin/env python3
"""Repository benchmark: push-button, adaptation and service workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload naca0012 --seed 1 --seconds 35 --trace 0

``--trace 0`` times the workload untraced and reports every end-to-end
metric; ``--trace 1`` runs it untraced for half the time, then runs the
same number of operations again with the layer spans installed, and
reports every per-layer metric plus the tracing overhead.  Every
operation's output is checked; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
non-zero on any failed check.  A result file with the machine, the
informational records and (traced) a Chrome trace go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("triangles_per_s", "1/s"),
    ("time_to_target_s", "s"), ("dof_at_target", "count"),
    ("req_per_s", "1/s"), ("latency_p50_s", "s"), ("latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]
#: fresh processes timed from start to ready; setup_s is their median.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60.0


def import_program() -> None:
    """Put this checkout's ``src`` first on the path, or refuse to run."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}/repro")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


def machine() -> Dict[str, object]:
    import numpy

    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def peak_rss_mb() -> float:
    """This process plus its live multiprocessing workers."""
    return _hwm_mb(os.getpid()) + sum(
        _hwm_mb(p.pid) for p in multiprocessing.active_children())


def measure_setup(args) -> List[float]:
    """Seconds from process start to ready, for fresh probe processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - t0
            _out, err = proc.communicate()
        finally:
            watchdog.cancel()
        if not ready or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}):\n"
                               f"{err}")
        samples.append(elapsed)
    return samples


def run_ops(wl, seconds: float, *, max_ops: Optional[int] = None,
            tracer=None) -> Tuple[List[dict], int, int]:
    """Operations while the next one fits in ``seconds`` (or ``max_ops``).

    Each output is checked after its operation, outside the timing.
    Returns the records of the successful operations plus the attempted
    and failed counts.
    """
    records, attempted, failed = [], 0, 0
    t_start = time.perf_counter()
    index = 0
    while True:
        gc.collect()  # every operation starts from a collected heap
        try:
            if tracer is None:
                rec = wl.op(index)
            else:
                with tracer.span(f"op.{wl.name}") as root:
                    tracer.root = root
                    try:
                        rec = wl.op(index)
                    finally:
                        tracer.root = None
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"operation {index} failed: {exc!r}", file=sys.stderr)
            attempted += wl.op_size
            failed += wl.op_size
        else:
            a, f = wl.check(rec)
            attempted += a
            failed += f
            if not f:
                records.append(rec)
        index += 1
        elapsed = time.perf_counter() - t_start
        if max_ops is not None:
            if index >= max_ops:
                break
        elif elapsed + elapsed / index > seconds:
            break  # the next operation would overrun the run
    return records, attempted, failed


def untraced(wl, args, setup: List[float]) -> Tuple[Dict[str, float], int, int]:
    records, attempted, failed = run_ops(wl, args.seconds)
    metrics = {"setup_s": statistics.median(setup),
               "peak_rss_mb": peak_rss_mb()}
    if records:
        metrics.update(wl.end_to_end(records))
    wl.info["op_seconds"] = [r["seconds"] for r in records]
    return metrics, attempted, failed


def traced(wl, args) -> Tuple[Dict[str, float], int, int]:
    from repro.runtime import counters

    from perfbench.layers import LayerProbe
    from perfbench.tracer import Tracer

    plain, attempted, failed = run_ops(wl, args.seconds / 2.0)
    n_ops = max(len(plain), 1)
    tracer = Tracer()
    probe = LayerProbe(tracer)
    wl.install(probe)
    wl.tracer = tracer
    before = wl.service_snapshot()
    # The service keeps its own sink; the serial workloads get one here,
    # the parent the per-layer sinks merge back into.
    outer = counters.Counters()
    sink = (contextlib.nullcontext() if before is not None
            else counters.use_counters(outer))
    t0 = time.perf_counter()
    try:
        with sink:
            traced_recs, a, f = run_ops(wl, 0.0, max_ops=n_ops,
                                        tracer=tracer)
    finally:
        tracer.restore()
        wl.tracer = None
    attempted += a
    failed += f
    delta = wl.service_delta(before, n_ops) if before is not None else None
    spans = tracer.finished()
    metrics = probe.metrics(spans, n_ops, delta)
    roots = {s.sid for s in spans if s.name == f"op.{wl.name}"}
    selfs = tracer.self_times(spans)
    metrics["trace.uncovered_s"] = sum(selfs[r] for r in roots) / n_ops
    metrics["trace.self_sum_s"] = sum(
        v for sid, v in selfs.items() if sid not in roots) / n_ops
    metrics["trace.overhead_s"] = (
        sum(r["seconds"] for r in traced_recs)
        - sum(r["seconds"] for r in plain[:len(traced_recs)])) / n_ops
    # Every exact escalation the program absorbed, and the part the
    # per-layer sinks attributed: equal when the split is complete.
    wl.info["exact_escalations"] = {
        "total": outer.kernel.orient_exact + outer.kernel.incircle_exact,
        **{layer: k.orient_exact + k.incircle_exact
           for layer, k in probe.kernel.items()}}
    wl.info["ops"] = len(traced_recs)
    wl.info["op_wall_s"] = sum(s.duration for s in spans
                               if s.sid in roots) / n_ops
    wl.info["trace_file"] = str(trace_path(args).relative_to(ROOT))
    tracer.write_chrome(str(trace_path(args)), spans, t0,
                        {"workload": wl.name, "seed": args.seed})
    return metrics, attempted, failed


def trace_path(args) -> Path:
    return OUT / f"trace-{args.workload}-seed{args.seed}.json"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["naca0012", "three_element", "adapt_shear",
                            "service_mix"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, one operation (the benchmark's tests)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    OUT.mkdir(parents=True, exist_ok=True)
    from perfbench import workloads

    wl = workloads.make(args.workload, args.seed, args.tiny)
    if args.tiny:
        args.seconds = 0.0  # one operation per pass
    setup = [] if args.trace or args.setup_probe else measure_setup(args)
    try:
        wl.prepare()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        metrics, attempted, failed = (traced(wl, args) if args.trace
                                      else untraced(wl, args, setup))
    finally:
        wl.close()

    from perfbench.layers import PER_LAYER

    catalogue = PER_LAYER if args.trace else END_TO_END
    missing = [n for n, _u in catalogue if n not in metrics]
    correct = failed == 0 and attempted > 0 and not missing
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in catalogue if n in metrics},
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "machine": machine(), "setup_samples_s": setup,
        "failed_frac": failed / attempted if attempted else 1.0,
        "info": wl.info, **result,
    }
    out_file = OUT / (f"result-{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"machine: {json.dumps(record['machine'])}")
    for n, u in catalogue:
        if n in metrics:
            print(f"  {n:<36} {metrics[n]:>16.6g} {u}")
    for key in ("hit_share", "latency_tail"):
        if key in wl.info:
            print(f"{key}: {wl.info[key]}")
    print(f"failed_frac: {record['failed_frac']:.6g} "
          f"({failed} of {attempted}); missing: {missing or 'none'}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
