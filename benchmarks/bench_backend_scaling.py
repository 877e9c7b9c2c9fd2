"""Backend scaling benchmark: serial vs threads vs processes.

The tentpole claim of the executor layer is that the ``processes``
backend delivers real wall-clock speedup for the paper's headline
workload — independent Ruppert refinement of decoupled subdomains —
where the ``threads`` backend cannot (the GIL serializes pure-Python
refinement; it models the runtime, not the hardware).

The full case is a NACA 0012 push-button mesh tuned so no single
subdomain dominates (near-body ~22% of refinement work, largest
inviscid subdomain ~12%): ≥50k triangles across 32 decoupled
subdomains.  Each backend refines the *identical* subdomain set, so the
triangle counts must agree exactly — measured here as a parity check.

Acceptance gate: ``processes`` at 4 workers must beat ``serial`` by
>= 1.8x.  The gate is only *enforced* when the machine actually has
>= 4 usable cores (``os.sched_getaffinity``) — on smaller machines the
numbers are still measured and reported, but a speedup no hardware
could deliver is not demanded.

Two further scenarios ride along:

- **dispatch overhead** — repeated tiny ``map_workitems`` batches
  against the persistent warm pool, reported per call (the work itself
  is negligible, so the per-call wall time *is* the dispatch cost).
- **calibrated strong scaling** — a measured ``processes`` run under
  the profiling sink feeds
  :func:`repro.runtime.simulator.calibrate_from_counters` (per-item
  costs/sizes, fitted shm network model, measured setup phases), and
  the discrete-event simulator replays the paper's 256-rank study
  (Figs. 11-12).  The speedup curve must be monotone with cluster-class
  speedup at 256 ranks (enforced in full mode).

Emits ``BENCH_backend_scaling.json`` next to the repo root (one
trajectory point per run) and prints a table.

Run directly::

    PYTHONPATH=src python benchmarks/bench_backend_scaling.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.bl_pipeline import BoundaryLayerConfig  # noqa: E402
from repro.core.pipeline import MeshConfig, generate_mesh  # noqa: E402
from repro.geometry.airfoils import naca0012  # noqa: E402
from repro.geometry.pslg import PSLG  # noqa: E402
from repro.runtime import executor, serde  # noqa: E402
from repro.runtime.counters import use_counters  # noqa: E402
from repro.runtime.simulator import (  # noqa: E402
    calibrate_from_counters,
    strong_scaling,
)

GATE_SPEEDUP = 1.8
GATE_WORKERS = 4
GATE_MIN_TRIANGLES = 50_000

DISPATCH_BATCHES = 12
DISPATCH_ITEMS = 4

#: simulated rank counts for the calibrated Figs. 11-12 replay.
SIM_RANKS = [1, 2, 4, 8, 16, 32, 64, 128, 256]
#: calibrated-shape gate: cluster-class speedup at 256 simulated ranks.
SIM_GATE_S256 = 100.0
SIM_GATE_S16 = 12.0


def full_case():
    """~60k triangles over 32 subdomains, flat load profile (~10s serial)."""
    pslg = PSLG.from_loops([naca0012(121)])
    config = MeshConfig(
        bl=BoundaryLayerConfig(first_spacing=1e-3, growth_ratio=1.3,
                               max_layers=25),
        farfield_chords=30.0,
        grading=0.05,
        h_max_chords=1.2,
        nearbody_margin_chords=0.25,
        target_subdomains=32,
    )
    return pslg, config


def smoke_case():
    """CI smoke: same shape, a few seconds end to end."""
    pslg = PSLG.from_loops([naca0012(61)])
    config = MeshConfig(
        bl=BoundaryLayerConfig(first_spacing=2e-3, growth_ratio=1.4,
                               max_layers=12),
        farfield_chords=10.0,
        target_subdomains=12,
    )
    return pslg, config


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _echo(payload):
    """Near-zero-work executor item: per-call wall time ~= dispatch cost."""
    return payload


def measure_dispatch_overhead(workers: int) -> dict:
    """Per-call dispatch overhead of the persistent warm pool."""
    payloads = [{"x": np.full(8, float(i))} for i in range(DISPATCH_ITEMS)]

    backend = executor.ProcessesBackend()
    try:
        backend.map_workitems(_echo, payloads, n_ranks=workers)  # warmup
        t0 = time.perf_counter()
        for _ in range(DISPATCH_BATCHES):
            backend.map_workitems(_echo, payloads, n_ranks=workers)
        warm_s = (time.perf_counter() - t0) / DISPATCH_BATCHES
    finally:
        backend.shutdown_pool()
    print(f"  dispatch overhead per map_workitems call "
          f"({DISPATCH_ITEMS} items, {workers} ranks):")
    print(f"    warm pool     {warm_s * 1e3:8.2f} ms")
    return {"warm_pool_s": round(warm_s, 5)}


def calibrated_strong_scaling(pslg, config, workers: int) -> dict:
    """Measure a processes run, calibrate the simulator, replay Fig. 11."""
    # Lower the shm threshold so even smoke-size payloads travel through
    # shared memory in both directions, producing (nbytes, seconds) fit
    # samples for the network model.
    saved_threshold = serde.SHM_MIN_BYTES
    serde.SHM_MIN_BYTES = 2048
    registry_backend = executor.get_backend("processes")
    # Workers inherit the shm threshold at fork time: cycle any pool the
    # earlier scenarios warmed up so its workers re-fork with the
    # lowered threshold (and again afterwards, so no worker keeps it).
    registry_backend.shutdown_pool()
    try:
        with use_counters() as sink:
            generate_mesh(pslg, config, backend="processes",
                          n_ranks=workers)
    finally:
        serde.SHM_MIN_BYTES = saved_threshold
        registry_backend.shutdown_pool()

    tasks, simcfg = calibrate_from_counters(sink)
    total = sum(t.cost for t in tasks)
    # Triangle (the best sequential mesher) runs ~2% faster than the
    # per-subdomain sum — same baseline as the Fig. 11 reference bench.
    table = strong_scaling(tasks, SIM_RANKS, simcfg,
                           t_sequential=total / 1.02)
    net = simcfg.network
    print(f"  calibrated simulator: {len(tasks)} tasks, "
          f"{total:.1f}s total work, serial setup "
          f"{simcfg.serial_setup * 1e3:.0f} ms,")
    print(f"    network latency {net.latency * 1e6:.1f} us, "
          f"bandwidth {net.bandwidth / 1e9:.2f} GB/s")
    print("    ranks   speedup   efficiency")
    for p in SIM_RANKS:
        print(f"    {p:>5}   {table[p]['speedup']:7.1f}   "
              f"{table[p]['efficiency']:10.3f}")
    return {
        "n_tasks": len(tasks),
        "total_work_s": round(total, 3),
        "serial_setup_s": round(simcfg.serial_setup, 4),
        "network": {"latency_s": net.latency,
                    "bandwidth_Bps": net.bandwidth},
        "speedup": {str(p): round(table[p]["speedup"], 2)
                    for p in SIM_RANKS},
        "efficiency": {str(p): round(table[p]["efficiency"], 4)
                       for p in SIM_RANKS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, default=GATE_WORKERS,
                    help=f"parallel worker count (default {GATE_WORKERS})")
    ap.add_argument("--smoke", action="store_true",
                    help="CI smoke: small case, gate reported but never "
                    "enforced")
    ap.add_argument("--skip-threads", action="store_true",
                    help="skip the GIL-bound threads backend (it only "
                    "demonstrates the baseline the processes backend "
                    "beats)")
    ap.add_argument("--out", type=Path,
                    default=REPO_ROOT / "BENCH_backend_scaling.json",
                    help="JSON output path")
    ap.add_argument("--no-check", action="store_true",
                    help="report only; never fail the gate")
    args = ap.parse_args(argv)

    pslg, config = smoke_case() if args.smoke else full_case()
    backends = ["serial", "threads", "processes"]
    if args.skip_threads:
        backends.remove("threads")

    cpus = usable_cpus()
    times = {}
    triangles = {}
    for name in backends:
        t0 = time.perf_counter()
        result = generate_mesh(pslg, config, backend=name,
                               n_ranks=args.workers)
        dt = time.perf_counter() - t0
        times[name] = dt
        triangles[name] = result.mesh.n_triangles
        refine = result.timings["refinement"]
        print(f"  {name:<10}  total {dt:7.2f}s  refinement {refine:7.2f}s"
              f"  ({result.mesh.n_triangles} triangles)")

    ok = True
    if len(set(triangles.values())) != 1:
        print(f"FAIL: backends disagree on triangle count: {triangles}")
        ok = False

    serial_t = times["serial"]
    speedups = {n: serial_t / times[n] for n in backends if n != "serial"}
    for name, s in sorted(speedups.items()):
        print(f"  speedup {name} vs serial at {args.workers} workers: "
              f"{s:.2f}x")

    n_tris = triangles["serial"]
    gate_applicable = (not args.smoke and not args.no_check
                       and "processes" in times
                       and args.workers >= GATE_WORKERS
                       and n_tris >= GATE_MIN_TRIANGLES)
    gate_enforced = gate_applicable and cpus >= GATE_WORKERS
    gate_passed = None
    if "processes" in speedups:
        gate_passed = speedups["processes"] >= GATE_SPEEDUP
    if gate_enforced:
        if gate_passed:
            print(f"PASS: processes speedup {speedups['processes']:.2f}x "
                  f">= {GATE_SPEEDUP}x")
        else:
            print(f"FAIL: processes speedup {speedups['processes']:.2f}x "
                  f"< {GATE_SPEEDUP}x on {cpus} cpus")
            ok = False
    elif gate_applicable:
        print(f"gate skipped ({cpus} usable cpus < {GATE_WORKERS}; "
              f"measured {speedups.get('processes', 0.0):.2f}x, "
              "no hardware to demand more from)")
    else:
        print("gate not applicable (smoke/no-check/small case)")

    # ------------------------------------------------------------------
    # Scenario 2: warm-pool dispatch overhead.
    # ------------------------------------------------------------------
    dispatch = measure_dispatch_overhead(args.workers)
    extras_enforced = not args.smoke and not args.no_check

    # ------------------------------------------------------------------
    # Scenario 3: calibrated Figs. 11-12 strong-scaling replay.
    # ------------------------------------------------------------------
    sim = calibrated_strong_scaling(pslg, config, args.workers)
    sim_speedups = [sim["speedup"][str(p)] for p in SIM_RANKS]
    # 2% slack on monotonicity: measured (jittered) task sets may trade
    # a hair of makespan for distribution cost between adjacent counts.
    sim_monotone = all(b >= 0.98 * a for a, b in zip(sim_speedups,
                                                     sim_speedups[1:]))
    sim_shape_ok = (sim_monotone
                    and sim["speedup"]["16"] >= SIM_GATE_S16
                    and sim["speedup"]["256"] >= SIM_GATE_S256
                    and sim["speedup"]["256"] <= 256.0)
    sim["shape_ok"] = bool(sim_shape_ok)
    if extras_enforced:
        if sim_shape_ok:
            print(f"PASS: calibrated scaling shape (monotone, "
                  f"s16={sim['speedup']['16']:.1f} >= {SIM_GATE_S16}, "
                  f"s256={sim['speedup']['256']:.1f} >= {SIM_GATE_S256})")
        else:
            print(f"FAIL: calibrated scaling shape off the paper's curve "
                  f"(monotone={sim_monotone}, s16={sim['speedup']['16']}, "
                  f"s256={sim['speedup']['256']})")
            ok = False
    else:
        print("calibrated-scaling gate reported only (smoke/no-check)")

    payload = {
        "bench": "backend_scaling",
        "case": {
            "geometry": "naca0012",
            "surface_points": len(pslg.points),
            "target_subdomains": config.target_subdomains,
            "smoke": bool(args.smoke),
        },
        "cpus": cpus,
        "workers": args.workers,
        "n_triangles": n_tris,
        "seconds": {n: round(t, 3) for n, t in times.items()},
        "speedup_vs_serial": {n: round(s, 3) for n, s in speedups.items()},
        "gate": {
            "threshold": GATE_SPEEDUP,
            "enforced": bool(gate_enforced),
            "passed": gate_passed,
        },
        "dispatch_overhead": dispatch,
        "calibrated_scaling": {
            **sim,
            "gate_s16": SIM_GATE_S16,
            "gate_s256": SIM_GATE_S256,
            "enforced": bool(extras_enforced),
        },
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
