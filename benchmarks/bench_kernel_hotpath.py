"""Hot-path benchmark: overhauled Delaunay kernel vs the seed kernel.

Two scenarios on a 10k-point uniform-random workload:

``insert-loop``
    Both kernels ingest the *same* point stream in random order through
    ``insert_point`` — the canonical kernel workload (point location has
    no help from the caller).  This isolates the kernel itself: the
    overhauled kernel's grid-seeded walks stay O(1) expected while the
    seed kernel walks cold.  The >= 2x acceptance criterion is checked
    here.

``triangulate``
    End-to-end ``triangulate()`` (BRIO ordering for both).  With walks
    already short, this measures the fast insertion path (the
    filter-inlined ``locate_fast`` walk and ``carve_cavity_fast`` carve
    composed by ``insert_point_fast``) against the seed's
    scalar-predicate path.

``finalize``
    ``Triangulation.to_mesh`` (vectorized compaction returning views
    over the SoA kernel buffers) vs a per-triangle Python-loop export on
    the *same* ~61k-triangle NACA 0012 triangulation.  The >= 10x
    acceptance criterion is checked here.

``transport``
    Shipping the finalized mesh's buffer-dict through a
    ``multiprocessing.shared_memory`` segment (the processes backend's
    >= 64 KiB path) vs a pickle round trip of the same buffers.

The seed baseline is the kernel source at the repository's root commit,
extracted via ``git show`` at runtime (no vendored copy to drift).  All
timings are interleaved best-of-N to blunt machine noise.  The fast
kernel's counters are reported afterwards; the exact-predicate
escalation rate must stay below 1% on this workload.  Results land in
``BENCH_kernel_hotpath.json`` at the repo root.

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernel_hotpath.py [--quick]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.delaunay import kernel as K  # noqa: E402
from repro.runtime import serde  # noqa: E402
from repro.runtime.counters import KernelCounters  # noqa: E402


def load_seed_kernel():
    """Import the kernel module as of the repository's root (seed) commit.

    Returns the module, or ``None`` when the history is unavailable
    (shallow clone, source tarball).
    """
    try:
        root = subprocess.run(
            ["git", "rev-list", "--max-parents=0", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.split()[0]
        src = subprocess.run(
            ["git", "show", f"{root}:src/repro/delaunay/kernel.py"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout
    except (subprocess.CalledProcessError, OSError, IndexError):
        return None
    tmp = Path(tempfile.mkdtemp(prefix="seed_kernel_")) / "seed_kernel.py"
    tmp.write_text(src)
    spec = importlib.util.spec_from_file_location(
        "repro.delaunay._seed_kernel", tmp)
    mod = importlib.util.module_from_spec(spec)
    # The seed kernel uses package-relative imports; resolve them against
    # the live package (geometry/mesh modules are API-stable).
    mod.__package__ = "repro.delaunay"
    sys.modules["repro.delaunay._seed_kernel"] = mod
    spec.loader.exec_module(mod)
    return mod


def time_call(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def insert_loop(kernel_mod, coords, fast=None):
    if fast is None:
        tri = kernel_mod.Triangulation()
    else:
        tri = kernel_mod.Triangulation(fast_predicates=fast)
    insert = tri.insert_point
    for x, y in coords:
        insert(x, y)
    return tri


def naca_triangulation(n_target_tris: int):
    """A NACA 0012 triangulation with ~``n_target_tris`` triangles.

    Surface points of the airfoil plus a uniform cloud filling the
    bounding box — Euler gives ~2 interior points per triangle, so the
    cloud is sized to half the triangle target.
    """
    from repro.geometry.airfoils import naca0012

    surf = naca0012(401)
    rng = np.random.default_rng(7)
    n_cloud = max(n_target_tris // 2 - len(surf), 0)
    cloud = rng.uniform((-0.5, -0.6), (1.5, 0.6), size=(n_cloud, 2))
    return K.triangulate(np.vstack([surf, cloud]))


def python_loop_export(tri):
    """The pre-refactor finalize: per-triangle / per-vertex Python loops."""
    tris = []
    for t in tri.live_triangles():
        if tri.is_ghost(t):
            continue
        tris.append(tri._arr.triangle(t))
    used = sorted({v for tr in tris for v in tr})
    remap = {v: i for i, v in enumerate(used)}
    pts = np.asarray([tri._arr.point(v) for v in used])
    out = np.asarray(
        [[remap[a], remap[b], remap[c]] for a, b, c in tris],
        dtype=np.int32)
    from repro.delaunay.mesh import TriMesh
    return TriMesh(pts, out)


def shm_round_trip(buffers):
    name, meta = serde.buffers_to_shm(buffers)
    return serde.buffers_from_shm(name, meta)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=10_000,
                    help="point count (default 10000)")
    ap.add_argument("--reps", type=int, default=3,
                    help="interleaved repetitions, best-of (default 3)")
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke: 4000 points, 2 reps")
    ap.add_argument("--smoke", action="store_true",
                    help="alias for --quick (matches the other benches)")
    ap.add_argument("--no-check", action="store_true",
                    help="report only; skip the acceptance assertions")
    ap.add_argument("--target-tris", type=int, default=61_000,
                    help="finalize-scenario triangle count (default 61000,"
                         " the NACA 0012 backend-scaling case)")
    ap.add_argument("--out", type=Path,
                    default=REPO_ROOT / "BENCH_kernel_hotpath.json",
                    help="JSON results path (default repo root)")
    args = ap.parse_args(argv)
    args.quick = args.quick or args.smoke
    if args.quick:
        args.n = min(args.n, 4000)
        args.reps = min(args.reps, 2)
        args.target_tris = min(args.target_tris, 12_000)

    rng = np.random.default_rng(42)
    pts = rng.random((args.n, 2))
    coords = pts.tolist()

    seed_mod = load_seed_kernel()
    if seed_mod is None:
        print("WARNING: git history unavailable — no seed baseline; "
              "timing the current kernel only")

    scenarios = {}

    def record(scenario, variant, dt):
        key = (scenario, variant)
        scenarios[key] = min(scenarios.get(key, float("inf")), dt)

    for _ in range(args.reps):
        record("insert-loop", "fast",
               time_call(lambda: insert_loop(K, coords, fast=True)))
        record("triangulate", "fast",
               time_call(lambda: K.triangulate(pts)))
        record("triangulate", "ref",
               time_call(lambda: K.triangulate(pts, fast_predicates=False)))
        if seed_mod is not None:
            record("insert-loop", "seed",
                   time_call(lambda: insert_loop(seed_mod, coords)))
            record("triangulate", "seed",
                   time_call(lambda: seed_mod.triangulate(pts)))

    # Finalize + transport on the NACA 0012 case (one triangulation,
    # timed repeatedly — to_mesh does not mutate kernel state).
    naca = naca_triangulation(args.target_tris)
    mesh = naca.to_mesh()
    n_naca_tris = mesh.n_triangles
    buffers = serde.pack_mesh(mesh)
    shm_bytes = serde.buffers_nbytes(buffers)
    for _ in range(args.reps):
        record("finalize", "fast", time_call(naca.to_mesh))
        record("finalize", "loop", time_call(lambda: python_loop_export(naca)))
        record("transport", "shm", time_call(lambda: shm_round_trip(buffers)))
        record("transport", "pickle", time_call(
            lambda: serde.unpack_mesh(pickle.loads(pickle.dumps(buffers)))))

    # Counters from one instrumented fast run of each scenario.
    kc = KernelCounters()
    kc.absorb(insert_loop(K, coords, fast=True))
    kc.absorb(K.triangulate(pts))
    kc.absorb(naca)

    print(f"\n=== kernel hot path — {args.n} uniform-random points, "
          f"best of {args.reps} ===")
    w = max(len(s) for s, _ in scenarios)
    for scenario in ("insert-loop", "triangulate"):
        fast = scenarios[(scenario, "fast")]
        line = f"  {scenario:<{w}}  fast {fast:7.3f}s"
        if (scenario, "ref") in scenarios:
            line += f"  ref {scenarios[(scenario, 'ref')]:7.3f}s"
        if (scenario, "seed") in scenarios:
            seed = scenarios[(scenario, "seed")]
            line += f"  seed {seed:7.3f}s  speedup {seed / fast:5.2f}x"
        print(line)
    fin_fast = scenarios[("finalize", "fast")]
    fin_loop = scenarios[("finalize", "loop")]
    print(f"  {'finalize':<{w}}  fast {fin_fast:7.3f}s  "
          f"loop {fin_loop:7.3f}s  speedup {fin_loop / fin_fast:5.2f}x  "
          f"({n_naca_tris} NACA 0012 triangles)")
    tr_shm = scenarios[("transport", "shm")]
    tr_pkl = scenarios[("transport", "pickle")]
    print(f"  {'transport':<{w}}  shm  {tr_shm:7.3f}s  "
          f"pickle {tr_pkl:7.3f}s  ({shm_bytes} bytes)")
    print("\nfast-kernel counters:")
    print(kc.report())

    ok = True
    checks = {}
    if seed_mod is not None and not args.no_check:
        speedup = (scenarios[("insert-loop", "seed")]
                   / scenarios[("insert-loop", "fast")])
        checks["insert_speedup_vs_seed"] = round(speedup, 2)
        if speedup < 2.0:
            print(f"FAIL: insert-loop speedup {speedup:.2f}x < 2x")
            ok = False
        else:
            print(f"PASS: insert-loop speedup {speedup:.2f}x >= 2x")
    if not args.no_check:
        fin_speedup = fin_loop / fin_fast
        checks["finalize_speedup_vs_loop"] = round(fin_speedup, 2)
        if fin_speedup < 10.0:
            print(f"FAIL: finalize speedup {fin_speedup:.2f}x < 10x")
            ok = False
        else:
            print(f"PASS: finalize speedup {fin_speedup:.2f}x >= 10x")
        rate = kc.exact_escalation_rate
        if rate >= 0.01:
            print(f"FAIL: exact escalation rate {rate:.4%} >= 1%")
            ok = False
        else:
            print(f"PASS: exact escalation rate {rate:.4%} < 1%")

    payload = {
        "bench": "kernel_hotpath",
        "case": {"n_points": args.n, "reps": args.reps,
                 "quick": bool(args.quick),
                 "finalize_case": "naca0012",
                 "finalize_n_triangles": n_naca_tris},
        "seconds": {
            f"{scenario}/{variant}": round(dt, 6)
            for (scenario, variant), dt in sorted(scenarios.items())
        },
        "transport_bytes": shm_bytes,
        "finalize_ns_counter": kc.finalize_ns,
        "checks": checks,
        "passed": ok,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
