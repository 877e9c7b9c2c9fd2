"""The benchmark's workloads: inputs, one timed operation, its checks.

Each workload prepares its inputs (and, for ``service_mix``, a running
service) in :meth:`prepare`, times one operation in :meth:`op`, and
checks that operation's output in :meth:`check`, outside the timing.
The program receives only generated ``(PSLG, MeshConfig)`` pairs or
meshes; the seed never reaches it.

Every workload reports every end-to-end metric.  One "operation" is a
mesh (push-button), one adaptation loop (``adapt_shear``) or one round
of requests (``service_mix``); the generalised definitions are in
``perfbench/README.md``.
"""

from __future__ import annotations

import copy
import math
import random
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import pipeline
from repro.core.bl_pipeline import BoundaryLayerConfig
from repro.delaunay import refine_pslg, validate_mesh
from repro.geometry.airfoils import naca4, three_element_airfoil
from repro.geometry.pslg import PSLG
from repro.runtime import serde
from repro.runtime.client import ServiceClient
from repro.runtime.service import MeshService, ServiceError, ServiceThread
from repro.solver import adapt as solver_adapt

from .layers import ADAPT_CYCLES, LayerProbe
from .tracer import Tracer

__all__ = ["WORKLOADS", "make", "request_stream", "tail_latency"]

#: percentiles tried for ``latency_tail_s``, highest first.  None is
#: a tail below p90, so smaller samples report their maximum instead.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10


def tail_latency(values: Sequence[float]) -> Tuple[float, str]:
    """Highest ladder percentile with >= 10 samples beyond it.

    Returns ``(value, label)``; with too few samples for any ladder
    percentile the maximum is reported and labelled ``max``.
    """
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            rank = max(int(math.ceil(q / 100.0 * n)) - 1, 0)
            return ordered[rank], f"p{q:g}"
    return ordered[-1], "max"


def _mesh_info(mesh) -> Dict[str, object]:
    """Triangle count and content hash, recorded but never gated on."""
    return {"triangles": int(mesh.n_triangles),
            "points": int(mesh.n_points),
            "hash": serde.canonical_hash(serde.pack_mesh(mesh))[:16]}


class Workload:
    name = ""
    why = ""
    #: requests one operation attempts (failed whole when op raises).
    op_size = 1

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = int(seed)
        self.tiny = bool(tiny)
        self.tracer: Optional[Tracer] = None
        self.info: Dict[str, object] = {}

    def prepare(self) -> None:
        """Build the inputs; afterwards the workload is ready to time."""

    def install(self, probe: LayerProbe) -> None:
        """Install the layer spans this workload exercises."""

    def op(self, index: int) -> Dict[str, object]:
        raise NotImplementedError

    def check(self, rec: Dict[str, object]) -> Tuple[int, int]:
        """(attempted, failed) for one operation's outputs."""
        raise NotImplementedError

    def end_to_end(self, recs: List[Dict[str, object]]) -> Dict[str, float]:
        raise NotImplementedError

    def service_delta(self, before, n_ops: int) -> Dict[str, float]:
        return {}

    def service_snapshot(self):
        return None

    def close(self) -> None:
        """Release whatever :meth:`prepare` started."""


def _op_metrics(recs, triangles, dof, target_s) -> Dict[str, float]:
    """End-to-end metrics of workloads whose operation is one result."""
    secs = [r["seconds"] for r in recs]
    tail, _label = tail_latency(secs)
    return {
        "wall_s": statistics.median(secs),
        "triangles_per_s": statistics.median(
            t / s for t, s in zip(triangles, secs)),
        "time_to_target_s": statistics.median(target_s),
        "dof_at_target": float(statistics.median(dof)),
        "req_per_s": statistics.median(1.0 / s for s in secs),
        "latency_p50_s": statistics.median(secs),
        "latency_tail_s": tail,
    }


# ----------------------------------------------------------------------
# Push-button meshing
# ----------------------------------------------------------------------
class PushButton(Workload):
    """``generate_mesh`` with the CLI defaults on the serial backend."""

    def geometry(self) -> PSLG:
        raise NotImplementedError

    def prepare(self) -> None:
        self.pslg = self.geometry()
        # CLI defaults: 1e-3 first spacing, growth 1.3, 60 layers,
        # 40-chord far field, grading 0.35, 16 subdomains.
        self.config = (pipeline.MeshConfig(
            bl=BoundaryLayerConfig(max_layers=12), farfield_chords=10.0,
            target_subdomains=6) if self.tiny else pipeline.MeshConfig())

    def install(self, probe: LayerProbe) -> None:
        probe.install_pipeline()

    def op(self, index: int) -> Dict[str, object]:
        t0 = time.perf_counter()
        result = pipeline.generate_mesh(self.pslg, self.config,
                                        backend="serial")
        return {"seconds": time.perf_counter() - t0, "mesh": result.mesh}

    def check(self, rec) -> Tuple[int, int]:
        mesh = rec.pop("mesh")
        rec.update(_mesh_info(mesh))
        self.info.setdefault("meshes", []).append(
            {k: rec[k] for k in ("triangles", "points", "hash")})
        return 1, 0 if validate_mesh(mesh).ok else 1

    def end_to_end(self, recs) -> Dict[str, float]:
        return _op_metrics(recs, [r["triangles"] for r in recs],
                           [r["points"] for r in recs],
                           [r["seconds"] for r in recs])


class Naca0012(PushButton):
    name = "naca0012"
    why = ("push-button NACA 0012 at CLI defaults, serial: refinement "
           "dominates and BL intersections are small; the single-thread "
           "baseline")

    def geometry(self) -> PSLG:
        return PSLG.from_loops([naca4("0012", 31 if self.tiny else 101)],
                               names=["naca0012"])


class ThreeElement(PushButton):
    name = "three_element"
    why = ("push-button three-element high-lift airfoil, serial: BL "
           "intersection resolution dominates, multi-element truncation "
           "runs")

    def geometry(self) -> PSLG:
        return three_element_airfoil(n_points=31 if self.tiny else 101)


# ----------------------------------------------------------------------
# Metric adaptation loop
# ----------------------------------------------------------------------
UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_SEGS = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])


class AdaptShear(Workload):
    name = "adapt_shear"
    why = ("adapt_loop on the shear-layer problem from a coarse square: "
           "isolates delaunay.adapt (flip_pass dominates), metric and "
           "solver; no BL, executor or service")

    #: the loop's fixed settings (bench_adapt_accuracy --smoke).
    LOOP = dict(cycles=ADAPT_CYCLES, eps=4e-2, h_min=5e-3, h_max=0.3)
    #: L2 error the loop must reach; time_to_target_s stops here.
    TARGET_ERROR = 1.5e-2

    def prepare(self) -> None:
        self.problem = solver_adapt.ShearLayerProblem(delta=0.1,
                                                      amplitude=0.1)
        self.coarse = refine_pslg(UNIT_SQUARE.copy(), SQUARE_SEGS.copy(),
                                  max_area=0.02)
        self.loop = dict(self.LOOP, cycles=1) if self.tiny else self.LOOP
        self.target = 0.05 if self.tiny else self.TARGET_ERROR
        # The run clock: one timestamp as each cycle's error is known.
        self._marks: List[Tuple[float, float]] = []
        self._l2_error = solver_adapt.l2_error

        def l2_error(mesh, u, problem):
            err = self._l2_error(mesh, u, problem)
            self._marks.append((time.perf_counter(), err))
            return err
        solver_adapt.l2_error = l2_error

    def close(self) -> None:
        if hasattr(self, "_l2_error"):
            solver_adapt.l2_error = self._l2_error

    def install(self, probe: LayerProbe) -> None:
        probe.install_adapt()

    def op(self, index: int) -> Dict[str, object]:
        mesh = copy.deepcopy(self.coarse)
        self._marks.clear()
        t0 = time.perf_counter()
        result = solver_adapt.adapt_loop(mesh, problem=self.problem,
                                         **self.loop)
        seconds = time.perf_counter() - t0
        return {"seconds": seconds, "result": result,
                "marks": [(t - t0, e) for t, e in self._marks]}

    def check(self, rec) -> Tuple[int, int]:
        result = rec.pop("result")
        marks = rec.pop("marks")
        hist = result.history
        reached = [i for i, c in enumerate(hist) if c.error <= self.target]
        ok = (validate_mesh(result.mesh).ok and len(marks) == len(hist)
              and bool(reached))
        if reached:
            rec["time_to_target_s"] = marks[reached[0]][0]
            rec["dof_at_target"] = hist[reached[0]].dof
        rec.update(_mesh_info(result.mesh))
        rec["errors"] = [c.error for c in hist]
        self.info.setdefault("loops", []).append(
            {k: rec.get(k) for k in ("dof_at_target", "errors", "triangles",
                                     "hash")})
        return 1, 0 if ok else 1

    def end_to_end(self, recs) -> Dict[str, float]:
        recs = [r for r in recs if "time_to_target_s" in r]
        return _op_metrics(recs, [r["triangles"] for r in recs],
                           [r["dof_at_target"] for r in recs],
                           [r["time_to_target_s"] for r in recs])


# ----------------------------------------------------------------------
# Meshing service under a closed loop of clients
# ----------------------------------------------------------------------
#: NACA 4-digit codes the request stream draws geometries from.
CATALOG = [f"{m}{p}{t:02d}" for m in range(1, 7) for p in range(2, 7)
           for t in range(9, 19)]
DISTINCT_PER_ROUND = 16
REQUESTS_PER_ROUND = 120
CLIENTS = 2
WORKERS = 2
WARMUP_CODES = ("0012", "0015")


def _round_shape(tiny: bool) -> Tuple[int, int]:
    return (2, 6) if tiny else (DISTINCT_PER_ROUND, REQUESTS_PER_ROUND)


def request_stream(seed: int, round_index: int, tiny: bool = False
                   ) -> Tuple[List[str], List[int]]:
    """Round ``round_index`` of the seeded request stream.

    Returns the round's distinct NACA codes and its request sequence
    (indices into those codes).  Rounds never share a geometry, so each
    round starts with a cold cache for its own requests and the hit
    share is the repeat share, independent of run length.
    """
    distinct, total = _round_shape(tiny)
    order = list(CATALOG)
    random.Random(f"perfbench/{seed}").shuffle(order)
    lo = round_index * distinct
    if lo + distinct > len(order):
        raise ValueError(f"request catalog exhausted at round {round_index}")
    codes = order[lo:lo + distinct]
    rng = random.Random(f"perfbench/{seed}/{round_index}")
    seq = list(range(distinct)) + [rng.randrange(distinct)
                                   for _ in range(total - distinct)]
    rng.shuffle(seq)
    return codes, seq


def _request(code: str, tiny: bool) -> serde.Buffers:
    pslg = PSLG.from_loops([naca4(code, 21 if tiny else 31)],
                           names=[f"naca{code}"])
    config = pipeline.MeshConfig(
        bl=BoundaryLayerConfig(first_spacing=2e-3, growth_ratio=1.4,
                               max_layers=4 if tiny else 6),
        farfield_chords=2.0, grading=0.6, target_subdomains=4)
    return pipeline.pack_mesh_request(pslg, config)


class ServiceMix(Workload):
    name = "service_mix"
    why = ("2 closed-loop clients on an in-process MeshService, processes "
           "backend with 2 workers: seeded small NACA requests, cache hits "
           "mixed with batched misses")

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.op_size = _round_shape(tiny)[1]
        self._first: Dict[str, bytes] = {}
        self._meshes: Dict[str, Dict[str, object]] = {}
        self._thread: Optional[ServiceThread] = None
        self._clients: List[ServiceClient] = []

    def _build_round(self, index: int):
        codes, seq = request_stream(self.seed, index, self.tiny)
        payloads = [_request(c, self.tiny) for c in codes]
        keys = [serde.canonical_hash(p) for p in payloads]
        return {"codes": codes, "seq": seq, "payloads": payloads,
                "keys": keys}

    def prepare(self) -> None:
        self._round = 0
        self._next = self._build_round(0)
        self.service = MeshService("tcp:127.0.0.1:0", backend="processes",
                                   n_ranks=WORKERS)
        self._thread = ServiceThread(self.service)
        endpoint = self._thread.start()
        self._clients = [ServiceClient(endpoint) for _ in range(CLIENTS)]
        for client in self._clients:
            client.ping()
        # Pool warm-up: one request per worker, sent together so they
        # share a batch; their geometries are outside the catalogue.
        warm = [_request(code, self.tiny) for code in WARMUP_CODES]
        with ThreadPoolExecutor(CLIENTS) as pool:
            for fut in [pool.submit(c.submit_packed, p)
                        for c, p in zip(self._clients, warm)]:
                fut.result()

    def close(self) -> None:
        for client in self._clients:
            client.close()
        self._clients = []
        if self._thread is not None:
            self._thread.stop()
            self._thread = None

    def install(self, probe: LayerProbe) -> None:
        probe.install_service()

    def op(self, index: int) -> Dict[str, object]:
        rnd, r = self._next, self._round
        seq, payloads = rnd["seq"], rnd["payloads"]
        replies: List[Optional[tuple]] = [None] * len(seq)
        cursor = iter(range(len(seq)))
        lock = threading.Lock()
        tracer = self.tracer

        def drive(client: ServiceClient) -> None:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                span = (tracer.open("service.request",
                                    rid=r * len(seq) + i)
                        if tracer else None)
                t0 = time.perf_counter()
                try:
                    kind, blob = client.submit_packed(payloads[seq[i]])
                except (ServiceError, OSError) as exc:
                    kind, blob = "err", str(exc).encode()
                t1 = time.perf_counter()
                if span is not None:
                    span.args["kind"] = kind
                    tracer.close(span)
                replies[i] = (kind, blob, t0, t1)

        threads = [threading.Thread(target=drive, args=(c,))
                   for c in self._clients]
        t0 = time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        seconds = time.perf_counter() - t0
        # Rounds continue across passes: a traced pass after an untraced
        # one must not replay geometries the cache already holds.
        self._round += 1
        self._next = self._build_round(self._round)
        return {"seconds": seconds, "t0": t0, "round": rnd,
                "replies": replies}

    def _accept(self, key: str, code: str, blob: bytes) -> bool:
        """A reply is correct when it is the first for its request and a
        valid mesh, or byte-equal to that first reply."""
        first = self._first.get(key)
        if first is not None:
            return blob == first
        mesh = serde.unpack_mesh(serde.bytes_to_buffers(blob))
        if not validate_mesh(mesh).ok:
            return False
        self._first[key] = blob
        self._meshes[key] = dict(_mesh_info(mesh), code=code)
        self.info.setdefault("meshes", []).append(self._meshes[key])
        return True

    def check(self, rec) -> Tuple[int, int]:
        rnd = rec.pop("round")
        replies = rec.pop("replies")
        keys, seq, codes = rnd["keys"], rnd["seq"], rnd["codes"]
        failed = sum(1 for r in replies if r is None)
        hits, triangles, latencies = 0, 0, []
        first_done: Dict[str, float] = {}
        for _t1, i in sorted((r[3], i) for i, r in enumerate(replies)
                             if r is not None):
            kind, blob, t0, t1 = replies[i]
            key = keys[seq[i]]
            if kind == "err" or not self._accept(key, codes[seq[i]], blob):
                failed += 1
                continue
            first_done.setdefault(key, t1 - rec["t0"])
            latencies.append(t1 - t0)
            hits += kind == "mesh-hit"
            triangles += self._meshes[key]["triangles"]
        rec.update(
            latencies=latencies, hits=hits, requests=len(seq),
            triangles=triangles,
            warm_s=(max(first_done.values())
                    if len(first_done) == len(keys) else None),
            points=[self._meshes[k]["points"] for k in first_done])
        self.info.setdefault("hit_share", []).append(hits / len(seq))
        return len(seq), failed

    def end_to_end(self, recs) -> Dict[str, float]:
        secs = [r["seconds"] for r in recs]
        lat = [x for r in recs for x in r["latencies"]]
        tail, label = tail_latency(lat)
        self.info["latency_tail"] = {"percentile": label, "samples": len(lat)}
        warm = [r["warm_s"] for r in recs if r["warm_s"] is not None]
        return {
            "wall_s": statistics.median(secs),
            "triangles_per_s": statistics.median(
                r["triangles"] / r["seconds"] for r in recs),
            "time_to_target_s": statistics.median(warm),
            "dof_at_target": float(statistics.median(
                p for r in recs for p in r["points"])),
            "req_per_s": statistics.median(
                r["requests"] / r["seconds"] for r in recs),
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": tail,
        }

    def service_snapshot(self):
        return self.service.counters.snapshot()

    def service_delta(self, before, n_ops: int) -> Dict[str, float]:
        """Service, executor and serde counters of the traced rounds."""
        after = self.service.counters.snapshot()
        n = float(max(n_ops, 1))

        def events(name: str) -> float:
            return float(after["events"].get(name, 0)
                         - before["events"].get(name, 0))

        def samples(name: str) -> List[float]:
            return after["samples"].get(name, [])[
                len(before["samples"].get(name, [])):]

        requests = events("service.requests")
        sizes = samples("service.batch_size")
        items = samples("executor.item_seconds")
        lat = samples("service.latency_seconds")
        return {
            "service.hit_ratio": (events("service.cache_hits") / requests
                                  if requests else 0.0),
            "service.batches": events("service.batches") / n,
            "service.batch_size_mean": (sum(sizes) / len(sizes)
                                        if sizes else 0.0),
            "service.dedup_joins": events("service.dedup_joins") / n,
            "service.errors": events("service.errors") / n,
            "service.server_latency_p50_s": (statistics.median(lat)
                                             if lat else 0.0),
            "executor.item_s": sum(items) / len(items) if items else 0.0,
            "executor.steals": events("executor.steals") / n,
            "serde.shm_bytes": events("serde.bytes_shm") / n,
        }


WORKLOADS = {w.name: w for w in (Naca0012, ThreeElement, AdaptShear,
                                 ServiceMix)}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, tiny)
