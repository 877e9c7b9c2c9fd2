"""Per-layer instrumentation and the per-layer metric catalogue.

Each layer is named after its module.  :class:`LayerProbe` installs the
spans of one workload through a :class:`~perfbench.tracer.Tracer`, and
around the boundary-layer, refinement and adaptation entry points it
installs a nested ``use_counters()`` sink whose snapshot is merged back
into the parent sink afterwards, so kernel counters are split by the
layer whose call absorbed them.

Every per-layer value is reported per operation (one mesh, one
adaptation loop, or one service round), except ratios, maxima and the
means named as such.  A layer a workload never runs reports 0.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, List, Optional

from repro.core import bl_pipeline, pipeline
from repro.delaunay.adapt import MeshAdaptor
from repro.metric import MetricField
from repro.runtime import counters, executor, serde
from repro.solver import adapt as solver_adapt
from repro.spatial.adt import ADT

from .tracer import Span, Tracer

__all__ = ["PER_LAYER", "KERNEL_LAYERS", "ADAPT_CYCLES", "LayerProbe"]

KERNEL_LAYERS = ("bl", "refine", "adapt")
#: cycles of the adapt_shear loop (per-cycle adapt.* metrics).
ADAPT_CYCLES = 2

_KERNEL_FIELDS = [
    ("inserts", "count"), ("walk_steps", "count"),
    ("predicate_tests", "count"), ("exact_escalations", "count"),
    ("exact_escalation_rate", "ratio"), ("cavity_triangles", "count"),
]
_ADAPT_PASSES = ("split", "collapse", "flip", "smooth")

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: List[tuple] = (
    [("bl_pipeline.rays_s", "s"), ("bl_pipeline.intersections_s", "s"),
     ("bl_pipeline.insert_points_s", "s"),
     ("bl_pipeline.triangulate_s", "s"),
     ("adt.build_s", "s"), ("adt.query_s", "s"),
     ("adt.query_calls", "count"), ("adt.candidates", "count"),
     ("intersections.truncations", "count"),
     ("intersections.useful_ratio", "ratio"),
     ("decouple.s", "s"), ("decouple.subdomains", "count"),
     ("refine.s", "s"), ("refine.items", "count"),
     ("refine.item_max_s", "s"), ("refine.steiner_points", "count")]
    + [(f"kernel.{layer}.{field}", unit) for layer in KERNEL_LAYERS
       for field, unit in _KERNEL_FIELDS]
    + [("merge.s", "s"),
       ("metric.recover_s", "s"), ("metric.limit_s", "s"),
       ("solver.solve_s", "s"), ("solver.pcg_iterations", "count")]
    + [(f"adapt.{p}_s", "s") for p in _ADAPT_PASSES]
    + [(f"adapt.cycle{c}.{p}_s", "s") for c in range(1, ADAPT_CYCLES + 1)
       for p in _ADAPT_PASSES]
    + [("adapt.splits", "count"), ("adapt.collapses", "count"),
       ("adapt.flips", "count"), ("adapt.smooth_moves", "count"),
       ("adapt.conformity", "ratio"),
       ("executor.dispatch_s", "s"), ("executor.items", "count"),
       ("executor.item_s", "s"), ("executor.steals", "count"),
       ("serde.pack_s", "s"), ("serde.unpack_s", "s"),
       ("serde.hash_s", "s"), ("serde.shm_bytes", "B"),
       ("service.hit_ratio", "ratio"), ("service.batches", "count"),
       ("service.batch_size_mean", "count"),
       ("service.dedup_joins", "count"), ("service.errors", "count"),
       ("service.server_latency_p50_s", "s"),
       ("trace.overhead_s", "s"), ("trace.uncovered_s", "s"),
       ("trace.self_sum_s", "s")]
)

_RESOLVE = ("intersections.resolve_self", "intersections.resolve_multi")


class LayerProbe:
    """Installs one workload's spans and turns them into metrics."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.kernel = {layer: counters.KernelCounters()
                       for layer in KERNEL_LAYERS}
        self.events: Dict[str, Dict[str, int]] = {
            layer: {} for layer in KERNEL_LAYERS}
        self._lock = threading.Lock()
        self._bl_tris: List[object] = []

    # -- nested counter sinks ------------------------------------------
    def _layer_sink(self, layer: str):
        @contextlib.contextmanager
        def sink():
            parent = counters.current()
            inner = counters.Counters()
            try:
                with counters.use_counters(inner):
                    yield
            finally:
                if layer == "bl":
                    # The BL triangulation is never absorbed by the
                    # program; absorb it here so escalations split
                    # between BL and refinement.
                    for tri in self._bl_tris:
                        inner.absorb_kernel(tri)
                    self._bl_tris.clear()
                snap = inner.snapshot()
                with self._lock:
                    self.kernel[layer].merge_plain(snap["kernel"])
                    ev = self.events[layer]
                    for k, n in snap["events"].items():
                        ev[k] = ev.get(k, 0) + int(n)
                if parent is not None:
                    parent.merge_snapshot(snap)
        return sink

    # -- installation --------------------------------------------------
    def install_pipeline(self) -> None:
        """Push-button layers: BL, ADT, intersections, decouple, refine,
        the serial executor and merge."""
        t = self.tracer
        t.wrap_timed(pipeline)
        t.wrap_phase(bl_pipeline)
        t.wrap_phase(executor)
        t.wrap(pipeline, "generate_boundary_layer",
               "bl_pipeline.generate_boundary_layer",
               around=self._layer_sink("bl"))
        t.wrap(bl_pipeline, "triangulate_pslg", "constrained.triangulate_pslg",
               on_return=lambda _sp, tri: self._bl_tris.append(tri))
        for attr, name in (
                ("resolve_self_intersections", _RESOLVE[0]),
                ("resolve_multi_element_intersections", _RESOLVE[1])):
            t.wrap(bl_pipeline, attr, name, on_return=self._truncations)
        t.wrap(ADT, "build", "adt.build")
        t.wrap(ADT, "query", "adt.query", on_return=self._candidates)
        t.wrap_generator(pipeline, "decouple_stream", "decouple.next")
        t.wrap(pipeline, "refine_subdomain", "refine.subdomain",
               around=self._layer_sink("refine"))
        t.wrap(pipeline, "merge_meshes", "merge.meshes")

    def install_adapt(self) -> None:
        """Adaptation loop layers: solver, metric, delaunay.adapt."""
        t = self.tracer
        t.wrap(solver_adapt, "solve_on_mesh", "solver.solve")
        t.wrap(solver_adapt, "pcg", "solver.pcg", on_return=self._iterations)
        t.wrap(solver_adapt, "l2_error", "solver.l2_error")
        t.wrap(MetricField, "from_hessian", "metric.recover")
        t.wrap(MetricField, "limit_gradation", "metric.limit")
        t.wrap(solver_adapt, "adapt_mesh", "adapt.mesh",
               around=self._layer_sink("adapt"), on_return=self._report)
        for p in _ADAPT_PASSES:
            t.wrap(MeshAdaptor, f"{p}_pass", f"adapt.{p}_pass")

    def install_service(self) -> None:
        """Service-side layers: serde codecs and the executor dispatch."""
        t = self.tracer
        for attr, name in (("buffers_to_bytes", "serde.pack"),
                           ("buffers_to_wire", "serde.pack"),
                           ("bytes_to_buffers", "serde.unpack"),
                           ("wire_to_buffers", "serde.unpack"),
                           ("canonical_hash", "serde.hash")):
            t.wrap(serde, attr, name)
        t.wrap(executor.ProcessesBackend, "map_workitems",
               "executor.dispatch", on_return=self._items)

    # -- span annotations ----------------------------------------------
    @staticmethod
    def _truncations(span: Span, n) -> None:
        span.args["truncations"] = int(n)

    @staticmethod
    def _candidates(span: Span, ids) -> None:
        span.args["candidates"] = len(ids)

    @staticmethod
    def _iterations(span: Span, res) -> None:
        span.args["iterations"] = int(res.iterations)

    @staticmethod
    def _items(span: Span, results) -> None:
        span.args["items"] = len(results)

    @staticmethod
    def _report(span: Span, result) -> None:
        _mesh, rep = result
        span.args.update(splits=rep.splits, collapses=rep.collapses,
                         flips=rep.flips, smooth_moves=rep.smooth_moves,
                         conformity=rep.conformity_after)

    # -- metrics ---------------------------------------------------------
    def metrics(self, spans: List[Span], n_ops: int,
                service_delta: Optional[Dict[str, float]] = None
                ) -> Dict[str, float]:
        """Every per-layer metric of one traced pass over ``n_ops`` ops."""
        n = float(max(n_ops, 1))
        by_id = {s.sid: s for s in spans}
        by_name: Dict[str, List[Span]] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)

        def total(name: str) -> float:
            return sum(s.duration for s in by_name.get(name, ()))

        def count(name: str) -> int:
            return len(by_name.get(name, ()))

        def arg_sum(name: str, key: str) -> float:
            return float(sum(s.args.get(key, 0) for s in by_name.get(name, ())))

        def ancestor(span: Span, names) -> Optional[Span]:
            p = by_id.get(span.parent)
            while p is not None and p.name not in names:
                p = by_id.get(p.parent)
            return p

        out: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
        for key, name in (("rays_s", "bl.rays"),
                          ("intersections_s", "bl.intersections"),
                          ("insert_points_s", "bl.insert_points"),
                          ("triangulate_s", "bl.triangulate")):
            out[f"bl_pipeline.{key}"] = total(name) / n
        out["adt.build_s"] = total("adt.build") / n
        out["adt.query_s"] = total("adt.query") / n
        out["adt.query_calls"] = count("adt.query") / n
        out["adt.candidates"] = arg_sum("adt.query", "candidates") / n
        truncations = sum(arg_sum(r, "truncations") for r in _RESOLVE)
        resolve_candidates = sum(
            s.args.get("candidates", 0) for s in by_name.get("adt.query", ())
            if ancestor(s, _RESOLVE) is not None)
        out["intersections.truncations"] = truncations / n
        out["intersections.useful_ratio"] = (
            truncations / resolve_candidates if resolve_candidates else 0.0)
        out["decouple.s"] = total("decouple.next") / n
        out["decouple.subdomains"] = arg_sum("decouple.next", "items") / n
        refines = by_name.get("refine.subdomain", [])
        out["refine.s"] = total("refine.subdomain") / n
        out["refine.items"] = len(refines) / n
        out["refine.item_max_s"] = max((s.duration for s in refines),
                                       default=0.0)
        out["refine.steiner_points"] = (
            self.events["refine"].get("steiner_points", 0) / n)
        for layer in KERNEL_LAYERS:
            k = self.kernel[layer]
            pre = f"kernel.{layer}."
            out[pre + "inserts"] = k.inserts / n
            out[pre + "walk_steps"] = k.walk_steps / n
            out[pre + "predicate_tests"] = (k.orient_tests
                                            + k.incircle_tests) / n
            out[pre + "exact_escalations"] = (k.orient_exact
                                              + k.incircle_exact) / n
            out[pre + "exact_escalation_rate"] = k.exact_escalation_rate
            out[pre + "cavity_triangles"] = k.cavity_triangles / n
        out["merge.s"] = total("merge.meshes") / n
        out["metric.recover_s"] = total("metric.recover") / n
        out["metric.limit_s"] = total("metric.limit") / n
        out["solver.solve_s"] = total("solver.solve") / n
        out["solver.pcg_iterations"] = arg_sum("solver.pcg", "iterations") / n

        # Cycle k of a loop is the k-th adapt.mesh call under its root.
        loops: Dict[int, List[Span]] = {}
        cycle_of: Dict[int, int] = {}
        for s in sorted(by_name.get("adapt.mesh", []), key=lambda s: s.start):
            root = s
            while root.parent in by_id:
                root = by_id[root.parent]
            loops.setdefault(root.sid, []).append(s)
            cycle_of[s.sid] = len(loops[root.sid])
        for p in _ADAPT_PASSES:
            passes = by_name.get(f"adapt.{p}_pass", [])
            out[f"adapt.{p}_s"] = sum(s.duration for s in passes) / n
            for s in passes:
                owner = ancestor(s, ("adapt.mesh",))
                c = cycle_of.get(owner.sid) if owner is not None else None
                if c is not None and c <= ADAPT_CYCLES:
                    out[f"adapt.cycle{c}.{p}_s"] += s.duration / n
        for key in ("splits", "collapses", "flips", "smooth_moves"):
            out[f"adapt.{key}"] = arg_sum("adapt.mesh", key) / n
        if loops:
            out["adapt.conformity"] = sum(
                ms[-1].args.get("conformity", 0.0)
                for ms in loops.values()) / len(loops)

        out["executor.dispatch_s"] = total("executor.dispatch") / n
        out["executor.items"] = arg_sum("executor.dispatch", "items") / n
        out["serde.pack_s"] = total("serde.pack") / n
        out["serde.unpack_s"] = total("serde.unpack") / n
        out["serde.hash_s"] = total("serde.hash") / n
        if service_delta:
            for key, value in service_delta.items():
                out[key] = value
        return out

