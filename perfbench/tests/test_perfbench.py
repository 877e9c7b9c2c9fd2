"""Tests of the benchmark itself (tiny sizes, one operation per pass).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, run, workloads  # noqa: E402
from perfbench.tracer import Span, Tracer, union_length  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=str(cwd), capture_output=True,
                          text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the catalogues the driver prints
# ----------------------------------------------------------------------
def test_benchmark_json_matches_catalogues():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        layers.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_same_seed_same_stream_other_seed_other_stream():
    a = [workloads.request_stream(5, r) for r in range(3)]
    assert a == [workloads.request_stream(5, r) for r in range(3)]
    assert a != [workloads.request_stream(6, r) for r in range(3)]


def test_rounds_cover_their_requests_and_share_no_geometry():
    seen = set()
    for r in range(4):
        codes, seq = workloads.request_stream(11, r)
        assert len(codes) == workloads.DISTINCT_PER_ROUND
        assert len(seq) == workloads.REQUESTS_PER_ROUND
        assert set(seq) == set(range(len(codes)))
        assert not seen & set(codes)
        seen |= set(codes)


def test_tail_latency_uses_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(240)]
    value, label = workloads.tail_latency(values)
    assert label == "p95" and value == 227.0
    assert sum(v > value for v in values) >= 10
    assert workloads.tail_latency([3.0, 1.0, 2.0]) == (3.0, "max")


# ----------------------------------------------------------------------
# Tracer mechanics
# ----------------------------------------------------------------------
def _span(sid, parent, start, end, name="x"):
    s = Span(sid, name, parent, start, 0, None)
    s.end = end
    return s


def test_self_time_subtracts_covered_children_once():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 4.0),
             _span(3, 1, 3.0, 6.0), _span(4, 2, 1.5, 2.0)]
    selfs = Tracer.self_times(spans)
    assert selfs == pytest.approx({1: 5.0, 2: 2.5, 3: 3.0, 4: 0.5})
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_probe_restores_every_patched_name():
    from repro.core import bl_pipeline, pipeline
    from repro.metric import MetricField
    from repro.spatial.adt import ADT

    before = (pipeline.generate_boundary_layer, pipeline.timed,
              bl_pipeline.phase, ADT.query, vars(MetricField)["from_hessian"])
    tracer = Tracer()
    probe = layers.LayerProbe(tracer)
    probe.install_pipeline()
    probe.install_adapt()
    probe.install_service()
    assert pipeline.generate_boundary_layer is not before[0]
    tracer.restore()
    assert (pipeline.generate_boundary_layer, pipeline.timed,
            bl_pipeline.phase, ADT.query,
            vars(MetricField)["from_hessian"]) == before


# ----------------------------------------------------------------------
# Tiny runs of every workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = _result(_bench("--workload", workload, "--seed", "7", "--tiny",
                         "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [n for n, _u in run.END_TO_END]
    for name, unit in run.END_TO_END:
        assert res["metrics"][name]["unit"] == unit
        assert res["metrics"][name]["value"] > 0, name
    record = json.loads((ROOT / "perfbench" / "out" /
                         f"result-{workload}-seed7-trace0.json").read_text())
    assert record["machine"]["usable_cpus"] >= 1
    assert record["machine"]["python"] and record["machine"]["numpy"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_nested_spans(workload):
    res = _result(_bench("--workload", workload, "--seed", "7", "--tiny",
                         "--trace", "1"))
    assert res["correct"]
    assert list(res["metrics"]) == [n for n, _u in layers.PER_LAYER]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    for name, unit in layers.PER_LAYER:
        assert res["metrics"][name]["unit"] == unit

    record = json.loads((ROOT / "perfbench" / "out" /
                         f"result-{workload}-seed7-trace1.json").read_text())
    trace = json.loads((ROOT / record["info"]["trace_file"]).read_text())
    events = {e["args"]["id"]: e for e in trace["traceEvents"]}
    assert events
    for e in events.values():
        parent = events.get(e["args"]["parent"])
        if parent is not None:
            assert parent["ts"] <= e["ts"] + 1e-3
            assert e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1e-3

    if workload == "service_mix":
        # The traced round is new to the cache: its 2 requests miss.
        assert 0 < m["service.hit_ratio"] < 1
        assert m["executor.items"] == 2
        assert m["serde.hash_s"] > 0
        assert any("rid" in e["args"] for e in events.values())
        return
    esc = record["info"]["exact_escalations"]
    assert esc["total"] == esc["bl"] + esc["refine"] + esc["adapt"] > 0
    # One thread: layer self times plus the uncovered rest are the wall.
    assert m["trace.self_sum_s"] + m["trace.uncovered_s"] == \
        pytest.approx(record["info"]["op_wall_s"], rel=1e-6)
    if workload == "adapt_shear":
        assert m["adapt.flip_s"] > 0 and m["kernel.adapt.inserts"] > 0
        assert m["solver.pcg_iterations"] > 0 and m["metric.recover_s"] > 0
        assert m["bl_pipeline.rays_s"] == 0
    else:
        assert m["kernel.bl.predicate_tests"] > 0
        assert m["kernel.refine.predicate_tests"] > 0
        assert m["kernel.bl.exact_escalations"] > 0
        assert m["kernel.refine.exact_escalations"] > 0
        assert m["refine.items"] > 0 and m["adt.query_calls"] > 0
        assert m["adapt.flip_s"] == 0


def test_without_program_source_it_fails_without_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "naca0012", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
