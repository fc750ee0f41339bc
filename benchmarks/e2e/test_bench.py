"""Self-tests of the end-to-end benchmark::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_match_benchmark_json():
    for section, table in (("end_to_end", workloads.END_TO_END),
                           ("per_layer", workloads.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[section]} == table
        assert all(NAME.fullmatch(name) for name in table)
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(bench.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert all(NAME.fullmatch(name) for name in names)


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"}
               for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 <= b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(m["better"] in ("lower", "higher")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_seed_drives_feeds_order_and_arrivals():
    from repro.models import build_model

    graph = build_model("toy")
    a, b, c = (workloads.feed_pool(graph, 2, seed) for seed in (1, 1, 2))
    for x, y, z in zip(a, b, c):
        for name in graph.inputs:
            assert x[name].shape[0] == 2
            assert np.array_equal(x[name], y[name])
            assert not np.array_equal(x[name], z[name])

    def orders(seed):
        return list(itertools.islice(workloads.compile_orders(seed), 3))

    assert orders(1) == orders(1) != orders(2)
    assert sorted(orders(1)[0]) == sorted(
        (m, mech) for m in workloads.CNN5 for mech in workloads.MECHANISMS)

    one = workloads.arrival_schedule(1, 10.0)
    assert one == workloads.arrival_schedule(1, 10.0)
    assert one != workloads.arrival_schedule(2, 10.0)
    assert len(one) == len(workloads.arrival_schedule(2, 10.0)) == 120
    assert all(0 <= t < 10.0 for t, _, _ in one)
    assert [t for t, _, _ in one] == sorted(t for t, _, _ in one)


@pytest.mark.parametrize("a, b, better, expected", [
    ([100, 101, 99, 100, 102], [101, 100, 100, 99, 102], "lower", "unchanged"),
    ([100, 101, 99, 100, 102], [130, 131, 129, 130, 132], "lower", "worse"),
    ([100, 101, 99, 100, 102], [80, 81, 79, 80, 82], "lower", "better"),
    ([10, 10.1, 9.9, 10, 10.2], [7, 7.1, 6.9, 7, 7.2], "higher", "worse"),
    ([50, 100, 150, 80, 120], [60, 110, 140, 90, 100], "lower", "unresolved"),
    ([50, 100, 150, 80, 120], [20, 30, 25, 40, 35], "lower", "better"),
    ([1.5, 1.5], [1.5, 1.5], "higher", "unchanged"),
])
def test_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, 0.15, better) == expected


def _record(value, failed=0, modelled=1.0, cpu_count=2):
    return {"schema": 1, "workload": "w", "attempted": 10, "failed": failed,
            "fingerprint": {"cpu_count": cpu_count},
            "modelled": {"makespan_us.m.pimflow": modelled},
            "end_to_end": {"latency_p50_ms": {"value": value, "unit": "ms"}},
            "per_layer": {}}


def _verdicts(rows):
    return {row[1]: row[5] for row in rows}


def test_compare_reports_error_rate_drift_and_fingerprints():
    base = [_record(v) for v in (100, 101, 99)]
    rows, status = compare.compare(base, [_record(v) for v in (100, 99, 101)],
                                   SPEC)
    assert status == 0
    assert _verdicts(rows) == {"latency_p50_ms": "unchanged",
                               "error_rate": "unchanged",
                               "modelled": "identical"}

    rows, status = compare.compare(base, [_record(100, failed=1)], SPEC)
    assert status == 1 and _verdicts(rows)["error_rate"] == "worse"

    rows, status = compare.compare(base, [_record(100, modelled=1.1)], SPEC)
    assert status == 1 and _verdicts(rows)["modelled"].startswith("changed")

    rows, status = compare.compare(base, [_record(100, cpu_count=4)], SPEC)
    assert status == 2 and "cpu_count" in rows[0][5]


def test_tracer_self_time_and_chrome_export(tmp_path):
    tr = Tracer()
    root = tr.add("round", 0.0, 10.0)
    build = tr.add("pimflow.build_plan", 1.0, 9.0, root, model="m", n=3)
    tr.add("search.profile", 2.0, 5.0, build)
    tr.add("search.solve", 4.0, 6.0, build)
    req = tr.add("request", 0.0, 2.0, request=7)
    tr.add("serve.queue", 0.0, 1.0, req)
    tr.add("request", 1.0, 3.0, request=8)

    (unit,) = tr.unit_totals("round")
    assert unit["pimflow.build_plan"] == 8.0
    assert unit["pimflow.build_plan:self"] == 4.0   # 8 s minus [2, 6]
    assert unit["pimflow.build_plan#n"] == 3
    assert unit["search.profile"] == 3.0

    path = tmp_path / "t.json"
    tr.write(path, {"workload": "w"})
    events = json.loads(path.read_text())["traceEvents"]
    spans = {e["args"]["span"]: e for e in events if e["ph"] == "X"}
    assert len(spans) == 7
    # Overlapping requests get separate lanes; children share theirs.
    lanes = {e["args"].get("request"): e["tid"] for e in spans.values()
             if e["name"] == "request"}
    assert lanes[7] != lanes[8]
    assert spans[req + 1]["tid"] == lanes[7]


def test_run_fails_without_program_source(tmp_path):
    """In a directory holding only the benchmark, a run must fail
    without printing a result."""
    dest = tmp_path / "benchmarks" / "e2e"
    dest.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, dest)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "run", "--workload",
         "compile-cnn5", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_smoke_run_emits_every_metric(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "run", "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", trace,
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    table = workloads.PER_LAYER if trace == "1" else workloads.END_TO_END
    assert {k: m["unit"] for k, m in line["metrics"].items()} == table
    assert all(m["value"] > 0 for m in line["metrics"].values())

    (record_path,) = [p for p in tmp_path.glob("*.json")
                      if not p.name.endswith(".trace.json")]
    record = json.loads(record_path.read_text())
    assert set(record["fingerprint"]) >= {"cpu_count", "blas", "blas_threads",
                                          "python", "numpy", "repro_env"}
    assert record["modelled"]
    if trace == "1":
        (trace_path,) = tmp_path.glob("*.trace.json")
        events = json.loads(trace_path.read_text())["traceEvents"]
        assert {"setup", "check", "pimflow.build_plan", "search.profile",
                "engine.schedule", "numerical.oracle"} <= {
            e["name"] for e in events}
        assert all({"name", "ph", "pid", "tid"} <= set(e) for e in events)
        assert all({"ts", "dur"} <= set(e) for e in events if e["ph"] == "X")
