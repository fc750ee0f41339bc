"""Tests for region extraction and profiling."""

import json

import numpy as np
import pytest

from repro.gpu.device import GpuDevice
from repro.models import build_model
from repro.pim.device import PimDevice
from repro.pimflow import Compiler, PimFlowConfig
from repro.plan.cache import ProfileCache
from repro.runtime.engine import ExecutionEngine
from repro.runtime.numerical import execute
from repro.search.profiler import (
    extract_subgraph,
    profile_pipeline,
    profile_split,
)


@pytest.fixture
def engine():
    return ExecutionEngine(GpuDevice(), PimDevice())


class TestExtractSubgraph:
    def test_single_node_region(self, pointwise_chain_graph):
        region = extract_subgraph(pointwise_chain_graph, ["dw1"])
        region.validate()
        assert len(region) == 1
        assert len(region.inputs) == 1
        assert region.outputs == [pointwise_chain_graph.node("dw1").outputs[0]]

    def test_chain_region(self, pointwise_chain_graph):
        region = extract_subgraph(pointwise_chain_graph,
                                  ["pw1", "act1", "dw1"])
        region.validate()
        assert len(region) == 3
        assert region.inputs == ["x"]

    def test_weights_carried(self, pointwise_chain_graph):
        region = extract_subgraph(pointwise_chain_graph, ["pw1"])
        w = pointwise_chain_graph.node("pw1").inputs[1]
        assert w in region.initializers

    def test_region_is_executable(self, pointwise_chain_graph, rng):
        region = extract_subgraph(pointwise_chain_graph, ["dw1"])
        feed_shape = region.tensors[region.inputs[0]].shape
        out = execute(region, {region.inputs[0]:
                               rng.standard_normal(feed_shape)})
        assert len(out) == 1

    def test_region_matches_full_graph_numerics(self, pointwise_chain_graph,
                                                rng):
        feed = {"x": rng.standard_normal((1, 14, 14, 8))}
        full = execute(pointwise_chain_graph, feed)
        region = extract_subgraph(
            pointwise_chain_graph,
            [n.name for n in pointwise_chain_graph.nodes])
        out = execute(region, feed)
        for k in full:
            np.testing.assert_allclose(full[k], out[k], atol=1e-5)

    def test_missing_node_rejected(self, pointwise_chain_graph):
        with pytest.raises(KeyError):
            extract_subgraph(pointwise_chain_graph, ["nope"])

    def test_graph_output_preserved(self, pointwise_chain_graph):
        region = extract_subgraph(pointwise_chain_graph, ["pw2"])
        assert region.outputs == pointwise_chain_graph.outputs


class TestProfileSplit:
    def test_all_ratios_measured(self, small_conv_graph, engine):
        results = profile_split(small_conv_graph, "c0", engine,
                                [0.0, 0.5, 1.0])
        assert set(results) == {0.0, 0.5, 1.0}
        assert all(v > 0 for v in results.values())

    def test_split_beats_worse_device_for_balanced_layer(self, engine):
        from repro.graph.builder import GraphBuilder
        b = GraphBuilder(seed=20)
        x = b.input("x", (1, 14, 14, 192))
        b.output(b.conv(x, cout=1152, kernel=1, name="c"))
        g = b.build()
        res = profile_split(g, "c", engine,
                            [round(0.1 * i, 1) for i in range(11)])
        best = min(res.values())
        # The paper's core claim: splitting beats both extremes when
        # neither device dominates.
        assert best <= res[0.0]
        assert best <= res[1.0]

    def test_unsplittable_ratio_skipped(self, fc_graph, engine):
        # Non-constant weights cannot split at interior ratios; wire a
        # MatMul on two activations.
        from repro.graph.builder import GraphBuilder
        b = GraphBuilder()
        a = b.input("a", (1, 8))
        w = b.input("w", (8, 4))
        b.output(b.matmul(a, w, name="mm"))
        g = b.build()
        res = profile_split(g, "mm", engine, [0.0, 0.5, 1.0])
        assert 0.5 not in res
        assert {0.0, 1.0} <= set(res)


class TestProfilePipeline:
    def test_measures_chain(self, pointwise_chain_graph, engine):
        t = profile_pipeline(pointwise_chain_graph, ("pw1", "act1", "dw1"),
                             engine, num_stages=2)
        assert t is not None and t > 0

    def test_unsplittable_returns_none(self, engine):
        from repro.graph.builder import GraphBuilder
        b = GraphBuilder(seed=21)
        x = b.input("x", (1, 3, 8, 8))
        y = b.conv(x, cout=8, kernel=1, name="pw")
        y = b.dwconv(y, kernel=3, stride=2, name="dw")  # out H = 2
        b.output(y)
        g = b.build()
        t = profile_pipeline(g, ("pw", "dw"), engine, num_stages=4)
        assert t is None


class TestProfileGpu:
    def test_gpu_region_time(self, pointwise_chain_graph, engine):
        from repro.search.profiler import measure_region

        def gpu_time(names):
            region = extract_subgraph(pointwise_chain_graph, names)
            (m,) = measure_region(region, "gpu", names, engine)
            assert m.mode == "gpu"
            return m.time_us

        t = gpu_time(["pw1", "act1"])
        assert t > 0
        assert t > gpu_time(["pw1"])


def _profile_toy(cache=None):
    compiler = Compiler(PimFlowConfig(mechanism="pimflow"), cache=cache)
    table = compiler.profile(compiler.prepare(build_model("toy")))
    return compiler, table


class TestRegionProfiler:
    def test_summary_counts_every_request(self):
        compiler, table = _profile_toy()
        summary = compiler.last_profile_summary
        assert set(summary) == {"candidates", "samples", "requests",
                                "cache_hits", "simulated", "wall_s"}
        assert summary["samples"] == len(table)
        assert summary["candidates"] > 0
        assert summary["simulated"] > 0
        assert summary["simulated"] + summary["cache_hits"] == \
            summary["requests"]
        assert summary["wall_s"] > 0

    def test_cold_compile_serves_structural_duplicates(self, tmp_path):
        compiler, _ = _profile_toy(ProfileCache(tmp_path / "cache"))
        hits = compiler.cache.stats()["hits"]
        assert hits > 0
        assert compiler.last_profile_summary["cache_hits"] == hits

    def test_warm_disk_cache_runs_no_simulator(self, tmp_path):
        _, cold = _profile_toy(ProfileCache(tmp_path / "cache"))
        warm_compiler, warm = _profile_toy(ProfileCache(tmp_path / "cache"))
        assert warm.to_dict() == cold.to_dict()
        assert warm_compiler.engine.run_count == 0
        assert warm_compiler.last_profile_summary["simulated"] == 0

    def test_repeat_compiles_build_identical_plans(self):
        model = build_model("toy")

        def plan_json():
            plan = Compiler(PimFlowConfig()).build_plan(model,
                                                        model_name="toy")
            data = plan.to_dict()
            data["provenance"].pop("created_at")
            # wall-clock per-pass timings are provenance, not structure
            for record in data["provenance"].get("passes", []):
                record.pop("wall_ms")
            return json.dumps(data, sort_keys=True)

        assert plan_json() == plan_json()
