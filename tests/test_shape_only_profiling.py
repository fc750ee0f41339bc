"""Profiling on shape-only regions.

The profiler measures regions whose initializers are zero-stride
placeholders (:func:`repro.graph.shape_only`): the timing models never
read weight values, so a placeholder region must measure exactly like
the weighted one, cost no weight memory, and never reach a plan.
"""

import tracemalloc

import numpy as np
import pytest

from repro.graph import GraphBuilder, GraphError, is_shape_only, shape_only
from repro.models import build_model, list_models
from repro.pimflow import Compiler, PimFlowConfig
from repro.search.profiler import (
    ProfileRequest,
    RegionProfiler,
    extract_subgraph,
    measure_region,
)

MECHANISMS = ("gpu", "newton++", "pimflow-md", "pimflow")

#: tracemalloc ceiling for profiling one split of a 128 MB FC layer;
#: copying weight slabs at each ratio peaks at >= 128 MB.
PEAK_LIMIT_BYTES = 4 << 20


def _big_fc(k=8192, n=4096):
    b = GraphBuilder("bigfc", seed=3)
    x = b.input("x", (1, k))
    b.output(b.gemm(x, n, name="fc"))
    return b.build()


class TestPlaceholder:
    def test_metadata_matches_real_array(self):
        real = np.ones((64, 48), dtype=np.float32)
        ph = shape_only(real.shape, real.dtype)
        assert ph.shape == real.shape and ph.dtype == real.dtype
        assert ph.nbytes == real.nbytes
        assert is_shape_only(ph) and not is_shape_only(real)
        assert not ph.flags.writeable

    def test_slices_stay_placeholders(self):
        ph = shape_only((64, 48))
        assert is_shape_only(ph[:, 10:30])
        assert is_shape_only(shape_only((48,))[5:9])
        assert not is_shape_only(np.ascontiguousarray(ph[:, 10:30]))

    def test_extract_default_keeps_real_weights(self, fc_graph):
        weighted = extract_subgraph(fc_graph, ["fc0"])
        lean = extract_subgraph(fc_graph, ["fc0"], include_weights=False)
        assert set(weighted.initializers) == set(lean.initializers)
        for name, value in fc_graph.initializers.items():
            assert weighted.initializers[name] is value
            assert is_shape_only(lean.initializers[name])
            assert lean.initializers[name].shape == value.shape


class TestValueIndependence:
    @pytest.mark.parametrize("model", list_models())
    def test_shape_only_region_measures_identically(self, model):
        compiler = Compiler(PimFlowConfig(mechanism="pimflow"))
        graph = compiler.prepare(build_model(model))
        requests, _ = compiler._profile_requests(graph)
        for request in requests:
            tables = [
                measure_region(
                    extract_subgraph(graph, request.nodes,
                                     include_weights=weights),
                    request.kind, request.nodes, compiler.engine,
                    ratios=request.ratios, stages=request.stages)
                for weights in (True, False)]
            assert tables[0] == tables[1], request


class TestPlanSafety:
    @pytest.mark.parametrize("model", list_models())
    def test_plan_weights_are_real(self, model):
        graph = build_model(model)
        for mechanism in MECHANISMS:
            plan = Compiler(PimFlowConfig(mechanism=mechanism)).build_plan(
                graph, model_name=model)
            leaked = [name for name, value in plan.graph.initializers.items()
                      if is_shape_only(value)]
            assert not leaked, mechanism

    def test_split_fc_weights_are_real_slabs(self, fc_graph):
        plan = Compiler(PimFlowConfig(mechanism="pimflow")).build_plan(
            fc_graph)
        (weight,) = [v for v in fc_graph.initializers.values() if v.ndim == 2]
        parts = [plan.graph.initializers[n.inputs[1]]
                 for n in plan.graph.nodes if n.op_type == "Gemm"]
        assert np.array_equal(np.concatenate(parts, axis=1), weight)
        assert all(p.flags.c_contiguous and p.flags.writeable for p in parts)

    def test_build_plan_rejects_placeholder_weights(self, fc_graph):
        graph = fc_graph.clone()
        for name, value in graph.initializers.items():
            graph.initializers[name] = shape_only(value.shape, value.dtype)
        with pytest.raises(GraphError, match="shape-only"):
            Compiler(PimFlowConfig(mechanism="gpu")).build_plan(graph)


class TestProfilingMemory:
    def _split_request(self, compiler):
        ratios = sorted(set(compiler.config.spec.split_ratios) | {1.0})
        return ("fc",), tuple(ratios)

    def test_serial_split_copies_no_weights(self):
        graph = _big_fc()
        compiler = Compiler(PimFlowConfig(mechanism="pimflow"))
        nodes, ratios = self._split_request(compiler)
        profiler = RegionProfiler(compiler.engine)
        tracemalloc.start()
        try:
            (samples,) = profiler.profile_requests(
                graph, [ProfileRequest("split", nodes, ratios)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert any(m.mode == "split" for m in samples)
        assert peak < PEAK_LIMIT_BYTES, peak
