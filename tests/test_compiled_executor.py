"""Property suite for the buffer-planned compiled executor.

The compiled path's contract is *byte identity* with the interpreted
:func:`repro.runtime.numerical.execute` oracle — not allclose — across
every registered model, MD-DP-split and pipelined transformed graphs,
batch sizes 1 and 8, and with elision on and off.  Every closure in
``runtime/compiled.py`` re-expresses the interpreter's exact float op
sequence, so any drift is a bug, not tolerance noise.
"""

import pickle

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.ops import is_pim_candidate
from repro.models import build_model, list_models
from repro.runtime.compiled import CompiledExecutable
from repro.runtime.numerical import execute
from repro.runtime.verify import random_feeds, verify_equivalence
from repro.transform.memopt import optimize_memory
from repro.transform.pipeline import pipeline_chain
from repro.transform.split import apply_mddp

SMALL_MODELS = ("toy", "mobilenet-v2", "shufflenet-v2")


def _mddp_split(graph, ratio=0.5):
    g = graph
    for node in graph.toposort():
        shapes = [graph.tensors[t].shape for t in node.inputs]
        if is_pim_candidate(node, shapes):
            g = apply_mddp(g, node.name, ratio)
    return optimize_memory(g)


def _chain_graph(h=14, cin=8, hidden=16, dw_kernel=3, seed=3):
    b = GraphBuilder("p", seed=seed)
    x = b.input("x", (1, h, h, cin))
    y = b.conv(x, cout=hidden, kernel=1, name="pw1")
    y = b.relu(y, name="act1")
    y = b.dwconv(y, kernel=dw_kernel, name="dw1")
    y = b.relu(y, name="act2")
    y = b.conv(y, cout=cin, kernel=1, name="pw2")
    b.output(y)
    return b.build()


def _assert_byte_identical(graph, feeds, ref=None, elide=True, runs=2):
    """Compiled output must match the interpreter bit for bit — on the
    first run *and* on repeats (which reuse the arena and must not see
    stale bytes, clobbered margins, or aliased leftovers)."""
    if ref is None:
        ref = execute(graph, feeds)
    exe = CompiledExecutable(graph, elide=elide)
    for run in range(runs):
        out = exe.run(feeds)
        assert set(out) == set(ref)
        for name in ref:
            a, b = ref[name], out[name]
            assert a.shape == b.shape, (name, run)
            assert a.dtype == b.dtype, (name, run)
            assert a.tobytes() == b.tobytes(), \
                f"{name} differs from the oracle on run {run} (elide={elide})"
    return ref


class TestRegistryOriginal:
    @pytest.mark.parametrize("model", list_models())
    def test_byte_identity_batch1(self, model):
        graph = build_model(model)
        feeds = random_feeds(graph, seed=0)
        _assert_byte_identical(graph, feeds)


class TestTransformed:
    @pytest.mark.parametrize("model", SMALL_MODELS)
    @pytest.mark.parametrize("batch", [1, 8])
    def test_mddp_split_byte_identity(self, model, batch):
        graph = _mddp_split(build_model(model))
        feeds = random_feeds(graph, seed=0, batch=batch)
        ref = execute(graph, feeds)
        for elide in (True, False):
            _assert_byte_identical(graph, feeds, ref=ref, elide=elide)

    @pytest.mark.parametrize("stages", [2, 3, 4])
    @pytest.mark.parametrize("batch", [1, 8])
    def test_pipelined_byte_identity(self, stages, batch):
        graph = optimize_memory(pipeline_chain(
            _chain_graph(), ("pw1", "act1", "dw1", "act2", "pw2"),
            num_stages=stages))
        feeds = random_feeds(graph, seed=0, batch=batch)
        ref = execute(graph, feeds)
        for elide in (True, False):
            _assert_byte_identical(graph, feeds, ref=ref, elide=elide)


class TestAliasing:
    def test_outputs_are_private_copies(self):
        graph = build_model("toy")
        feeds = random_feeds(graph, seed=0)
        exe = CompiledExecutable(graph)
        ref = execute(graph, feeds)
        first = exe.run(feeds)
        for arr in first.values():
            arr.fill(np.float32(123.0))  # must not poison the arena
        second = exe.run(feeds)
        for name in ref:
            assert ref[name].tobytes() == second[name].tobytes()

    def test_elided_view_never_sees_inplace_mutation(self):
        # s is a Slice view of conv output c; r = relu(c) is in-place
        # capable.  If the executor let Relu overwrite c's buffer, the
        # view s would observe relu'd values.  The planner must refuse
        # (c has two consumers), keeping s byte-identical to the oracle.
        b = GraphBuilder("alias", seed=1)
        x = b.input("x", (1, 8, 8, 4))
        c = b.conv(x, cout=4, kernel=3, name="c1")
        s = b.slice(c, axis=1, start=0, end=4, name="s1")
        r = b.relu(c, name="r1")
        s2 = b.conv(s, cout=4, kernel=1, name="c2")
        b.output(s2)
        b.output(r)
        graph = b.build()
        feeds = random_feeds(graph, seed=1)
        _assert_byte_identical(graph, feeds)

    def test_concat_input_also_graph_output(self):
        # An elided Concat input that is itself a graph output must not
        # be co-allocated into the concat buffer in a way that changes
        # its observable value.
        b = GraphBuilder("cc", seed=2)
        x = b.input("x", (1, 8, 8, 4))
        a = b.conv(x, cout=4, kernel=1, name="ca")
        c = b.conv(x, cout=4, kernel=1, name="cb")
        cat = b.concat([a, c], axis=1, name="cat")
        y = b.conv(cat, cout=4, kernel=1, name="cc")
        b.output(y)
        b.output(a)
        graph = optimize_memory(b.build())
        feeds = random_feeds(graph, seed=2)
        _assert_byte_identical(graph, feeds)


class TestStackWiring:
    def test_engine_infer_matches_oracle_and_stays_picklable(self):
        from repro.gpu.config import GpuConfig
        from repro.gpu.device import GpuDevice
        from repro.runtime.engine import ExecutionEngine

        graph = build_model("toy")
        feeds = random_feeds(graph, seed=0)
        engine = ExecutionEngine(GpuDevice(GpuConfig()))
        ref = engine.infer(graph, feeds, compiled=False)
        out = engine.infer(graph, feeds, compiled=True)
        again = engine.infer(graph, feeds, compiled=True)  # cached exe
        for name in ref:
            assert ref[name].tobytes() == out[name].tobytes()
            assert ref[name].tobytes() == again[name].tobytes()
        assert len(engine._compiled_cache) == 1
        # The closure cache must not break engine pickling (job-engine
        # workers ship engines across processes).
        rebuilt = pickle.loads(pickle.dumps(engine))
        assert rebuilt._compiled_cache == {}

    def test_verify_equivalence_uses_compiled_path(self):
        graph = build_model("toy")
        split = _mddp_split(graph)
        assert verify_equivalence(graph, split) < 1e-3
        assert verify_equivalence(graph, split, use_compiled=False) < 1e-3

    def test_plan_records_and_serves_buffer_stats(self, tmp_path):
        from repro.pimflow import PimFlow, PimFlowConfig
        from repro.plan.artifact import ExecutionPlan
        from repro.runtime.executor import PlanExecutor

        flow = PimFlow(PimFlowConfig(mechanism="pimflow"))
        plan = flow.build_plan(build_model("toy"), model_name="toy")
        assert plan.buffer_plan["arena_bytes"] > 0

        path = tmp_path / "plan.json"
        plan.save(path, include_weights=True)
        loaded = ExecutionPlan.load(path)
        assert loaded.buffer_plan == plan.buffer_plan

        executor = PlanExecutor(loaded)
        assert executor.buffer_stats() == plan.buffer_plan
        feeds = random_feeds(loaded.graph, seed=0)
        ref = executor.infer(feeds, compiled=False)
        out = executor.infer(feeds, compiled=True)
        for name in ref:
            assert ref[name].tobytes() == out[name].tobytes()

    def test_plan_without_buffer_stats_recomputes(self):
        from repro.plan.artifact import ExecutionPlan

        data = {"version": 1, "mechanism": "pimflow",
                "config_fingerprint": "x", "predicted_time_us": 0.0,
                "decisions": [], "runtime_spec": {}}
        from repro.graph.serialize import graph_to_dict
        data["graph"] = graph_to_dict(build_model("toy"))
        plan = ExecutionPlan.from_dict(data)
        assert plan.buffer_plan == {}

    def test_batch_polymorphic_program_cache(self):
        graph = build_model("toy")
        exe = CompiledExecutable(graph)
        for batch in (1, 8, 1):
            feeds = random_feeds(graph, seed=0, batch=batch)
            ref = execute(graph, feeds)
            out = exe.run(feeds)
            for name in ref:
                assert ref[name].tobytes() == out[name].tobytes()
        assert len(exe._pools) == 2  # one program per input-shape set

    def test_graph_version_invalidates_programs(self):
        graph = build_model("toy")
        feeds = random_feeds(graph, seed=0)
        exe = CompiledExecutable(graph)
        exe.run(feeds)
        graph.touch()
        out = exe.run(feeds)  # must rebind, not serve the stale program
        ref = execute(graph, feeds)
        for name in ref:
            assert ref[name].tobytes() == out[name].tobytes()

    def test_stats_surface(self):
        exe = CompiledExecutable(build_model("toy"))
        stats = exe.stats()
        assert stats["arena_bytes"] > 0
        assert stats["padded_conv_reads"] > 0
