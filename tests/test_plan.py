"""Tests for the compile-once artifact: fingerprints and ExecutionPlan."""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.models import build_model, list_models
from repro.pimflow import MECHANISMS, Compiler, PimFlow, PimFlowConfig
from repro.plan import (
    ExecutionPlan,
    PlanFormatError,
    canonical_region,
    config_fingerprint,
    graph_fingerprint,
    region_fingerprint,
    stable_hash,
)
from repro.runtime.executor import PlanExecutor
from repro.search.table import MeasurementTable, RegionMeasurement


def _conv_graph(name="g", cin=8, cout=16, kernel=3, node="c0"):
    b = GraphBuilder(name, seed=5)
    x = b.input("x", (1, 14, 14, cin))
    y = b.conv(x, cout=cout, kernel=kernel, name=node)
    b.output(y)
    return b.build()


@pytest.fixture(scope="module")
def toy():
    return build_model("toy")


class TestFingerprints:
    def test_stable_hash_deterministic(self):
        payload = {"b": 2, "a": [1, 2, (3, 4)]}
        assert stable_hash(payload) == stable_hash({"a": [1, 2, (3, 4)], "b": 2})

    def test_identical_structure_same_fingerprint(self):
        a = _conv_graph(name="one", node="convA")
        b = _conv_graph(name="two", node="convB")
        # Different graph, node and tensor names; same structure.
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_shape_change_changes_fingerprint(self):
        assert graph_fingerprint(_conv_graph(cout=16)) != \
            graph_fingerprint(_conv_graph(cout=32))

    def test_attr_change_changes_fingerprint(self):
        assert graph_fingerprint(_conv_graph(kernel=3)) != \
            graph_fingerprint(_conv_graph(kernel=1))

    def test_region_params_distinguish_slots(self):
        g = _conv_graph()
        assert region_fingerprint(g, "split", ratios=[0.0, 1.0]) != \
            region_fingerprint(g, "split", ratios=[0.0, 0.5, 1.0])
        assert region_fingerprint(g, "pipeline", stages=2) != \
            region_fingerprint(g, "pipeline", stages=3)
        assert region_fingerprint(g, "gpu") != \
            region_fingerprint(g, "split", ratios=[0.0, 1.0])

    def test_canonical_region_renames_everything(self):
        desc = canonical_region(_conv_graph(node="weird_name"))
        blob = str(desc)
        assert "weird_name" not in blob
        assert "in0" in blob and "t0" in blob

    def test_config_fingerprint_sensitivity(self):
        a = Compiler(PimFlowConfig(mechanism="pimflow"))
        b = Compiler(PimFlowConfig(mechanism="pimflow"))
        c = Compiler(PimFlowConfig(mechanism="newton++"))
        d = Compiler(PimFlowConfig(mechanism="pimflow",
                                   pipeline_stages=3))
        assert a.config_fingerprint == b.config_fingerprint
        assert a.config_fingerprint != c.config_fingerprint
        assert a.config_fingerprint != d.config_fingerprint

    def test_channel_split_changes_fingerprint(self):
        from repro.memsys.system import MemorySystem

        a = Compiler(PimFlowConfig(mechanism="pimflow"))
        b = Compiler(PimFlowConfig(mechanism="pimflow",
                                   memory=MemorySystem(32, 8)))
        assert a.config_fingerprint != b.config_fingerprint

    def test_config_fingerprint_is_generic(self):
        fp = config_fingerprint(mechanism="x", spec=None, gpu_config={"a": 1},
                                pim_config=None, pim_opts=None)
        assert isinstance(fp, str) and len(fp) == 64


class TestExecutionPlanRoundTrip:
    @pytest.fixture(scope="class")
    def plan_and_flow(self, toy):
        flow = PimFlow(PimFlowConfig(mechanism="pimflow"))
        compiled = flow.compile(toy)
        plan = flow.build_plan(toy, model_name="toy", with_traces=True,
                               compiled=compiled)
        return plan, flow, compiled

    def test_round_trip_identical_schedule_and_makespan(
            self, plan_and_flow, tmp_path):
        plan, flow, compiled = plan_and_flow
        direct = flow.engine.run(compiled.graph)
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = ExecutionPlan.load(path)
        result = PlanExecutor(loaded).run()
        assert result.makespan_us == direct.makespan_us
        assert result.events == direct.events

    def test_round_trip_preserves_decisions(self, plan_and_flow, tmp_path):
        plan, _, compiled = plan_and_flow
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = ExecutionPlan.load(path)
        assert loaded.decision_objects() == compiled.decisions

    def test_to_dict_from_dict_idempotent(self, plan_and_flow):
        plan, _, _ = plan_and_flow
        once = plan.to_dict()
        twice = ExecutionPlan.from_dict(once).to_dict()
        assert once == twice

    def test_lean_plan_reproduces_makespan(self, plan_and_flow, tmp_path):
        """Weight values never influence timing, so weight-free plans
        (the practical artifact for large models) run identically."""
        plan, flow, compiled = plan_and_flow
        path = tmp_path / "lean.json"
        plan.save(path, include_weights=False)
        result = PlanExecutor(path).run()
        assert result.makespan_us == flow.engine.run(compiled.graph).makespan_us

    def test_traces_attached_and_serialized(self, plan_and_flow, tmp_path):
        plan, _, compiled = plan_and_flow
        pim_layers = [n.name for n in compiled.graph.nodes
                      if n.device == "pim" and n.op_type == "Conv"]
        assert plan.traces
        assert set(plan.traces) <= set(n.name for n in compiled.graph.nodes)
        assert pim_layers  # the toy model offloads something
        path = tmp_path / "plan.json"
        plan.save(path)
        assert ExecutionPlan.load(path).traces == plan.traces

    def test_unsupported_version_rejected(self, plan_and_flow):
        plan, _, _ = plan_and_flow
        data = plan.to_dict()
        data["version"] = 99
        with pytest.raises(PlanFormatError):
            ExecutionPlan.from_dict(data)

    def test_diff_empty_for_identical(self, plan_and_flow):
        plan, _, _ = plan_and_flow
        clone = ExecutionPlan.from_dict(plan.to_dict())
        assert plan.diff(clone) == []

    def test_diff_reports_mechanism_and_decisions(self, plan_and_flow, toy):
        plan, _, _ = plan_and_flow
        other = PimFlow(PimFlowConfig(mechanism="newton++")).build_plan(
            toy, model_name="toy")
        lines = plan.diff(other)
        assert any("mechanism" in line for line in lines)

    def test_provenance(self, plan_and_flow):
        plan, _, _ = plan_and_flow
        assert plan.provenance["model"] == "toy"
        assert plan.provenance["source_graph_fingerprint"]
        assert plan.provenance["measurements"] > 0

    def test_summary(self, plan_and_flow):
        plan, _, _ = plan_and_flow
        info = plan.summary()
        assert info["mechanism"] == "pimflow"
        assert info["decisions"] == len(plan.decisions)


class TestPlanRegression:
    """PimFlow.run() and the compile-once path must agree exactly."""

    @pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
    def test_toy_plan_matches_direct_run(self, toy, mechanism, tmp_path):
        flow = PimFlow(PimFlowConfig(mechanism=mechanism))
        direct = flow.run(toy)
        plan = flow.build_plan(toy, model_name="toy")
        path = tmp_path / "plan.json"
        plan.save(path)
        result = PlanExecutor(path).run()
        assert result.makespan_us == direct.makespan_us
        assert result.events == direct.events

    @pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
    def test_mobilenet_plan_matches_direct_run(self, mechanism, tmp_path):
        model = build_model("mobilenet-v2")
        flow = PimFlow(PimFlowConfig(mechanism=mechanism))
        if mechanism == "gpu":
            direct = flow.run(model)
            plan = flow.build_plan(model, model_name="mobilenet-v2")
        else:
            compiled = flow.compile(model)
            direct = flow.run(model, compiled=compiled)
            plan = flow.build_plan(model, model_name="mobilenet-v2",
                                   compiled=compiled)
        path = tmp_path / "plan.json"
        plan.save(path, include_weights=False)
        result = PlanExecutor(path).run()
        assert result.makespan_us == direct.makespan_us

    def test_executor_rebuilds_channel_split(self, toy, tmp_path):
        from repro.memsys.system import MemorySystem

        flow = PimFlow(PimFlowConfig(mechanism="pimflow",
                                     memory=MemorySystem(32, 8)))
        direct = flow.run(toy)
        path = tmp_path / "plan.json"
        flow.build_plan(toy).save(path)
        executor = PlanExecutor(path)
        assert executor.engine.gpu.config.mem_channels == 24
        assert executor.engine.pim.config.num_channels == 8
        assert executor.run().makespan_us == direct.makespan_us


class TestPlanHygiene:
    @pytest.mark.parametrize("model", list_models())
    def test_plans_hold_only_live_tensors(self, model):
        graph = build_model(model)
        for mechanism in ("gpu", "newton++", "pimflow-md", "pimflow"):
            plan = Compiler(PimFlowConfig(mechanism=mechanism)).build_plan(
                graph, model_name=model)
            g = plan.graph
            live = set(g.inputs) | set(g.outputs)
            for node in g.nodes:
                live.update(node.inputs)
                live.update(node.outputs)
            assert set(g.initializers) <= live, mechanism
            assert set(g.tensors) <= live, mechanism

class TestRuntimeIsSearchFree:
    def test_executor_process_never_imports_search(self, toy, tmp_path):
        """Serving a plan must not load the profiler/solver/transforms."""
        path = tmp_path / "plan.json"
        PimFlow(PimFlowConfig(mechanism="pimflow")).build_plan(toy).save(path)
        code = (
            "import sys\n"
            "from repro.runtime.executor import PlanExecutor\n"
            f"result = PlanExecutor({str(path)!r}).run()\n"
            "assert result.makespan_us > 0\n"
            "loaded = [m for m in sys.modules\n"
            "          if m.startswith('repro.search')\n"
            "          or m.startswith('repro.transform')]\n"
            "assert not loaded, loaded\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


MEASUREMENTS = st.one_of(
    st.builds(
        RegionMeasurement,
        start=st.sampled_from(["n0", "n1", "n2"]),
        span=st.just(1),
        mode=st.just("gpu"),
        time_us=st.floats(0.1, 1e4, allow_nan=False),
        fingerprint=st.one_of(st.none(), st.text("abcdef0123456789",
                                                 min_size=8, max_size=8)),
    ),
    st.builds(
        RegionMeasurement,
        start=st.sampled_from(["n0", "n1"]),
        span=st.just(1),
        mode=st.just("split"),
        time_us=st.floats(0.1, 1e4, allow_nan=False),
        ratio_gpu=st.sampled_from([0.0, 0.3, 0.5, 0.9]),
    ),
    st.builds(
        lambda start, time_us, stages: RegionMeasurement(
            start, 2, "pipeline", time_us,
            chain=(start, start + "_next"), stages=stages),
        start=st.sampled_from(["n0", "n3"]),
        time_us=st.floats(0.1, 1e4, allow_nan=False),
        stages=st.integers(2, 4),
    ),
)


class TestTableRoundTripProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(MEASUREMENTS, max_size=20))
    def test_save_load_preserves_measurements(self, tmp_path_factory, ms):
        table = MeasurementTable()
        for m in ms:
            table.add(m)
        path = tmp_path_factory.mktemp("tables") / "t.json"
        table.save(path)
        loaded = MeasurementTable.load(path)
        assert sorted(loaded.all_measurements(),
                      key=lambda m: (m.start, m.span, m.time_us)) == \
            sorted(table.all_measurements(),
                   key=lambda m: (m.start, m.span, m.time_us))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(MEASUREMENTS, max_size=20))
    def test_round_trip_preserves_best_choice(self, ms):
        table = MeasurementTable()
        for m in ms:
            table.add(m)
        loaded = MeasurementTable.from_dict(table.to_dict())
        for (start, span) in {(m.start, m.span) for m in ms}:
            assert loaded.best(start, span) == table.best(start, span)
