"""Tests for applying solver decisions."""

import numpy as np
import pytest

from repro.plan.fingerprint import graph_fingerprint
from repro.runtime.numerical import execute
from repro.search.apply import apply_decisions
from repro.search.solver import Decision
from repro.transform.passes import PassError


class TestApplyDecisions:
    def test_gpu_decision_sets_devices(self, pointwise_chain_graph):
        decisions = [Decision(nodes=(n.name,), mode="gpu", time_us=1.0)
                     for n in pointwise_chain_graph.nodes]
        g = apply_decisions(pointwise_chain_graph, decisions)
        assert all(n.device == "gpu" for n in g.nodes)

    def test_split_decision_transforms(self, pointwise_chain_graph):
        decisions = [
            Decision(nodes=("pw1",), mode="split", time_us=1.0, ratio_gpu=0.5),
            Decision(nodes=("act1",), mode="gpu", time_us=1.0),
            Decision(nodes=("dw1",), mode="gpu", time_us=1.0),
            Decision(nodes=("act2",), mode="gpu", time_us=1.0),
            Decision(nodes=("pw2",), mode="split", time_us=1.0, ratio_gpu=0.0),
        ]
        g = apply_decisions(pointwise_chain_graph, decisions)
        g.validate()
        assert g.node("pw1__gpu").device == "gpu"
        assert g.node("pw1__pim").device == "pim"
        assert g.node("pw2").device == "pim"

    def test_pipeline_decision_transforms(self, pointwise_chain_graph):
        decisions = [
            Decision(nodes=("pw1", "act1", "dw1"), mode="pipeline",
                     time_us=1.0, stages=2),
            Decision(nodes=("act2",), mode="gpu", time_us=1.0),
            Decision(nodes=("pw2",), mode="gpu", time_us=1.0),
        ]
        g = apply_decisions(pointwise_chain_graph, decisions)
        g.validate()
        assert any("__pl_" in n.name for n in g.nodes)

    def test_memopt_applied_last(self, pointwise_chain_graph):
        decisions = [
            Decision(nodes=("pw1",), mode="split", time_us=1.0, ratio_gpu=0.5),
            Decision(nodes=("act1",), mode="gpu", time_us=1.0),
            Decision(nodes=("dw1",), mode="gpu", time_us=1.0),
            Decision(nodes=("act2",), mode="gpu", time_us=1.0),
            Decision(nodes=("pw2",), mode="gpu", time_us=1.0),
        ]
        g = apply_decisions(pointwise_chain_graph, decisions)
        movement = [n for n in g.nodes if n.op_type in ("Slice", "Concat")]
        assert movement and all(n.attr("elided") for n in movement)

    def test_combined_decisions_preserve_semantics(self, pointwise_chain_graph,
                                                   rng):
        decisions = [
            Decision(nodes=("pw1", "act1", "dw1"), mode="pipeline",
                     time_us=1.0, stages=2),
            Decision(nodes=("act2",), mode="gpu", time_us=1.0),
            Decision(nodes=("pw2",), mode="split", time_us=1.0, ratio_gpu=0.4),
        ]
        g = apply_decisions(pointwise_chain_graph, decisions)
        feed = {"x": rng.standard_normal((1, 14, 14, 8))}
        ref = execute(pointwise_chain_graph, feed)
        out = execute(g, feed)
        for k in ref:
            np.testing.assert_allclose(ref[k], out[k], rtol=1e-3, atol=1e-3)

def test_unknown_mode_rejected(pointwise_chain_graph):
    bad = Decision(nodes=("pw1",), mode="gpu", time_us=1.0)
    object.__setattr__(bad, "mode", "teleport")
    with pytest.raises(ValueError):
        apply_decisions(pointwise_chain_graph, [bad])


class TestUnknownNodes:
    """A decision naming a node the graph lacks is a typed error raised
    before any rewrite, not a bare ``KeyError`` from halfway through."""

    BAD = {
        "gpu": Decision(nodes=("act2", "nope"), mode="gpu", time_us=1.0),
        "split": Decision(nodes=("nope",), mode="split", time_us=1.0,
                          ratio_gpu=0.5),
        "pipeline": Decision(nodes=("act2", "nope"), mode="pipeline",
                             time_us=1.0, stages=2),
    }

    @pytest.mark.parametrize("mode", sorted(BAD))
    def test_rejected_before_any_rewrite(self, pointwise_chain_graph, mode):
        graph = pointwise_chain_graph
        version, fp = graph.version, graph_fingerprint(graph)
        state = [(n.name, n.device, dict(n.attrs)) for n in graph.nodes]
        decisions = [
            Decision(nodes=("pw1",), mode="split", time_us=1.0,
                     ratio_gpu=0.5),
            self.BAD[mode],
        ]
        with pytest.raises(PassError, match=r"decision 1 .*'nope'"):
            apply_decisions(graph, decisions)
        assert graph.version == version
        assert graph_fingerprint(graph) == fp
        assert [(n.name, n.device, dict(n.attrs))
                for n in graph.nodes] == state
