"""Decision application clones once per pass, not once per decision.

``apply_decisions`` clones its input once and rewrites that private
graph in place; the profiler marks elidable nodes on the split clone it
already owns.  These tests pin the three properties that change must
keep:

* **Equivalence** — for every registry model and PIM mechanism, the
  plan graph equals a reference folded decision by decision through the
  public clone-returning :func:`apply_mddp` / :func:`pipeline_chain`.
* **Clone budget** — a tripwire on :meth:`Graph.clone` call counts.
* **Purity** — the caller's graph is untouched by a decision list that
  mixes all three modes.
"""

import numpy as np
import pytest

from repro.graph.graph import Graph
from repro.graph.ops import is_pim_candidate
from repro.graph.serialize import graph_to_dict
from repro.models import build_model, list_models
from repro.pimflow import Compiler, PimFlowConfig
from repro.plan.fingerprint import graph_fingerprint
from repro.search.apply import apply_decisions
from repro.search.profiler import extract_subgraph, profile_split
from repro.transform.memopt import optimize_memory
from repro.transform.pipeline import pipeline_chain
from repro.transform.split import apply_mddp

MECHANISMS = ("newton++", "pimflow-md", "pimflow")
RATIOS = [i / 10 for i in range(11)]


def _compiled(model: str, mechanism: str):
    """The prepared graph and the solver's decisions for one compile."""
    compiler = Compiler(PimFlowConfig(mechanism=mechanism))
    graph = build_model(model)
    return compiler.prepare(graph), compiler.compile(graph).decisions


def _reference(graph: Graph, decisions) -> Graph:
    """Decision application through the public clone-per-call API."""
    g = graph
    for d in decisions:
        if d.mode == "gpu":
            g = g.clone()
            for name in d.nodes:
                g.node(name).device = "gpu"
        elif d.mode == "split":
            g = apply_mddp(g, d.nodes[0], d.ratio_gpu)
        else:
            g = pipeline_chain(g, list(d.nodes), num_stages=d.stages)
    return optimize_memory(g)


@pytest.fixture(scope="module")
def mobilenet():
    """mobilenet-v2 under ``pimflow``: its decisions use all three modes."""
    return _compiled("mobilenet-v2", "pimflow")


@pytest.fixture
def clone_counter(monkeypatch):
    calls = []
    original = Graph.clone

    def counting(self):
        calls.append(len(self.nodes))
        return original(self)

    monkeypatch.setattr(Graph, "clone", counting)
    return calls


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("model", list_models())
def test_matches_clone_per_decision_reference(model, mechanism):
    prepared, decisions = _compiled(model, mechanism)
    got = apply_decisions(prepared, decisions)
    ref = _reference(prepared, decisions)

    assert graph_fingerprint(got) == graph_fingerprint(ref)
    assert [n.name for n in got.nodes] == [n.name for n in ref.nodes]
    assert [(n.device, n.attrs) for n in got.nodes] == \
        [(n.device, n.attrs) for n in ref.nodes]
    assert got.tensors == ref.tensors
    assert (got.inputs, got.outputs) == (ref.inputs, ref.outputs)
    assert got.initializers.keys() == ref.initializers.keys()
    for name, value in got.initializers.items():
        if name in prepared.initializers:
            assert value is prepared.initializers[name] is \
                ref.initializers[name], name
        else:  # a split FC layer's per-device weight slab
            assert value.dtype == ref.initializers[name].dtype
            np.testing.assert_array_equal(value, ref.initializers[name])


class TestCloneBudget:
    def test_apply_decisions_clones_twice(self, mobilenet, clone_counter):
        prepared, decisions = mobilenet
        assert len(decisions) > 2
        apply_decisions(prepared, decisions)
        # One private graph for apply_decisions, one for optimize_memory.
        assert len(clone_counter) <= 2, clone_counter

    def test_profile_split_clones_once_per_ratio(self, mobilenet,
                                                 clone_counter):
        prepared, _ = mobilenet
        engine = Compiler(PimFlowConfig(mechanism="pimflow")).engine
        name = next(
            n.name for n in prepared.nodes
            if n.op_type == "Conv" and is_pim_candidate(
                n, [prepared.tensors[t].shape for t in n.inputs]))
        region = extract_subgraph(prepared, [name], include_weights=False)
        results = profile_split(region, name, engine, RATIOS)
        assert len(results) == len(RATIOS)
        assert len(clone_counter) <= len(RATIOS), clone_counter


def test_mixed_decisions_leave_input_untouched(mobilenet):
    prepared, decisions = mobilenet
    assert {d.mode for d in decisions} == {"gpu", "split", "pipeline"}
    doc = graph_to_dict(prepared, include_weights=False)
    weights = {k: np.array(v) for k, v in prepared.initializers.items()}
    version, fp = prepared.version, graph_fingerprint(prepared)
    devices = [n.device for n in prepared.nodes]

    apply_decisions(prepared, decisions)

    assert prepared.version == version
    assert graph_fingerprint(prepared) == fp
    assert graph_to_dict(prepared, include_weights=False) == doc
    assert [n.device for n in prepared.nodes] == devices
    for k, v in weights.items():
        np.testing.assert_array_equal(prepared.initializers[k], v)
