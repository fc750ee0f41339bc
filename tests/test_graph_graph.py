"""Unit tests for the Graph container."""

import numpy as np
import pytest

from repro.graph.graph import Graph, GraphError
from repro.graph.node import Node
from repro.graph.tensor import TensorInfo


def _diamond_graph():
    """x -> a -> (b, c) -> d, exercising branching."""
    g = Graph("diamond")
    for name, shape in [("x", (1, 4)), ("a", (1, 4)), ("b", (1, 4)),
                        ("c", (1, 4)), ("d", (1, 4))]:
        g.add_tensor(TensorInfo(name, shape))
    g.inputs = ["x"]
    g.outputs = ["d"]
    g.add_node(Node("na", "Relu", ["x"], ["a"]))
    g.add_node(Node("nd", "Add", ["b", "c"], ["d"]))  # out of order on purpose
    g.add_node(Node("nb", "Relu", ["a"], ["b"]))
    g.add_node(Node("nc", "Sigmoid", ["a"], ["c"]))
    return g


class TestConstruction:
    def test_duplicate_node_name_rejected(self):
        g = Graph()
        g.add_tensor(TensorInfo("x", (1,)))
        g.add_tensor(TensorInfo("y", (1,)))
        g.add_node(Node("n", "Relu", ["x"], ["y"]))
        g.add_tensor(TensorInfo("z", (1,)))
        with pytest.raises(GraphError):
            g.add_node(Node("n", "Relu", ["y"], ["z"]))

    def test_unknown_tensor_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_node(Node("n", "Relu", ["x"], ["y"]))

    def test_conflicting_tensor_info_rejected(self):
        g = Graph()
        g.add_tensor(TensorInfo("x", (1, 2)))
        g.add_tensor(TensorInfo("x", (1, 2)))  # identical re-register is fine
        with pytest.raises(GraphError):
            g.add_tensor(TensorInfo("x", (2, 1)))

    def test_unique_name(self):
        g = Graph()
        g.add_tensor(TensorInfo("x", (1,)))
        n1 = g.unique_name("t")
        g.add_tensor(TensorInfo(n1, (1,)))
        n2 = g.unique_name("t")
        assert n1 != n2


class TestTraversal:
    def test_toposort_orders_dataflow(self):
        g = _diamond_graph()
        order = [n.name for n in g.toposort()]
        assert order.index("na") < order.index("nb")
        assert order.index("nb") < order.index("nd")
        assert order.index("nc") < order.index("nd")

    def test_toposort_detects_missing_input(self):
        g = Graph()
        g.add_tensor(TensorInfo("ghost", (1,)))
        g.add_tensor(TensorInfo("y", (1,)))
        g.add_node(Node("n", "Relu", ["ghost"], ["y"]))
        with pytest.raises(GraphError):
            g.toposort()

    def test_producer_and_consumers(self):
        g = _diamond_graph()
        assert g.producer("a").name == "na"
        assert g.producer("x") is None
        assert {n.name for n in g.consumers("a")} == {"nb", "nc"}

    def test_node_lookup(self):
        g = _diamond_graph()
        assert g.node("nb").op_type == "Relu"
        with pytest.raises(KeyError):
            g.node("missing")

    def test_remove_node(self):
        g = _diamond_graph()
        g.remove_node("nd")
        assert all(n.name != "nd" for n in g.nodes)
        with pytest.raises(KeyError):
            g.remove_node("nd")


    def test_prune_drops_unreferenced_tensors(self):
        g = _diamond_graph()
        g.add_initializer("w_dead", np.ones((4,), dtype=np.float32))
        g.add_tensor(TensorInfo("stale", (1, 4)))
        g.add_tensor(TensorInfo("unused_input", (1, 4)))
        g.inputs.append("unused_input")
        version = g.version
        g.prune()
        assert "w_dead" not in g.initializers
        assert "w_dead" not in g.tensors and "stale" not in g.tensors
        assert "unused_input" in g.tensors
        assert set(g.tensors) == {"x", "a", "b", "c", "d", "unused_input"}
        assert g.version > version
        g.validate()

class TestValidation:
    def test_valid_graph_passes(self):
        _diamond_graph().validate()

    def test_double_producer_rejected(self):
        bad = Graph("bad")
        bad.add_tensor(TensorInfo("x", (1,)))
        bad.add_tensor(TensorInfo("y", (1,)))
        bad.inputs = ["x"]
        bad.outputs = ["y"]
        bad.add_node(Node("n1", "Relu", ["x"], ["y"]))
        bad.add_node(Node("n2", "Sigmoid", ["x"], ["y"]))
        with pytest.raises(GraphError):
            bad.validate()

    def test_shape_mismatch_rejected(self):
        g = Graph("bad_shape")
        g.add_tensor(TensorInfo("x", (1, 4)))
        g.add_tensor(TensorInfo("y", (1, 5)))  # wrong: Relu preserves shape
        g.inputs = ["x"]
        g.outputs = ["y"]
        g.add_node(Node("n", "Relu", ["x"], ["y"]))
        with pytest.raises(GraphError):
            g.validate()

    def test_unproduced_output_rejected(self):
        g = Graph("dangling")
        g.add_tensor(TensorInfo("x", (1,)))
        g.add_tensor(TensorInfo("y", (1,)))
        g.inputs = ["x"]
        g.outputs = ["y"]
        with pytest.raises(GraphError):
            g.validate()

    def test_overwriting_initializer_rejected(self):
        g = Graph("bad_init")
        g.add_tensor(TensorInfo("x", (1, 4)))
        g.add_initializer("w", np.zeros((1, 4), dtype=np.float32))
        g.inputs = ["x"]
        g.outputs = ["w"]
        g.add_node(Node("n", "Relu", ["x"], ["w"]))
        with pytest.raises(GraphError):
            g.validate()


class TestClone:
    def test_clone_is_structurally_independent(self):
        g = _diamond_graph()
        c = g.clone()
        c.node("na").device = "pim"
        c.remove_node("nd")
        assert g.node("na").device == "auto"
        assert any(n.name == "nd" for n in g.nodes)

    def test_clone_preserves_everything(self, small_conv_graph):
        c = small_conv_graph.clone()
        c.validate()
        assert [n.name for n in c.nodes] == [n.name for n in small_conv_graph.nodes]
        assert c.inputs == small_conv_graph.inputs
        assert c.outputs == small_conv_graph.outputs
        assert set(c.initializers) == set(small_conv_graph.initializers)


class TestIntrospection:
    def test_op_counts(self, pointwise_chain_graph):
        counts = pointwise_chain_graph.op_counts()
        assert counts["Conv"] == 3
        assert counts["Relu"] == 2

    def test_len(self, pointwise_chain_graph):
        assert len(pointwise_chain_graph) == 5

    def test_is_weight(self, small_conv_graph):
        conv = small_conv_graph.node("c0")
        assert small_conv_graph.is_weight(conv.inputs[1])
        assert not small_conv_graph.is_weight(conv.inputs[0])
