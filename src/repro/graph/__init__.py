"""Model-graph intermediate representation.

This package is the reproduction's stand-in for ONNX graphs (opset 13)
used by the original PIMFlow artifact.  It provides typed tensors, an
operator registry with shape inference, a validated ``Graph`` container
with topological traversal, a convenience ``GraphBuilder`` for the model
zoo, and JSON (de)serialization.

All 4-D activations use the NHWC (channels-last) layout, matching the
paper's assumption for DRAM-PIM-friendly contiguous channel access
(Section 2.2).
"""

from repro.graph.tensor import TensorInfo
from repro.graph.node import Node
from repro.graph.graph import Graph, GraphError, is_shape_only, shape_only
from repro.graph.builder import GraphBuilder
from repro.graph.ops import infer_shapes, OP_REGISTRY, is_pim_candidate
from repro.graph.serialize import graph_to_dict, graph_from_dict, save_graph, load_graph

__all__ = [
    "TensorInfo",
    "Node",
    "Graph",
    "GraphError",
    "shape_only",
    "is_shape_only",
    "GraphBuilder",
    "infer_shapes",
    "OP_REGISTRY",
    "is_pim_candidate",
    "graph_to_dict",
    "graph_from_dict",
    "save_graph",
    "load_graph",
]
