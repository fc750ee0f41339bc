"""The ``Graph`` container: nodes, tensors, weights, traversal, validation."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.node import Node
from repro.graph.ops import infer_shapes
from repro.graph.tensor import TensorInfo


class GraphError(ValueError):
    """Raised when a graph is structurally invalid."""


def shape_only(shape: Tuple[int, ...], dtype=np.float32) -> np.ndarray:
    """A read-only placeholder array of ``shape`` and ``dtype``.

    Every element aliases one zero (all strides are 0), so the
    placeholder costs no memory whatever its shape, while ``shape``,
    ``dtype`` and ``nbytes`` are those of a real array.  Graphs whose
    initializers are placeholders are for the value-independent timing
    models only; slicing one yields another placeholder.
    """
    return np.broadcast_to(np.zeros((), dtype=dtype), shape)


def is_shape_only(value: np.ndarray) -> bool:
    """True for a :func:`shape_only` placeholder (or a slice of one)."""
    return (value.size > 0 and not value.flags.writeable
            and not any(value.strides))


class Graph:
    """A dataflow graph of operator nodes over named tensors.

    The container mirrors what the PIMFlow passes need from ONNX
    ``ModelProto``: named value infos, initializers (weights), graph
    inputs/outputs, and nodes in insertion order.  ``toposort`` and the
    producer/consumer indexes support the transformation passes; shape
    ``validate`` re-runs full shape inference and is called after every
    pass in the test suite.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.nodes: List[Node] = []
        self.tensors: Dict[str, TensorInfo] = {}
        self.initializers: Dict[str, np.ndarray] = {}
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self._name_counter = 0
        self._version = 0
        self._topo_cache: Optional[List[Node]] = None

    # ------------------------------------------------------------------
    # Mutation tracking
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone counter of structural mutations.

        Derived caches (the memoized :meth:`toposort`, the executor's
        float32 initializer cache) key on this value.  All ``Graph``
        methods that change structure bump it; code that rewires nodes
        or graph input/output lists *in place* must call :meth:`touch`.
        """
        return self._version

    def touch(self) -> None:
        """Invalidate derived caches after an in-place structural edit."""
        self._version += 1
        self._topo_cache = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_tensor(self, info: TensorInfo) -> TensorInfo:
        """Register tensor metadata; re-registering identical info is a no-op."""
        existing = self.tensors.get(info.name)
        if existing is not None and existing != info:
            raise GraphError(
                f"tensor {info.name!r} already registered with different "
                f"metadata ({existing.shape} vs {info.shape})"
            )
        self.tensors[info.name] = info
        return info

    def add_initializer(self, name: str, value: np.ndarray, dtype: str = "float16") -> TensorInfo:
        """Register a weight tensor with its constant value."""
        info = self.add_tensor(TensorInfo(name, tuple(value.shape), dtype))
        self.initializers[name] = value
        self.touch()
        return info

    def add_node(self, node: Node) -> Node:
        """Append a node; its tensors must already be registered."""
        if any(n.name == node.name for n in self.nodes):
            raise GraphError(f"duplicate node name {node.name!r}")
        for t in list(node.inputs) + list(node.outputs):
            if t not in self.tensors:
                raise GraphError(f"node {node.name!r} references unknown tensor {t!r}")
        self.nodes.append(node)
        self.touch()
        return node

    def unique_name(self, prefix: str) -> str:
        """Generate a tensor/node name not yet used in the graph."""
        while True:
            self._name_counter += 1
            candidate = f"{prefix}_{self._name_counter}"
            if candidate not in self.tensors and all(n.name != candidate for n in self.nodes):
                return candidate

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        """Fetch a node by name."""
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(f"no node named {name!r}")

    def producer(self, tensor: str) -> Optional[Node]:
        """The node producing ``tensor``, or None for inputs/weights."""
        for n in self.nodes:
            if tensor in n.outputs:
                return n
        return None

    def consumers(self, tensor: str) -> List[Node]:
        """All nodes consuming ``tensor``."""
        return [n for n in self.nodes if tensor in n.inputs]

    def is_weight(self, tensor: str) -> bool:
        """True if the tensor is a registered initializer."""
        return tensor in self.initializers

    def remove_node(self, name: str) -> Node:
        """Remove a node by name and return it."""
        for i, n in enumerate(self.nodes):
            if n.name == name:
                removed = self.nodes.pop(i)
                self.touch()
                return removed
        raise KeyError(f"no node named {name!r}")

    def prune(self) -> None:
        """Drop initializers and tensor infos nothing references, in place.

        A tensor is live if a node reads or writes it or it is a graph
        input or output.  Rewrites such as BN folding and the MD-DP FC
        split leave the weights they replace behind; pruning keeps them
        out of executors and saved plans.
        """
        live = set(self.inputs) | set(self.outputs)
        for n in self.nodes:
            live.update(n.inputs)
            live.update(n.outputs)
        self.initializers = {name: value for name, value
                             in self.initializers.items() if name in live}
        self.tensors = {name: info for name, info in self.tensors.items()
                        if name in live}
        self.touch()

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def toposort(self) -> List[Node]:
        """Nodes in topological (dataflow) order.

        Raises :class:`GraphError` on cycles or undefined data inputs.
        The result is memoized until the next structural mutation
        (:meth:`touch`); callers receive a fresh list each time, but
        the ``Node`` objects are the graph's own.
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        self._topo_cache = self._toposort_uncached()
        return list(self._topo_cache)

    def _toposort_uncached(self) -> List[Node]:
        ready: Dict[str, bool] = {t: True for t in self.inputs}
        for t in self.initializers:
            ready[t] = True
        remaining = list(self.nodes)
        ordered: List[Node] = []
        while remaining:
            progressed = False
            still: List[Node] = []
            for n in remaining:
                if all(ready.get(t, False) for t in n.inputs):
                    ordered.append(n)
                    for t in n.outputs:
                        ready[t] = True
                    progressed = True
                else:
                    still.append(n)
            remaining = still
            if not progressed and remaining:
                names = [n.name for n in remaining]
                raise GraphError(f"graph has a cycle or undefined inputs at: {names}")
        return ordered

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structure and re-run shape inference over every node."""
        for t in self.inputs + self.outputs:
            if t not in self.tensors:
                raise GraphError(f"graph input/output {t!r} has no tensor info")
        producers: Dict[str, str] = {}
        for n in self.nodes:
            for t in n.outputs:
                if t in producers:
                    raise GraphError(
                        f"tensor {t!r} produced by both {producers[t]!r} and {n.name!r}"
                    )
                if t in self.initializers:
                    raise GraphError(f"node {n.name!r} overwrites initializer {t!r}")
                if t in self.inputs:
                    raise GraphError(f"node {n.name!r} overwrites graph input {t!r}")
                producers[t] = n.name
        for t in self.outputs:
            if t not in producers and t not in self.inputs:
                raise GraphError(f"graph output {t!r} is never produced")
        for n in self.toposort():
            input_shapes = [self.tensors[t].shape for t in n.inputs]
            inferred = infer_shapes(n, input_shapes)
            for t, shape in zip(n.outputs, inferred):
                declared = self.tensors[t].shape
                if declared != shape:
                    raise GraphError(
                        f"node {n.name!r} output {t!r}: declared shape {declared} "
                        f"!= inferred {shape}"
                    )

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------
    def clone(self) -> "Graph":
        """Structural copy; initializer arrays are shared (they are read-only)."""
        g = Graph(self.name)
        g.tensors = dict(self.tensors)
        g.initializers = dict(self.initializers)
        g.inputs = list(self.inputs)
        g.outputs = list(self.outputs)
        g.nodes = [n.clone() for n in self.nodes]
        g._name_counter = self._name_counter
        return g

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def op_counts(self) -> Dict[str, int]:
        """Histogram of op types, useful for model-zoo sanity checks."""
        counts: Dict[str, int] = {}
        for n in self.nodes:
            counts[n.op_type] = counts.get(n.op_type, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Graph({self.name!r}, {len(self.nodes)} nodes)"
