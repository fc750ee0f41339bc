"""Inference-graph fusion: BN folding and activation fusion.

The TVM back-end the paper builds on performs these standard inference
optimizations before any PIM-specific pass runs:

* **BatchNorm folding** — a BatchNormalization directly consuming a
  convolution's output is folded into the convolution's weights and
  bias (inference-time BN is an affine transform per output channel).
* **Activation fusion** — Relu/Clip/Silu/Sigmoid directly consuming a
  Conv/Gemm output becomes the producing node's ``activation``
  attribute, executed as the kernel epilogue on GPU.

Both are semantics-preserving (up to float re-association).  Note the
PIM device cannot execute activations (Newton supports only MAC); for
PIM-offloaded nodes the execution engine charges a GPU epilogue pass
over the output instead (paper Fig. 4: results return to other devices
for activation functions).

The implementations are registered with the pass manager
(:mod:`repro.transform.passes`) as ``fold_batchnorm`` and
``fuse_activations``; the public functions here are thin wrappers
routing through it.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.graph.node import Node

#: Activations fusable into a Conv/Gemm epilogue, with their attr spec.
FUSABLE_ACTIVATIONS = ("Relu", "Clip", "Silu", "Sigmoid", "Gelu")


def _fold_batchnorm(graph: Graph) -> Graph:
    """Fold Conv+BN pairs into the convolution's weights and bias."""
    g = graph.clone()
    changed = True
    while changed:
        changed = False
        for bn in list(g.nodes):
            if bn.op_type != "BatchNormalization":
                continue
            producer = g.producer(bn.inputs[0])
            if producer is None or producer.op_type != "Conv":
                continue
            if len(g.consumers(producer.outputs[0])) != 1:
                continue
            if producer.outputs[0] in g.outputs:
                continue
            w_name = producer.inputs[1]
            if w_name not in g.initializers:
                continue
            scale, beta, mean, var = (
                np.asarray(g.initializers[t], dtype=np.float32)
                for t in bn.inputs[1:5])
            eps = float(bn.attr("epsilon", 1e-5))
            factor = scale / np.sqrt(var + eps)

            weight = np.asarray(g.initializers[w_name], dtype=np.float32)
            # Named per producer, like the bias: convs sharing one
            # weight each fold their own BN into it.
            folded_w_name = f"{producer.name}__bnfold_weight"
            g.add_initializer(folded_w_name, weight * factor,
                              g.tensors[w_name].dtype)

            if len(producer.inputs) > 2:
                bias = np.asarray(g.initializers[producer.inputs[2]],
                                  dtype=np.float32)
            else:
                bias = np.zeros(weight.shape[-1], dtype=np.float32)
            folded_b = (bias - mean) * factor + beta
            folded_b_name = f"{producer.name}__bnfold_bias"
            g.add_initializer(folded_b_name, folded_b, g.tensors[w_name].dtype)

            producer.inputs = [producer.inputs[0], folded_w_name, folded_b_name]
            # The conv now produces what the BN produced.
            g.remove_node(bn.name)
            old_out = producer.outputs[0]
            producer.outputs = [bn.outputs[0]]
            # Keep the tensor table consistent: the conv's old output
            # info is stale but harmless; shapes are identical.
            del g.tensors[old_out]
            g.touch()  # node wiring changed in place
            changed = True
    return g


def _fuse_activations(graph: Graph) -> Graph:
    """Absorb activations into their producing Conv/Gemm node."""
    g = graph.clone()
    changed = True
    while changed:
        changed = False
        for act in list(g.nodes):
            if act.op_type not in FUSABLE_ACTIVATIONS:
                continue
            producer = g.producer(act.inputs[0])
            if producer is None or producer.op_type not in ("Conv", "Gemm"):
                continue
            if producer.attr("activation"):
                continue
            if len(g.consumers(producer.outputs[0])) != 1:
                continue
            if producer.outputs[0] in g.outputs:
                continue
            producer.attrs["activation"] = act.op_type.lower()
            if act.op_type == "Clip":
                producer.attrs["activation_min"] = float(act.attr("min", 0.0))
                producer.attrs["activation_max"] = float(act.attr("max", 6.0))
            g.remove_node(act.name)
            old_out = producer.outputs[0]
            producer.outputs = [act.outputs[0]]
            del g.tensors[old_out]
            g.touch()  # node wiring changed in place
            changed = True
    return g


def fold_batchnorm(graph: Graph) -> Graph:
    """BN folding via the registered ``fold_batchnorm`` pass."""
    from repro.transform.passes import run_pass
    return run_pass("fold_batchnorm", graph)


def fuse_activations(graph: Graph) -> Graph:
    """Activation fusion via the registered ``fuse_activations`` pass."""
    from repro.transform.passes import run_pass
    return run_pass("fuse_activations", graph)


def fuse(graph: Graph) -> Graph:
    """The standard inference pipeline: fold BN, then fuse activations."""
    from repro.transform.passes import FUSE, run_pipeline
    return run_pipeline(FUSE, graph)


def apply_fused_activation(node: Node, out: np.ndarray) -> np.ndarray:
    """Numpy semantics of a fused activation epilogue."""
    kind = node.attr("activation")
    if not kind:
        return out
    if kind == "relu":
        return np.maximum(out, 0.0)
    if kind == "clip":
        return np.clip(out, node.attr("activation_min", 0.0),
                       node.attr("activation_max", 6.0))
    if kind == "silu":
        from repro.runtime.numerical import stable_silu
        return stable_silu(out)
    if kind == "sigmoid":
        from repro.runtime.numerical import stable_sigmoid
        return stable_sigmoid(out)
    if kind == "gelu":
        return 0.5 * out * (1.0 + np.tanh(
            0.7978845608 * (out + 0.044715 * out ** 3)))
    raise ValueError(f"unknown fused activation {kind!r}")
