"""Multi-device parallelization pass (MD-DP, paper Section 4.2.1).

Splits one PIM-candidate node into a GPU part and a PIM part so the two
execute in parallel on disjoint data:

* **Conv** nodes split along the output *height* — the dimension in
  which NHWC slices and concats are contiguous, letting the memory
  optimizer elide the data movement.  Interior split boundaries use
  overlapping (halo) input rows instead of padding.
* **Gemm/MatMul** nodes split along the output columns; the constant
  weight matrix (and bias) is pre-split, so no runtime slice is needed
  at all.  Real weights are copied into contiguous per-device slabs;
  the :func:`~repro.graph.graph.shape_only` placeholders of a profiled
  region are sliced as views, so pricing an FC layer at every split
  ratio copies no weights.

The resulting subgraph is ``Slice -> Conv_gpu / Slice -> Conv_pim ->
Concat`` producing a tensor identical to the original node's output.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph, is_shape_only
from repro.graph.node import Node
from repro.graph.ops import is_pim_candidate
from repro.graph.tensor import TensorInfo
from repro.transform.base import TransformError, conv_h_window


def split_rows(total: int, ratio_gpu: float) -> int:
    """Rows (or columns) assigned to the GPU for a given split ratio."""
    if not 0.0 <= ratio_gpu <= 1.0:
        raise ValueError(f"ratio_gpu must be in [0, 1], got {ratio_gpu}")
    return int(round(ratio_gpu * total))


def apply_mddp(graph: Graph, node_name: str, ratio_gpu: float,
               axis: str = "auto") -> Graph:
    """Return a clone of ``graph`` with ``node_name`` split at ``ratio_gpu``.

    ``ratio_gpu = 0`` fully offloads the node to PIM; ``ratio_gpu = 1``
    keeps it on the GPU (both without structural changes — only the
    device placement is set, matching the search's use of the original
    graph for the 0/100 and 100/0 samples).

    ``axis`` selects the split dimension for convolutions: ``"h"`` (the
    paper's contiguity-friendly default), ``"batch"`` (exact, no halo;
    only meaningful for batch > 1), or ``"auto"`` (``"h"``).

    A clone-returning wrapper over :func:`apply_mddp_in_place`, which
    callers that already own a private graph use directly.
    """
    g = graph.clone()
    apply_mddp_in_place(g, node_name, ratio_gpu, axis)
    return g


def apply_mddp_in_place(g: Graph, node_name: str, ratio_gpu: float,
                        axis: str = "auto") -> None:
    """Split ``node_name`` of ``g`` at ``ratio_gpu``, rewriting ``g``.

    The in-place core of :func:`apply_mddp`, for a graph the caller
    owns (the decision-application pass's private clone, a profiled
    split candidate).  On :class:`TransformError` the graph may be
    partly rewritten; the caller discards it.
    """
    if axis not in ("auto", "h", "batch"):
        raise ValueError(f"unknown split axis {axis!r}")
    node = g.node(node_name)
    input_shapes = [g.tensors[t].shape for t in node.inputs]
    if not is_pim_candidate(node, input_shapes):
        raise TransformError(f"node {node_name!r} is not a PIM candidate")

    if node.op_type == "Conv":
        out_shape = g.tensors[node.outputs[0]].shape
        if axis == "batch":
            if out_shape[0] < 2:
                raise TransformError(
                    f"batch-axis split of {node_name!r} needs batch >= 2")
            total = out_shape[0]
        else:
            total = out_shape[1]
    else:
        total = g.tensors[node.outputs[0]].shape[-1]

    gpu_rows = split_rows(total, ratio_gpu)
    if gpu_rows <= 0:
        node.device = "pim"
        return
    if gpu_rows >= total:
        node.device = "gpu"
        return

    if node.op_type == "Conv":
        if axis == "batch":
            _split_conv_batch(g, node, gpu_rows)
        else:
            _split_conv(g, node, gpu_rows)
    else:
        _split_gemm(g, node, gpu_rows)


def _split_conv_batch(g: Graph, node: Node, batch_gpu: int) -> None:
    """Replace ``node`` with a batch-split GPU/PIM pair (no halo)."""
    data_name = node.inputs[0]
    n, h, w, cin = g.tensors[data_name].shape
    _, oh, ow, cout = g.tensors[node.outputs[0]].shape
    dtype = g.tensors[data_name].dtype

    part_outputs = []
    for tag, b0, b1 in (("gpu", 0, batch_gpu), ("pim", batch_gpu, n)):
        slice_out = f"{node.name}__in_{tag}"
        g.add_tensor(TensorInfo(slice_out, (b1 - b0, h, w, cin), dtype))
        g.add_node(Node(
            name=f"{node.name}__slice_{tag}",
            op_type="Slice",
            inputs=[data_name],
            outputs=[slice_out],
            attrs={"axis": 0, "start": b0, "end": b1},
        ))
        conv_out = f"{node.name}__out_{tag}"
        g.add_tensor(TensorInfo(conv_out, (b1 - b0, oh, ow, cout), dtype))
        attrs = dict(node.attrs)
        attrs["mddp_part"] = tag
        g.add_node(Node(
            name=f"{node.name}__{tag}",
            op_type="Conv",
            inputs=[slice_out] + list(node.inputs[1:]),
            outputs=[conv_out],
            attrs=attrs,
            device=tag,
        ))
        part_outputs.append(conv_out)

    out_name = node.outputs[0]
    g.remove_node(node.name)
    g.add_node(Node(
        name=f"{node.name}__concat",
        op_type="Concat",
        inputs=part_outputs,
        outputs=[out_name],
        attrs={"axis": 0, "mddp_join": True},
    ))


def _split_conv(g: Graph, node: Node, oh_gpu: int) -> None:
    """Replace ``node`` with an H-split GPU/PIM pair."""
    data_name = node.inputs[0]
    n, h, w, cin = g.tensors[data_name].shape
    _, oh, ow, cout = g.tensors[node.outputs[0]].shape
    kh, kw = node.attr("kernel_shape")
    sh, sw = node.attr("strides", (1, 1))
    pt, pl, pb, pr = node.attr("pads", (0, 0, 0, 0))
    dtype = g.tensors[data_name].dtype

    ranges = [("gpu", 0, oh_gpu), ("pim", oh_gpu, oh)]
    part_outputs = []
    for tag, o0, o1 in ranges:
        in_start, in_end, npt, npb = conv_h_window(o0, o1, kh, sh, pt, h)

        slice_out = f"{node.name}__in_{tag}"
        g.add_tensor(TensorInfo(slice_out, (n, in_end - in_start, w, cin), dtype))
        g.add_node(Node(
            name=f"{node.name}__slice_{tag}",
            op_type="Slice",
            inputs=[data_name],
            outputs=[slice_out],
            attrs={"axis": 1, "start": in_start, "end": in_end},
        ))

        conv_out = f"{node.name}__out_{tag}"
        g.add_tensor(TensorInfo(conv_out, (n, o1 - o0, ow, cout), dtype))
        attrs = dict(node.attrs)
        attrs["pads"] = (npt, pl, npb, pr)
        attrs["mddp_part"] = tag
        g.add_node(Node(
            name=f"{node.name}__{tag}",
            op_type="Conv",
            inputs=[slice_out] + list(node.inputs[1:]),
            outputs=[conv_out],
            attrs=attrs,
            device=tag,
        ))
        part_outputs.append(conv_out)

    out_name = node.outputs[0]
    g.remove_node(node.name)
    g.add_node(Node(
        name=f"{node.name}__concat",
        op_type="Concat",
        inputs=part_outputs,
        outputs=[out_name],
        attrs={"axis": 1, "mddp_join": True},
    ))


def _column_slice(value: np.ndarray, c0: int, c1: int) -> np.ndarray:
    """Columns ``[c0, c1)`` of a weight or bias: a contiguous copy of
    real values, a view of a shape-only placeholder."""
    part = value[..., c0:c1]
    return part if is_shape_only(value) else np.ascontiguousarray(part)


def _split_gemm(g: Graph, node: Node, n_gpu: int) -> None:
    """Replace a Gemm/MatMul with an output-column-split GPU/PIM pair."""
    w_name = node.inputs[1]
    if w_name not in g.initializers:
        raise TransformError(
            f"cannot split {node.name!r}: weight {w_name!r} is not a constant")
    a_shape = g.tensors[node.inputs[0]].shape
    if len(a_shape) != 2:
        raise TransformError(
            f"cannot split {node.name!r}: only rank-2 activations supported")
    bias_name = node.inputs[2] if len(node.inputs) > 2 else None
    if bias_name is not None and bias_name not in g.initializers:
        raise TransformError(
            f"cannot split {node.name!r}: bias {bias_name!r} is not a constant")
    weight = g.initializers[w_name]
    bias = g.initializers[bias_name] if bias_name is not None else None
    m, n_total = g.tensors[node.outputs[0]].shape
    dtype = g.tensors[node.outputs[0]].dtype

    part_outputs = []
    splits = [("gpu", 0, n_gpu), ("pim", n_gpu, n_total)]
    for tag, c0, c1 in splits:
        w_part_name = f"{w_name}__{node.name}_{tag}"
        g.add_initializer(w_part_name, _column_slice(weight, c0, c1), dtype)
        inputs = [node.inputs[0], w_part_name]
        if bias is not None:
            b_part_name = f"{bias_name}__{node.name}_{tag}"
            g.add_initializer(b_part_name, _column_slice(bias, c0, c1), dtype)
            inputs.append(b_part_name)
        out = f"{node.name}__out_{tag}"
        g.add_tensor(TensorInfo(out, (m, c1 - c0), dtype))
        attrs = dict(node.attrs)
        attrs["mddp_part"] = tag
        g.add_node(Node(
            name=f"{node.name}__{tag}",
            op_type=node.op_type,
            inputs=inputs,
            outputs=[out],
            attrs=attrs,
            device=tag,
        ))
        part_outputs.append(out)

    out_name = node.outputs[0]
    g.remove_node(node.name)
    g.add_node(Node(
        name=f"{node.name}__concat",
        op_type="Concat",
        inputs=part_outputs,
        outputs=[out_name],
        attrs={"axis": 1, "mddp_join": True},
    ))
