"""Pipelining pass (paper Section 4.2.1, Fig. 5).

Takes a straight-line chain of H-local nodes (convolutions and
row-local elementwise ops) and splits every node into ``num_stages``
pipeline-stage pieces along the output height.  Stage ``s`` of node
``j`` depends only on stages ``0..s`` of node ``j-1``, so the engine's
list scheduler overlaps stage ``s`` of a GPU node with stage ``s+1`` of
its PIM producer (and vice versa) — inter-node parallelism created from
a purely sequential subgraph.

The "concat" nodes the paper inserts before epilogue pieces appear here
as *progressive concats*: after node ``j-1`` finishes stage ``s``, its
cumulative output rows ``[0, bounds[j-1][s])`` are materialized (a
zero-cost H-concat under the co-allocated layout) and sliced by node
``j``'s stage ``s`` with the correct halo.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.graph.graph import Graph
from repro.graph.node import Node
from repro.graph.ops import is_depthwise
from repro.graph.tensor import TensorInfo
from repro.transform.base import (
    TransformError,
    UnsplittableError,
    conv_h_window,
    input_rows_needed,
    single_consumer_chain,
)

#: Ops that act row-locally on 4-D NHWC tensors and can be pipelined.
ROW_LOCAL_OPS = ("Relu", "Clip", "Sigmoid", "Silu", "Gelu", "Identity", "BatchNormalization")


def _default_device(node: Node, graph: Graph) -> str:
    """Paper placement rule: non-DW convs to PIM, everything else GPU."""
    if node.op_type == "Conv":
        in_shape = graph.tensors[node.inputs[0]].shape
        return "gpu" if is_depthwise(node, [in_shape]) else "pim"
    return "gpu"


def _geometry(node: Node, graph: Graph):
    """(kernel_h, stride_h, pad_top, pad_left, pad_bottom, pad_right, in_h, out_h)."""
    in_shape = graph.tensors[node.inputs[0]].shape
    out_shape = graph.tensors[node.outputs[0]].shape
    if len(in_shape) != 4:
        raise TransformError(
            f"pipelining requires 4-D NHWC tensors, {node.name!r} has {in_shape}")
    if node.op_type == "Conv":
        kh, _ = node.attr("kernel_shape")
        sh, _ = node.attr("strides", (1, 1))
        pt, pl, pb, pr = node.attr("pads", (0, 0, 0, 0))
        return kh, sh, pt, pl, pb, pr, in_shape[1], out_shape[1]
    if node.op_type in ROW_LOCAL_OPS:
        return 1, 1, 0, 0, 0, 0, in_shape[1], out_shape[1]
    raise TransformError(f"op {node.op_type!r} ({node.name!r}) is not pipelinable")


def _stage_bounds(nodes: List[Node], graph: Graph, num_stages: int) -> List[List[int]]:
    """Cumulative output-row boundaries per node per stage.

    ``bounds[j][s]`` is the number of output rows node ``j`` has
    produced once its stage ``s`` completes; derived backwards from an
    even split of the last node's output so every stage piece of the
    final node has near-equal size.
    """
    geos = [_geometry(n, graph) for n in nodes]
    last_out_h = geos[-1][7]
    if num_stages < 2:
        raise ValueError("num_stages must be >= 2")
    if last_out_h < num_stages:
        raise UnsplittableError(
            f"final output height {last_out_h} < {num_stages} stages")
    bounds = [[0] * num_stages for _ in nodes]
    bounds[-1] = [((s + 1) * last_out_h) // num_stages for s in range(num_stages)]
    for j in range(len(nodes) - 1, 0, -1):
        kh, sh, pt, _, _, _, in_h, _ = geos[j]
        prev_out_h = geos[j - 1][7]
        if in_h != prev_out_h:
            raise TransformError(
                f"chain mismatch: {nodes[j].name!r} input height {in_h} != "
                f"{nodes[j - 1].name!r} output height {prev_out_h}")
        prev = []
        for s in range(num_stages - 1):
            prev.append(input_rows_needed(bounds[j][s], kh, sh, pt, in_h))
        prev.append(prev_out_h)
        for s in range(1, num_stages):
            if prev[s] <= prev[s - 1]:
                raise UnsplittableError(
                    f"stage {s} of {nodes[j - 1].name!r} would be empty "
                    f"(bounds {prev}); halo consumes the whole stage")
        if prev[0] <= 0:
            raise UnsplittableError(f"stage 0 of {nodes[j - 1].name!r} is empty")
        bounds[j - 1] = prev
    return bounds


def pipeline_chain(graph: Graph, chain: Sequence[str], num_stages: int = 2,
                   devices: Optional[Dict[str, str]] = None,
                   group_id: Optional[str] = None) -> Graph:
    """Return a clone of ``graph`` with ``chain`` pipelined.

    ``chain`` must be a straight-line single-consumer sequence of
    pipelinable nodes.  ``devices`` overrides the default placement
    (non-DW convs on PIM, everything else on GPU).  Raises
    :class:`UnsplittableError` when halos would make a stage empty.

    A clone-returning wrapper over :func:`pipeline_chain_in_place`,
    which callers that already own a private graph use directly.
    """
    g = graph.clone()
    pipeline_chain_in_place(g, chain, num_stages, devices, group_id)
    return g


def pipeline_chain_in_place(g: Graph, chain: Sequence[str],
                            num_stages: int = 2,
                            devices: Optional[Dict[str, str]] = None,
                            group_id: Optional[str] = None) -> None:
    """Pipeline ``chain`` of ``g``, rewriting ``g``.

    The in-place core of :func:`pipeline_chain`, for a graph the caller
    owns.  The chain and stage bounds are checked before the first
    rewrite; on a later :class:`TransformError` the graph may be partly
    rewritten and the caller discards it.
    """
    single_consumer_chain(g, chain)
    nodes = [g.node(name) for name in chain]
    bounds = _stage_bounds(nodes, g, num_stages)
    group = group_id or f"pl_{nodes[0].name}"
    placement = {
        n.name: (devices or {}).get(n.name, _default_device(n, g)) for n in nodes
    }

    pieces: List[List[str]] = []       # output tensor names per node per stage
    cumulative: List[List[str]] = []   # progressive concat names per node per stage
    last = len(nodes) - 1

    for j, node in enumerate(nodes):
        kh, sh, pt, pl, pb, pr, in_h, out_h = _geometry(node, g)
        dtype = g.tensors[node.outputs[0]].dtype
        out_shape = g.tensors[node.outputs[0]].shape
        node_pieces: List[str] = []

        for s in range(num_stages):
            a = bounds[j][s - 1] if s > 0 else 0
            b = bounds[j][s]
            if node.op_type == "Conv":
                in_start, in_end, npt, npb = conv_h_window(a, b, kh, sh, pt, in_h)
            else:
                in_start, in_end, npt, npb = a, b, 0, 0

            if j == 0:
                source = node.inputs[0]
                source_rows = in_h
            else:
                source = cumulative[j - 1][s]
                source_rows = bounds[j - 1][s]
            if in_end > source_rows:
                raise TransformError(
                    f"internal error: stage {s} of {node.name!r} needs rows up "
                    f"to {in_end} but only {source_rows} are available")

            if in_start == 0 and in_end == source_rows:
                piece_input = source
            else:
                piece_input = f"{node.name}__pl_in_{s}"
                src_shape = g.tensors[source].shape
                sliced = (src_shape[0], in_end - in_start) + src_shape[2:]
                g.add_tensor(TensorInfo(piece_input, sliced, dtype))
                g.add_node(Node(
                    name=f"{node.name}__pl_slice_{s}",
                    op_type="Slice",
                    inputs=[source],
                    outputs=[piece_input],
                    attrs={"axis": 1, "start": in_start, "end": in_end,
                           "pipeline_group": group, "pipeline_stage": s},
                ))

            piece_out = f"{node.name}__pl_out_{s}"
            piece_shape = (out_shape[0], b - a) + out_shape[2:]
            g.add_tensor(TensorInfo(piece_out, piece_shape, dtype))
            attrs = dict(node.attrs)
            attrs["pipeline_group"] = group
            attrs["pipeline_stage"] = s
            if node.op_type == "Conv":
                attrs["pads"] = (npt, pl, npb, pr)
            g.add_node(Node(
                name=f"{node.name}__pl_{s}",
                op_type=node.op_type,
                inputs=[piece_input] + list(node.inputs[1:]),
                outputs=[piece_out],
                attrs=attrs,
                device=placement[node.name],
            ))
            node_pieces.append(piece_out)

        pieces.append(node_pieces)

        # Progressive concats feed the next node's stage slices.
        node_cumulative = [node_pieces[0]]
        if j < last:
            for s in range(1, num_stages):
                cum_name = f"{node.name}__pl_cum_{s}"
                cum_shape = (out_shape[0], bounds[j][s]) + out_shape[2:]
                g.add_tensor(TensorInfo(cum_name, cum_shape, dtype))
                g.add_node(Node(
                    name=f"{node.name}__pl_concat_{s}",
                    op_type="Concat",
                    inputs=[node_cumulative[s - 1], node_pieces[s]],
                    outputs=[cum_name],
                    attrs={"axis": 1, "pipeline_group": group,
                           "pipeline_stage": s},
                ))
                node_cumulative.append(cum_name)
        cumulative.append(node_cumulative)

    final_out = nodes[last].outputs[0]
    for node in nodes:
        g.remove_node(node.name)
    g.add_node(Node(
        name=f"{nodes[last].name}__pl_join",
        op_type="Concat",
        inputs=pieces[last],
        outputs=[final_out],
        attrs={"axis": 1, "pipeline_group": group},
    ))
