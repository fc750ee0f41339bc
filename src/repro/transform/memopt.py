"""Memory-layout optimization pass (paper Section 4.3.2, Fig. 7).

With single-batch NHWC tensors laid out contiguously, slicing or
concatenating along the height dimension addresses one contiguous byte
range; if split producers/consumers are co-allocated, the Slice and
Concat operators become no-ops.  Pre-allocating the padded input extent
likewise eliminates Pad operators.  This pass marks such nodes with the
``elided`` attribute, which both the GPU cost model and the execution
engine honour as zero cost.

Without this pass, the data-copy cost of Slice/Pad/Concat makes "most
splitting attempts futile" (paper) — the ablation benchmark
reproduces exactly that.

The implementation is registered with the pass manager
(:mod:`repro.transform.passes`) as ``optimize_memory``; the public
function here is a thin wrapper routing through it.  Its in-place core,
:func:`optimize_memory_in_place`, marks a graph the caller already owns
without another clone.
"""

from __future__ import annotations

from repro.graph.graph import Graph
from repro.lowering.layout import concat_is_contiguous, slice_is_contiguous


def _pad_is_elidable(shape, pads) -> bool:
    """Spatial-only zero padding of a rank-4 NHWC tensor.

    The pre-padded-allocation argument (Fig. 7) is specific to NHWC:
    axes 1 and 2 are spatial only when the tensor is rank 4 with one
    ``(before, after)`` pair per axis.  Other ranks must keep their Pad
    nodes — the old ``i not in (1, 2)`` check silently treated e.g. the
    last axis of a rank-2 tensor as "spatial" and elided a pad the
    buffer planner cannot absorb.
    """
    if len(shape) != 4 or len(pads) != 4:
        return False
    return all((before, after) == (0, 0)
               for i, (before, after) in enumerate(pads) if i not in (1, 2))


def _optimize_memory(graph: Graph) -> Graph:
    """Return a clone with elidable Slice/Concat/Pad nodes marked."""
    g = graph.clone()
    optimize_memory_in_place(g)
    return g


def optimize_memory_in_place(g: Graph) -> None:
    """Mark the elidable Slice/Concat/Pad nodes of ``g`` in place.

    The core of the ``optimize_memory`` pass, for a graph the caller
    owns: the profiler marks each split candidate it has just built.
    Only node attributes change, so the graph's structure (and its
    :attr:`~repro.graph.graph.Graph.version`) is untouched.
    """
    for node in g.nodes:
        if node.op_type == "Slice":
            shape = g.tensors[node.inputs[0]].shape
            if slice_is_contiguous(shape, int(node.attr("axis"))):
                node.attrs["elided"] = True
        elif node.op_type == "Concat":
            shapes = [g.tensors[t].shape for t in node.inputs]
            if concat_is_contiguous(shapes, int(node.attr("axis"))):
                node.attrs["elided"] = True
        elif node.op_type == "Pad":
            shape = g.tensors[node.inputs[0]].shape
            if _pad_is_elidable(shape, node.attr("pads", ())):
                node.attrs["elided"] = True


def optimize_memory(graph: Graph) -> Graph:
    """Memory-layout optimization via the registered ``optimize_memory``
    pass; returns a fresh clone with the elidable nodes marked."""
    from repro.transform.passes import run_pass
    return run_pass("optimize_memory", graph)
