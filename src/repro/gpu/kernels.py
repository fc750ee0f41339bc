"""Roofline cost model for GPU kernels.

``node_cost`` maps a graph node to a :class:`KernelCost` with latency,
FLOPs, and DRAM traffic.  The model distinguishes three kernel classes:

* **GEMM-class** (Conv, Gemm, MatMul): compute throughput derated by a
  tile-quantization utilization factor.  cuDNN/CUTLASS decompose a GEMM
  of (M, N, K) into output tiles (with split-K for deep reductions);
  when the tile count cannot fill the SMs, throughput drops.  Small-M
  kernels — late CNN layers, batch-1 FC — therefore run far below peak,
  which is exactly the regime where DRAM-PIM competes (paper Section 3,
  observation 2).
* **Depthwise convolutions**: effectively memory-bound on GPUs; they
  stay on the GPU and act as the pipeline partner for 1x1 PIM layers.
* **Memory-bound ops** (activations, pools, batchnorm, data movement):
  cost is traffic over derated bandwidth.

Data-movement nodes carrying the ``elided`` attribute (set by the
memory-layout optimizer) cost nothing: with co-allocated NHWC buffers
the Slice/Concat/Pad operators are no-ops (paper Section 4.3.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.graph.graph import Graph
from repro.graph.node import Node
from repro.graph.ops import is_depthwise
from repro.gpu.config import GpuConfig

#: Ops that only move or trivially transform data.
MOVEMENT_OPS = ("Slice", "Concat", "Pad", "Reshape", "Flatten", "Identity", "Transpose")

#: Memory-bandwidth efficiency by kernel class.
MEMORY_EFFICIENCY = {
    "gemm": 0.70,
    "dwconv": 0.50,
    "elementwise": 0.85,
    "pool": 0.60,
    "movement": 0.80,
}

#: GEMM tile decomposition used by the utilization model: output tiles
#: of 64x64 with split-K every 512 reduction elements; the device
#: saturates at ~4 concurrent tiles ("waves") per SM.
TILE_M = 64
TILE_N = 64
TILE_K = 512
WAVES_PER_SM = 4


@dataclass(frozen=True)
class KernelCost:
    """Latency and resource usage of one GPU kernel."""

    time_us: float
    flops: float
    dram_bytes: float
    bound: str  # "compute" | "memory" | "latency" | "elided"

    @property
    def arithmetic_intensity(self) -> float:
        """MACs per byte of DRAM traffic (paper Fig. 1 metric)."""
        if self.dram_bytes == 0:
            return 0.0
        return (self.flops / 2.0) / self.dram_bytes


def _tensor_bytes(graph: Graph, names) -> int:
    return sum(graph.tensors[t].num_bytes for t in names)


def gemm_dims(node: Node, graph: Graph) -> Tuple[int, int, int]:
    """(M, N, K) of the GEMM a Conv/Gemm/MatMul node lowers to."""
    if node.op_type == "Conv":
        out_shape = graph.tensors[node.outputs[0]].shape
        kh, kw, cin_g, cout = graph.tensors[node.inputs[1]].shape
        n, oh, ow, _ = out_shape
        return n * oh * ow, cout, kh * kw * cin_g
    if node.op_type in ("Gemm", "MatMul"):
        a = graph.tensors[node.inputs[0]].shape
        b = graph.tensors[node.inputs[1]].shape
        m = 1
        for d in a[:-1]:
            m *= d
        return m, b[-1], a[-1]
    raise ValueError(f"{node.op_type} is not a GEMM-class op")


def gemm_utilization(m: int, n: int, k: int, config: GpuConfig) -> float:
    """Fraction of peak throughput reachable for an (M, N, K) GEMM."""
    tiles = (math.ceil(m / TILE_M) * math.ceil(n / TILE_N) * math.ceil(k / TILE_K))
    util = tiles / (WAVES_PER_SM * config.num_sms)
    return max(config.min_utilization, min(1.0, util))


def node_flops_bytes(node: Node, graph: Graph) -> Tuple[float, float]:
    """FLOPs and DRAM bytes for a node.

    DRAM traffic assumes each operand is streamed once (on-chip reuse
    captures the im2col expansion), which reproduces the
    arithmetic-intensity separation of Fig. 1: deep 3x3 convs land high,
    1x1 convs in the middle, FC and depthwise layers at the bottom.
    """
    in_bytes = _tensor_bytes(graph, node.inputs)
    out_bytes = _tensor_bytes(graph, node.outputs)
    bytes_total = float(in_bytes + out_bytes)

    if node.op_type in ("Conv", "Gemm", "MatMul"):
        m, n, k = gemm_dims(node, graph)
        if node.op_type == "Conv":
            # Grouped convs do K=cin/g work per output but produce cout
            # outputs per position; gemm_dims already uses cin_g.
            pass
        return 2.0 * m * n * k, bytes_total

    if node.op_type in ("MaxPool", "AveragePool"):
        out = graph.tensors[node.outputs[0]]
        kh, kw = node.attr("kernel_shape")
        return float(out.num_elements * kh * kw), bytes_total

    if node.op_type == "BatchNormalization":
        data = graph.tensors[node.inputs[0]]
        return 4.0 * data.num_elements, bytes_total

    if node.op_type in MOVEMENT_OPS:
        return 0.0, bytes_total

    # Elementwise / activation / softmax / reductions.
    out = graph.tensors[node.outputs[0]]
    return float(out.num_elements), bytes_total


def _kernel_class(node: Node, graph: Graph) -> str:
    if node.op_type == "Conv":
        in_shape = graph.tensors[node.inputs[0]].shape
        return "dwconv" if is_depthwise(node, [in_shape]) else "gemm"
    if node.op_type in ("Gemm", "MatMul"):
        return "gemm"
    if node.op_type in ("MaxPool", "AveragePool", "GlobalAveragePool"):
        return "pool"
    if node.op_type in MOVEMENT_OPS:
        return "movement"
    return "elementwise"


def node_cost(node: Node, graph: Graph, config: GpuConfig,
              write_through: bool = False) -> KernelCost:
    """Latency of ``node`` as one GPU kernel under ``config``.

    ``write_through`` applies the coherence-mode penalty the paper
    enables when GPU kernels share memory with PIM commands.
    """
    if node.attr("elided", False):
        return KernelCost(0.0, 0.0, 0.0, "elided")

    flops, dram_bytes = node_flops_bytes(node, graph)
    kclass = _kernel_class(node, graph)

    mem_eff = MEMORY_EFFICIENCY.get(kclass, 0.7) * config.base_memory_efficiency / 0.70
    mem_time = dram_bytes / (config.bandwidth_bytes_per_us * mem_eff)

    if kclass == "gemm":
        m, n, k = gemm_dims(node, graph)
        compute_eff = config.base_compute_efficiency * gemm_utilization(m, n, k, config)
    elif kclass == "dwconv":
        compute_eff = 0.10
    else:
        compute_eff = 0.30
    compute_time = flops / (config.peak_flops_per_us * compute_eff) if flops else 0.0

    busy = max(compute_time, mem_time)
    if write_through:
        busy *= config.write_through_penalty
    if kclass in ("elementwise", "movement"):
        launch = config.fused_launch_overhead_us
    else:
        launch = config.launch_overhead_us
    time = busy + launch
    if compute_time >= mem_time and flops:
        bound = "compute"
    elif dram_bytes:
        bound = "memory"
    else:
        bound = "latency"
    if busy < config.launch_overhead_us:
        bound = "latency"
    return KernelCost(time, flops, dram_bytes, bound)
