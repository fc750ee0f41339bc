"""Operator registry and shape inference.

Each supported operator registers a shape-inference function mapping the
node and its input shapes to output shapes.  The registry doubles as the
validation whitelist: graphs containing unregistered op types are
rejected.

Conventions
-----------
* Activations: NHWC.
* ``Conv`` inputs: ``[data, weight]`` or ``[data, weight, bias]`` with
  weight shaped ``(kh, kw, cin_per_group, cout)``.
* ``Gemm`` inputs: ``[data(N, K), weight(K, M)]`` (+ optional bias
  ``(M,)``); no transpose attributes — the model zoo lays weights out
  directly.
* ``pads`` for Conv/Pool are ``(top, left, bottom, right)``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.graph.node import Node

Shape = Tuple[int, ...]
InferFn = Callable[[Node, List[Shape]], List[Shape]]

OP_REGISTRY: Dict[str, InferFn] = {}

#: Ops the paper treats as PIM-offload candidates: FC layers and all
#: convolutions except depthwise (Section 4.2.1).
PIM_CANDIDATE_OPS = ("Conv", "Gemm", "MatMul")

#: Ops that are computationally lightweight on GPU; pipelining across
#: them is excluded by the search (Section 4.2.2).
LIGHTWEIGHT_OPS = ("Relu", "Clip", "Add", "Mul", "Sigmoid", "Silu", "Gelu", "MaxPool", "Identity")


class ShapeError(ValueError):
    """Raised when shape inference fails for a node."""


def register(op_type: str) -> Callable[[InferFn], InferFn]:
    """Class of decorators registering a shape-inference function."""

    def wrap(fn: InferFn) -> InferFn:
        OP_REGISTRY[op_type] = fn
        return fn

    return wrap


def conv_out_dim(size: int, kernel: int, stride: int, pad_lo: int, pad_hi: int) -> int:
    """Output spatial extent of a convolution/pool along one axis."""
    out = (size + pad_lo + pad_hi - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"non-positive output dim: size={size} kernel={kernel} "
            f"stride={stride} pads=({pad_lo},{pad_hi})"
        )
    return out


def is_depthwise(node: Node, input_shapes: Sequence[Shape]) -> bool:
    """True when a Conv node is depthwise (group == input channels)."""
    if node.op_type != "Conv":
        return False
    group = int(node.attr("group", 1))
    cin = input_shapes[0][3]
    return group > 1 and group == cin


def is_pim_candidate(node: Node, input_shapes: Sequence[Shape]) -> bool:
    """True for nodes the search may offload to DRAM-PIM.

    FC (Gemm/MatMul) and Conv layers qualify; depthwise convolutions do
    not, because offloading them would require flushing the global
    buffer per input channel (Section 4.2.2).
    """
    if node.op_type not in PIM_CANDIDATE_OPS:
        return False
    if node.op_type == "Conv" and is_depthwise(node, input_shapes):
        return False
    return True


def _freeze_attr(value) -> object:
    """Hashable form of a node attribute value."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_attr(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze_attr(v)) for k, v in value.items()))
    if hasattr(value, "tobytes"):  # numpy array / scalar
        return (getattr(value, "shape", ()), value.tobytes())
    return value


def node_structural_key(node: Node, tensors: Mapping[str, object]) -> Tuple:
    """Hashable key capturing everything an analytical cost model reads.

    Two nodes with equal keys have identical op type, attributes, and
    input/output tensor shapes+dtypes, so any pure cost function of the
    node (GPU roofline, PIM command timing) returns identical results —
    the memoization contract of :class:`~repro.gpu.device.GpuDevice`
    and :class:`~repro.pim.device.PimDevice`.  Node *names* and device
    placements are deliberately excluded: the same layer structure at a
    different position (or on the other device timeline) prices the
    same.
    """
    attrs = tuple(sorted((k, _freeze_attr(v)) for k, v in node.attrs.items()))
    ins = tuple((tensors[t].shape, tensors[t].dtype) for t in node.inputs)
    outs = tuple((tensors[t].shape, tensors[t].dtype) for t in node.outputs)
    return (node.op_type, attrs, ins, outs)


def _expect_rank(shape: Shape, rank: int, what: str) -> None:
    if len(shape) != rank:
        raise ShapeError(f"{what} must be rank {rank}, got shape {shape}")


def _broadcast(a: Shape, b: Shape) -> Shape:
    """Numpy-style broadcast of two shapes."""
    out = []
    for da, db in zip(reversed((1,) * max(0, len(b) - len(a)) + a),
                      reversed((1,) * max(0, len(a) - len(b)) + b)):
        if da == db or da == 1 or db == 1:
            out.append(max(da, db))
        else:
            raise ShapeError(f"cannot broadcast {a} with {b}")
    return tuple(reversed(out))


@register("Conv")
def _infer_conv(node: Node, input_shapes: List[Shape]) -> List[Shape]:
    data, weight = input_shapes[0], input_shapes[1]
    _expect_rank(data, 4, "Conv data")
    _expect_rank(weight, 4, "Conv weight")
    n, h, w, cin = data
    kh, kw, cin_g, cout = weight
    group = int(node.attr("group", 1))
    if cin % group != 0 or cout % group != 0:
        raise ShapeError(f"channels ({cin}->{cout}) not divisible by group {group}")
    if cin_g != cin // group:
        raise ShapeError(
            f"weight cin_per_group {cin_g} != input channels {cin} / group {group}"
        )
    ks = tuple(node.attr("kernel_shape", (kh, kw)))
    if ks != (kh, kw):
        raise ShapeError(f"kernel_shape attr {ks} != weight spatial dims {(kh, kw)}")
    sh, sw = node.attr("strides", (1, 1))
    pt, pl, pb, pr = node.attr("pads", (0, 0, 0, 0))
    oh = conv_out_dim(h, kh, sh, pt, pb)
    ow = conv_out_dim(w, kw, sw, pl, pr)
    if len(input_shapes) > 2:
        _expect_rank(input_shapes[2], 1, "Conv bias")
        if input_shapes[2][0] != cout:
            raise ShapeError("Conv bias length != cout")
    return [(n, oh, ow, cout)]


@register("Gemm")
def _infer_gemm(node: Node, input_shapes: List[Shape]) -> List[Shape]:
    data, weight = input_shapes[0], input_shapes[1]
    _expect_rank(data, 2, "Gemm data")
    _expect_rank(weight, 2, "Gemm weight")
    n, k = data
    k2, m = weight
    if k != k2:
        raise ShapeError(f"Gemm inner dims mismatch: {k} vs {k2}")
    if len(input_shapes) > 2 and input_shapes[2] != (m,):
        raise ShapeError("Gemm bias shape mismatch")
    return [(n, m)]


@register("MatMul")
def _infer_matmul(node: Node, input_shapes: List[Shape]) -> List[Shape]:
    a, b = input_shapes[0], input_shapes[1]
    if len(a) < 2 or len(b) != 2:
        raise ShapeError(f"MatMul expects (..., K) x (K, M), got {a} x {b}")
    if a[-1] != b[0]:
        raise ShapeError(f"MatMul inner dims mismatch: {a[-1]} vs {b[0]}")
    return [a[:-1] + (b[1],)]


def _infer_unary(node: Node, input_shapes: List[Shape]) -> List[Shape]:
    return [input_shapes[0]]


for _op in ("Relu", "Sigmoid", "Clip", "Softmax", "Identity", "Erf", "Tanh", "Silu", "Gelu"):
    OP_REGISTRY[_op] = _infer_unary


def _infer_binary(node: Node, input_shapes: List[Shape]) -> List[Shape]:
    return [_broadcast(input_shapes[0], input_shapes[1])]


for _op in ("Add", "Mul", "Sub", "Div"):
    OP_REGISTRY[_op] = _infer_binary


@register("BatchNormalization")
def _infer_bn(node: Node, input_shapes: List[Shape]) -> List[Shape]:
    data = input_shapes[0]
    c = data[-1]
    for i, name in ((1, "scale"), (2, "bias"), (3, "mean"), (4, "var")):
        if input_shapes[i] != (c,):
            raise ShapeError(f"BatchNormalization {name} must be ({c},)")
    return [data]


def _infer_pool(node: Node, input_shapes: List[Shape]) -> List[Shape]:
    data = input_shapes[0]
    _expect_rank(data, 4, f"{node.op_type} data")
    n, h, w, c = data
    kh, kw = node.attr("kernel_shape")
    sh, sw = node.attr("strides", (kh, kw))
    pt, pl, pb, pr = node.attr("pads", (0, 0, 0, 0))
    oh = conv_out_dim(h, kh, sh, pt, pb)
    ow = conv_out_dim(w, kw, sw, pl, pr)
    return [(n, oh, ow, c)]


OP_REGISTRY["MaxPool"] = _infer_pool
OP_REGISTRY["AveragePool"] = _infer_pool


@register("GlobalAveragePool")
def _infer_gap(node: Node, input_shapes: List[Shape]) -> List[Shape]:
    data = input_shapes[0]
    _expect_rank(data, 4, "GlobalAveragePool data")
    n, _, _, c = data
    return [(n, 1, 1, c)]


@register("Flatten")
def _infer_flatten(node: Node, input_shapes: List[Shape]) -> List[Shape]:
    data = input_shapes[0]
    n = data[0]
    rest = 1
    for d in data[1:]:
        rest *= d
    return [(n, rest)]


def reshape_target(data: Shape, target: Sequence[int]) -> Shape:
    """The output shape of reshaping ``data`` to ``target`` (one ``-1``
    allowed), or :class:`ShapeError` if the element counts disagree."""
    target = list(target)
    total = math.prod(data)
    if target.count(-1) > 1:
        raise ShapeError("Reshape allows at most one -1")
    known = 1
    for d in target:
        if d != -1:
            known *= d
    if -1 in target:
        if total % known != 0:
            raise ShapeError(f"cannot reshape {data} to {target}")
        target[target.index(-1)] = total // known
    elif known != total:
        raise ShapeError(f"cannot reshape {data} ({total}) to {target} ({known})")
    return tuple(target)


def batch_rescaled(shape: Sequence[int], size: int) -> Tuple[int, ...]:
    """A Reshape ``shape`` attribute adapted to an input of ``size`` elements.

    The attribute is recorded at the graph's declared batch.  For a
    batched feed whose element count differs, the leading (batch) dim
    becomes ``-1`` so every sample reshapes identically; otherwise the
    attribute is returned as is.  The interpreted Reshape kernel and
    the compiled executor's run-shape propagation both apply this rule.
    """
    shape = tuple(shape)
    if shape and math.prod(shape) != size:
        rest = math.prod(shape[1:])
        if rest > 0 and size % rest == 0:
            return (-1,) + shape[1:]
    return shape


@register("Reshape")
def _infer_reshape(node: Node, input_shapes: List[Shape]) -> List[Shape]:
    return [reshape_target(input_shapes[0], node.attr("shape"))]


@register("Transpose")
def _infer_transpose(node: Node, input_shapes: List[Shape]) -> List[Shape]:
    data = input_shapes[0]
    perm = node.attr("perm", tuple(reversed(range(len(data)))))
    if sorted(perm) != list(range(len(data))):
        raise ShapeError(f"invalid perm {perm} for shape {data}")
    return [tuple(data[p] for p in perm)]


@register("Concat")
def _infer_concat(node: Node, input_shapes: List[Shape]) -> List[Shape]:
    axis = int(node.attr("axis"))
    base = list(input_shapes[0])
    axis = axis % len(base)
    total = base[axis]
    for s in input_shapes[1:]:
        if len(s) != len(base):
            raise ShapeError("Concat rank mismatch")
        for i, (a, b) in enumerate(zip(base, s)):
            if i != axis and a != b:
                raise ShapeError(f"Concat non-axis dim mismatch: {input_shapes}")
        total += s[axis]
    base[axis] = total
    return [tuple(base)]


@register("Slice")
def _infer_slice(node: Node, input_shapes: List[Shape]) -> List[Shape]:
    data = list(input_shapes[0])
    axis = int(node.attr("axis")) % len(data)
    start = int(node.attr("start"))
    end = int(node.attr("end"))
    start = max(0, start if start >= 0 else data[axis] + start)
    end = min(data[axis], end if end >= 0 else data[axis] + end)
    if end <= start:
        raise ShapeError(f"empty Slice [{start}:{end}] on axis {axis} of {data}")
    data[axis] = end - start
    return [tuple(data)]


@register("Pad")
def _infer_pad(node: Node, input_shapes: List[Shape]) -> List[Shape]:
    data = list(input_shapes[0])
    pads = node.attr("pads")  # sequence of (before, after) per axis
    if len(pads) != len(data):
        raise ShapeError(f"Pad needs one (before, after) pair per axis of {data}")
    out = []
    for d, (before, after) in zip(data, pads):
        if before < 0 or after < 0:
            raise ShapeError("negative padding is not supported")
        out.append(d + before + after)
    return [tuple(out)]


@register("ReduceMean")
def _infer_reduce_mean(node: Node, input_shapes: List[Shape]) -> List[Shape]:
    data = list(input_shapes[0])
    axes = [a % len(data) for a in node.attr("axes")]
    keepdims = bool(node.attr("keepdims", True))
    if keepdims:
        for a in axes:
            data[a] = 1
        return [tuple(data)]
    return [tuple(d for i, d in enumerate(data) if i not in axes)]


def infer_shapes(node: Node, input_shapes: List[Shape]) -> List[Shape]:
    """Infer output shapes for ``node`` given its input shapes."""
    fn = OP_REGISTRY.get(node.op_type)
    if fn is None:
        raise ShapeError(f"unregistered op type {node.op_type!r} (node {node.name!r})")
    expected_inputs = len(node.inputs)
    if len(input_shapes) != expected_inputs:
        raise ShapeError(
            f"node {node.name!r} has {expected_inputs} inputs but got "
            f"{len(input_shapes)} shapes"
        )
    shapes = fn(node, input_shapes)
    if len(shapes) != len(node.outputs):
        raise ShapeError(
            f"node {node.name!r} declares {len(node.outputs)} outputs but "
            f"inference produced {len(shapes)}"
        )
    return shapes
