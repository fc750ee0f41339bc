"""Numpy reference executor for model graphs.

The executor establishes *what a graph computes* so that every PIMFlow
transformation can be checked for semantics preservation: a transformed
graph must produce outputs numerically equal to the original.  All math
runs in float32 regardless of declared tensor dtype, which keeps the
equality checks deterministic across differently-ordered but equivalent
computations (splits, pipelining, command-level reordering).

The executor is also the serving engine behind ``runtime.verify`` and
any host-side inference, so convolution dispatches through vectorized
fast paths instead of a per-group Python loop:

* **depthwise** (``group == cin``, one filter per channel): strided
  window slices multiplied elementwise against the per-channel filter
  taps — no contraction at all.
* **regular** (``group == 1``): im2col + one GEMM when the lowered
  matrix is small enough, falling back to per-tap ``tensordot``
  accumulation for very large expansions (e.g. early VGG layers).
* **grouped** (``1 < group < cin``): a single einsum contraction per
  kernel tap over a ``(N, OH, OW, G, Cg)`` channel layout.

:func:`conv2d_nhwc_reference` keeps the original per-group loop as the
oracle the property tests compare every fast path against.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence

import numpy as np

from repro.graph.graph import Graph
from repro.graph.node import Node
from repro.graph.ops import batch_rescaled

Env = Dict[str, np.ndarray]
KernelFn = Callable[[Node, List[np.ndarray]], np.ndarray]

KERNELS: Dict[str, KernelFn] = {}

#: im2col expansions beyond this many float32 elements fall back to
#: per-tap accumulation (64 MB keeps peak memory bounded on big convs).
IM2COL_MAX_ELEMENTS = 16 * 1024 * 1024


def kernel(op_type: str) -> Callable[[KernelFn], KernelFn]:
    """Register the numpy implementation of an operator."""

    def wrap(fn: KernelFn) -> KernelFn:
        KERNELS[op_type] = fn
        return fn

    return wrap


def _conv_geometry(x: np.ndarray, w: np.ndarray, strides, pads, group: int):
    """Shared shape math and validation for all conv paths."""
    n, h, wdt, cin = x.shape
    kh, kw, cin_g, cout = w.shape
    sh, sw = strides
    pt, pl, pb, pr = pads
    if group < 1 or cin % group or cout % group:
        raise ValueError(
            f"group={group} must divide both cin={cin} and cout={cout}")
    if cin_g * group != cin:
        raise ValueError(
            f"weight cin/group={cin_g} inconsistent with cin={cin}, "
            f"group={group}")
    oh = (h + pt + pb - kh) // sh + 1
    ow = (wdt + pl + pr - kw) // sw + 1
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    return xp, n, oh, ow, kh, kw, sh, sw, cin_g, cout


def conv2d_nhwc_reference(x: np.ndarray, w: np.ndarray, bias: np.ndarray,
                          strides, pads, group: int) -> np.ndarray:
    """Naive per-group loop convolution — the semantics oracle.

    Kept deliberately simple (one ``tensordot`` per group per kernel
    tap) so the vectorized paths in :func:`conv2d_nhwc` have an
    independent reference to be property-tested against.
    """
    xp, n, oh, ow, kh, kw, sh, sw, cin_g, cout = _conv_geometry(
        x, w, strides, pads, group)
    cout_g = cout // group
    out = np.zeros((n, oh, ow, cout), dtype=np.float32)
    for g in range(group):
        xg = xp[..., g * cin_g:(g + 1) * cin_g]
        wg = w[..., g * cout_g:(g + 1) * cout_g]
        acc = np.zeros((n, oh, ow, cout_g), dtype=np.float32)
        for i in range(kh):
            for j in range(kw):
                patch = xg[:, i:i + oh * sh:sh, j:j + ow * sw:sw, :]
                acc += np.tensordot(patch, wg[i, j], axes=([3], [0]))
        out[..., g * cout_g:(g + 1) * cout_g] = acc
    if bias is not None:
        out = out + bias
    return out


def _conv_depthwise(xp: np.ndarray, w: np.ndarray, n, oh, ow, kh, kw,
                    sh, sw, cout) -> np.ndarray:
    # One filter tap per channel: the contraction degenerates to an
    # elementwise multiply-accumulate over strided window slices.
    taps = w.reshape(kh, kw, cout)
    out = np.zeros((n, oh, ow, cout), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            out += xp[:, i:i + oh * sh:sh, j:j + ow * sw:sw, :] * taps[i, j]
    return out


def _conv_grouped(xp: np.ndarray, w: np.ndarray, n, oh, ow, kh, kw,
                  sh, sw, cin_g, cout, group) -> np.ndarray:
    # (N, OH, OW, G, Cg) layout: one einsum contraction per kernel tap
    # covers every group at once.
    cout_g = cout // group
    # w[i, j] is (cin_g, cout) with cout = G-major; expose the groups.
    wg = w.reshape(kh, kw, cin_g, group, cout_g).transpose(0, 1, 3, 2, 4)
    out = np.zeros((n, oh, ow, group, cout_g), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, i:i + oh * sh:sh, j:j + ow * sw:sw, :]
            patch = patch.reshape(n, oh, ow, group, cin_g)
            out += np.einsum("nxygc,gcd->nxygd", patch, wg[i, j],
                             optimize=True)
    return out.reshape(n, oh, ow, cout)


def conv_window_view(xp: np.ndarray, oh: int, ow: int, kh: int, kw: int,
                     sh: int, sw: int) -> np.ndarray:
    """Read-only ``(N, OH, OW, KH, KW, C)`` view of every conv patch.

    Zero-materialization im2col: element ``[n, y, x, i, j, c]`` aliases
    ``xp[n, y*sh + i, x*sw + j, c]`` through pure stride arithmetic, so
    no patch matrix is built.  The view is explicitly non-writeable —
    overlapping windows alias the same storage, and a write through one
    would silently corrupt its neighbours.
    """
    n, _, _, cin = xp.shape
    sn, srow, scol, sc = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, shape=(n, oh, ow, kh, kw, cin),
        strides=(sn, srow * sh, scol * sw, srow, scol, sc),
        writeable=False)


def reshape_as_view(arr: np.ndarray, shape) -> np.ndarray:
    """``arr.reshape(shape)`` only if expressible as a view, else None.

    In-place ``.shape`` assignment is the one numpy reshape API that
    refuses to copy, which makes it a copy-free viewability probe.
    """
    v = arr[...]
    try:
        v.shape = shape
    except AttributeError:
        return None
    return v


def _conv_regular(xp: np.ndarray, w: np.ndarray, n, oh, ow, kh, kw,
                  sh, sw, cin, cout) -> np.ndarray:
    if kh == 1 and kw == 1:
        # Pointwise: a single GEMM over a strided view, no expansion.
        patch = xp[:, :oh * sh:sh, :ow * sw:sw, :]
        return np.ascontiguousarray(patch).reshape(-1, cin) @ \
            w.reshape(cin, cout)
    if n * oh * ow * kh * kw * cin <= IM2COL_MAX_ELEMENTS:
        # Strided-view im2col + one GEMM.  When the window view is
        # 2-D-reshapable in place the GEMM reads the input storage
        # directly; otherwise ``reshape`` performs one vectorized
        # gather into the same (npix, K) value layout the materialized
        # loop produced — the GEMM operand is bit-identical either way.
        cols = conv_window_view(xp, oh, ow, kh, kw, sh, sw)
        return cols.reshape(n * oh * ow, kh * kw * cin) @ \
            w.reshape(kh * kw * cin, cout)
    # Expansion too large: per-tap GEMM accumulation (full cin at once).
    out = np.zeros((n, oh, ow, cout), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, i:i + oh * sh:sh, j:j + ow * sw:sw, :]
            out += np.tensordot(patch, w[i, j], axes=([3], [0]))
    return out


def conv2d_nhwc(x: np.ndarray, w: np.ndarray, bias: np.ndarray,
                strides, pads, group: int) -> np.ndarray:
    """Vectorized NHWC convolution with groups.

    Dispatches to a depthwise, regular (im2col + GEMM), or grouped
    (einsum) fast path; all three match
    :func:`conv2d_nhwc_reference` within float32 tolerance (the test
    suite asserts this property) and remain the semantics used to
    validate the im2col lowering in :mod:`repro.lowering`.
    """
    xp, n, oh, ow, kh, kw, sh, sw, cin_g, cout = _conv_geometry(
        x, w, strides, pads, group)
    cin = x.shape[3]
    if group == 1:
        out = _conv_regular(xp, w, n, oh, ow, kh, kw, sh, sw, cin, cout)
        out = out.reshape(n, oh, ow, cout)
    elif group == cin and cin_g == 1 and cout == group:
        out = _conv_depthwise(xp, w, n, oh, ow, kh, kw, sh, sw, cout)
    else:
        out = _conv_grouped(xp, w, n, oh, ow, kh, kw, sh, sw, cin_g,
                            cout, group)
    if bias is not None:
        out = out + bias
    return out


@kernel("Conv")
def _run_conv(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    from repro.transform.fusion import apply_fused_activation

    x, w = inputs[0], inputs[1]
    bias = inputs[2] if len(inputs) > 2 else None
    out = conv2d_nhwc(
        x, w, bias,
        node.attr("strides", (1, 1)),
        node.attr("pads", (0, 0, 0, 0)),
        int(node.attr("group", 1)),
    )
    return apply_fused_activation(node, out)


@kernel("Gemm")
def _run_gemm(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    from repro.transform.fusion import apply_fused_activation

    out = inputs[0] @ inputs[1]
    if len(inputs) > 2:
        out = out + inputs[2]
    return apply_fused_activation(node, out)


@kernel("MatMul")
def _run_matmul(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    return inputs[0] @ inputs[1]


@kernel("Relu")
def _run_relu(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    return np.maximum(inputs[0], 0.0)


@kernel("Clip")
def _run_clip(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    return np.clip(inputs[0], node.attr("min", 0.0), node.attr("max", 6.0))


def stable_sigmoid(x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Overflow-free logistic: branch on sign so ``exp`` sees ``-|x|``.

    ``1 / (1 + exp(-x))`` overflows for large-negative ``x``; computing
    with ``e = exp(-|x|) <= 1`` gives ``1 / (1 + e)`` for ``x >= 0`` —
    bit-identical to the naive formula there — and ``e / (1 + e)`` for
    ``x < 0``, which is the same value evaluated without overflow.
    ``out`` may alias ``x``: the division is the only write.
    """
    e = np.exp(-np.abs(x))
    num = np.where(x >= 0, 1.0, e)
    return np.divide(num, 1.0 + e, out=out)


def stable_silu(x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Overflow-free ``x * sigmoid(x)``; ``out`` may alias ``x``."""
    e = np.exp(-np.abs(x))
    num = np.where(x >= 0, x, x * e)
    return np.divide(num, 1.0 + e, out=out)


@kernel("Sigmoid")
def _run_sigmoid(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    return stable_sigmoid(inputs[0])


@kernel("Silu")
def _run_silu(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    return stable_silu(inputs[0])


@kernel("Gelu")
def _run_gelu(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    # tanh approximation, matching common BERT implementations.
    x = inputs[0]
    return 0.5 * x * (1.0 + np.tanh(0.7978845608 * (x + 0.044715 * x ** 3)))


@kernel("Tanh")
def _run_tanh(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    return np.tanh(inputs[0])


@kernel("Erf")
def _run_erf(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    # Abramowitz & Stegun 7.1.26 rational approximation (scipy-free).
    x = inputs[0]
    sign = np.sign(x)
    ax = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * ax)
    poly = t * (0.254829592 + t * (-0.284496736 + t * (
        1.421413741 + t * (-1.453152027 + t * 1.061405429))))
    return sign * (1.0 - poly * np.exp(-ax * ax))


@kernel("Add")
def _run_add(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    return inputs[0] + inputs[1]


@kernel("Mul")
def _run_mul(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    return inputs[0] * inputs[1]


@kernel("Sub")
def _run_sub(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    return inputs[0] - inputs[1]


@kernel("Div")
def _run_div(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    return inputs[0] / inputs[1]


@kernel("BatchNormalization")
def _run_bn(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    x, scale, bias, mean, var = inputs
    eps = node.attr("epsilon", 1e-5)
    return (x - mean) / np.sqrt(var + eps) * scale + bias


def compile_elementwise(op: str, attrs: Mapping):
    """Bind-time form of a standalone elementwise kernel.

    Returns ``kernel(ins, out) -> ndarray`` performing the exact ufunc
    sequence of ``KERNELS[op]`` with the result written into ``out``
    and the op string and attr lookups resolved once.  ``out`` may
    alias the data operand (either operand of a binary op), the buffer
    planner's in-place case: each sequence reads its operands before
    its single write.  Bit-for-bit agreement with the interpreted kernel is
    the hard contract (same ufuncs, same order, same constants).
    """
    if op == "Add":
        return lambda ins, out: np.add(ins[0], ins[1], out=out)
    if op == "Mul":
        return lambda ins, out: np.multiply(ins[0], ins[1], out=out)
    if op == "Sub":
        return lambda ins, out: np.subtract(ins[0], ins[1], out=out)
    if op == "Div":
        return lambda ins, out: np.divide(ins[0], ins[1], out=out)
    if op == "Relu":
        return lambda ins, out: np.maximum(ins[0], 0.0, out=out)
    if op == "Clip":
        lo = attrs.get("min", 0.0)
        hi = attrs.get("max", 6.0)
        return lambda ins, out: np.clip(ins[0], lo, hi, out=out)
    if op == "Sigmoid":
        return lambda ins, out: stable_sigmoid(ins[0], out=out)
    if op == "Silu":
        return lambda ins, out: stable_silu(ins[0], out=out)
    if op == "Tanh":
        return lambda ins, out: np.tanh(ins[0], out=out)
    raise NotImplementedError(f"no compiled elementwise kernel for {op!r}")


def _pool(node: Node, x: np.ndarray, reducer: str) -> np.ndarray:
    kh, kw = node.attr("kernel_shape")
    sh, sw = node.attr("strides", (kh, kw))
    pt, pl, pb, pr = node.attr("pads", (0, 0, 0, 0))
    fill = -np.inf if reducer == "max" else 0.0
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)), constant_values=fill)
    n, h, w, c = xp.shape
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    # Accumulate tap by tap into one output-shaped buffer instead of
    # stacking all kh*kw windows: peak memory drops ~kh*kw-fold and the
    # reduction order (sequential over taps) matches the stacked
    # ``max``/``mean`` bit for bit.
    out = np.array(xp[:, :oh * sh:sh, :ow * sw:sw, :], dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            if i == 0 and j == 0:
                continue
            win = xp[:, i:i + oh * sh:sh, j:j + ow * sw:sw, :]
            if reducer == "max":
                np.maximum(out, win, out=out)
            else:
                out += win
    if reducer == "max":
        return out
    # ONNX AveragePool default excludes padding from the divisor only
    # with count_include_pad=0; the models here never average over pads.
    out /= kh * kw
    return out


@kernel("MaxPool")
def _run_maxpool(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    return _pool(node, inputs[0], "max")


@kernel("AveragePool")
def _run_avgpool(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    return _pool(node, inputs[0], "avg")


@kernel("GlobalAveragePool")
def _run_gap(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    return inputs[0].mean(axis=(1, 2), keepdims=True)


@kernel("Flatten")
def _run_flatten(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    x = inputs[0]
    return x.reshape(x.shape[0], -1)


@kernel("Reshape")
def _run_reshape(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    x = inputs[0]
    return x.reshape(batch_rescaled(node.attr("shape"), x.size))


@kernel("Transpose")
def _run_transpose(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    x = inputs[0]
    perm = node.attr("perm", tuple(reversed(range(x.ndim))))
    return np.transpose(x, perm)


@kernel("Softmax")
def _run_softmax(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    axis = node.attr("axis", -1)
    x = inputs[0]
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


@kernel("Identity")
def _run_identity(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    return inputs[0]


@kernel("Concat")
def _run_concat(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(inputs, axis=int(node.attr("axis")))


@kernel("Slice")
def _run_slice(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    x = inputs[0]
    axis = int(node.attr("axis")) % x.ndim
    index = [slice(None)] * x.ndim
    index[axis] = slice(int(node.attr("start")), int(node.attr("end")))
    return x[tuple(index)]


@kernel("Pad")
def _run_pad(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    return np.pad(inputs[0], tuple(node.attr("pads")))


@kernel("ReduceMean")
def _run_reduce_mean(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    axes = tuple(node.attr("axes"))
    return inputs[0].mean(axis=axes, keepdims=bool(node.attr("keepdims", True)))


def execute_node(node: Node, inputs: List[np.ndarray]) -> np.ndarray:
    """Execute a single node on concrete inputs."""
    fn = KERNELS.get(node.op_type)
    if fn is None:
        raise NotImplementedError(f"no numpy kernel for op {node.op_type!r}")
    return fn(node, [
        x if isinstance(x, np.ndarray) and x.dtype == np.float32
        else np.asarray(x, dtype=np.float32)
        for x in inputs
    ])


def graph_initializers_f32(graph: Graph) -> Dict[str, np.ndarray]:
    """Float32 views of a graph's initializers, cached per graph.

    The cache is keyed on the graph's mutation :attr:`~Graph.version`
    and entry count, so repeated :func:`execute` calls skip the
    per-call dtype coercion while any ``add_initializer`` (or
    :meth:`~Graph.touch`) invalidates it.
    """
    cached = getattr(graph, "_f32_initializers", None)
    if (cached is not None and cached[0] == graph.version
            and len(cached[1]) == len(graph.initializers)):
        return cached[1]
    converted = {
        name: np.asarray(value, dtype=np.float32)
        for name, value in graph.initializers.items()
    }
    graph._f32_initializers = (graph.version, converted)
    return converted


def _node_results(node: Node, result) -> Sequence[np.ndarray]:
    """Normalize a kernel's return value to one array per output."""
    if isinstance(result, (tuple, list)):
        if len(result) != len(node.outputs):
            raise ValueError(
                f"kernel for {node.op_type!r} returned {len(result)} arrays "
                f"for {len(node.outputs)} outputs")
        return result
    if len(node.outputs) != 1:
        raise ValueError(
            f"kernel for {node.op_type!r} returned one array for "
            f"{len(node.outputs)} outputs")
    return (result,)


def execute(graph: Graph, feeds: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Run a graph on concrete inputs and return its output tensors.

    ``feeds`` maps graph-input names to arrays; initializers come from
    the graph itself (converted to float32 once per graph and cached).
    Feeds may carry a larger leading batch dimension than the graph
    declares — every registered op is batch-polymorphic, so an
    ``(8, H, W, C)`` feed into a batch-1 graph executes all eight
    samples in one pass, amortizing the per-node Python dispatch.
    Intermediate tensors are freed as soon as their last consumer has
    run, so large transformed graphs stay cheap.
    """
    inits = graph_initializers_f32(graph)
    env: Env = {}
    for name in graph.inputs:
        if name not in feeds:
            raise KeyError(f"missing feed for graph input {name!r}")
        env[name] = np.asarray(feeds[name], dtype=np.float32)

    order = graph.toposort()
    remaining_uses: Dict[str, int] = {}
    for n in order:
        for t in n.inputs:
            remaining_uses[t] = remaining_uses.get(t, 0) + 1

    outputs: Dict[str, np.ndarray] = {}
    keep = set(graph.outputs) | set(graph.inputs)
    wanted = set(graph.outputs)
    for n in order:
        fn = KERNELS.get(n.op_type)
        if fn is None:
            raise NotImplementedError(f"no numpy kernel for op {n.op_type!r}")
        result = fn(n, [env[t] if t in env else inits[t] for t in n.inputs])
        for t, value in zip(n.outputs, _node_results(n, result)):
            env[t] = value
            if t in wanted:
                outputs[t] = value
        for t in n.inputs:
            remaining_uses[t] -= 1
            if remaining_uses[t] == 0 and t not in keep and t in env:
                del env[t]
    for t in graph.outputs:
        if t in env:
            outputs[t] = env[t]
        elif t in inits:
            outputs[t] = inits[t]
    return outputs
