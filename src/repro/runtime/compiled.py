"""Compile-once executor over a planned arena, concurrency-ready.

The module splits repeat inference into two halves:

* :class:`_ProgramSpec` — the immutable **program**: buffer plan, run
  shapes, read-only float32 weights and prepared kernel operands
  (contiguous weight reshapes, BatchNorm denominators).  One spec is
  shared by every concurrent run.
* :class:`ExecutionState` — the cheap per-run half: one arena, one
  scratch holder, and the node closures bound against *this* state's
  arena views.  States are pooled (:class:`~repro.runtime.hostpool.
  StatePool`), so N server workers execute truly concurrently with no
  global run lock; each state runs its steps serially, one run at a
  time, and BLAS owns the cores inside each GEMM.

Per run there is no toposort, no dict lookup, no attribute parsing,
and (for planned tensors) no allocation: every tensor's bytes live at
a fixed offset of the state's arena, elided Slice/Concat/Pad nodes
from :mod:`repro.transform.memopt` cost nothing, and convolutions read
pre-padded arena views instead of calling ``np.pad`` per invocation.

Convolutions skip materializing im2col:
:func:`~repro.runtime.numerical.conv_window_view` builds a read-only
``as_strided`` patch view that feeds the GEMM directly when the 2-D
reshape is expressible as a view, and otherwise collapses to a single
vectorized gather into scratch.

Semantics contract: outputs are **byte-identical** to the interpreted
:func:`repro.runtime.numerical.execute` oracle.
Every specialized closure re-expresses the interpreter's exact
floating-point op sequence (same ufuncs, same operand order, same GEMM
operands) with the destination redirected into the arena; anything
without a proven bit-identical specialization falls back to calling
the registered kernel and copying the result into place.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.graph.node import Node
from repro.graph.ops import batch_rescaled, infer_shapes, reshape_target
from repro.runtime.bufferplan import BufferPlan, plan_buffers
from repro.runtime.hostpool import DEFAULT_MAX_STATES, StatePool
from repro.runtime.numerical import (
    IM2COL_MAX_ELEMENTS,
    KERNELS,
    _node_results,
    compile_elementwise,
    conv_window_view,
    graph_initializers_f32,
    reshape_as_view,
    stable_sigmoid,
    stable_silu,
)

#: Float32 elements per depthwise output band (256 KB): small enough
#: that a band's accumulator and tap products sit in L2 across every
#: tap, large enough that per-band Python dispatch is noise.  Banding
#: only changes which elements share a ufunc call, so the band size
#: never affects the bytes produced.
TILE_ELEMENTS = 64 * 1024

#: Standalone elementwise ops bound through
#: :func:`~repro.runtime.numerical.compile_elementwise` into one
#: in-place step; the rest (Gelu, Erf) go through the generic kernel.
_ELEMENTWISE_OPS = frozenset((
    "Relu", "Tanh", "Sigmoid", "Silu", "Add", "Mul", "Sub", "Div", "Clip"))


class _Scratch:
    """Per-state scratch pools, sized during bind, allocated lazily.

    Closures capture this holder and request shaped views at call time
    (``a``: im2col columns / contiguous input staging, ``b``: staged
    conv GEMM output, or one cache-sized band of depthwise tap
    products).  The pool checks a state out to one run at a time and a
    run executes its steps serially, so one pair of buffers per state
    serves every step.  Sizes are frozen once binding completes; the
    buffers are allocated once, on first use.
    """

    __slots__ = ("need_a", "need_b", "a", "b")

    def __init__(self) -> None:
        self.need_a = 0
        self.need_b = 0
        self.a: Optional[np.ndarray] = None
        self.b: Optional[np.ndarray] = None

    def view_a(self, shape: Tuple[int, ...]) -> np.ndarray:
        buf = self.a
        if buf is None or buf.size < self.need_a:
            buf = self.a = np.empty(self.need_a, dtype=np.float32)
        n = 1
        for d in shape:
            n *= d
        return buf[:n].reshape(shape)

    def view_b(self, shape: Tuple[int, ...]) -> np.ndarray:
        buf = self.b
        if buf is None or buf.size < self.need_b:
            buf = self.b = np.empty(self.need_b, dtype=np.float32)
        n = 1
        for d in shape:
            n *= d
        return buf[:n].reshape(shape)


def _run_shapes(graph: Graph,
                feeds: Mapping[str, np.ndarray]) -> Dict[str, tuple]:
    """Exact per-tensor run shapes for ``feeds``.

    Propagates the feed shapes through the graph's shape rules
    (:func:`~repro.graph.ops.infer_shapes`) without running a kernel.
    Reshape targets are adapted to the feed's batch by
    :func:`~repro.graph.ops.batch_rescaled`, the rule the interpreted
    kernel applies, so these are the shapes ``execute`` produces; at
    the declared batch they are the graph's own tensor table.
    """
    shapes: Dict[str, tuple] = {
        name: tuple(info.shape) for name, info in graph.tensors.items()}
    for name in graph.inputs:
        shapes[name] = tuple(np.shape(feeds[name]))
    for n in graph.toposort():
        ins = [shapes[t] for t in n.inputs]
        if n.op_type == "Reshape":
            target = batch_rescaled(n.attr("shape"), math.prod(ins[0]))
            outs = [reshape_target(ins[0], target)]
        else:
            outs = infer_shapes(n, ins)
        shapes.update(zip(n.outputs, outs))
    return shapes


def _activation_inplace(node: Node) -> Optional[Callable[[np.ndarray], None]]:
    """In-place variant of ``apply_fused_activation`` for arena views."""
    kind = node.attr("activation")
    if not kind:
        return None
    if kind == "relu":
        def act(out: np.ndarray) -> None:
            np.maximum(out, 0.0, out=out)
        return act
    if kind == "clip":
        lo = node.attr("activation_min", 0.0)
        hi = node.attr("activation_max", 6.0)

        def act(out: np.ndarray) -> None:
            np.clip(out, lo, hi, out=out)
        return act
    if kind == "silu":
        def act(out: np.ndarray) -> None:
            stable_silu(out, out=out)
        return act
    if kind == "sigmoid":
        def act(out: np.ndarray) -> None:
            stable_sigmoid(out, out=out)
        return act
    if kind == "gelu":
        def act(out: np.ndarray) -> None:
            np.copyto(out, 0.5 * out * (1.0 + np.tanh(
                0.7978845608 * (out + 0.044715 * out ** 3))))
        return act
    raise ValueError(f"unknown fused activation {kind!r}")


#: Channel runs at least this long (float32 elements, 1 KB) already
#: amortize numpy's per-inner-loop dispatch: widening them to a full
#: output row measured no faster and costs ``ow`` times the memory.
_SHORT_RUN = 256


def _rows_contiguous(arr: np.ndarray) -> bool:
    """Whether each ``(W, C)`` row block of an NHWC view is one run.

    Only then can numpy merge W and C into a single inner loop — and
    only then does a row-wide per-channel operand lengthen it.
    """
    return (arr.strides[-1] == arr.itemsize
            and arr.strides[-2] == arr.shape[-1] * arr.itemsize)


def _row_bands(n: int, oh: int,
               row_elems: int) -> List[Tuple[int, int, int, int]]:
    """``(n0, n1, y0, y1)`` output bands of ~:data:`TILE_ELEMENTS`.

    A band is a run of whole images when one image fits the budget,
    otherwise a run of rows (at least one) of a single image.
    """
    rows = max(1, TILE_ELEMENTS // max(1, row_elems))
    if rows >= oh:
        imgs = max(1, rows // oh)
        return [(n0, min(n, n0 + imgs), 0, oh) for n0 in range(0, n, imgs)]
    return [(i, i + 1, y0, min(oh, y0 + rows))
            for i in range(n) for y0 in range(0, oh, rows)]


def _depthwise_bands(xp: np.ndarray, dst: np.ndarray, scratch: "_Scratch",
                     bands, taps: np.ndarray, bias: Optional[np.ndarray],
                     act: Optional[Callable[[np.ndarray], None]],
                     kh: int, kw: int, sh: int, sw: int) -> None:
    """Depthwise conv of ``xp`` into ``dst``, one cache-resident band
    at a time.

    Per output element this is the oracle's exact op sequence — a
    ``+0.0`` start, then ``+= x * tap`` for every tap in (i, j) order,
    then ``+ bias``, then the activation — so banding only changes
    which elements share a ufunc call, never a value.  The band's
    accumulator and tap products (scratch ``b``) stay in cache across
    all of its passes instead of streaming the whole layer per tap.
    ``taps``/``bias`` may be row-wide (see
    :meth:`_ProgramSpec.row_wide`).
    """
    ow, c = dst.shape[2], dst.shape[3]
    for n0, n1, y0, y1 in bands:
        rows = y1 - y0
        xb = xp[n0:n1, y0 * sh:(y1 - 1) * sh + kh]
        db = dst[n0:n1, y0:y1]
        sb = scratch.view_b((n1 - n0, rows, ow, c))
        db[...] = 0.0
        for i in range(kh):
            for j in range(kw):
                np.multiply(xb[:, i:i + rows * sh:sh, j:j + ow * sw:sw],
                            taps[i, j], out=sb)
                np.add(db, sb, out=db)
        if bias is not None:
            np.add(db, bias, out=db)
        if act is not None:
            act(db)


class _ProgramSpec:
    """The immutable compiled program for one set of feed shapes.

    Holds everything concurrent states share read-only: the graph, the
    resolved run shapes, the buffer plan, float32 weights and prepared
    kernel operands.  Specs never touch an arena — that is the state's
    job.
    """

    def __init__(self, graph: Graph, shapes: Dict[str, tuple],
                 *, elide: bool) -> None:
        self.graph = graph
        self.shapes = shapes
        self.elide = elide
        self.plan: BufferPlan = plan_buffers(graph, shapes, elide=elide)
        self.inits = graph_initializers_f32(graph)
        self._lock = threading.Lock()
        self._prepared: Dict[tuple, np.ndarray] = {}
        #: Step count per kind ("gemm", "dwconv", "elementwise",
        #: "copy", "other"), recorded by the first state to
        #: bind; binding is deterministic, so every state agrees.
        self.step_kind_counts: Optional[Dict[str, int]] = None

    def prepared(self, key: tuple,
                 build: Callable[[], np.ndarray]) -> np.ndarray:
        """Memoized read-only operand (contiguous weight reshape, BN
        denominator, ...) shared across all states of this program."""
        with self._lock:
            arr = self._prepared.get(key)
        if arr is None:
            built = build()
            with self._lock:
                arr = self._prepared.setdefault(key, built)
        return arr

    def packed_weight(self, arr: np.ndarray,
                      shape: Tuple[int, ...]) -> np.ndarray:
        """Contiguous ``arr.reshape(shape)``, cached per (array, shape,
        dtype) so nodes sharing one initializer — and repeat binds of
        the same node — share a single re-layout."""
        key = ("packed", id(arr), arr.shape, tuple(shape), arr.dtype.str)
        return self.prepared(
            key, lambda: np.ascontiguousarray(arr.reshape(shape)))

    def row_wide(self, arr: np.ndarray, ow: int) -> np.ndarray:
        """Per-channel ``arr`` (channels last) repeated across a full
        output row: shape ``arr.shape[:-1] + (ow, C)``, contiguous.

        Broadcasting a ``(C,)`` operand over an NHWC row keeps numpy's
        inner loop ``C`` elements long; the row-wide copy lets W and C
        merge into one ``ow * C`` loop.  Values are repeats, so every
        element's product or sum is unchanged.  Built once per program
        and shared by every state.  Operands whose channel run is
        already :data:`_SHORT_RUN` long come back unchanged.
        """
        if arr.shape[-1] >= _SHORT_RUN:
            return arr
        key = ("row_wide", id(arr), arr.shape, ow)
        return self.prepared(key, lambda: np.ascontiguousarray(
            np.broadcast_to(arr[..., None, :],
                            arr.shape[:-1] + (ow, arr.shape[-1]))))


class ExecutionState:
    """One graph bound to one private arena for one run at a time.

    The cheap, per-run half of the program/state split: acquiring a
    state from the pool and running it touches no shared mutable
    memory, so concurrent states proceed with zero lock contention.
    """

    def __init__(self, spec: _ProgramSpec) -> None:
        self.spec = spec
        graph = spec.graph
        self._scratch = _Scratch()
        self._steps: List[Callable[[], None]] = []
        self._step_kinds: List[str] = []
        #: Per step: the name of the node it was bound from.
        self._step_meta: List[str] = []
        # Arena zeroed exactly once: pinned roots keep margins and
        # elided-Pad borders zero across runs, everything else is fully
        # rewritten every run.
        self.arena = np.zeros(spec.plan.arena_elements, dtype=np.float32)
        self._views: Dict[str, np.ndarray] = {}
        self._root_arrays: Dict[str, np.ndarray] = {}
        self._bind()
        self._input_views = [(name, self._views[name])
                             for name in graph.inputs]
        self._output_views = {t: self._views.get(t) for t in graph.outputs}
        if spec.step_kind_counts is None:
            counts: Dict[str, int] = {}
            for kind in self._step_kinds:
                counts[kind] = counts.get(kind, 0) + 1
            spec.step_kind_counts = counts

    # ------------------------------------------------------------------
    # View resolution
    # ------------------------------------------------------------------
    def _root_interior(self, root: str) -> np.ndarray:
        if root in self._root_arrays:
            return self._root_arrays[root]
        alloc = self.spec.plan.roots[root]
        start = alloc.arena_offset
        arr = self.arena[start:start + alloc.elements].reshape(
            alloc.padded_shape)
        interior = arr[tuple(
            slice(b, b + d) for d, (b, _) in zip(alloc.shape, alloc.margins))]
        self._root_arrays[root] = interior
        return interior

    def _rect_view(self, tensor: str) -> np.ndarray:
        st = self.spec.plan.storage[tensor]
        if st.root in self.spec.inits:
            base = self.spec.inits[st.root]
        else:
            base = self._root_interior(st.root)
        if st.root == tensor:
            return base
        return base[tuple(slice(o, o + d)
                          for o, d in zip(st.offset, st.shape))]

    def _view(self, tensor: str) -> np.ndarray:
        v = self._views.get(tensor)
        if v is None:
            if tensor in self.spec.inits:
                # Weights are never laid into the arena; they are
                # shared read-only across runs and graphs.
                v = self.spec.inits[tensor]
            else:
                v = self._rect_view(tensor)
            self._views[tensor] = v
        return v

    def _padded_conv_view(self, tensor: str,
                          pads: Tuple[int, int, int, int]) -> np.ndarray:
        """The pre-padded read window for a served convolution input."""
        st = self.spec.plan.storage[tensor]
        alloc = self.spec.plan.roots[st.root]
        arr = self.arena[alloc.arena_offset:
                         alloc.arena_offset + alloc.elements].reshape(
            alloc.padded_shape)
        pt, pl, pb, pr = pads
        extra = ((0, 0), (pt, pb), (pl, pr), (0, 0))
        index = []
        for d in range(4):
            before, _ = alloc.margins[d]
            off = st.offset[d]
            lo, hi = extra[d]
            index.append(slice(before + off - lo,
                               before + off + st.shape[d] + hi))
        return arr[tuple(index)]

    def _add_step(self, fn: Callable[[], None], node: str,
                  kind: str = "other") -> None:
        self._steps.append(fn)
        self._step_kinds.append(kind)
        self._step_meta.append(node)

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def _bind(self) -> None:
        graph = self.spec.graph
        for name in graph.inputs:
            self._view(name)
        for node in graph.toposort():
            op = node.op_type
            if op in ("Identity", "Slice", "Reshape", "Flatten", "Transpose"):
                self._bind_view_op(node)
            elif op == "Concat":
                self._bind_concat(node)
            elif op == "Pad":
                self._bind_pad(node)
            elif op == "Conv":
                self._bind_conv(node)
            elif op in ("Gemm", "MatMul"):
                self._bind_gemm(node)
            elif op == "BatchNormalization":
                self._bind_bn(node)
            elif op in _ELEMENTWISE_OPS:
                self._bind_elementwise(node)
            else:
                self._bind_generic(node)
        for t in graph.outputs:
            if t not in self.spec.inits:
                self._view(t)

    def _bind_view_op(self, node: Node) -> None:
        src = self._view(node.inputs[0])
        out = node.outputs[0]
        op = node.op_type
        if op == "Identity":
            self._views[out] = src
            return
        if op == "Slice":
            axis = int(node.attr("axis")) % src.ndim
            index = [slice(None)] * src.ndim
            index[axis] = slice(int(node.attr("start")),
                                int(node.attr("end")))
            self._views[out] = src[tuple(index)]
            return
        if op == "Transpose":
            perm = node.attr("perm", tuple(reversed(range(src.ndim))))
            self._views[out] = np.transpose(src, perm)
            return
        # Reshape / Flatten: a view when numpy can express the
        # reinterpretation without a copy; otherwise the tensor gets a
        # private buffer and a per-run copy — exactly the copy the
        # interpreter's ``x.reshape`` would make.
        shape = self.spec.shapes[out]
        try:
            candidate = src.reshape(shape)
        except ValueError:
            candidate = None
        if candidate is not None and np.shares_memory(candidate, src):
            self._views[out] = candidate
            return
        priv = np.empty(shape, dtype=np.float32)
        self._views[out] = priv

        def step(src=src, priv=priv, shape=shape) -> None:
            np.copyto(priv, src.reshape(shape))
        self._add_step(step, node.name, kind="copy")

    def _bind_concat(self, node: Node) -> None:
        out = node.outputs[0]
        out_st = self.spec.plan.storage[out]
        out_view = self._view(out)
        axis = int(node.attr("axis")) % out_view.ndim
        cursor = 0
        copies = []
        for t in node.inputs:
            extent = self.spec.shapes[t][axis]
            st = self.spec.plan.storage.get(t)
            aliased = (
                st is not None and out_st.is_rect and st.is_rect
                and st.root == out_st.root
                and st.offset == tuple(
                    o + (cursor if d == axis else 0)
                    for d, o in enumerate(out_st.offset)))
            if not aliased:
                index = [slice(None)] * out_view.ndim
                index[axis] = slice(cursor, cursor + extent)
                copies.append((out_view[tuple(index)], self._view(t)))
            cursor += extent
        if copies:
            def step(copies=copies) -> None:
                for dst, src in copies:
                    np.copyto(dst, src)
            self._add_step(step, node.name, kind="copy")

    def _bind_pad(self, node: Node) -> None:
        src_name, out = node.inputs[0], node.outputs[0]
        pads = tuple(tuple(p) for p in node.attr("pads"))
        out_st = self.spec.plan.storage[out]
        st = self.spec.plan.storage.get(src_name)
        aliased = (
            st is not None and st.is_rect and out_st.is_rect
            and st.root == out_st.root
            and st.offset == tuple(
                o + before for o, (before, _) in zip(out_st.offset, pads)))
        if aliased:
            self._view(out)  # border is arena zeros on a pinned root
            return
        self._bind_generic(node)

    # -- Convolution ----------------------------------------------------
    def _conv_input(self, node: Node,
                    pads: Tuple[int, int, int, int]):
        """(get_xp, static) — padded input window and whether it's free."""
        x_name = node.inputs[0]
        x = self._view(x_name)
        pt, pl, pb, pr = pads
        if self.spec.plan.padded_reads.get(node.name):
            xp = self._padded_conv_view(x_name, pads)
            return (lambda: xp), True
        if not (pt or pl or pb or pr):
            return (lambda: x), True
        pad_spec = ((0, 0), (pt, pb), (pl, pr), (0, 0))
        return (lambda: np.pad(x, pad_spec)), False

    def _bind_conv(self, node: Node) -> None:
        spec = self.spec
        w_name = node.inputs[1]
        bias_name = node.inputs[2] if len(node.inputs) > 2 else None
        if w_name not in spec.inits or (
                bias_name is not None and bias_name not in spec.inits):
            self._bind_generic(node)
            return
        w = spec.inits[w_name]
        bias = spec.inits[bias_name] if bias_name else None
        strides = node.attr("strides", (1, 1))
        pads = tuple(node.attr("pads", (0, 0, 0, 0)))
        group = int(node.attr("group", 1))
        x_name, out_name = node.inputs[0], node.outputs[0]
        n, h, wdt, cin = spec.shapes[x_name]
        kh, kw, cin_g, cout = w.shape
        sh, sw = strides
        pt, pl, pb, pr = pads
        if group < 1 or cin % group or cout % group \
                or cin_g * group != cin:
            self._bind_generic(node)
            return
        oh = (h + pt + pb - kh) // sh + 1
        ow = (wdt + pl + pr - kw) // sw + 1
        dst = self._view(out_name)
        act = _activation_inplace(node)
        get_xp, static = self._conv_input(node, pads)
        scratch = self._scratch
        wbias = bias
        if bias is not None and _rows_contiguous(dst):
            wbias = spec.row_wide(bias, ow)

        def epilogue() -> None:
            if wbias is not None:
                np.add(dst, wbias, out=dst)
            if act is not None:
                act(dst)

        def store(src: np.ndarray) -> None:
            # A staged result lands in dst with the bias add fused into
            # the copy: the same sum, one pass fewer.
            if wbias is not None:
                np.add(src, wbias, out=dst)
            else:
                np.copyto(dst, src)
            if act is not None:
                act(dst)

        if group == cin and cin_g == 1 and cout == group:
            taps = spec.packed_weight(w, (kh, kw, cout))
            if sw == 1 and (not static or _rows_contiguous(get_xp())):
                taps = spec.row_wide(taps, ow)
            bands = _row_bands(n, oh, ow * cout)
            scratch.need_b = max(scratch.need_b, max(
                (b1 - b0) * (y1 - y0) * ow * cout
                for b0, b1, y0, y1 in bands))

            def step() -> None:
                _depthwise_bands(get_xp(), dst, scratch, bands,
                                 taps, wbias, act, kh, kw, sh, sw)
            self._add_step(step, node.name, kind="dwconv")
            return

        if group != 1:
            from repro.runtime.numerical import _conv_grouped

            def step() -> None:
                store(_conv_grouped(get_xp(), w, n, oh, ow, kh, kw,
                                    sh, sw, cin_g, cout, group))
            self._add_step(step, node.name, kind="gemm")
            return

        # Regular convolution: GEMM with the result written in place
        # when the destination is contiguous, staged otherwise.
        npix = n * oh * ow
        dst_contig = dst.flags.c_contiguous
        dst2d = dst.reshape(npix, cout) if dst_contig else None
        if not dst_contig:
            scratch.need_b = max(scratch.need_b, npix * cout)

        def gemm(a2d: np.ndarray, w2d: np.ndarray) -> None:
            if dst2d is not None:
                np.matmul(a2d, w2d, out=dst2d)
                epilogue()
            else:
                sb = scratch.view_b((npix, cout))
                np.matmul(a2d, w2d, out=sb)
                store(sb.reshape(n, oh, ow, cout))

        if kh == 1 and kw == 1:
            w2d = spec.packed_weight(w, (cin, cout))
            scratch.need_a = max(scratch.need_a, npix * cin)

            def step() -> None:
                patch = get_xp()[:, :oh * sh:sh, :ow * sw:sw, :]
                if patch.flags.c_contiguous:
                    a2d = patch.reshape(npix, cin)
                else:
                    sa = scratch.view_a((n, oh, ow, cin))
                    np.copyto(sa, patch)
                    a2d = sa.reshape(npix, cin)
                gemm(a2d, w2d)
            self._add_step(step, node.name, kind="gemm")
            return

        if npix * kh * kw * cin <= IM2COL_MAX_ELEMENTS:
            # Zero-materialization im2col: a read-only as_strided view
            # of every patch.  With a static input window (pre-padded
            # arena view or pad-free input) the view is built once at
            # bind time; if the (npix, K) flattening is expressible as
            # a view, the GEMM reads the input storage directly and no
            # column matrix ever exists.  Otherwise one vectorized
            # gather into scratch replaces the old per-tap copy loop —
            # the GEMM operand holds identical bytes in every path, so
            # the result is too.
            K = kh * kw * cin
            w2d = spec.packed_weight(w, (K, cout))
            if static:
                win = conv_window_view(get_xp(), oh, ow, kh, kw, sh, sw)
                a2d = reshape_as_view(win, (npix, K))
                if a2d is not None:
                    def step(a2d=a2d) -> None:
                        gemm(a2d, w2d)
                    self._add_step(step, node.name, kind="gemm")
                    return
                scratch.need_a = max(scratch.need_a, npix * K)

                def step(win=win) -> None:
                    cols = scratch.view_a((n, oh, ow, kh, kw, cin))
                    np.copyto(cols, win)
                    gemm(cols.reshape(npix, K), w2d)
                self._add_step(step, node.name, kind="gemm")
                return
            scratch.need_a = max(scratch.need_a, npix * K)

            def step() -> None:
                cols = scratch.view_a((n, oh, ow, kh, kw, cin))
                np.copyto(cols,
                          conv_window_view(get_xp(), oh, ow, kh, kw, sh, sw))
                gemm(cols.reshape(npix, K), w2d)
            self._add_step(step, node.name, kind="gemm")
            return

        def step() -> None:
            xp = get_xp()
            dst[...] = 0.0
            for i in range(kh):
                for j in range(kw):
                    patch = xp[:, i:i + oh * sh:sh, j:j + ow * sw:sw, :]
                    np.add(dst, np.tensordot(patch, w[i, j], axes=([3], [0])),
                           out=dst)
            epilogue()
        self._add_step(step, node.name, kind="gemm")

    def _bind_gemm(self, node: Node) -> None:
        spec = self.spec
        a = self._view(node.inputs[0]) if node.inputs[0] not in spec.inits \
            else spec.inits[node.inputs[0]]
        b = spec.inits[node.inputs[1]] \
            if node.inputs[1] in spec.inits else self._view(node.inputs[1])
        bias = None
        bias_name = None
        if node.op_type == "Gemm" and len(node.inputs) > 2:
            bias_name = node.inputs[2]
            bias = spec.inits[bias_name] if bias_name in spec.inits \
                else self._view(bias_name)
        dst = self._view(node.outputs[0])
        act = _activation_inplace(node) if node.op_type == "Gemm" else None
        if dst.flags.c_contiguous:
            def step() -> None:
                np.matmul(a, b, out=dst)
                if bias is not None:
                    np.add(dst, bias, out=dst)
                if act is not None:
                    act(dst)
            self._add_step(step, node.name, kind="gemm")
        else:
            self._scratch.need_b = max(self._scratch.need_b, dst.size)
            scratch, shape = self._scratch, dst.shape

            def step() -> None:
                # Staged: the bias add is fused into the copy to dst.
                sb = scratch.view_b(shape)
                np.matmul(a, b, out=sb)
                if bias is not None:
                    np.add(sb, bias, out=dst)
                else:
                    np.copyto(dst, sb)
                if act is not None:
                    act(dst)
            self._add_step(step, node.name, kind="gemm")

    def _bind_bn(self, node: Node) -> None:
        spec = self.spec
        params = node.inputs[1:5]
        if any(p not in spec.inits for p in params):
            self._bind_generic(node)
            return
        scale, bias, mean, var = (spec.inits[p] for p in params)
        eps = node.attr("epsilon", 1e-5)
        # Same op sequence as the kernel — (x - mean) / sqrt(var + eps)
        # * scale + bias — with the denominator precomputed (identical
        # float32 value) and every step writing in place.
        denom = spec.prepared(
            (node.name, "bn_denom"),
            lambda: np.sqrt(np.asarray(var + eps, dtype=np.float32)))
        x = self._view(node.inputs[0])
        dst = self._view(node.outputs[0])

        def step() -> None:
            np.subtract(x, mean, out=dst)
            np.divide(dst, denom, out=dst)
            np.multiply(dst, scale, out=dst)
            np.add(dst, bias, out=dst)
        self._add_step(step, node.name, kind="elementwise")

    def _bind_elementwise(self, node: Node) -> None:
        spec = self.spec
        ins = [spec.inits[t] if t in spec.inits else self._view(t)
               for t in node.inputs]
        dst = self._view(node.outputs[0])
        kern = compile_elementwise(node.op_type, node.attrs)

        def step() -> None:
            kern(ins, dst)
        self._add_step(step, node.name, kind="elementwise")

    def _bind_generic(self, node: Node) -> None:
        fn = KERNELS.get(node.op_type)
        if fn is None:
            raise NotImplementedError(
                f"no numpy kernel for op {node.op_type!r}")
        spec = self.spec
        ins = [spec.inits[t] if t in spec.inits else self._view(t)
               for t in node.inputs]
        outs = [self._view(t) for t in node.outputs]

        def step(node=node, fn=fn, ins=ins, outs=outs) -> None:
            for dst, res in zip(outs, _node_results(node, fn(node, ins))):
                np.copyto(dst, res)
        self._add_step(step, node.name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, feeds: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        for name, view in self._input_views:
            np.copyto(view, feeds[name])
        for step in self._steps:
            step()
        return self._collect_outputs()

    def run_profiled(self, feeds: Mapping[str, np.ndarray]
                     ) -> Tuple[Dict[str, np.ndarray], Dict[str, dict],
                                List[dict]]:
        """Run with per-step timing, by kind and by node.

        Returns ``(outputs, {kind: {"steps": n, "ms": total}},
        node_rows)`` — the attribution behind ``repro stat --plan`` and
        :meth:`CompiledExecutable.step_profile`.  ``node_rows`` has one
        ``{"node", "kind", "ms"}`` row per bound node, in step order.
        """
        for name, view in self._input_views:
            np.copyto(view, feeds[name])
        prof: Dict[str, List[float]] = {}
        rows: Dict[str, dict] = {}
        for step, kind, nname in zip(
                self._steps, self._step_kinds, self._step_meta):
            t0 = time.perf_counter()
            step()
            dt = time.perf_counter() - t0
            entry = prof.setdefault(kind, [0, 0.0])
            entry[0] += 1
            entry[1] += dt
            row = rows.setdefault(nname, {
                "node": nname, "kind": kind, "ms": 0.0})
            row["ms"] += dt * 1e3
        profile = {kind: {"steps": int(n), "ms": total * 1e3}
                   for kind, (n, total) in prof.items()}
        return self._collect_outputs(), profile, list(rows.values())

    def _collect_outputs(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for t, view in self._output_views.items():
            if view is None:
                out[t] = self.spec.inits[t]
            else:
                out[t] = view.copy()
        return out


class CompiledExecutable:
    """A graph bound once for repeat, concurrency-safe inference.

    Programs are cached per feed-shape signature (and invalidated when
    the graph's mutation :attr:`~repro.graph.graph.Graph.version`
    changes).  Each program owns a bounded :class:`StatePool` of
    :class:`ExecutionState` instances; :meth:`run` checks one out,
    executes on its private arena, and returns it — concurrent callers
    proceed on distinct states with no shared lock on the hot path
    (the old global ``_run_lock`` is gone).

    ``max_states`` caps how many arenas may exist at once (acquires
    beyond it wait for a release).  ``elide=False`` disables
    the zero-copy treatment of memopt-``elided`` nodes and pre-padded
    conv reads; it is the ablation the benchmarks use to show what the
    paper's memory-layout optimization buys at runtime.
    """

    def __init__(self, graph: Graph, *, elide: bool = True,
                 max_states: Optional[int] = None) -> None:
        self.graph = graph
        self.elide = elide
        self.max_states = int(max_states) if max_states is not None \
            else DEFAULT_MAX_STATES
        if self.max_states < 1:
            raise ValueError(
                f"max_states must be >= 1, got {self.max_states}")
        self._version = graph.version
        #: Guards the program map only — never held while running.
        self._bind_lock = threading.Lock()
        self._pools: Dict[tuple, Tuple[_ProgramSpec, StatePool]] = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_pools"] = {}  # closures and arenas never travel
        del state["_bind_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind_lock = threading.Lock()
        self._pools = {}

    def _pool_for(self, feeds: Mapping[str, np.ndarray]
                  ) -> Tuple[_ProgramSpec, StatePool]:
        with self._bind_lock:
            if self.graph.version != self._version:
                self._pools.clear()
                self._version = self.graph.version
            key = tuple(
                (name, tuple(np.shape(feeds[name])))
                for name in self.graph.inputs)
            entry = self._pools.get(key)
            if entry is None:
                spec = _ProgramSpec(self.graph,
                                    _run_shapes(self.graph, feeds),
                                    elide=self.elide)
                # States beyond the physical core count cannot overlap
                # on CPU — they only multiply arena footprint and cache
                # pressure (each checkout lands on a cold arena), so a
                # single-core host serializes on one hot state.
                cap = max(1, min(self.max_states, os.cpu_count() or 1))
                entry = (spec, StatePool(
                    lambda spec=spec: ExecutionState(spec), cap))
                self._pools[key] = entry
        return entry

    def __call__(self, feeds: Mapping[str, np.ndarray]
                 ) -> Dict[str, np.ndarray]:
        return self.run(feeds)

    def run(self, feeds: Mapping[str, np.ndarray], *,
            state_timeout_s: Optional[float] = None
            ) -> Dict[str, np.ndarray]:
        """One inference; byte-identical to interpreted ``execute``.

        Thread-safe without serializing: each call executes on a
        pooled private state.  ``state_timeout_s`` bounds the wait for
        a free state when the pool is exhausted
        (:class:`~repro.runtime.hostpool.StatePoolTimeout`).
        """
        feeds32 = {}
        for name in self.graph.inputs:
            if name not in feeds:
                raise KeyError(f"missing feed for graph input {name!r}")
            feeds32[name] = np.asarray(feeds[name], dtype=np.float32)
        _, pool = self._pool_for(feeds32)
        state = pool.acquire(timeout_s=state_timeout_s)
        try:
            return state.run(feeds32)
        finally:
            pool.release(state)

    def buffer_plan(self, feeds: Optional[Mapping[str, np.ndarray]] = None
                    ) -> BufferPlan:
        """The buffer plan bound for ``feeds`` (declared shapes if None).

        Resolves the program spec only — no execution state (arena) is
        bound.
        """
        if feeds is None:
            feeds = {name: np.zeros(self.graph.tensors[name].shape,
                                    dtype=np.float32)
                     for name in self.graph.inputs}
        spec, _ = self._pool_for(
            {n: np.asarray(f, dtype=np.float32) for n, f in feeds.items()})
        return spec.plan

    def stats(self) -> Dict[str, object]:
        """Buffer-plan stats at the graph's declared shapes."""
        return self.buffer_plan().stats()

    def pool_stats(self) -> Dict[str, object]:
        """Aggregate state-pool gauges across all bound programs."""
        with self._bind_lock:
            entries = list(self._pools.values())
        agg: Dict[str, object] = {
            "programs": len(entries),
            "max_states": self.max_states,
            "states_bound": 0,
            "in_use": 0,
            "peak_in_use": 0,
            "acquires": 0,
            "waits": 0,
            "step_kinds": {},
        }
        kinds: Dict[str, int] = agg["step_kinds"]
        for spec, pool in entries:
            s = pool.stats()
            agg["states_bound"] += s["states_bound"]
            agg["in_use"] += s["in_use"]
            agg["peak_in_use"] = max(agg["peak_in_use"], s["peak_in_use"])
            agg["acquires"] += s["acquires"]
            agg["waits"] += s["waits"]
            for kind, count in (spec.step_kind_counts or {}).items():
                kinds[kind] = max(kinds.get(kind, 0), count)
        return agg

    def step_profile(self, feeds: Optional[Mapping[str, np.ndarray]] = None,
                     rounds: int = 2, detail: bool = False):
        """Per-op-kind step timing for one inference.

        Runs ``rounds`` profiled inferences (declared-shape zero
        feeds if none given) and keeps each kind's best total, so
        first-run binding noise doesn't pollute the attribution.
        Returns ``{kind: {"steps": n, "ms": total}}``; with
        ``detail=True`` returns ``(kinds, node_rows)`` where
        ``node_rows`` holds every node's timing (best round per node),
        sorted slowest-first.
        """
        if feeds is None:
            feeds = {name: np.zeros(self.graph.tensors[name].shape,
                                    dtype=np.float32)
                     for name in self.graph.inputs}
        feeds32 = {name: np.asarray(arr, dtype=np.float32)
                   for name, arr in feeds.items()}
        _, pool = self._pool_for(feeds32)
        state = pool.acquire()
        try:
            best: Dict[str, dict] = {}
            best_rows: Dict[str, dict] = {}
            for _ in range(max(1, int(rounds))):
                _, profile, node_rows = state.run_profiled(feeds32)
                for kind, entry in profile.items():
                    cur = best.get(kind)
                    if cur is None or entry["ms"] < cur["ms"]:
                        best[kind] = entry
                for row in node_rows:
                    cur = best_rows.get(row["node"])
                    if cur is None or row["ms"] < cur["ms"]:
                        best_rows[row["node"]] = row
            if not detail:
                return best
            rows = sorted(best_rows.values(),
                          key=lambda r: r["ms"], reverse=True)
            return best, rows
        finally:
            pool.release(state)

