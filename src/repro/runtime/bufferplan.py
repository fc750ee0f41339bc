"""Whole-graph buffer planning: lifetimes, aliasing, and a shared arena.

This pass turns the memory-layout *model* of :mod:`repro.transform.memopt`
(paper Section 4.3.2, Fig. 7) into something the numerical runtime can
actually execute.  ``optimize_memory`` marks Slice/Concat/Pad nodes whose
data movement a co-allocated NHWC layout makes free; this module computes
the co-allocation itself:

* every non-weight tensor is resolved to a **storage** — a rectangular
  region inside a **root** buffer (offset + extent per dimension), or an
  opaque derived view (Reshape/Transpose outputs);
* inputs of an ``elided`` Concat are laid out back-to-back inside the
  Concat output's buffer, so their producers write the concatenated
  result directly and the Concat itself disappears;
* the input of an ``elided`` Pad occupies the interior of the Pad
  output's buffer, whose border stays zero by construction;
* roots whose tensors feed convolutions are allocated with **margins** —
  the pre-padded extent — so ``Conv`` kernels read a padded view instead
  of calling ``np.pad`` per inference;
* all roots are packed into one float32 **arena** with lifetime-based
  region reuse, so repeat inference allocates nothing.

The planner is purely symbolic (names, offsets, element counts); the
compiled executor (:mod:`repro.runtime.compiled`) materializes the arena
and binds numpy views.  Margin/pad regions rely on a zero-once invariant:
roots carrying margins or an elided-Pad border are *pinned* — their arena
bytes are never reused — and the arena is zero-initialized, so the
padding stays zero across runs while producers only ever write interiors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.graph.graph import Graph

#: Ops whose outputs are pure reinterpretations of their input buffer.
#: ``Slice`` always yields a (strided) view in numpy; ``Reshape`` only
#: when the underlying view is contiguous — the planner records those as
#: opaque derived views and the executor falls back to a copy if numpy
#: cannot express the reinterpretation without one.
VIEW_OPS = ("Identity", "Slice", "Reshape", "Flatten", "Transpose")

#: Arena offsets are rounded up to this many float32 elements (64 bytes)
#: so every root starts cache-line aligned.
ARENA_ALIGN = 16

#: Refuse in-place links that would put conv pre-pad margins on a
#: GEMM destination (see ``gemm_written`` in :func:`plan_buffers`).
GEMM_DST_GUARD = True

#: Ops whose single output may share its input's buffer when that input
#: dies at the node: either the op maps elements independently (in-place
#: ufunc with ``out=`` aliasing the input is well-defined) or the
#: compiled executor materializes the full result before copying it into
#: place (the generic-fallback ops).  GEMM/Conv are excluded — BLAS may
#: not read an operand it is overwriting.
INPLACE_OPS = frozenset({
    "Relu", "Clip", "Sigmoid", "Silu", "Tanh", "Gelu", "Erf", "Softmax",
    "BatchNormalization", "Add", "Mul", "Sub", "Div",
})


@dataclass(frozen=True)
class Storage:
    """Where a tensor's bytes live.

    ``offset`` is the element offset of the tensor's rectangle per
    dimension inside its root's *interior* (margins excluded); ``None``
    marks an opaque derived view (e.g. a Transpose output) whose layout
    the executor derives operationally — the root is then only used for
    lifetime accounting.
    """

    root: str
    offset: Optional[Tuple[int, ...]]
    shape: Tuple[int, ...]

    @property
    def is_rect(self) -> bool:
        return self.offset is not None


@dataclass
class RootAlloc:
    """One arena-resident buffer and its lifetime."""

    name: str
    shape: Tuple[int, ...]
    #: Per-dimension (before, after) margin elements — the pre-padded
    #: extent convolution consumers read through.
    margins: Tuple[Tuple[int, int], ...]
    birth: int
    death: int
    #: Pinned roots keep their arena bytes forever: their margins (or
    #: elided-Pad border) must stay zero across runs, which only holds
    #: if no other root ever writes the range.
    pinned: bool = False
    arena_offset: int = -1

    @property
    def padded_shape(self) -> Tuple[int, ...]:
        return tuple(b + d + a for d, (b, a) in zip(self.shape, self.margins))

    @property
    def elements(self) -> int:
        n = 1
        for d in self.padded_shape:
            n *= d
        return n


@dataclass
class BufferPlan:
    """The planner's output: storages, roots, and the arena layout."""

    roots: Dict[str, RootAlloc]
    storage: Dict[str, Storage]
    arena_elements: int
    #: Conv node names whose input padding is served by root margins
    #: (the kernel reads a padded view; no ``np.pad`` at runtime).
    padded_reads: Dict[str, bool] = field(default_factory=dict)
    #: Per-kind counts of copies the layout makes free.
    slice_views: int = 0
    concat_zero_copy_inputs: int = 0
    pad_zero_copy: int = 0
    elided_nodes: int = 0
    #: Elementwise outputs written onto their (dying) input's buffer.
    inplace_reused: int = 0

    @property
    def arena_bytes(self) -> int:
        return self.arena_elements * 4

    @property
    def naive_bytes(self) -> int:
        """Footprint without lifetime reuse (every root exclusive)."""
        return sum(r.elements for r in self.roots.values()) * 4

    def stats(self) -> Dict[str, object]:
        """JSON-ready summary for plans, ``stat`` output, and benchmarks."""
        padded = sum(1 for served in self.padded_reads.values() if served)
        return {
            "arena_bytes": self.arena_bytes,
            "naive_bytes": self.naive_bytes,
            "num_roots": len(self.roots),
            "num_tensors": len(self.storage),
            "slice_views": self.slice_views,
            "concat_zero_copy_inputs": self.concat_zero_copy_inputs,
            "pad_zero_copy": self.pad_zero_copy,
            "padded_conv_reads": padded,
            "elided_nodes": self.elided_nodes,
            "inplace_reused": self.inplace_reused,
            "copies_elided": (self.concat_zero_copy_inputs
                              + self.pad_zero_copy + padded),
        }


class _AliasForest:
    """Union-find over tensors with per-dimension rectangle offsets."""

    def __init__(self) -> None:
        # child -> (parent, offset or None); offset None = opaque view.
        self.parent: Dict[str, Tuple[str, Optional[Tuple[int, ...]]]] = {}

    def is_root(self, t: str) -> bool:
        return t not in self.parent

    def link(self, child: str, parent: str,
             offset: Optional[Tuple[int, ...]]) -> None:
        assert child not in self.parent, child
        self.parent[child] = (parent, offset)

    def find(self, t: str) -> Tuple[str, Optional[Tuple[int, ...]]]:
        """Resolve ``t`` to (root, rectangle offset in root).

        Offsets compose additively along the chain; any opaque link
        (a reinterpreting view) makes the final offset ``None``.
        """
        cur = t
        total: Optional[Tuple[int, ...]] = tuple()
        while cur in self.parent:
            cur, off = self.parent[cur]
            if off is None or total is None:
                total = None
            elif not total:
                total = off
            else:
                total = tuple(a + b for a, b in zip(total, off))
        if cur == t:
            return t, None
        return cur, total

    def resolve(self, t: str, shape: Tuple[int, ...]) -> Storage:
        root, off = self.find(t)
        if root == t:
            return Storage(t, tuple(0 for _ in shape), shape)
        return Storage(root, off, shape)


def _zeros(rank: int) -> Tuple[int, ...]:
    return tuple(0 for _ in range(rank))


def _axis_offset(rank: int, axis: int, value: int) -> Tuple[int, ...]:
    off = [0] * rank
    off[axis] = value
    return tuple(off)


def plan_buffers(graph: Graph,
                 shapes: Optional[Mapping[str, Sequence[int]]] = None,
                 *, elide: bool = True) -> BufferPlan:
    """Compute the buffer plan for ``graph``.

    ``shapes`` overrides the graph's declared tensor shapes (the
    compiled executor passes batched shapes); ``elide=False`` plans a
    layout with no co-allocation and no pre-padding — every Slice is
    still a view (numpy semantics) but Concat/Pad copy and convolutions
    pad at call time, which is the ablation baseline the benchmarks
    compare against.
    """
    order = graph.toposort()
    if shapes is None:
        shapes = {name: info.shape for name, info in graph.tensors.items()}
    shape_of = {name: tuple(s) for name, s in shapes.items()}
    inits = graph.initializers

    forest = _AliasForest()
    plan = BufferPlan(roots={}, storage={}, arena_elements=0)

    def alias_eligible(t: str) -> bool:
        # A tensor can be laid inside another buffer only if nothing has
        # claimed it yet and it is not a weight (weights live outside
        # the arena, shared read-only across runs).
        return forest.is_root(t) and t not in inits

    use_count: Dict[str, int] = {}
    for node in order:
        for t in node.inputs:
            use_count[t] = use_count.get(t, 0) + 1
    # Tensors an elided Concat/Pad will want to claim as children: leave
    # them unaliased so the (better) zero-copy concat/pad link wins over
    # in-place reuse.
    elide_claimed = set()
    if elide:
        for node in order:
            if node.op_type in ("Concat", "Pad") and node.attr("elided"):
                elide_claimed.update(node.inputs)

    # Tensors written by a matmul-shaped kernel, and tensors a padded
    # Conv reads: if an elementwise output that feeds a padded Conv
    # in-place-aliases a GEMM destination, the margin growth (phase 3)
    # lands on the GEMM's root, its destination view turns into a
    # non-contiguous interior rectangle, and the conv must stage its
    # whole output through scratch and copy it back — two extra passes
    # over the activation that cost more than the saved allocation.
    gemm_written = {node.outputs[0] for node in order
                    if node.op_type in ("Conv", "Gemm", "MatMul")
                    } if GEMM_DST_GUARD else set()
    padded_conv_reads = {node.inputs[0] for node in order
                         if node.op_type == "Conv"
                         and any(node.attr("pads", (0, 0, 0, 0)))}

    def inplace_src(node) -> Optional[str]:
        """The input whose buffer ``node`` may overwrite, if any."""
        out = node.outputs[0]
        if len(node.outputs) != 1 or out in elide_claimed \
                or not alias_eligible(out):
            return None
        if node.op_type in ("Add", "Mul", "Sub", "Div"):
            candidates = node.inputs[:2]
        else:
            candidates = node.inputs[:1]
        for src in candidates:
            if (src not in inits
                    and use_count.get(src) == 1
                    and forest.is_root(src)
                    and src not in graph.outputs
                    and shape_of.get(src) == shape_of[out]
                    # Keep GEMM destinations margin-free (see
                    # ``gemm_written`` above): a padded-conv feeder may
                    # not overwrite one.
                    and not (out in padded_conv_reads
                             and src in gemm_written)
                    # BLAS-free overlap safety: no other operand may
                    # share the buffer being overwritten.
                    and all(o == src or forest.find(o)[0] != src
                            for o in node.inputs)):
                return src
        return None

    # ------------------------------------------------------------------
    # 1. Alias resolution
    # ------------------------------------------------------------------
    for node in order:
        op = node.op_type
        out = node.outputs[0]
        if op in ("Identity",):
            src = node.inputs[0]
            if alias_eligible(out):
                forest.link(out, src, _zeros(len(shape_of[out])))
        elif op == "Slice":
            src = node.inputs[0]
            rank = len(shape_of[src])
            axis = int(node.attr("axis")) % rank
            start = int(node.attr("start"))
            if start < 0:
                start += shape_of[src][axis]
            forest.link(out, src, _axis_offset(rank, axis, start))
            plan.slice_views += 1
            if node.attr("elided"):
                plan.elided_nodes += 1
        elif op in ("Reshape", "Flatten", "Transpose"):
            forest.link(out, node.inputs[0], None)
        elif op == "Concat" and elide and node.attr("elided"):
            plan.elided_nodes += 1
            rank = len(shape_of[out])
            axis = int(node.attr("axis")) % rank
            cursor = 0
            seen = set()
            for t in node.inputs:
                extent = shape_of[t][axis]
                if t not in seen and alias_eligible(t) \
                        and t not in graph.outputs:
                    forest.link(t, out, _axis_offset(rank, axis, cursor))
                    plan.concat_zero_copy_inputs += 1
                    seen.add(t)
                cursor += extent
        elif op == "Pad" and elide and node.attr("elided"):
            plan.elided_nodes += 1
            src = node.inputs[0]
            pads = tuple(tuple(p) for p in node.attr("pads"))
            if alias_eligible(src) and src not in graph.outputs:
                forest.link(src, out,
                            tuple(before for before, _ in pads))
                plan.pad_zero_copy += 1
        elif op in INPLACE_OPS and elide:
            src = inplace_src(node)
            if src is not None:
                forest.link(out, src, _zeros(len(shape_of[out])))
                plan.inplace_reused += 1

    # ------------------------------------------------------------------
    # 2. Storage resolution
    # ------------------------------------------------------------------
    live_tensors: List[str] = list(graph.inputs)
    for node in order:
        live_tensors.extend(t for t in node.inputs if t not in inits)
        live_tensors.extend(node.outputs)
    live_tensors.extend(t for t in graph.outputs if t not in inits)
    for t in dict.fromkeys(live_tensors):
        plan.storage[t] = forest.resolve(t, shape_of[t])

    rank_margins: Dict[str, List[List[int]]] = {}

    def margins_for(root: str) -> List[List[int]]:
        if root not in rank_margins:
            rank_margins[root] = [[0, 0] for _ in shape_of[root]]
        return rank_margins[root]

    # ------------------------------------------------------------------
    # 3. Conv pre-padding margins
    # ------------------------------------------------------------------
    if elide:
        for node in order:
            if node.op_type != "Conv":
                continue
            st = plan.storage.get(node.inputs[0])
            if st is None or not st.is_rect or st.root in inits:
                plan.padded_reads[node.name] = False
                continue
            if len(st.shape) != 4:
                plan.padded_reads[node.name] = False
                continue
            pt, pl, pb, pr = node.attr("pads", (0, 0, 0, 0))
            root_shape = shape_of[st.root]
            # A margin read is only correct where the area adjacent to
            # the tensor's rectangle is the root's own (zero) margin,
            # not a co-allocated sibling.
            ok = ((pt == 0 or st.offset[1] == 0)
                  and (pb == 0 or st.offset[1] + st.shape[1] == root_shape[1])
                  and (pl == 0 or st.offset[2] == 0)
                  and (pr == 0 or st.offset[2] + st.shape[2] == root_shape[2]))
            plan.padded_reads[node.name] = ok
            if ok and (pt or pl or pb or pr):
                m = margins_for(st.root)
                m[1][0] = max(m[1][0], pt)
                m[1][1] = max(m[1][1], pb)
                m[2][0] = max(m[2][0], pl)
                m[2][1] = max(m[2][1], pr)

    # ------------------------------------------------------------------
    # 4. Root lifetimes
    # ------------------------------------------------------------------
    pos = {node.name: i for i, node in enumerate(order)}
    produced_at: Dict[str, int] = {}
    for node in order:
        for t in node.outputs:
            produced_at[t] = pos[node.name]
    end = len(order)

    last_use: Dict[str, int] = {}
    for node in order:  # topo order: the final assignment is the max
        for t in node.inputs:
            last_use[t] = pos[node.name]

    births: Dict[str, int] = {}
    deaths: Dict[str, int] = {}
    pad_rooted = {forest.find(node.inputs[0])[0]
                  for node in order
                  if node.op_type == "Pad" and elide and node.attr("elided")
                  and not forest.is_root(node.inputs[0])}
    for t, st in plan.storage.items():
        if st.root in inits:
            continue
        birth = produced_at.get(t, -1)  # graph inputs are born before node 0
        death = end if t in graph.outputs else last_use.get(t, birth)
        r = st.root
        births[r] = min(births.get(r, birth), birth)
        deaths[r] = max(deaths.get(r, death), death)

    for r in births:
        margins = rank_margins.get(r)
        margin_tuple = tuple(
            tuple(m) for m in margins) if margins else tuple(
            (0, 0) for _ in shape_of[r])
        has_margin = any(b or a for b, a in margin_tuple)
        plan.roots[r] = RootAlloc(
            name=r,
            shape=shape_of[r],
            margins=margin_tuple,
            birth=births[r],
            death=deaths[r],
            pinned=has_margin or r in pad_rooted,
        )

    # ------------------------------------------------------------------
    # 5. Arena assignment: first-fit with lifetime-based reuse
    # ------------------------------------------------------------------
    placed: List[RootAlloc] = []
    top = 0
    # Pinned roots conflict with every other root no matter when they
    # live, so placing them first stacks them contiguously at the
    # bottom of the arena.  Interleaving them with unpinned roots (pure
    # birth order) leaves lifetime-shaped holes under each pinned
    # block that nothing can ever reuse.  Unpinned roots then go
    # largest-first: big buffers claim the low offsets and small ones
    # fill the lifetime gaps between them, instead of small early
    # tensors squatting just above the pinned block and pushing every
    # later large buffer higher.
    for root in sorted(plan.roots.values(),
                       key=lambda r: (not r.pinned, -r.elements,
                                      r.birth, r.death)):
        size = -(-root.elements // ARENA_ALIGN) * ARENA_ALIGN
        conflicts = sorted(
            (a for a in placed
             if a.pinned or root.pinned
             or not (a.death < root.birth or a.birth > root.death)),
            key=lambda a: a.arena_offset)
        offset = 0
        for other in conflicts:
            other_size = -(-other.elements // ARENA_ALIGN) * ARENA_ALIGN
            if offset + size <= other.arena_offset:
                break
            offset = max(offset, other.arena_offset + other_size)
        root.arena_offset = offset
        placed.append(root)
        top = max(top, offset + size)
    plan.arena_elements = top
    return plan
