"""The pass-manager compiler core: registry, pipeline, instrumentation.

The paper's compiler is a sequence of graph passes (Fig. 5): the
cleanup/fusion front end, the MD-DP split and pipelining transforms
driven by the solver's decisions, and the memory-layout optimization.
This module makes that sequence a first-class subsystem instead of a
chain of ad-hoc function calls:

* :class:`Pass` — the protocol every pass implements: a ``name`` and a
  pure ``run(graph, ctx) -> Graph`` that returns a transformed *clone*
  and never mutates its input.
* :class:`PassContext` — per-pipeline state threaded through every
  pass: option payloads (e.g. the solver decisions), diagnostics, and
  free-form stats.
* :class:`PassManager` — resolves pass specs against the registry,
  instruments each pass (wall time, node/tensor/elided-count deltas,
  recorded as :class:`PassRecord` entries), optionally runs the
  inter-pass verifier (structure + shape inference via
  ``Graph.validate``, interface preservation, and a numeric
  equivalence spot check through :mod:`repro.runtime.verify`), and can
  snapshot the IR after every pass (``--dump-ir``).
* :class:`PassPipeline` — a named, reusable pass sequence; the
  front-end (:data:`PREPARE`), cleanup/fusion subsets, and the
  decision-application back end (:data:`APPLY`) ship as defaults.

Every existing transform is registered here — ``fold_constants``,
``eliminate_dead_nodes``, ``fold_batchnorm``, ``fuse_activations``,
``apply_decisions``, ``optimize_memory``, plus the parameterized
``mddp_split`` and ``pipeline_chain`` region transforms — and the
historical functional API (:func:`repro.transform.cleanup.cleanup`,
:func:`repro.transform.fusion.fuse`, ...) survives as thin wrappers
over :func:`run_pass` / :func:`run_pipeline`.  Adding a compiler pass
is now one :func:`register_pass` call; the manager gives it
diagnostics, verification, and CLI visibility (``pimflow -m=passes``)
for free.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.graph.graph import Graph, GraphError
from repro.transform.base import TransformError


class PassError(TransformError):
    """Raised when a pass misbehaves or a pipeline cannot be assembled."""


class PassVerificationError(PassError):
    """Raised when the inter-pass verifier rejects a pass's output."""


@runtime_checkable
class Pass(Protocol):
    """What the manager requires of a pass: a name and a pure ``run``."""

    name: str

    def run(self, graph: Graph, ctx: "PassContext") -> Graph:
        """Return a transformed clone of ``graph``; never mutate it."""
        ...  # pragma: no cover - protocol


class FunctionPass:
    """Adapter turning a plain function into a :class:`Pass`.

    Accepts both ``fn(graph)`` and ``fn(graph, ctx)`` signatures, so
    the pre-existing transform functions register unchanged.
    """

    def __init__(self, name: str, fn: Callable[..., Graph]) -> None:
        self.name = name
        self._fn = fn
        params = [
            p for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
        self._takes_ctx = len(params) >= 2

    def run(self, graph: Graph, ctx: "PassContext") -> Graph:
        if self._takes_ctx:
            return self._fn(graph, ctx)
        return self._fn(graph)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FunctionPass({self.name!r})"


@dataclass(frozen=True)
class PassInfo:
    """Registry metadata for one pass."""

    name: str
    description: str
    factory: Callable[[], Pass]
    #: Running the pass twice produces a structurally identical graph.
    idempotent: bool = False
    #: Transformed outputs numerically equal the original's (the numpy
    #: oracle); the verifier only runs the numeric spot check when set.
    preserves_semantics: bool = True
    #: The pass keeps the graph's input/output tensor names intact.
    preserves_interface: bool = True
    #: Context option keys the pass needs (empty = runs standalone).
    requires: Tuple[str, ...] = ()
    tags: Tuple[str, ...] = ()

    def instantiate(self) -> Pass:
        return self.factory()


#: The global pass registry, keyed by pass name.
_REGISTRY: Dict[str, PassInfo] = {}


def register_pass(name: str, *, description: str = "",
                  idempotent: bool = False,
                  preserves_semantics: bool = True,
                  preserves_interface: bool = True,
                  requires: Sequence[str] = (),
                  tags: Sequence[str] = ()) -> Callable:
    """Decorator registering a pass class or function under ``name``.

    A class must satisfy the :class:`Pass` protocol; a function is
    wrapped in :class:`FunctionPass`.  Names must be unique.
    """
    def decorate(obj):
        if name in _REGISTRY:
            raise PassError(f"duplicate pass name {name!r}")
        if isinstance(obj, type):
            factory: Callable[[], Pass] = obj
        else:
            def factory(o=obj):
                return FunctionPass(name, o)
        _REGISTRY[name] = PassInfo(
            name=name,
            description=description or inspect.getdoc(obj) or "",
            factory=factory,
            idempotent=idempotent,
            preserves_semantics=preserves_semantics,
            preserves_interface=preserves_interface,
            requires=tuple(requires),
            tags=tuple(tags),
        )
        return obj
    return decorate


def pass_info(name: str) -> PassInfo:
    """Registry metadata for ``name``; raises :class:`PassError` if unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise PassError(f"unknown pass {name!r}; registered: {known}") from None


def registered_passes() -> List[PassInfo]:
    """All registered passes, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def create_pass(name: str) -> Pass:
    """Instantiate a registered pass by name."""
    return pass_info(name).instantiate()


@dataclass
class PassContext:
    """State threaded through one pipeline run.

    ``options`` carries pass parameters (e.g. ``decisions`` for the
    ``apply_decisions`` pass); ``diagnostics`` collects human-readable
    notes from passes and the verifier; ``stats`` is a free-form
    scratchpad for cross-pass bookkeeping.
    """

    options: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    diagnostics: List[str] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)

    def option(self, key: str, default: Any = None) -> Any:
        return self.options.get(key, default)

    def require_option(self, pass_name: str, key: str) -> Any:
        if key not in self.options:
            raise PassError(
                f"pass {pass_name!r} requires the {key!r} context option")
        return self.options[key]

    def log(self, message: str) -> None:
        self.diagnostics.append(str(message))

    def with_options(self, extra: Dict[str, Any]) -> "PassContext":
        """A view sharing diagnostics/stats but with options overridden."""
        merged = dict(self.options)
        merged.update(extra)
        return PassContext(options=merged, seed=self.seed,
                           diagnostics=self.diagnostics, stats=self.stats)


@dataclass
class PassRecord:
    """Instrumentation of one executed pass."""

    name: str
    wall_ms: float
    nodes_before: int
    nodes_after: int
    tensors_before: int
    tensors_after: int
    elided_before: int
    elided_after: int
    verified: bool = False
    notes: List[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        """Whether the instrumented counts moved (a cheap change proxy)."""
        return (self.nodes_before != self.nodes_after
                or self.tensors_before != self.tensors_after
                or self.elided_before != self.elided_after)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "wall_ms": round(self.wall_ms, 3),
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
            "tensors_before": self.tensors_before,
            "tensors_after": self.tensors_after,
            "elided_before": self.elided_before,
            "elided_after": self.elided_after,
            "verified": self.verified,
            "notes": list(self.notes),
        }


def _elided_count(graph: Graph) -> int:
    return sum(1 for n in graph.nodes if n.attr("elided", False))


class _BoundPass:
    """A pass bound to extra per-invocation options."""

    def __init__(self, inner: Pass, options: Dict[str, Any]) -> None:
        self.name = inner.name
        self._inner = inner
        self._options = dict(options)

    def run(self, graph: Graph, ctx: PassContext) -> Graph:
        return self._inner.run(graph, ctx.with_options(self._options))


#: Things :meth:`PassManager.run` accepts as one pipeline element: a
#: registered pass name, a ``(name, options)`` binding, or an object
#: satisfying the :class:`Pass` protocol.
PassSpec = Union[str, Tuple[str, Dict[str, Any]], Pass]


class PassManager:
    """Runs pass pipelines with instrumentation and optional verification.

    ``verify`` enables the inter-pass verifier: after every pass the
    output graph is structurally validated (``Graph.validate`` re-runs
    full shape inference) and checked to preserve the graph interface;
    with ``verify_numeric`` (the default under ``verify``) a numeric
    equivalence spot check through the numpy oracle runs as well for
    passes that claim to preserve semantics.  ``check_purity`` (on by
    default whenever ``verify`` is) asserts clone discipline: a pass
    that mutates its input graph is reported as a :class:`PassError`.
    ``dump_dir`` snapshots the IR after every pass as
    ``<seq>_<pass>.json`` (the ``--dump-ir`` CLI workflow).
    """

    def __init__(self, *, verify: bool = False, verify_numeric: bool = True,
                 check_purity: Optional[bool] = None,
                 dump_dir: Optional[Union[str, Path]] = None,
                 rtol: float = 5e-3, atol: float = 5e-3,
                 seed: int = 0) -> None:
        self.verify = verify
        self.verify_numeric = verify and verify_numeric
        self.check_purity = verify if check_purity is None else check_purity
        self.dump_dir = Path(dump_dir) if dump_dir else None
        self.rtol = rtol
        self.atol = atol
        self.seed = seed
        self.records: List[PassRecord] = []
        self._dump_index = 0

    # ------------------------------------------------------------------
    # Spec resolution
    # ------------------------------------------------------------------
    def resolve(self, spec: PassSpec) -> Pass:
        """Materialize one pipeline element into a runnable pass."""
        if isinstance(spec, str):
            return create_pass(spec)
        if isinstance(spec, tuple):
            name, options = spec
            return _BoundPass(create_pass(name), options)
        if hasattr(spec, "run") and hasattr(spec, "name"):
            return spec
        raise PassError(f"cannot interpret pass spec {spec!r}")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, passes: Union["PassPipeline", Sequence[PassSpec]],
            graph: Graph, ctx: Optional[PassContext] = None) -> Graph:
        """Run ``passes`` over ``graph``, appending to :attr:`records`."""
        if isinstance(passes, PassPipeline):
            passes = passes.passes
        ctx = ctx or PassContext()
        for spec in passes:
            graph = self.run_pass(self.resolve(spec), graph, ctx)
        return graph

    def run_pass(self, p: Pass, graph: Graph, ctx: PassContext) -> Graph:
        """Run a single pass with instrumentation and verification."""
        info = _REGISTRY.get(p.name)
        purity_fp = None
        version_before = graph.version
        if self.check_purity:
            from repro.plan.fingerprint import graph_fingerprint
            purity_fp = graph_fingerprint(graph)

        record = PassRecord(
            name=p.name, wall_ms=0.0,
            nodes_before=len(graph.nodes), nodes_after=0,
            tensors_before=len(graph.tensors), tensors_after=0,
            elided_before=_elided_count(graph), elided_after=0)
        t0 = time.perf_counter()
        out = p.run(graph, ctx)
        record.wall_ms = (time.perf_counter() - t0) * 1e3

        if not isinstance(out, Graph):
            raise PassError(f"pass {p.name!r} returned {type(out).__name__}, "
                            f"not a Graph")
        if out is graph:
            raise PassError(f"pass {p.name!r} returned its input graph; "
                            f"passes must return a transformed clone")
        record.nodes_after = len(out.nodes)
        record.tensors_after = len(out.tensors)
        record.elided_after = _elided_count(out)

        if purity_fp is not None:
            from repro.plan.fingerprint import graph_fingerprint
            if (graph.version != version_before
                    or graph_fingerprint(graph) != purity_fp):
                raise PassError(
                    f"pass {p.name!r} mutated its input graph "
                    f"(clone discipline violated)")

        if self.verify:
            self._verify(info, p.name, graph, out, record)
        if self.dump_dir is not None:
            self._dump(p.name, out, record)
        self.records.append(record)
        return out

    # ------------------------------------------------------------------
    # Verification & IR dumps
    # ------------------------------------------------------------------
    def _verify(self, info: Optional[PassInfo], name: str,
                before: Graph, after: Graph, record: PassRecord) -> None:
        try:
            after.validate()
        except GraphError as exc:
            raise PassVerificationError(
                f"pass {name!r} produced an invalid graph: {exc}") from exc
        preserves_interface = info.preserves_interface if info else True
        if preserves_interface:
            if (set(after.inputs) != set(before.inputs)
                    or set(after.outputs) != set(before.outputs)):
                raise PassVerificationError(
                    f"pass {name!r} changed the graph interface: "
                    f"inputs {before.inputs} -> {after.inputs}, "
                    f"outputs {before.outputs} -> {after.outputs}")
        preserves_semantics = info.preserves_semantics if info else True
        if self.verify_numeric and preserves_semantics and preserves_interface:
            from repro.runtime.verify import EquivalenceError, numeric_spot_check
            try:
                err = numeric_spot_check(before, after, seed=self.seed,
                                         rtol=self.rtol, atol=self.atol)
            except EquivalenceError as exc:
                raise PassVerificationError(
                    f"pass {name!r} changed graph semantics: {exc}") from exc
            record.notes.append(f"numeric max |error| {err:.2e}")
        record.verified = True

    def _dump(self, name: str, graph: Graph, record: PassRecord) -> None:
        from repro.graph.serialize import save_graph

        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"{self._dump_index:02d}_{name}.json"
        self._dump_index += 1
        save_graph(graph, path, include_weights=False)
        record.notes.append(f"ir -> {path}")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def record_dicts(self) -> List[Dict[str, Any]]:
        """All records as plain dicts (plan-provenance form)."""
        return [r.to_dict() for r in self.records]


@dataclass(frozen=True)
class PassPipeline:
    """A named, reusable sequence of pass specs."""

    name: str
    passes: Tuple[PassSpec, ...]

    def run(self, graph: Graph, manager: Optional[PassManager] = None,
            ctx: Optional[PassContext] = None) -> Graph:
        return (manager or PassManager()).run(self.passes, graph, ctx)

    def __iter__(self):
        return iter(self.passes)


# ----------------------------------------------------------------------
# Convenience entry points (the thin-wrapper API routes through these)
# ----------------------------------------------------------------------
def run_pass(name: str, graph: Graph, **options: Any) -> Graph:
    """Run one registered pass with a throwaway manager/context."""
    return PassManager().run([name], graph, PassContext(options=options))


def run_pipeline(passes: Union[PassPipeline, Sequence[PassSpec]],
                 graph: Graph, manager: Optional[PassManager] = None,
                 ctx: Optional[PassContext] = None) -> Graph:
    """Run a pass sequence, defaulting to an un-instrumented manager."""
    return (manager or PassManager()).run(passes, graph, ctx)


# ----------------------------------------------------------------------
# Registered passes: the existing transforms, ported
# ----------------------------------------------------------------------
def _register_builtin_passes() -> None:
    from repro.transform.cleanup import _eliminate_dead_nodes, _fold_constants
    from repro.transform.fusion import _fold_batchnorm, _fuse_activations
    from repro.transform.memopt import _optimize_memory

    register_pass(
        "fold_constants", idempotent=True, tags=("cleanup",),
        description="Evaluate nodes whose inputs are all initializers and "
                    "register their outputs as new constants.",
    )(_fold_constants)
    register_pass(
        "eliminate_dead_nodes", idempotent=True, tags=("cleanup",),
        description="Remove nodes whose outputs are never consumed "
                    "(fixpoint, so whole dead chains disappear).",
    )(_eliminate_dead_nodes)
    register_pass(
        "fold_batchnorm", idempotent=True, tags=("fusion",),
        description="Fold Conv+BatchNormalization pairs into the "
                    "convolution's weights and bias.",
    )(_fold_batchnorm)
    register_pass(
        "fuse_activations", idempotent=True, tags=("fusion",),
        description="Absorb Relu/Clip/Silu/Sigmoid/Gelu into the producing "
                    "Conv/Gemm node's activation epilogue.",
    )(_fuse_activations)
    register_pass(
        "optimize_memory", idempotent=True, tags=("memopt",),
        description="Mark contiguity-elidable Slice/Concat/Pad nodes as "
                    "zero-cost under the co-allocated NHWC layout.",
    )(_optimize_memory)
    register_pass(
        "apply_decisions", requires=("decisions",), tags=("backend",),
        description="Apply the solver's region decisions: device "
                    "placements, MD-DP splits, and pipelining.",
    )(_apply_decisions_pass)
    register_pass(
        "mddp_split", requires=("node",), tags=("backend",),
        description="Split one PIM-candidate node into a GPU part and a "
                    "PIM part at a given ratio (MD-DP).",
    )(_mddp_split_pass)
    register_pass(
        "pipeline_chain", requires=("chain",), tags=("backend",),
        description="Split a straight-line chain into overlapping "
                    "pipeline-stage pieces across GPU and PIM.",
    )(_pipeline_chain_pass)


def _decision_field(decision: Any, key: str, default: Any = None) -> Any:
    if isinstance(decision, dict):
        return decision.get(key, default)
    return getattr(decision, key, default)


def _check_decisions(graph: Graph, decisions: Sequence[Any]) -> None:
    """Reject malformed decisions before the first rewrite: an unknown
    mode, a split of more than one node, or a node ``graph`` lacks."""
    names = {n.name for n in graph.nodes}
    for i, d in enumerate(decisions):
        mode = _decision_field(d, "mode")
        nodes = list(_decision_field(d, "nodes", ()))
        if mode not in ("gpu", "split", "pipeline"):
            raise PassError(f"decision {i}: unknown decision mode {mode!r}")
        if mode == "split" and len(nodes) != 1:
            raise PassError(f"decision {i}: split decisions cover exactly "
                            f"one node, got {nodes}")
        for name in nodes:
            if name not in names:
                raise PassError(f"decision {i} ({mode}) names node "
                                f"{name!r}, which is not in the graph")


def _apply_decisions_pass(graph: Graph, ctx: PassContext) -> Graph:
    """Decision application, duck-typed over solver ``Decision`` objects
    (or their dict form) so the transform layer never imports the
    search subsystem.

    The pass clones its input once and rewrites that private graph in
    place for every decision.  Malformed decisions are rejected with
    :class:`PassError` before the clone is made.
    """
    from repro.transform.pipeline import pipeline_chain_in_place
    from repro.transform.split import apply_mddp_in_place

    decisions = ctx.require_option("apply_decisions", "decisions")
    _check_decisions(graph, decisions)
    g = graph.clone()
    for d in decisions:
        mode = _decision_field(d, "mode")
        nodes = list(_decision_field(d, "nodes", ()))
        if mode == "gpu":
            for name in nodes:
                g.node(name).device = "gpu"
        elif mode == "split":
            apply_mddp_in_place(g, nodes[0], _decision_field(d, "ratio_gpu"))
        else:
            pipeline_chain_in_place(g, nodes,
                                    num_stages=_decision_field(d, "stages"))
    return g


def _mddp_split_pass(graph: Graph, ctx: PassContext) -> Graph:
    from repro.transform.split import apply_mddp

    node = ctx.require_option("mddp_split", "node")
    return apply_mddp(graph, node,
                      float(ctx.option("ratio_gpu", 0.5)),
                      axis=ctx.option("axis", "auto"))


def _pipeline_chain_pass(graph: Graph, ctx: PassContext) -> Graph:
    from repro.transform.pipeline import pipeline_chain

    chain = list(ctx.require_option("pipeline_chain", "chain"))
    return pipeline_chain(graph, chain,
                          num_stages=int(ctx.option("stages", 2)),
                          devices=ctx.option("devices"))


_register_builtin_passes()


# ----------------------------------------------------------------------
# Default pipelines (the Fig. 5 stages)
# ----------------------------------------------------------------------
#: Constant folding + dead-code elimination (the ``cleanup`` wrapper).
CLEANUP = PassPipeline("cleanup", ("fold_constants", "eliminate_dead_nodes"))
#: BN folding + activation fusion (the ``fuse`` wrapper).
FUSE = PassPipeline("fuse", ("fold_batchnorm", "fuse_activations"))
#: The mechanism-independent front end run by ``Compiler.prepare``.
PREPARE = PassPipeline("prepare", CLEANUP.passes + FUSE.passes)
#: Names of the prepare passes (the ``PimFlowConfig.prepare_passes``
#: default).
PREPARE_PASSES: Tuple[str, ...] = tuple(PREPARE.passes)
#: Decision application followed by the memory-layout optimizer (the
#: ``apply_decisions`` wrapper in :mod:`repro.search.apply`).
APPLY = PassPipeline("apply", ("apply_decisions", "optimize_memory"))
