"""Top-level PIMFlow API: configure, profile, solve, compile, run.

This module wires the whole stack together the way the artifact's
``pimflow`` driver script does, split into an ahead-of-time compile
layer and its one-object runtime entry point:

* :class:`Compiler` owns the expensive phases — ``profile`` (Algorithm-1
  measurements, memoized through a content-addressed
  :class:`~repro.plan.cache.ProfileCache`), ``solve`` (the DP), and
  ``compile`` (graph transformation).  ``build_plan`` packages the
  result as a serializable :class:`~repro.plan.artifact.ExecutionPlan`
  so compilation happens once and execution many times — including in
  processes that never import the search subsystem (see
  :class:`~repro.runtime.executor.PlanExecutor`).
* :class:`PimFlow` is the compiler plus ``run``, which schedules on the
  mixed-parallel engine: the original one-object API.

The ``mechanism`` selects the offloading scheme of the evaluation
(Section 5): ``gpu``, ``newton+``, ``newton++``, ``pimflow-md``,
``pimflow-pl``, or ``pimflow``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.graph.graph import Graph, GraphError, is_shape_only
from repro.graph.ops import is_pim_candidate
from repro.gpu.config import GpuConfig, RTX2060
from repro.gpu.device import GpuDevice
from repro.memsys.system import MemorySystem
from repro.pim.config import (
    NEWTON,
    NEWTON_PLUS,
    NEWTON_PLUS_PLUS,
    PimConfig,
    PimOptimizations,
)
from repro.pim.device import PimDevice
from repro.plan.artifact import ExecutionPlan
from repro.plan.cache import MemoryProfileCache, ProfileCache
from repro.plan.fingerprint import config_fingerprint, graph_fingerprint
from repro.runtime.engine import ExecutionEngine, RunResult
from repro.search.apply import apply_decisions
from repro.search.profiler import ProfileRequest, RegionProfiler
from repro.search.solver import Decision, solve
from repro.search.table import MeasurementTable
from repro.transform.passes import PREPARE_PASSES, PassContext, PassManager
from repro.transform.patterns import find_pipeline_candidates


@dataclass(frozen=True)
class MechanismSpec:
    """What an offloading mechanism is allowed to do."""

    uses_pim: bool
    split_ratios: Tuple[float, ...]   # allowed GPU ratios besides 1.0
    pipelines: bool
    pim_opts: Optional[PimOptimizations]


def _md_ratios(step: float) -> Tuple[float, ...]:
    count = int(round(1.0 / step))
    return tuple(round(i * step, 4) for i in range(count + 1))


MECHANISMS: Dict[str, MechanismSpec] = {
    "gpu": MechanismSpec(False, (), False, None),
    "newton": MechanismSpec(True, (0.0, 1.0), False, NEWTON),
    "newton+": MechanismSpec(True, (0.0, 1.0), False, NEWTON_PLUS),
    "newton++": MechanismSpec(True, (0.0, 1.0), False, NEWTON_PLUS_PLUS),
    "pimflow-md": MechanismSpec(True, _md_ratios(0.1), False, NEWTON_PLUS_PLUS),
    "pimflow-pl": MechanismSpec(True, (0.0, 1.0), True, NEWTON_PLUS_PLUS),
    "pimflow": MechanismSpec(True, _md_ratios(0.1), True, NEWTON_PLUS_PLUS),
}


@dataclass(frozen=True)
class PimFlowConfig:
    """Full configuration of one PIMFlow instantiation."""

    mechanism: str = "pimflow"
    memory: MemorySystem = field(default_factory=MemorySystem)
    gpu_base: GpuConfig = RTX2060
    pim_base: PimConfig = field(default_factory=PimConfig)
    ratio_step: float = 0.1
    pipeline_stages: int = 2
    #: Additional stage counts the search may consider per chain (the
    #: DP then picks the best-measured option).  Default: only the
    #: configured ``pipeline_stages``, matching the paper; Fig. 15
    #: justifies this with the stage-count sensitivity study.
    pipeline_stage_options: Tuple[int, ...] = ()
    #: Run the standard TVM inference fusions (BN folding, activation
    #: fusion) before any PIM-specific pass.  Applied to every
    #: mechanism including the GPU baseline, so comparisons are fair.
    fuse: bool = True
    #: Override the mechanism's PIM command-level optimization flags —
    #: used by the Fig. 14 ablation to isolate individual command
    #: optimizations on top of the Newton+ offloading scheme.
    pim_opts: Optional[PimOptimizations] = None
    #: Verify after compilation that all PIM-resident filter weights fit
    #: the PIM channels' reserved capacity (raises PlacementError
    #: otherwise).  The paper places weights in the cell arrays in
    #: advance and implicitly assumes they fit.
    check_placement: bool = True
    #: Directory for the content-addressed profile cache; None keeps
    #: the cache in memory (see ``memoize``).
    cache_dir: Optional[Union[str, Path]] = None
    #: With no ``cache_dir``, memoize measurements in process memory so
    #: repeat ``profile()``/``compile()`` calls on one toolchain replay
    #: them instead of re-running the simulators.  Set False to force
    #: every profile through the simulators (e.g. when timing them).
    memoize: bool = True
    #: Front-end pass pipeline run by ``prepare`` (registered pass
    #: names); empty = the standard TVM-style front end
    #: (:data:`repro.transform.passes.PREPARE_PASSES`).  Participates in
    #: the configuration fingerprint — a different front end means
    #: different measured regions.
    prepare_passes: Tuple[str, ...] = ()
    #: Run the inter-pass verifier after every compiler pass:
    #: ``Graph.validate()`` (full shape re-inference), graph-interface
    #: preservation, clone-discipline (purity) checking, and — with
    #: ``verify_numeric`` — a numeric equivalence spot check against
    #: the numpy oracle.  The CLI flag ``--verify-passes`` sets this.
    verify_passes: bool = False
    #: Include the numeric oracle spot check in pass verification
    #: (ignored unless ``verify_passes`` is on).
    verify_numeric: bool = True
    #: Snapshot the graph IR after every compiler pass into this
    #: directory (``<seq>_<pass>.json``); the CLI flag ``--dump-ir``.
    dump_ir_dir: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ValueError(
                f"unknown mechanism {self.mechanism!r}; "
                f"choose from {sorted(MECHANISMS)}")

    @property
    def spec(self) -> MechanismSpec:
        spec = MECHANISMS[self.mechanism]
        if spec.split_ratios and len(spec.split_ratios) > 2 and self.ratio_step != 0.1:
            return replace(spec, split_ratios=_md_ratios(self.ratio_step))
        return spec


@dataclass
class CompiledModel:
    """Result of the compile step."""

    graph: Graph
    decisions: List[Decision]
    table: MeasurementTable
    predicted_time_us: float
    #: Per-pass instrumentation log (``PassRecord.to_dict`` form) from
    #: the front-end and decision-application pipelines.
    pass_records: List[Dict[str, object]] = field(default_factory=list)


class Compiler:
    """The ahead-of-time half of the toolchain.

    Owns the simulated devices, the execution engine used for
    measurements, and (optionally) a profile cache.  All expensive work
    happens here; the products — a :class:`CompiledModel` or a
    serializable :class:`ExecutionPlan` — can be executed repeatedly
    without re-entering any of it.
    """

    def __init__(self, config: Optional[PimFlowConfig] = None,
                 cache: Optional[ProfileCache] = None) -> None:
        self.config = config or PimFlowConfig()
        spec = self.config.spec
        if spec.uses_pim:
            gpu_cfg = self.config.memory.gpu_config(self.config.gpu_base)
            self.gpu = GpuDevice(gpu_cfg, write_through=True)
            pim_cfg = self.config.memory.pim_config(self.config.pim_base)
            opts = self.config.pim_opts or spec.pim_opts
            self.pim: Optional[PimDevice] = PimDevice(pim_cfg, opts)
        else:
            self.gpu = GpuDevice(self.config.gpu_base, write_through=False)
            self.pim = None
        self.engine = ExecutionEngine(self.gpu, self.pim)
        if cache is None and self.config.cache_dir:
            cache = ProfileCache(self.config.cache_dir)
        elif cache is None and self.config.memoize:
            cache = MemoryProfileCache()
        self.cache = cache
        self._config_fp: Optional[str] = None
        #: Summary of the most recent profile phase (candidates,
        #: samples, requests, simulated, cache hits, wall-clock) for
        #: CLI/telemetry use.
        self.last_profile_summary: Dict[str, object] = {}
        #: Per-pass instrumentation log of the most recent
        #: ``prepare``/``compile``/``build_plan`` (list of
        #: ``PassRecord.to_dict`` dicts) for CLI/provenance use.
        self.last_pass_records: List[Dict[str, object]] = []

    @property
    def config_fingerprint(self) -> str:
        """Stable hash of everything that can change a measurement.

        Cache entries live under this fingerprint; any change to the
        mechanism, device configs, optimization flags, or engine
        parameters moves the toolchain to a disjoint cache namespace,
        which is exactly the invalidation the cache needs.
        """
        if self._config_fp is None:
            self._config_fp = config_fingerprint(
                mechanism=self.config.mechanism,
                spec=self.config.spec,
                gpu_config=self.gpu.config,
                pim_config=self.pim.config if self.pim else None,
                pim_opts=self.pim.opts if self.pim else None,
                extra={
                    "fuse": self.config.fuse,
                    "prepare_passes": list(self.prepare_passes),
                    "pipeline_stages": self.config.pipeline_stages,
                    "pipeline_stage_options":
                        list(self.config.pipeline_stage_options),
                    "write_through": self.gpu.write_through,
                    "sync_overhead_us": self.engine.sync_overhead_us,
                    "host_io": self.engine.host_io,
                })
        return self._config_fp

    @property
    def prepare_passes(self) -> Tuple[str, ...]:
        """Resolved front-end pipeline (config override or the default)."""
        return tuple(self.config.prepare_passes) or PREPARE_PASSES

    def pass_manager(self) -> PassManager:
        """A pass manager wired from the config's verification knobs."""
        return PassManager(verify=self.config.verify_passes,
                           verify_numeric=self.config.verify_numeric,
                           dump_dir=self.config.dump_ir_dir)

    def prepare(self, graph: Graph,
                manager: Optional[PassManager] = None) -> Graph:
        """Apply the mechanism-independent inference optimizations:
        constant folding, dead-code elimination, BN folding, and
        activation fusion — as the registered front-end pass pipeline.

        Pass a ``manager`` to accumulate instrumentation records across
        phases (``compile`` does); standalone calls record their
        per-pass log on :attr:`last_pass_records`.
        """
        mgr = manager or self.pass_manager()
        if self.config.fuse:
            graph = mgr.run(self.prepare_passes, graph, PassContext())
        self.last_pass_records = mgr.record_dicts()
        return graph

    # ------------------------------------------------------------------
    # Step 1: profile
    # ------------------------------------------------------------------
    def _profile_requests(self, graph: Graph) -> Tuple[List[ProfileRequest], int]:
        """Enumerate every measurement Algorithm 1 needs, in the
        canonical (topological, then pipeline-pattern) order the serial
        profiler has always used.  Returns the requests and the number
        of PIM-candidate regions among them."""
        spec = self.config.spec
        order = [n.name for n in graph.toposort()]
        shapes = {t.name: t.shape for t in graph.tensors.values()}
        requests: List[ProfileRequest] = []
        candidates = 0

        for name in order:
            node = graph.node(name)
            input_shapes = [shapes[t] for t in node.inputs]
            if spec.uses_pim and is_pim_candidate(node, input_shapes):
                candidates += 1
                ratios = sorted(set(spec.split_ratios) | {1.0})
                requests.append(ProfileRequest("split", (name,),
                                               tuple(ratios)))
            else:
                requests.append(ProfileRequest("gpu", (name,)))

        if spec.uses_pim and spec.pipelines:
            positions = {name: i for i, name in enumerate(order)}
            stage_options = tuple(dict.fromkeys(
                (self.config.pipeline_stages,)
                + tuple(self.config.pipeline_stage_options)))
            for pattern in find_pipeline_candidates(graph):
                i = positions[pattern.chain[0]]
                span = len(pattern.chain)
                if tuple(order[i:i + span]) != pattern.chain:
                    continue  # chain is not contiguous in topo order
                candidates += 1
                for stages in stage_options:
                    requests.append(ProfileRequest(
                        "pipeline", tuple(pattern.chain), stages=stages))
        return requests, candidates

    def profile(self, graph: Graph) -> MeasurementTable:
        """Measure all execution-mode samples for ``graph``.

        With a cache configured, regions whose structural fingerprints
        were measured before (under this configuration fingerprint) are
        served from disk with zero simulator invocations.
        """
        t0 = time.perf_counter()
        requests, candidates = self._profile_requests(graph)
        profiler = RegionProfiler(
            self.engine, self.cache, self.config_fingerprint)
        if self.cache is not None:
            self.cache.reset_stats()
        table = MeasurementTable()
        for measurements in profiler.profile_requests(graph, requests):
            for m in measurements:
                table.add(m)
        if self.cache is not None:
            self.cache.record_run(self.config_fingerprint)
        self.last_profile_summary = {
            "candidates": candidates,
            "samples": len(table),
            **profiler.last_stats,
            "wall_s": time.perf_counter() - t0,
        }
        return table

    # ------------------------------------------------------------------
    # Step 2: solve
    # ------------------------------------------------------------------
    def solve(self, graph: Graph,
              table: MeasurementTable) -> Tuple[float, List[Decision]]:
        """Run the Algorithm-1 DP over the measurement table."""
        order = [n.name for n in graph.toposort()]
        return solve(order, table)

    # ------------------------------------------------------------------
    # Step 3: compile
    # ------------------------------------------------------------------
    def compile(self, graph: Graph,
                table: Optional[MeasurementTable] = None) -> CompiledModel:
        """Fuse, profile (unless a table is given), solve, and transform.

        The returned graph is pruned (:meth:`Graph.prune
        <repro.graph.graph.Graph.prune>`): it holds only the tensors its
        nodes read or write, not the weights BN folding or the FC split
        replaced.  The front-end and decision-application pipelines run
        through one shared :class:`~repro.transform.passes.PassManager`,
        so the full per-pass log lands on :attr:`last_pass_records` (and
        in the plan provenance via :meth:`build_plan`).
        """
        manager = self.pass_manager()
        prepared = self.prepare(graph, manager=manager)
        if table is None:
            table = self.profile(prepared)
        predicted, decisions = self.solve(prepared, table)
        transformed = apply_decisions(prepared, decisions, manager=manager)
        self.last_pass_records = manager.record_dicts()
        transformed.validate()
        if self.pim is not None and self.config.check_placement:
            from repro.pim.placement import plan_placement

            pim_layers = [
                n.name for n in transformed.nodes
                if n.device == "pim"
                and n.op_type in ("Conv", "Gemm", "MatMul")
                and len(n.inputs) > 1 and n.inputs[1] in transformed.initializers
            ]
            plan_placement(transformed, self.pim.config, self.pim.opts,
                           pim_layers)
        transformed.prune()
        return CompiledModel(graph=transformed, decisions=decisions,
                             table=table, predicted_time_us=predicted,
                             pass_records=list(self.last_pass_records))

    def _gpu_graph(self, graph: Graph) -> Graph:
        """The prepared, pruned clone of ``graph`` with every node on
        the GPU: the ``gpu`` mechanism's whole compile."""
        prepared = self.prepare(graph).clone()
        for node in prepared.nodes:
            node.device = "gpu"
        prepared.prune()
        return prepared

    # ------------------------------------------------------------------
    # Step 3b: package as a reusable artifact
    # ------------------------------------------------------------------
    def runtime_spec(self) -> Dict[str, object]:
        """Serializable description of the execution environment, enough
        for :class:`~repro.runtime.executor.PlanExecutor` to rebuild an
        identical engine without this compiler."""
        return {"mechanism": self.config.mechanism, **self.engine.to_spec()}

    def build_plan(self, graph: Graph, model_name: Optional[str] = None,
                   with_traces: bool = False,
                   compiled: Optional[CompiledModel] = None) -> ExecutionPlan:
        """Compile ``graph`` into a self-contained execution plan.

        The plan carries the transformed graph, the solver decisions,
        the runtime spec, and provenance; ``with_traces`` additionally
        attaches explicit PIM command programs for every offloaded
        layer (for offline inspection and replay).  Pass an existing
        ``compiled`` model to package it without re-compiling.
        """
        from repro import __version__

        source_fp = graph_fingerprint(graph)
        if self.config.mechanism == "gpu":
            transformed = self._gpu_graph(graph)
            decisions: List[Dict[str, object]] = []
            predicted = self.engine.run(transformed).makespan_us
            num_measurements = 0
            pass_records = list(self.last_pass_records)
        else:
            if compiled is None:
                compiled = self.compile(graph)
            transformed = compiled.graph
            decisions = [d.to_dict() for d in compiled.decisions]
            predicted = compiled.predicted_time_us
            num_measurements = len(compiled.table)
            pass_records = list(compiled.pass_records)
        placeholders = sorted(name for name, value
                              in transformed.initializers.items()
                              if is_shape_only(value))
        if placeholders:
            # Profiled regions carry shape-only weights; a plan must not.
            raise GraphError(
                f"plan graph carries shape-only placeholder weights: "
                f"{placeholders}")

        traces: Dict[str, object] = {}
        if with_traces and self.pim is not None:
            from repro.codegen.generator import traces_for_graph
            from repro.codegen.trace_io import trace_to_dict
            traces = {
                name: trace_to_dict(trace)
                for name, trace in traces_for_graph(
                    transformed, self.pim.config, self.pim.opts).items()
            }

        from repro.runtime.bufferplan import plan_buffers
        buffer_plan = plan_buffers(transformed).stats()

        return ExecutionPlan(
            mechanism=self.config.mechanism,
            config_fingerprint=self.config_fingerprint,
            graph=transformed,
            decisions=decisions,
            predicted_time_us=predicted,
            runtime_spec=self.runtime_spec(),
            buffer_plan=buffer_plan,
            provenance={
                "model": model_name or graph.name,
                "created_at": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"),
                "repro_version": __version__,
                "source_graph_fingerprint": source_fp,
                "measurements": num_measurements,
                "passes": pass_records,
            },
            traces=traces,
        )


class PimFlow(Compiler):
    """One configured PIMFlow toolchain instance: the :class:`Compiler`
    plus :meth:`run`, which schedules on the mixed-parallel engine."""

    def run(self, graph: Graph,
            compiled: Optional[CompiledModel] = None) -> RunResult:
        """Schedule an inference of ``graph`` (compiling if needed)."""
        if self.config.mechanism == "gpu":
            return self.engine.run(self._gpu_graph(graph))
        if compiled is None:
            compiled = self.compile(graph)
        return self.engine.run(compiled.graph)


def run_mechanism(graph: Graph, mechanism: str,
                  config: Optional[PimFlowConfig] = None) -> RunResult:
    """Convenience one-shot: compile and run ``graph`` under a mechanism."""
    base = config or PimFlowConfig()
    flow = PimFlow(replace(base, mechanism=mechanism))
    return flow.run(graph)
