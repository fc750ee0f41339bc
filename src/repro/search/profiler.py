"""Hardware-measurement-based profiling of execution modes.

For each PIM-candidate layer, the profiler extracts the layer into an
isolated region graph, applies the MD-DP transformation at each split
ratio (the original graph serves for the 0/100 and 100/0 samples, as in
the paper), runs the memory-layout optimizer, and measures the region
makespan on the simulators.  Pipelining candidates are measured the
same way on their extracted chains.

Profiling is embarrassingly parallel — every region measurement is
independent — so :class:`RegionProfiler` supports two execution paths
with identical results:

* ``jobs=1`` (default): the historical serial loop — extract, check
  the cache, measure inline, store.
* ``jobs>1``: enumerate all requests, consult the
  :class:`~repro.plan.cache.ProfileCache` up front, deduplicate misses
  by content fingerprint, fan the unique misses out through a
  :class:`~repro.exec.engine.JobEngine`, and merge results back in
  canonical request order.  The parent process is the cache's single
  writer; workers never touch it.  Jobs that crash or time out are
  recorded on :attr:`RegionProfiler.failed_jobs` and yield empty
  measurement lists — a dead worker never aborts the search.

Determinism guarantee: the simulators are deterministic functions of
the region structure, so serial and parallel profiling produce
byte-identical measurement tables (the test suite asserts this).

Profiled regions are *shape-only*: their initializers are
:func:`~repro.graph.graph.shape_only` placeholders, because the timing
models read shapes, dtypes and attributes, never weight values.  A
region therefore costs no weight memory, and splitting an FC layer at
each of the eleven ratios slices placeholders instead of copying its
weight matrix.  Both execution paths profile the same placeholder
regions (workers receive regions without weights).  Only the final
plan, built by :func:`~repro.search.apply.apply_decisions` on the real
graph, carries real weights.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exec.engine import JobEngine, resolve_worker_count
from repro.exec.job import JobResult, JobSpec
from repro.exec.progress import ProgressReporter
from repro.graph.graph import Graph, shape_only
from repro.graph.serialize import graph_to_dict
from repro.plan.cache import ProfileCache
from repro.plan.fingerprint import region_fingerprint
from repro.runtime.engine import ExecutionEngine
from repro.search.table import RegionMeasurement
from repro.transform.base import TransformError
from repro.transform.memopt import optimize_memory_in_place
from repro.transform.pipeline import pipeline_chain_in_place
from repro.transform.split import apply_mddp


def extract_subgraph(graph: Graph, node_names: Sequence[str],
                     include_weights: bool = True) -> Graph:
    """Isolate ``node_names`` into a standalone region graph.

    Tensors consumed from outside the region become graph inputs;
    initializers are carried over; tensors produced in the region and
    consumed outside (or that are graph outputs) become outputs.  With
    ``include_weights=False`` the region's initializers are
    :func:`~repro.graph.graph.shape_only` placeholders — enough for the
    timing models, which never read weight values.
    """
    wanted = set(node_names)
    region = Graph(f"{graph.name}__region")
    produced = set()
    for node in graph.toposort():
        if node.name not in wanted:
            continue
        for t in node.inputs:
            if t in graph.initializers:
                if t not in region.tensors:
                    value = graph.initializers[t]
                    region.add_initializer(
                        t, value if include_weights
                        else shape_only(value.shape, value.dtype),
                        graph.tensors[t].dtype)
            elif t not in produced and t not in region.inputs:
                region.add_tensor(graph.tensors[t])
                region.inputs.append(t)
        for t in node.outputs:
            region.add_tensor(graph.tensors[t])
            produced.add(t)
        region.add_node(node.clone())
    if len(region.nodes) != len(wanted):
        missing = wanted - {n.name for n in region.nodes}
        raise KeyError(f"nodes not found in graph: {sorted(missing)}")
    # One tensor->consumers index for the whole graph instead of an
    # O(graph_nodes) scan per region output tensor.
    outside_consumers: Dict[str, bool] = {}
    for consumer in graph.nodes:
        if consumer.name in wanted:
            continue
        for t in consumer.inputs:
            outside_consumers[t] = True
    for node in region.nodes:
        for t in node.outputs:
            if outside_consumers.get(t, False) or t in graph.outputs:
                region.outputs.append(t)
    if not region.outputs:
        region.outputs.append(region.nodes[-1].outputs[0])
    region.touch()
    return region


def profile_split(graph: Graph, node_name: str, engine: ExecutionEngine,
                  ratios: Iterable[float]) -> Dict[float, float]:
    """Region makespan (us) of ``node_name`` at each GPU split ratio."""
    region = extract_subgraph(graph, [node_name])
    results: Dict[float, float] = {}
    for ratio in ratios:
        try:
            transformed = apply_mddp(region, node_name, ratio)
        except TransformError:
            # Interior ratio not realizable for this layer (e.g. halo
            # consumes a piece, or non-constant FC weights); the 0/100
            # and 100/0 samples always succeed.
            continue
        optimize_memory_in_place(transformed)
        results[ratio] = engine.run(transformed).makespan_us
    return results


def profile_pipeline(graph: Graph, chain: Sequence[str], engine: ExecutionEngine,
                     num_stages: int = 2) -> Optional[float]:
    """Region makespan (us) of a pipelined chain, or None if unsplittable."""
    # The extracted region is a fresh graph, so it is rewritten in place.
    region = extract_subgraph(graph, chain)
    try:
        pipeline_chain_in_place(region, chain, num_stages=num_stages)
    except TransformError:
        return None
    optimize_memory_in_place(region)
    return engine.run(region).makespan_us


def profile_gpu(graph: Graph, node_names: Sequence[str],
                engine: ExecutionEngine) -> float:
    """Region makespan of nodes executed GPU-only (no transformation)."""
    region = extract_subgraph(graph, node_names)
    for node in region.nodes:
        node.device = "gpu"
    return engine.run(region).makespan_us


def measure_region(region: Graph, kind: str, target: Sequence[str],
                   engine: ExecutionEngine, ratios: Sequence[float] = (),
                   stages: int = 2,
                   fingerprint: Optional[str] = None) -> List[RegionMeasurement]:
    """Measure one extracted region — the single code path shared by the
    serial profiler and the job-engine workers, so parallel profiling
    cannot diverge from serial profiling."""
    if kind == "split":
        name = target[0]
        measurements: List[RegionMeasurement] = []
        for ratio, time_us in sorted(
                profile_split(region, name, engine,
                              sorted(set(ratios))).items()):
            if ratio >= 1.0:
                measurements.append(RegionMeasurement(
                    name, 1, "gpu", time_us, fingerprint=fingerprint))
            else:
                measurements.append(RegionMeasurement(
                    name, 1, "split", time_us, ratio_gpu=ratio,
                    fingerprint=fingerprint))
        return measurements
    if kind == "gpu":
        for node in region.nodes:
            node.device = "gpu"
        time_us = engine.run(region).makespan_us
        return [RegionMeasurement(target[0], 1, "gpu", time_us,
                                  fingerprint=fingerprint)]
    if kind == "pipeline":
        time_us = profile_pipeline(region, list(target), engine,
                                   num_stages=stages)
        if time_us is None:
            return []
        return [RegionMeasurement(
            target[0], len(target), "pipeline", time_us,
            chain=tuple(target), stages=stages, fingerprint=fingerprint)]
    raise ValueError(f"unknown profiling kind {kind!r}")


@dataclass(frozen=True)
class ProfileRequest:
    """One region the search wants measured.

    ``kind`` selects the pass (``"split"``, ``"gpu"``, ``"pipeline"``),
    ``nodes`` the target node (single-element tuple) or chain, and
    ``ratios``/``stages`` the pass knobs.
    """

    kind: str
    nodes: Tuple[str, ...]
    ratios: Tuple[float, ...] = ()
    stages: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("split", "gpu", "pipeline"):
            raise ValueError(f"unknown profiling kind {self.kind!r}")
        if not self.nodes:
            raise ValueError("a profile request needs at least one node")


class RegionProfiler:
    """Measures regions with optional content-addressed caching.

    Each profiled region is fingerprinted structurally (canonical
    names, so two identical layers of a model share one cache slot) and
    looked up under the toolchain's configuration fingerprint before
    any simulator runs.  On a hit, the stored measurements are rebound
    to the current node names; on a miss, the simulators run and the
    result — including the *negative* result of an unsplittable
    pipeline chain — is stored for every later profile of the same
    structure.

    With ``jobs > 1`` the batch entry point
    (:meth:`profile_requests`) fans cache misses out over worker
    processes; see the module docstring for the execution model.
    ``engine_spec`` (default: ``engine.to_spec()``) tells workers how
    to rebuild the engine; ``worker_fn`` exists for fault-injection
    tests.  Simulator invocations performed by workers are credited to
    ``engine.run_count`` when results merge, so the engine's accounting
    is mode-independent.
    """

    def __init__(self, engine: ExecutionEngine,
                 cache: Optional[ProfileCache] = None,
                 config_fingerprint: str = "uncached",
                 jobs: int = 1,
                 engine_spec: Optional[Dict[str, Any]] = None,
                 timeout_s: Optional[float] = None,
                 retries: int = 2,
                 progress: Optional[ProgressReporter] = None,
                 worker_fn=None) -> None:
        self.engine = engine
        self.cache = cache
        self.config_fingerprint = config_fingerprint
        self.jobs = resolve_worker_count(jobs)
        self.engine_spec = engine_spec
        self.timeout_s = timeout_s
        self.retries = retries
        self.progress = progress
        self.worker_fn = worker_fn
        #: Terminal failures of the most recent batch (never aborts the
        #: search; the affected requests yield no measurements).
        self.failed_jobs: List[JobResult] = []
        #: Summary of the most recent :meth:`profile_requests` batch.
        self.last_stats: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _lookup(self, fingerprint: str) -> Optional[List[dict]]:
        if self.cache is None:
            return None
        return self.cache.lookup(self.config_fingerprint, fingerprint)

    def _store(self, fingerprint: str,
               measurements: List[RegionMeasurement]) -> None:
        if self.cache is None:
            return
        self.cache.store(self.config_fingerprint, fingerprint,
                         [m.to_dict() for m in measurements])

    @staticmethod
    def _rebind(entry: dict, start: str,
                chain: Sequence[str] = ()) -> RegionMeasurement:
        """Rebind a cached entry to the current region's node names."""
        data = dict(entry)
        data["start"] = start
        if chain:
            data["chain"] = list(chain)
        return RegionMeasurement.from_dict(data)

    def _bind(self, entries: Sequence[dict],
              request: ProfileRequest) -> List[RegionMeasurement]:
        chain = request.nodes if request.kind == "pipeline" else ()
        return [self._rebind(e, start=request.nodes[0], chain=chain)
                for e in entries]

    def _fingerprint(self, region: Graph, request: ProfileRequest) -> str:
        if request.kind == "split":
            return region_fingerprint(region, "split",
                                      ratios=sorted(set(request.ratios)))
        if request.kind == "gpu":
            return region_fingerprint(region, "gpu")
        return region_fingerprint(region, "pipeline", stages=request.stages)

    # ------------------------------------------------------------------
    # Batch profiling
    # ------------------------------------------------------------------
    def profile_requests(self, graph: Graph,
                         requests: Sequence[ProfileRequest],
                         ) -> List[List[RegionMeasurement]]:
        """Measure every request; one result list per request, in order.

        The canonical merge order is the request order, so callers
        building a :class:`~repro.search.table.MeasurementTable` get
        identical tables from serial and parallel execution.
        """
        requests = list(requests)
        t0 = time.perf_counter()
        self.failed_jobs = []
        if self.jobs <= 1:
            jobs_run = 0
            hits = 0
            results: List[List[RegionMeasurement]] = []
            for request in requests:
                measurements, was_hit = self._profile_one(graph, request)
                jobs_run += 0 if was_hit else 1
                hits += 1 if was_hit else 0
                results.append(measurements)
            self._record_stats(requests, hits, jobs_run, 1, t0)
            return results
        results = self._profile_parallel(graph, requests, t0)
        return results

    def _profile_one(self, graph: Graph, request: ProfileRequest,
                     ) -> Tuple[List[RegionMeasurement], bool]:
        """The serial path: extract, consult cache, measure, store."""
        region = extract_subgraph(graph, request.nodes,
                                  include_weights=False)
        fp = self._fingerprint(region, request)
        cached = self._lookup(fp)
        if cached is not None:
            return self._bind(cached, request), True
        measurements = measure_region(
            region, request.kind, request.nodes, self.engine,
            ratios=request.ratios, stages=request.stages, fingerprint=fp)
        self._store(fp, measurements)
        return measurements, False

    def _profile_parallel(self, graph: Graph,
                          requests: List[ProfileRequest],
                          t0: float) -> List[List[RegionMeasurement]]:
        # Phase 1: enumerate regions and consult the cache up front.
        prepared: List[Tuple[ProfileRequest, Graph, str]] = []
        hit_entries: Dict[int, List[dict]] = {}
        owner_of_fp: Dict[str, int] = {}
        specs: List[JobSpec] = []
        engine_spec = self.engine_spec or self.engine.to_spec()
        dup_hits = 0
        for i, request in enumerate(requests):
            region = extract_subgraph(graph, request.nodes,
                                      include_weights=False)
            fp = self._fingerprint(region, request)
            prepared.append((request, region, fp))
            if fp in owner_of_fp:
                # Duplicate structure of a pending job: it rebinds the
                # owner's entries at merge time, which is exactly what
                # the serial path would have served as a cache hit —
                # count it as one so the statistics are mode-independent.
                dup_hits += 1
                if self.cache is not None:
                    self.cache.hits += 1
                continue
            cached = self._lookup(fp)
            if cached is not None:
                hit_entries[i] = cached
            else:
                # First miss of this structure owns the job.
                owner_of_fp[fp] = i
                specs.append(JobSpec(
                    job_id=len(specs), kind=request.kind, fingerprint=fp,
                    config_fingerprint=self.config_fingerprint,
                    region=graph_to_dict(region, include_weights=False),
                    target=request.nodes,
                    ratios=tuple(sorted(set(request.ratios))),
                    stages=request.stages,
                    engine_spec=engine_spec))

        # Phase 2: fan the unique misses out across workers.
        worker_fn = self.worker_fn
        if worker_fn is None:
            from repro.exec.worker import execute_job
            worker_fn = execute_job
        job_engine = JobEngine(
            worker_fn, jobs=self.jobs, timeout_s=self.timeout_s,
            retries=self.retries, progress=self.progress)
        job_results = job_engine.run(specs, cached=len(hit_entries) + dup_hits)

        # Phase 3: single-writer merge back in the parent, in canonical
        # (submission) order — workers never write the cache.
        entries_by_fp: Dict[str, List[dict]] = {}
        for result in job_results:
            if result.ok:
                entries_by_fp[result.fingerprint] = list(result.entries)
                self.engine.run_count += result.runs
                if self.cache is not None:
                    self.cache.store(self.config_fingerprint,
                                     result.fingerprint,
                                     list(result.entries))
            else:
                self.failed_jobs.append(result)

        results: List[List[RegionMeasurement]] = []
        for i, (request, _region, fp) in enumerate(prepared):
            if i in hit_entries:
                results.append(self._bind(hit_entries[i], request))
            elif fp in entries_by_fp:
                results.append(self._bind(entries_by_fp[fp], request))
            else:
                results.append([])  # recorded failure; search continues
        self._record_stats(requests, len(hit_entries) + dup_hits,
                           len(specs), self.jobs, t0)
        return results

    def _record_stats(self, requests: Sequence[ProfileRequest], hits: int,
                      jobs_run: int, workers: int, t0: float) -> None:
        self.last_stats = {
            "requests": len(requests),
            "cache_hits": hits,
            "jobs_run": jobs_run,
            "failed": len(self.failed_jobs),
            "workers": workers,
            "wall_s": time.perf_counter() - t0,
        }

    # ------------------------------------------------------------------
    # Per-region entry points (serial semantics, shared with the batch)
    # ------------------------------------------------------------------
    def profile_node(self, graph: Graph, name: str,
                     ratios: Sequence[float]) -> List[RegionMeasurement]:
        """All split-ratio measurements for one PIM-candidate node."""
        request = ProfileRequest("split", (name,), tuple(ratios))
        return self._profile_one(graph, request)[0]

    def profile_gpu_node(self, graph: Graph,
                         name: str) -> List[RegionMeasurement]:
        """The GPU-only measurement for a non-candidate node."""
        return self._profile_one(graph, ProfileRequest("gpu", (name,)))[0]

    def profile_chain(self, graph: Graph, chain: Sequence[str],
                      stages: int) -> List[RegionMeasurement]:
        """The pipelined measurement for a chain (empty if unsplittable)."""
        request = ProfileRequest("pipeline", tuple(chain), stages=stages)
        return self._profile_one(graph, request)[0]
