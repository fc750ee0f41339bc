"""Hardware-measurement-based profiling of execution modes.

For each PIM-candidate layer, the profiler extracts the layer into an
isolated region graph, applies the MD-DP transformation at each split
ratio (the original graph serves for the 0/100 and 100/0 samples, as in
the paper), runs the memory-layout optimizer, and measures the region
makespan on the simulators.  Pipelining candidates are measured the
same way on their extracted chains.

:class:`RegionProfiler` runs one serial loop per request: extract the
region, look its structural fingerprint up in the
:class:`~repro.plan.cache.ProfileCache`, measure on a miss, store.
Structurally identical layers of a model share one cache slot, so a
cold compile already serves its duplicates as cache hits, and a warm
disk cache replays a whole model with zero simulator runs.  The
simulators are deterministic functions of the region structure, so
the same graph always yields the same measurement table.

Profiled regions are *shape-only*: their initializers are
:func:`~repro.graph.graph.shape_only` placeholders, because the timing
models read shapes, dtypes and attributes, never weight values.  A
region therefore costs no weight memory, and splitting an FC layer at
each of the eleven ratios slices placeholders instead of copying its
weight matrix.  Only the final plan, built by
:func:`~repro.search.apply.apply_decisions` on the real graph, carries
real weights.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph, shape_only
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


def measure_region(region: Graph, kind: str, target: Sequence[str],
                   engine: ExecutionEngine, ratios: Sequence[float] = (),
                   stages: int = 2,
                   fingerprint: Optional[str] = None) -> List[RegionMeasurement]:
    """Measure one extracted region: the profiler's single measurement
    path for every request kind."""
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
    """

    def __init__(self, engine: ExecutionEngine,
                 cache: Optional[ProfileCache] = None,
                 config_fingerprint: str = "uncached") -> None:
        self.engine = engine
        self.cache = cache
        self.config_fingerprint = config_fingerprint
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
    # Profiling
    # ------------------------------------------------------------------
    def profile_requests(self, graph: Graph,
                         requests: Sequence[ProfileRequest],
                         ) -> List[List[RegionMeasurement]]:
        """Measure every request; one result list per request, in order."""
        t0 = time.perf_counter()
        results: List[List[RegionMeasurement]] = []
        hits = 0
        for request in requests:
            measurements, was_hit = self._profile_one(graph, request)
            hits += was_hit
            results.append(measurements)
        self.last_stats = {
            "requests": len(results),
            "cache_hits": hits,
            "simulated": len(results) - hits,
            "wall_s": time.perf_counter() - t0,
        }
        return results

    def _profile_one(self, graph: Graph, request: ProfileRequest,
                     ) -> Tuple[List[RegionMeasurement], bool]:
        """Extract, consult the cache, measure on a miss, store."""
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
