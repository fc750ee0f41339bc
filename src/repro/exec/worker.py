"""The worker-process half of the job engine.

:func:`execute_job` is the picklable entry point a
``ProcessPoolExecutor`` worker runs for each :class:`JobSpec`: rebuild
the region graph from its serialized form, rebuild (or reuse) an
execution engine from the spec's engine description, run the same
measurement code the serial profiler runs
(:func:`repro.search.profiler.measure_region`), and ship the
measurement entries back as plain dicts.

The region arrives without weights, and its initializers are rebuilt
as :func:`~repro.graph.graph.shape_only` placeholders, so a worker
profiles exactly the shape-only region the serial path profiles and
never materializes an FC weight matrix.

Workers never touch the profile cache — the parent process is the
single writer, merging results after jobs complete — and they never
mutate parent state: the region arrives by value and the engine is a
per-process reconstruction.  Engines are memoized per worker process
keyed by the engine-spec hash, so a thousand jobs under one toolchain
configuration build the simulators once per worker, not once per job.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Mapping

from repro.exec.job import STATUS_OK, JobResult, JobSpec
from repro.graph.graph import shape_only
from repro.graph.serialize import graph_from_dict
from repro.plan.fingerprint import stable_hash
from repro.runtime.engine import ExecutionEngine

#: Per-worker-process engine memo: engine-spec hash -> engine.
_ENGINES: Dict[str, ExecutionEngine] = {}


def _engine_for(spec: Mapping[str, Any]) -> ExecutionEngine:
    """The worker's engine for an engine spec, built at most once."""
    from repro.runtime.executor import engine_from_spec

    key = stable_hash(dict(spec))
    engine = _ENGINES.get(key)
    if engine is None:
        engine = engine_from_spec(dict(spec))
        _ENGINES[key] = engine
    return engine


def execute_job(spec: JobSpec) -> JobResult:
    """Measure one region; exceptions propagate to the engine's retry
    logic (a worker never converts its own crash into a result)."""
    from repro.search.profiler import measure_region

    t0 = time.perf_counter()
    engine = _engine_for(spec.engine_spec)
    data = dict(spec.region)
    # Jobs ship initializer names without values; rebuild them as
    # placeholders rather than as zero arrays the timing models never read.
    weight_names = data.pop("initializers", {})
    region = graph_from_dict(data)
    region.initializers = {name: shape_only(region.tensors[name].shape)
                           for name in weight_names}
    region.touch()
    runs_before = engine.run_count
    measurements = measure_region(
        region, spec.kind, spec.target, engine,
        ratios=spec.ratios, stages=spec.stages,
        fingerprint=spec.fingerprint)
    return JobResult(
        job_id=spec.job_id,
        fingerprint=spec.fingerprint,
        status=STATUS_OK,
        entries=tuple(m.to_dict() for m in measurements),
        runs=engine.run_count - runs_before,
        elapsed_s=time.perf_counter() - t0,
        worker_pid=os.getpid())
