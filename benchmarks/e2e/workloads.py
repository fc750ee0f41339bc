"""The benchmark's four workloads and its calls into the program.

Every run goes through the same phases in one process:

1. **setup**, :data:`SETUPS` times from scratch (``setup_s`` is the
   median): build the model graphs, compile them under ``gpu`` and
   ``pimflow``, schedule both plans on the modelled hardware, and make
   the program ready for the first timed operation (bind, warm up).
2. **check**: compute the oracle outputs the timed operations are
   compared against; traced runs also profile the host executor here.
3. **measure** for ``seconds`` of wall-clock time.

Only public APIs are used, in the program's default configuration:
no ``workers``, ``gemm_shards``, ``fuse`` or ``max_states`` argument and
no ``REPRO_*`` variable.  The one exception is ``elide=False``, run only
when tracing, to measure the copy tax of the memory-layout optimization.
The seed drives every generated input (feeds, model order, arrivals);
the program sees only those inputs.
"""

from __future__ import annotations

import gc
import json
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.models import build_model
from repro.pimflow import Compiler, PimFlowConfig
from repro.runtime.executor import PlanExecutor
from repro.runtime.numerical import execute
from repro.serve import InferenceServer, ModelRepository, ServerConfig
from repro.serve.errors import ServeError

#: End-to-end metrics (name -> unit), printed with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "modelled_speedup": "x",
}

#: Per-layer metrics (name -> unit), printed with ``--trace 1``.  Every
#: workload reports every one; README.md says which end-to-end metric
#: each should move.
PER_LAYER = {
    "process.import_s": "s",
    "transform.prepare_ms": "ms",
    "search.profile_ms": "ms",
    "engine.simulate_ms": "ms",
    "search.solve_ms": "ms",
    "transform.apply_ms": "ms",
    "pimflow.build_self_ms": "ms",
    "engine.schedule_ms": "ms",
    "search.profile_requests": "count",
    "engine.simulator_runs": "count",
    "bufferplan.arena_mb": "MB",
    "bufferplan.copies_elided": "count",
    "bufferplan.copy_tax": "x",
    "compiled.bind_ms": "ms",
    "compiled.gemm_ms": "ms",
    "compiled.nongemm_ms": "ms",
    "compiled.steps": "count",
    "numerical.oracle_ms": "ms",
    "hostpool.peak_in_use": "count",
}

#: Setups per run; ``setup_s`` is their median.
SETUPS = 3
#: Seeded inputs per model that the timed requests rotate over.
FEED_POOL = 4
#: Interleaved elide-on/elide-off inferences behind ``bufferplan.copy_tax``.
COPY_TAX_ROUNDS = 5
#: The five CNNs of the paper's Fig. 9.
CNN5 = ("efficientnet-v1-b0", "mnasnet-1.0", "mobilenet-v2", "resnet-50",
        "vgg-16")
#: The compile workload's plans run against the oracle.  vgg-16 is left
#: out: its 528 MiB of weights would raise the run's peak memory by
#: about 0.4 GB on top of the 1.4 GB its graph build already takes.
NUMERIC_CHECK = CNN5[:-1]
#: Compiled for every model: the GPU baseline and PIMFlow.
MECHANISMS = ("gpu", "pimflow")
#: Extra Fig. 9 mechanisms a traced compile run records (modelled only).
TRACED_MECHANISMS = ("newton++", "pimflow-md")
#: Open-loop serve traffic: arrivals at this rate, this model mix.
SERVE_RATE_RPS = 12.0
SERVE_MIX = (("mobilenet-v2", 3), ("shufflenet-v2", 1))
SERVE_WORKERS = 2
SERVE_MAX_BATCH = 8
SERVE_DEADLINE_MS = 1000.0
#: Deadline of the untimed warm-up burst.  Its requests wait behind
#: cold binds of every (worker, model) state, which on a loaded 2-core
#: box can take longer than the serve deadline.
WARMUP_DEADLINE_MS = 60_000.0
#: Latency limit behind the serve workload's goodput.
SERVE_LIMIT_MS = 250.0
#: Same tolerance as ``repro.runtime.verify.verify_equivalence``.
EQUIV_TOL = 5e-3


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def feed_pool(graph, batch: int, seed: int, salt: int = 0,
              size: int = FEED_POOL) -> List[Dict[str, np.ndarray]]:
    """``size`` random feeds at ``batch`` for every graph input."""
    rng = np.random.default_rng([seed, salt])
    return [{name: (rng.standard_normal(
                (batch,) + tuple(graph.tensors[name].shape[1:])) * 0.1
            ).astype(np.float32) for name in graph.inputs}
            for _ in range(size)]


def compile_orders(seed: int) -> Iterator[List[Tuple[str, str]]]:
    """Endless rounds of every (model, mechanism) pair, each round in a
    fresh seeded order."""
    rng = random.Random(seed)
    pairs = [(m, mech) for m in CNN5 for mech in MECHANISMS]
    while True:
        yield rng.sample(pairs, len(pairs))


def arrival_schedule(seed: int, seconds: float,
                     rate: float = SERVE_RATE_RPS
                     ) -> List[Tuple[float, str, int]]:
    """``(offset_s, model, feed index)`` per request: ``rate * seconds``
    requests, one at a seeded uniform point of each ``1 / rate`` slot.

    Every seed offers the same load.  Unlike Poisson arrivals, no three
    requests fall within one slot's length.  Poisson bursts made the p90
    swing by 19-36% (IQR over median) across ten seeds on a 2-core box;
    jittered slots gave 12%.
    """
    rng = random.Random(seed)
    n = max(1, round(rate * seconds))
    offsets = [(i + rng.random()) / rate for i in range(n)]
    models = rng.choices([m for m, _ in SERVE_MIX],
                         weights=[w for _, w in SERVE_MIX], k=n)
    return [(t, m, rng.randrange(FEED_POOL)) for t, m in zip(offsets, models)]


# ----------------------------------------------------------------------
# Calls into the program's layers
# ----------------------------------------------------------------------
class Layers:
    """The benchmark's calls into the program, each a span when tracing.

    A traced compile wraps the compiler's public phases on the instance,
    so the spans nest the way the calls do: ``pimflow.build_plan`` >
    ``pimflow.compile`` > ``transform.prepare`` / ``search.profile`` >
    ``engine.simulate`` / ``search.solve``.  The self time of
    ``pimflow.compile`` is decision application, validation and
    placement; that of ``pimflow.build_plan`` is buffer planning and
    plan packaging.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def build(self, graph, model: str, mechanism: str):
        compiler = Compiler(PimFlowConfig(mechanism=mechanism))
        tr = self.tracer
        if tr.enabled:
            compiler.prepare = tr.wrap(compiler.prepare, "transform.prepare")
            compiler.profile = tr.wrap(compiler.profile, "search.profile")
            compiler.solve = tr.wrap(compiler.solve, "search.solve")
            compiler.compile = tr.wrap(compiler.compile, "pimflow.compile")
            compiler.engine.run = tr.wrap(compiler.engine.run,
                                          "engine.simulate")
        with tr.span("pimflow.build_plan", model=model,
                     mechanism=mechanism) as args:
            plan = compiler.build_plan(graph, model_name=model)
            args["profile_requests"] = \
                compiler.last_profile_summary.get("requests", 0)
            args["simulator_runs"] = compiler.engine.run_count
        return plan

    def schedule(self, plan):
        with self.tracer.span("engine.schedule"):
            return PlanExecutor(plan).run()

    def bind(self, executor: PlanExecutor, feeds):
        """First inference of a fresh executor: binds the executable."""
        with self.tracer.span("compiled.bind"):
            return executor.infer(feeds)

    def oracle(self, graph, feeds):
        with self.tracer.span("numerical.oracle"):
            return execute(graph, feeds)

    def host_profile(self, executor: PlanExecutor, graph, feeds,
                     host: Dict[str, float]) -> None:
        """Per-kind step times, bound arena and copy tax of one plan,
        added into ``host``."""
        exe = executor.engine.executable(graph)
        with self.tracer.span("compiled.step_profile"):
            kinds = exe.step_profile(feeds, rounds=3)
        for kind, entry in kinds.items():
            _add(host, f"compiled.step_ms.{kind}", entry["ms"])
            _add(host, f"compiled.steps.{kind}", entry["steps"])
        stats = exe.buffer_plan(feeds).stats()
        _add(host, "bufferplan.arena_mb", stats["arena_bytes"] / 2**20)
        _add(host, "bufferplan.copies_elided", stats["copies_elided"])
        executor.infer(feeds, elide=False)  # bind the ablation outside timing
        on: List[float] = []
        off: List[float] = []
        for _ in range(COPY_TAX_ROUNDS):
            for elide, times in ((True, on), (False, off)):
                with self.tracer.span("compiled.run", elide=elide):
                    t0 = time.perf_counter()
                    executor.infer(feeds, elide=elide)
                    times.append(time.perf_counter() - t0)
        _add(host, "bufferplan.elide_on_ms", statistics.median(on) * 1e3)
        _add(host, "bufferplan.elide_off_ms", statistics.median(off) * 1e3)


def _add(acc: Dict[str, float], key: str, value: float) -> None:
    acc[key] = acc.get(key, 0.0) + value


def same_bytes(outputs: Dict[str, np.ndarray],
               reference: Dict[str, np.ndarray]) -> bool:
    return outputs.keys() == reference.keys() and all(
        outputs[k].dtype == reference[k].dtype
        and outputs[k].shape == reference[k].shape
        and outputs[k].tobytes() == reference[k].tobytes()
        for k in reference)


def percentile(values: List[float], q: float) -> float:
    """Linearly interpolated percentile; NaN when nothing completed."""
    return float(np.percentile(values, q)) if values else math.nan


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    """What the timed phase of one run produced."""

    latencies_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Completed units of work: builds, images or served requests.
    done: int = 0
    wall_s: float = 0.0
    errors: List[str] = field(default_factory=list)
    detail: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class Workload:
    """One workload: setup, check and measure (see module docstring)."""

    #: Top-level span whose compiles give the compile-layer metrics.
    build_unit = "setup"
    #: Top-level span whose bind spans give ``compiled.bind_ms``.
    bind_unit = "setup"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: ``"<model>.<mechanism>"`` -> (predicted us, decisions,
        #: makespan us, gpu busy us, pim busy us) of the compiled plan.
        self.summaries: Dict[str, tuple] = {}
        #: Reasons the run is not correct beyond failed operations.
        self.errors: List[str] = []
        self.host: Dict[str, float] = {}
        self.peak_in_use = 0

    def compile_model(self, layers: Layers, graph, model: str,
                      mechanisms=MECHANISMS) -> Dict[str, object]:
        """Compile and schedule ``model`` under each mechanism, checking
        that the modelled results repeat exactly."""
        plans = {}
        for mech in mechanisms:
            plans[mech] = plan = layers.build(graph, model, mech)
            self.note(f"{model}.{mech}", plan_summary(plan,
                                                      layers.schedule(plan)))
        return plans

    def note(self, key: str, summary: tuple) -> None:
        if self.summaries.setdefault(key, summary) != summary:
            self.errors.append(f"modelled result of {key} changed")

    def modelled(self) -> Dict[str, float]:
        out = {}
        for key, (predicted, _, makespan, gpu, pim) in self.summaries.items():
            out[f"predicted_us.{key}"] = predicted
            out[f"makespan_us.{key}"] = makespan
            out[f"gpu_busy_us.{key}"] = gpu
            out[f"pim_busy_us.{key}"] = pim
        return out

    def speedup(self) -> float:
        """Geometric mean over models of gpu / pimflow makespan."""
        logs = []
        for key, summary in self.summaries.items():
            model, mech = key.rsplit(".", 1)
            if mech == "pimflow":
                logs.append(math.log(self.summaries[f"{model}.gpu"][2]
                                     / summary[2]))
        return math.exp(sum(logs) / len(logs))

    def setup(self, layers: Layers) -> None:
        raise NotImplementedError

    def release(self) -> None:
        raise NotImplementedError

    def check(self, layers: Layers) -> None:
        raise NotImplementedError

    def measure(self, layers: Layers, seconds: float) -> Measurement:
        raise NotImplementedError


def plan_summary(plan, run) -> tuple:
    return (plan.predicted_time_us,
            json.dumps(plan.decisions, sort_keys=True),
            run.makespan_us, run.gpu_busy_us, run.pim_busy_us)


class CompileCnn5(Workload):
    """Rounds of cold ``build_plan`` calls, one fresh ``Compiler`` each,
    for the five Fig. 9 CNNs under ``gpu`` and ``pimflow``.

    Runs all of the compiler and simulator work and no host numerics in
    the timed phase.  A round's latency is the sum of its ten builds.
    Each build must reproduce the modelled result of the warm-up round
    exactly; the warm-up's ``pimflow`` plans are checked once against
    the oracle.
    """

    build_unit = "round"
    bind_unit = "check"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.orders = compile_orders(seed)
        self.graphs: Optional[Dict[str, object]] = None
        self.plans: Dict[str, object] = {}

    def round(self, layers: Layers, keep: bool = False
              ) -> List[Tuple[str, str, float, tuple]]:
        builds = []
        for model, mech in next(self.orders):
            t0 = time.perf_counter()
            plan = layers.build(self.graphs[model], model, mech)
            dt = time.perf_counter() - t0
            builds.append((model, mech, dt,
                           plan_summary(plan, layers.schedule(plan))))
            if keep and mech == "pimflow" and model in NUMERIC_CHECK:
                self.plans[model] = plan
        return builds

    def setup(self, layers: Layers) -> None:
        self.graphs = {m: build_model(m) for m in CNN5}
        with layers.tracer.span("warmup"):
            for model, mech, _, summary in self.round(layers, keep=True):
                self.note(f"{model}.{mech}", summary)

    def release(self) -> None:
        self.graphs = None
        self.plans = {}

    def check(self, layers: Layers) -> None:
        """Each checked ``pimflow`` plan must compute its source model's
        outputs (within the equivalence tolerance), and the compiled
        executor must match the oracle on the plan byte for byte."""
        if layers.tracer.enabled:
            for model in CNN5:
                self.compile_model(layers, self.graphs[model], model,
                                   TRACED_MECHANISMS)
        for salt, model in enumerate(NUMERIC_CHECK):
            plan = self.plans.pop(model)
            source = self.graphs[model]
            feeds = feed_pool(source, 1, self.seed, salt, size=1)[0]
            ref_source = layers.oracle(source, feeds)
            ref_plan = layers.oracle(plan.graph, feeds)
            executor = PlanExecutor(plan)
            out = layers.bind(executor, feeds)
            if not same_bytes(out, ref_plan):
                self.errors.append(f"{model}: compiled output differs "
                                   f"from the oracle")
            if not all(np.allclose(out[k], ref_source[k], rtol=EQUIV_TOL,
                                   atol=EQUIV_TOL) for k in ref_source):
                self.errors.append(f"{model}: pimflow plan differs from "
                                   f"the source model")
            self.peak_in_use = max(self.peak_in_use,
                                   executor.host_stats()["peak_in_use"])
            if layers.tracer.enabled:
                layers.host_profile(executor, plan.graph, feeds, self.host)
            del plan, executor

    def measure(self, layers: Layers, seconds: float) -> Measurement:
        m = Measurement()
        per_build: Dict[str, List[float]] = {}
        start = time.perf_counter()
        while True:
            with layers.tracer.span("round"):
                builds = self.round(layers)
            m.latencies_ms.append(sum(b[2] for b in builds) * 1e3)
            for model, mech, dt, summary in builds:
                m.attempted += 1
                per_build.setdefault(f"{model}.{mech}", []).append(dt * 1e3)
                if self.summaries[f"{model}.{mech}"] == summary:
                    m.done += 1
                else:
                    m.fail(f"{model}.{mech}: modelled result changed")
            if time.perf_counter() - start >= seconds:
                break
        m.wall_s = time.perf_counter() - start
        for key, times in per_build.items():
            m.detail[f"compile_ms.{key}"] = (statistics.median(times), "ms")
        return m


class InferWorkload(Workload):
    """A closed loop with one client running ``PlanExecutor.infer`` on
    the ``pimflow`` plan of one model, feeds rotating over a seeded
    pool.  Every output is byte-compared to the oracle after its timed
    call."""

    def __init__(self, seed: int, model: str, batch: int) -> None:
        super().__init__(seed)
        self.model = model
        self.batch = batch
        self.pool: Optional[List[Dict[str, np.ndarray]]] = None
        self.plan = None
        self.executor: Optional[PlanExecutor] = None
        self.reference: List[Dict[str, np.ndarray]] = []

    def setup(self, layers: Layers) -> None:
        graph = build_model(self.model)
        self.plan = self.compile_model(layers, graph, self.model)["pimflow"]
        self.executor = PlanExecutor(self.plan)
        if self.pool is None:
            self.pool = feed_pool(graph, self.batch, self.seed)
        layers.bind(self.executor, self.pool[0])
        for feeds in self.pool:
            self.executor.infer(feeds)

    def release(self) -> None:
        self.plan = self.executor = None

    def check(self, layers: Layers) -> None:
        self.reference = [layers.oracle(self.plan.graph, feeds)
                          for feeds in self.pool]
        if layers.tracer.enabled:
            layers.host_profile(self.executor, self.plan.graph, self.pool[0],
                                self.host)

    def measure(self, layers: Layers, seconds: float) -> Measurement:
        m = Measurement()
        start = time.perf_counter()
        i = 0
        while True:
            k = i % FEED_POOL
            error = None
            with layers.tracer.span("request", request_id=i):
                t0 = time.perf_counter()
                try:
                    out = self.executor.infer(self.pool[k])
                except Exception as exc:  # counted, and the loop goes on
                    out, error = None, f"request {i}: {exc!r}"
                dt = time.perf_counter() - t0
            m.attempted += 1
            if out is None:
                m.fail(error)
            elif not same_bytes(out, self.reference[k]):
                m.fail(f"request {i}: output differs from the oracle")
            else:
                m.latencies_ms.append(dt * 1e3)
                m.done += self.batch
            i += 1
            if time.perf_counter() - start >= seconds:
                break
        m.wall_s = time.perf_counter() - start
        self.peak_in_use = self.executor.host_stats()["peak_in_use"]
        m.detail["latency_p99_ms"] = (percentile(m.latencies_ms, 99), "ms")
        return m


class ServeMixOpen(Workload):
    """Open-loop arrivals from one generator thread into a
    two-worker ``InferenceServer`` over the ``pimflow`` plans of a 3:1
    mobilenet-v2 / shufflenet-v2 mix.  Latency runs from each request's
    due time to its completion."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pools: Dict[str, List[Dict[str, np.ndarray]]] = {}
        self.reference: Dict[str, List[Dict[str, np.ndarray]]] = {}
        self.server: Optional[InferenceServer] = None

    def setup(self, layers: Layers) -> None:
        repo = ModelRepository()
        for salt, (model, _) in enumerate(SERVE_MIX):
            graph = build_model(model)
            plans = self.compile_model(layers, graph, model)
            repo.register_plan(model, plans["pimflow"])
            if model not in self.pools:
                self.pools[model] = feed_pool(graph, 1, self.seed, salt)
            layers.bind(repo.get(model).executor, self.pools[model][0])
        self.server = InferenceServer(repo, ServerConfig(
            workers=SERVE_WORKERS, max_batch_size=SERVE_MAX_BATCH,
            max_wait_ms=5.0, queue_depth=64,
            default_deadline_ms=SERVE_DEADLINE_MS)).start()
        # Full micro-batches of both models, interleaved: the workers run
        # every pairing of models side by side, so each binds a state of
        # every model (and the allocators grow) before timing.
        handles = [self.server.submit(model, pool[i % FEED_POOL],
                                      deadline_ms=WARMUP_DEADLINE_MS)
                   for i in range(SERVE_WORKERS * SERVE_MAX_BATCH)
                   for model, pool in self.pools.items()]
        for handle in handles:
            handle.result(timeout=60.0)

    def release(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def check(self, layers: Layers) -> None:
        repo = self.server.repository
        for model, pool in self.pools.items():
            loaded = repo.get(model)
            self.reference[model] = [layers.oracle(loaded.graph, feeds)
                                     for feeds in pool]
            if layers.tracer.enabled:
                layers.host_profile(loaded.executor, loaded.graph, pool[0],
                                    self.host)

    def measure(self, layers: Layers, seconds: float) -> Measurement:
        m = Measurement()
        sent = []
        start = time.perf_counter()
        for offset, model, k in arrival_schedule(self.seed, seconds):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            submitted = time.perf_counter()
            try:
                handle, error = self.server.submit(model, self.pools[model][k]), None
            except ServeError as exc:
                handle, error = None, exc
            sent.append((due, submitted, model, k, handle, error))

        queue_ms: List[float] = []
        late_ms: List[float] = []
        good = rejected = expired = 0
        end = sent[-1][1]
        for i, (due, submitted, model, k, handle, error) in enumerate(sent):
            m.attempted += 1
            late_ms.append((submitted - due) * 1e3)
            response = None
            if handle is not None:
                try:
                    response = handle.result(timeout=60.0)
                except (ServeError, TimeoutError) as exc:
                    error = exc
            if response is None:
                rejected += getattr(error, "code", "") == "overloaded"
                expired += getattr(error, "code", "") == "deadline_exceeded"
                m.fail(f"request {i} ({model}): {error!r}")
                continue
            done = submitted + response.latency_ms / 1e3
            end = max(end, done)
            if not same_bytes(response.outputs, self.reference[model][k]):
                m.fail(f"request {i} ({model}): output differs from the oracle")
                continue
            latency = (done - due) * 1e3
            m.latencies_ms.append(latency)
            queue_ms.append(response.queue_ms)
            m.done += 1
            good += latency <= SERVE_LIMIT_MS
            if layers.tracer.enabled:
                started = submitted + response.queue_ms / 1e3
                tr = layers.tracer
                root = tr.add("request", due, done, request=response.request_id,
                              model=model, batch_size=response.batch_size)
                tr.add("loadgen.late", due, submitted, root)
                tr.add("serve.queue", submitted, started, root)
                tr.add("serve.execute", started, done, root)
        m.wall_s = end - start
        stats = self.server.stats()
        self.peak_in_use = stats["host"]["peak_in_use"]
        m.detail.update({
            "serve.latency_p99_ms": (percentile(m.latencies_ms, 99), "ms"),
            "serve.queue_ms_p50": (percentile(queue_ms, 50), "ms"),
            "serve.queue_ms_p99": (percentile(queue_ms, 99), "ms"),
            "serve.goodput_rps": (good / seconds, "1/s"),
            "serve.mean_batch": (stats["mean_batch_size"], "count"),
            "serve.host_ms_per_batch": (
                stats["host_exec_ms"] / max(1, stats["batches"]), "ms"),
            "serve.rejected": (rejected, "count"),
            "serve.expired": (expired, "count"),
            "loadgen.late_ms_p99": (percentile(late_ms, 99), "ms"),
            "hostpool.waits": (stats["host"]["waits"], "count"),
        })
        return m


WORKLOADS = {
    "compile-cnn5": CompileCnn5,
    "infer-mobilenet-b1": lambda seed: InferWorkload(seed, "mobilenet-v2", 1),
    "infer-resnet50-b4": lambda seed: InferWorkload(seed, "resnet-50", 4),
    "serve-mix-open": ServeMixOpen,
}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, tracer,
        import_s: float) -> Dict[str, object]:
    """Run one workload; returns the result part of the run record."""
    wl = WORKLOADS[name](seed)
    layers = Layers(tracer)
    setup_s: List[float] = []
    try:
        for _ in range(SETUPS):
            wl.release()
            gc.collect()
            t0 = time.perf_counter()
            with tracer.span("setup"):
                wl.setup(layers)
            setup_s.append(time.perf_counter() - t0)
        with tracer.span("check"):
            wl.check(layers)
        m = wl.measure(layers, seconds)
    finally:
        wl.release()

    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "latency_p50_ms": percentile(m.latencies_ms, 50),
        "latency_p90_ms": percentile(m.latencies_ms, 90),
        "throughput_per_s": m.done / m.wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "modelled_speedup": wl.speedup(),
    }
    detail = dict(m.detail)
    detail["latency_samples"] = (len(m.latencies_ms), "count")
    detail["process.import_s"] = (import_s, "s")
    per_layer: Dict[str, float] = {}
    if tracer.enabled:
        per_layer = layer_metrics(tracer, wl, import_s)
        for key, value in wl.host.items():
            detail[key] = (value, "ms" if "_ms" in key else "count")
        detail.update(model_detail(tracer))
        detail = {k: v for k, v in detail.items() if k not in per_layer}
    return {
        "correct": not wl.errors and m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "errors": wl.errors + m.errors,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "detail": detail,
        "modelled": wl.modelled(),
    }


def layer_metrics(tracer, wl: Workload, import_s: float) -> Dict[str, float]:
    """Per-layer metrics from the spans of a traced run.  Compile-layer
    times and counts are medians over ``wl.build_unit`` spans (timed
    rounds, or setups) of their per-unit totals."""
    builds = tracer.unit_totals(wl.build_unit)
    binds = tracer.unit_totals(wl.bind_unit)

    def med(units, key: str, scale: float = 1e3) -> float:
        return statistics.median(u.get(key, 0.0) for u in units) * scale

    host = wl.host
    gemm = host.get("compiled.step_ms.gemm", 0.0)
    return {
        "process.import_s": import_s,
        "transform.prepare_ms": med(builds, "transform.prepare"),
        "search.profile_ms": med(builds, "search.profile"),
        "engine.simulate_ms": med(builds, "engine.simulate"),
        "search.solve_ms": med(builds, "search.solve"),
        "transform.apply_ms": med(builds, "pimflow.compile:self"),
        "pimflow.build_self_ms": med(builds, "pimflow.build_plan:self"),
        "engine.schedule_ms": med(builds, "engine.schedule"),
        "search.profile_requests":
            med(builds, "pimflow.build_plan#profile_requests", 1),
        "engine.simulator_runs":
            med(builds, "pimflow.build_plan#simulator_runs", 1),
        "bufferplan.arena_mb": host["bufferplan.arena_mb"],
        "bufferplan.copies_elided": host["bufferplan.copies_elided"],
        "bufferplan.copy_tax":
            host["bufferplan.elide_off_ms"] / host["bufferplan.elide_on_ms"],
        "compiled.bind_ms": med(binds, "compiled.bind"),
        "compiled.gemm_ms": gemm,
        "compiled.nongemm_ms": sum(
            v for k, v in host.items()
            if k.startswith("compiled.step_ms.")) - gemm,
        "compiled.steps": sum(v for k, v in host.items()
                              if k.startswith("compiled.steps.")),
        "numerical.oracle_ms":
            statistics.median(tracer.durations("numerical.oracle")) * 1e3,
        "hostpool.peak_in_use": wl.peak_in_use,
    }


def model_detail(tracer) -> Dict[str, Tuple[float, str]]:
    """Median ``search.profile`` time per model over the traced
    ``pimflow`` compiles (span chain: build_plan > compile > profile)."""
    by_id = {s.id: s for s in tracer.spans}
    per_model: Dict[str, List[float]] = {}
    for s in tracer.spans:
        if s.name != "search.profile":
            continue
        build = by_id[by_id[s.parent].parent]
        if build.args["mechanism"] == "pimflow":
            per_model.setdefault(build.args["model"], []).append(s.seconds)
    return {f"search.profile_ms.{model}": (statistics.median(v) * 1e3, "ms")
            for model, v in per_model.items()}
