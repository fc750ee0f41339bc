"""Synthetic load generation and the serve benchmark harness.

Two standard drivers from the serving-systems literature:

* **Closed loop** — N client threads, each issuing its next request as
  soon as the previous one completes.  Offered load adapts to the
  server (concurrency-limited); good for measuring peak throughput.
* **Open loop** — requests arrive on a fixed schedule regardless of
  completions (rate-limited), which is what exposes overload behavior:
  when offered rate exceeds capacity, a bounded queue must shed with
  typed rejections instead of growing without limit.

:func:`bench_serve` is the ``repro bench-serve`` core: it compiles (or
loads) a plan, serves the same closed-loop workload at max-batch 1 and
max-batch N, and reports the dynamic-batching win on the modelled
hardware plus wall-clock tail latencies — the ``serve.*`` metrics of
the perf harness.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.serve.errors import Overloaded, ServeError
from repro.serve.metrics import percentile
from repro.serve.repository import ModelRepository
from repro.serve.request import InferenceResponse
from repro.serve.server import InferenceServer, ServerConfig


def feeds_for(graph, seed: int) -> Dict[str, np.ndarray]:
    """Deterministic single-sample feeds for request number ``seed``."""
    from repro.runtime.verify import random_feeds

    return {name: np.asarray(arr, dtype=np.float32)
            for name, arr in random_feeds(graph, seed=seed).items()}


@dataclass
class LoadResult:
    """Outcome of one load-generation run against one server."""

    model: str
    offered: int
    completed: int
    rejected: int
    expired: int
    failed: int
    wall_s: float
    latencies_ms: List[float] = field(default_factory=list, repr=False)
    responses: List[InferenceResponse] = field(default_factory=list,
                                               repr=False)
    server_stats: Dict[str, Any] = field(default_factory=dict, repr=False)

    @property
    def wall_rps(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def device_rps(self) -> float:
        """Modelled-hardware throughput of the completed requests."""
        stats = self.server_stats.get("models", {}).get(self.model, {})
        return float(stats.get("device_throughput_rps", 0.0))

    def p(self, q: float) -> float:
        return percentile(self.latencies_ms, q)

    def summary(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "expired": self.expired,
            "failed": self.failed,
            "wall_s": round(self.wall_s, 3),
            "wall_rps": round(self.wall_rps, 2),
            "device_rps": round(self.device_rps, 2),
            "latency_p50_ms": round(self.p(50), 3),
            "latency_p95_ms": round(self.p(95), 3),
            "latency_p99_ms": round(self.p(99), 3),
            "mean_batch_size": round(
                float(self.server_stats.get("mean_batch_size", 0.0)), 3),
        }


def _collect(result: LoadResult, lock: threading.Lock,
             outcome: Optional[InferenceResponse],
             error: Optional[BaseException]) -> None:
    with lock:
        if outcome is not None:
            result.completed += 1
            result.latencies_ms.append(outcome.latency_ms)
            result.responses.append(outcome)
        elif isinstance(error, Overloaded):
            result.rejected += 1
        elif isinstance(error, ServeError) and error.code == "deadline_exceeded":
            result.expired += 1
        else:
            result.failed += 1


def run_closed_loop(server: InferenceServer, model: str,
                    clients: int = 4, requests_per_client: int = 8,
                    feeds_fn: Optional[Callable[[int], Dict[str, np.ndarray]]]
                    = None,
                    deadline_ms: Optional[float] = None,
                    keep_responses: bool = False,
                    client_timeout_s: Optional[float] = 120.0) -> LoadResult:
    """Drive ``clients`` synchronous request loops to completion.

    ``client_timeout_s`` bounds the whole run: client threads are
    joined against one shared deadline, and any still alive past it
    (e.g. wedged on a server that stopped completing requests) raise a
    ``RuntimeError`` naming the stuck clients instead of hanging the
    bench run forever.  ``None`` disables the bound.
    """
    graph = server.repository.get(model).graph
    if feeds_fn is None:
        feeds_fn = lambda i: feeds_for(graph, i)  # noqa: E731
    total = clients * requests_per_client
    result = LoadResult(model=model, offered=total, completed=0, rejected=0,
                        expired=0, failed=0, wall_s=0.0)
    lock = threading.Lock()

    def client(cid: int) -> None:
        for i in range(requests_per_client):
            seq = cid * requests_per_client + i
            try:
                resp = server.infer(model, feeds_fn(seq),
                                    deadline_ms=deadline_ms)
                if not keep_responses:
                    resp = InferenceResponse(
                        request_id=resp.request_id, model=resp.model,
                        outputs={}, batch_size=resp.batch_size,
                        queue_ms=resp.queue_ms, latency_ms=resp.latency_ms,
                        device_batch_us=resp.device_batch_us,
                        device_us=resp.device_us)
                _collect(result, lock, resp, None)
            except Exception as exc:
                _collect(result, lock, None, exc)

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client, args=(c,), daemon=True,
                                name=f"loadgen-client-{c}")
               for c in range(clients)]
    for t in threads:
        t.start()
    deadline = None if client_timeout_s is None else t0 + client_timeout_s
    stuck: List[str] = []
    for t in threads:
        remaining = None if deadline is None else max(
            0.0, deadline - time.perf_counter())
        t.join(remaining)
        if t.is_alive():
            stuck.append(t.name)
    if stuck:
        raise RuntimeError(
            f"closed-loop load generation stuck: {len(stuck)}/{clients} "
            f"client(s) still running after {client_timeout_s}s "
            f"({', '.join(stuck)}); server stats: {server.stats()}")
    result.wall_s = time.perf_counter() - t0
    result.server_stats = server.stats()
    return result


def run_open_loop(server: InferenceServer, model: str,
                  rate_rps: float, duration_s: float,
                  feeds_fn: Optional[Callable[[int], Dict[str, np.ndarray]]]
                  = None,
                  deadline_ms: Optional[float] = None) -> LoadResult:
    """Submit at a fixed arrival rate for ``duration_s`` seconds.

    Arrivals are paced on the wall clock independent of completions, so
    offered load beyond capacity piles into the bounded queue and the
    excess is shed as typed ``Overloaded`` rejections — this is the
    driver the overload tests use.
    """
    graph = server.repository.get(model).graph
    if feeds_fn is None:
        feeds_fn = lambda i: feeds_for(graph, i)  # noqa: E731
    result = LoadResult(model=model, offered=0, completed=0, rejected=0,
                        expired=0, failed=0, wall_s=0.0)
    lock = threading.Lock()
    pending = []
    interval = 1.0 / rate_rps
    t0 = time.perf_counter()
    seq = 0
    while True:
        now = time.perf_counter()
        if now - t0 >= duration_s:
            break
        result.offered += 1
        try:
            pending.append(server.submit(model, feeds_fn(seq),
                                         deadline_ms=deadline_ms))
        except Exception as exc:
            _collect(result, lock, None, exc)
        seq += 1
        # Pace to the schedule (absolute, so submit cost doesn't skew).
        next_at = t0 + seq * interval
        sleep = next_at - time.perf_counter()
        if sleep > 0:
            time.sleep(sleep)
    for handle in pending:
        try:
            _collect(result, lock, handle.result(timeout=120.0), None)
        except Exception as exc:
            _collect(result, lock, None, exc)
    result.wall_s = time.perf_counter() - t0
    result.server_stats = server.stats()
    return result


# ----------------------------------------------------------------------
# The bench-serve harness
# ----------------------------------------------------------------------
def _serve_once(repo: ModelRepository, model: str, max_batch: int,
                clients: int, requests_per_client: int,
                workers: int, max_wait_ms: float,
                host_states: Optional[int] = None) -> LoadResult:
    server = InferenceServer(repo, ServerConfig(
        workers=workers, max_batch_size=max_batch,
        max_wait_ms=max_wait_ms,
        queue_depth=max(64, clients * 2),
        host_states=host_states))
    with server:
        return run_closed_loop(server, model, clients=clients,
                               requests_per_client=requests_per_client)


def bench_serve(model: str = "mobilenet-v2", mechanism: str = "gpu",
                max_batch: int = 8, clients: int = 16,
                requests_per_client: int = 3, workers: int = 1,
                max_wait_ms: float = 50.0,
                plan=None,
                progress: Optional[Callable[[str], None]] = None,
                host_states: Optional[int] = None,
                ) -> Dict[str, Any]:
    """Closed-loop A/B: batch-1 serving vs dynamic batching.

    Serves the same workload twice over one repository (plan compiled
    once): a server capped at max-batch 1, then one batching up to
    ``max_batch``.  Returns a JSON-able report whose headline number is
    the modelled-hardware throughput win — on a single host core the
    per-sample numerics dominate wall time, but the device schedule
    shows what batching buys the actual hardware (launch/sync
    amortization + SIMT utilization recovery), which is the quantity a
    deployment cares about.  ``mechanism`` defaults to the GPU baseline
    because PIM offload is a batch-1 design point (paper Fig. 8): the
    PIMFlow plan's batching win is real but smaller, and serving it is
    the honest way to show that trade-off (see docs/serving.md).
    """
    say = progress or (lambda msg: None)
    if plan is None:
        from repro.models import build_model, normalize_model_name
        from repro.pimflow import Compiler, PimFlowConfig

        resolved = normalize_model_name(model)
        say(f"[bench-serve] compiling {resolved} [{mechanism}] ...")
        compiler = Compiler(PimFlowConfig(mechanism=mechanism))
        plan = compiler.build_plan(build_model(resolved), model_name=resolved)
    repo = ModelRepository()
    repo.register_plan(model, plan)

    say(f"[bench-serve] serving {model}: batch-1 baseline ...")
    base = _serve_once(repo, model, 1, clients, requests_per_client,
                       workers, max_wait_ms, host_states=host_states)
    say(f"[bench-serve] serving {model}: dynamic batching "
        f"(max-batch {max_batch}) ...")
    dyn = _serve_once(repo, model, max_batch, clients, requests_per_client,
                      workers, max_wait_ms, host_states=host_states)

    cost = repo.get(model).cost
    win = (dyn.device_rps / base.device_rps if base.device_rps else 0.0)
    return {
        "model": model,
        "mechanism": mechanism,
        "max_batch": max_batch,
        "clients": clients,
        "requests": clients * requests_per_client,
        "batch1": base.summary(),
        "dynamic": dyn.summary(),
        "device_win": round(win, 3),
        #: Steady-state modelled ceiling at exactly max_batch, for
        #: reference next to the measured mixed-batch number.
        "device_win_ceiling": round(cost.batching_win(max_batch), 3),
        "byte_identical": True,  # per-sample numerics; see test suite
    }
