"""The inference server: worker pool over the batching queue.

Each worker loop pulls one micro-batch (single-model, size-or-deadline
coalesced), drops requests whose deadline passed while queued, then
executes the batch:

* **Host numerics** — every request runs individually through the
  model's :class:`~repro.runtime.executor.PlanExecutor` (one shared
  compiled executable per model, bound once; each call runs serially
  on its own pooled execution state).  Outputs are therefore
  *byte-identical* to a direct per-request ``PlanExecutor.infer`` call
  by construction: batching composes requests, it never changes
  numerics.
* **Device pricing** — the whole micro-batch is priced as one batch-B
  launch of the plan's schedule on the modelled PIM/GPU hardware
  (:class:`~repro.serve.pricing.BatchCostModel`).  This is where
  dynamic batching wins — per-sample kernels under-utilize the
  modelled GPU, and one batched launch amortizes launch/sync overhead
  and recovers SIMT utilization — and it is what the throughput
  metrics report.

Admission control is the queue's: full queue => typed ``Overloaded``
rejection at ``submit`` time, so accepted-request latency stays
bounded under overload (load-shedding, not unbounded queueing).
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Union

import numpy as np

from repro.serve.batching import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_WAIT_MS,
    DEFAULT_QUEUE_DEPTH,
    BatchingQueue,
)
from repro.serve.errors import (
    DeadlineExceeded,
    ServeError,
    ServerClosed,
    UnknownModel,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.repository import LoadedModel, ModelRepository
from repro.serve.request import (
    InferenceRequest,
    InferenceResponse,
    PendingResult,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`InferenceServer`."""

    workers: int = 2
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    max_batch_size: int = DEFAULT_MAX_BATCH_SIZE
    #: Linger (from the batch head's submission) for the batch to fill.
    max_wait_ms: float = DEFAULT_MAX_WAIT_MS
    #: Default per-request deadline; None = requests never expire.
    default_deadline_ms: Optional[float] = None
    #: Cap on pooled execution states per compiled program; this is
    #: what lets ``workers`` server threads run host numerics truly
    #: concurrently instead of serializing on one arena.  None = the
    #: runtime default (:data:`repro.runtime.hostpool.DEFAULT_MAX_STATES`).
    host_states: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.host_states is not None and self.host_states < 1:
            raise ValueError(
                f"host_states must be >= 1, got {self.host_states}")


class InferenceServer:
    """Dynamic-batching server over a :class:`ModelRepository`."""

    def __init__(self, repository: ModelRepository,
                 config: Optional[ServerConfig] = None,
                 metrics: Optional[ServerMetrics] = None) -> None:
        self.repository = repository
        self.config = config or ServerConfig()
        self.metrics = metrics or ServerMetrics()
        self.queue = BatchingQueue(
            queue_depth=self.config.queue_depth,
            max_batch_size=self.config.max_batch_size,
            max_wait_ms=self.config.max_wait_ms)
        self._threads: List[threading.Thread] = []
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InferenceServer":
        if self._started:
            return self
        self._started = True
        for i in range(self.config.workers):
            t = threading.Thread(target=self._worker_loop,
                                 name=f"serve-worker-{i}", daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def stop(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Close admission and stop workers.

        ``drain=True`` lets queued requests finish; ``drain=False``
        fails them with :class:`ServerClosed`.
        """
        if self._stopped:
            return
        self._stopped = True
        if not drain:
            # Fail whatever is queued before the workers can take it.
            self.queue.close()
            while True:
                batch = self.queue.next_batch(timeout_s=0)
                if not batch:
                    break
                for req in batch:
                    req.fail(ServerClosed())
                    self.metrics.record_failed()
        else:
            self.queue.close()
        for t in self._threads:
            t.join(timeout=timeout_s)
        self._threads = [t for t in self._threads if t.is_alive()]

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, model: str, feeds: Mapping[str, np.ndarray],
               deadline_ms: Optional[float] = None) -> PendingResult:
        """Admit one single-sample request; returns a completion handle.

        Raises typed errors synchronously when the request cannot be
        admitted: :class:`UnknownModel`, :class:`Overloaded`, or
        :class:`ServerClosed`.
        """
        if model not in self.repository:
            self.metrics.record_rejection("unknown_model")
            raise UnknownModel(model, self.repository.names())
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        request = InferenceRequest(model=model, feeds=feeds,
                                   deadline_ms=deadline_ms)
        try:
            depth = self.queue.submit(request)
        except ServeError as exc:
            self.metrics.record_rejection(exc.code)
            raise
        self.metrics.record_submitted(depth)
        return request.result

    def infer(self, model: str, feeds: Mapping[str, np.ndarray],
              deadline_ms: Optional[float] = None,
              timeout_s: Optional[float] = 60.0) -> InferenceResponse:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(model, feeds, deadline_ms).result(timeout_s)

    def stats(self) -> Dict[str, object]:
        """JSON-able snapshot: server metrics + repository state."""
        snap = self.metrics.snapshot(queue_depth=len(self.queue))
        snap["repository"] = self.repository.stats()
        snap["host"] = self.repository.host_stats()
        snap["config"] = {
            "workers": self.config.workers,
            "queue_depth": self.config.queue_depth,
            "max_batch_size": self.config.max_batch_size,
            "max_wait_ms": self.config.max_wait_ms,
            "host_states": self.config.host_states,
        }
        return snap

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self.queue.next_batch()
            if batch is None:
                return
            try:
                self._execute_batch(batch)
            except Exception as exc:  # worker must never die silently
                logger.exception("batch execution failed")
                self.metrics.record_failed(len(batch))
                for req in batch:
                    if not req.result.done():
                        req.fail(ServeError(f"batch execution failed: {exc}"))

    def _drop_expired(self, batch: List[InferenceRequest],
                      ) -> List[InferenceRequest]:
        now = time.perf_counter()
        live: List[InferenceRequest] = []
        for req in batch:
            if req.expired(now):
                req.fail(DeadlineExceeded(req.model, req.deadline_ms,
                                          req.waited_ms(now)))
                self.metrics.record_expired()
            else:
                live.append(req)
        return live

    def _execute_batch(self, batch: List[InferenceRequest]) -> None:
        batch = self._drop_expired(batch)
        if not batch:
            return
        model_name = batch[0].model
        loaded: LoadedModel = self.repository.get(model_name)
        size = len(batch)

        # One batched launch on the modelled hardware serves the whole
        # micro-batch; each request is billed its per-sample share.
        device_batch_us = loaded.cost.batch_makespan_us(size)
        device_us = device_batch_us / size

        start = time.perf_counter()
        outputs: List[Dict[str, np.ndarray]] = []
        self.metrics.record_host_begin()
        try:
            for req in batch:
                # Per-sample through the shared compiled executable: the
                # same call a direct client would make, hence
                # byte-identical results no matter how requests were
                # batched.  Each call runs serially on its own pooled
                # execution state, so workers executing different
                # batches proceed concurrently.
                outputs.append(loaded.executor.infer(
                    req.feeds, max_states=self.config.host_states))
        finally:
            self.metrics.record_host_end()
        host_ms = (time.perf_counter() - start) * 1e3

        self.metrics.record_batch(model_name, size, device_batch_us, host_ms)
        done = time.perf_counter()
        for req, outs in zip(batch, outputs):
            queue_ms = (start - req.submitted_at) * 1e3
            latency_ms = (done - req.submitted_at) * 1e3
            req.result.set_response(InferenceResponse(
                request_id=req.request_id,
                model=model_name,
                outputs=outs,
                batch_size=size,
                queue_ms=queue_ms,
                latency_ms=latency_ms,
                device_batch_us=device_batch_us,
                device_us=device_us))
            self.metrics.record_completed(model_name, latency_ms, queue_ms,
                                          device_us)


def serve_plans(plans: Dict[str, Union[str, object]],
                config: Optional[ServerConfig] = None) -> InferenceServer:
    """Build (but don't start) a server over named plans/paths."""
    repo = ModelRepository()
    for name, plan in plans.items():
        repo.register_plan(name, plan)
    return InferenceServer(repo, config=config)
