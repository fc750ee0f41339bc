"""Dynamic micro-batching over a bounded admission queue.

The queue is the server's single point of backpressure and batch
formation:

* **Admission** — ``submit`` is non-blocking; when the bounded queue
  is full the request is shed immediately with a typed
  :class:`~repro.serve.errors.Overloaded` instead of joining an
  unbounded line.  Shedding at the door is what keeps the latency of
  *accepted* requests bounded under sustained overload.
* **Batch formation** — ``next_batch`` (called by worker threads)
  takes the oldest request as the batch *head* and coalesces
  same-model requests behind it, up to ``max_batch_size``.  If the
  head alone cannot fill the batch, the worker waits up to
  ``max_wait_ms`` (measured from the head's submission) for more
  arrivals — the classic size-or-deadline micro-batching policy.  A
  batch leaves early only once it is full, so under light load nearly
  every request waits the whole window: ``max_wait_ms`` is added
  latency when idle, not near zero.  Under load the window fills
  batches instead.

Requests for *other* models stay queued in FIFO order; a batch only
ever mixes requests of one model, because they execute as one stacked
launch of one compiled plan.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, List, Optional

from repro.serve.errors import Overloaded, ServerClosed
from repro.serve.request import InferenceRequest

DEFAULT_QUEUE_DEPTH = 64
DEFAULT_MAX_BATCH_SIZE = 8
DEFAULT_MAX_WAIT_MS = 2.0


class BatchingQueue:
    """Bounded FIFO with model-affine micro-batch extraction."""

    def __init__(self, queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
                 max_wait_ms: float = DEFAULT_MAX_WAIT_MS) -> None:
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}")
        self.queue_depth = queue_depth
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._pending: Deque[InferenceRequest] = deque()
        self._closed = False

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest) -> int:
        """Admit one request; returns the queue depth after admission.

        Raises :class:`Overloaded` when the queue is full and
        :class:`ServerClosed` after :meth:`close`.
        """
        with self._not_empty:
            if self._closed:
                raise ServerClosed()
            if len(self._pending) >= self.queue_depth:
                raise Overloaded(request.model, self.queue_depth)
            self._pending.append(request)
            self._not_empty.notify()
            return len(self._pending)

    def close(self) -> None:
        """Stop admitting; queued requests still drain via next_batch."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    # ------------------------------------------------------------------
    # Consumer side (worker threads)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def _take_batch_locked(self) -> List[InferenceRequest]:
        """Pop the head and every same-model request after it (up to
        ``max_batch_size``), preserving FIFO order of the rest."""
        head = self._pending.popleft()
        batch = [head]
        if len(batch) < self.max_batch_size:
            keep: List[InferenceRequest] = []
            while self._pending and len(batch) < self.max_batch_size:
                req = self._pending.popleft()
                if req.model == head.model:
                    batch.append(req)
                else:
                    keep.append(req)
            # Put skipped (other-model) requests back at the front in
            # their original order.
            for req in reversed(keep):
                self._pending.appendleft(req)
        return batch

    def _coalescable(self, model: str) -> int:
        """How many queued requests could join a batch for ``model``."""
        return sum(1 for r in self._pending if r.model == model)

    def next_batch(self, timeout_s: Optional[float] = None,
                   ) -> Optional[List[InferenceRequest]]:
        """Block for the next micro-batch.

        Returns None when ``timeout_s`` elapses with an empty queue, or
        when the queue is closed and fully drained — the worker's
        signal to exit.
        """
        deadline = (time.perf_counter() + timeout_s
                    if timeout_s is not None else None)
        with self._not_empty:
            while True:
                while not self._pending:
                    if self._closed:
                        return None
                    if deadline is not None:
                        remaining = deadline - time.perf_counter()
                        if remaining <= 0:
                            return None
                        self._not_empty.wait(remaining)
                    else:
                        self._not_empty.wait()

                head = self._pending[0]
                # Size-or-deadline: linger (from the head's submission)
                # for the batch to fill, under the lock's condition
                # variable so arrivals wake us immediately.
                raced = False
                if self.max_wait_ms > 0 and self.max_batch_size > 1:
                    batch_deadline = (head.submitted_at
                                      + self.max_wait_ms / 1e3)
                    while (self._coalescable(head.model)
                           < self.max_batch_size and not self._closed):
                        remaining = batch_deadline - time.perf_counter()
                        if remaining <= 0:
                            break
                        self._not_empty.wait(remaining)
                        if not self._pending or self._pending[0] is not head:
                            # Another worker raced us to the head;
                            # restart with whatever is queued now.
                            raced = True
                            break
                if raced or not self._pending:
                    continue
                return self._take_batch_locked()
