"""The bounded pool of execution states behind the compiled runtime.

:class:`StatePool` hands out per-run execution states.  The compiled
executable keeps one pool per bound program; N server workers then run
truly concurrently, each on its own arena, instead of serializing on a
single shared one.  Inside a run the steps execute serially on the
calling thread, and BLAS owns the cores inside each GEMM.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Generic, List, Optional, TypeVar

#: Bound states per compiled program when the caller does not say
#: otherwise.  Each state owns a full arena (tens of MB for
#: ImageNet-scale models), but states bind lazily — a serial caller
#: never pays for more than one.
DEFAULT_MAX_STATES = 4

T = TypeVar("T")


class StatePoolTimeout(RuntimeError):
    """Raised when ``StatePool.acquire`` times out with the pool
    exhausted — every bound state checked out and the cap reached."""


class StatePool(Generic[T]):
    """Bounded pool of lazily-built reusable objects.

    ``acquire`` hands out a free state, binds a new one while under
    ``cap``, and otherwise blocks until a concurrent run releases one
    (or ``timeout_s`` expires).  The factory runs outside the pool
    lock, so two cold acquires bind concurrently instead of
    serializing on each other's (expensive) arena allocation.
    """

    def __init__(self, factory: Callable[[], T], cap: int) -> None:
        if cap < 1:
            raise ValueError(f"state pool cap must be >= 1, got {cap}")
        self._factory = factory
        self.cap = cap
        self._cond = threading.Condition()
        self._free: List[T] = []
        self.created = 0
        self.in_use = 0
        self.peak_in_use = 0
        self.acquires = 0
        #: Times an acquire had to wait for a release (contention gauge).
        self.waits = 0

    def acquire(self, timeout_s: Optional[float] = None) -> T:
        deadline = None if timeout_s is None else (
            time.monotonic() + timeout_s)
        state: Optional[T] = None
        build = False
        with self._cond:
            while True:
                if self._free:
                    state = self._free.pop()
                    break
                if self.created < self.cap:
                    self.created += 1
                    build = True
                    break
                self.waits += 1
                remaining = None if deadline is None else (
                    deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    raise StatePoolTimeout(
                        f"no free execution state after {timeout_s}s "
                        f"({self.cap} bound, all in use)")
                if not self._cond.wait(remaining):
                    raise StatePoolTimeout(
                        f"no free execution state after {timeout_s}s "
                        f"({self.cap} bound, all in use)")
        if build:
            try:
                state = self._factory()
            except BaseException:
                with self._cond:
                    self.created -= 1
                    self._cond.notify()
                raise
        with self._cond:
            self.acquires += 1
            self.in_use += 1
            if self.in_use > self.peak_in_use:
                self.peak_in_use = self.in_use
        return state

    def release(self, state: T) -> None:
        with self._cond:
            self.in_use -= 1
            self._free.append(state)
            self._cond.notify()

    def stats(self) -> Dict[str, int]:
        with self._cond:
            return {
                "cap": self.cap,
                "states_bound": self.created,
                "in_use": self.in_use,
                "peak_in_use": self.peak_in_use,
                "acquires": self.acquires,
                "waits": self.waits,
            }
