"""Concurrency stress suite for the pooled host runtime.

The concurrent runtime's contract is the same as the serial compiled
path's: *byte identity* with the interpreted oracle under M threads
hammering one shared executable, each run on a pooled private state.
Any interleaving that changes a single output byte is a shared-state
leak, never acceptable noise.

Also covers the :class:`~repro.runtime.hostpool.StatePool` primitive
directly (lazy binding, reuse, exhaustion/timeout, factory rollback),
a kernel that raises mid-run (direct and through the server), and the
server-side concurrency gauges.
"""

import threading

import numpy as np
import pytest

from repro.models import build_model
from repro.runtime.compiled import CompiledExecutable
from repro.runtime.hostpool import StatePool, StatePoolTimeout
from repro.runtime.numerical import execute
from repro.runtime.verify import random_feeds

STRESS_MODELS = ("toy", "mobilenet-v2", "shufflenet-v2")


def _stress(exe, graph, *, threads, runs_each, batch=1, seeds=(0, 1)):
    """M threads x K runs against one shared executable vs the oracle."""
    cases = {}
    for seed in seeds:
        feeds = random_feeds(graph, seed=seed, batch=batch)
        cases[seed] = (feeds, execute(graph, feeds))
    failures = []
    barrier = threading.Barrier(threads)

    def worker(tid):
        try:
            barrier.wait(timeout=60)
            for k in range(runs_each):
                seed = (tid + k) % len(seeds)
                feeds, ref = cases[seed]
                out = exe.run(feeds)
                for name in ref:
                    if ref[name].tobytes() != out[name].tobytes():
                        failures.append(
                            f"thread {tid} run {k} seed {seed}: "
                            f"{name} diverged from the oracle")
        except Exception as exc:  # pragma: no cover - failure path
            failures.append(f"thread {tid}: {type(exc).__name__}: {exc}")

    ts = [threading.Thread(target=worker, args=(i,), daemon=True)
          for i in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join(timeout=300)
        assert not t.is_alive(), "stress worker wedged"
    assert not failures, "\n".join(failures)


class TestPooledByteIdentity:
    """Threads share one executable; each run gets a pooled state."""

    @pytest.mark.parametrize("model", STRESS_MODELS)
    def test_threaded_infer_matches_serial_oracle(self, model):
        graph = build_model(model)
        exe = CompiledExecutable(graph, max_states=4)
        _stress(exe, graph, threads=4, runs_each=3)
        stats = exe.pool_stats()
        assert stats["acquires"] == 4 * 3
        assert stats["in_use"] == 0, "a run leaked its state"
        assert 1 <= stats["states_bound"] <= 4

    def test_pool_binds_lazily_for_serial_callers(self):
        graph = build_model("toy")
        exe = CompiledExecutable(graph, max_states=4)
        feeds = random_feeds(graph, seed=0)
        for _ in range(5):
            exe.run(feeds)
        assert exe.pool_stats()["states_bound"] == 1

    def test_mixed_batch_shapes_under_threads(self):
        # Distinct input shapes bind distinct programs (own pools);
        # concurrent callers across shapes must not cross-contaminate.
        graph = build_model("toy")
        exe = CompiledExecutable(graph, max_states=2)
        refs = {}
        for batch in (1, 8):
            feeds = random_feeds(graph, seed=0, batch=batch)
            refs[batch] = (feeds, execute(graph, feeds))
        failures = []

        def worker(batch):
            feeds, ref = refs[batch]
            for _ in range(4):
                out = exe.run(feeds)
                for name in ref:
                    if ref[name].tobytes() != out[name].tobytes():
                        failures.append(f"batch {batch}: {name} diverged")

        ts = [threading.Thread(target=worker, args=(b,), daemon=True)
              for b in (1, 8, 1, 8)]
        for t in ts:
            t.start()
        for t in ts:
            t.join(timeout=300)
        assert not failures, "\n".join(failures)
        assert exe.pool_stats()["programs"] == 2


class TestStateScratch:
    def test_scratch_is_per_state_not_per_thread(self):
        # Two threads take turns on the single pooled state: the state
        # keeps one set of scratch buffers, whichever thread runs it.
        graph = build_model("mobilenet-v2")
        exe = CompiledExecutable(graph, max_states=1)
        feeds = random_feeds(graph, seed=0)
        ref = execute(graph, feeds)
        seen = []

        def run_once():
            out = exe.run(feeds)
            assert all(ref[k].tobytes() == out[k].tobytes() for k in ref)
            _, pool = exe._pool_for(feeds)
            state = pool.acquire()
            try:
                seen.append((state._scratch.a, state._scratch.b))
            finally:
                pool.release(state)

        for _ in range(2):
            t = threading.Thread(target=run_once)
            t.start()
            t.join(timeout=120)
            assert not t.is_alive()
        assert len(seen) == 2
        (a1, b1), (a2, b2) = seen
        assert b1 is not None, "mobilenet's depthwise bands use scratch b"
        assert a1 is a2 and b1 is b2


def _fail_one_step_once(exe, feeds):
    """Wrap one bound step of ``exe``'s (single) pooled state so that
    its next call raises; later calls run the original step."""
    _, pool = exe._pool_for(
        {n: np.asarray(f, dtype=np.float32) for n, f in feeds.items()})
    state = pool.acquire()
    try:
        idx = len(state._steps) // 2
        original = state._steps[idx]
        fired = []

        def flaky():
            if not fired:
                fired.append(True)
                raise RuntimeError("injected kernel fault")
            original()
        state._steps[idx] = flaky
    finally:
        pool.release(state)
    return fired


class TestKernelFailure:
    def test_error_surfaces_and_state_returns(self):
        graph = build_model("toy")
        exe = CompiledExecutable(graph, max_states=1)
        feeds = random_feeds(graph, seed=0)
        ref = execute(graph, feeds)
        exe.run(feeds)  # bind the single state
        fired = _fail_one_step_once(exe, feeds)
        with pytest.raises(RuntimeError, match="injected kernel fault"):
            exe.run(feeds)
        assert fired
        assert exe.pool_stats()["in_use"] == 0, "the failed run leaked"
        out = exe.run(feeds)
        for name in ref:
            assert ref[name].tobytes() == out[name].tobytes()

    def test_server_fails_the_request_and_recovers(self):
        from repro.pimflow import Compiler, PimFlowConfig
        from repro.serve import InferenceServer, ModelRepository, ServerConfig
        from repro.serve.errors import ServeError

        plan = Compiler(PimFlowConfig(mechanism="gpu")).build_plan(
            build_model("toy"), model_name="toy")
        repo = ModelRepository()
        repo.register_plan("toy", plan)
        config = ServerConfig(workers=1, max_batch_size=1, max_wait_ms=0.0,
                              host_states=1)
        feeds = random_feeds(plan.graph, seed=0)
        ref = execute(plan.graph, feeds)
        executor = repo.get("toy").executor
        exe = executor.engine.executable(executor.plan.graph,
                                         max_states=config.host_states)
        exe.run(feeds)  # bind the state the server will use
        fired = _fail_one_step_once(exe, feeds)
        with InferenceServer(repo, config) as server:
            with pytest.raises(ServeError, match="injected kernel fault"):
                server.infer("toy", feeds, timeout_s=60.0)
            assert fired
            assert server.stats()["failed"] == 1
            response = server.infer("toy", feeds, timeout_s=60.0)
            snap = server.stats()
        for name in ref:
            assert ref[name].tobytes() == response.outputs[name].tobytes()
        assert snap["failed"] == 1
        assert snap["host"]["in_use"] == 0


class TestStatePool:
    def test_cap_validation(self):
        with pytest.raises(ValueError):
            StatePool(list, cap=0)

    def test_lazy_bind_and_reuse(self):
        built = []
        pool = StatePool(lambda: built.append(1) or object(), cap=3)
        s = pool.acquire()
        pool.release(s)
        t = pool.acquire()
        assert t is s, "free state must be reused, not rebuilt"
        pool.release(t)
        assert len(built) == 1
        assert pool.stats() == {
            "cap": 3, "states_bound": 1, "in_use": 0, "peak_in_use": 1,
            "acquires": 2, "waits": 0}

    def test_exhaustion_times_out(self):
        pool = StatePool(object, cap=1)
        held = pool.acquire()
        with pytest.raises(StatePoolTimeout):
            pool.acquire(timeout_s=0.05)
        assert pool.stats()["waits"] >= 1
        pool.release(held)
        again = pool.acquire(timeout_s=0.05)  # release unblocks
        assert again is held

    def test_release_wakes_blocked_acquirer(self):
        pool = StatePool(object, cap=1)
        held = pool.acquire()
        got = []

        def blocked():
            got.append(pool.acquire(timeout_s=10.0))

        t = threading.Thread(target=blocked, daemon=True)
        t.start()
        # Give the waiter time to block, then hand the state over.
        deadline = threading.Event()
        deadline.wait(0.05)
        pool.release(held)
        t.join(timeout=10)
        assert not t.is_alive()
        assert got == [held]

    def test_factory_failure_rolls_back_slot(self):
        calls = []

        def factory():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("bind failed")
            return object()

        pool = StatePool(factory, cap=1)
        with pytest.raises(RuntimeError, match="bind failed"):
            pool.acquire()
        # The failed bind must not burn the slot forever.
        state = pool.acquire(timeout_s=1.0)
        assert state is not None
        assert pool.stats()["states_bound"] == 1

    def test_executable_surfaces_pool_timeout(self):
        graph = build_model("toy")
        exe = CompiledExecutable(graph, max_states=1)
        feeds = random_feeds(graph, seed=0)
        exe.run(feeds)  # bind the single state
        _, pool = exe._pool_for(
            {n: np.asarray(feeds[n], dtype=np.float32)
             for n in graph.inputs})
        held = pool.acquire()  # starve the pool
        try:
            with pytest.raises(StatePoolTimeout):
                exe.run(feeds, state_timeout_s=0.05)
        finally:
            pool.release(held)
        out = exe.run(feeds)  # recovers once the state returns
        ref = execute(graph, feeds)
        for name in ref:
            assert ref[name].tobytes() == out[name].tobytes()


class TestServerConcurrencyGauges:
    def test_server_reports_host_concurrency(self):
        from repro.pimflow import Compiler, PimFlowConfig
        from repro.serve import InferenceServer, ModelRepository, ServerConfig
        from repro.serve.loadgen import run_closed_loop

        plan = Compiler(PimFlowConfig(mechanism="gpu")).build_plan(
            build_model("toy"), model_name="toy")
        repo = ModelRepository()
        repo.register_plan("toy", plan)
        server = InferenceServer(repo, ServerConfig(
            workers=4, max_batch_size=1, max_wait_ms=0.0,
            queue_depth=64, host_states=4))
        with server:
            result = run_closed_loop(server, "toy", clients=4,
                                     requests_per_client=4)
            snap = server.stats()
        assert result.completed == 16
        assert result.failed == 0
        metrics = snap["metrics"] if "metrics" in snap else snap
        assert metrics["host_inflight"] == 0
        assert metrics["host_inflight_peak"] >= 1
        host = snap["host"]
        assert host["models"] == 1
        assert host["in_use"] == 0
        assert 1 <= host["peak_in_use"] <= 4
        assert host["acquires"] >= 16

    def test_host_states_validation(self):
        from repro.serve.server import ServerConfig

        with pytest.raises(ValueError):
            ServerConfig(host_states=0)
