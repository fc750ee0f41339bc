"""Concurrency tests for the content-addressed profile cache.

One cache directory may have several writers: threads of one process
(the serving layer compiles models lazily from its worker threads,
each compiler with its own cache on the same directory) and separate
processes.  These tests pin down that contract: concurrent lookups
against a live writer never observe torn entries, concurrent stores
of the same key never fail and leave a whole entry, and repeated
stores are idempotent.
"""

import sys
import threading

from repro.models import build_model
from repro.pimflow import PimFlow, PimFlowConfig
from repro.plan.cache import ProfileCache
from repro.search.table import RegionMeasurement


def _entry(name, time_us):
    return [RegionMeasurement(name, 1, "gpu", time_us).to_dict()]


class TestConcurrentReaders:
    def test_readers_never_see_torn_entries(self, tmp_path):
        """Lookups racing a writer return either None or a complete,
        well-formed entry — never a partial write (atomic replace)."""
        cache = ProfileCache(tmp_path)
        fps = [f"fp{i}" for i in range(24)]
        stop = threading.Event()
        errors = []

        def writer():
            # Rewrite every entry repeatedly; payload encodes its key
            # so readers can check integrity.
            for round_no in range(30):
                for i, fp in enumerate(fps):
                    cache.store("cfg", fp, _entry(f"n{i}", float(i)))
            stop.set()

        def reader():
            try:
                while not stop.is_set():
                    for i, fp in enumerate(fps):
                        got = cache.lookup("cfg", fp)
                        if got is None:
                            continue
                        assert got[0]["start"] == f"n{i}", (
                            f"torn read for {fp}: {got}")
                        assert got[0]["time_us"] == float(i)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        w = threading.Thread(target=writer)
        for t in readers:
            t.start()
        w.start()
        w.join()
        for t in readers:
            t.join()
        assert not errors
        assert cache.num_entries == len(fps)

    def test_threads_storing_one_key_never_collide(self, tmp_path):
        """Threads storing the same fingerprint each write their own
        temp file; no store raises and the entry reads back whole."""
        cache = ProfileCache(tmp_path)
        errors = []
        start = threading.Barrier(4)

        def writer(idx):
            start.wait()
            try:
                for _ in range(300):
                    cache.store("cfg", "samefp", _entry(f"n{idx}", 1.0))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        got = cache.lookup("cfg", "samefp")
        assert got is not None and len(got) == 1
        assert got[0]["start"] in {f"n{i}" for i in range(4)}
        assert got[0]["time_us"] == 1.0
        assert cache.num_entries == 1
        assert not list(tmp_path.glob("objects/*/*.tmp"))

    def test_concurrent_lookup_stats_are_conserved(self, tmp_path):
        """Hit/miss counters under pure concurrent reads add up."""
        cache = ProfileCache(tmp_path)
        cache.store("cfg", "hot", _entry("n", 1.0))
        per_thread = 50
        threads = 6

        def reader():
            for _ in range(per_thread):
                assert cache.lookup("cfg", "hot") is not None
                assert cache.lookup("cfg", "cold") is None

        ts = [threading.Thread(target=reader) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        stats = cache.stats()
        assert stats["hits"] == threads * per_thread
        assert stats["misses"] == threads * per_thread
        assert stats["entries"] == 1


class TestSingleWriterMerge:
    def test_repeated_merge_is_idempotent(self, tmp_path):
        """Merging the same results twice (e.g. two profiling rounds
        over one model) leaves one entry per fingerprint."""
        cache = ProfileCache(tmp_path)
        for _ in range(2):
            for i in range(8):
                cache.store("cfg", f"fp{i}", _entry(f"n{i}", float(i)))
        assert cache.num_entries == 8
        for i in range(8):
            assert cache.lookup("cfg", f"fp{i}")[0]["time_us"] == float(i)

    def test_last_merge_wins_per_fingerprint(self, tmp_path):
        cache = ProfileCache(tmp_path)
        cache.store("cfg", "fp", _entry("n", 1.0))
        cache.store("cfg", "fp", _entry("n", 2.0))
        assert cache.num_entries == 1
        assert cache.lookup("cfg", "fp")[0]["time_us"] == 2.0

    def test_parallel_compile_threads_share_one_disk_cache(self, tmp_path):
        """Serving's compile-on-first-request from several threads: all
        threads profile through one cache directory and the second wave
        is served entirely from cache (zero extra simulator runs)."""
        model = build_model("toy")

        def compile_once(results, idx):
            flow = PimFlow(PimFlowConfig(mechanism="pimflow",
                                         cache_dir=tmp_path))
            flow.build_plan(model.clone(), model_name="toy")
            results[idx] = flow.cache.stats()

        # Wave 1: populate (single writer — one thread compiles first).
        first = [None]
        compile_once(first, 0)
        entries = first[0]["entries"]
        assert entries > 0

        # Wave 2: concurrent compiles, all reads.
        results = [None] * 3
        threads = [threading.Thread(target=compile_once, args=(results, i))
                   for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for stats in results:
            assert stats["entries"] == entries  # nothing re-profiled
            assert stats["misses"] == 0
            assert stats["hits"] > 0
