"""Tests for the content-addressed profile cache."""

import json

import pytest

from repro.models import build_model
from repro.pimflow import PimFlow, PimFlowConfig
from repro.plan.cache import MemoryProfileCache, ProfileCache
from repro.search.table import RegionMeasurement


def _entry(name="c0", time_us=3.0):
    return [RegionMeasurement(name, 1, "gpu", time_us).to_dict()]


class TestProfileCacheUnit:
    def test_miss_then_hit(self, tmp_path):
        cache = ProfileCache(tmp_path)
        assert cache.lookup("cfg", "fp") is None
        cache.store("cfg", "fp", _entry())
        got = cache.lookup("cfg", "fp")
        assert got == _entry()
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1,
                                 "hit_rate": 0.5}

    def test_empty_entry_is_a_valid_hit(self, tmp_path):
        """Negative results (e.g. unsplittable chains) are cacheable."""
        cache = ProfileCache(tmp_path)
        cache.store("cfg", "fp", [])
        assert cache.lookup("cfg", "fp") == []
        assert cache.stats()["hits"] == 1

    def test_namespaced_by_config(self, tmp_path):
        cache = ProfileCache(tmp_path)
        cache.store("cfg-a", "fp", _entry(time_us=1.0))
        cache.store("cfg-b", "fp", _entry(time_us=2.0))
        assert cache.lookup("cfg-a", "fp")[0]["time_us"] == 1.0
        assert cache.lookup("cfg-b", "fp")[0]["time_us"] == 2.0
        assert cache.num_entries == 2

    def test_invalidate_one_config(self, tmp_path):
        cache = ProfileCache(tmp_path)
        cache.store("cfg-a", "fp1", _entry())
        cache.store("cfg-a", "fp2", _entry())
        cache.store("cfg-b", "fp1", _entry())
        assert cache.invalidate(config_fingerprint="cfg-a") == 2
        assert cache.num_entries == 1
        assert cache.lookup("cfg-a", "fp1") is None
        assert cache.lookup("cfg-b", "fp1") is not None

    def test_invalidate_everything(self, tmp_path):
        cache = ProfileCache(tmp_path)
        cache.store("cfg-a", "fp", _entry())
        cache.store("cfg-b", "fp", _entry())
        assert cache.invalidate() == 2
        assert cache.num_entries == 0

    def test_corrupt_entry_treated_as_miss_and_removed(self, tmp_path):
        cache = ProfileCache(tmp_path)
        cache.store("cfg", "fp", _entry())
        (entry,) = (tmp_path / "objects").glob("*/*.json")
        entry.write_text("{not json")
        assert cache.lookup("cfg", "fp") is None
        assert not entry.exists()

    def test_persists_across_instances(self, tmp_path):
        ProfileCache(tmp_path).store("cfg", "fp", _entry())
        assert ProfileCache(tmp_path).lookup("cfg", "fp") == _entry()

    def test_record_and_read_last_run(self, tmp_path):
        cache = ProfileCache(tmp_path)
        cache.lookup("cfg", "fp")
        cache.store("cfg", "fp", _entry())
        cache.record_run("cfg")
        last = ProfileCache(tmp_path).last_run()
        assert last["config_fingerprint"] == "cfg"
        assert last["misses"] == 1 and last["entries"] == 1

    def test_hit_rate(self, tmp_path):
        cache = ProfileCache(tmp_path)
        assert cache.hit_rate == 0.0
        cache.store("cfg", "fp", _entry())
        cache.lookup("cfg", "fp")
        cache.lookup("cfg", "other")
        assert cache.hit_rate == 0.5


class TestCachedProfiling:
    """End-to-end: the second profile of a model hits only the cache."""

    @pytest.fixture()
    def toy(self):
        return build_model("toy")

    def test_second_profile_runs_zero_simulations(self, toy, tmp_path):
        flow = PimFlow(PimFlowConfig(mechanism="pimflow",
                                     cache_dir=tmp_path))
        first = flow.profile(toy)
        sims_first = flow.engine.run_count
        assert sims_first > 0
        second = flow.profile(toy)
        assert flow.engine.run_count == sims_first  # zero new invocations
        assert second.to_dict() == first.to_dict()
        assert flow.cache.stats()["misses"] == 0

    def test_fresh_instance_reuses_disk_cache(self, toy, tmp_path):
        config = PimFlowConfig(mechanism="pimflow", cache_dir=tmp_path)
        first = PimFlow(config).profile(toy)
        flow2 = PimFlow(config)
        second = flow2.profile(toy)
        assert flow2.engine.run_count == 0
        assert second.to_dict() == first.to_dict()

    def test_cached_compile_reproduces_makespan(self, toy, tmp_path):
        config = PimFlowConfig(mechanism="pimflow", cache_dir=tmp_path)
        cold = PimFlow(config).run(toy)
        flow2 = PimFlow(config)
        warm = flow2.run(toy)
        assert warm.makespan_us == cold.makespan_us
        assert warm.events == cold.events

    def test_config_change_misses_cache(self, toy, tmp_path):
        PimFlow(PimFlowConfig(mechanism="pimflow",
                              cache_dir=tmp_path)).profile(toy)
        other = PimFlow(PimFlowConfig(mechanism="pimflow-md",
                                      cache_dir=tmp_path))
        other.profile(toy)
        assert other.engine.run_count > 0
        assert other.cache.stats()["misses"] > 0

    def test_without_cache_dir_nothing_is_written(self, toy, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        flow = PimFlow(PimFlowConfig(mechanism="pimflow"))
        flow.profile(toy)
        # No cache_dir -> in-memory memo only; the filesystem stays
        # untouched.
        assert isinstance(flow.cache, MemoryProfileCache)
        assert list(tmp_path.iterdir()) == []

    def test_memoize_false_disables_caching(self, toy, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        flow = PimFlow(PimFlowConfig(mechanism="pimflow", memoize=False))
        flow.profile(toy)
        first = flow.engine.run_count
        assert flow.cache is None
        flow.profile(toy)
        assert flow.engine.run_count == 2 * first  # everything re-measured
        assert list(tmp_path.iterdir()) == []

    def test_memory_memo_skips_repeat_simulations(self, toy):
        flow = PimFlow(PimFlowConfig(mechanism="pimflow"))
        first = flow.profile(toy)
        sims_first = flow.engine.run_count
        assert sims_first > 0
        second = flow.profile(toy)
        assert flow.engine.run_count == sims_first
        assert second.to_dict() == first.to_dict()

    def test_identical_layers_share_cache_slots(self, tmp_path):
        """Structurally identical regions hit the same object, so a
        model with repeated blocks stores fewer entries than lookups."""
        flow = PimFlow(PimFlowConfig(mechanism="pimflow",
                                     cache_dir=tmp_path))
        flow.profile(build_model("toy"))
        stats = flow.cache.stats()
        assert stats["hits"] > 0  # repeated shapes within one cold run
        # every miss stores exactly one entry; hits reuse them
        assert flow.cache.num_entries == stats["misses"]

    def test_run_records_cache_run_summary(self, toy, tmp_path):
        flow = PimFlow(PimFlowConfig(mechanism="pimflow",
                                     cache_dir=tmp_path))
        flow.profile(toy)
        last = flow.cache.last_run()
        assert last["config_fingerprint"] == flow.config_fingerprint
        data = json.loads((tmp_path / "last_run.json").read_text())
        assert data == last
