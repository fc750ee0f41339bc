"""Regression tests for the perf-harness compare semantics.

The contract that matters for a growing metric set: metrics present on
only one side of a baseline comparison are *informational* — reported
as ``new``/``missing`` rows but never a ``--check`` failure.  Without
this, every change that adds a metric family (as the concurrency work
added ``host_rps``) would trip CI on the stale baseline, and every
change that deletes one would trip it too.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from perf.harness import (  # noqa: E402
    TRIPWIRE_PAIRS,
    compare,
    format_rows,
    higher_is_better,
    load_baseline,
    save_baseline,
    tripwires,
)


def _results(metrics):
    return {"schema": 1, "config": {}, "metrics": metrics}


class TestCompareInformationalRows:
    def test_new_metric_is_not_a_failure(self):
        rows, ok = compare(_results({"a.ms": 1.0}),
                           _results({"a.ms": 1.0, "b.parallel_ms": 5.0}))
        assert ok
        by_name = {r[0]: r for r in rows}
        name, base, cur, ratio, status = by_name["b.parallel_ms"]
        assert status == "new"
        assert base is None and ratio is None
        assert cur == 5.0

    def test_missing_metric_is_not_a_failure(self):
        rows, ok = compare(_results({"a.ms": 1.0, "gone.ms": 2.0}),
                           _results({"a.ms": 1.0}))
        assert ok
        by_name = {r[0]: r for r in rows}
        assert by_name["gone.ms"][4] == "missing"

    def test_new_rows_coexist_with_real_regressions(self):
        # A genuine regression still fails even when new rows exist.
        rows, ok = compare(_results({"a.ms": 1.0}),
                           _results({"a.ms": 10.0, "b.host_rps": 3.0}),
                           fail_ratio=3.0)
        assert not ok
        by_name = {r[0]: r for r in rows}
        assert by_name["a.ms"][4] == "REGRESSION"
        assert by_name["b.host_rps"][4] == "new"

    def test_format_rows_renders_one_sided_rows(self):
        rows, _ = compare(_results({"old.ms": 1.0}),
                          _results({"new.ms": 2.0}))
        text = format_rows(rows)
        assert "new" in text and "missing" in text
        assert "-" in text  # absent side rendered as a dash, not a crash


class TestCompareDirections:
    def test_throughput_regresses_when_it_drops(self):
        rows, ok = compare(_results({"serve.m.host_rps": 10.0}),
                           _results({"serve.m.host_rps": 2.0}),
                           fail_ratio=3.0)
        assert not ok
        assert rows[0][4] == "REGRESSION"

    def test_throughput_gain_is_faster_not_regression(self):
        rows, ok = compare(_results({"serve.m.host_rps": 2.0}),
                           _results({"serve.m.host_rps": 10.0}))
        assert ok
        assert rows[0][4] == "faster"

    def test_higher_is_better_families(self):
        assert higher_is_better("serve.m.host_rps")
        assert higher_is_better("serve.m.host_locked_rps")
        assert higher_is_better("serve.m.host_win")
        assert higher_is_better("serve.m.win")
        assert not higher_is_better("numerical.m.parallel_ms")
        assert not higher_is_better("numerical.m.compiled_batch8_ms")
        assert not higher_is_better("compile.m.plan_ms")


class TestBaselineIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "base.json"
        save_baseline(path, _results({"a.ms": 1.5}))
        assert load_baseline(path)["metrics"] == {"a.ms": 1.5}

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text('{"schema": 99, "metrics": {}}')
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)


class TestTripwires:
    def test_batch1_gate_uses_the_default_executor(self):
        assert TRIPWIRE_PAIRS[0] == ("compiled_ms", "batch1_ms")

    def test_compiled_slower_than_slack_trips(self):
        rows, ok = tripwires(_results({
            "numerical.m.batch1_ms": 10.0,
            "numerical.m.compiled_ms": 11.6,
            "numerical.m.batch8_ms": 80.0,
            "numerical.m.compiled_batch8_ms": 40.0}))
        assert not ok
        assert [(r[1], r[5]) for r in rows] == [
            ("compiled_ms", "SLOWER-THAN-INTERPRETED"),
            ("compiled_batch8_ms", "ok")]

    def test_committed_baseline_covers_every_pair(self):
        base = load_baseline(
            Path(__file__).resolve().parent.parent / "BENCH_RUNTIME.json")
        rows, ok = tripwires(base)
        models = {r[0] for r in rows}
        assert models and len(rows) == len(models) * len(TRIPWIRE_PAIRS)
        assert ok
