"""Tests for the artifact-style CLI."""

import json
import re

import pytest

from repro.cli import POLICIES, _preprocess_argv, main


class TestArgvPreprocessing:
    def test_single_dash_equals_split(self):
        assert _preprocess_argv(["-m=profile", "-n=toy"]) == \
            ["-m", "profile", "-n", "toy"]

    def test_double_dash_untouched(self):
        assert _preprocess_argv(["--policy=PIMFlow"]) == ["--policy=PIMFlow"]

    def test_plain_args_untouched(self):
        assert _preprocess_argv(["-m", "run"]) == ["-m", "run"]


class TestCommands:
    def test_list(self, capsys):
        assert main(["-m=list"]) == 0
        out = capsys.readouterr().out
        assert "toy" in out and "resnet-50" in out

    def test_unknown_net(self, capsys):
        assert main(["-m=run", "-n=lenet"]) == 2

    def test_net_aliases_normalized(self, tmp_path, capsys):
        workdir = str(tmp_path / "out")
        assert main(["-m=run", "-n=Toy", f"--workdir={workdir}"]) == 0
        assert "toy [" in capsys.readouterr().out

    def test_full_workflow(self, tmp_path, capsys):
        workdir = str(tmp_path / "out")
        base = ["-n=toy", f"--workdir={workdir}"]
        assert main(["-m=profile", "-t=split"] + base) == 0
        assert main(["-m=profile", "-t=pipeline"] + base) == 0
        assert main(["-m=solve"] + base) == 0
        assert main(["-m=run", "--gpu_only"] + base) == 0
        assert main(["-m=run"] + base) == 0
        out = capsys.readouterr().out
        assert "GPU baseline" in out
        assert "PIMFlow" in out

        summary = json.loads(
            (tmp_path / "out" / "toy" / "solve_summary.json").read_text())
        assert summary["predicted_time_us"] > 0
        assert summary["decisions"]

    def test_run_without_profiles_compiles_inline(self, tmp_path, capsys):
        assert main(["-m=run", "-n=toy",
                     f"--workdir={tmp_path / 'fresh'}"]) == 0

    def test_policies_cover_evaluated_mechanisms(self):
        assert set(POLICIES) == {"Newton", "Newton+", "Newton++", "MDDP",
                                 "Pipeline", "PIMFlow"}

    def test_policy_run(self, tmp_path, capsys):
        assert main(["-m=run", "-n=toy", "--policy=Newton++",
                     f"--workdir={tmp_path}"]) == 0
        assert "Newton++" in capsys.readouterr().out

    def test_stat(self, tmp_path, capsys):
        assert main(["-m=stat", "-n=toy", f"--workdir={tmp_path}"]) == 0
        out = capsys.readouterr().out
        assert "Split ratio to GPU" in out

    def test_custom_channels(self, tmp_path, capsys):
        assert main(["-m=run", "-n=toy", "--pim_channels=8",
                     f"--workdir={tmp_path}"]) == 0

    def test_trace_default_layer(self, tmp_path, capsys):
        assert main(["-m=trace", "-n=toy", f"--workdir={tmp_path}"]) == 0
        out = capsys.readouterr().out
        assert "commands" in out and "cycles" in out
        traces = list((tmp_path / "toy").glob("trace_*.json"))
        assert len(traces) == 1

    def test_trace_named_layer(self, tmp_path, capsys):
        assert main(["-m=trace", "-n=toy", "--layer=b0_expand",
                     f"--workdir={tmp_path}"]) == 0
        assert "b0_expand" in capsys.readouterr().out

    def test_trace_unknown_layer(self, tmp_path, capsys):
        assert main(["-m=trace", "-n=toy", "--layer=nope",
                     f"--workdir={tmp_path}"]) == 2

    def test_report(self, tmp_path, capsys):
        assert main(["-m=report", "-n=toy", f"--workdir={tmp_path}"]) == 0
        out = capsys.readouterr().out
        assert "decisions:" in out
        assert "schedule" in out
        assert "GPU" in out and "PIM" in out

    def test_report_policy(self, tmp_path, capsys):
        assert main(["-m=report", "-n=toy", "--policy=Newton++",
                     f"--workdir={tmp_path}"]) == 0
        assert "Newton++" in capsys.readouterr().out


class TestServing:
    def test_stat_json(self, tmp_path, capsys):
        assert main(["-m=stat", "-n=toy", "--json",
                     f"--workdir={tmp_path}"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["model"] == "toy"
        assert data["predicted_time_us"] > 0
        assert data["decisions"] >= 1
        assert data["buffer_plan"]["arena_bytes"] > 0

    def test_stat_plan_json(self, tmp_path, capsys):
        plan_path = tmp_path / "toy.plan.json"
        assert main(["-m=compile", "-n=toy", f"--plan={plan_path}",
                     f"--workdir={tmp_path}"]) == 0
        capsys.readouterr()
        assert main(["-m=stat", f"--plan={plan_path}", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["model"] == "toy"
        assert data["buffer_plan"]["arena_bytes"] > 0

    def test_serve_smoke(self, tmp_path, capsys):
        assert main(["-m=serve", "-n=toy", "--clients=2", "--requests=2",
                     "--json", f"--workdir={tmp_path}"]) == 0
        data = json.loads(capsys.readouterr().out)
        (load,) = data["load"]
        assert load["offered"] == 4
        assert load["completed"] == 4
        assert data["server"]["completed"] == 4

    def test_serve_from_plan(self, tmp_path, capsys):
        plan_path = tmp_path / "toy.plan.json"
        assert main(["-m=compile", "-n=toy", f"--plan={plan_path}",
                     "--with_weights", f"--workdir={tmp_path}"]) == 0
        capsys.readouterr()
        assert main(["-m=serve", "-n=toy", f"--plan={plan_path}",
                     "--clients=2", "--requests=1",
                     f"--workdir={tmp_path}"]) == 0
        out = capsys.readouterr().out
        assert "toy: 2/2 ok" in out
        assert "[serve]" in out

    def test_serve_rejects_unknown_net_in_list(self, tmp_path, capsys):
        assert main(["-m=serve", "-n=toy,lenet",
                     f"--workdir={tmp_path}"]) == 2
        assert "lenet" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--host-states", "--serve-workers",
                                      "--max-batch", "--queue-depth"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_serve_counts_must_be_positive(self, flag, value, tmp_path,
                                           capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-m=serve", "-n=toy", f"{flag}={value}",
                  f"--workdir={tmp_path}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be >= 1, got {value}" in err
        assert "Traceback" not in err

    def test_bench_serve_smoke(self, tmp_path, capsys):
        assert main(["-m=bench-serve", "-n=toy", "--clients=4",
                     "--requests=1", "--max-batch=4", "--json",
                     f"--workdir={tmp_path}"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mechanism"] == "gpu"  # A/B defaults to GPU baseline
        assert data["byte_identical"] is True
        assert data["batch1"]["completed"] == 4
        assert data["dynamic"]["completed"] == 4
        assert data["device_win_ceiling"] > 1.0


class TestPassObservability:
    def test_passes_mode_lists_registry(self, capsys):
        assert main(["-m=passes"]) == 0
        out = capsys.readouterr().out
        for name in ("fold_constants", "eliminate_dead_nodes",
                     "fold_batchnorm", "fuse_activations", "optimize_memory",
                     "apply_decisions", "mddp_split", "pipeline_chain"):
            assert name in out
        assert "idempotent" in out
        assert "requires decisions" in out

    def test_compile_prints_pass_summary(self, tmp_path, capsys):
        assert main(["-m=compile", "-n=toy", f"--workdir={tmp_path}"]) == 0
        out = capsys.readouterr().out
        assert "[compile]" in out and "passes" in out
        assert "fuse_activations" in out

    def test_compile_verify_passes(self, tmp_path, capsys):
        assert main(["-m=compile", "-n=toy", "--verify-passes",
                     f"--workdir={tmp_path}"]) == 0
        out = capsys.readouterr().out
        assert "6 verified" in out

    def test_compile_dump_ir(self, tmp_path, capsys):
        ir = tmp_path / "ir"
        assert main(["-m=compile", "-n=toy", f"--dump-ir={ir}",
                     f"--workdir={tmp_path / 'out'}"]) == 0
        files = sorted(p.name for p in ir.iterdir())
        assert files[0] == "00_fold_constants.json"
        assert any("apply_decisions" in f for f in files)
        json.loads((ir / files[0]).read_text())  # well-formed IR snapshots

    def test_plan_records_pass_log(self, tmp_path):
        plan_path = tmp_path / "toy.plan.json"
        assert main(["-m=compile", "-n=toy", f"--plan={plan_path}",
                     f"--workdir={tmp_path}"]) == 0
        data = json.loads(plan_path.read_text())
        log = data["provenance"]["passes"]
        assert [r["name"] for r in log] == [
            "fold_constants", "eliminate_dead_nodes", "fold_batchnorm",
            "fuse_activations", "apply_decisions", "optimize_memory"]
        assert all(r["wall_ms"] >= 0 for r in log)

    def test_stat_shows_pass_table(self, tmp_path, capsys):
        assert main(["-m=stat", "-n=toy", f"--workdir={tmp_path}"]) == 0
        out = capsys.readouterr().out
        assert "Pass pipeline" in out
        assert "optimize_memory" in out

    def test_stat_plan(self, tmp_path, capsys):
        plan_path = tmp_path / "toy.plan.json"
        assert main(["-m=compile", "-n=toy", "--verify-passes",
                     f"--plan={plan_path}", f"--workdir={tmp_path}"]) == 0
        capsys.readouterr()
        assert main(["-m=stat", f"--plan={plan_path}"]) == 0
        out = capsys.readouterr().out
        assert "[plan:pimflow]" in out
        assert "Pass pipeline" in out
        assert "[verified]" in out
        assert "Buffer plan" in out
        assert "Slowest nodes (top 10 of" in out

    def test_stat_plan_missing_file(self, tmp_path, capsys):
        assert main(["-m=stat", f"--plan={tmp_path / 'nope.json'}"]) == 2
        assert "plan file not found" in capsys.readouterr().err

    def test_solve_prints_pass_summary(self, tmp_path, capsys):
        base = ["-n=toy", f"--workdir={tmp_path}"]
        assert main(["-m=profile", "-t=split"] + base) == 0
        assert main(["-m=solve"] + base) == 0
        out = capsys.readouterr().out
        assert "[compile]" in out and "apply_decisions" in out

    def test_profile_prints_summary_line(self, tmp_path, capsys):
        assert main(["-m=profile", "-t=split", "-n=toy",
                     f"--workdir={tmp_path}"]) == 0
        captured = capsys.readouterr()
        (line,) = [ln for ln in captured.out.splitlines()
                   if ln.startswith("[profile]")]
        assert re.fullmatch(r"\[profile\] \d+ candidates, \d+ requests, "
                            r"\d+ simulated, \d+ cache hits, \d+\.\d\ds",
                            line), line
        assert captured.err == ""

    def test_solve_prints_phase_line(self, tmp_path, capsys):
        base = ["-n=toy", f"--workdir={tmp_path}"]
        assert main(["-m=profile", "-t=split"] + base) == 0
        assert main(["-m=profile", "-t=pipeline"] + base) == 0
        assert main(["-m=solve"] + base) == 0
        assert "[solve]" in capsys.readouterr().out


def _makespan(line):
    """Pull the makespan out of a '<model> [...]: X us, ...' line."""
    return float(line.split("]:")[1].split("us")[0])


class TestCompileOnce:
    def test_compile_then_run_plan_matches_direct(self, tmp_path, capsys):
        plan_path = tmp_path / "toy.plan.json"
        base = ["-n=toy", f"--workdir={tmp_path / 'out'}"]
        assert main(["-m=run"] + base) == 0
        direct_line = [line for line in capsys.readouterr().out.splitlines()
                       if "[PIMFlow]" in line][0]
        assert main(["-m=compile", f"--plan={plan_path}"] + base) == 0
        out = capsys.readouterr().out
        assert "compiled toy [PIMFlow]" in out
        assert plan_path.exists()
        assert main(["-m=run", f"--plan={plan_path}"] + base) == 0
        plan_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert "[plan:pimflow]" in plan_line
        assert _makespan(plan_line) == _makespan(direct_line)

    def test_compile_default_plan_location(self, tmp_path, capsys):
        workdir = tmp_path / "out"
        assert main(["-m=compile", "-n=toy", f"--workdir={workdir}"]) == 0
        assert (workdir / "toy" / "plan.json").exists()

    def test_compile_with_traces(self, tmp_path, capsys):
        plan_path = tmp_path / "toy.plan.json"
        assert main(["-m=compile", "-n=toy", "--traces",
                     f"--plan={plan_path}", f"--workdir={tmp_path}"]) == 0
        out = capsys.readouterr().out
        n_traces = int(out.split("us, ")[1].split(" traces")[0])
        assert n_traces > 0
        data = json.loads(plan_path.read_text())
        assert len(data["traces"]) == n_traces

    def test_compile_excludes_weights_by_default(self, tmp_path):
        lean = tmp_path / "lean.json"
        fat = tmp_path / "fat.json"
        args = ["-m=compile", "-n=toy", f"--workdir={tmp_path}"]
        assert main(args + [f"--plan={lean}"]) == 0
        assert main(args + [f"--plan={fat}", "--with_weights"]) == 0
        assert lean.stat().st_size < fat.stat().st_size

    def test_compile_reports_cache_stats(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["-m=compile", "-n=toy", f"--workdir={tmp_path / 'out'}",
                f"--cache-dir={cache}"]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "profile cache:" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "0 misses" in warm

    def test_stat_reports_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["-m=stat", "-n=toy", f"--workdir={tmp_path}",
                     f"--cache-dir={cache}"]) == 0
        out = capsys.readouterr().out
        assert "profile cache:" in out
        assert "last profile run:" in out

    def test_run_plan_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["-m=run", "-n=toy",
                     f"--plan={tmp_path / 'nope.json'}",
                     f"--workdir={tmp_path}"]) == 2
        assert "plan file not found" in capsys.readouterr().err

    def test_run_plan_corrupt_file_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["-m=run", "-n=toy", f"--plan={bad}",
                     f"--workdir={tmp_path}"]) == 2
        assert "cannot load plan" in capsys.readouterr().err

    def test_run_plan_future_version_fails_cleanly(self, tmp_path, capsys):
        plan_path = tmp_path / "toy.plan.json"
        assert main(["-m=compile", "-n=toy", f"--plan={plan_path}",
                     f"--workdir={tmp_path}"]) == 0
        data = json.loads(plan_path.read_text())
        data["version"] = 99
        plan_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["-m=run", "-n=toy", f"--plan={plan_path}",
                     f"--workdir={tmp_path}"]) == 2
        assert "unsupported plan version" in capsys.readouterr().err
