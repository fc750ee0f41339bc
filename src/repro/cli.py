"""The ``pimflow`` command-line driver, mirroring the artifact (Appendix A.5).

Workflow::

    pimflow -m=profile -t=split -n=<net>     # Step 1a: MD-DP profiling
    pimflow -m=profile -t=pipeline -n=<net>  # Step 1b: pipeline profiling
    pimflow -m=solve -n=<net>                # Step 2: optimal graph (DP)
    pimflow -m=run --gpu_only -n=<net>       # Step 3: GPU baseline
    pimflow -m=run -n=<net>                  # Step 3: PIMFlow execution
    pimflow -m=stat -n=<net>                 # Table-2-style statistics

Compile-once/run-many::

    pimflow -m=compile -n=<net> --cache-dir=<dir>   # plan artifact
    pimflow -m=run --plan=<plan.json>               # execute the plan

``<net>`` is one of the registry names (``pimflow -m=list`` prints
them).  ``--policy`` selects the offloading mechanism for ``run``:
Newton+, Newton++, MDDP, Pipeline, or PIMFlow (default).

Profiling results and solved graphs persist under ``--workdir``
(default ``./pimflow_out``), so ``solve`` and ``run`` can reuse earlier
steps exactly like the original scripts.  ``--cache-dir`` additionally
enables the content-addressed profile cache: any step that profiles
serves repeated regions from disk instead of the simulators, and
``pimflow -m=stat`` reports the cache's effectiveness.

Every profiling step prints a ``[profile]`` summary line (candidates,
requests, simulated regions, cache hits, wall-clock).

Pass-manager observability::

    pimflow -m=passes                          # list the pass registry
    pimflow -m=compile -n=<net> --verify-passes  # inter-pass verifier
    pimflow -m=compile -n=<net> --dump-ir=DIR    # IR after every pass
    pimflow -m=stat -n=<net>                   # per-pass log (+ ratios)
    pimflow -m=stat --plan=<plan.json>         # log recorded in a plan

Every compiling step prints a ``[compile]`` per-pass timing summary;
``--verify-passes`` additionally re-validates shapes, interface and
numeric equivalence after every pass.

Serving (see ``docs/serving.md``)::

    pimflow -m=serve -n=<net>[,<net>...]     # dynamic-batching server
                                             # under synthetic load
    pimflow -m=bench-serve -n=<net>          # batch-1 vs dynamic A/B

``serve`` registers each net (compiled on first request, or loaded
from ``--plan``), starts the worker pool, and drives the synthetic
load generator against it (closed-loop by default; ``--rate`` switches
to open-loop arrivals, which exposes admission control).
``bench-serve`` serves one workload at max-batch 1 and at
``--max-batch`` and reports the dynamic-batching throughput win on the
modelled hardware plus wall-clock tail latencies.  ``--json`` prints
machine-readable output for both, and for ``-m=stat``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.analysis.ratios import candidate_layer_names, mddp_ratio_distribution
from repro.graph.serialize import load_graph, save_graph
from repro.models import build_model, list_models, normalize_model_name
from repro.pimflow import PimFlow, PimFlowConfig
from repro.search.table import MeasurementTable

#: Artifact policy names -> mechanism keys.
POLICIES = {
    "Newton": "newton",
    "Newton+": "newton+",
    "Newton++": "newton++",
    "MDDP": "pimflow-md",
    "Pipeline": "pimflow-pl",
    "PIMFlow": "pimflow",
}


def _preprocess_argv(argv: List[str]) -> List[str]:
    """Support the artifact's ``-m=value`` single-dash syntax."""
    out: List[str] = []
    for arg in argv:
        if arg.startswith("-") and not arg.startswith("--") and "=" in arg:
            flag, value = arg.split("=", 1)
            out.extend([flag, value])
        else:
            out.append(arg)
    return out


def _positive_int(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pimflow",
        description="PIMFlow: compiler and runtime support for CNN models "
                    "on processing-in-memory DRAM (reproduction)")
    parser.add_argument("-m", "--mode", required=True,
                        choices=["profile", "solve", "compile", "run", "stat",
                                 "trace", "report", "list", "passes",
                                 "serve", "bench-serve"],
                        help="workflow step")
    parser.add_argument("--layer", default=None,
                        help="layer name for -m=trace (default: the "
                             "largest PIM-candidate layer)")
    parser.add_argument("-n", "--net", default="toy",
                        help="model name (see -m=list)")
    parser.add_argument("-t", "--type", dest="profile_type", default="split",
                        choices=["split", "pipeline"],
                        help="profiling pass for -m=profile")
    parser.add_argument("--policy", default=None, choices=sorted(POLICIES),
                        help="offloading mechanism for -m=run (default "
                             "PIMFlow; -m=bench-serve defaults to the GPU "
                             "baseline plan instead — PIM offload is a "
                             "batch-1 design point)")
    parser.add_argument("--gpu_only", action="store_true",
                        help="run the GPU-only baseline")
    parser.add_argument("--pim_channels", type=int, default=16,
                        help="PIM-enabled channels out of 32")
    parser.add_argument("--stages", type=int, default=2,
                        help="pipeline stage count")
    parser.add_argument("--ratio_step", type=float, default=0.1,
                        help="MD-DP split-ratio interval")
    parser.add_argument("--workdir", default="pimflow_out",
                        help="directory for profiles and solved graphs")
    parser.add_argument("--plan", default=None,
                        help="for -m=compile: output path of the plan "
                             "artifact (default <workdir>/<net>/plan.json); "
                             "for -m=run: execute this plan instead of "
                             "compiling")
    parser.add_argument("--cache-dir", dest="cache_dir", default=None,
                        help="enable the content-addressed profile cache "
                             "in this directory")
    parser.add_argument("--traces", action="store_true",
                        help="for -m=compile: attach explicit PIM command "
                             "traces to the plan")
    parser.add_argument("--with_weights", action="store_true",
                        help="for -m=compile: embed initializer values in "
                             "the plan (timing never needs them; large)")
    parser.add_argument("--verify-passes", dest="verify_passes",
                        action="store_true",
                        help="run the inter-pass verifier after every "
                             "compiler pass: shape re-inference, graph-"
                             "interface preservation, clone discipline, "
                             "and a numeric oracle spot check")
    parser.add_argument("--dump-ir", dest="dump_ir", default=None,
                        metavar="DIR",
                        help="snapshot the graph IR into DIR after every "
                             "compiler pass (<seq>_<pass>.json)")
    parser.add_argument("--compiled", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="for -m=run with --plan: execute host "
                             "inference through the buffer-planned compiled "
                             "executor (--no-compiled falls back to the "
                             "interpreted reference executor)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON output (stat, serve, "
                             "bench-serve)")
    serve = parser.add_argument_group("serving (-m=serve / -m=bench-serve)")
    serve.add_argument("--max-batch", dest="max_batch", type=_positive_int,
                       default=8,
                       help="micro-batch size cap (default %(default)s)")
    serve.add_argument("--max-wait-ms", dest="max_wait_ms", type=float,
                       default=None,
                       help="batching linger from the batch head's arrival "
                            "(default: 2 ms for serve, 50 ms for "
                            "bench-serve)")
    serve.add_argument("--serve-workers", dest="serve_workers",
                       type=_positive_int, default=2,
                       help="worker threads (default %(default)s)")
    serve.add_argument("--queue-depth", dest="queue_depth",
                       type=_positive_int, default=64,
                       help="bounded admission queue depth; requests beyond "
                            "it are shed with a typed Overloaded rejection "
                            "(default %(default)s)")
    serve.add_argument("--clients", type=int, default=8,
                       help="closed-loop client threads (default %(default)s)")
    serve.add_argument("--requests", type=int, default=4,
                       help="requests per closed-loop client "
                            "(default %(default)s)")
    serve.add_argument("--rate", type=float, default=None,
                       help="open-loop arrival rate in requests/s (switches "
                            "the load generator from closed to open loop)")
    serve.add_argument("--duration", type=float, default=2.0,
                       help="open-loop duration in seconds "
                            "(default %(default)s)")
    serve.add_argument("--deadline-ms", dest="deadline_ms", type=float,
                       default=None,
                       help="per-request deadline; requests not started "
                            "within it fail with DeadlineExceeded")
    serve.add_argument("--host-states", dest="host_states",
                       type=_positive_int, default=None,
                       help="pooled execution states per compiled program "
                            "(bounds concurrent arenas; default 4)")
    return parser


def _config(args: argparse.Namespace, mechanism: str) -> PimFlowConfig:
    from repro.memsys.system import MemorySystem

    return PimFlowConfig(
        mechanism=mechanism,
        memory=MemorySystem(32, args.pim_channels),
        ratio_step=args.ratio_step,
        pipeline_stages=args.stages,
        cache_dir=args.cache_dir,
        verify_passes=args.verify_passes,
        dump_ir_dir=args.dump_ir,
    )


def _print_profile_summary(flow: PimFlow) -> None:
    """One per-phase line so long searches aren't silent."""
    s = flow.last_profile_summary
    if not s:
        return
    print(f"[profile] {s['candidates']} candidates, {s['requests']} "
          f"requests, {s['simulated']} simulated, {s['cache_hits']} cache "
          f"hits, {s['wall_s']:.2f}s")


def _print_pass_summary(records) -> None:
    """The ``[compile]`` per-phase pass-timing line."""
    if not records:
        return
    total_ms = sum(r.get("wall_ms", 0.0) for r in records)
    verified = sum(1 for r in records if r.get("verified"))
    parts = ", ".join(f"{r['name']} {r.get('wall_ms', 0.0):.1f}ms"
                      for r in records)
    suffix = f", {verified} verified" if verified else ""
    print(f"[compile] {len(records)} passes, {total_ms:.1f}ms{suffix}: "
          f"{parts}")


def _print_pass_table(records) -> None:
    """The ``-m=stat`` per-pass log: time and graph deltas."""
    if not records:
        return
    print("Pass pipeline (time, node/tensor/elided deltas):")
    for r in records:
        flags = " [verified]" if r.get("verified") else ""
        print(f"  {r['name']:<22} {r.get('wall_ms', 0.0):8.2f} ms  "
              f"nodes {r['nodes_before']:>4} -> {r['nodes_after']:<4} "
              f"tensors {r['tensors_before']:>4} -> {r['tensors_after']:<4} "
              f"elided {r['elided_before']:>3} -> {r['elided_after']:<3}"
              f"{flags}")


def _paths(args: argparse.Namespace) -> dict:
    base = Path(args.workdir) / args.net
    return {
        "base": base,
        "split": base / "profile_split.json",
        "pipeline": base / "profile_pipeline.json",
        "graph": base / "solved_graph.json",
        "summary": base / "solve_summary.json",
    }


def cmd_profile(args: argparse.Namespace) -> int:
    paths = _paths(args)
    paths["base"].mkdir(parents=True, exist_ok=True)
    mechanism = "pimflow-md" if args.profile_type == "split" else "pimflow-pl"
    flow = PimFlow(_config(args, mechanism))
    graph = flow.prepare(build_model(args.net))
    table = flow.profile(graph)
    out = paths[args.profile_type]
    table.save(out)
    print(f"profiled {len(table)} samples ({args.profile_type}) -> {out}")
    _print_profile_summary(flow)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    paths = _paths(args)
    flow = PimFlow(_config(args, "pimflow"))
    graph = flow.prepare(build_model(args.net))

    table = MeasurementTable()
    found = False
    for kind in ("split", "pipeline"):
        path = paths[kind]
        if path.exists():
            found = True
            table.merge(MeasurementTable.load(path))
    if not found:
        print("no profiles found; running the full profile step first",
              file=sys.stderr)
        table = flow.profile(graph)
        _print_profile_summary(flow)

    t0 = time.perf_counter()
    compiled = flow.compile(graph, table)
    solve_wall = time.perf_counter() - t0
    save_graph(compiled.graph, paths["graph"])
    summary = {
        "predicted_time_us": compiled.predicted_time_us,
        "decisions": [
            {"nodes": list(d.nodes), "mode": d.mode, "time_us": d.time_us,
             "ratio_gpu": d.ratio_gpu, "stages": d.stages}
            for d in compiled.decisions
        ],
    }
    paths["summary"].write_text(json.dumps(summary, indent=2))
    print(f"solved: predicted {compiled.predicted_time_us:.1f} us over "
          f"{len(compiled.decisions)} regions -> {paths['graph']}")
    print(f"[solve] {len(table)} samples -> {len(compiled.decisions)} "
          f"regions, {solve_wall:.2f}s")
    _print_pass_summary(compiled.pass_records)
    return 0


def _print_cache_stats(flow: PimFlow) -> None:
    cache = flow.cache
    if cache is None:
        return
    stats = cache.stats()
    print(f"profile cache: {stats['entries']} entries, "
          f"{stats['hits']} hits / {stats['misses']} misses "
          f"(hit rate {stats['hit_rate'] * 100:.0f}%)")


def cmd_compile(args: argparse.Namespace) -> int:
    """Compile a model into a reusable execution-plan artifact."""
    paths = _paths(args)
    mechanism = POLICIES[args.policy]
    flow = PimFlow(_config(args, mechanism))
    plan = flow.build_plan(build_model(args.net), model_name=args.net,
                           with_traces=args.traces)
    out = Path(args.plan) if args.plan else paths["base"] / "plan.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    plan.save(out, include_weights=args.with_weights)
    info = plan.summary()
    print(f"compiled {args.net} [{args.policy}]: "
          f"{info['decisions']} regions, predicted "
          f"{plan.predicted_time_us:.1f} us, {info['traces']} traces "
          f"-> {out}")
    _print_profile_summary(flow)
    _print_pass_summary(plan.pass_log)
    _print_cache_stats(flow)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    paths = _paths(args)
    if args.plan:
        from repro.plan import PlanFormatError
        from repro.runtime.executor import PlanExecutor

        try:
            executor = PlanExecutor(args.plan)
        except FileNotFoundError:
            print(f"plan file not found: {args.plan}", file=sys.stderr)
            return 2
        except (PlanFormatError, json.JSONDecodeError) as exc:
            print(f"cannot load plan {args.plan}: {exc}", file=sys.stderr)
            return 2
        result = executor.run()
        plan = executor.plan

        # Host-side numerical inference through the buffer-planned
        # compiled executor (or the interpreter with --no-compiled).
        # Printed before the schedule line: scripts parse the final
        # line for the makespan.
        from repro.runtime.verify import random_feeds
        feeds = random_feeds(plan.graph, seed=0)
        mode = "compiled" if args.compiled else "interpreted"
        start = time.perf_counter()
        executor.infer(feeds, compiled=args.compiled)
        first_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        executor.infer(feeds, compiled=args.compiled)
        repeat_ms = (time.perf_counter() - start) * 1e3
        stats = executor.buffer_stats()
        print(f"host exec [{mode}]: first {first_ms:.1f} ms, "
              f"repeat {repeat_ms:.1f} ms; arena "
              f"{stats['arena_bytes'] / 1e6:.1f} MB "
              f"({stats['copies_elided']} copies elided)")

        print(f"{plan.provenance.get('model', '?')} "
              f"[plan:{plan.mechanism}]: {result.makespan_us:.1f} us, "
              f"{result.energy.total_mj:.2f} mJ "
              f"(gpu busy {result.gpu_busy_us:.1f} us, "
              f"pim busy {result.pim_busy_us:.1f} us)")
        return 0
    if args.gpu_only:
        flow = PimFlow(_config(args, "gpu"))
        result = flow.run(build_model(args.net))
        print(f"{args.net} [GPU baseline]: {result.makespan_us:.1f} us, "
              f"{result.energy.total_mj:.2f} mJ")
        return 0

    mechanism = POLICIES[args.policy]
    flow = PimFlow(_config(args, mechanism))
    if args.policy == "PIMFlow" and paths["graph"].exists():
        graph = load_graph(paths["graph"])
        result = flow.engine.run(graph)
    else:
        result = flow.run(build_model(args.net))
        _print_profile_summary(flow)
    print(f"{args.net} [{args.policy}]: {result.makespan_us:.1f} us, "
          f"{result.energy.total_mj:.2f} mJ "
          f"(gpu busy {result.gpu_busy_us:.1f} us, "
          f"pim busy {result.pim_busy_us:.1f} us)")
    return 0


def cmd_stat(args: argparse.Namespace) -> int:
    if args.plan:
        return _stat_plan(args)
    flow = PimFlow(_config(args, "pimflow-md"))
    graph = flow.prepare(build_model(args.net))
    compiled = flow.compile(graph)
    dist = mddp_ratio_distribution(compiled.decisions,
                                   candidate_layer_names(graph))
    if args.json:
        # Machine-readable stats for the serve harness and CI — same
        # data the human output formats, no screen-scraping required.
        from repro.runtime.bufferplan import plan_buffers
        payload = {
            "model": args.net,
            "predicted_time_us": compiled.predicted_time_us,
            "decisions": len(compiled.decisions),
            "ratio_distribution": {str(k): v for k, v in dist.items()},
            "buffer_plan": plan_buffers(compiled.graph).stats(),
            "passes": list(compiled.pass_records),
            "profile": dict(flow.last_profile_summary),
            "cache": flow.cache.stats() if flow.cache is not None else None,
            "last_run": (flow.cache.last_run()
                         if flow.cache is not None else None),
        }
        print(json.dumps(payload, indent=2))
        return 0
    _print_profile_summary(flow)
    _print_pass_table(compiled.pass_records)
    print("Split ratio to GPU (0: total offload):")
    print("  " + "  ".join(f"{k:>3d}%" for k in dist))
    print("  " + "  ".join(f"{v * 100:3.0f}%" for v in dist.values()))
    from repro.runtime.bufferplan import plan_buffers
    stats = plan_buffers(compiled.graph).stats()
    print("Buffer plan (transformed graph):")
    print(f"  arena {stats['arena_bytes'] / 1e6:.1f} MB for "
          f"{stats['num_tensors']} tensors in {stats['num_roots']} buffers "
          f"(naive {stats['naive_bytes'] / 1e6:.1f} MB)")
    print(f"  copies elided: {stats['copies_elided']} "
          f"(slice views {stats['slice_views']}, concat zero-copy inputs "
          f"{stats['concat_zero_copy_inputs']}, pad zero-copy "
          f"{stats['pad_zero_copy']}, in-place reuse "
          f"{stats['inplace_reused']})")
    print(f"  padded conv reads served in-arena: "
          f"{stats['padded_conv_reads']}")
    if flow.cache is not None:
        _print_cache_stats(flow)
        last = flow.cache.last_run()
        if last is not None:
            print(f"last profile run: {last['hits']} hits / "
                  f"{last['misses']} misses "
                  f"(hit rate {last['hit_rate'] * 100:.0f}%)")
    return 0


def _stat_plan(args: argparse.Namespace) -> int:
    """``-m=stat --plan``: inspect a compiled plan artifact, including
    the per-pass log recorded in its provenance."""
    from repro.plan import PlanFormatError
    from repro.plan.artifact import ExecutionPlan

    try:
        plan = ExecutionPlan.load(args.plan)
    except FileNotFoundError:
        print(f"plan file not found: {args.plan}", file=sys.stderr)
        return 2
    except (PlanFormatError, json.JSONDecodeError) as exc:
        print(f"cannot load plan {args.plan}: {exc}", file=sys.stderr)
        return 2
    info = plan.summary()
    profile, node_rows = _plan_step_profile(plan)
    if args.json:
        print(json.dumps({
            "summary": info,
            "predicted_time_us": plan.predicted_time_us,
            "passes": plan.pass_log,
            "buffer_plan": dict(plan.buffer_plan),
            "step_profile": profile,
            "node_profile": node_rows,
            "provenance": {k: v for k, v in plan.provenance.items()
                           if k != "passes"},
        }, indent=2))
        return 0
    print(f"{info['model'] or '?'} [plan:{plan.mechanism}]: "
          f"{info['nodes']} nodes, {info['decisions']} regions, "
          f"predicted {plan.predicted_time_us:.1f} us "
          f"(config {info['config_fingerprint']})")
    _print_pass_table(plan.pass_log)
    if plan.buffer_plan:
        bp = plan.buffer_plan
        print(f"Buffer plan: arena {bp['arena_bytes'] / 1e6:.1f} MB "
              f"(naive {bp['naive_bytes'] / 1e6:.1f} MB), "
              f"{bp['copies_elided']} copies elided")
    if profile:
        total = sum(v["ms"] for v in profile.values()) or 1.0
        print("Host step profile (one compiled inference, best of 2):")
        print(f"  {'kind':<12}{'steps':>6}{'ms':>9}{'share':>8}")
        for kind, row in sorted(profile.items(),
                                key=lambda kv: -kv[1]["ms"]):
            print(f"  {kind:<12}{row['steps']:>6}{row['ms']:>9.3f}"
                  f"{row['ms'] / total * 100:>7.1f}%")
    if node_rows:
        print(f"Slowest nodes (top {min(10, len(node_rows))} of "
              f"{len(node_rows)}):")
        print(f"  {'node':<28}{'kind':<12}{'ms':>9}")
        for row in node_rows[:10]:
            name = row["node"]
            if len(name) > 27:
                name = name[:24] + "..."
            print(f"  {name:<28}{row['kind']:<12}{row['ms']:>9.3f}")
        if len(node_rows) > 10:
            rest = sum(r["ms"] for r in node_rows[10:])
            print(f"  ... {len(node_rows) - 10} more nodes, {rest:.3f} ms")
    return 0


def _plan_step_profile(plan):
    """Wall-clock breakdown of one compiled inference.

    Binds the plan's graph into a fresh compiled executable and times
    every step, bucketed by kernel class (gemm, dwconv, elementwise,
    copy, other), plus every node's time, slowest first.
    Returns ``({}, [])`` when the graph cannot be bound (e.g. an op
    with no numpy kernel).
    """
    from repro.runtime.compiled import CompiledExecutable
    from repro.runtime.verify import random_feeds

    try:
        exe = CompiledExecutable(plan.graph)
        feeds = random_feeds(plan.graph, seed=0)
        return exe.step_profile(feeds, rounds=2, detail=True)
    except Exception:  # pragma: no cover - diagnostic best-effort
        return {}, []


def cmd_passes(args: argparse.Namespace) -> int:
    """List the pass registry (``pimflow -m=passes``)."""
    from repro.transform.passes import registered_passes

    for info in registered_passes():
        flags = []
        if info.idempotent:
            flags.append("idempotent")
        if info.requires:
            flags.append("requires " + ",".join(info.requires))
        if not info.preserves_semantics:
            flags.append("reshapes semantics")
        tag = f" [{'; '.join(flags)}]" if flags else ""
        summary = info.description.splitlines()[0] if info.description else ""
        print(f"{info.name:<22}{tag}")
        if summary:
            print(f"    {summary}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Generate and persist the PIM command trace for one layer."""
    from repro.codegen.generator import generate_trace
    from repro.codegen.trace_io import save_trace
    from repro.graph.ops import is_pim_candidate
    from repro.lowering.im2col import lower_node
    from repro.pim.simulator import simulate_trace

    flow = PimFlow(_config(args, "pimflow"))
    graph = flow.prepare(build_model(args.net))

    candidates = []
    for node in graph.toposort():
        shapes = [graph.tensors[t].shape for t in node.inputs]
        if is_pim_candidate(node, shapes):
            candidates.append(node)
    if not candidates:
        print(f"{args.net} has no PIM-candidate layers", file=sys.stderr)
        return 1
    if args.layer:
        matches = [n for n in candidates if n.name == args.layer]
        if not matches:
            names = ", ".join(n.name for n in candidates[:10])
            print(f"unknown layer {args.layer!r}; candidates include: "
                  f"{names} ...", file=sys.stderr)
            return 2
        node = matches[0]
    else:
        node = max(candidates,
                   key=lambda n: lower_node(n, graph).macs)

    gemv = lower_node(node, graph)
    trace = generate_trace(gemv, flow.pim.config, flow.pim.opts)
    result = simulate_trace(trace, flow.pim.config)

    paths = _paths(args)
    paths["base"].mkdir(parents=True, exist_ok=True)
    out = paths["base"] / f"trace_{node.name}.json"
    save_trace(trace, out)
    counts = ", ".join(f"{k}:{v}" for k, v in sorted(trace.counts().items()))
    print(f"{node.name}: {trace.num_commands} commands ({counts}) over "
          f"{len(trace.programs)} channels, {result.cycles} cycles "
          f"-> {out}")
    return 0


def cmd_serve(args: argparse.Namespace, nets: List[str]) -> int:
    """Run the dynamic-batching server against the synthetic load
    generator (``pimflow -m=serve``)."""
    from repro.serve import InferenceServer, ModelRepository, ServerConfig
    from repro.serve.loadgen import run_closed_loop, run_open_loop

    mechanism = POLICIES[args.policy or "PIMFlow"]
    repo = ModelRepository()
    if args.plan:
        repo.register_plan(nets[0], args.plan)
    else:
        for net in nets:
            repo.register_model(net, config=_config(args, mechanism))
    max_wait = args.max_wait_ms if args.max_wait_ms is not None else 2.0
    server = InferenceServer(repo, ServerConfig(
        workers=args.serve_workers, queue_depth=args.queue_depth,
        max_batch_size=args.max_batch, max_wait_ms=max_wait,
        default_deadline_ms=args.deadline_ms,
        host_states=args.host_states))
    results = []
    with server:
        for net in nets:
            if args.rate is not None:
                results.append(run_open_loop(
                    server, net, rate_rps=args.rate,
                    duration_s=args.duration))
            else:
                results.append(run_closed_loop(
                    server, net, clients=args.clients,
                    requests_per_client=args.requests))
        snap = server.stats()
    if args.json:
        print(json.dumps({"load": [r.summary() for r in results],
                          "server": snap}, indent=2))
        return 0
    for r in results:
        s = r.summary()
        print(f"{s['model']}: {s['completed']}/{s['offered']} ok "
              f"({s['rejected']} shed, {s['expired']} expired, "
              f"{s['failed']} failed), wall {s['wall_rps']:.1f} rps, "
              f"device {s['device_rps']:.0f} rps, "
              f"p50/p99 {s['latency_p50_ms']:.1f}/"
              f"{s['latency_p99_ms']:.1f} ms")
    print(f"[serve] {snap['batches']} batches, mean size "
          f"{snap['mean_batch_size']:.2f}, peak queue "
          f"{snap['peak_queue_depth']}, device busy "
          f"{snap['device_busy_us'] / 1e3:.1f} ms, host exec "
          f"{snap['host_exec_ms']:.1f} ms")
    return 0


def cmd_bench_serve(args: argparse.Namespace) -> int:
    """A/B batch-1 vs dynamic batching (``pimflow -m=bench-serve``)."""
    from repro.serve.loadgen import bench_serve

    # PIM offload is a batch-1 design point (paper Fig. 8): the default
    # serving plan is the GPU baseline, where batching recovers SIMT
    # utilization.  --policy serves the chosen mechanism's plan instead.
    mechanism = POLICIES[args.policy] if args.policy else "gpu"
    report = bench_serve(
        model=args.net, mechanism=mechanism, max_batch=args.max_batch,
        clients=args.clients, requests_per_client=args.requests,
        workers=args.serve_workers,
        max_wait_ms=args.max_wait_ms if args.max_wait_ms is not None else 50.0,
        host_states=args.host_states,
        progress=lambda msg: print(msg, file=sys.stderr))
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    b, d = report["batch1"], report["dynamic"]
    print(f"{report['model']} [{report['mechanism']}] serve A/B, "
          f"{report['requests']} requests, {args.clients} clients:")
    print(f"{'':>14s} {'batch-1':>12s} {'dynamic(max-' + str(report['max_batch']) + ')':>18s}")
    for label, key, unit in (
            ("device rps", "device_rps", ""),
            ("wall rps", "wall_rps", ""),
            ("p50 ms", "latency_p50_ms", ""),
            ("p99 ms", "latency_p99_ms", ""),
            ("mean batch", "mean_batch_size", "")):
        print(f"{label:>14s} {b[key]:>12.2f} {d[key]:>18.2f}")
    print(f"dynamic batching win (modelled device throughput): "
          f"{report['device_win']:.2f}x "
          f"(steady-state ceiling {report['device_win_ceiling']:.2f}x)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Compile a model and print the full compilation report + schedule."""
    from repro.analysis.gantt import render_gantt
    from repro.analysis.report import compilation_report, format_report

    flow = PimFlow(_config(args, POLICIES[args.policy]))
    compiled = flow.compile(build_model(args.net))
    result = flow.engine.run(compiled.graph)
    _print_profile_summary(flow)
    print(f"{args.net} [{args.policy}]")
    for line in format_report(compilation_report(compiled, result)):
        print("  " + line)
    print("  schedule ('#' GPU, '=' PIM):")
    for line in render_gantt(result):
        print("    " + line)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(_preprocess_argv(
        list(sys.argv[1:] if argv is None else argv)))
    if args.mode == "list":
        for name in list_models():
            print(name)
        return 0
    if args.mode == "passes":
        return cmd_passes(args)
    if args.mode == "stat" and args.plan:
        return _stat_plan(args)
    # --policy defaults to PIMFlow everywhere except bench-serve, whose
    # A/B baseline is the GPU plan (cmd_bench_serve resolves None).
    if args.policy is None and args.mode != "bench-serve":
        args.policy = "PIMFlow"
    if args.mode == "serve":
        # Serve accepts a comma-separated model list (-n=a,b) so one
        # server can exercise model-affine batching across models.
        nets = [normalize_model_name(n)
                for n in (args.net or "").split(",") if n]
        if args.plan:
            nets = nets or ["plan"]
        else:
            unknown = [n for n in nets if n not in list_models()]
            if not nets or unknown:
                print(f"unknown net(s) {unknown or args.net!r}; use -m=list",
                      file=sys.stderr)
                return 2
        return cmd_serve(args, nets)
    if args.net is not None:
        args.net = normalize_model_name(args.net)
    if args.net not in list_models():
        print(f"unknown net {args.net!r}; use -m=list", file=sys.stderr)
        return 2
    if args.mode == "bench-serve":
        return cmd_bench_serve(args)
    if args.mode == "profile":
        return cmd_profile(args)
    if args.mode == "solve":
        return cmd_solve(args)
    if args.mode == "compile":
        return cmd_compile(args)
    if args.mode == "run":
        return cmd_run(args)
    if args.mode == "stat":
        return cmd_stat(args)
    if args.mode == "trace":
        return cmd_trace(args)
    if args.mode == "report":
        return cmd_report(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
