"""Plan-driven execution: the run-many half of compile-once/run-many.

:class:`PlanExecutor` loads a serialized
:class:`~repro.plan.artifact.ExecutionPlan`, rebuilds the execution
engine from the plan's ``runtime_spec`` (concrete device configs, the
channel split, command-optimization flags), and schedules inferences on
it.  Nothing in this module — or anything it imports — touches
:mod:`repro.search`: serving traffic from a plan never pays for, or
even loads, the profiler and solver.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.gpu.config import GpuConfig
from repro.gpu.device import GpuDevice
from repro.pim.config import PimConfig, PimOptimizations, PimTiming
from repro.pim.device import PimDevice
from repro.plan.artifact import ExecutionPlan, PlanFormatError
from repro.runtime.engine import ExecutionEngine, RunResult


def engine_from_spec(spec: dict) -> ExecutionEngine:
    """Rebuild an execution engine from a plan's ``runtime_spec``.

    The spec stores the *post-split* device configurations (the GPU
    config already restricted to its share of the memory channels, the
    PIM config over the PIM-enabled channels), so the rebuilt engine
    prices every kernel exactly as the compiling toolchain did.
    """
    try:
        gpu = GpuDevice(GpuConfig(**spec["gpu_config"]),
                        write_through=bool(spec["write_through"]))
        pim: Optional[PimDevice] = None
        if spec.get("pim_config") is not None:
            pim_cfg_data = dict(spec["pim_config"])
            pim_cfg_data["timing"] = PimTiming(**pim_cfg_data["timing"])
            opts = PimOptimizations(**spec["pim_opts"])
            pim = PimDevice(PimConfig(**pim_cfg_data), opts)
        return ExecutionEngine(
            gpu, pim,
            sync_overhead_us=spec["sync_overhead_us"],
            host_io=spec["host_io"],
            pcie_bytes_per_us=spec["pcie_bytes_per_us"])
    except (KeyError, TypeError) as exc:
        raise PlanFormatError(f"invalid runtime spec: {exc}") from exc


class PlanExecutor:
    """Executes a compiled plan, repeatedly, with no compile-time code."""

    def __init__(self, plan: Union[ExecutionPlan, str, Path],
                 engine: Optional[ExecutionEngine] = None) -> None:
        if not isinstance(plan, ExecutionPlan):
            plan = ExecutionPlan.load(plan)
        self.plan = plan
        self.engine = engine or engine_from_spec(plan.runtime_spec)

    def run(self) -> RunResult:
        """Schedule one inference of the plan's compiled graph."""
        return self.engine.run_plan(self.plan)

    def infer(self, feeds, compiled: bool = True, elide: bool = True,
              max_states: Optional[int] = None):
        """Numerically execute the plan's graph on the given feeds.

        Routes through the engine's compiled-executable cache, so a
        serving loop calling this repeatedly binds the graph once and
        then runs pure kernel dispatch (``compiled=False`` falls back
        to the interpreted oracle).  ``max_states`` caps the pool of
        concurrent execution states.  Concurrent calls are safe and do
        not serialize: each runs on its own pooled state.
        """
        return self.engine.infer(self.plan.graph, feeds,
                                 compiled=compiled, elide=elide,
                                 max_states=max_states)

    def host_stats(self) -> dict:
        """State-pool and concurrency gauges for this plan's engine."""
        return self.engine.host_stats()

    def buffer_stats(self) -> dict:
        """Buffer-plan statistics for the plan's graph.

        Prefers the stats recorded in the plan artifact at compile
        time; recomputes from the graph when the plan predates the
        buffer planner.
        """
        if self.plan.buffer_plan:
            return dict(self.plan.buffer_plan)
        from repro.runtime.bufferplan import plan_buffers
        return plan_buffers(self.plan.graph).stats()
