"""Runtime: numerical reference executor, the buffer-planned compiled
executor, the mixed-parallel engine, and the plan-driven executor for
compiled artifacts."""

from repro.runtime.numerical import execute, execute_node
from repro.runtime.bufferplan import BufferPlan, plan_buffers
from repro.runtime.compiled import CompiledExecutable, ExecutionState
from repro.runtime.engine import ExecutionEngine, ScheduleEvent, RunResult
from repro.runtime.executor import PlanExecutor, engine_from_spec
from repro.runtime.hostpool import StatePool, StatePoolTimeout
from repro.runtime.verify import EquivalenceError, random_feeds, verify_equivalence

__all__ = [
    "execute",
    "execute_node",
    "BufferPlan",
    "plan_buffers",
    "CompiledExecutable",
    "ExecutionState",
    "ExecutionEngine",
    "ScheduleEvent",
    "RunResult",
    "PlanExecutor",
    "engine_from_spec",
    "StatePool",
    "StatePoolTimeout",
    "EquivalenceError",
    "random_feeds",
    "verify_equivalence",
]
