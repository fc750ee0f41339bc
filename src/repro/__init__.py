"""PIMFlow reproduction: compiler and runtime support for CNN models on
processing-in-memory DRAM (Shin et al., CGO 2023).

Quickstart::

    from repro import PimFlow, PimFlowConfig, build_model

    model = build_model("mobilenet-v2")
    baseline = PimFlow(PimFlowConfig(mechanism="gpu")).run(model)
    pimflow = PimFlow(PimFlowConfig(mechanism="pimflow")).run(model)
    print(baseline.makespan_us / pimflow.makespan_us, "x speedup")

Compile-once/run-many::

    from repro import Compiler, PimFlowConfig, PlanExecutor, build_model

    plan = Compiler(PimFlowConfig(cache_dir=".pimflow_cache")).build_plan(
        build_model("resnet-50"))
    plan.save("resnet50.plan.json")
    result = PlanExecutor("resnet50.plan.json").run()   # no search imports

See :mod:`repro.pimflow` for the toolchain API, :mod:`repro.plan` for
the plan artifact and profile cache, :mod:`repro.transform` for the
graph passes, :mod:`repro.pim` / :mod:`repro.gpu` for the device
simulators, and the ``pimflow`` CLI for the artifact-style workflow.

Top-level names resolve lazily (PEP 562) so that importing a runtime
module — e.g. :mod:`repro.runtime.executor` to serve a saved plan —
never drags the compile-time search subsystem into the process.
"""

from typing import TYPE_CHECKING

__version__ = "1.0.0"

#: Lazy export table: attribute name -> providing module.
_EXPORTS = {
    "Graph": "repro.graph",
    "GraphBuilder": "repro.graph",
    "Node": "repro.graph",
    "TensorInfo": "repro.graph",
    "build_model": "repro.models",
    "list_models": "repro.models",
    "MECHANISMS": "repro.pimflow",
    "CompiledModel": "repro.pimflow",
    "Compiler": "repro.pimflow",
    "PimFlow": "repro.pimflow",
    "PimFlowConfig": "repro.pimflow",
    "run_mechanism": "repro.pimflow",
    "ExecutionPlan": "repro.plan",
    "ProfileCache": "repro.plan",
    "PlanExecutor": "repro.runtime.executor",
}

__all__ = [*_EXPORTS, "__version__"]

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.graph import Graph, GraphBuilder, Node, TensorInfo
    from repro.models import build_model, list_models
    from repro.pimflow import (
        MECHANISMS,
        CompiledModel,
        Compiler,
        PimFlow,
        PimFlowConfig,
        run_mechanism,
    )
    from repro.plan import ExecutionPlan, ProfileCache
    from repro.runtime.executor import PlanExecutor


def __getattr__(name: str):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(_EXPORTS[name])
        value = getattr(module, name)
        globals()[name] = value  # cache: resolve each name at most once
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
