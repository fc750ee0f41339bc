"""Mixed-parallel execution engine.

The engine is the runtime half of PIMFlow: it takes a transformed graph
whose nodes carry device placements (``node.device``) and computes the
end-to-end schedule with GPU and PIM executing in parallel, respecting
dataflow dependencies.  This generic two-resource list scheduler covers
all three execution models of the paper:

* **Heterogeneous parallel** — nodes placed wholly on one device run
  back-to-back; offloaded nodes simply move to the PIM timeline.
* **MD-DP** — the split halves of a node sit on different devices with
  no mutual dependency, so they overlap.
* **Pipelined** — the per-stage pieces created by the pipelining pass
  form a dependency diamond; the scheduler overlaps stage ``s`` of one
  node with stage ``s+1`` of its producer automatically.

Nodes elided by the memory-layout optimizer (Slice/Concat/Pad with the
``elided`` attribute) occupy no device time.  Cross-device dependency
edges pay a fixed synchronization cost; the bulk data transfer itself
is already priced inside the PIM command model (GWRITE/READRES stream
over the inter-channel network).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.energy.accumulator import EnergyBreakdown
from repro.graph.graph import Graph
from repro.graph.node import Node
from repro.graph.ops import is_pim_candidate
from repro.gpu.device import GpuDevice
from repro.pim.device import PimDevice

#: Fixed cost of a GPU<->PIM synchronization at a dependency edge.
SYNC_OVERHEAD_US = 0.5

#: Compiled executables an engine keeps bound at once.  Each entry
#: holds a full arena (tens of MB for ImageNet-scale models), so the
#: cap bounds resident memory when one engine serves many graphs; the
#: serving layer's model repository adds its own per-model LRU above
#: this.
EXECUTABLE_CACHE_CAP = 8


@dataclass(frozen=True)
class ScheduleEvent:
    """One node's placement in the schedule."""

    node: str
    op_type: str
    device: str
    start_us: float
    finish_us: float

    @property
    def duration_us(self) -> float:
        return self.finish_us - self.start_us


@dataclass
class RunResult:
    """Outcome of scheduling one inference."""

    makespan_us: float
    events: List[ScheduleEvent]
    energy: EnergyBreakdown
    gpu_busy_us: float = 0.0
    pim_busy_us: float = 0.0
    #: Lazily built name->event index; benchmarks call :meth:`event`
    #: per node in tight loops, so lookups must not rescan the list.
    _event_index: Optional[Dict[str, ScheduleEvent]] = field(
        default=None, repr=False, compare=False)

    def event(self, node_name: str) -> ScheduleEvent:
        if self._event_index is None or len(self._event_index) != len(self.events):
            self._event_index = {e.node: e for e in self.events}
        try:
            return self._event_index[node_name]
        except KeyError:
            raise KeyError(f"no schedule event for node {node_name!r}") from None

    @property
    def overlap_us(self) -> float:
        """Time both devices were busy (upper-bounded by busy times)."""
        return max(0.0, self.gpu_busy_us + self.pim_busy_us - self.makespan_us)


class ExecutionEngine:
    """Schedules transformed graphs over one GPU and one PIM device.

    Engines are plain picklable objects (device configs and energy
    models are dataclasses; there are no open handles), and
    :meth:`to_spec` emits the JSON-compatible description that
    :func:`repro.runtime.executor.engine_from_spec` rebuilds an
    identical engine from — the contract the plan artifact relies on.
    """

    def __init__(self, gpu: GpuDevice, pim: Optional[PimDevice] = None,
                 sync_overhead_us: float = SYNC_OVERHEAD_US,
                 host_io: bool = False,
                 pcie_bytes_per_us: float = 16e3,
                 executable_cache_cap: int = EXECUTABLE_CACHE_CAP) -> None:
        self.gpu = gpu
        self.pim = pim
        self.sync_overhead_us = sync_overhead_us
        #: Charge host<->device transfers over PCIe for graph inputs and
        #: outputs (paper Fig. 4 steps: data arrives from host memory
        #: and results return for host-side consumers).  Off by default:
        #: the evaluation reports on-device inference time.
        self.host_io = host_io
        self.pcie_bytes_per_us = pcie_bytes_per_us
        #: Simulator invocations served by this engine.  The profile
        #: cache's zero-reprofiling guarantee is asserted against this
        #: counter in the test suite.
        self.run_count = 0
        #: Host-side compiled executables: a bounded LRU keyed
        #: (id(graph), graph.version, elide), guarded by
        #: ``_compiled_lock`` so concurrent :meth:`infer` calls from
        #: server workers never race the map.  Holds closures, so it is
        #: dropped on pickling (see :meth:`__getstate__`) and rebuilt
        #: on demand.
        self.executable_cache_cap = max(1, int(executable_cache_cap))
        self._compiled_cache: "OrderedDict[tuple, object]" = OrderedDict()
        self._compiled_lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_compiled_cache"] = OrderedDict()
        del state["_compiled_lock"]  # locks don't pickle; rebuilt below
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._compiled_lock = threading.Lock()

    def to_spec(self) -> Dict[str, object]:
        """Serializable engine description, sufficient to rebuild an
        engine that prices every kernel identically (see
        :func:`repro.runtime.executor.engine_from_spec`)."""
        return {
            "write_through": self.gpu.write_through,
            "gpu_config": asdict(self.gpu.config),
            "pim_config": asdict(self.pim.config) if self.pim else None,
            "pim_opts": asdict(self.pim.opts) if self.pim else None,
            "sync_overhead_us": self.sync_overhead_us,
            "host_io": self.host_io,
            "pcie_bytes_per_us": self.pcie_bytes_per_us,
        }

    def _placement(self, node: Node, graph: Graph) -> str:
        if node.device != "pim":
            return "gpu"
        input_shapes = [graph.tensors[t].shape for t in node.inputs]
        if self.pim is None or not is_pim_candidate(node, input_shapes):
            return "gpu"
        return "pim"

    def run_plan(self, plan) -> RunResult:
        """Execute a compiled :class:`~repro.plan.artifact.ExecutionPlan`.

        The plan's graph already carries all device placements and
        transformations, so this is a pure runtime operation — no
        search-phase code is touched.
        """
        return self.run(plan.graph)

    def infer(self, graph: Graph, feeds, compiled: bool = True,
              elide: bool = True, max_states: Optional[int] = None):
        """Run one *numerical* inference of ``graph`` on the host.

        Where :meth:`run` prices a schedule on the modelled devices,
        this actually computes the outputs.  The buffer-planned
        :class:`~repro.runtime.compiled.CompiledExecutable` is the
        default path; ``compiled=False`` falls back to the interpreted
        :func:`~repro.runtime.numerical.execute` oracle.  Executables
        are cached per (graph identity, version, elide, max_states) so
        repeat inference pays binding cost once.

        ``max_states`` caps the executable's pool of concurrent
        execution states.  Calls are thread-safe without serializing —
        concurrent callers run on distinct pooled states.
        """
        if not compiled:
            from repro.runtime.numerical import execute
            return execute(graph, feeds)
        return self.executable(graph, elide=elide,
                               max_states=max_states).run(feeds)

    def executable(self, graph: Graph, elide: bool = True,
                   max_states: Optional[int] = None):
        """The cached :class:`~repro.runtime.compiled.CompiledExecutable`
        for ``graph``, binding one on a miss.

        Thread-safe: the LRU map is lock-guarded, and the (expensive)
        binding runs outside the lock — two workers missing on the same
        key may both bind, but the first insert wins and both results
        are equivalent.  The cache is capped at
        :attr:`executable_cache_cap` entries, least-recently-used
        evicted first.
        """
        from repro.runtime.compiled import CompiledExecutable
        key = (id(graph), graph.version, elide, max_states)
        with self._compiled_lock:
            exe = self._compiled_cache.get(key)
            if exe is not None:
                self._compiled_cache.move_to_end(key)
                return exe
        built = CompiledExecutable(graph, elide=elide,
                                   max_states=max_states)
        with self._compiled_lock:
            exe = self._compiled_cache.get(key)
            if exe is None:
                # Old entries for this graph object are stale once the
                # version moves; drop them so repeated in-place
                # transforms never accumulate dead executables.
                for k in [k for k in self._compiled_cache
                          if k[0] == id(graph) and k[1] != graph.version]:
                    del self._compiled_cache[k]
                self._compiled_cache[key] = exe = built
            self._compiled_cache.move_to_end(key)
            while len(self._compiled_cache) > self.executable_cache_cap:
                self._compiled_cache.popitem(last=False)
        return exe

    def executable_cache_stats(self) -> Dict[str, int]:
        with self._compiled_lock:
            return {"entries": len(self._compiled_cache),
                    "cap": self.executable_cache_cap}

    def host_stats(self) -> Dict[str, object]:
        """Aggregate state-pool gauges across all cached executables.

        The serving layer surfaces this as its host-concurrency view:
        how many execution states are bound, the high-water mark of
        simultaneous in-flight runs, and how often an acquire had to
        wait for a state (contention).  Also carries the per-kind step
        census (``step_kinds``).
        """
        with self._compiled_lock:
            exes = list(self._compiled_cache.values())
        agg: Dict[str, object] = {
            "executables": len(exes), "programs": 0, "states_bound": 0,
            "in_use": 0, "peak_in_use": 0, "acquires": 0, "waits": 0,
            "step_kinds": {}}
        kinds: Dict[str, int] = agg["step_kinds"]
        for exe in exes:
            s = exe.pool_stats()
            agg["programs"] += s["programs"]
            agg["states_bound"] += s["states_bound"]
            agg["in_use"] += s["in_use"]
            agg["peak_in_use"] = max(agg["peak_in_use"], s["peak_in_use"])
            agg["acquires"] += s["acquires"]
            agg["waits"] += s["waits"]
            for kind, count in (s.get("step_kinds") or {}).items():
                kinds[kind] = max(kinds.get(kind, 0), count)
        return agg

    def run(self, graph: Graph) -> RunResult:
        """Compute the parallel schedule and energy for one inference."""
        self.run_count += 1
        device_free = {"gpu": 0.0, "pim": 0.0}
        busy = {"gpu": 0.0, "pim": 0.0}
        tensor_ready: Dict[str, float] = {}
        tensor_device: Dict[str, str] = {}
        for t in graph.inputs:
            ready = 0.0
            if self.host_io:
                ready = graph.tensors[t].num_bytes / self.pcie_bytes_per_us
            tensor_ready[t] = ready
            tensor_device[t] = "gpu"
        for t in graph.initializers:
            tensor_ready[t] = 0.0
            tensor_device[t] = "any"

        energy = EnergyBreakdown()
        events: List[ScheduleEvent] = []

        for node in graph.toposort():
            device = self._placement(node, graph)
            elided = bool(node.attr("elided", False))

            ready = 0.0
            for t in node.inputs:
                t_ready = tensor_ready[t]
                src = tensor_device.get(t, "gpu")
                if not elided and src not in ("any", device):
                    t_ready += self.sync_overhead_us
                ready = max(ready, t_ready)

            if elided:
                # Zero-cost view change: output is ready when inputs are,
                # no device occupancy.
                start = finish = ready
                out_device = tensor_device.get(node.inputs[0], "gpu")
            else:
                if device == "gpu":
                    cost = self.gpu.run_node(node, graph)
                    duration = cost.time_us
                    energy.gpu_dynamic_mj += self.gpu.energy_model.dynamic_mj(
                        cost.flops, cost.dram_bytes)
                else:
                    cost = self.pim.run_node(node, graph)
                    duration = cost.time_us
                    energy.pim_dynamic_mj += self.pim.energy_model.dynamic_mj(
                        cost.activations, cost.macs, cost.gwrite_bytes,
                        cost.io_bytes)
                    if node.attr("activation"):
                        # Newton's MAC-only PIM cannot run activation
                        # functions; the fused epilogue executes as a GPU
                        # elementwise pass over the returned results
                        # (paper Fig. 4, steps 3-4).
                        out_bytes = sum(graph.tensors[t].num_bytes
                                        for t in node.outputs)
                        bw = self.gpu.config.bandwidth_bytes_per_us * 0.85
                        epilogue = (2.0 * out_bytes / bw
                                    + self.gpu.config.fused_launch_overhead_us)
                        duration += epilogue
                        energy.gpu_dynamic_mj += self.gpu.energy_model.dynamic_mj(
                            float(out_bytes) / 2.0, 2.0 * out_bytes)
                start = max(ready, device_free[device])
                finish = start + duration
                device_free[device] = finish
                busy[device] += duration
                out_device = device

            for t in node.outputs:
                tensor_ready[t] = finish
                tensor_device[t] = out_device
            events.append(ScheduleEvent(node.name, node.op_type, out_device if not elided else "none",
                                        start, finish))

        makespan = max((tensor_ready[t] for t in graph.outputs), default=0.0)
        if self.host_io:
            out_bytes = sum(graph.tensors[t].num_bytes for t in graph.outputs)
            makespan += out_bytes / self.pcie_bytes_per_us
        energy.gpu_static_mj = self.gpu.energy_model.static_mj(makespan)
        if self.pim is not None:
            energy.pim_static_mj = self.pim.energy_model.static_mj(
                makespan, self.pim.config.num_channels)
        return RunResult(makespan_us=makespan, events=events, energy=energy,
                         gpu_busy_us=busy["gpu"], pim_busy_us=busy["pim"])
