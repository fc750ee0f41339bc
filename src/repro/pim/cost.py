"""Closed-form steady-state cost model for PIM kernels.

The event-driven simulator in :mod:`repro.pim.simulator` executes
explicit command programs; this module computes the same pipeline
analytically so that the execution-mode search (which profiles every
PIM-candidate layer at eleven split ratios) stays fast.  The two are
cross-validated against each other in the test suite.

Program structure per channel tile (rows R, reduction K, outputs N),
following the Newton command semantics (paper Sections 2.1, 4.1):

* Each global buffer holds **one** lowered input vector; K longer than
  the buffer is processed in ``k_tiles`` passes with partial sums
  accumulating in the result latches.
* A *group* is one buffer generation: ``num_gwrite_buffers`` vectors.
  The group issues its GWRITE (one merged GWRITE_2/4 when the extension
  is on, else one command per buffer — or per contiguous run for
  strided layers without the strided-GWRITE extension), the G_ACTs
  opening the filter rows, one COMP burst per vector, and one batched
  READRES on the final pass.  Multiple buffers amortize the G_ACTs and
  command-issue overheads across the group — the paper's
  multiple-global-buffer benefit.
* Buffers are busy until the group's COMPs finish, so the next group's
  GWRITE serializes behind them.  Without latency hiding, the G_ACT
  additionally waits for the GWRITE: the group is fully serial.  With
  GWRITE latency hiding the G_ACT issues asynchronously — PIM banks
  activate rows while data streams from the GPU channels — so each
  steady-state period pays ``comp + max(gwrite + readres, act)``
  instead of ``comp + gwrite + readres + act``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.lowering.im2col import LoweredGemv
from repro.lowering.tiling import ChannelTile, tile_over_channels
from repro.pim.config import PimConfig, PimOptimizations
from repro.pim.timing import cycles_to_us, g_act_cycles, readres_cycles


@dataclass(frozen=True)
class TileCost:
    """Cycles and event counts for one channel's share of a kernel."""

    cycles: int
    activations: int
    comp_ops: int
    macs: int
    gwrite_bytes: int
    readres_bytes: int
    gwrite_commands: int
    readres_commands: int

    @property
    def io_bytes(self) -> int:
        return self.gwrite_bytes + self.readres_bytes


@dataclass(frozen=True)
class GemvCost:
    """Cost of a full lowered GEMV distributed over the PIM channels."""

    cycles: int
    time_us: float
    tiles: List[TileCost]
    channels_used: int

    @property
    def activations(self) -> int:
        return sum(t.activations for t in self.tiles)

    @property
    def comp_ops(self) -> int:
        return sum(t.comp_ops for t in self.tiles)

    @property
    def macs(self) -> int:
        return sum(t.macs for t in self.tiles)

    @property
    def gwrite_bytes(self) -> int:
        return sum(t.gwrite_bytes for t in self.tiles)

    @property
    def readres_bytes(self) -> int:
        return sum(t.readres_bytes for t in self.tiles)

    @property
    def io_bytes(self) -> int:
        return self.gwrite_bytes + self.readres_bytes


def buffer_k_tiles(k: int, config: PimConfig) -> int:
    """Passes needed when the reduction exceeds one buffer's capacity."""
    return math.ceil(k / config.buffer_capacity_elems)


def _gwrite_group(vectors: int, kt_len: int, gemv: LoweredGemv,
                  config: PimConfig, opts: PimOptimizations) -> Tuple[int, int, int]:
    """(cycles, commands, bytes) to load one vector group into the buffers."""
    t = config.timing
    elem = config.elem_bytes
    total_bytes = vectors * kt_len * elem
    if gemv.strided and not opts.strided_gwrite:
        # One GWRITE per contiguous run per vector, each paying t_cl.
        segments = math.ceil(kt_len / max(gemv.contiguous_k, 1))
        commands = vectors * segments
    else:
        # One command per `width` buffers (GWRITE / GWRITE_2 / GWRITE_4).
        commands = math.ceil(vectors / opts.num_gwrite_buffers)
    cycles = (commands * t.t_cl
              + max(1, math.ceil(total_bytes / t.io_bytes_per_cycle)))
    return cycles, commands, total_bytes


def tile_cost(tile: ChannelTile, gemv: LoweredGemv, config: PimConfig,
              opts: PimOptimizations) -> TileCost:
    """Closed-form cycle count for one channel tile."""
    elem = config.elem_bytes
    t = config.timing
    cap = config.buffer_capacity_elems
    k_tiles = buffer_k_tiles(tile.k, config)
    nb = opts.num_gwrite_buffers
    groups = math.ceil(tile.rows / nb)
    hiding = opts.gwrite_latency_hiding

    total_cycles = 0
    activations = 0
    comp_ops_total = 0
    gwrite_bytes = 0
    readres_bytes = 0
    gwrite_commands = 0
    readres_commands = 0

    for kt in range(k_tiles):
        kt_len = min(cap, tile.k - kt * cap)
        last_pass = kt == k_tiles - 1
        num_rows = math.ceil(tile.n * kt_len / config.weights_per_activation)
        ops_per_vector = math.ceil(kt_len * tile.n / config.macs_per_comp)
        act = num_rows * g_act_cycles(config)

        def group_stats(vectors: int):
            """(gw, comp, rr) cycles and (gw_cmds, gw_bytes, rr_cmds,
            rr_bytes) event counts for one vector group."""
            gw, gw_cmds, gw_bytes = _gwrite_group(vectors, kt_len, gemv,
                                                  config, opts)
            comp = ops_per_vector * vectors * t.t_ccd
            rr = rr_bytes = rr_cmds = 0
            if last_pass:
                rr_bytes = vectors * tile.n * elem
                rr = readres_cycles(rr_bytes, config)
                rr_cmds = 1
            return gw, comp, rr, gw_cmds, gw_bytes, rr_cmds, rr_bytes

        tail_vectors = tile.rows - (groups - 1) * nb
        full = group_stats(nb)
        tail = full if tail_vectors == nb else group_stats(tail_vectors)
        gw_f, comp_f, rr_f = full[0], full[1], full[2]
        gw_t, comp_t, rr_t = tail[0], tail[1], tail[2]

        if hiding:
            # COMP_g ends; the io path then drains READRES_g and fills
            # the next group's GWRITE while the compute path
            # asynchronously re-activates rows: each steady-state period
            # costs comp + max(rr + gw, act).
            if groups == 1:
                pass_cycles = max(gw_t, act) + comp_t + rr_t
            else:
                p_full = comp_f + max(rr_f + gw_f, act)
                p_tail = comp_t + max(rr_f + gw_t, act)
                pass_cycles = (max(gw_f, act) + comp_f
                               + (groups - 2) * p_full + p_tail + rr_t)
        else:
            pass_cycles = ((groups - 1) * (gw_f + act + comp_f + rr_f)
                           + gw_t + act + comp_t + rr_t)

        total_cycles += pass_cycles
        activations += num_rows * groups
        comp_ops_total += ops_per_vector * tile.rows
        gwrite_commands += (groups - 1) * full[3] + tail[3]
        gwrite_bytes += (groups - 1) * full[4] + tail[4]
        readres_commands += (groups - 1) * full[5] + tail[5]
        readres_bytes += (groups - 1) * full[6] + tail[6]

    return TileCost(
        cycles=total_cycles,
        activations=activations,
        comp_ops=comp_ops_total,
        macs=tile.rows * tile.k * tile.n,
        gwrite_bytes=gwrite_bytes,
        readres_bytes=readres_bytes,
        gwrite_commands=gwrite_commands,
        readres_commands=readres_commands,
    )


def partial_combine_cycles(gemv: LoweredGemv, config: PimConfig,
                           opts: PimOptimizations) -> int:
    """Extra cycles to sum K-split partial results across channels.

    Zero unless the ``comp`` scheduling granularity split the reduction
    dimension; then the duplicated partial outputs are re-read and
    summed as they stream back.
    """
    tiles = tile_over_channels(gemv, config.num_channels, opts.scheduling)
    return _combine_cycles(tiles, config)


def _combine_cycles(tiles: List[ChannelTile], config: PimConfig) -> int:
    """:func:`partial_combine_cycles` over an already-built tiling."""
    partial_outputs = sum(t.n for t in tiles if t.partial)
    if not partial_outputs:
        return 0
    return readres_cycles(partial_outputs * config.elem_bytes, config)


def gemv_cost(gemv: LoweredGemv, config: PimConfig,
              opts: PimOptimizations) -> GemvCost:
    """Cost of a lowered GEMV over all PIM channels.

    Kernel latency is the slowest channel's cycles (channels run
    independently) plus the fixed kernel launch overhead; partial-sum
    tiles add a combine read of the duplicated partial outputs.

    :func:`tile_cost` depends only on a tile's ``(rows, k, n)``, and the
    even channel split yields at most a few distinct shapes, so each
    shape is priced once and its :class:`TileCost` reused in tile order.
    """
    tiles = tile_over_channels(gemv, config.num_channels, opts.scheduling)
    priced: Dict[Tuple[int, int, int], TileCost] = {}
    costs = []
    for t in tiles:
        shape = (t.rows, t.k, t.n)
        cost = priced.get(shape)
        if cost is None:
            cost = priced[shape] = tile_cost(t, gemv, config, opts)
        costs.append(cost)
    per_channel: dict = {}
    for t, c in zip(tiles, costs):
        per_channel[t.channel] = per_channel.get(t.channel, 0) + c.cycles
    worst = max(per_channel.values())
    worst += _combine_cycles(tiles, config)
    # Periodic refresh steals a fixed fraction of channel cycles.
    worst = int(worst * (1.0 + config.timing.refresh_overhead))
    time_us = cycles_to_us(worst, config) + config.launch_overhead_us
    return GemvCost(cycles=worst, time_us=time_us, tiles=costs,
                    channels_used=len(per_channel))
