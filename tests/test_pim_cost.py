"""Tests for the closed-form PIM cost model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lowering.im2col import LoweredGemv
from repro.lowering.tiling import tile_over_channels
from repro.pim.config import (
    NEWTON,
    NEWTON_PLUS,
    NEWTON_PLUS_PLUS,
    PimConfig,
    PimOptimizations,
)
from repro.pim.cost import (
    buffer_k_tiles,
    gemv_cost,
    partial_combine_cycles,
    tile_cost,
)
from repro.pim.timing import cycles_to_us


def _gemv(rows=64, k=128, n=64, strided=False, contiguous_k=None):
    return LoweredGemv(rows=rows, k=k, n=n,
                       contiguous_k=contiguous_k or (8 if strided else k),
                       strided=strided)


CFG = PimConfig()


class TestBufferKTiles:
    def test_short_vector_single_pass(self):
        assert buffer_k_tiles(32, CFG) == 1

    def test_exact_fit(self):
        assert buffer_k_tiles(CFG.buffer_capacity_elems, CFG) == 1

    def test_long_vectors_tile(self):
        assert buffer_k_tiles(3 * CFG.buffer_capacity_elems + 5, CFG) == 4


class TestOptimizationEffects:
    def test_latency_hiding_helps(self):
        base = PimOptimizations(num_gwrite_buffers=1, gwrite_latency_hiding=False)
        hide = PimOptimizations(num_gwrite_buffers=1, gwrite_latency_hiding=True)
        gemv = _gemv(rows=512, k=1024, n=64)
        assert gemv_cost(gemv, CFG, hide).cycles < gemv_cost(gemv, CFG, base).cycles

    def test_multi_buffer_reduces_activations(self):
        # Multi-row filter sets re-activate per group; 4 buffers divide
        # the group count by 4.
        gemv = _gemv(rows=256, k=2048, n=512)
        one = gemv_cost(gemv, CFG, PimOptimizations(num_gwrite_buffers=1))
        four = gemv_cost(gemv, CFG, PimOptimizations(num_gwrite_buffers=4))
        assert four.activations < one.activations
        assert four.cycles < one.cycles

    def test_strided_gwrite_helps_strided_layers(self):
        gemv = _gemv(rows=128, k=576, n=64, strided=True, contiguous_k=64)
        base = PimOptimizations(strided_gwrite=False)
        ext = PimOptimizations(strided_gwrite=True)
        assert gemv_cost(gemv, CFG, ext).cycles < gemv_cost(gemv, CFG, base).cycles

    def test_strided_gwrite_noop_for_pointwise(self):
        gemv = _gemv(strided=False)
        base = PimOptimizations(strided_gwrite=False)
        ext = PimOptimizations(strided_gwrite=True)
        assert gemv_cost(gemv, CFG, ext).cycles == gemv_cost(gemv, CFG, base).cycles

    def test_newton_ordering(self):
        """Newton <= Newton+ <= Newton++ in speed (paper Fig. 9/14)."""
        gemv = _gemv(rows=196, k=192, n=80)
        t_newton = gemv_cost(gemv, CFG, NEWTON).cycles
        t_plus = gemv_cost(gemv, CFG, NEWTON_PLUS).cycles
        t_pp = gemv_cost(gemv, CFG, NEWTON_PLUS_PLUS).cycles
        assert t_pp < t_plus <= t_newton

    def test_optimizations_compose(self):
        """Fig. 14: each opt helps alone; both help more."""
        gemv = _gemv(rows=512, k=2048, n=256)
        base = gemv_cost(gemv, CFG, PimOptimizations()).cycles
        hide = gemv_cost(gemv, CFG, PimOptimizations(
            gwrite_latency_hiding=True)).cycles
        multi = gemv_cost(gemv, CFG, PimOptimizations(
            num_gwrite_buffers=4)).cycles
        both = gemv_cost(gemv, CFG, PimOptimizations(
            num_gwrite_buffers=4, gwrite_latency_hiding=True)).cycles
        assert hide < base
        assert multi < base
        assert both <= min(hide, multi)


class TestScaling:
    def test_more_channels_not_slower(self):
        gemv = _gemv(rows=256, k=512, n=256)
        t8 = gemv_cost(gemv, CFG.with_channels(8), NEWTON_PLUS_PLUS).cycles
        t16 = gemv_cost(gemv, CFG.with_channels(16), NEWTON_PLUS_PLUS).cycles
        t32 = gemv_cost(gemv, CFG.with_channels(32), NEWTON_PLUS_PLUS).cycles
        assert t32 <= t16 <= t8

    def test_cycles_scale_with_rows(self):
        small = gemv_cost(_gemv(rows=64), CFG, NEWTON_PLUS_PLUS).cycles
        big = gemv_cost(_gemv(rows=640), CFG, NEWTON_PLUS_PLUS).cycles
        assert big > 5 * small

    def test_macs_conserved(self):
        gemv = _gemv(rows=100, k=200, n=33)
        cost = gemv_cost(gemv, CFG, NEWTON_PLUS_PLUS)
        assert cost.macs == gemv.macs

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.integers(1, 2000),
        k=st.integers(16, 4096),
        n=st.integers(1, 2048),
        nb=st.sampled_from([1, 2, 4]),
        hiding=st.booleans(),
        strided=st.booleans(),
    )
    def test_property_positive_and_conserving(self, rows, k, n, nb, hiding,
                                              strided):
        gemv = LoweredGemv(rows=rows, k=k, n=n,
                           contiguous_k=16 if strided else k, strided=strided)
        opts = PimOptimizations(num_gwrite_buffers=nb,
                                gwrite_latency_hiding=hiding,
                                strided_gwrite=False)
        cost = gemv_cost(gemv, CFG, opts)
        assert cost.cycles > 0
        assert cost.time_us > 0
        assert cost.macs == gemv.macs
        assert cost.activations >= 1
        # Every input element crosses the IO path at least once per
        # channel it is needed on.
        assert cost.gwrite_bytes >= rows * k * CFG.elem_bytes


class TestTileCost:
    def test_single_tile_stats(self):
        gemv = _gemv(rows=10, k=64, n=16)
        tiles = tile_over_channels(gemv, 16, "comp")
        cost = tile_cost(tiles[0], gemv, CFG, NEWTON_PLUS_PLUS)
        assert cost.macs == tiles[0].macs
        assert cost.readres_bytes == 10 * tiles[0].n * CFG.elem_bytes

    def test_one_activation_set_per_group(self):
        # Small filter slice (one DRAM row) still re-activates once per
        # vector group: the documented GWRITE-G_ACT-COMP-READRES order.
        gemv = _gemv(rows=1000, k=32, n=16)
        tiles = tile_over_channels(gemv, 16, "comp")
        cost = tile_cost(tiles[0], gemv, CFG, NEWTON_PLUS)
        assert cost.activations == 1000  # nb=1: one group per vector

    def test_multi_buffer_divides_activations_by_four(self):
        gemv = _gemv(rows=1000, k=32, n=16)
        tiles = tile_over_channels(gemv, 16, "comp")
        one = tile_cost(tiles[0], gemv, CFG, PimOptimizations())
        four = tile_cost(tiles[0], gemv, CFG,
                         PimOptimizations(num_gwrite_buffers=4))
        assert four.activations * 4 == one.activations

    def test_multirow_reactivates_per_group(self):
        gemv = _gemv(rows=64, k=2048, n=2048)
        tiles = tile_over_channels(gemv, 16, "comp")
        opts = PimOptimizations(num_gwrite_buffers=1)
        cost = tile_cost(tiles[0], gemv, CFG, opts)
        assert cost.activations > 64


def _priced_per_tile(gemv, config, opts):
    """Reference: every tile priced on its own, aggregated as gemv_cost
    documents (slowest channel + partial combine, then refresh)."""
    tiles = tile_over_channels(gemv, config.num_channels, opts.scheduling)
    costs = [tile_cost(t, gemv, config, opts) for t in tiles]
    per_channel = {}
    for t, c in zip(tiles, costs):
        per_channel[t.channel] = per_channel.get(t.channel, 0) + c.cycles
    worst = (max(per_channel.values())
             + partial_combine_cycles(gemv, config, opts))
    worst = int(worst * (1.0 + config.timing.refresh_overhead))
    return costs, worst, cycles_to_us(worst, config) + config.launch_overhead_us


class TestTileDedup:
    """gemv_cost prices each distinct tile shape once; the result must be
    exactly the per-tile pricing, tile for tile."""

    SHAPES = [
        # (rows, k, n): comp K-split partial tiles (n < channels) with
        # even and uneven K shares, multi-pass K, uneven column shares,
        # tail vector groups, and single-row GEMVs.
        (1, 4096, 1), (1, 25088, 4), (3, 1000, 7), (7, 96, 2),
        (49, 4608, 5), (1, 512, 256), (5, 2048, 1000), (10, 64, 16),
        (196, 1152, 17), (1, 9999, 4096), (64, 128, 33), (2, 16, 3),
        (3, 1001, 7), (1, 999, 3),
    ]

    def test_tiles_and_totals_match_per_tile_pricing(self):
        configs = [CFG, CFG.with_channels(24), CFG.with_channels(5)]
        opts_list = [
            NEWTON, NEWTON_PLUS, NEWTON_PLUS_PLUS,
            PimOptimizations(num_gwrite_buffers=2, scheduling="g_act"),
            PimOptimizations(num_gwrite_buffers=4, scheduling="readres",
                             gwrite_latency_hiding=True),
        ]
        partial_seen = False
        for rows, k, n in self.SHAPES:
            for strided in (False, True):
                gemv = _gemv(rows=rows, k=k, n=n, strided=strided)
                for config in configs:
                    for opts in opts_list:
                        tiles = tile_over_channels(
                            gemv, config.num_channels, opts.scheduling)
                        partial_seen |= any(t.partial for t in tiles)
                        costs, cycles, time_us = _priced_per_tile(
                            gemv, config, opts)
                        got = gemv_cost(gemv, config, opts)
                        key = (rows, k, n, strided, config.num_channels,
                               opts)
                        assert got.tiles == costs, key
                        assert got.cycles == cycles, key
                        assert got.time_us == time_us, key
        assert partial_seen

    def test_shared_cost_per_distinct_shape(self):
        gemv = _gemv(rows=49, k=4608, n=5)
        tiles = tile_over_channels(gemv, CFG.num_channels, "comp")
        got = gemv_cost(gemv, CFG, NEWTON_PLUS_PLUS)
        distinct = {(t.rows, t.k, t.n) for t in tiles}
        assert len(tiles) > len(distinct)
        assert len({id(c) for c in got.tiles}) == len(distinct)
