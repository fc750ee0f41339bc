"""Intra-operator GEMM sharding suite (:mod:`repro.runtime.gemmpar`).

Three layers of coverage:

* **Planner properties** — :func:`plan_row_panels` must cover exactly
  ``0..m`` with ordered, aligned, floor-respecting panels, and must
  refuse every split the byte-identity argument cannot defend (GEMV
  shapes, sub-floor panels, misaligned row counts).
* **Kernel byte-identity** — :func:`panel_matmul` against one whole
  ``np.matmul`` on adversarial shapes: accumulation-order-sensitive
  f32 data, strided im2col-style views, K=1, M smaller than the shard
  width.  Bitwise ``tobytes()`` equality, never ``allclose``.
* **Executor byte-identity** — every registry model through
  :class:`CompiledExecutable` at worker widths {1, 2, 4} (and forced
  panels at width 1) against the interpreted oracle, plus the serve
  path with ``gemm_shards`` set.
"""

import os

import numpy as np
import pytest

from repro.models import build_model, list_models
from repro.runtime.compiled import CompiledExecutable
from repro.runtime.gemmpar import (
    DEFAULT_MIN_PANEL_ELEMS,
    DEFAULT_MIN_PANEL_ROWS,
    ShardPolicy,
    conv_row_segments,
    panel_matmul,
    plan_row_panels,
    shard_ranges,
)
from repro.runtime.numerical import execute
from repro.runtime.verify import random_feeds

#: A policy with the safety floors dropped to minimums, so planner
#: structure (coverage, alignment, width capping) can be tested on
#: small shapes without triggering the profitability collapse.
TINY = ShardPolicy(min_panel_elems=1, min_panel_rows=1)


def _order_sensitive(shape, seed):
    """f32 data whose summation is order-sensitive: values spanning
    ~8 decades, positive and negative, so any change in accumulation
    order flips low-order mantissa bits."""
    rng = np.random.default_rng(seed)
    mag = rng.uniform(-4.0, 4.0, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return (sign * 10.0 ** mag).astype(np.float32)


class TestShardRanges:
    def test_covers_and_orders(self):
        for n in (1, 5, 16, 97):
            for shards in (1, 2, 3, 8, n + 3):
                ranges = shard_ranges(n, shards)
                assert ranges[0][0] == 0 and ranges[-1][1] == n
                for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
                    assert a1 == b0 and a0 < a1 and b0 < b1

    def test_never_empty_slices(self):
        assert shard_ranges(3, 8) == [(0, 1), (1, 2), (2, 3)]


class TestPlanRowPanels:
    def test_covers_m_exactly_in_order(self):
        panels = plan_row_panels(4096, 64, 64, 4, TINY)
        assert len(panels) == 4
        assert panels[0][0] == 0 and panels[-1][1] == 4096
        for (a0, a1), (b0, b1) in zip(panels, panels[1:]):
            assert a1 == b0

    def test_width_one_is_single_panel(self):
        assert plan_row_panels(4096, 64, 64, 1, TINY) == [(0, 4096)]

    def test_n_below_two_never_shards(self):
        # N==1 products are GEMV-shaped at any size: never split.
        assert plan_row_panels(1 << 20, 512, 1, 8, TINY) == [(0, 1 << 20)]

    def test_m_smaller_than_width_caps_shards(self):
        panels = plan_row_panels(3, 64, 64, 8, TINY)
        assert panels == [(0, 1), (1, 2), (2, 3)]

    def test_row_floor_collapses_small_m(self):
        # 24 rows / 2 shards = 12 < 16-row floor: stay whole.
        policy = ShardPolicy(min_panel_elems=1)
        assert plan_row_panels(24, 512, 512, 2, policy) == [(0, 24)]
        # 32 rows / 2 shards = 16: exactly at the floor, split allowed.
        assert len(plan_row_panels(32, 512, 512, 2, policy)) == 2

    def test_flops_floor_reduces_shard_count(self):
        # Each panel must carry >= min_panel_elems MACs; the planner
        # backs off the shard count instead of emitting tiny panels.
        policy = ShardPolicy(min_panel_elems=DEFAULT_MIN_PANEL_ELEMS,
                             min_panel_rows=1)
        m, k, n = 4096, 32, 32  # total 4.2e6 MACs: room for 2 panels
        panels = plan_row_panels(m, k, n, 8, policy)
        assert len(panels) == 2
        for m0, m1 in panels:
            assert (m1 - m0) * k * n >= DEFAULT_MIN_PANEL_ELEMS

    def test_alignment_respected(self):
        panels = plan_row_panels(7 * 13, 64, 64, 4, TINY, align=13)
        for m0, m1 in panels:
            assert m0 % 13 == 0 and m1 % 13 == 0
        assert panels[-1][1] == 7 * 13

    def test_misaligned_m_falls_back_to_unit_alignment(self):
        # m not divisible by align: alignment is abandoned, not broken.
        panels = plan_row_panels(100, 64, 64, 4, TINY, align=13)
        assert panels[0][0] == 0 and panels[-1][1] == 100

    def test_zero_rows_degenerate(self):
        assert plan_row_panels(0, 64, 64, 4, TINY) == [(0, 0)]


class TestConvRowSegments:
    def test_single_image_span(self):
        assert conv_row_segments(0, 14, 7, 2) == [(0, 0, 7)]

    def test_crosses_image_boundary(self):
        # oh=4, ow=3: rows 9..21 are image 0 y=3..4 then image 1 y=0..3.
        assert conv_row_segments(9, 21, 4, 3) == [(0, 3, 4), (1, 0, 3)]

    def test_panels_tile_the_batch(self):
        oh, ow, images = 5, 3, 4
        m = images * oh * ow
        covered = set()
        for m0, m1 in plan_row_panels(m, 8, 8, 4, TINY, align=ow):
            for img, y0, y1 in conv_row_segments(m0, m1, oh, ow):
                for y in range(y0, y1):
                    key = (img, y)
                    assert key not in covered, "overlapping write boxes"
                    covered.add(key)
        assert len(covered) == images * oh


class TestPanelMatmulByteIdentity:
    """Bitwise equality of the panelled kernel with one np.matmul."""

    def _check(self, a, b, width, policy=None, align=1):
        ref = np.matmul(a, b)
        got = panel_matmul(a, b, width=width, policy=policy, align=align)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("width", [2, 3, 4, 8])
    def test_order_sensitive_f32(self, width):
        a = _order_sensitive((512, 192), seed=1)
        b = _order_sensitive((192, 128), seed=2)
        self._check(a, b, width)

    def test_k_equals_one(self):
        a = _order_sensitive((4096, 1), seed=3)
        b = _order_sensitive((1, 64), seed=4)
        self._check(a, b, 4, policy=TINY)

    def test_m_below_width_collapses_under_default_floors(self):
        # M=1 panels dispatch to GEMV (different bits); the default
        # row floor must refuse the split, and the collapsed single
        # panel is trivially byte-identical.
        a = _order_sensitive((3, 64), seed=5)
        b = _order_sensitive((64, 32), seed=6)
        assert plan_row_panels(3, 64, 32, 8) == [(0, 3)]
        self._check(a, b, 8)

    def test_strided_im2col_style_view(self):
        # A non-contiguous A, as the executor's im2col window views
        # are: every other row of a larger buffer.
        base = _order_sensitive((1024, 192), seed=7)
        a = base[::2]
        assert not a.flags.c_contiguous
        b = _order_sensitive((192, 128), seed=8)
        self._check(a, b, 4)

    def test_aligned_panels(self):
        a = _order_sensitive((28 * 28, 288), seed=9)
        b = _order_sensitive((288, 64), seed=10)
        self._check(a, b, 4, align=28)

    def test_default_floors_above_blas_cutover(self):
        # The floors this suite relies on must keep margin over the
        # empirically observed OpenBLAS small-kernel cutover (~1e6).
        assert DEFAULT_MIN_PANEL_ELEMS >= 2_000_000
        assert DEFAULT_MIN_PANEL_ROWS >= 2


class TestShardPolicy:
    def test_from_env_unset_is_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_GEMM_SHARDS", raising=False)
        assert ShardPolicy.from_env() == ShardPolicy()

    def test_from_env_parses_int(self, monkeypatch):
        monkeypatch.setenv("REPRO_GEMM_SHARDS", "4")
        assert ShardPolicy.from_env().gemm_shards == 4

    @pytest.mark.parametrize("raw", ["x", "-1", "2.5"])
    def test_from_env_ignores_garbage(self, monkeypatch, raw):
        # Like REPRO_HOST_WORKERS: a broken env var never
        # aborts an inference; it falls back to the default policy.
        monkeypatch.setenv("REPRO_GEMM_SHARDS", raw)
        assert ShardPolicy.from_env() == ShardPolicy()

    def test_resolve_width(self):
        assert ShardPolicy().resolve_gemm_width(4) == 4
        assert ShardPolicy(gemm_shards=1).resolve_gemm_width(4) == 1
        assert ShardPolicy(gemm_shards=6).resolve_gemm_width(1) == 6
        cores = max(1, os.cpu_count() or 1)
        assert ShardPolicy(gemm_shards=0).resolve_gemm_width(1) == cores

    def test_with_gemm_shards(self):
        p = ShardPolicy()
        assert p.with_gemm_shards(None) is p
        assert p.with_gemm_shards(3).gemm_shards == 3

    def test_pimflow_config_shard_policy(self):
        from repro.pimflow import PimFlowConfig
        assert PimFlowConfig(gemm_shards=2).shard_policy().gemm_shards == 2


class TestExecutorByteIdentity:
    """Sharded compiled execution against the interpreted oracle."""

    @pytest.mark.parametrize("model", list_models())
    def test_registry_models_across_widths(self, model):
        graph = build_model(model)
        feeds = random_feeds(graph, seed=0)
        ref = execute(graph, feeds)
        # workers=1 + forced panels exercises the serial panel loop;
        # workers=2/4 run panels on the pool in nondeterministic order.
        configs = [
            dict(workers=1, policy=ShardPolicy(gemm_shards=4)),
            dict(workers=2),
            dict(workers=4),
        ]
        for kw in configs:
            exe = CompiledExecutable(graph, **kw)
            out = exe.run(feeds)
            for name in ref:
                assert ref[name].tobytes() == out[name].tobytes(), \
                    f"{model}/{name} differs under {kw}"

    @pytest.mark.parametrize("model", ["resnet-50", "shufflenet-v2"])
    def test_batch8_sharded(self, model):
        graph = build_model(model)
        feeds = random_feeds(graph, seed=0, batch=8)
        ref = execute(graph, feeds)
        exe = CompiledExecutable(graph, workers=4)
        out = exe.run(feeds)
        for name in ref:
            assert ref[name].tobytes() == out[name].tobytes()
        stats = exe.pool_stats()
        assert stats["gemm_sharded_steps"] > 0
        assert stats["gemm_shard_max"] > 1

    def test_repeat_runs_stable(self):
        # Pool dispatch order varies run to run; bytes must not.
        graph = build_model("resnet-18")
        feeds = random_feeds(graph, seed=1)
        exe = CompiledExecutable(graph, workers=4)
        first = exe.run(feeds)
        for _ in range(3):
            again = exe.run(feeds)
            for name in first:
                assert first[name].tobytes() == again[name].tobytes()


class TestServePath:
    def test_server_with_gemm_shards_is_byte_identical(self, toy_plan):
        from repro.runtime.executor import PlanExecutor
        from repro.serve import InferenceServer, ModelRepository, ServerConfig
        from repro.serve.loadgen import feeds_for

        feeds = [feeds_for(toy_plan.graph, seed=i) for i in range(4)]
        direct = PlanExecutor(toy_plan)
        expected = [direct.infer(f) for f in feeds]

        repo = ModelRepository()
        repo.register_plan("toy", toy_plan)
        config = ServerConfig(workers=2, host_workers=2, gemm_shards=2,
                              max_batch_size=4, max_wait_ms=20.0)
        with InferenceServer(repo, config) as server:
            handles = [server.submit("toy", f) for f in feeds]
            got = [h.result(timeout=60.0) for h in handles]
        assert server.stats()["config"]["gemm_shards"] == 2
        for resp, want in zip(got, expected):
            for name in want:
                assert np.array_equal(resp.outputs[name], want[name])

    def test_plan_executor_gemm_shards_kwarg(self, toy_plan):
        from repro.runtime.executor import PlanExecutor

        ex = PlanExecutor(toy_plan)
        feeds = random_feeds(toy_plan.graph, seed=3)
        ref = ex.infer(feeds, compiled=False)
        out = ex.infer(feeds, workers=2, gemm_shards=2)
        for name in ref:
            assert ref[name].tobytes() == out[name].tobytes()
