"""Tests for the MD-DP multi-device parallelization pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.gpu.device import GpuDevice
from repro.pim.device import PimDevice
from repro.pimflow import Compiler, PimFlowConfig
from repro.runtime.engine import ExecutionEngine
from repro.runtime.numerical import execute
from repro.search.profiler import profile_split
from repro.transform.base import TransformError, UnsplittableError, conv_h_window
from repro.transform.split import apply_mddp, split_rows


def _conv_graph(h=14, w=14, cin=8, cout=16, kernel=3, stride=1, pad=None,
                batch=1, seed=1):
    b = GraphBuilder("t", seed=seed)
    x = b.input("x", (batch, h, w, cin))
    y = b.conv(x, cout=cout, kernel=kernel, stride=stride, pad=pad, name="c0")
    b.output(y)
    return b.build()


def _gemm_with_input_bias():
    b = GraphBuilder("fcb", seed=9)
    x = b.input("x", (1, 512))
    w = b._weight("w", (512, 256))
    bias = b.input("bias", (256,))
    b.output(b._emit("Gemm", [x, w, bias], {}, "fc"))
    return b.build()


class TestConvHWindow:
    def test_full_range_is_identity(self):
        in_start, in_end, pt, pb = conv_h_window(0, 14, 3, 1, 1, 14)
        assert (in_start, in_end, pt, pb) == (0, 14, 1, 1)

    def test_top_piece_keeps_top_pad(self):
        in_start, in_end, pt, pb = conv_h_window(0, 7, 3, 1, 1, 14)
        assert in_start == 0 and pt == 1 and pb == 0
        assert in_end == 8  # one halo row

    def test_bottom_piece_keeps_bottom_pad(self):
        in_start, in_end, pt, pb = conv_h_window(7, 14, 3, 1, 1, 14)
        assert in_start == 6 and pt == 0 and pb == 1
        assert in_end == 14

    def test_strided_window(self):
        in_start, in_end, pt, pb = conv_h_window(2, 4, 3, 2, 1, 14)
        assert in_start == 3
        assert in_end == 8

    def test_invalid_range_rejected(self):
        with pytest.raises(UnsplittableError):
            conv_h_window(5, 5, 3, 1, 1, 14)

    def test_pure_padding_rejected(self):
        # Kernel bigger than padded region coverage at extreme offsets.
        with pytest.raises(UnsplittableError):
            conv_h_window(0, 1, 1, 1, 5, 4)


class TestSplitRows:
    def test_rounding(self):
        assert split_rows(14, 0.5) == 7
        assert split_rows(14, 0.0) == 0
        assert split_rows(14, 1.0) == 14

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            split_rows(10, 1.5)


class TestConvSplitEquivalence:
    @pytest.mark.parametrize("kernel,stride,pad", [
        (1, 1, 0), (3, 1, 1), (3, 2, 1), (5, 1, 2), (5, 2, 2), (7, 2, 3),
        (3, 1, 0), (2, 1, 0), (2, 2, 0),
    ])
    @pytest.mark.parametrize("ratio", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_equivalence(self, rng, kernel, stride, pad, ratio):
        g = _conv_graph(kernel=kernel, stride=stride, pad=pad)
        feed = {"x": rng.standard_normal((1, 14, 14, 8))}
        ref = execute(g, feed)
        g2 = apply_mddp(g, "c0", ratio)
        g2.validate()
        out = execute(g2, feed)
        for k in ref:
            np.testing.assert_allclose(ref[k], out[k], rtol=1e-3, atol=1e-3)

    @settings(max_examples=30, deadline=None)
    @given(
        h=st.integers(5, 20),
        kernel=st.sampled_from([1, 2, 3, 5]),
        stride=st.sampled_from([1, 2]),
        pad=st.integers(0, 2),
        ratio=st.floats(0.05, 0.95),
    )
    def test_property_equivalence(self, h, kernel, stride, pad, ratio):
        if h + 2 * pad < kernel:
            return
        g = _conv_graph(h=h, w=max(kernel, 5), kernel=kernel, stride=stride,
                        pad=pad)
        rng = np.random.default_rng(0)
        feed = {"x": rng.standard_normal(g.tensors["x"].shape)}
        ref = execute(g, feed)
        try:
            g2 = apply_mddp(g, "c0", ratio)
        except TransformError:
            return  # halo can make a piece unrealizable; that's allowed
        g2.validate()
        out = execute(g2, feed)
        for k in ref:
            np.testing.assert_allclose(ref[k], out[k], rtol=1e-3, atol=1e-3)

    def test_batch_greater_than_one(self, rng):
        g = _conv_graph(batch=2)
        feed = {"x": rng.standard_normal((2, 14, 14, 8))}
        ref = execute(g, feed)
        out = execute(apply_mddp(g, "c0", 0.5), feed)
        for k in ref:
            np.testing.assert_allclose(ref[k], out[k], rtol=1e-3, atol=1e-3)


class TestBatchAxisSplit:
    def test_equivalence(self, rng):
        g = _conv_graph(batch=4, kernel=3, stride=2)
        feed = {"x": rng.standard_normal((4, 14, 14, 8))}
        ref = execute(g, feed)
        g2 = apply_mddp(g, "c0", 0.5, axis="batch")
        g2.validate()
        out = execute(g2, feed)
        for k in ref:
            np.testing.assert_allclose(ref[k], out[k], rtol=1e-3, atol=1e-3)

    def test_no_halo_overlap(self):
        g2 = apply_mddp(_conv_graph(batch=4), "c0", 0.5, axis="batch")
        sa = g2.node("c0__slice_gpu")
        sb = g2.node("c0__slice_pim")
        # Batch slices partition exactly: no duplicated input rows.
        assert sa.attr("end") == sb.attr("start")
        assert sa.attr("axis") == 0

    def test_rejects_batch_one(self):
        with pytest.raises(TransformError):
            apply_mddp(_conv_graph(batch=1), "c0", 0.5, axis="batch")

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            apply_mddp(_conv_graph(), "c0", 0.5, axis="w")

    def test_devices_assigned(self):
        g2 = apply_mddp(_conv_graph(batch=2), "c0", 0.5, axis="batch")
        assert g2.node("c0__gpu").device == "gpu"
        assert g2.node("c0__pim").device == "pim"


class TestSplitStructure:
    def test_devices_assigned(self):
        g2 = apply_mddp(_conv_graph(), "c0", 0.5)
        assert g2.node("c0__gpu").device == "gpu"
        assert g2.node("c0__pim").device == "pim"

    def test_full_offload_sets_device_only(self):
        g2 = apply_mddp(_conv_graph(), "c0", 0.0)
        assert len(g2) == 1
        assert g2.node("c0").device == "pim"

    def test_full_gpu_sets_device_only(self):
        g2 = apply_mddp(_conv_graph(), "c0", 1.0)
        assert len(g2) == 1
        assert g2.node("c0").device == "gpu"

    def test_original_graph_untouched(self):
        g = _conv_graph()
        apply_mddp(g, "c0", 0.5)
        assert len(g) == 1
        assert g.node("c0").device == "auto"

    def test_output_tensor_name_preserved(self):
        g = _conv_graph()
        out_name = g.node("c0").outputs[0]
        g2 = apply_mddp(g, "c0", 0.5)
        assert g2.node("c0__concat").outputs == [out_name]

    def test_non_candidate_rejected(self):
        b = GraphBuilder()
        x = b.input("x", (1, 8, 8, 4))
        b.output(b.relu(x, name="r"))
        g = b.build()
        with pytest.raises(TransformError):
            apply_mddp(g, "r", 0.5)

    def test_depthwise_rejected(self):
        b = GraphBuilder()
        x = b.input("x", (1, 8, 8, 4))
        b.output(b.dwconv(x, name="dw"))
        g = b.build()
        with pytest.raises(TransformError):
            apply_mddp(g, "dw", 0.5)


class TestGemmSplit:
    def test_equivalence(self, fc_graph, rng):
        feed = {"x": rng.standard_normal((1, 64))}
        ref = execute(fc_graph, feed)
        for ratio in (0.25, 0.5, 0.75):
            g2 = apply_mddp(fc_graph, "fc0", ratio)
            g2.validate()
            out = execute(g2, feed)
            for k in ref:
                np.testing.assert_allclose(ref[k], out[k], rtol=1e-3, atol=1e-3)

    def test_weights_pre_split(self, fc_graph):
        g2 = apply_mddp(fc_graph, "fc0", 0.5)
        gpu_w = g2.node("fc0__gpu").inputs[1]
        pim_w = g2.node("fc0__pim").inputs[1]
        assert g2.initializers[gpu_w].shape == (64, 24)
        assert g2.initializers[pim_w].shape == (64, 24)
        # No runtime Slice needed for the constant operand.
        assert all(n.op_type != "Slice" for n in g2.nodes)

    def test_non_constant_weight_rejected(self, rng):
        b = GraphBuilder()
        a = b.input("a", (1, 8))
        w = b.input("w", (8, 4))
        b.output(b.matmul(a, w, name="mm"))
        g = b.build()
        with pytest.raises(TransformError):
            apply_mddp(g, "mm", 0.5)

    def test_non_constant_bias_rejected(self):
        # A Gemm whose bias is a graph input used to escape as a bare
        # KeyError and abort the whole compile.
        g = _gemm_with_input_bias()
        with pytest.raises(TransformError, match="bias"):
            apply_mddp(g, "fc", 0.5)
        engine = ExecutionEngine(GpuDevice(), PimDevice())
        samples = profile_split(g, "fc", engine, (0.0, 0.5, 1.0))
        assert sorted(samples) == [0.0, 1.0]

    def test_non_constant_bias_compiles(self):
        plan = Compiler(PimFlowConfig(mechanism="pimflow")).build_plan(
            _gemm_with_input_bias())
        assert all(d["ratio_gpu"] in (0.0, 1.0) for d in plan.decisions
                   if d.get("ratio_gpu") is not None)

    def test_fused_activation_preserved_on_parts(self, rng):
        b = GraphBuilder(seed=8)
        x = b.input("x", (1, 10, 10, 4))
        y = b.conv(x, cout=8, kernel=3, name="c")
        b.output(y)
        g = b.build()
        g.node("c").attrs["activation"] = "relu"
        feed = {"x": rng.standard_normal((1, 10, 10, 4))}
        ref = execute(g, feed)
        out = execute(apply_mddp(g, "c", 0.5), feed)
        for k in ref:
            np.testing.assert_allclose(ref[k], out[k], rtol=1e-3, atol=1e-3)
