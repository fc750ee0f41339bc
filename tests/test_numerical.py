"""Tests for the numpy reference executor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.graph.node import Node
from repro.runtime.numerical import (
    KERNELS,
    compile_elementwise,
    conv2d_nhwc,
    execute,
    execute_node,
)


class TestConv2dNhwc:
    def test_identity_kernel(self, rng):
        x = rng.standard_normal((1, 5, 5, 3)).astype(np.float32)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        for c in range(3):
            w[0, 0, c, c] = 1.0
        out = conv2d_nhwc(x, w, None, (1, 1), (0, 0, 0, 0), 1)
        np.testing.assert_allclose(out, x, atol=1e-6)

    def test_matches_explicit_loop(self, rng):
        x = rng.standard_normal((1, 6, 7, 2)).astype(np.float32)
        w = rng.standard_normal((3, 3, 2, 4)).astype(np.float32)
        out = conv2d_nhwc(x, w, None, (1, 1), (1, 1, 1, 1), 1)
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        expected = np.zeros((1, 6, 7, 4), dtype=np.float32)
        for oh in range(6):
            for ow in range(7):
                patch = xp[0, oh:oh + 3, ow:ow + 3, :]
                for co in range(4):
                    expected[0, oh, ow, co] = np.sum(patch * w[:, :, :, co])
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-4)

    def test_depthwise_matches_per_channel(self, rng):
        x = rng.standard_normal((1, 6, 6, 4)).astype(np.float32)
        w = rng.standard_normal((3, 3, 1, 4)).astype(np.float32)
        out = conv2d_nhwc(x, w, None, (1, 1), (1, 1, 1, 1), 4)
        for c in range(4):
            single = conv2d_nhwc(x[..., c:c + 1], w[:, :, :, c:c + 1],
                                 None, (1, 1), (1, 1, 1, 1), 1)
            np.testing.assert_allclose(out[..., c], single[..., 0],
                                       rtol=1e-4, atol=1e-4)

    def test_stride_subsamples(self, rng):
        x = rng.standard_normal((1, 8, 8, 2)).astype(np.float32)
        w = rng.standard_normal((1, 1, 2, 3)).astype(np.float32)
        full = conv2d_nhwc(x, w, None, (1, 1), (0, 0, 0, 0), 1)
        strided = conv2d_nhwc(x, w, None, (2, 2), (0, 0, 0, 0), 1)
        np.testing.assert_allclose(strided, full[:, ::2, ::2, :], atol=1e-6)

    def test_bias_added(self, rng):
        x = rng.standard_normal((1, 4, 4, 2)).astype(np.float32)
        w = rng.standard_normal((1, 1, 2, 3)).astype(np.float32)
        bias = np.array([1.0, -1.0, 0.5], dtype=np.float32)
        without = conv2d_nhwc(x, w, None, (1, 1), (0, 0, 0, 0), 1)
        with_b = conv2d_nhwc(x, w, bias, (1, 1), (0, 0, 0, 0), 1)
        np.testing.assert_allclose(with_b, without + bias, atol=1e-6)


class TestElementwiseKernels:
    @pytest.mark.parametrize("op,fn", [
        ("Relu", lambda x: np.maximum(x, 0)),
        ("Sigmoid", lambda x: 1 / (1 + np.exp(-x))),
        ("Silu", lambda x: x / (1 + np.exp(-x))),
        ("Tanh", np.tanh),
    ])
    def test_unary(self, rng, op, fn):
        x = rng.standard_normal((3, 4)).astype(np.float32)
        node = Node("n", op, ["x"], ["y"])
        np.testing.assert_allclose(execute_node(node, [x]), fn(x),
                                   rtol=1e-5, atol=1e-5)

    def test_clip(self, rng):
        x = rng.standard_normal((3, 4)).astype(np.float32) * 10
        node = Node("n", "Clip", ["x"], ["y"], {"min": 0.0, "max": 6.0})
        out = execute_node(node, [x])
        assert out.min() >= 0.0 and out.max() <= 6.0

    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.standard_normal((3, 7)).astype(np.float32)
        node = Node("n", "Softmax", ["x"], ["y"], {"axis": -1})
        out = execute_node(node, [x])
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-5)

    def test_batchnorm_normalizes(self, rng):
        x = rng.standard_normal((1, 4, 4, 3)).astype(np.float32)
        scale = np.ones(3, dtype=np.float32)
        bias = np.zeros(3, dtype=np.float32)
        mean = x.mean(axis=(0, 1, 2))
        var = x.var(axis=(0, 1, 2))
        node = Node("n", "BatchNormalization",
                    ["x", "s", "b", "m", "v"], ["y"], {"epsilon": 1e-5})
        out = execute_node(node, [x, scale, bias, mean, var])
        np.testing.assert_allclose(out.mean(axis=(0, 1, 2)), 0.0, atol=1e-4)

    def test_erf_reference_values(self):
        node = Node("n", "Erf", ["x"], ["y"])
        x = np.array([0.0, 1.0, -1.0, 2.0], dtype=np.float32)
        out = execute_node(node, [x])
        expected = np.array([0.0, 0.8427, -0.8427, 0.9953])
        np.testing.assert_allclose(out, expected, atol=1e-3)


_UNARY = ("Relu", "Tanh", "Sigmoid", "Silu", "Clip")
_BINARY = ("Add", "Mul", "Sub", "Div")
#: Finite extremes, signed zeros, exp over/underflow points and a
#: subnormal, planted among ordinary values.
_SPECIALS = (3.4e38, -3.4e38, 1e30, -1e30, 0.0, -0.0, 88.8, -88.8,
             -104.0, 1e-40)


def _special_tensor(rng, shape):
    x = (rng.standard_normal(shape) * 4).astype(np.float32)
    flat = x.reshape(-1)
    values = np.tile(np.array(_SPECIALS, dtype=np.float32), 3)[:flat.size]
    flat[rng.choice(flat.size, size=values.size, replace=False)] = values
    return x


class TestCompiledElementwise:
    """``compile_elementwise`` is the compiled executor's standalone
    elementwise step: it must write the exact bytes of the interpreted
    kernel, also when ``out`` is the buffer of a dying input."""

    @pytest.mark.parametrize("op,case", (
        [(op, c) for op in _UNARY for c in ("fresh", "alias0")]
        + [(op, c) for op in _BINARY
           for c in ("fresh", "alias0", "alias1", "bcast_c",
                     "bcast_c_alias0")]))
    def test_byte_identical_to_kernel(self, op, case):
        rng = np.random.default_rng(7)
        shape = (2, 3, 4, 6)
        attrs = {"min": -1.5, "max": 2.0} if op == "Clip" else {}
        x = _special_tensor(rng, shape)
        ins = [x]
        if op in _BINARY:
            ins.append(_special_tensor(
                rng, shape[-1:] if case.startswith("bcast_c") else shape))
        node = Node("n", op, [f"i{k}" for k in range(len(ins))], ["y"], attrs)
        kern = compile_elementwise(op, attrs)
        with np.errstate(all="ignore"):
            ref = KERNELS[op](node, [a.copy() for a in ins])
            if case in ("fresh", "bcast_c"):
                out = np.empty(ref.shape, dtype=np.float32)
            else:
                out = ins[int(case[-1])]
            got = kern(ins, out)
        assert got is out
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("op", ["Gelu", "Erf", "BatchNormalization"])
    def test_other_ops_are_not_compiled(self, op):
        with pytest.raises(NotImplementedError, match=op):
            compile_elementwise(op, {})


class TestPoolKernels:
    def test_maxpool(self, rng):
        x = rng.standard_normal((1, 4, 4, 1)).astype(np.float32)
        node = Node("n", "MaxPool", ["x"], ["y"],
                    {"kernel_shape": (2, 2), "strides": (2, 2)})
        out = execute_node(node, [x])
        assert out[0, 0, 0, 0] == x[0, :2, :2, 0].max()

    def test_avgpool(self, rng):
        x = rng.standard_normal((1, 4, 4, 1)).astype(np.float32)
        node = Node("n", "AveragePool", ["x"], ["y"],
                    {"kernel_shape": (2, 2), "strides": (2, 2)})
        out = execute_node(node, [x])
        np.testing.assert_allclose(out[0, 0, 0, 0], x[0, :2, :2, 0].mean(),
                                   rtol=1e-5)

    def test_global_average_pool(self, rng):
        x = rng.standard_normal((1, 5, 5, 3)).astype(np.float32)
        node = Node("n", "GlobalAveragePool", ["x"], ["y"])
        out = execute_node(node, [x])
        np.testing.assert_allclose(out[0, 0, 0], x.mean(axis=(0, 1, 2)),
                                   rtol=1e-5)

    def test_maxpool_padding_uses_neg_inf(self, rng):
        x = -np.abs(rng.standard_normal((1, 4, 4, 1))).astype(np.float32)
        node = Node("n", "MaxPool", ["x"], ["y"],
                    {"kernel_shape": (3, 3), "strides": (2, 2),
                     "pads": (1, 1, 1, 1)})
        out = execute_node(node, [x])
        # All inputs are negative; padded zeros must not win.
        assert out.max() < 0


class TestGraphExecution:
    def test_missing_feed_raises(self, small_conv_graph):
        with pytest.raises(KeyError):
            execute(small_conv_graph, {})

    def test_unknown_op_raises(self):
        node = Node("n", "Quantize", ["x"], ["y"])
        with pytest.raises(NotImplementedError):
            execute_node(node, [np.zeros((1,))])

    def test_outputs_complete(self, pointwise_chain_graph, rng):
        feed = {"x": rng.standard_normal((1, 14, 14, 8))}
        out = execute(pointwise_chain_graph, feed)
        assert set(out) == set(pointwise_chain_graph.outputs)

    def test_intermediate_memory_freed_result_unchanged(self, rng):
        # Two graphs with and without branching produce stable results.
        b = GraphBuilder(seed=9)
        x = b.input("x", (1, 6, 6, 4))
        y1 = b.conv(x, cout=4, kernel=3, name="c1")
        y2 = b.relu(y1)
        y3 = b.add(y2, y1)
        b.output(y3)
        g = b.build()
        feed = {"x": rng.standard_normal((1, 6, 6, 4))}
        out1 = execute(g, feed)
        out2 = execute(g, feed)
        for k in out1:
            np.testing.assert_array_equal(out1[k], out2[k])

    @settings(max_examples=20, deadline=None)
    @given(
        h=st.integers(4, 12), w=st.integers(4, 12),
        cin=st.integers(1, 6), cout=st.integers(1, 8),
        kernel=st.sampled_from([1, 3, 5]),
        stride=st.sampled_from([1, 2]),
    )
    def test_conv_shape_inference_matches_execution(self, h, w, cin, cout,
                                                    kernel, stride):
        b = GraphBuilder(seed=1)
        x = b.input("x", (1, h, w, cin))
        y = b.conv(x, cout=cout, kernel=kernel, stride=stride, name="c")
        b.output(y)
        g = b.build()
        feed = {"x": np.random.default_rng(0).standard_normal((1, h, w, cin))}
        out = execute(g, feed)[y]
        assert out.shape == g.tensors[y].shape
