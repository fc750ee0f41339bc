"""Tests for BN folding and activation fusion."""

import numpy as np
from repro.graph.builder import GraphBuilder
from repro.models import build_model
from repro.runtime.numerical import execute
from repro.transform.fusion import fold_batchnorm, fuse, fuse_activations


def _conv_bn_relu_graph(seed=11):
    b = GraphBuilder("f", seed=seed)
    x = b.input("x", (1, 10, 10, 4))
    y = b.conv(x, cout=8, kernel=3, bias=False, name="c")
    y = b.batchnorm(y, name="bn")
    y = b.relu(y, name="r")
    b.output(y)
    return b.build()


class TestBatchNormFolding:
    def test_bn_removed(self):
        g = fold_batchnorm(_conv_bn_relu_graph())
        assert all(n.op_type != "BatchNormalization" for n in g.nodes)

    def test_numerics_preserved(self, rng):
        g = _conv_bn_relu_graph()
        feed = {"x": rng.standard_normal((1, 10, 10, 4))}
        ref = execute(g, feed)
        g2 = fold_batchnorm(g)
        g2.validate()
        out = execute(g2, feed)
        for k in ref:
            np.testing.assert_allclose(ref[k], out[k], rtol=1e-3, atol=1e-3)

    def test_bias_created_when_absent(self):
        g = fold_batchnorm(_conv_bn_relu_graph())
        conv = g.node("c")
        assert len(conv.inputs) == 3

    def test_existing_bias_folded(self, rng):
        b = GraphBuilder(seed=12)
        x = b.input("x", (1, 8, 8, 4))
        y = b.conv(x, cout=4, kernel=1, bias=True, name="c")
        y = b.batchnorm(y)
        b.output(y)
        g = b.build()
        # Give the conv a non-zero bias so folding must account for it.
        bias_name = g.node("c").inputs[2]
        g.initializers[bias_name] = np.arange(4, dtype=np.float32)
        feed = {"x": rng.standard_normal((1, 8, 8, 4))}
        ref = execute(g, feed)
        out = execute(fold_batchnorm(g), feed)
        for k in ref:
            np.testing.assert_allclose(ref[k], out[k], rtol=1e-3, atol=1e-3)

    def test_bn_with_branching_producer_kept(self, rng):
        b = GraphBuilder(seed=13)
        x = b.input("x", (1, 8, 8, 4))
        y = b.conv(x, cout=4, kernel=1, name="c")
        z = b.batchnorm(y, name="bn")
        b.output(z)
        b.output(y)  # conv output used elsewhere
        g = b.build()
        g2 = fold_batchnorm(g)
        assert any(n.op_type == "BatchNormalization" for n in g2.nodes)

    def test_standalone_bn_kept(self, rng):
        b = GraphBuilder(seed=14)
        x = b.input("x", (1, 8, 8, 4))
        b.output(b.batchnorm(x, name="bn"))
        g = b.build()
        g2 = fold_batchnorm(g)
        assert any(n.op_type == "BatchNormalization" for n in g2.nodes)


    def test_convs_sharing_a_weight_fold_separately(self, rng):
        # Two Conv+BN pairs read one weight; each fold must keep its
        # own scaled copy rather than overwrite the other's.
        b = GraphBuilder(seed=15)
        x = b.input("x", (1, 4, 4, 3))
        y1 = b.conv(x, cout=3, kernel=1, bias=False, name="c1")
        w = b.graph.node("c1").inputs[1]
        y2 = b._emit("Conv", [x, w], {"kernel_shape": (1, 1)}, name="c2")
        b.output(b.batchnorm(y1, name="bn1"))
        b.output(b.batchnorm(y2, name="bn2"))
        g = b.build()
        for bn, scale in (("bn1", 3.0), ("bn2", -0.5)):
            g.initializers[g.node(bn).inputs[1]] = np.full(
                3, scale, dtype=np.float32)
        feed = {"x": rng.standard_normal((1, 4, 4, 3))}
        ref = execute(g, feed)
        g2 = fold_batchnorm(g)
        assert all(n.op_type != "BatchNormalization" for n in g2.nodes)
        assert g2.node("c1").inputs[1] != g2.node("c2").inputs[1]
        out = execute(g2, feed)
        for k in ref:
            np.testing.assert_allclose(ref[k], out[k], rtol=1e-4, atol=1e-4)


class TestActivationFusion:
    def test_relu_fused(self):
        g = fuse_activations(_conv_bn_relu_graph())
        # BN sits between conv and relu, so relu fuses only after BN
        # folding; run the full pipeline instead.
        g = fuse(_conv_bn_relu_graph())
        conv = g.node("c")
        assert conv.attr("activation") == "relu"
        assert all(n.op_type != "Relu" for n in g.nodes)

    def test_clip_attrs_carried(self):
        b = GraphBuilder(seed=15)
        x = b.input("x", (1, 8, 8, 4))
        y = b.conv(x, cout=4, kernel=1, name="c")
        y = b.relu6(y)
        b.output(y)
        g = fuse_activations(b.build())
        conv = g.node("c")
        assert conv.attr("activation") == "clip"
        assert conv.attr("activation_max") == 6.0

    def test_numerics_preserved_all_activations(self, rng):
        for act_emit in ("relu", "relu6", "sigmoid", "swish"):
            b = GraphBuilder(seed=16)
            x = b.input("x", (1, 8, 8, 4))
            y = b.conv(x, cout=4, kernel=1, name="c")
            y = getattr(b, act_emit)(y)
            b.output(y)
            g = b.build()
            feed = {"x": rng.standard_normal((1, 8, 8, 4))}
            ref = execute(g, feed)
            out = execute(fuse_activations(g), feed)
            for k in ref:
                np.testing.assert_allclose(ref[k], out[k], rtol=1e-4,
                                           atol=1e-4, err_msg=act_emit)

    def test_gemm_activation_fused(self, rng):
        b = GraphBuilder(seed=17)
        x = b.input("x", (1, 16))
        y = b.gemm(x, 8, name="g")
        y = b.relu(y)
        b.output(y)
        g = fuse_activations(b.build())
        assert g.node("g").attr("activation") == "relu"

    def test_activation_on_branch_not_fused(self):
        b = GraphBuilder(seed=18)
        x = b.input("x", (1, 8, 8, 4))
        y = b.conv(x, cout=4, kernel=1, name="c")
        r = b.relu(y, name="r")
        b.output(b.add(r, y))
        g = fuse_activations(b.build())
        assert g.node("c").attr("activation") is None


class TestFullFusion:
    def test_model_semantics(self, rng):
        g = build_model("toy")
        feed = {"input": rng.standard_normal((1, 56, 56, 3))}
        ref = execute(g, feed)
        fused = fuse(g)
        fused.validate()
        out = execute(fused, feed)
        for k in ref:
            np.testing.assert_allclose(ref[k], out[k], rtol=2e-3, atol=2e-3)

    def test_node_count_shrinks_substantially(self):
        g = build_model("mobilenet-v2")
        fused = fuse(g)
        assert len(fused) < len(g) * 0.6
        assert all(n.op_type != "BatchNormalization" for n in fused.nodes)
