"""Byte identity of the compiled executor with the interpreted oracle.

Drives :class:`~repro.runtime.compiled.CompiledExecutable` against
:func:`repro.runtime.numerical.execute` across the registry, batch
sizes and elision modes, plus adversarial aliasing shapes: elementwise
chains the buffer planner runs in place on dying inputs, views into
elided concats, broadcast operands and escaping interiors.  Also
covered here: the read-only strided im2col window views and the
per-op-kind step profile.
"""

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.models import build_model, list_models
from repro.runtime.compiled import CompiledExecutable
from repro.runtime.numerical import conv_window_view, execute
from repro.runtime.verify import random_feeds
from repro.transform.memopt import optimize_memory

SMALL_MODELS = ("toy", "mobilenet-v2", "shufflenet-v2")


def _assert_oracle_identical(graph, feeds, ref=None, runs=2, **kw):
    if ref is None:
        ref = execute(graph, feeds)
    exe = CompiledExecutable(graph, **kw)
    for run in range(runs):
        out = exe.run(feeds)
        assert set(out) == set(ref)
        for name in ref:
            assert ref[name].shape == out[name].shape, (name, run)
            assert ref[name].tobytes() == out[name].tobytes(), \
                f"{name} differs from the oracle on run {run} ({kw})"
    return ref


class TestRegistryByteIdentity:
    @pytest.mark.parametrize("model", list_models())
    def test_fused_batch1(self, model):
        graph = build_model(model)
        feeds = random_feeds(graph, seed=0)
        _assert_oracle_identical(graph, feeds)

    @pytest.mark.parametrize("model", SMALL_MODELS)
    @pytest.mark.parametrize("batch", [1, 8])
    def test_fused_batch_and_elide_matrix(self, model, batch):
        graph = build_model(model)
        feeds = random_feeds(graph, seed=0, batch=batch)
        ref = execute(graph, feeds)
        for elide in (True, False):
            _assert_oracle_identical(graph, feeds, ref=ref, elide=elide)


class TestAdversarial:
    def test_diamond_dag(self):
        b = GraphBuilder("diamond", seed=1)
        x = b.input("x", (1, 8, 8, 4))
        c = b.conv(x, cout=4, kernel=1, name="c1")
        r = b.relu(c, name="r")
        s = b.sigmoid(r, name="s")
        g = b.gelu(r, name="g")
        b.output(b.add(s, g, name="join"))
        graph = b.build()
        _assert_oracle_identical(graph, random_feeds(graph, seed=1))

    def test_fused_group_feeding_elided_concat(self):
        # The chain's destination is a co-allocated view into the
        # concat parent; writing it must not clobber the sibling.
        b = GraphBuilder("cat", seed=2)
        x = b.input("x", (1, 8, 8, 4))
        a = b.conv(x, cout=4, kernel=1, name="ca")
        fa = b.sigmoid(b.relu(a, name="ra"), name="sa")
        other = b.conv(x, cout=4, kernel=1, name="cb")
        cat = b.concat([fa, other], axis=1, name="cat")
        b.output(b.conv(cat, cout=4, kernel=1, name="tail"))
        graph = optimize_memory(b.build())
        assert any(n.attr("elided", False) for n in graph.nodes)
        feeds = random_feeds(graph, seed=2)
        ref = execute(graph, feeds)
        for elide in (True, False):
            _assert_oracle_identical(graph, feeds, ref=ref, elide=elide)

    def test_broadcast_bias_add(self):
        # A (C,)-shaped initializer broadcast over NHWC, with the Add
        # written in place on the dying conv output.
        b = GraphBuilder("bias", seed=3)
        x = b.input("x", (1, 8, 8, 6))
        c = b.conv(x, cout=6, kernel=1, name="c1")
        bias = b._weight("bias", (6,))
        y = b.add(c, bias, name="biasadd")
        b.output(b.relu(y, name="act"))
        graph = b.build()
        _assert_oracle_identical(graph, random_feeds(graph, seed=3))

    def test_residual_chain_inplace_alias(self):
        # BN -> Clip -> Add(residual): the planner may alias each
        # step's destination onto its dying input buffer.
        b = GraphBuilder("res", seed=4)
        x = b.input("x", (1, 8, 8, 4))
        c = b.conv(x, cout=4, kernel=3, name="c1")
        y = b.batchnorm(c, name="bn")
        y = b.relu6(y, name="act")
        b.output(b.add(y, c, name="res"))
        graph = b.build()
        feeds = random_feeds(graph, seed=4)
        ref = execute(graph, feeds)
        for elide in (True, False):
            _assert_oracle_identical(graph, feeds, ref=ref, elide=elide)

    def test_group_output_escapes_to_conv(self):
        b = GraphBuilder("esc", seed=5)
        x = b.input("x", (1, 8, 8, 4))
        r = b.relu(x, name="r")
        s = b.sigmoid(r, name="s")
        b.output(b.conv(r, cout=4, kernel=1, name="tail"))
        b.output(s)
        graph = b.build()
        _assert_oracle_identical(graph, random_feeds(graph, seed=5))


class TestStridedIm2col:
    def test_window_view_is_read_only(self):
        x = np.zeros((1, 8, 8, 4), dtype=np.float32)
        view = conv_window_view(x, 6, 6, 3, 3, 1, 1)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0, 0, 0, 0, 0] = 1.0

    def test_window_view_matches_materialized(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 9, 9, 3)).astype(np.float32)
        kh = kw = 3
        sh = sw = 2
        oh = ow = 4
        view = conv_window_view(x, oh, ow, kh, kw, sh, sw)
        for n in range(2):
            for i in range(oh):
                for j in range(ow):
                    patch = x[n, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    assert view[n, i, j].tobytes() == patch.tobytes()

    def test_strided_conv_byte_identity(self):
        # Stride-2 conv exercises the non-unit column stride of the
        # window view feeding the GEMM.
        b = GraphBuilder("sconv", seed=6)
        x = b.input("x", (1, 16, 16, 3))
        b.output(b.conv(x, cout=8, kernel=3, stride=2, name="c1"))
        graph = b.build()
        _assert_oracle_identical(graph, random_feeds(graph, seed=6))


class TestProfiling:
    def test_step_profile_kinds(self):
        graph = build_model("toy")
        exe = CompiledExecutable(graph)
        feeds = random_feeds(graph, seed=0)
        prof = exe.step_profile(feeds)
        assert prof, "profile must not be empty"
        for kind, row in prof.items():
            assert kind in ("gemm", "dwconv", "elementwise", "copy",
                            "other")
            assert row["steps"] > 0
            assert row["ms"] >= 0.0
        total_steps = sum(r["steps"] for r in prof.values())
        assert total_steps == sum(
            exe.pool_stats()["step_kinds"].values())
