"""The banded depthwise kernel and its row-wide operands.

The compiled executor accumulates a depthwise conv one cache-sized band
of output rows at a time, multiplies by per-channel operands widened
to a full output row, and fuses the bias add into the copy of staged
conv GEMMs.  None of that may change a byte: every case here compares
against :func:`repro.runtime.numerical.execute` bit for bit, on a first
run and on a repeat run of the same arena.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.runtime import compiled
from repro.runtime.compiled import (
    CompiledExecutable,
    ExecutionState,
    _row_bands,
)
from repro.runtime.numerical import execute

ACTIVATIONS = {
    None: {},
    "relu": {"activation": "relu"},
    "relu6": {"activation": "clip", "activation_min": 0.0,
              "activation_max": 6.0},
    "silu": {"activation": "silu"},
}


def _dw_graph(n, h, w, c, kernel, stride, pads, act, bias, expand, seed):
    """[1x1 conv ->] depthwise conv with the given pads and fused
    activation.  Taps and biases are signed, so zero inputs give -0.0
    products."""
    b = GraphBuilder("dw", seed=seed)
    rng = np.random.default_rng(seed)
    y = b.input("x", (n, h, w, c))
    if expand:
        y = b.conv(y, cout=c, kernel=1, name="expand")
    inputs = [y, b._weight("w", (kernel, kernel, 1, c), scale=1.0)]
    if bias:
        inputs.append("dw_bias")
        b.graph.add_initializer(
            "dw_bias", rng.standard_normal(c).astype(np.float32), b.dtype)
    attrs = {"kernel_shape": (kernel, kernel), "strides": (stride, stride),
             "pads": tuple(pads), "group": c, **ACTIVATIONS[act]}
    b.output(b._emit("Conv", inputs, attrs, "dw"))
    graph = b.build()
    for node in graph.nodes:
        if node.name == "expand":
            node.attrs.update(ACTIVATIONS["relu6"])
            graph.initializers[node.inputs[2]] = rng.standard_normal(
                c).astype(np.float32)
    return graph


def _feeds(graph, seed, zero_frac):
    """Signed inputs with whole zero rows, columns and channels."""
    (name,) = graph.inputs
    shape = graph.tensors[name].shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(np.float32)
    if zero_frac:
        for axis in (1, 2, 3):
            mask = rng.random(shape[axis]) < zero_frac
            index = [slice(None)] * 4
            index[axis] = mask
            x[tuple(index)] = 0.0
    return {name: x}


def _assert_identical(graph, feeds, runs=2):
    ref = execute(graph, feeds)
    exe = CompiledExecutable(graph)
    for run in range(runs):
        out = exe.run(feeds)
        for name in ref:
            assert ref[name].shape == out[name].shape
            assert ref[name].tobytes() == out[name].tobytes(), \
                f"{name} differs from the oracle on run {run}"
    return exe


PADS = st.sampled_from([(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2),
                        (1, 1, 0, 1), (0, 1, 1, 1)])


class TestBands:
    @given(n=st.integers(1, 5), oh=st.integers(1, 40),
           row=st.integers(1, 3000), tile=st.sampled_from([64, 700, 4096]))
    @settings(max_examples=80, deadline=None)
    def test_bands_tile_the_output_once(self, n, oh, row, tile):
        saved = compiled.TILE_ELEMENTS
        compiled.TILE_ELEMENTS = tile
        try:
            bands = _row_bands(n, oh, row)
        finally:
            compiled.TILE_ELEMENTS = saved
        seen = np.zeros((n, oh), dtype=int)
        for n0, n1, y0, y1 in bands:
            assert 0 <= n0 < n1 <= n and 0 <= y0 < y1 <= oh
            seen[n0:n1, y0:y1] += 1
            # A band spans several images only when whole images fit.
            assert n1 - n0 == 1 or (y0, y1) == (0, oh)
            assert (n1 - n0) * (y1 - y0) * row <= max(tile, row)
        assert (seen == 1).all()


class TestDepthwiseByteIdentity:
    @given(
        n=st.sampled_from([1, 3, 5]),
        h=st.integers(3, 13),
        w=st.integers(3, 13),
        c=st.sampled_from([3, 8, 17, 40]),
        kernel=st.sampled_from([3, 5]),
        stride=st.sampled_from([1, 2]),
        pads=PADS,
        act=st.sampled_from(sorted(ACTIVATIONS, key=str)),
        bias=st.booleans(),
        expand=st.booleans(),
        tile=st.sampled_from([96, 1000, compiled.TILE_ELEMENTS]),
        zero_frac=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_matches_oracle(self, n, h, w, c, kernel, stride, pads, act,
                            bias, expand, tile, zero_frac, seed):
        pt, pl, pb, pr = pads
        if h + pt + pb < kernel or w + pl + pr < kernel:
            return
        graph = _dw_graph(n, h, w, c, kernel, stride, pads, act, bias,
                          expand, seed)
        feeds = _feeds(graph, seed, zero_frac)
        # A small tile forces many bands, partial last bands, and rows
        # wider than one band's budget (a single row per band).
        saved = compiled.TILE_ELEMENTS
        compiled.TILE_ELEMENTS = tile
        try:
            _assert_identical(graph, feeds)
        finally:
            compiled.TILE_ELEMENTS = saved

    @pytest.mark.parametrize("pads", [(1, 1, 0, 1), (0, 1, 1, 1)])
    @pytest.mark.parametrize("tile", [None, 6000, 1000])
    def test_pipeline_pads_batch5(self, pads, tile):
        # Asymmetric pipeline-stage pads at batch 5 (2880 elements an
        # image), one depthwise step.  The default tile holds all five
        # images in one band; 6000 gives two-image bands and a ragged
        # last band; 1000 gives bands of four rows inside each image.
        graph = _dw_graph(5, 12, 10, 24, 3, 1, pads, "relu6", True,
                          True, seed=11)
        saved = compiled.TILE_ELEMENTS
        if tile is not None:
            compiled.TILE_ELEMENTS = tile
        try:
            exe = _assert_identical(graph, _feeds(graph, 11, 0.3))
        finally:
            compiled.TILE_ELEMENTS = saved
        spec, pool = next(iter(exe._pools.values()))
        state = pool.acquire()
        try:
            assert state._step_meta.count("dw") == 1
        finally:
            pool.release(state)

    def test_zero_inputs_keep_positive_zero(self):
        # All-zero input times negative taps gives -0.0 products; the
        # oracle's +0.0 accumulator start turns every sum into +0.0.
        graph = _dw_graph(1, 6, 6, 8, 3, 1, (1, 1, 1, 1), None, False,
                          False, seed=3)
        for node in graph.nodes:
            if node.name == "dw":
                w = graph.initializers[node.inputs[1]]
                graph.initializers[node.inputs[1]] = -np.abs(w)
        feeds = {"x": np.zeros((1, 6, 6, 8), dtype=np.float32)}
        out = CompiledExecutable(graph).run(feeds)
        (name,) = graph.outputs
        assert not np.signbit(out[name]).any()
        assert out[name].tobytes() == execute(graph, feeds)[name].tobytes()

    def test_staged_expand_feeds_prepadded_dw(self):
        # The 1x1 conv writes a margined interior (the depthwise conv's
        # pre-padded input), so its GEMM is staged and the bias add is
        # fused into the copy.
        graph = _dw_graph(1, 9, 9, 16, 3, 1, (1, 1, 1, 1), "relu6", True,
                          True, seed=5)
        exe = _assert_identical(graph, _feeds(graph, 5, 0.0))
        assert exe.buffer_plan().padded_reads.get("dw")


class TestSharedOperands:
    @staticmethod
    def _closure_arrays(state):
        found, stack, seen = set(), list(state._steps), set()
        while stack:
            fn = stack.pop()
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            values = [c.cell_contents for c in (fn.__closure__ or ())]
            values += list(fn.__defaults__ or ())
            for v in values:
                if isinstance(v, np.ndarray):
                    found.add(id(v))
                elif callable(v) and hasattr(v, "__closure__"):
                    stack.append(v)
        return found

    def test_states_share_row_wide_operands(self):
        graph = _dw_graph(1, 16, 16, 32, 3, 1, (1, 1, 1, 1), "relu6",
                          True, True, seed=2)
        feeds = _feeds(graph, 2, 0.0)
        exe = _assert_identical(graph, feeds)
        spec, _pool = next(iter(exe._pools.values()))
        wide = {id(v) for k, v in spec._prepared.items()
                if k[0] == "row_wide"}
        assert wide, "the 32-channel taps and biases must be widened"
        first = ExecutionState(spec)
        count = len(spec._prepared)
        second = ExecutionState(spec)
        assert len(spec._prepared) == count
        used_first = self._closure_arrays(first) & wide
        used_second = self._closure_arrays(second) & wide
        assert used_first and used_first == used_second

    def test_wide_channels_are_not_widened(self):
        graph = _dw_graph(1, 4, 4, compiled._SHORT_RUN, 3, 1,
                          (1, 1, 1, 1), None, True, False, seed=4)
        exe = _assert_identical(graph, _feeds(graph, 4, 0.0))
        spec, _pool = next(iter(exe._pools.values()))
        assert not [k for k in spec._prepared if k[0] == "row_wide"]


@pytest.fixture(scope="module")
def mobilenet_plan():
    from repro.models import build_model
    from repro.pimflow import Compiler, PimFlowConfig

    compiler = Compiler(PimFlowConfig(mechanism="pimflow"))
    return compiler.build_plan(build_model("mobilenet-v2"),
                               model_name="mobilenet-v2")


def test_mobilenet_pimflow_step_kinds(mobilenet_plan):
    # The banded kernel keeps one step per depthwise conv.
    from repro.runtime.verify import random_feeds

    graph = mobilenet_plan.graph
    feeds = random_feeds(graph, seed=0)
    exe = CompiledExecutable(graph)
    out = exe.run(feeds)
    ref = execute(graph, feeds)
    assert all(ref[k].tobytes() == out[k].tobytes() for k in ref)
    kinds = exe.pool_stats()["step_kinds"]
    assert kinds["dwconv"] == 23
    assert kinds["gemm"] == 66


def test_step_profile_has_one_row_per_node(mobilenet_plan):
    from repro.runtime.verify import random_feeds

    graph = mobilenet_plan.graph
    feeds = random_feeds(graph, seed=0)
    exe = CompiledExecutable(graph)
    kinds = exe.step_profile(feeds, rounds=1)
    assert set(kinds) <= {"gemm", "dwconv", "elementwise", "copy", "other"}
    assert all(set(v) == {"steps", "ms"} for v in kinds.values())
    kinds, rows = exe.step_profile(feeds, rounds=1, detail=True)
    names = [r["node"] for r in rows]
    assert len(names) == len(set(names)) == sum(
        v["steps"] for v in kinds.values())
    assert set(names) <= {n.name for n in graph.nodes}
    assert all(set(r) == {"node", "kind", "ms"} for r in rows)
    assert [r["ms"] for r in rows] == sorted(
        (r["ms"] for r in rows), reverse=True)
    assert sum(1 for r in rows if r["kind"] == "dwconv") == 23
