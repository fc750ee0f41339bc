"""Static run shapes of the compiled executor.

A feed whose batch differs from the graph's declared one gets its run
shapes from shape inference (``compiled._run_shapes``), not from
running the model.  These tests hold the static shapes to what the
interpreted kernels produce, check that resolving a batched program
runs no kernel, and that the batched compiled output stays
byte-identical to :func:`repro.runtime.numerical.execute`.
"""

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.models import build_model, list_models
from repro.pimflow import Compiler, PimFlowConfig
from repro.runtime import numerical
from repro.runtime.compiled import CompiledExecutable, _run_shapes
from repro.runtime.numerical import execute, execute_node, graph_initializers_f32
from repro.runtime.verify import random_feeds

#: Models whose batch-8 interpreted runs are too large for the suite.
LARGE_MODELS = ("efficientnet-v1-b5", "efficientnet-v1-b6", "vgg-16")


def _interpreted_shapes(graph, feeds):
    """Every tensor's shape as the interpreted kernels produce it."""
    inits = graph_initializers_f32(graph)
    shapes = {name: tuple(info.shape) for name, info in graph.tensors.items()}
    env = {name: np.asarray(feeds[name], dtype=np.float32)
           for name in graph.inputs}
    shapes.update((name, arr.shape) for name, arr in env.items())
    order = graph.toposort()
    remaining = {}
    for node in order:
        for t in node.inputs:
            remaining[t] = remaining.get(t, 0) + 1
    keep = set(graph.inputs) | set(graph.outputs)
    for node in order:
        out = execute_node(
            node, [env[t] if t in env else inits[t] for t in node.inputs])
        (name,) = node.outputs
        env[name] = out
        shapes[name] = out.shape
        for t in node.inputs:
            remaining[t] -= 1
            if remaining[t] == 0 and t not in keep:
                env.pop(t, None)
    return shapes


def _graphs(model):
    graph = build_model(model)
    yield "raw", graph
    for mechanism in ("gpu", "pimflow"):
        compiler = Compiler(PimFlowConfig(mechanism=mechanism))
        yield mechanism, compiler.build_plan(graph, model_name=model).graph


@pytest.mark.parametrize("model", list_models())
def test_static_shapes_equal_interpreted(model):
    batches = (2,) if model in LARGE_MODELS else (2, 3, 8)
    for kind, graph in _graphs(model):
        for batch in batches:
            feeds = random_feeds(graph, seed=0, batch=batch)
            static = _run_shapes(graph, feeds)
            interpreted = _interpreted_shapes(graph, feeds)
            assert static.keys() == interpreted.keys()
            wrong = {t: (static[t], interpreted[t]) for t in static
                     if static[t] != interpreted[t]}
            assert not wrong, (kind, batch, wrong)


def test_batched_reshape_follows_the_kernel_rule():
    b = GraphBuilder("rs", seed=1)
    x = b.input("x", (2, 4, 4, 3))
    b.output(b.reshape(x, (2, 48), name="flat"))
    graph = b.build()
    feeds = random_feeds(graph, seed=0, batch=6)
    assert _run_shapes(graph, feeds)[graph.outputs[0]] == (6, 48)
    assert execute(graph, feeds)[graph.outputs[0]].shape == (6, 48)


def test_buffer_plan_runs_no_kernel(monkeypatch):
    calls = []
    for op, fn in list(numerical.KERNELS.items()):
        def counted(node, inputs, fn=fn):
            calls.append(node.name)
            return fn(node, inputs)
        monkeypatch.setitem(numerical.KERNELS, op, counted)
    graph = build_model("mobilenet-v2")
    exe = CompiledExecutable(graph)
    plan = exe.buffer_plan(random_feeds(graph, seed=0, batch=4))
    assert plan.arena_elements > 0
    assert calls == []


@pytest.mark.parametrize("model", ["mobilenet-v2", "shufflenet-v2",
                                   "resnet-18"])
def test_batch3_byte_identical(model):
    graph = build_model(model)
    feeds = random_feeds(graph, seed=0, batch=3)
    ref = execute(graph, feeds)
    exe = CompiledExecutable(graph)
    for _ in range(2):
        out = exe.run(feeds)
        assert out.keys() == ref.keys()
        for name in ref:
            assert out[name].shape == ref[name].shape
            assert out[name].tobytes() == ref[name].tobytes(), name
