"""The layer functions that the benchmark's tracer wraps keep their module and name.

A traced benchmark run fails when a wrapped call's annotation cannot read the
argument it names, or when spans of one op overlap as threads would make
them; one small op of each workload is traced here to catch both.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from impact_games import (
    GameSpec,
    assemble_equilibrium_system,
    exponential_kernel,
    make_equidistant_grid,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
# spans whose annotation reads an argument or the result of the traced call
ANNOTATED = (
    "kernels.build_matrices",
    "linalg.guarded_solve",
    "hetero.assemble_equilibrium_system",
    "hetero.payoff_matrix",
    "equilibrium.principal_fundamentals",
)


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_layers():
    return load("bench_tracing", TRACING).LAYERS


def test_every_traced_layer_resolves():
    layers = traced_layers()
    assert len(layers) == 17
    for _, module_name, function in layers:
        assert callable(getattr(importlib.import_module(module_name), function))


def test_assembled_system_has_the_traced_matrix():
    spec = GameSpec(
        grid=make_equidistant_grid(4, 1.0),
        kernel=exponential_kernel(),
        cross_impact=np.eye(1),
        inventories=np.array([[1.0, -0.5]]),
        theta=[0.3, 0.6],
    )
    matrix = assemble_equilibrium_system(spec).matrix
    # two agents, five trading times and one multiplier each
    assert matrix.shape == (12, 12)


@pytest.mark.parametrize("name", ["theta_desk", "venue_hetero", "scenario_risk"])
def test_a_traced_small_op_of_each_workload_passes(name, tmp_path):
    workloads = load("bench_workloads", BENCH / "workloads.py")
    tracing = load("bench_tracing", TRACING)
    workload = workloads.WORKLOADS[name](5, True, tmp_path)
    op_input = workload.prepare(0)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.op(0):
        output = workload.run(op_input)
    assert workload.check(op_input, output) == []
    spans = tracer.spans
    annotated = [span for span in spans if span[tracing.NAME] in ANNOTATED]
    assert annotated
    for span in annotated:
        assert span[tracing.ATTR] is not None, span[tracing.NAME]
    # nested spans of one thread: the self times add up to the op; spans
    # that overlap, as threads would make them, add up to more
    root = spans[0]
    op_s = root[tracing.END] - root[tracing.START]
    assert abs(sum(tracing.self_times(spans).values()) - op_s) <= 1e-6 * op_s
