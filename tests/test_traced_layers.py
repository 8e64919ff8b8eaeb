"""The layer functions that the benchmark's tracer wraps keep their module and name."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from impact_games import (
    GameSpec,
    assemble_equilibrium_system,
    exponential_kernel,
    make_equidistant_grid,
)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


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
