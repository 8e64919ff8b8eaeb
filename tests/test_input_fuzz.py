"""Fuzz of the spec constructors: bad input raises ValueError or is solved soundly.

Up to two fields of a small valid game are corrupted into NaN, an infinity,
a negative value or a wrong shape. Building and solving the game must then
raise ValueError, or give finite strategies that execute every inventory.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impact_games import GameSpec, TimeGrid, exponential_kernel, solve

CORRUPTIONS = ("nan", "inf", "-inf", "negative", "shape")


def corrupt(value, how, index):
    """``value`` (a float or an array) with one corruption applied."""
    array = np.array(value, dtype=float)
    if how == "shape":
        return np.append(array.ravel(), 0.5) if array.ndim else np.array([array, array])
    bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}.get(how)
    if array.ndim == 0:
        return bad if bad is not None else -abs(float(array)) - 0.5
    flat = array.ravel()
    flat[index % flat.size] = bad if bad is not None else -abs(flat[index % flat.size]) - 0.5
    return flat.reshape(array.shape)


def corruptions(names):
    """Up to two (field, corruption, entry index) triples; none leaves the game valid."""
    return st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(CORRUPTIONS), st.integers(0, 10)),
        max_size=2,
    )


def corrupted(changes):
    def value(name, valid):
        for field, how, index in changes:
            if field == name:
                valid = corrupt(valid, how, index)
        return valid

    return value


GRID_POINTS = np.array([0.0, 0.2, 0.5, 0.7, 1.0])
CROSS = np.array([[1.0, 0.3], [0.3, 1.0]])
INVENTORIES = np.array([[1.0, -0.5], [0.25, 0.75]])


def game_spec(value):
    return GameSpec(
        grid=TimeGrid(value("points", GRID_POINTS)),
        kernel=exponential_kernel(),
        cross_impact=value("cross_impact", CROSS),
        inventories=value("inventories", INVENTORIES),
        theta=value("theta", 0.2),
        gamma=value("gamma", 0.5),
        beta=value("beta", 0.5),
        covariance=value("covariance", CROSS),
    )


def hetero_game_spec(value):
    return GameSpec(
        grid=TimeGrid(value("points", GRID_POINTS)),
        kernel=exponential_kernel(),
        cross_impact=value("cross_impact", CROSS),
        inventories=value("inventories", INVENTORIES),
        theta=value("thetas", np.array([0.1, 0.4])),
        scales=value("scales", np.array([1.0, 0.8])),
        priority=value("priority", np.array([[0.0, 0.3], [0.7, 0.0]])),
        mask=value("mask", np.ones((2, 2))),
    )


# spec kind -> (constructor, solver, corruptible fields)
KINDS = {
    "game": (game_spec, solve,
             ("points", "cross_impact", "inventories", "theta", "gamma", "beta", "covariance")),
    "hetero": (hetero_game_spec, solve,
               ("points", "cross_impact", "inventories", "thetas", "scales", "priority", "mask")),
}


def assert_sound(kind, changes):
    """Building and solving raises ValueError, or executes every inventory."""
    build, solve, _ = KINDS[kind]
    try:
        spec = build(corrupted(changes))
        strategies = solve(spec).strategies
    except ValueError:
        return
    assert np.all(np.isfinite(strategies))
    scale = max(np.abs(spec.inventories).max(), 1.0)
    assert np.abs(strategies.sum(axis=2) - spec.inventories).max() <= 1e-9 * scale


@pytest.mark.parametrize("how", CORRUPTIONS)
@pytest.mark.parametrize("kind, field", [(k, f) for k, (_, _, fields) in KINDS.items() for f in fields])
def test_each_single_corruption(kind, field, how):
    assert_sound(kind, [(field, how, 1)])


@pytest.mark.parametrize("entry", [np.nan, -3.0, 2.0])
def test_each_non_boolean_mask_entry(entry):
    # a cast to bool would read each of these as tradable
    mask = np.ones((2, 2))
    mask[0, 1] = entry
    with pytest.raises(ValueError, match="mask entries"):
        hetero_game_spec(lambda name, valid: mask if name == "mask" else valid)


@settings(max_examples=50)
@given(corruptions(KINDS["game"][2]))
def test_game_spec_fuzz(changes):
    assert_sound("game", changes)


@settings(max_examples=50)
@given(corruptions(KINDS["hetero"][2]))
def test_hetero_game_spec_fuzz(changes):
    assert_sound("hetero", changes)


@pytest.mark.parametrize("how", CORRUPTIONS)
def test_time_grid_rejects_each_corruption(how):
    with pytest.raises(ValueError):
        TimeGrid(corrupt(GRID_POINTS, how, 2))
