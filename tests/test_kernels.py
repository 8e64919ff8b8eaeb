import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from impact_games import (
    DecayKernel,
    GameSpec,
    build_matrices,
    closed_form_equilibrium,
    cost_report,
    critical_theta,
    exponential_kernel,
    guarded_solve,
    make_equidistant_grid,
    power_law_kernel,
)
from impact_games.costs import priority_cross
from impact_games.equilibrium import profile_systems
from impact_games.kernels import TimeGrid


def self_cost(bundle, grid, theta=0.0, gamma=0.0, var_rate=0.0):
    """The self-cost matrix K + 2 theta I + gamma v min(t_i, t_j): the mean system of one agent.

    The spec supplies the trading times, the agent count and gamma alone; K comes from ``bundle``.
    """
    spec = GameSpec(
        grid=grid, kernel=exponential_kernel(), cross_impact=np.eye(1), n_agents=1, gamma=gamma
    )
    return profile_systems(spec, bundle, theta, var_rate)[0]


def test_equidistant_two_points():
    grid = make_equidistant_grid(1, 1.0)
    assert np.array_equal(grid.points, [0.0, 1.0])
    assert grid.n_steps == 1
    assert grid.horizon == 1.0


def test_equidistant_spacing():
    grid = make_equidistant_grid(4, 1.0)
    assert np.allclose(grid.points, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0, rtol=0)


@pytest.mark.parametrize("n_steps, horizon", [(0, 1.0), (-3, 1.0), (2, 0.0), (2, -1.0)])
def test_equidistant_rejects_degenerate(n_steps, horizon):
    with pytest.raises(ValueError):
        make_equidistant_grid(n_steps, horizon)


def test_grid_must_start_at_zero_and_increase():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0]))
    with pytest.raises(ValueError, match="finite"):
        TimeGrid(np.array([0.0, 1.0, np.inf]))
    with pytest.raises(ValueError, match="finite"):
        TimeGrid(np.array([0.0, np.nan, 1.0]))


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        exponential_kernel(rate=0.0)
    with pytest.raises(ValueError):
        exponential_kernel(rate=1.0, scale=0.0)
    with pytest.raises(ValueError):
        power_law_kernel(exponent=-1.0, offset=1.0)
    with pytest.raises(ValueError):
        power_law_kernel(exponent=1.0, offset=0.0)  # lag-zero value must stay finite
    with pytest.raises(ValueError):
        DecayKernel(family="linear")


@pytest.mark.parametrize("field", ["rate", "exponent", "offset", "scale"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_kernel_rejects_non_finite_parameters(field, bad):
    for family in ("exponential", "power_law"):
        with pytest.raises(ValueError, match="finite"):
            DecayKernel(family=family, **{field: bad})


def test_two_point_exponential_bundle():
    bundle = build_matrices(make_equidistant_grid(1, 1.0), exponential_kernel())
    e1 = np.exp(-1.0)
    assert np.array_equal(bundle.kernel_matrix, [[1.0, e1], [e1, 1.0]])
    assert np.array_equal(bundle.strict_lower, [[0.0, 0.0], [e1, 0.0]])
    assert bundle.kernel_at_zero == 1.0
    # priority one half is the fair cross-cost matrix
    assert np.array_equal(priority_cross(bundle, 0.5), [[0.5, 0.0], [e1, 0.5]])


def test_two_point_variance_matrix():
    grid = make_equidistant_grid(1, 1.0)
    bundle = build_matrices(grid, exponential_kernel())
    variance = self_cost(bundle, grid, gamma=1.0, var_rate=1.0) - bundle.kernel_matrix
    assert np.array_equal(variance, [[0.0, 0.0], [0.0, 1.0]])


def test_kernel_matrix_decomposition_is_exact(rng):
    points = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, size=12))])
    bundle = build_matrices(TimeGrid(points), power_law_kernel(exponent=0.7, offset=0.3))
    rebuilt = bundle.strict_lower + bundle.strict_lower.T
    rebuilt += bundle.kernel_at_zero * np.eye(points.size)
    assert np.array_equal(bundle.kernel_matrix, rebuilt)


@pytest.mark.parametrize(
    "theta, gamma, var_rate",
    [(0.0, 0.0, 0.0), (0.7, 0.0, 1.5), (0.7, 2.0, 0.0), (0.05, 2.0, 1.5), (1.3, 0.4, 3.7)],
)
@pytest.mark.parametrize(
    "kernel", [exponential_kernel(rate=0.8, scale=1.7), power_law_kernel(0.5, 0.1, scale=0.3)]
)
def test_bundle_bytes_equal_the_scaled_identity_expressions(kernel, theta, gamma, var_rate, rng):
    points = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, size=17))])
    grid = TimeGrid(points)
    bundle = build_matrices(grid, kernel)
    eye = np.eye(points.size)
    g0 = kernel.at_zero
    lower = bundle.strict_lower
    reference = {
        "kernel_matrix": lower + lower.T + g0 * eye,
        "fair_priority": lower + 0.5 * g0 * eye,
        "mv_self_cost": lower + lower.T + g0 * eye + 2.0 * theta * eye
        + gamma * (var_rate * np.minimum.outer(points, points)),
    }
    formed = {
        "kernel_matrix": bundle.kernel_matrix,
        "fair_priority": priority_cross(bundle, 0.5),
        "mv_self_cost": self_cost(bundle, grid, theta, gamma, var_rate),
    }
    lag = points[:, None] - points[None, :]
    assert lower.tobytes() == np.where(lag > 0.0, kernel(np.where(lag > 0.0, lag, 0.0)), 0.0).tobytes()
    assert bundle.kernel_at_zero == g0
    for name, expected in reference.items():
        assert formed[name].tobytes() == expected.tobytes(), name


@given(prob=st.floats(min_value=0.0, max_value=1.0))
def test_priority_complement_recovers_kernel_matrix(prob):
    grid = make_equidistant_grid(6, 1.0)
    kernel = exponential_kernel(rate=0.8)
    bundle = build_matrices(grid, kernel)
    total = priority_cross(bundle, prob) + priority_cross(bundle, 1.0 - prob).T
    assert np.allclose(total, bundle.kernel_matrix, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "kernel",
    [exponential_kernel(), exponential_kernel(rate=3.0), power_law_kernel(2.0, 0.5)],
)
@pytest.mark.parametrize("theta", [0.0, 0.1, 1.0, 10.0])
def test_fee_systems_are_solvable_and_kernel_matrix_definite(kernel, theta):
    grid = make_equidistant_grid(20, 1.0)
    bundle = build_matrices(grid, kernel)
    ones = np.ones(grid.n_points)
    for n_agents in (1, 2, 5):
        spec = GameSpec(grid=grid, kernel=kernel, cross_impact=np.eye(1), n_agents=n_agents)
        mean, deviation = profile_systems(spec, bundle, theta, 0.0)
        guarded_solve(mean, ones)
    guarded_solve(deviation, ones)
    assert np.linalg.eigvalsh(bundle.kernel_matrix).min() > 0.0


@given(factor=st.floats(min_value=1e-3, max_value=1e3))
def test_kernel_scaling_hits_only_kernel_terms(factor):
    grid = make_equidistant_grid(5, 1.0)
    kernel = exponential_kernel()
    base = build_matrices(grid, kernel)
    scaled = build_matrices(grid, kernel.scaled(factor))
    for name in ("kernel_matrix", "strict_lower"):
        assert np.allclose(
            getattr(scaled, name), factor * getattr(base, name), rtol=1e-14, atol=0
        )
    assert np.allclose(
        priority_cross(scaled, 0.5), factor * priority_cross(base, 0.5), rtol=1e-14, atol=0
    )
    # the fee and risk additions are untouched by the kernel scale
    assert np.allclose(
        self_cost(scaled, grid, 0.7, 2.0, 1.5) - scaled.kernel_matrix,
        self_cost(base, grid, 0.7, 2.0, 1.5) - base.kernel_matrix,
        rtol=0,
        atol=1e-12,
    )


def test_build_matrices_rejects_bad_parameters():
    grid = make_equidistant_grid(3, 1.0)
    kernel = exponential_kernel()
    # the bundle holds the kernel alone; the game spec checks the fee and risk parameters
    with pytest.raises(TypeError):
        build_matrices(grid, kernel, theta=0.1)
    for name, value in (("theta", -0.1), ("gamma", -1.0), ("covariance", [[-2.0]])):
        with pytest.raises(ValueError) as excinfo:
            GameSpec(grid=grid, kernel=kernel, cross_impact=np.eye(1), n_agents=2, **{name: value})
        assert excinfo.value.argument == name


def test_build_matrices_rejects_increasing_kernel():
    # bypass constructor validation to simulate a corrupted kernel object
    bad = object.__new__(DecayKernel)
    for name, value in [
        ("family", "exponential"),
        ("rate", -1.0),
        ("exponent", 1.0),
        ("offset", 1.0),
        ("scale", 1.0),
    ]:
        object.__setattr__(bad, name, value)
    with pytest.raises(ValueError, match="nonincreasing"):
        build_matrices(make_equidistant_grid(3, 1.0), bad)


def test_a_kernel_that_underflows_on_the_grid_is_refused_by_every_solve_path():
    # exp(-1e5) is zero at the largest lag of 10 steps; the banded closed form forms no matrix
    grid, kernel = make_equidistant_grid(10, 1.0), exponential_kernel(rate=1e5)

    def game():
        return GameSpec(grid, kernel, cross_impact=np.eye(1), inventories=np.ones((1, 2)))

    refusals = {
        "build_matrices": lambda: build_matrices(grid, kernel),
        "closed form": lambda: closed_form_equilibrium(game()),
        "critical_theta": lambda: critical_theta(game()),
        "cost_report": lambda: cost_report(game(), closed_form_equilibrium(game()).strategies),
    }
    message = "decay kernel must be strictly positive on the sampled lags"
    for name, refused in refusals.items():
        with pytest.raises(ValueError) as raised:
            refused()
        assert str(raised.value) == message, name


def test_only_kernels_names_the_size_cap():
    # every kernel matrix is formed by build_matrices, which holds the one cap
    package = Path(__file__).resolve().parents[1] / "src" / "impact_games"
    naming = {
        module.stem
        for module in package.glob("*.py")
        for node in ast.walk(ast.parse(module.read_text()))
        if "MAX_FORMED_BYTES" in (getattr(node, key, None) for key in ("id", "attr", "name"))
    }
    assert naming == {"kernels"}


def test_scaled_requires_positive_factor():
    with pytest.raises(ValueError):
        exponential_kernel().scaled(0.0)


BUNDLE_FIELDS = ("kernel_matrix", "strict_lower")
SYSTEM_FIELDS = ("fair_priority", "mv_self_cost")


def formed_systems(bundle, grid, theta, gamma, var_rate):
    """The fair-priority and self-cost matrices formed from a bundle."""
    return {
        "fair_priority": priority_cross(bundle, 0.5),
        "mv_self_cost": self_cost(bundle, grid, theta, gamma, var_rate),
    }


def direct_bundle(grid, kernel, theta, gamma, var_rate):
    """Every bundle matrix and formed system evaluated from scratch, without the build cache."""
    t = grid.points
    lag = t[:, None] - t[None, :]
    eye = np.eye(t.size)
    g0 = kernel.at_zero
    strict_lower = np.where(lag > 0.0, kernel(np.where(lag > 0.0, lag, 0.0)), 0.0)
    kernel_matrix = strict_lower + strict_lower.T + g0 * eye
    own_cost = kernel_matrix + 2.0 * theta * eye
    price_variance = var_rate * np.minimum.outer(t, t)
    return {
        "kernel_matrix": kernel_matrix,
        "strict_lower": strict_lower,
        "fair_priority": strict_lower + 0.5 * g0 * eye,
        "mv_self_cost": own_cost + gamma * price_variance,
    }


@pytest.mark.parametrize(
    "kernel", [exponential_kernel(rate=1.3, scale=0.7), power_law_kernel(0.7, 0.3, scale=2.5)]
)
def test_build_matrices_is_bit_identical_after_a_warm_cache(kernel, rng):
    points = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, size=30))])
    grid = TimeGrid(points)
    # warm the cache on the same grid and kernel shape with another scale
    formed_systems(build_matrices(grid, kernel.scaled(3.0)), grid, 2.0, 1.0, 0.4)
    params = dict(theta=0.3, gamma=0.2, var_rate=1.7)
    bundle = build_matrices(grid, kernel.scaled(0.5))
    built = {name: getattr(bundle, name) for name in BUNDLE_FIELDS}
    built.update(formed_systems(bundle, grid, **params))
    expected = direct_bundle(grid, kernel.scaled(0.5), **params)
    for name in BUNDLE_FIELDS + SYSTEM_FIELDS:
        assert np.array_equal(built[name], expected[name]), name


def test_mutating_a_bundle_does_not_change_the_next_build():
    grid = make_equidistant_grid(8, 1.0)
    kernel = exponential_kernel(rate=0.8)
    params = dict(theta=0.1, gamma=0.5, var_rate=1.0)
    first = build_matrices(grid, kernel)
    reference = {name: getattr(first, name).copy() for name in BUNDLE_FIELDS}
    reference.update(formed_systems(first, grid, **params))
    for name in BUNDLE_FIELDS:
        getattr(first, name)[...] = -1.0
    second = build_matrices(grid, kernel)
    for name in BUNDLE_FIELDS:
        assert np.array_equal(getattr(second, name), reference[name]), name
    # the formed systems do not share memory with the bundle they come from
    systems = formed_systems(second, grid, **params)
    for name in SYSTEM_FIELDS:
        assert np.array_equal(systems[name], reference[name]), name
        systems[name][...] = -1.0
    for name in BUNDLE_FIELDS:
        assert np.array_equal(getattr(second, name), reference[name]), name
