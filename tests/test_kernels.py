import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from impact_games import (
    DecayKernel,
    build_matrices,
    exponential_kernel,
    guarded_solve,
    make_equidistant_grid,
    power_law_kernel,
)
from impact_games.costs import priority_cross
from impact_games.kernels import TimeGrid


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
    assert np.array_equal(bundle.fair_priority, [[0.5, 0.0], [e1, 0.5]])
    # priority one half coincides with the fair matrix by definition
    assert np.array_equal(priority_cross(bundle, 0.5), bundle.fair_priority)


def test_two_point_variance_matrix():
    bundle = build_matrices(
        make_equidistant_grid(1, 1.0), exponential_kernel(), gamma=1.0, var_rate=1.0
    )
    variance = bundle.mv_self_cost - bundle.kernel_matrix
    assert np.array_equal(variance, [[0.0, 0.0], [0.0, 1.0]])


def test_kernel_matrix_decomposition_is_exact(rng):
    points = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, size=12))])
    bundle = build_matrices(TimeGrid(points), power_law_kernel(exponent=0.7, offset=0.3))
    rebuilt = bundle.strict_lower + bundle.strict_lower.T
    rebuilt += bundle.kernel_at_zero * np.eye(points.size)
    assert np.array_equal(bundle.kernel_matrix, rebuilt)


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
    bundle = build_matrices(grid, kernel, theta=theta)
    ones = np.ones(grid.n_points)
    for n_agents in (1, 2, 5):
        guarded_solve(bundle.mv_self_cost + (n_agents - 1) * bundle.fair_priority, ones)
    guarded_solve(bundle.mv_self_cost - bundle.fair_priority, ones)
    assert np.linalg.eigvalsh(bundle.kernel_matrix).min() > 0.0


@given(factor=st.floats(min_value=1e-3, max_value=1e3))
def test_kernel_scaling_hits_only_kernel_terms(factor):
    grid = make_equidistant_grid(5, 1.0)
    kernel = exponential_kernel()
    base = build_matrices(grid, kernel, theta=0.7, gamma=2.0, var_rate=1.5)
    scaled = build_matrices(grid, kernel.scaled(factor), theta=0.7, gamma=2.0, var_rate=1.5)
    for name in ("kernel_matrix", "strict_lower", "fair_priority"):
        assert np.allclose(
            getattr(scaled, name), factor * getattr(base, name), rtol=1e-14, atol=0
        )
    # the fee and risk additions are untouched by the kernel scale
    assert np.allclose(
        scaled.mv_self_cost - scaled.kernel_matrix,
        base.mv_self_cost - base.kernel_matrix,
        rtol=0,
        atol=1e-12,
    )


def test_build_matrices_rejects_bad_parameters():
    grid = make_equidistant_grid(3, 1.0)
    kernel = exponential_kernel()
    with pytest.raises(ValueError):
        build_matrices(grid, kernel, theta=-0.1)
    with pytest.raises(ValueError):
        build_matrices(grid, kernel, gamma=-1.0)
    with pytest.raises(ValueError):
        build_matrices(grid, kernel, var_rate=-2.0)


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


def test_scaled_requires_positive_factor():
    with pytest.raises(ValueError):
        exponential_kernel().scaled(0.0)


BUNDLE_FIELDS = ("kernel_matrix", "strict_lower", "fair_priority", "mv_self_cost")


def direct_bundle(grid, kernel, theta, gamma, var_rate):
    """Every bundle matrix evaluated from scratch, without the build cache."""
    t = grid.points
    lag = t[:, None] - t[None, :]
    eye = np.eye(t.size)
    g0 = kernel.at_zero
    strict_lower = np.where(lag > 0.0, kernel(np.where(lag > 0.0, lag, 0.0)), 0.0)
    kernel_matrix = strict_lower + strict_lower.T + g0 * eye
    self_cost = kernel_matrix + 2.0 * theta * eye
    price_variance = var_rate * np.minimum.outer(t, t)
    return {
        "kernel_matrix": kernel_matrix,
        "strict_lower": strict_lower,
        "fair_priority": strict_lower + 0.5 * g0 * eye,
        "mv_self_cost": self_cost + gamma * price_variance,
    }


@pytest.mark.parametrize(
    "kernel", [exponential_kernel(rate=1.3, scale=0.7), power_law_kernel(0.7, 0.3, scale=2.5)]
)
def test_build_matrices_is_bit_identical_after_a_warm_cache(kernel, rng):
    points = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, size=30))])
    grid = TimeGrid(points)
    # warm the cache on the same grid and kernel shape with other parameters
    build_matrices(grid, kernel.scaled(3.0), theta=2.0, gamma=1.0, var_rate=0.4)
    params = dict(theta=0.3, gamma=0.2, var_rate=1.7)
    bundle = build_matrices(grid, kernel.scaled(0.5), **params)
    expected = direct_bundle(grid, kernel.scaled(0.5), **params)
    for name in BUNDLE_FIELDS:
        assert np.array_equal(getattr(bundle, name), expected[name]), name


def test_mutating_a_bundle_does_not_change_the_next_build():
    grid = make_equidistant_grid(8, 1.0)
    kernel = exponential_kernel(rate=0.8)
    first = build_matrices(grid, kernel, theta=0.1, gamma=0.5, var_rate=1.0)
    reference = {name: getattr(first, name).copy() for name in BUNDLE_FIELDS}
    for name in BUNDLE_FIELDS:
        getattr(first, name)[...] = -1.0
    second = build_matrices(grid, kernel, theta=0.1, gamma=0.5, var_rate=1.0)
    for name in BUNDLE_FIELDS:
        assert np.array_equal(getattr(second, name), reference[name]), name
