import dataclasses

import numpy as np
import pytest

from impact_games import (
    GameSpec,
    TimeGrid,
    closed_form_equilibrium,
    exponential_kernel,
    impact_drift,
    make_equidistant_grid,
    one_factor_matrix,
    oscillation_flags,
    power_law_kernel,
    price_covariance,
    rank_one_matrix,
    simulate_price,
    write_price_csv,
)
from impact_games.simulate import _drift_weights, _fine_grid

KERNEL = exponential_kernel()


def sellers_spec(theta, n_steps=50, covariance=None):
    return GameSpec(
        grid=make_equidistant_grid(n_steps, 1.0),
        kernel=KERNEL,
        cross_impact=np.eye(1),
        inventories=np.array([[1.0, 1.0]]),
        theta=theta,
        covariance=covariance,
    )


def test_no_trading_means_no_impact():
    spec = sellers_spec(theta=1.5, covariance=np.eye(1))
    idle = np.zeros((1, 2, spec.grid.n_points))
    path = simulate_price(spec, idle, initial_prices=100.0, seed=3)
    assert np.array_equal(path.affected, path.unaffected)
    assert np.array_equal(path.drift, np.zeros_like(path.drift))


def test_large_fee_gives_smooth_drift_small_fee_alternates():
    quiet = sellers_spec(theta=1.5)
    eq = closed_form_equilibrium(quiet)
    path = simulate_price(quiet, eq.strategies, initial_prices=100.0, seed=0)
    # no covariance on the spec, so zero volatility: the affected path is
    # exactly the initial price plus drift
    assert np.array_equal(path.affected, 100.0 + path.drift)
    session = impact_drift(quiet, eq.strategies, quiet.grid.points)[:, 0]
    assert not oscillation_flags(np.diff(session)).unstable

    noisy = sellers_spec(theta=0.01)
    eq2 = closed_form_equilibrium(noisy)
    jumps = np.diff(impact_drift(noisy, eq2.strategies, noisy.grid.points)[:, 0])
    flags = oscillation_flags(jumps)
    assert flags.unstable and flags.flip_count > 10


def test_impact_decays_exponentially_after_the_last_trade():
    spec = sellers_spec(theta=1.5, n_steps=10)
    eq = closed_form_equilibrium(spec)
    path = simulate_price(spec, eq.strategies, initial_prices=0.0, horizon=2.0, seed=0)
    after = path.times > spec.grid.horizon
    tail_times, tail = path.times[after], path.drift[after, 0]
    ratios = tail[1:] / tail[:-1]
    expected = np.exp(-(tail_times[1:] - tail_times[:-1]))
    assert np.allclose(ratios, expected, rtol=1e-10)


def test_seed_determinism_is_byte_exact():
    spec = sellers_spec(theta=1.5, n_steps=20, covariance=2.0 * np.eye(1))
    eq = closed_form_equilibrium(spec)
    kwargs = dict(initial_prices=50.0, seed=424242, fine_steps=7)
    one = simulate_price(spec, eq.strategies, **kwargs)
    two = simulate_price(spec, eq.strategies, **kwargs)
    assert one.unaffected.tobytes() == two.unaffected.tobytes()
    assert one.affected.tobytes() == two.affected.tobytes()
    other = simulate_price(spec, eq.strategies, **{**kwargs, "seed": 7})
    assert one.unaffected.tobytes() != other.unaffected.tobytes()


def test_fine_grid_contains_every_trading_time():
    spec = sellers_spec(theta=1.5, n_steps=13)
    eq = closed_form_equilibrium(spec)
    path = simulate_price(spec, eq.strategies, initial_prices=0.0, fine_steps=4, seed=1)
    for t in spec.grid.points:
        assert np.any(path.times == t)


def test_horizon_must_cover_the_session():
    spec = sellers_spec(theta=1.5, n_steps=5)
    eq = closed_form_equilibrium(spec)
    with pytest.raises(ValueError, match="horizon"):
        simulate_price(spec, eq.strategies, initial_prices=0.0, horizon=0.5, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_initial_prices_must_be_finite(bad):
    spec = sellers_spec(theta=1.5, n_steps=5)
    eq = closed_form_equilibrium(spec)
    with pytest.raises(ValueError, match="initial_prices must be finite"):
        simulate_price(spec, eq.strategies, initial_prices=bad, seed=0)


def test_scalar_covariance_matches_the_matrix_form():
    q = one_factor_matrix(2, 0.5)
    explicit = np.array([[0.3, 0.1], [0.1, 0.2]])
    assert np.array_equal(price_covariance(0.3, q), 0.3 * np.eye(2))
    assert price_covariance("equal_to_Q", q) is q
    assert np.array_equal(price_covariance(explicit, q), explicit)

    spec = sellers_spec(theta=1.5, n_steps=8)
    eq = closed_form_equilibrium(spec)

    def affected(sigma):
        covariance = price_covariance(sigma, spec.cross_impact)
        spec_sigma = dataclasses.replace(spec, covariance=covariance)
        return simulate_price(spec_sigma, eq.strategies, initial_prices=1.0, seed=11).affected

    assert np.array_equal(affected(0.3), affected(np.array([[0.3]])))
    assert np.array_equal(affected("equal_to_Q"), affected(np.eye(1)))


def test_csv_round_trip(tmp_path):
    spec = sellers_spec(theta=1.5, n_steps=6, covariance=np.eye(1))
    eq = closed_form_equilibrium(spec)
    path = simulate_price(spec, eq.strategies, initial_prices=10.0, seed=5)
    out = tmp_path / "path.csv"
    write_price_csv(path, out)
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert data.shape[0] == path.times.size
    assert np.allclose(data["time"], path.times, atol=1e-9)
    assert np.allclose(data["affected_1"], path.affected[:, 0], rtol=1e-9)
    assert np.allclose(
        data["unaffected_1"] + data["drift_1"], data["affected_1"], atol=1e-9
    )


def linspace_fine_grid(trading_times, fine_steps):
    """The fine grid of the session as one ``np.linspace`` per trading interval."""
    segments = [np.array([trading_times[0]])]
    for left, right in zip(trading_times[:-1], trading_times[1:]):
        segments.append(np.linspace(left, right, fine_steps + 1)[1:])
    return np.concatenate(segments)


def random_grid(n_steps, seed):
    return np.concatenate([[0.0], np.cumsum(np.random.default_rng(seed).uniform(0.01, 0.3, n_steps))])


@pytest.mark.parametrize("fine_steps", [1, 7, 10])
@pytest.mark.parametrize(
    "points",
    [np.linspace(0.0, 1.0, 51), np.linspace(0.0, 2.5, 14), random_grid(30, 1), random_grid(9, 2)],
    ids=["equidistant_50", "equidistant_13", "random_30", "random_9"],
)
def test_fine_grid_is_the_linspace_loop_bit_for_bit(points, fine_steps):
    fine = _fine_grid(points, fine_steps, float(points[-1]))
    assert fine.tobytes() == linspace_fine_grid(points, fine_steps).tobytes()


@pytest.mark.parametrize(
    "points, horizon",
    [
        # less than half a step past a whole step: once cut short at 1.0 and 1.01
        (np.linspace(0.0, 1.0, 11), 1.005),
        (np.linspace(0.0, 1.0, 11), 1.0149),
        (np.linspace(0.0, 1.0, 11), 1.0151),
        (np.linspace(0.0, 1.0, 11), 1.3),
        # float noise in the extension once left the last time 2e-14 short
        (np.linspace(0.0, 1.0, 201), 1.2),
        (random_grid(12, 3), 4.0),
    ],
    ids=["half_step", "one_and_a_half_steps", "above_half_step", "whole_steps", "float_noise", "random"],
)
def test_fine_grid_ends_exactly_at_the_horizon(points, horizon):
    fine = _fine_grid(points, 10, horizon)
    step = points[-1] / (points.size - 1) / 10
    assert fine[-1] == horizon
    gaps = np.diff(fine)
    assert np.all(gaps > 0.0)
    # the extension keeps the mean fine step; only its last gap may differ
    # from it, by at most half a step, and no point sits next to the horizon
    extension = fine[fine > points[-1]]
    if extension.size > 1:
        assert np.allclose(np.diff(extension[:-1]), step, rtol=1e-9)
        assert 0.5 * step * (1 - 1e-9) <= extension[-1] - extension[-2] <= 1.5 * step * (1 + 1e-9)
    session = linspace_fine_grid(points, 10)
    assert fine[: session.size].tobytes() == session.tobytes()


def test_the_simulated_path_ends_at_the_horizon():
    spec = sellers_spec(theta=1.5, n_steps=10)
    eq = closed_form_equilibrium(spec)
    for horizon in (1.005, 1.0149):
        path = simulate_price(spec, eq.strategies, initial_prices=0.0, horizon=horizon, seed=0)
        assert path.times[-1] == horizon


def dense_drift(spec, strategies, times):
    """The drift with the kernel evaluated at every (time, trading time) lag."""
    volume = spec.scales[:, None] * np.asarray(strategies, dtype=float)
    flow = spec.cross_impact @ volume.sum(axis=1)
    lag = np.asarray(times, dtype=float)[:, None] - spec.grid.points[None, :]
    kernel = spec.effective_kernel
    weights = np.where(lag > 0.0, kernel(np.where(lag > 0.0, lag, 0.0)), 0.0)
    return -(weights @ flow.T)


def drift_game(kernel, points, beta=0.0):
    rng = np.random.default_rng(17)
    return GameSpec(
        grid=TimeGrid(points),
        kernel=kernel,
        cross_impact=rank_one_matrix([0.3, 0.55, 0.8]),
        inventories=rng.normal(size=(3, 4)),
        theta=0.4,
        beta=beta,
    )


DRIFT_GAMES = {
    "exponential": (exponential_kernel(rate=1.3), np.linspace(0.0, 1.0, 41), 0.0),
    "power_law": (power_law_kernel(exponent=0.5, offset=0.1), np.linspace(0.0, 1.0, 41), 0.0),
    "power_law_beta": (power_law_kernel(exponent=0.7, offset=0.2), np.linspace(0.0, 1.0, 41), 0.6),
    "exponential_random_grid": (exponential_kernel(rate=0.8), random_grid(25, 4), 0.0),
    "power_law_random_grid_beta": (power_law_kernel(exponent=0.4, offset=0.3), random_grid(25, 5), 0.5),
}


@pytest.mark.parametrize("name", sorted(DRIFT_GAMES))
def test_impact_drift_is_the_dense_formula_bit_for_bit(name):
    spec = drift_game(*DRIFT_GAMES[name])
    strategies = closed_form_equilibrium(spec).strategies
    fine = _fine_grid(spec.grid.points, 7, spec.grid.horizon + 0.4)
    for times in (spec.grid.points, fine, fine):
        drift = impact_drift(spec, strategies, times)
        assert drift.tobytes() == dense_drift(spec, strategies, times).tobytes()


def test_changed_games_do_not_reuse_stale_weights():
    base = drift_game(power_law_kernel(exponent=0.5, offset=0.1), np.linspace(0.0, 1.0, 31), 0.2)
    variants = [
        (base, 10),
        (dataclasses.replace(base, beta=0.3), 10),
        (dataclasses.replace(base, kernel=power_law_kernel(exponent=0.5, offset=0.1001)), 10),
        (dataclasses.replace(base, kernel=exponential_kernel(rate=1.0)), 10),
        (dataclasses.replace(base, kernel=exponential_kernel(rate=1.1)), 10),
        (dataclasses.replace(base, grid=TimeGrid(random_grid(30, 6))), 10),
        (base, 9),
        (base, 10),
    ]
    drifts = []
    for spec, fine_steps in variants:
        strategies = closed_form_equilibrium(spec).strategies
        horizon = spec.grid.horizon + 0.5
        path = simulate_price(spec, strategies, initial_prices=0.0, fine_steps=fine_steps, horizon=horizon)
        assert path.drift.tobytes() == dense_drift(spec, strategies, path.times).tobytes()
        drifts.append(path.drift)
    assert drifts[0].tobytes() == drifts[-1].tobytes()
    assert all(d.tobytes() != drifts[0].tobytes() for d in drifts[1:-1])


def test_cached_weights_are_read_only_and_paths_are_writable():
    spec = sellers_spec(theta=1.5, n_steps=12, covariance=np.eye(1))
    eq = closed_form_equilibrium(spec)
    path = simulate_price(spec, eq.strategies, initial_prices=1.0, seed=2)
    weights = _drift_weights(path.times.tobytes(), spec.grid.points.tobytes(), spec.effective_kernel)
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[-1, 0] = 1.0
    for array in (path.drift, path.affected, impact_drift(spec, eq.strategies, path.times)):
        assert array.flags.writeable
        assert not np.shares_memory(array, weights)
    path.drift[:] = 0.0
    again = simulate_price(spec, eq.strategies, initial_prices=1.0, seed=2)
    assert again.drift.tobytes() == dense_drift(spec, eq.strategies, again.times).tobytes()


def test_eight_paths_of_one_game_evaluate_the_kernel_once():
    spec = sellers_spec(theta=0.3, n_steps=40, covariance=np.eye(1))
    eq = closed_form_equilibrium(spec)
    _drift_weights.cache_clear()
    for seed in range(8):
        simulate_price(spec, eq.strategies, initial_prices=1.0, horizon=1.2, seed=seed)
    info = _drift_weights.cache_info()
    assert (info.misses, info.hits) == (1, 7)
