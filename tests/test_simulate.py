import dataclasses

import numpy as np
import pytest

from impact_games import (
    GameSpec,
    closed_form_equilibrium,
    exponential_kernel,
    impact_drift,
    make_equidistant_grid,
    one_factor_matrix,
    oscillation_flags,
    price_covariance,
    simulate_price,
    write_price_csv,
)

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
