from itertools import permutations

import numpy as np
import pytest

from conftest import assert_matches_printed
from impact_games import costs
from impact_games import (
    GameSpec,
    build_matrices,
    closed_form_equilibrium,
    cost_report,
    expected_cost,
    exponential_kernel,
    guarded_solve,
    make_equidistant_grid,
    one_factor_matrix,
    stationarity_residual,
    variance_and_mv,
)

KERNEL = exponential_kernel()


def make_spec(inventories, n_steps=25, theta=1.5, cross=None, **kw):
    inventories = np.atleast_2d(np.asarray(inventories, dtype=float))
    cross = np.eye(inventories.shape[0]) if cross is None else cross
    return GameSpec(
        grid=make_equidistant_grid(n_steps, 1.0),
        kernel=KERNEL,
        cross_impact=cross,
        inventories=inventories,
        theta=theta,
        **kw,
    )


def test_zero_strategy_costs_nothing():
    spec = make_spec([[1.0, 0.0]])
    strategies = np.zeros((1, 2, spec.grid.n_points))
    strategies[0, 0, 0] = 1.0  # the other agent trades, agent 1 does not
    assert expected_cost(spec, np.zeros_like(strategies), 1) == 0.0


@pytest.mark.parametrize("n_steps, theta", [(1, 0.5), (10, 0.5), (25, 2.0)])
def test_single_trader_optimal_cost_matches_closed_form(n_steps, theta):
    # substituting the one-trader optimum into its quadratic cost collapses to
    # half the squared inventory over the summed inverse of the fee-adjusted
    # kernel matrix
    inventory = 1.7
    spec = make_spec([[inventory]], n_steps=n_steps, theta=theta)
    eq = closed_form_equilibrium(spec)
    bundle = build_matrices(spec.grid, KERNEL, theta=theta)
    ones = np.ones(spec.grid.n_points)
    oracle = 0.5 * inventory**2 / (ones @ guarded_solve(bundle.mv_self_cost, ones))
    assert expected_cost(spec, eq.strategies, 0) == pytest.approx(oracle, rel=1e-12)


def test_seller_versus_idle_agent_costs():
    spec = make_spec([[1.0, 0.0]], n_steps=25, theta=1.5)
    eq = closed_form_equilibrium(spec)
    assert_matches_printed(expected_cost(spec, eq.strategies, 0), 0.4882)
    assert_matches_printed(expected_cost(spec, eq.strategies, 1), -0.0370)


def test_balanced_three_agent_costs():
    spec = make_spec(
        [[1.0, -1.0, 0.0], [0.0, 0.0, 0.0]], cross=one_factor_matrix(2, 0.6), theta=1.5
    )
    eq = closed_form_equilibrium(spec)
    report = cost_report(spec, eq.strategies)
    assert_matches_printed(report.expected[0], 0.1056)
    assert_matches_printed(report.expected[1], 0.1056)
    assert abs(report.expected[2]) <= 1e-12


def test_variance_identities(rng):
    spec = make_spec([[1.0, 0.5]], theta=0.5)  # no covariance: variance vanishes
    eq = closed_form_equilibrium(spec)
    var, mv = variance_and_mv(spec, eq.strategies, 0)
    assert var == 0.0
    assert mv == expected_cost(spec, eq.strategies, 0)

    # hand check on a two-point grid: only the final time carries variance
    spec2 = make_spec([[1.0, 0.5]], n_steps=1, theta=0.5, covariance=np.array([[1.0]]))
    a, b = 0.3, 0.7
    strategies = np.zeros((1, 2, 2))
    strategies[0, 0] = [a, b]
    var2, _ = variance_and_mv(spec2, strategies, 0)
    assert var2 == pytest.approx(b**2, rel=1e-14)


def test_cost_report_prices_each_agent_once(monkeypatch):
    spec = make_spec([[1.0, 0.5, -0.3]], theta=0.5, gamma=2.0, covariance=np.array([[0.8]]))
    strategies = closed_form_equilibrium(spec).strategies
    reference = [variance_and_mv(spec, strategies, j) for j in range(spec.n_agents)]
    calls = []
    price = costs.expected_cost
    monkeypatch.setattr(costs, "expected_cost", lambda *args: calls.append(args) or price(*args))
    report = cost_report(spec, strategies)
    assert len(calls) == spec.n_agents
    assert np.array_equal(report.variance, [variance for variance, _ in reference])
    assert np.array_equal(report.mean_variance, [mv for _, mv in reference])


def test_cost_splits_across_principal_assets(rng):
    cross = one_factor_matrix(3, 0.4)
    spec = make_spec(rng.normal(size=(3, 2)), cross=cross, theta=0.8)
    eq = closed_form_equilibrium(spec)
    direct = expected_cost(spec, eq.strategies, 0)
    split = 0.0
    for i, lam in enumerate(eq.spectrum.eigenvalues):
        single = GameSpec(
            grid=spec.grid,
            kernel=KERNEL.scaled(float(lam)),
            cross_impact=np.eye(1),
            inventories=eq.principal_strategies[i].sum(axis=1, keepdims=True).T,
            theta=spec.theta,
        )
        split += expected_cost(single, eq.principal_strategies[None, i], 0)
    assert direct == pytest.approx(split, rel=1e-10)


def brute_force_priority_cost(spec, strategies, agent):
    """Average the execution cost over every per-time arrival permutation."""
    bundle = build_matrices(spec.grid, spec.kernel)
    q = spec.cross_impact
    lower, g0 = bundle.strict_lower, bundle.kernel_at_zero
    n_agents, n_times = spec.n_agents, spec.grid.n_points
    own = strategies[:, agent, :]
    cost = 0.5 * np.sum(q * (own @ bundle.kernel_matrix @ own.T))
    cost += spec.theta * np.sum(own**2)
    for other in range(n_agents):
        if other == agent:
            continue
        cost += np.sum(q * (own @ lower @ strategies[:, other, :].T))
    orders = list(permutations(range(n_agents)))
    for k in range(n_times):
        latency = 0.0
        for order in orders:
            for other in range(n_agents):
                if other != agent and order.index(other) < order.index(agent):
                    latency += g0 * float(
                        strategies[:, other, k] @ q @ strategies[:, agent, k]
                    )
        cost += latency / len(orders)
    return cost


@pytest.mark.parametrize("n_agents", [2, 3, 4])
def test_fair_priority_equals_permutation_average(n_agents, rng):
    spec = GameSpec(
        grid=make_equidistant_grid(3, 1.0),
        kernel=KERNEL,
        cross_impact=one_factor_matrix(2, 0.5),
        inventories=rng.normal(size=(2, n_agents)),
        theta=0.4,
    )
    strategies = rng.normal(size=(2, n_agents, spec.grid.n_points))
    for agent in range(n_agents):
        oracle = brute_force_priority_cost(spec, strategies, agent)
        assert expected_cost(spec, strategies, agent) == pytest.approx(oracle, rel=1e-12)


def test_equilibrium_objective_is_stationary(rng):
    cross = one_factor_matrix(2, 0.5)
    spec = make_spec(
        rng.normal(size=(2, 3)), cross=cross, theta=0.7, gamma=4.0, covariance=cross
    )
    eq = closed_form_equilibrium(spec)
    for agent in range(spec.n_agents):
        # closed-form projected gradient
        assert stationarity_residual(spec, eq.strategies, agent) <= 1e-8
        # finite-difference directional derivative along feasible directions
        delta = rng.normal(size=(2, spec.grid.n_points))
        delta -= delta.mean(axis=1, keepdims=True)
        step = 1e-6
        plus, minus = eq.strategies.copy(), eq.strategies.copy()
        plus[:, agent, :] += step * delta
        minus[:, agent, :] -= step * delta
        _, mv_plus = variance_and_mv(spec, plus, agent)
        _, mv_minus = variance_and_mv(spec, minus, agent)
        assert abs(mv_plus - mv_minus) / (2 * step) <= 1e-8


def test_dimension_mismatch_is_rejected():
    spec = make_spec([[1.0, 0.0]])
    with pytest.raises(ValueError, match="shape"):
        expected_cost(spec, np.zeros((1, 2, 5)), 0)
