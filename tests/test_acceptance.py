"""Acceptance gate: every criterion below prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Reference values printed with four decimals carry half a
unit of last-place rounding slack on top of the stated relative tolerance.
"""

import dataclasses
import functools
import time
from itertools import permutations

import numpy as np
import pytest

from conftest import assert_matches_printed
from impact_games import (
    GameSpec,
    aggregate_flow_is_zero,
    analyze_cross_impact,
    arbitrageur_is_idle,
    build_matrices,
    closed_form_equilibrium,
    expected_cost,
    exponential_kernel,
    impact_drift,
    is_unstable_at,
    make_equidistant_grid,
    one_factor_matrix,
    oscillation_flags,
    payoff_matrix,
    power_law_kernel,
    simulate_price,
    solve_hetero_nash,
    stationarity_residual,
)
from impact_games.cli import run_experiment
from impact_games.stability import SweepBase, critical_theta, stability_sweep

KERNEL = exponential_kernel()


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:>2} FAIL  {description}", flush=True)
                raise
            print(f"criterion {number:>2} PASS  {description}", flush=True)

        return run

    return wrap


@criterion(1, "base-case critical fee 0.25 +- 0.01 (M=1, J=2, N=50) in < 5 s")
def test_criterion_1_critical_threshold_base_case(tmp_path):
    start = time.perf_counter()
    config = {
        "experiment": "theta-critical",
        "grid": {"steps": 50},
        "kernel": {"family": "exponential", "rate": 1.0},
        "cross_impact": {"family": "identity", "size": 1},
        "n_agents": 2,
        "gamma": 0.0,
        "tolerances": {"bisection": 1e-4},
    }
    report = run_experiment(config, tmp_path)
    elapsed = time.perf_counter() - start
    assert abs(report["results"]["estimate"] - 0.25) <= 0.01
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(2, "two-asset threshold: unstable at 0.3 and estimate 0.475 +- 0.01 in < 10 s")
def test_criterion_2_multi_asset_threshold_theorem():
    start = time.perf_counter()
    cross = one_factor_matrix(2, 0.9)
    fig_spec = GameSpec(
        grid=make_equidistant_grid(50, 1.0), kernel=KERNEL, cross_impact=cross, n_agents=2
    )
    assert is_unstable_at(fig_spec, 0.3)
    # the estimation grid is free; a fine one keeps the finite-grid bias small
    fine = GameSpec(
        grid=make_equidistant_grid(300, 1.0), kernel=KERNEL, cross_impact=cross, n_agents=2
    )
    report = critical_theta(fine, tol=1e-3)
    assert abs(report.estimate - 0.475) <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


@criterion(3, "many-agent prediction, mean relative gap <= 1e-2 over (M,J) grid in < 5 min")
def test_criterion_3_conjecture_validation_desk_scale():
    start = time.perf_counter()
    base = SweepBase(kernel=KERNEL, coupling=0.5, gamma=10.0, rel_tol=1e-4)
    points = [
        {"n_assets": m, "n_agents": j, "n_steps": 100}
        for m in (1, 2, 3)
        for j in (2, 3, 4)
    ]
    rows = stability_sweep(points, base)
    assert all(row.error is None for row in rows)
    gaps = [row.rel_discrepancy for row in rows]
    assert np.mean(gaps) <= 1e-2, f"mean relative discrepancy {np.mean(gaps):.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.2f}s"


@criterion(4, "crowding-scaled prediction, relative gap <= 5e-2 for beta in {0, 1/2, 1}")
def test_criterion_4_beta_scaling():
    base = SweepBase(kernel=KERNEL, coupling=0.5, gamma=10.0, rel_tol=1e-4)
    points = [
        {"n_assets": 5, "n_agents": j, "n_steps": 50, "beta": beta}
        for beta in (0.0, 0.5, 1.0)
        for j in (2, 3, 4)
    ]
    rows = stability_sweep(points, base)
    assert all(row.error is None for row in rows)
    for row in rows:
        assert row.rel_discrepancy <= 5e-2, f"{row.params}: {row.rel_discrepancy:.2e}"


@criterion(5, "venue-choice payoff table reproduces all four published cells to 1e-3")
def test_criterion_5_payoff_table():
    spec = GameSpec(
        grid=make_equidistant_grid(25, 1.0),
        kernel=KERNEL,
        cross_impact=one_factor_matrix(2, 0.6),
        inventories=np.array([[1.0, 0.0], [0.0, 0.0]]),
        theta=np.array([1.5, 1.5]),
    )
    first_only = np.array([True, False])
    both = np.array([True, True])
    table = payoff_matrix(spec, [[first_only, both], [first_only, both]])
    reported = {
        (0, 0): (0.4882, -0.0370),
        (0, 1): (0.4935, -0.0412),
        (1, 0): (0.4836, -0.0334),
        (1, 1): (0.4885, -0.0377),
    }
    for cell, values in reported.items():
        for agent, value in enumerate(values):
            assert_matches_printed(table.costs[cell + (agent,)], value)
    assert table.equilibrium[1, 1] and table.equilibrium.sum() == 1


@criterion(6, "three-agent costs: (0.1056, 0.1056, 0) and (0.8911, 0.8911, -0.0996)")
def test_criterion_6_three_agent_costs():
    cross = one_factor_matrix(2, 0.6)

    def costs_for(inventories):
        spec = GameSpec(
            grid=make_equidistant_grid(25, 1.0),
            kernel=KERNEL,
            cross_impact=cross,
            inventories=np.asarray(inventories, dtype=float),
            theta=1.5,
        )
        eq = closed_form_equilibrium(spec)
        return [expected_cost(spec, eq.strategies, j) for j in range(3)]

    balanced = costs_for([[1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    assert_matches_printed(balanced[0], 0.1056)
    assert_matches_printed(balanced[1], 0.1056)
    assert abs(balanced[2]) <= 1e-12

    sellers = costs_for([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert_matches_printed(sellers[0], 0.8911)
    assert_matches_printed(sellers[1], 0.8911)
    assert_matches_printed(sellers[2], -0.0996)


@criterion(7, "per-agent fees: (1,1)->(0.7970, 0.7970) and (1,0.5)->(0.8286, 0.7317)")
def test_criterion_7_heterogeneous_fees():
    def costs_for(thetas):
        spec = GameSpec(
            grid=make_equidistant_grid(15, 1.0),
            kernel=KERNEL,
            cross_impact=np.eye(1),
            inventories=np.array([[1.0, 1.0]]),
            theta=np.asarray(thetas, dtype=float),
        )
        eq = solve_hetero_nash(spec)
        return [expected_cost(spec, eq.strategies, j) for j in range(2)]

    equal = costs_for([1.0, 1.0])
    assert_matches_printed(equal[0], 0.7970)
    assert_matches_printed(equal[1], 0.7970)
    uneven = costs_for([1.0, 0.5])
    assert_matches_printed(uneven[0], 0.8286)
    assert_matches_printed(uneven[1], 0.7317)


@criterion(8, "execution-priority cost table, all five published rows to 1e-3")
def test_criterion_8_priority_game():
    rows = {
        0.5: (0.7970, 0.7970),
        2.0 / 3.0: (0.8173, 0.7765),
        0.75: (0.8274, 0.7662),
        0.8: (0.8333, 0.7601),
        1.0: (0.8568, 0.7360),
    }
    for speed, expected in rows.items():
        spec = GameSpec(
            grid=make_equidistant_grid(15, 1.0),
            kernel=KERNEL,
            cross_impact=np.eye(1),
            inventories=np.array([[1.0, 1.0]]),
            theta=np.array([1.0, 1.0]),
            priority=np.array([[0.0, speed], [1.0 - speed, 0.0]]),
        )
        eq = solve_hetero_nash(spec)
        assert_matches_printed(expected_cost(spec, eq.strategies, 0), expected[0])
        assert_matches_printed(expected_cost(spec, eq.strategies, 1), expected[1])


@criterion(9, "per-agent impact scales: (0.6521, 0.2582) and (0.7975, 0.7975)")
def test_criterion_9_impact_scale_costs():
    def costs_for(scales):
        spec = GameSpec(
            grid=make_equidistant_grid(25, 1.0),
            kernel=KERNEL,
            cross_impact=np.eye(1),
            inventories=np.array([[1.0, 1.0]]),
            theta=np.array([1.5, 1.5]),
            scales=np.asarray(scales, dtype=float),
        )
        eq = solve_hetero_nash(spec)
        return [expected_cost(spec, eq.strategies, j) for j in range(2)]

    uneven = costs_for([1.0, 0.5])  # crowding exponents (0, 1) for two agents
    assert_matches_printed(uneven[0], 0.6521)
    assert_matches_printed(uneven[1], 0.2582)
    even = costs_for([1.0, 1.0])
    assert_matches_printed(even[0], 0.7975)
    assert_matches_printed(even[1], 0.7975)


def _random_homogeneous_spec(rng, allow_gamma=False):
    n_assets = int(rng.integers(1, 4))
    n_agents = int(rng.integers(2, 5))
    n_steps = int(rng.integers(1, 21))
    kernel = (
        exponential_kernel(rate=float(rng.uniform(0.3, 3.0)))
        if rng.random() < 0.7
        else power_law_kernel(exponent=float(rng.uniform(0.3, 2.0)), offset=float(rng.uniform(0.2, 1.0)))
    )
    cross = (
        one_factor_matrix(n_assets, float(rng.uniform(0.05, 0.9)))
        if n_assets > 1
        else np.eye(1)
    )
    gamma = float(rng.uniform(0.0, 5.0)) if allow_gamma else 0.0
    return GameSpec(
        grid=make_equidistant_grid(n_steps, 1.0),
        kernel=kernel,
        cross_impact=cross,
        inventories=rng.normal(size=(n_assets, n_agents)),
        theta=float(rng.uniform(0.0, 2.0)),
        gamma=gamma,
        covariance=cross if gamma > 0 else None,
    )


@criterion(10, "property suite: conservation, solver agreement, spectra, stationarity")
def test_criterion_10_property_suite():
    rng = np.random.default_rng(7)

    # closed form vs stacked solver on 50 random identical-agent games,
    # plus inventory conservation and unit-sum profiles
    for _ in range(50):
        spec = _random_homogeneous_spec(rng)
        eq = closed_form_equilibrium(spec)
        scale = max(np.abs(spec.inventories).max(), 1.0)
        assert np.abs(eq.totals() - spec.inventories).max() <= 1e-10 * scale
        for pair in eq.fundamentals:
            assert abs(pair.mean_profile.sum() - 1.0) <= 1e-12
            assert abs(pair.deviation_profile.sum() - 1.0) <= 1e-12
        stacked = solve_hetero_nash(
            GameSpec(
                grid=spec.grid,
                kernel=spec.kernel,
                cross_impact=spec.cross_impact,
                inventories=spec.inventories,
                theta=np.full(spec.n_agents, spec.theta),
            )
        )
        assert np.abs(stacked.strategies - eq.strategies).max() <= 1e-8

    # idle arbitrageur if and only if the aggregate flow vanishes
    for _ in range(50):
        spec = _random_homogeneous_spec(rng)
        inventories = spec.inventories.copy()
        inventories[:, -1] = 0.0
        if rng.random() < 0.5:
            inventories[:, -2] = -inventories[:, :-2].sum(axis=1)  # balance the flow
        spec = dataclasses.replace(spec, inventories=inventories)
        eq = closed_form_equilibrium(spec)
        assert aggregate_flow_is_zero(spec) == arbitrageur_is_idle(
            eq, spec.n_agents - 1, tol=1e-10
        )

    # identity cross impact decouples the assets
    for _ in range(5):
        inventories = rng.normal(size=(3, 3))
        spec = GameSpec(
            grid=make_equidistant_grid(12, 1.0),
            kernel=KERNEL,
            cross_impact=np.eye(3),
            inventories=inventories,
            theta=0.8,
        )
        joint = closed_form_equilibrium(spec)
        for asset in range(3):
            single = closed_form_equilibrium(
                GameSpec(
                    grid=spec.grid,
                    kernel=KERNEL,
                    cross_impact=np.eye(1),
                    inventories=inventories[asset : asset + 1],
                    theta=0.8,
                )
            )
            assert np.abs(joint.strategies[asset] - single.strategies[0]).max() <= 1e-10

    # fair-priority costs equal the average over every arrival permutation
    for n_agents in (2, 3, 4):
        grid = make_equidistant_grid(3, 1.0)
        spec = GameSpec(
            grid=grid,
            kernel=KERNEL,
            cross_impact=one_factor_matrix(2, 0.5),
            inventories=rng.normal(size=(2, n_agents)),
            theta=0.4,
        )
        strategies = rng.normal(size=(2, n_agents, grid.n_points))
        bundle = build_matrices(grid, KERNEL)
        orders = list(permutations(range(n_agents)))
        for agent in range(n_agents):
            own = strategies[:, agent, :]
            brute = 0.5 * np.sum(spec.cross_impact * (own @ bundle.kernel_matrix @ own.T))
            brute += spec.theta * np.sum(own**2)
            for other in range(n_agents):
                if other != agent:
                    brute += np.sum(
                        spec.cross_impact * (own @ bundle.strict_lower @ strategies[:, other, :].T)
                    )
            for k in range(grid.n_points):
                latency = sum(
                    float(strategies[:, other, k] @ spec.cross_impact @ strategies[:, agent, k])
                    for order in orders
                    for other in range(n_agents)
                    if other != agent and order.index(other) < order.index(agent)
                )
                brute += bundle.kernel_at_zero * latency / len(orders)
            assert expected_cost(spec, strategies, agent) == pytest.approx(brute, rel=1e-12)

    # the top eigenvalue of any unit-diagonal matrix dominates the uniform bound
    for _ in range(200):
        n = int(rng.integers(2, 8))
        upper = np.triu(rng.uniform(-0.9, 0.9, size=(n, n)), k=1)
        q = upper + upper.T + np.eye(n)
        report = analyze_cross_impact(q)
        assert report.top_eigenvalue >= report.one_factor_bound - 1e-9

    # stationarity of the objective at equilibrium on 20 random games
    for _ in range(20):
        spec = _random_homogeneous_spec(rng, allow_gamma=True)
        eq = closed_form_equilibrium(spec)
        for agent in range(spec.n_agents):
            assert stationarity_residual(spec, eq.strategies, agent) <= 1e-8

    # eigenvector inventories factor through a single profile
    cross = one_factor_matrix(3, 0.5)
    probe = GameSpec(
        grid=make_equidistant_grid(10, 1.0), kernel=KERNEL, cross_impact=cross, n_agents=2
    )
    eigvec = closed_form_equilibrium(probe).spectrum.eigenvectors
    for m in range(3):
        shared = GameSpec(
            grid=probe.grid,
            kernel=KERNEL,
            cross_impact=cross,
            inventories=np.column_stack([eigvec[:, m]] * 2),
            theta=0.8,
        )
        eq = closed_form_equilibrium(shared)
        expected = np.einsum("i,k->ik", eigvec[:, m], eq.fundamentals[m].mean_profile)
        for agent in range(2):
            assert np.abs(eq.strategies[:, agent, :] - expected).max() <= 1e-9
        opposed = dataclasses.replace(
            shared, inventories=np.column_stack([eigvec[:, m], -eigvec[:, m]])
        )
        eq = closed_form_equilibrium(opposed)
        expected = np.einsum("i,k->ik", eigvec[:, m], eq.fundamentals[m].deviation_profile)
        assert np.abs(eq.strategies[:, 0, :] - expected).max() <= 1e-9


@criterion(11, "simulation: alternating drift below threshold, smooth above, seeded")
def test_criterion_11_simulation():
    def drift_steps(theta):
        spec = GameSpec(
            grid=make_equidistant_grid(50, 1.0),
            kernel=KERNEL,
            cross_impact=np.eye(1),
            inventories=np.array([[1.0, 1.0]]),
            theta=theta,
        )
        eq = closed_form_equilibrium(spec)
        session = impact_drift(spec, eq.strategies, spec.grid.points)[:, 0]
        return spec, eq, np.diff(session)

    _, _, smooth = drift_steps(1.5)
    assert not oscillation_flags(smooth).unstable
    spec, eq, jumpy = drift_steps(0.01)
    assert oscillation_flags(jumpy).flip_count > 10

    spec = dataclasses.replace(spec, covariance=np.eye(1))
    kwargs = dict(initial_prices=100.0, seed=99, fine_steps=10, horizon=1.2)
    one = simulate_price(spec, eq.strategies, **kwargs)
    two = simulate_price(spec, eq.strategies, **kwargs)
    assert one.unaffected.tobytes() == two.unaffected.tobytes()
    assert one.affected.tobytes() == two.affected.tobytes()
    assert one.drift.tobytes() == two.drift.tobytes()
