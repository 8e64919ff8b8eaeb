import contextlib
import dataclasses
import re
import runpy
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import impact_games.equilibrium as equilibrium_module
from conftest import assert_matches_printed
from impact_games import (
    GameSpec,
    NumericError,
    analyze_cross_impact,
    assemble_equilibrium_system,
    block_matrix,
    build_matrices,
    closed_form_equilibrium,
    critical_theta,
    expected_cost,
    exponential_kernel,
    fundamental_solutions,
    guarded_solve,
    hetero,
    impact_drift,
    make_equidistant_grid,
    one_factor_matrix,
    oscillation_flags,
    payoff_matrix,
    power_law_kernel,
    rank_one_matrix,
    solve,
    solve_hetero_nash,
    stationarity_residual,
)

KERNEL = exponential_kernel()
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# printed (fundamentalist, arbitrageur) costs of the two-asset venue-choice
# game; cells are (seller option, idle agent option), 0 = asset 1 only
VENUE_CHOICE_COSTS = {
    (0, 0): (0.4882, -0.0370),
    (0, 1): (0.4935, -0.0412),
    (1, 0): (0.4836, -0.0334),
    (1, 1): (0.4885, -0.0377),
}


def hetero_spec(inventories, thetas, n_steps=15, scales=None, priority=0.5, cross=None, mask=None):
    inventories = np.atleast_2d(np.asarray(inventories, dtype=float))
    cross = np.eye(inventories.shape[0]) if cross is None else cross
    return GameSpec(
        grid=make_equidistant_grid(n_steps, 1.0),
        kernel=KERNEL,
        cross_impact=cross,
        inventories=inventories,
        theta=np.asarray(thetas, dtype=float),
        scales=scales,
        priority=priority,
        mask=mask,
    )


@pytest.mark.parametrize(
    "cross",
    [
        one_factor_matrix(4, 0.5),
        block_matrix([2, 2, 2], [0.6, 0.6, 0.6], 0.2),
        rank_one_matrix([0.2, 0.5, 0.7]),
    ],
    ids=["one_factor", "block", "rank_one"],
)
def test_homogeneous_inputs_match_the_closed_form(cross, rng, monkeypatch):
    inventories = rng.normal(size=(len(cross), 3))
    spec = hetero_spec(inventories, [0.7, 0.7, 0.7], n_steps=12, cross=cross)
    fundamental_calls = []

    def counted(*args, **kwargs):
        fundamental_calls.append(1)
        return fundamental_solutions(*args, **kwargs)

    monkeypatch.setattr(equilibrium_module, "fundamental_solutions", counted)
    closed = closed_form_equilibrium(spec)
    split, dims = solve_recording_dims(spec, monkeypatch)
    assert np.abs(split - closed.strategies).max() <= 1e-12
    # both agent models group the principal assets alike
    assert dims == [principal_dim(spec)] * len(fundamental_calls)


@pytest.mark.parametrize(
    "speed, expected",
    [
        (0.5, (0.7970, 0.7970)),
        (2.0 / 3.0, (0.8173, 0.7765)),
        (0.75, (0.8274, 0.7662)),
        (0.8, (0.8333, 0.7601)),
        (1.0, (0.8568, 0.7360)),
    ],
)
def test_priority_game_cost_table(speed, expected):
    # agent 2 executes before agent 1 with probability `speed`
    priority = np.array([[0.0, speed], [1.0 - speed, 0.0]])
    spec = hetero_spec([[1.0, 1.0]], [1.0, 1.0], priority=priority)
    eq = solve_hetero_nash(spec)
    assert_matches_printed(expected_cost(spec, eq.strategies, 0), expected[0])
    assert_matches_printed(expected_cost(spec, eq.strategies, 1), expected[1])


def test_one_cheap_agent_raises_the_other_agents_cost():
    spec = hetero_spec([[1.0, 1.0]], [1.0, 0.5])
    eq = solve_hetero_nash(spec)
    assert_matches_printed(expected_cost(spec, eq.strategies, 0), 0.8286)
    assert_matches_printed(expected_cost(spec, eq.strategies, 1), 0.7317)


def test_impact_scale_acts_like_a_smaller_inventory():
    # halving one agent's impact scale reproduces the identical-agent game
    # with that agent's inventory halved, costs included
    spec = hetero_spec([[1.0, 1.0]], [1.5, 1.5], n_steps=25, scales=[1.0, 0.5])
    eq = solve_hetero_nash(spec)
    assert_matches_printed(expected_cost(spec, eq.strategies, 0), 0.6521)
    assert_matches_printed(expected_cost(spec, eq.strategies, 1), 0.2582)

    transformed = closed_form_equilibrium(
        GameSpec(
            grid=spec.grid,
            kernel=KERNEL,
            cross_impact=np.eye(1),
            inventories=np.array([[1.0, 0.5]]),
            theta=1.5,
        )
    )
    rescaled = eq.strategies * np.array([1.0, 0.5])[None, :, None]
    assert np.abs(rescaled - transformed.strategies).max() <= 1e-10


def test_equal_scales_reproduce_the_identical_agent_costs():
    spec = hetero_spec([[1.0, 1.0]], [1.5, 1.5], n_steps=25)
    eq = solve_hetero_nash(spec)
    assert_matches_printed(expected_cost(spec, eq.strategies, 0), 0.7975)
    assert_matches_printed(expected_cost(spec, eq.strategies, 1), 0.7975)


def test_one_low_fee_agent_destabilizes_everyone():
    # a fee below the stability threshold makes its owner oscillate...
    spec = hetero_spec([[1.0, 1.0]], [1.0, 0.1])
    eq = solve_hetero_nash(spec)
    assert oscillation_flags(eq.strategies[0, 1, :]).unstable
    # ...and once low enough, the oscillation spreads to the expensive agent
    # even though that agent's own fee is far above the threshold
    spec = hetero_spec([[1.0, 1.0]], [1.0, 0.01], n_steps=25)
    eq = solve_hetero_nash(spec)
    for agent in range(2):
        flags = oscillation_flags(eq.strategies[0, agent, :])
        assert flags.unstable, f"agent {agent} should oscillate"


def test_stationarity_on_small_random_games(rng):
    for _ in range(5):
        n_agents = int(rng.integers(2, 4))
        cross = one_factor_matrix(2, float(rng.uniform(0.1, 0.8)))
        spec = GameSpec(
            grid=make_equidistant_grid(int(rng.integers(2, 5)), 1.0),
            kernel=KERNEL,
            cross_impact=cross,
            inventories=rng.normal(size=(2, n_agents)),
            theta=rng.uniform(0.2, 2.0, size=n_agents),
            scales=rng.uniform(0.5, 2.0, size=n_agents),
        )
        eq = solve_hetero_nash(spec)
        for agent in range(n_agents):
            assert stationarity_residual(spec, eq.strategies, agent) <= 1e-8
        assert np.abs(eq.totals() - spec.inventories).max() <= 1e-10


def coordinate_indices(spec):
    """Each (asset, agent) pair's strategy variables in the KKT system, in time order.

    Decodes the documented layout itself: with P pairs numbered agent by agent
    and within an agent by asset, pair p at trading time t is variable t * P + p.
    """
    pairs = [(i, j) for j in range(spec.n_agents) for i in range(spec.n_assets) if spec.mask[i, j]]
    times = np.arange(spec.grid.n_points)
    return {pair: times * len(pairs) + p for p, pair in enumerate(pairs)}


def test_fair_priority_blocks_recombine_into_the_kernel_matrix():
    spec = hetero_spec([[1.0, 1.0], [0.5, -0.5]], [0.3, 0.9],
                       scales=[1.0, 2.0], cross=one_factor_matrix(2, 0.4))
    system = assemble_equilibrium_system(spec)
    bundle = build_matrices(spec.grid, KERNEL)
    coords = coordinate_indices(spec)
    blocks = [np.concatenate([coords[i, j] for i in range(spec.n_assets)]) for j in range(2)]
    cross_01 = system.matrix[np.ix_(blocks[0], blocks[1])]
    cross_10 = system.matrix[np.ix_(blocks[1], blocks[0])]
    s0, s1 = spec.scales
    expected = s0 * s1 * np.kron(spec.cross_impact, bundle.kernel_matrix)
    assert np.abs(cross_01 + cross_10.T - expected).max() <= 1e-12


def test_scaled_flows_drive_the_price_path(rng):
    spec = hetero_spec([[1.0, 1.0]], [1.5, 1.5], scales=[1.0, 0.5])
    eq = solve_hetero_nash(spec)
    times = np.linspace(0.0, 2.0, 41)
    drift = impact_drift(spec, eq.strategies, times)
    # identical path when the scales are applied to the strategies instead
    plain = GameSpec(
        grid=spec.grid, kernel=KERNEL, cross_impact=spec.cross_impact, n_agents=2
    )
    rescaled = eq.strategies * np.array(spec.scales)[None, :, None]
    assert np.array_equal(drift, impact_drift(plain, rescaled, times))


def test_mask_forces_zero_and_inventory_consistency():
    with pytest.raises(ValueError, match="untradable"):
        hetero_spec(
            [[1.0, 0.0], [0.5, 0.0]],
            [1.0, 1.0],
            cross=one_factor_matrix(2, 0.3),
            mask=np.array([[True, True], [False, True]]),
        )
    spec = hetero_spec(
        [[1.0, 0.0], [0.0, 0.0]],
        [1.5, 1.5],
        cross=one_factor_matrix(2, 0.6),
        mask=np.array([[True, True], [False, True]]),
    )
    eq = solve_hetero_nash(spec)
    assert np.array_equal(eq.strategies[1, 0, :], np.zeros(spec.grid.n_points))
    assert np.abs(eq.strategies[1, 1, :]).max() > 0.0


def test_priority_pairs_must_sum_to_one():
    with pytest.raises(ValueError, match="must equal 1"):
        hetero_spec([[1.0, 1.0]], [1.0, 1.0], priority=np.array([[0.0, 0.7], [0.7, 0.0]]))


def test_singular_game_reports_no_unique_equilibrium():
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    spec = hetero_spec([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], cross=singular)
    with pytest.raises(NumericError, match="no unique equilibrium"):
        solve_hetero_nash(spec)


def test_venue_choice_payoff_table():
    spec = hetero_spec(
        [[1.0, 0.0], [0.0, 0.0]], [1.5, 1.5], n_steps=25, cross=one_factor_matrix(2, 0.6)
    )
    first_only = np.array([True, False])
    both = np.array([True, True])
    table = payoff_matrix(spec, [[first_only, both], [first_only, both]])

    for cell, (fundamentalist, arbitrageur) in VENUE_CHOICE_COSTS.items():
        assert_matches_printed(table.costs[cell + (0,)], fundamentalist)
        assert_matches_printed(table.costs[cell + (1,)], arbitrageur)
    # trading every asset dominates: the full/full cell is the only equilibrium
    assert table.equilibrium[1, 1]
    assert table.equilibrium.sum() == 1


def dense_reference(spec):
    """Strategies from one dense solve of the full stacked system."""
    system = assemble_equilibrium_system(spec)
    solution = guarded_solve(system.matrix, system.rhs)
    strategies = np.zeros((spec.n_assets, spec.n_agents, spec.grid.n_points))
    for (asset, j), coords in coordinate_indices(spec).items():
        strategies[asset, j, :] = solution[coords]
    return strategies


def recorded_dims(monkeypatch):
    """List that receives the dimension of every later linear solve of hetero."""
    dims = []

    def recording(matrix, rhs, *args, **kwargs):
        dims.append(len(matrix))
        return guarded_solve(matrix, rhs, *args, **kwargs)

    monkeypatch.setattr(hetero, "guarded_solve", recording)
    return dims


def solve_recording_dims(spec, monkeypatch):
    """Solve the game, recording the dimension of every linear solve it makes."""
    dims = recorded_dims(monkeypatch)
    return solve_hetero_nash(spec).strategies, dims


def principal_dim(spec):
    # J agents, each with N+1 strategy coordinates and one multiplier
    return spec.n_agents * (spec.grid.n_points + 1)


def asymmetric_priority(n_agents, rng):
    priority = np.zeros((n_agents, n_agents))
    upper = np.triu_indices(n_agents, 1)
    priority[upper] = rng.uniform(0.1, 0.9, upper[0].size)
    priority[upper[::-1]] = 1.0 - priority[upper]
    return priority


def uniform_game(rng, cross, n_agents=3, traded=None):
    n_assets = cross.shape[0]
    traded = np.ones(n_assets, dtype=bool) if traded is None else traded
    return hetero_spec(
        rng.normal(size=(n_assets, n_agents)) * traded[:, None],
        rng.uniform(0.2, 1.5, n_agents),
        n_steps=12,
        scales=rng.uniform(0.6, 1.6, n_agents),
        priority=asymmetric_priority(n_agents, rng),
        cross=cross,
        mask=np.repeat(traded[:, None], n_agents, axis=1),
    )


@pytest.mark.parametrize(
    "case, solves",
    [
        # 1 + 3 * 0.5 once, 0.5 three times
        ("one_factor", 2),
        # tradable block is one-factor on two assets: 1.5 and 0.5
        ("nested_mask", 2),
        # 0.4 three times, 1.2 twice, 2.4 once
        ("block", 3),
        ("rank_one", 3),
    ],
)
def test_principal_split_matches_the_dense_solve(case, solves, rng, monkeypatch):
    if case == "one_factor":
        spec = uniform_game(rng, one_factor_matrix(4, 0.5))
    elif case == "nested_mask":
        spec = uniform_game(rng, one_factor_matrix(4, 0.5), traded=np.array([1, 1, 0, 0], bool))
    elif case == "block":
        spec = uniform_game(rng, block_matrix([2, 2, 2], [0.6, 0.6, 0.6], 0.2))
    else:
        spec = uniform_game(rng, rank_one_matrix([0.2, 0.5, 0.7]))
    reference = dense_reference(spec)
    strategies, dims = solve_recording_dims(spec, monkeypatch)
    # one single-asset solve per distinct eigenvalue, no dense fallback
    assert dims == [principal_dim(spec)] * solves
    assert np.abs(strategies - reference).max() <= 1e-12
    assert np.all(strategies[~spec.mask] == 0.0)


@pytest.mark.parametrize(
    "traded, shapes",
    [(None, [(8, 8)]), (np.array([1, 1, 1, 1, 1, 0, 0, 0], bool), [(5, 5), (8, 8)])],
    ids=["every_asset", "nested_mask"],
)
def test_q_is_diagonalised_once_when_every_asset_is_traded(traded, shapes, rng, monkeypatch):
    spec = uniform_game(rng, rank_one_matrix(np.linspace(0.15, 0.85, 8)), traded=traded)
    reference = analyze_cross_impact(spec.cross_impact)
    shapes_seen = []

    def counted(matrix):
        shapes_seen.append(np.shape(matrix))
        return analyze_cross_impact(matrix)

    monkeypatch.setattr(equilibrium_module, "analyze_cross_impact", counted)
    monkeypatch.setattr(hetero, "analyze_cross_impact", counted)
    spectrum = solve_hetero_nash(spec).spectrum
    assert shapes_seen == shapes
    assert spectrum.eigenvalues.tobytes() == reference.eigenvalues.tobytes()
    assert spectrum.eigenvectors.tobytes() == reference.eigenvectors.tobytes()
    assert spectrum.top_eigenvalue == reference.top_eigenvalue
    assert spectrum.one_factor_bound == reference.one_factor_bound


def test_non_uniform_masks_take_the_stacked_solve(rng, monkeypatch):
    spec = uniform_game(rng, one_factor_matrix(3, 0.4))
    mask = spec.mask.copy()
    mask[2, 0] = False
    spec = dataclasses.replace(spec, inventories=spec.inventories * mask, mask=mask)
    strategies, dims = solve_recording_dims(spec, monkeypatch)
    assert dims == [len(assemble_equilibrium_system(spec).matrix)]
    assert np.array_equal(strategies, dense_reference(spec))


def venue_game(seed, n_assets):
    """Uniform venue-choice game with seeded fees, scales and priority; 6 agents, N = 120."""
    rng = np.random.default_rng(seed)
    n_agents = 6
    thetas = rng.uniform(0.05, 0.5, n_agents)
    scales = rng.uniform(0.7, 1.3, n_agents)
    inventories = np.zeros((n_assets, n_agents))
    inventories[0] = rng.uniform(-1.0, 1.0, n_agents)
    upper = np.triu_indices(n_agents, 1)
    priority = np.zeros((n_agents, n_agents))
    priority[upper] = rng.uniform(0.2, 0.8, upper[0].size)
    priority[upper[::-1]] = 1.0 - priority[upper]
    return GameSpec(
        grid=make_equidistant_grid(120, 1.0),
        kernel=power_law_kernel(0.5, 0.1),
        cross_impact=one_factor_matrix(n_assets, 0.6),
        inventories=inventories,
        theta=thetas,
        scales=scales,
        priority=priority,
    )


# agent-major LU grows the entries of these games' top-eigenvalue system by
# 5e4 and 7e11; unordered, the split missed the inventories by 1.7e-11 and 2.2e-5
@pytest.mark.parametrize("seed, n_assets", [([54, 49], 4), ([91, 106], 8)])
def test_time_major_principal_solves_avoid_the_dense_fallback(seed, n_assets, monkeypatch):
    spec = venue_game(seed, n_assets)
    strategies, dims = solve_recording_dims(spec, monkeypatch)
    # eigenvalues 0.4 (n_assets - 1 times) and 1 + (n_assets - 1) * 0.6
    assert dims == [principal_dim(spec)] * 2
    assert np.abs(strategies.sum(axis=2) - spec.inventories).max() <= 1e-13
    residual = max(stationarity_residual(spec, strategies, j) for j in range(spec.n_agents))
    assert residual <= 1e-12


def test_stacked_solve_meets_the_conditions_in_one_time_major_solve(monkeypatch):
    # the top-eigenvalue system of the [91, 106] venue game as a one-asset game;
    # agent-major, the stacked solve missed the inventories by 1.2e-4
    game = venue_game([91, 106], 8)
    spec = dataclasses.replace(
        game, cross_impact=np.array([[5.2]]), inventories=game.inventories[:1], mask=None
    )
    strategies, dims = solve_recording_dims(spec, monkeypatch)
    assert dims == [principal_dim(spec)]
    assert np.abs(strategies.sum(axis=2) - spec.inventories).max() <= 1e-13
    residual = max(stationarity_residual(spec, strategies, j) for j in range(spec.n_agents))
    assert residual <= 1e-12


def test_stacked_solve_failing_its_check_raises(rng, monkeypatch):
    spec = hetero_spec([[1.0, -0.5]], [0.1, 0.3])
    monkeypatch.setattr(hetero, "stationarity_residual", lambda *args: 1.0)
    with pytest.raises(NumericError, match="stacked solve misses the inventory or first-order"):
        solve_hetero_nash(spec)


def test_failed_equilibrium_check_falls_back_to_the_dense_solve(rng, monkeypatch):
    spec = uniform_game(rng, one_factor_matrix(3, 0.4))
    checked = []

    def fails_first_check(*args):
        # the split's check fails; the stacked result is checked for real
        checked.append(args)
        return 1.0 if len(checked) == 1 else stationarity_residual(*args)

    monkeypatch.setattr(hetero, "stationarity_residual", fails_first_check)
    strategies, dims = solve_recording_dims(spec, monkeypatch)
    assert dims == [principal_dim(spec)] * 2 + [len(assemble_equilibrium_system(spec).matrix)]
    assert np.array_equal(strategies, dense_reference(spec))


def per_cell_costs(base, mask_options):
    """Payoff table priced one cell at a time with expected_cost."""
    candidates = {}
    for mask in {tuple(m) for per_agent in mask_options for m in per_agent}:
        uniform = GameSpec(
            grid=base.grid,
            kernel=base.kernel,
            cross_impact=base.cross_impact,
            inventories=base.inventories,
            theta=base.theta,
            scales=base.scales,
            priority=base.priority,
            mask=np.repeat(np.array(mask)[:, None], base.n_agents, axis=1),
        )
        candidates[mask] = solve_hetero_nash(uniform).strategies
    shape = tuple(len(per_agent) for per_agent in mask_options)
    costs = np.empty(shape + (base.n_agents,))
    for combo in product(*(range(k) for k in shape)):
        strategies = np.stack(
            [candidates[tuple(mask_options[j][o])][:, j, :] for j, o in enumerate(combo)], axis=1
        )
        for j in range(base.n_agents):
            costs[combo + (j,)] = expected_cost(base, strategies, j)
    return costs


def venue_choice_game():
    spec = hetero_spec(
        [[1.0, 0.0], [0.0, 0.0]], [1.5, 1.5], n_steps=25, cross=one_factor_matrix(2, 0.6)
    )
    options = [np.array([True, False]), np.array([True, True])]
    return spec, [options, options]


def random_venue_game(rng):
    # every option trades asset 0, which holds all the inventory
    inventories = np.zeros((3, 3))
    inventories[0] = rng.uniform(-1.0, 1.0, 3)
    spec = hetero_spec(
        inventories,
        rng.uniform(0.2, 1.0, 3),
        n_steps=10,
        scales=rng.uniform(0.7, 1.3, 3),
        priority=asymmetric_priority(3, rng),
        cross=rank_one_matrix([0.3, 0.5, 0.6]),
    )
    options = [np.array(m, dtype=bool) for m in ([1, 1, 1], [1, 1, 0], [1, 0, 1])]
    return spec, [options, options[::-1], options]


def count_expected_cost_calls(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return expected_cost(*args)

    monkeypatch.setattr(hetero, "expected_cost", counting)
    return calls


@pytest.mark.parametrize("game", ["venue_choice", "random"])
def test_pairwise_payoff_table_equals_per_cell_costs(game, rng, monkeypatch):
    base, options = venue_choice_game() if game == "venue_choice" else random_venue_game(rng)
    reference = per_cell_costs(base, options)
    calls = count_expected_cost_calls(monkeypatch)
    table = payoff_matrix(base, options)
    assert np.array_equal(table.costs, reference)
    # only the first and the last cell are priced per cell
    assert len(calls) == 2 * base.n_agents


def test_payoff_cell_mismatch_prices_every_cell(rng, monkeypatch):
    base, options = random_venue_game(rng)
    reference = per_cell_costs(base, options)
    cross_term = hetero.cross_cost_term
    monkeypatch.setattr(hetero, "cross_cost_term", lambda *args: cross_term(*args) + 1e-9)
    calls = count_expected_cost_calls(monkeypatch)
    table = payoff_matrix(base, options)
    assert np.array_equal(table.costs, reference)
    # the first cell already disagrees, then every cell is priced
    assert len(calls) == (1 + reference[..., 0].size) * base.n_agents


def venue_table_recording_dims(monkeypatch):
    """The 8-asset venue game with the options asset 0, the first half and all for every agent.

    Returns the game, its payoff table and the dimension of every linear
    solve the table made.
    """
    spec = venue_game([91, 106], 8)
    masks = [np.arange(8) < size for size in (1, 4, 8)]
    with monkeypatch.context() as patch:
        dims = recorded_dims(patch)
        table = payoff_matrix(spec, [masks] * spec.n_agents)
    return spec, table, dims


def test_payoff_table_factors_each_distinct_principal_system_once(monkeypatch):
    # eigenvalues 1; 0.4 and 2.8; 0.4 and 5.2: 0.4 is solved once for two masks
    spec, table, dims = venue_table_recording_dims(monkeypatch)
    assert dims == [principal_dim(spec)] * 4
    monkeypatch.setattr(hetero, "_shared_responses", contextlib.nullcontext)
    _, alone, dims = venue_table_recording_dims(monkeypatch)
    assert dims == [principal_dim(spec)] * 5
    assert np.allclose(table.costs, alone.costs, rtol=1e-12, atol=0.0)
    assert np.array_equal(table.equilibrium, alone.equilibrium)


def test_no_shared_response_outlives_a_payoff_table(monkeypatch):
    spec, _, _ = venue_table_recording_dims(monkeypatch)
    assert hetero._RESPONSES.get() is None
    # eigenvalues 0.4 and 5.2, each factored again
    _, dims = solve_recording_dims(spec, monkeypatch)
    assert dims == [principal_dim(spec)] * 2
    singular = hetero_spec([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], cross=np.ones((2, 2)))
    with pytest.raises(NumericError, match="no unique equilibrium"):
        payoff_matrix(singular, [[np.array([True, True])]] * 2)
    assert hetero._RESPONSES.get() is None


def test_only_eigenvalues_within_the_share_tolerance_share_responses(monkeypatch):
    spec = venue_game([54, 49], 4)
    dims = recorded_dims(monkeypatch)
    tol = equilibrium_module._SHARE_TOL
    with hetero._shared_responses():
        first = hetero._unit_responses(spec, 0.4)
        assert hetero._unit_responses(spec, 0.4 * (1.0 + 0.5 * tol)) is first
        assert hetero._unit_responses(spec, 0.4 * (1.0 - 0.5 * tol)) is first
        apart = hetero._unit_responses(spec, 0.4 * (1.0 + 2.0 * tol))
    assert apart is not first and len(dims) == 2
    # each agent's unit inventory: the strategy rows of column j sum to 1 for agent j only
    n = spec.grid.n_points
    totals = first[: n * spec.n_agents].reshape(n, spec.n_agents, -1).sum(axis=0)
    assert np.allclose(totals, np.eye(spec.n_agents), rtol=0.0, atol=1e-13)


def per_cell_equilibria(costs):
    """Equilibrium flags of a payoff table, one cell and one deviation at a time."""
    shape = costs.shape[:-1]
    nash = np.zeros(shape, dtype=bool)
    for combo in product(*(range(k) for k in shape)):
        nash[combo] = all(
            costs[combo[:j] + (alt,) + combo[j + 1 :] + (j,)]
            >= costs[combo + (j,)] - hetero._NASH_TOL * max(abs(costs[combo + (j,)]), 1.0)
            for j in range(len(shape))
            for alt in range(shape[j])
        )
    return nash


@given(st.integers(0, 2**32 - 1))
def test_equilibrium_flags_match_a_per_cell_loop(seed):
    rng = np.random.default_rng(seed)
    n_agents = int(rng.integers(2, 5))
    shape = [int(k) for k in rng.integers(1, 4, n_agents)]
    shape[rng.integers(n_agents)] = 1  # an agent with a single option
    # each agent's costs sit at a level or below it by 0.99 (just inside the
    # tolerance), 1 (on it), 1.01 (just outside) or 2 tolerance units; equal
    # steps tie
    level = rng.choice([0.0, 0.3, -0.7, 5.0, -40.0], n_agents)
    unit = hetero._NASH_TOL * np.maximum(np.abs(level), 1.0)
    costs = level - unit * rng.choice([0.0, 0.0, 0.99, 1.0, 1.01, 2.0], shape + [n_agents])
    assert np.array_equal(hetero._equilibrium_cells(costs), per_cell_equilibria(costs))


def test_equilibrium_flags_honour_the_tolerance():
    # agent 0 has two options, agent 1 one; agent 0's costs are 5 and 5 less
    # 0.99, 1 or 1.01 tolerance units of 5
    unit = hetero._NASH_TOL * 5.0
    for step, both in [(0.0, True), (0.99, True), (1.0, True), (1.01, False)]:
        costs = np.array([[[5.0, 1.0]], [[5.0 - step * unit, 1.0]]])
        assert costs[0, 0, 0] - costs[1, 0, 0] == pytest.approx(step * unit, rel=1e-3)
        assert hetero._equilibrium_cells(costs).tolist() == [[both], [True]]


def test_payoff_table_rejects_non_boolean_mask_options():
    base, options = venue_choice_game()
    with pytest.raises(ValueError, match="mask entries"):
        payoff_matrix(base, [[np.array([1.0, np.nan]), options[0][1]], options[1]])


def test_cost_tables_script_prints_the_venue_choice_table(capsys):
    runpy.run_path(str(SCRIPTS / "cost_tables.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    rows = [line for line in lines if line.lstrip().startswith("seller ")]
    assert len(rows) == 2
    pair = re.compile(r"\(\s*(-?\d\.\d{4}),\s*(-?\d\.\d{4})\)(\*?)")
    for seller, row in enumerate(rows):
        cells = pair.findall(row)
        assert len(cells) == 2
        for idle, (fundamentalist, arbitrageur, mark) in enumerate(cells):
            printed = VENUE_CHOICE_COSTS[seller, idle]
            assert_matches_printed(float(fundamentalist), printed[0])
            assert_matches_printed(float(arbitrageur), printed[1])
            assert (mark == "*") == ((seller, idle) == (1, 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "field",
    ["cross_impact", "inventories", pytest.param("theta", id="thetas"), "scales", "priority"],
)
def test_hetero_spec_rejects_non_finite_inputs(field, bad):
    values = {
        "cross_impact": np.eye(2),
        "inventories": np.array([[1.0, 0.5], [0.0, -0.5]]),
        "theta": np.array([1.0, 1.0]),
        "scales": np.array([1.0, 1.0]),
        "priority": np.array([[0.0, 0.5], [0.5, 0.0]]),
    }
    values[field] = values[field].copy()
    values[field].flat[1] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        GameSpec(grid=make_equidistant_grid(4, 1.0), kernel=KERNEL, **values)


def test_identical_agents_take_the_closed_form(rng, monkeypatch):
    # a fee vector with equal entries and equal scales other than one still
    # describe identical agents
    spec = hetero_spec(rng.normal(size=(2, 3)), [0.7, 0.7, 0.7], scales=[1.3, 1.3, 1.3],
                       cross=one_factor_matrix(2, 0.5))
    assert spec.identical_agents
    monkeypatch.setattr(hetero, "solve_hetero_nash", None)
    eq = solve(spec)
    assert np.array_equal(eq.strategies, closed_form_equilibrium(spec).strategies)
    assert eq.fundamentals is not None
    # a common scale multiplies every agent's objective, so the closed form
    # is still the equilibrium
    assert max(stationarity_residual(spec, eq.strategies, j) for j in range(3)) <= 1e-10


@pytest.mark.parametrize("differ", ["theta", "scales", "priority", "mask"])
def test_agents_that_differ_take_the_stacked_solve(differ, rng, monkeypatch):
    fields = {
        "theta": [0.4, 0.9],
        "scales": [1.0, 0.6],
        "priority": np.array([[0.0, 0.7], [0.3, 0.0]]),
        "mask": np.array([[True, True], [True, False]]),
    }
    inventories = np.array([[1.0, -0.5], [0.3, 0.0]])
    spec = hetero_spec(inventories, [0.5, 0.5], cross=one_factor_matrix(2, 0.4))
    assert spec.identical_agents
    spec = dataclasses.replace(spec, **{differ: fields[differ]})
    assert not spec.identical_agents
    stacked = []
    monkeypatch.setattr(hetero, "solve_hetero_nash", lambda s: stacked.append(s) or "stacked")
    assert solve(spec) == "stacked" and stacked == [spec]
    with pytest.raises(ValueError, match="identical agents"):
        closed_form_equilibrium(spec)
    with pytest.raises(ValueError, match="identical agents"):
        critical_theta(spec)


def test_risk_aversion_needs_identical_agents():
    spec = hetero_spec([[1.0, 1.0]], [1.0, 1.0])
    assert dataclasses.replace(spec, gamma=2.0).gamma == 2.0
    with pytest.raises(ValueError, match="identical agents"):
        dataclasses.replace(spec, theta=[1.0, 0.5], gamma=2.0)
    # the stacked solver has no variance term
    with pytest.raises(ValueError, match="risk neutral"):
        solve_hetero_nash(dataclasses.replace(spec, gamma=2.0))


def test_crowding_exponent_acts_in_every_stacked_consumer(rng):
    spec = uniform_game(rng, one_factor_matrix(3, 0.4))
    crowded = dataclasses.replace(spec, beta=0.7)
    folded = dataclasses.replace(spec, kernel=KERNEL.scaled(spec.n_agents ** -0.7))
    strategies = solve_hetero_nash(crowded).strategies
    assert np.array_equal(strategies, solve_hetero_nash(folded).strategies)
    assert not np.array_equal(strategies, solve_hetero_nash(spec).strategies)
    times = np.linspace(0.0, 1.5, 16)
    assert np.array_equal(
        impact_drift(crowded, strategies, times), impact_drift(folded, strategies, times)
    )
    for j in range(spec.n_agents):
        assert expected_cost(crowded, strategies, j) == expected_cost(folded, strategies, j)
        assert stationarity_residual(crowded, strategies, j) == stationarity_residual(
            folded, strategies, j
        )
