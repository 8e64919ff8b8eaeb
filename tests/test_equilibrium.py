import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from impact_games import _linalg
from impact_games import equilibrium as equilibrium_module
from impact_games import (
    GameSpec,
    NumericError,
    TimeGrid,
    aggregate_flow_is_zero,
    arbitrageur_is_idle,
    block_matrix,
    build_matrices,
    closed_form_equilibrium,
    explicit_matrix,
    exponential_kernel,
    fundamental_solutions,
    guarded_solve,
    make_equidistant_grid,
    one_factor_matrix,
    power_law_kernel,
    principal_fundamentals,
    rank_one_matrix,
    stationarity_residual,
    variance_and_mv,
)

KERNEL = exponential_kernel()


def two_agent_spec(inventories, n_steps=25, theta=1.5, cross=None, **kw):
    cross = np.eye(np.atleast_2d(inventories).shape[0]) if cross is None else cross
    return GameSpec(
        grid=make_equidistant_grid(n_steps, 1.0),
        kernel=KERNEL,
        cross_impact=cross,
        inventories=np.atleast_2d(np.asarray(inventories, dtype=float)),
        theta=theta,
        **kw,
    )


def one_asset_spec(grid, n_agents, gamma=0.0, kernel=KERNEL):
    """A single-asset game with Q = 1; its fee and variance rate are passed to the systems."""
    return GameSpec(
        grid=grid, kernel=kernel, cross_impact=np.eye(1), n_agents=n_agents, gamma=gamma
    )


def test_two_point_fundamentals_against_explicit_inverse():
    # oracle: 2x2 inverse by adjugate, computed independently of the solver
    grid = make_equidistant_grid(1, 1.0)
    bundle = build_matrices(grid, KERNEL)

    def inverse_times_ones(a):
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        raw = np.array([a[1, 1] - a[0, 1], a[0, 0] - a[1, 0]]) / det
        return raw / raw.sum()

    pair = fundamental_solutions(one_asset_spec(grid, 2), bundle, 0.0, 0.0)
    fair = bundle.strict_lower + 0.5 * bundle.kernel_at_zero * np.eye(2)
    mean_sys = bundle.kernel_matrix + fair
    dev_sys = bundle.kernel_matrix - fair
    assert np.allclose(pair.mean_profile, inverse_times_ones(mean_sys), atol=1e-14)
    assert np.allclose(pair.deviation_profile, inverse_times_ones(dev_sys), atol=1e-14)
    # frozen values from the oracle above
    assert np.allclose(pair.mean_profile, [0.5970, 0.4030], atol=5e-5)
    assert np.allclose(pair.deviation_profile, [0.2090, 0.7910], atol=5e-5)


@pytest.mark.parametrize("n_agents", [2, 5])
@pytest.mark.parametrize(
    "kernel", [exponential_kernel(rate=0.8, scale=1.7), power_law_kernel(0.5, 0.1)]
)
def test_profile_systems_are_the_explicit_expressions_bit_for_bit(kernel, n_agents, rng):
    points = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, size=23))])
    grid = TimeGrid(points)
    theta, gamma, var_rate = 0.3, 2.0, 0.7
    bundle = build_matrices(grid, kernel)
    mean, deviation = equilibrium_module.profile_systems(
        one_asset_spec(grid, n_agents, gamma=gamma, kernel=kernel), bundle, theta, var_rate
    )
    eye = np.eye(points.size)
    self_cost = bundle.kernel_matrix + 2.0 * theta * eye
    self_cost = self_cost + gamma * (var_rate * np.minimum.outer(points, points))
    fair = bundle.strict_lower + kernel.at_zero / 2.0 * eye
    assert mean.tobytes() == (self_cost + (n_agents - 1) * fair).tobytes()
    assert deviation.tobytes() == (self_cost - fair).tobytes()


def test_huge_fee_flattens_the_mean_profile():
    grid = make_equidistant_grid(12, 1.0)
    pair = fundamental_solutions(one_asset_spec(grid, 2), build_matrices(grid, KERNEL), 1e6, 0.0)
    assert np.abs(pair.mean_profile - 1.0 / grid.n_points).max() <= 1e-3


@pytest.mark.parametrize("theta", [0.0, 0.4, 3.0])
@pytest.mark.parametrize("n_agents", [1, 2, 5])
def test_profiles_sum_to_one(theta, n_agents):
    grid = make_equidistant_grid(17, 1.0)
    spec = one_asset_spec(grid, n_agents, gamma=2.0)
    pair = fundamental_solutions(spec, build_matrices(grid, KERNEL), theta, 1.0)
    assert pair.mean_profile.sum() == pytest.approx(1.0, abs=1e-12)
    assert pair.deviation_profile.sum() == pytest.approx(1.0, abs=1e-12)


def test_zero_inventories_trade_nothing():
    eq = closed_form_equilibrium(two_agent_spec([[0.0, 0.0], [0.0, 0.0]]))
    assert np.array_equal(eq.strategies, np.zeros_like(eq.strategies))


def test_single_trader_reduces_to_transient_impact_optimum():
    spec = two_agent_spec([[2.0]], theta=0.7)
    eq = closed_form_equilibrium(spec)
    ones = np.ones(spec.grid.n_points)
    self_cost = build_matrices(spec.grid, KERNEL).kernel_matrix + 1.4 * np.eye(len(ones))
    raw = guarded_solve(self_cost, ones)
    tim = 2.0 * raw / (ones @ raw)
    assert np.allclose(eq.strategies[0, 0], tim, atol=1e-12)


def test_identity_cross_impact_decouples_assets(rng):
    inventories = rng.normal(size=(2, 3))
    joint = closed_form_equilibrium(two_agent_spec(inventories, theta=0.8))
    for asset in range(2):
        single = closed_form_equilibrium(two_agent_spec(inventories[asset : asset + 1], theta=0.8))
        assert np.abs(joint.strategies[asset] - single.strategies[0]).max() <= 1e-10


def test_cross_impact_pulls_trading_into_the_empty_asset():
    spec = two_agent_spec(
        [[1.0, 0.0], [0.0, 0.0]], cross=one_factor_matrix(2, 0.6), theta=1.5
    )
    eq = closed_form_equilibrium(spec)
    # the seller holds nothing in asset 2 yet trades it at equilibrium
    assert np.abs(eq.strategies[1, 0]).max() > 1e-3


@given(
    n_steps=st.integers(min_value=1, max_value=12),
    n_agents=st.integers(min_value=1, max_value=4),
    theta=st.floats(min_value=0.0, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_inventory_conservation(n_steps, n_agents, theta, seed):
    rng = np.random.default_rng(seed)
    inventories = rng.normal(size=(2, n_agents))
    spec = two_agent_spec(inventories, n_steps=n_steps, theta=theta,
                          cross=one_factor_matrix(2, 0.5))
    eq = closed_form_equilibrium(spec)
    scale = max(np.abs(inventories).max(), 1.0)
    assert np.abs(eq.totals() - inventories).max() <= 1e-10 * scale


def test_two_agent_combination_forms_agree():
    # sum/difference form vs mean/deviation form; exact for dyadic inventories
    x1, x2 = 1.0, 0.25
    spec = two_agent_spec([[x1, x2]], theta=0.3)
    eq = closed_form_equilibrium(spec)
    pair = eq.fundamentals[0]
    first = 0.5 * (x1 + x2) * pair.mean_profile + 0.5 * (x1 - x2) * pair.deviation_profile
    second = 0.5 * (x1 + x2) * pair.mean_profile - 0.5 * (x1 - x2) * pair.deviation_profile
    assert np.array_equal(eq.strategies[0, 0], first)
    assert np.array_equal(eq.strategies[0, 1], second)


def test_identical_agents_play_identically():
    spec = two_agent_spec([[1.3, 1.3, 1.3]], theta=0.9)
    eq = closed_form_equilibrium(spec)
    assert np.array_equal(eq.strategies[0, 0], eq.strategies[0, 1])
    assert np.array_equal(eq.strategies[0, 1], eq.strategies[0, 2])


def test_equilibrium_is_linear_in_inventories():
    base = two_agent_spec([[1.0, -0.5], [0.25, 0.75]], cross=one_factor_matrix(2, 0.4))
    doubled = dataclasses.replace(base, inventories=2.0 * base.inventories)
    assert np.array_equal(
        closed_form_equilibrium(doubled).strategies,
        2.0 * closed_form_equilibrium(base).strategies,
    )


@pytest.mark.parametrize("mode", ["mean", "deviation"])
def test_eigenvector_inventories_factor_through_one_profile(mode):
    cross = one_factor_matrix(3, 0.5)
    spec_probe = two_agent_spec(np.zeros((3, 2)), cross=cross, theta=0.8)
    eigvec = closed_form_equilibrium(spec_probe).spectrum.eigenvectors
    m = 1  # a repeated-eigenvalue direction
    if mode == "mean":
        inventories = np.column_stack([eigvec[:, m], eigvec[:, m]])
    else:
        inventories = np.column_stack([eigvec[:, m], -eigvec[:, m]])
    spec = two_agent_spec(inventories, cross=cross, theta=0.8)
    eq = closed_form_equilibrium(spec)
    pair = eq.fundamentals[m]
    profile = pair.mean_profile if mode == "mean" else pair.deviation_profile
    expected = np.einsum("i,k->ik", eigvec[:, m], profile)
    assert np.abs(eq.strategies[:, 0, :] - expected).max() <= 1e-9


def test_equilibrium_minimizes_each_agents_objective(rng):
    cross = one_factor_matrix(2, 0.5)
    spec = two_agent_spec(
        rng.normal(size=(2, 3)), cross=cross, theta=0.6, gamma=3.0, covariance=cross
    )
    eq = closed_form_equilibrium(spec)
    for agent in range(spec.n_agents):
        _, mv_star = variance_and_mv(spec, eq.strategies, agent)
        for _ in range(5):
            delta = rng.normal(size=(2, spec.grid.n_points))
            delta -= delta.mean(axis=1, keepdims=True)  # keeps inventories intact
            perturbed = eq.strategies.copy()
            perturbed[:, agent, :] += 1e-3 * delta
            _, mv = variance_and_mv(spec, perturbed, agent)
            assert mv >= mv_star - 1e-9


def test_arbitrageur_idle_iff_zero_aggregate_flow():
    # balanced flow: the zero-inventory agent does not trade at all
    balanced = two_agent_spec([[1.0, -1.0, 0.0]], theta=1.5)
    eq = closed_form_equilibrium(balanced)
    assert aggregate_flow_is_zero(balanced)
    assert arbitrageur_is_idle(eq, agent=2, tol=1e-12)

    # unbalanced flow: the zero-inventory agent trades against the seller
    unbalanced = two_agent_spec([[1.0, 0.0]], theta=1.5)
    eq = closed_form_equilibrium(unbalanced)
    assert not aggregate_flow_is_zero(unbalanced)
    assert not arbitrageur_is_idle(eq, agent=1)

    everyone_flat = two_agent_spec([[0.0, 0.0]], theta=1.5)
    assert aggregate_flow_is_zero(everyone_flat)
    assert arbitrageur_is_idle(closed_form_equilibrium(everyone_flat), agent=0)


def test_indefinite_cross_impact_is_rejected():
    spec = two_agent_spec(
        [[1.0, 0.0], [0.0, 0.0]], cross=np.array([[1.0, 2.0], [2.0, 1.0]])
    )
    with pytest.raises(ValueError, match="positive definite"):
        closed_form_equilibrium(spec)


def test_risk_aversion_requires_commuting_covariance():
    with pytest.raises(ValueError, match="commute"):
        two_agent_spec(
            [[1.0, 0.0], [0.0, 0.0]],
            cross=one_factor_matrix(2, 0.5),
            gamma=1.0,
            covariance=np.diag([1.0, 2.0]),
        )


def test_commuting_covariance_is_diagonalized_within_a_repeated_eigenvalue():
    # every basis diagonalizes Q = I, but only the rotated one diagonalizes
    # the covariance; keeping diag(V^T S V) in eigh's basis left residuals 0.31
    covariance = np.array([[1.0, 0.6], [0.6, 1.0]])
    spec = two_agent_spec(
        [[1.0, 0.0], [0.0, 0.5]], n_steps=20, theta=0.1, gamma=5.0, covariance=covariance
    )
    eq = closed_form_equilibrium(spec)
    for agent in range(2):
        assert stationarity_residual(spec, eq.strategies, agent) <= 1e-10
    vec = eq.spectrum.eigenvectors
    rotated = vec.T @ covariance @ vec
    assert np.abs(rotated - np.diag(np.diag(rotated))).max() <= 1e-12
    rotated_back = np.einsum("mi,ijk->mjk", vec, eq.principal_strategies)
    assert np.abs(rotated_back - eq.strategies).max() <= 1e-12


def test_gamespec_shape_validation():
    with pytest.raises(ValueError, match="asset rows"):
        two_agent_spec(np.ones((3, 2)), cross=np.eye(2))
    with pytest.raises(ValueError, match="inventories or n_agents"):
        GameSpec(grid=make_equidistant_grid(2), kernel=KERNEL, cross_impact=np.eye(1))
    spec = GameSpec(
        grid=make_equidistant_grid(2), kernel=KERNEL, cross_impact=np.eye(1), n_agents=3
    )
    assert spec.inventories.shape == (1, 3)
    with pytest.raises(ValueError, match="cross_impact must be finite"):
        two_agent_spec(np.ones((2, 2)), cross=np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match="inventories must be finite"):
        two_agent_spec([[1.0, np.nan]])
    with pytest.raises(ValueError, match="covariance must be finite"):
        two_agent_spec([[1.0, 0.0]], covariance=np.array([[np.inf]]))


def test_gamespec_rejects_a_mask_of_another_shape():
    with pytest.raises(ValueError, match="mask must have the same shape") as raised:
        two_agent_spec([[1.0, 0.0]], mask=np.ones((1, 3)))
    assert raised.value.argument == "mask"


def test_the_spec_holds_read_only_copies_of_its_arrays():
    arrays = {
        "cross_impact": np.array([[1.0, 0.2], [0.2, 1.0]]),
        "inventories": np.array([[1.0, -0.5], [0.0, 0.5]]),
        "theta": np.array([0.5, 1.0]),
        "scales": np.array([1.0, 0.8]),
        "priority": np.array([[0.0, 0.3], [0.7, 0.0]]),
        "mask": np.ones((2, 2), dtype=bool),
        "covariance": np.array([[0.2, 0.05], [0.05, 0.1]]),
    }
    spec = GameSpec(grid=make_equidistant_grid(4), kernel=KERNEL, **arrays)
    given = {name: array.copy() for name, array in arrays.items()}
    for array in arrays.values():
        array[...] = 0  # after the checks, a caller changes its own arrays
    for name, array in given.items():
        assert np.array_equal(getattr(spec, name), array), name
        with pytest.raises(ValueError, match="read-only"):
            getattr(spec, name)[...] = 0


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("field", ["theta", "gamma", "beta"])
def test_gamespec_rejects_bad_scalars(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and nonnegative"):
        two_agent_spec([[1.0, 0.0]], **{field: value})


def test_asymmetric_matrices_are_rejected():
    skewed = np.array([[1.0, 0.3], [0.2, 1.0]])
    with pytest.raises(ValueError, match="cross_impact must be symmetric"):
        two_agent_spec(np.ones((2, 2)), cross=skewed)
    with pytest.raises(ValueError, match="covariance must be symmetric"):
        two_agent_spec(np.ones((2, 2)), covariance=skewed)
    with pytest.raises(ValueError, match="cross_impact must be symmetric"):
        explicit_matrix(skewed)
    # asymmetry within 1e-10 of the largest entry is float noise
    assert explicit_matrix([[1.0, 1e-11], [0.0, 1.0]]).shape == (2, 2)


def test_condition_guard_rejects_near_singular_systems():
    nearly_singular = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    with pytest.raises(NumericError):
        guarded_solve(nearly_singular, np.ones(2))
    with pytest.raises(NumericError):
        guarded_solve(np.ones((2, 2)), np.ones(2))


def test_single_blas_thread_caps_and_restores_the_thread_counts():
    controls = _linalg._openblas_thread_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS")
    original = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(2)
        with _linalg.single_blas_thread():
            assert [get() for get, _ in controls] == [1] * len(controls)
        assert [get() for get, _ in controls] == [2] * len(controls)
        with pytest.raises(ZeroDivisionError), _linalg.single_blas_thread():
            1 / 0
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, put), count in zip(controls, original):
            put(count)



def test_overlapping_single_blas_thread_blocks_restore_the_entry_counts():
    controls = _linalg._openblas_thread_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS")
    # thread 0 enters first and leaves first, while thread 1 is still inside
    entered, left = threading.Event(), threading.Event()
    inside = threading.Barrier(2, timeout=10.0)
    seen = {}

    def first():
        with _linalg.single_blas_thread():
            entered.set()
            inside.wait()
        left.set()

    def second():
        entered.wait(10.0)
        with _linalg.single_blas_thread():
            inside.wait()
            left.wait(10.0)
            seen["after_first_left"] = [get() for get, _ in controls]

    original = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(2)
        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen["after_first_left"] == [1] * len(controls)
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, put), count in zip(controls, original):
            put(count)

def test_closed_form_solves_run_on_one_blas_thread(monkeypatch):
    controls = _linalg._openblas_thread_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS")
    counts = []
    solve = _linalg._PreparedSystem.solve

    def recording(*args, **kwargs):
        counts.append([get() for get, _ in controls])
        return solve(*args, **kwargs)

    monkeypatch.setattr(_linalg._PreparedSystem, "solve", recording)
    equilibrium_module._market_fundamentals.cache_clear()
    original = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(2)
        closed_form_equilibrium(two_agent_spec(np.ones((3, 2)), cross=one_factor_matrix(3, 0.5)))
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, put), count in zip(controls, original):
            put(count)
    # two distinct eigenvalues, two profile systems each
    assert counts == [[1] * len(controls)] * 4


def per_asset_fundamentals(spec):
    """Reference: one build and one solve for every principal asset."""
    lam, vec = np.linalg.eigh(spec.cross_impact)
    lam, vec = lam[::-1], vec[:, ::-1]
    if spec.covariance is None:
        var_rates = np.zeros_like(lam)
    else:
        var_rates = np.diag(vec.T @ spec.covariance @ vec)
    return [
        fundamental_solutions(
            spec,
            build_matrices(spec.grid, spec.effective_kernel.scaled(float(value))),
            spec.theta,
            max(float(var_rate), 0.0),
        )
        for value, var_rate in zip(lam, var_rates)
    ]


def principal_game(kind):
    """(spec, number of distinct principal solves) for three spectra."""
    if kind == "one_factor":
        cross, gamma, covariance = one_factor_matrix(50, 0.5), 0.0, None
        distinct = 2
    elif kind == "block":
        cross = block_matrix([3, 4, 2], [0.6, 0.4, 0.5], 0.1)
        gamma, covariance = 2.0, cross
        # 1 - intra repeated inside each block, plus three block-level values
        distinct = 6
    elif kind == "rank_one":
        cross = rank_one_matrix(np.linspace(0.1, 0.9, 6))
        gamma, covariance = 0.0, None
        distinct = 6
    else:
        # one eigenvalue, but risk aversion separates the variance rates
        cross, gamma, covariance = np.eye(3), 1.0, np.diag([1.0, 2.0, 3.0])
        distinct = 3
    spec = GameSpec(
        grid=make_equidistant_grid(30, 1.0),
        kernel=KERNEL,
        cross_impact=cross,
        n_agents=4,
        theta=0.05,
        gamma=gamma,
        beta=0.5,
        covariance=covariance,
    )
    return spec, distinct


@pytest.mark.parametrize("kind", ["one_factor", "block", "rank_one", "flat_impact"])
def test_shared_principal_solves_match_per_asset_solves(kind):
    spec, _ = principal_game(kind)
    _, pairs = principal_fundamentals(spec)
    reference = per_asset_fundamentals(spec)
    assert len(pairs) == len(reference) == spec.n_assets
    for pair, ref in zip(pairs, reference):
        assert np.allclose(pair.mean_profile, ref.mean_profile, rtol=0, atol=1e-12)
        assert np.allclose(pair.deviation_profile, ref.deviation_profile, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["one_factor", "block", "rank_one", "flat_impact"])
def test_one_solve_per_distinct_principal_asset(kind, monkeypatch):
    spec, distinct = principal_game(kind)
    calls = []

    def counted(spec, bundle, theta, var_rate):
        calls.append(bundle.kernel_at_zero)
        return fundamental_solutions(spec, bundle, theta, var_rate)

    monkeypatch.setattr(equilibrium_module, "fundamental_solutions", counted)
    _, pairs = principal_fundamentals(spec)
    assert len(calls) == distinct
    assert len({id(pair) for pair in pairs}) == distinct


def risk_averse_systems(n_steps=80):
    """The (mean, deviation) profile systems of a risk-averse power-law game; not symmetric."""
    grid = make_equidistant_grid(n_steps, 1.0)
    bundle = build_matrices(grid, power_law_kernel(0.5, 0.1))
    return equilibrium_module.profile_systems(one_asset_spec(grid, 4, gamma=2.0), bundle, 0.0, 0.7)


@pytest.mark.parametrize("system", [0, 1], ids=["mean", "deviation"])
def test_shifted_solver_matches_guarded_solve_at_several_shifts(system):
    matrix = risk_averse_systems()[system]
    reduced = _linalg._PreparedSystem(matrix)
    reduced.reduce()
    assert reduced.path == "shifted"
    rhs = np.random.default_rng(2).normal(size=len(matrix))
    for shift in (0.0, 1e-3, 0.1, 1.0, 10.0, 1e3):
        dense = guarded_solve(matrix + shift * np.eye(len(matrix)), rhs)
        shifted = reduced._shifted(shift, rhs)
        assert np.abs(shifted - dense).max() <= 1e-12 * np.abs(dense).max()


def test_singular_shifted_system_is_rejected_and_the_dense_guard_raises():
    rotation = np.linalg.qr(np.random.default_rng(4).normal(size=(6, 6)))[0]
    # not symmetric, with eigenvalues 1, ..., 6
    triangular = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) + np.triu(np.full((6, 6), 0.3), 1)
    matrix = rotation @ triangular @ rotation.T
    floor = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))[0]
    assert 0.0 < floor < 1.0
    system = _linalg._PreparedSystem(matrix, None, floor)
    system.reduce()
    paths = {"shifted": 0, "dense": 0}
    system.solve(0.5, paths)
    assert paths == {"shifted": 1, "dense": 0}
    # every eigenvalue has real part >= floor: floor + shift <= 0 is declined
    # before any solve, and the dense guard raises at the eigenvalue 3
    assert not _linalg._floor_bounded(6, system.norm_1, floor, -3.0)
    with pytest.raises(NumericError):
        system.solve(-3.0, paths)
    assert paths == {"shifted": 1, "dense": 0}


def scale_law_game(kind, n_assets=12):
    """Rank-one game whose principal assets are distinct groups, at least eight in one class.

    ``"risk_neutral"`` has gamma = 0 (and ``"risk_neutral_power_law"`` a
    power-law kernel), ``"equal_to_Q"`` a covariance equal to Q, and
    ``"two_classes"`` a covariance with variance rate lambda_k on the nine
    largest eigenvalues and 3 lambda_k on the other three.
    """
    cross = rank_one_matrix(np.linspace(0.1, 0.9, n_assets))
    gamma, covariance = 1.5, cross
    if kind.startswith("risk_neutral"):
        gamma, covariance = 0.0, None
    elif kind == "two_classes":
        lam, vec = np.linalg.eigh(cross)
        rates = np.where(np.arange(n_assets) < n_assets - 9, 3.0, 1.0) * lam
        covariance = (vec * rates) @ vec.T
    spec = GameSpec(
        grid=make_equidistant_grid(60, 1.0),
        kernel=power_law_kernel(0.5, 0.1) if kind.endswith("power_law") else KERNEL,
        cross_impact=cross,
        inventories=np.random.default_rng(9).normal(size=(n_assets, 4)),
        theta=0.05,
        gamma=gamma,
        beta=0.5,
        covariance=covariance,
    )
    return spec


@pytest.mark.parametrize(
    "kind, dense_groups",
    [("risk_neutral", 0), ("risk_neutral_power_law", 0), ("equal_to_Q", 0), ("two_classes", 3)],
)
def test_large_scale_law_class_matches_per_asset_solves(kind, dense_groups):
    spec = scale_law_game(kind)
    systems = equilibrium_module.prepare_profile_systems(spec)
    pairs = systems.profiles(spec.theta)
    # with a floor, the banded path serves every class of an exponential
    # kernel, and the Levinson and triangular paths every class of a power
    # law; without one, a class of at least _REDUCE_MIN_GROUPS groups is
    # reduced and the groups of a smaller one are solved densely
    expected = dict.fromkeys(systems.paths, 0)
    if kind == "risk_neutral":
        expected.update(banded=2 * spec.n_assets)
    elif kind == "risk_neutral_power_law":
        expected.update(levinson=spec.n_assets, triangular=spec.n_assets)
    else:
        expected.update(shifted=2 * (spec.n_assets - dense_groups), dense=2 * dense_groups)
    assert systems.paths == expected
    assert len({id(pair) for pair in pairs}) == spec.n_assets
    for pair, ref in zip(pairs, per_asset_fundamentals(spec)):
        assert np.allclose(pair.mean_profile, ref.mean_profile, rtol=0, atol=1e-12)
        assert np.allclose(pair.deviation_profile, ref.deviation_profile, rtol=0, atol=1e-12)
    equilibrium = closed_form_equilibrium(spec)
    assert np.allclose(equilibrium.totals(), spec.inventories, rtol=0, atol=1e-12)
    for agent in range(spec.n_agents):
        assert stationarity_residual(spec, equilibrium.strategies, agent) <= 1e-10


def test_rejected_shifted_solves_fall_back_to_guarded_solve_bit_for_bit(monkeypatch):
    spec = scale_law_game("equal_to_Q")
    results = []

    def recording(matrix, rhs, *args):
        results.append(guarded_solve(matrix, rhs, *args))
        return results[-1]

    monkeypatch.setattr(_linalg, "guarded_solve", recording)
    monkeypatch.setattr(_linalg, "BACKWARD_TOL", -1.0)  # every solve fails it
    systems = equilibrium_module.prepare_profile_systems(spec)
    pairs = systems.profiles(spec.theta)
    # one class, one group per principal asset: the mean and deviation solves of each group
    n = spec.n_assets
    assert len(results) == 2 * n and systems.paths["dense"] == 2 * n
    for k, pair in enumerate(pairs):
        mean, deviation = results[2 * k], results[2 * k + 1]
        assert np.array_equal(pair.mean_profile, mean / (np.ones(len(mean)) @ mean))
        assert np.array_equal(pair.deviation_profile, deviation / (np.ones(len(mean)) @ deviation))
    for pair, ref in zip(pairs, per_asset_fundamentals(spec)):
        assert np.allclose(pair.mean_profile, ref.mean_profile, rtol=0, atol=1e-12)


def closed_form_game(kind):
    """A game for each mix of solve paths the closed form takes."""
    if kind == "risk_averse_class":
        return scale_law_game("equal_to_Q")
    points = make_equidistant_grid(60, 1.0).points
    kernel = power_law_kernel(0.5, 0.1) if kind.endswith("power_law") else KERNEL
    if kind.startswith("uneven"):
        points = np.sort(np.r_[0.0, np.random.default_rng(3).uniform(0.0, 1.0, 60)])
    return GameSpec(
        grid=TimeGrid(points),
        kernel=kernel,
        cross_impact=one_factor_matrix(3, 0.5),
        inventories=np.random.default_rng(8).normal(size=(3, 4)),
        theta=0.3,
        beta=0.5,
    )


def relative_gap(pairs, reference):
    """Largest difference of two sequences of profile pairs, relative to the reference."""
    return max(
        np.abs(a - b).max() / np.abs(b).max()
        for pair, ref in zip(pairs, reference)
        for a, b in (
            (pair.mean_profile, ref.mean_profile),
            (pair.deviation_profile, ref.deviation_profile),
        )
    )


@pytest.mark.parametrize(
    "kind, paths",
    [
        # two distinct eigenvalues of a one-factor Q, one scale-law class
        ("toeplitz_exponential", {"banded": 4}),
        ("toeplitz_power_law", {"levinson": 2, "triangular": 2}),
        # twelve groups of one class with a variance term, reduced when prepared
        ("risk_averse_class", {"shifted": 24}),
        # the banded forms hold on any grid
        ("uneven", {"banded": 4}),
        # the mean system is Toeplitz only on an equidistant grid
        ("uneven_power_law", {"triangular": 2, "dense": 2}),
    ],
)
def test_closed_form_matches_the_dense_reference(kind, paths):
    spec = closed_form_game(kind)
    systems = equilibrium_module.prepare_profile_systems(spec)
    prepared = systems.profiles(spec.theta)
    expected = dict.fromkeys(systems.paths, 0)
    expected.update(paths)
    assert systems.paths == expected
    equilibrium_module._market_fundamentals.cache_clear()
    closed = closed_form_equilibrium(spec)
    for pair, same in zip(closed.fundamentals, prepared):
        assert np.array_equal(pair.mean_profile, same.mean_profile)
        assert np.array_equal(pair.deviation_profile, same.deviation_profile)
    _, reference = principal_fundamentals(spec)
    assert relative_gap(closed.fundamentals, reference) <= 1e-12
    assert np.allclose(closed.totals(), spec.inventories, rtol=0, atol=1e-12)


def test_closed_form_falls_back_to_the_dense_solve_on_a_failed_levinson_residual(monkeypatch):
    spec = closed_form_game("toeplitz_power_law")
    dense_solves = []

    def recording(matrix, rhs, *args):
        dense_solves.append(len(matrix))
        return guarded_solve(matrix, rhs, *args)

    monkeypatch.setattr(_linalg, "solve_toeplitz", lambda cr, b, **kw: 2.0 * b)
    monkeypatch.setattr(_linalg, "guarded_solve", recording)
    equilibrium_module._market_fundamentals.cache_clear()
    closed = closed_form_equilibrium(spec)
    equilibrium_module._market_fundamentals.cache_clear()
    # the mean system of each of the two groups
    assert dense_solves == [spec.grid.n_points] * 2
    _, reference = principal_fundamentals(spec)
    assert relative_gap(closed.fundamentals, reference) <= 1e-12


def market_spec(inventories=None, n_agents=3, **fields):
    """Risk-averse three-asset game; one-factor Q and covariance, so any two commute."""
    market = dict(
        grid=make_equidistant_grid(20, 1.0),
        kernel=power_law_kernel(0.5, 0.1),
        cross_impact=one_factor_matrix(3, 0.5),
        theta=0.05,
        gamma=2.0,
        beta=0.3,
        covariance=one_factor_matrix(3, 0.2),
    )
    market.update(fields)
    if inventories is None:
        inventories = np.random.default_rng(n_agents).normal(size=(3, n_agents))
    return GameSpec(inventories=inventories, **market)


def count_prepared_systems(monkeypatch):
    calls = []
    prepare = equilibrium_module.prepare_profile_systems

    def counted(spec):
        calls.append(spec)
        return prepare(spec)

    monkeypatch.setattr(equilibrium_module, "prepare_profile_systems", counted)
    return calls


def fresh_strategies(spec):
    """Closed-form strategies computed with an empty market memo."""
    equilibrium_module._market_fundamentals.cache_clear()
    return closed_form_equilibrium(spec).strategies


def test_one_market_solves_its_profiles_once_across_inventories(monkeypatch, rng):
    calls = count_prepared_systems(monkeypatch)
    specs = [market_spec(rng.normal(size=(3, 3))) for _ in range(2)]
    equilibrium_module._market_fundamentals.cache_clear()
    solved = [closed_form_equilibrium(spec).strategies for spec in specs]
    assert len(calls) == 1
    assert solved[0].tobytes() != solved[1].tobytes()
    for spec, strategies in zip(specs, solved):
        assert strategies.tobytes() == fresh_strategies(spec).tobytes()
        assert np.allclose(strategies.sum(axis=2), spec.inventories, rtol=0, atol=1e-12)


def test_changed_markets_do_not_reuse_stale_profiles(monkeypatch):
    calls = count_prepared_systems(monkeypatch)
    base = market_spec()
    variants = {
        "theta": dataclasses.replace(base, theta=0.06),
        "gamma": dataclasses.replace(base, gamma=2.5),
        "beta": dataclasses.replace(base, beta=0.4),
        "kernel": dataclasses.replace(base, kernel=power_law_kernel(0.5, 0.1001)),
        "grid": dataclasses.replace(base, grid=make_equidistant_grid(20, 1.5)),
        "cross_impact": dataclasses.replace(base, cross_impact=one_factor_matrix(3, 0.45)),
        "covariance": dataclasses.replace(base, covariance=one_factor_matrix(3, 0.25)),
        "n_agents": market_spec(n_agents=4),
    }
    for name, spec in variants.items():
        reference = fresh_strategies(spec)
        closed_form_equilibrium(base)
        before = len(calls)
        strategies = closed_form_equilibrium(spec).strategies
        assert len(calls) == before + 1, name
        assert strategies.tobytes() == reference.tobytes(), name
    # beta enters the key through the effective kernel: an equal one is the same market
    same = dataclasses.replace(base, kernel=base.effective_kernel, beta=0.0)
    closed_form_equilibrium(base)
    before = len(calls)
    strategies = closed_form_equilibrium(same).strategies
    assert len(calls) == before
    assert strategies.tobytes() == fresh_strategies(base).tobytes()


def test_memoised_profiles_are_read_only_and_strategies_are_new(rng):
    spec = market_spec(rng.normal(size=(3, 3)))
    first = closed_form_equilibrium(spec)
    second = closed_form_equilibrium(spec)
    assert second.fundamentals is first.fundamentals
    spectrum = second.spectrum
    profiles = [array for pair in second.fundamentals for array in pair.__dict__.values()]
    assert len(profiles) == 2 * spec.n_assets
    for array in [spectrum.eigenvalues, spectrum.eigenvectors] + profiles:
        with pytest.raises(ValueError):
            array[0] = 1.0
    for array in (second.strategies, second.principal_strategies):
        assert array.flags.writeable
        assert not np.shares_memory(array, first.strategies)
        assert not np.shares_memory(array, first.principal_strategies)
    second.strategies[:] = 0.0
    assert closed_form_equilibrium(spec).strategies.tobytes() == first.strategies.tobytes()


def test_differing_fees_are_rejected_after_the_market_is_memoised():
    base = market_spec(gamma=0.0, covariance=None)
    closed_form_equilibrium(base)
    # the first agent's fee matches the memoised market's
    differing = dataclasses.replace(base, theta=np.array([0.05, 0.05, 0.06]))
    with pytest.raises(ValueError, match="identical agents"):
        closed_form_equilibrium(differing)
