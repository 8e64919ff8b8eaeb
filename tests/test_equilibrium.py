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


def test_two_point_fundamentals_against_explicit_inverse():
    # oracle: 2x2 inverse by adjugate, computed independently of the solver
    bundle = build_matrices(make_equidistant_grid(1, 1.0), KERNEL)

    def inverse_times_ones(a):
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        raw = np.array([a[1, 1] - a[0, 1], a[0, 0] - a[1, 0]]) / det
        return raw / raw.sum()

    pair = fundamental_solutions(bundle, n_agents=2)
    mean_sys = bundle.mv_self_cost + bundle.fair_priority
    dev_sys = bundle.mv_self_cost - bundle.fair_priority
    assert np.allclose(pair.mean_profile, inverse_times_ones(mean_sys), atol=1e-14)
    assert np.allclose(pair.deviation_profile, inverse_times_ones(dev_sys), atol=1e-14)
    # frozen values from the oracle above
    assert np.allclose(pair.mean_profile, [0.5970, 0.4030], atol=5e-5)
    assert np.allclose(pair.deviation_profile, [0.2090, 0.7910], atol=5e-5)


def test_huge_fee_flattens_the_mean_profile():
    grid = make_equidistant_grid(12, 1.0)
    bundle = build_matrices(grid, KERNEL, theta=1e6)
    pair = fundamental_solutions(bundle, n_agents=2)
    assert np.abs(pair.mean_profile - 1.0 / grid.n_points).max() <= 1e-3


@pytest.mark.parametrize("theta", [0.0, 0.4, 3.0])
@pytest.mark.parametrize("n_agents", [1, 2, 5])
def test_profiles_sum_to_one(theta, n_agents):
    bundle = build_matrices(make_equidistant_grid(17, 1.0), KERNEL, theta=theta, gamma=2.0,
                            var_rate=1.0)
    pair = fundamental_solutions(bundle, n_agents)
    assert pair.mean_profile.sum() == pytest.approx(1.0, abs=1e-12)
    assert pair.deviation_profile.sum() == pytest.approx(1.0, abs=1e-12)


def test_zero_inventories_trade_nothing():
    eq = closed_form_equilibrium(two_agent_spec([[0.0, 0.0], [0.0, 0.0]]))
    assert np.array_equal(eq.strategies, np.zeros_like(eq.strategies))


def test_single_trader_reduces_to_transient_impact_optimum():
    spec = two_agent_spec([[2.0]], theta=0.7)
    eq = closed_form_equilibrium(spec)
    bundle = build_matrices(spec.grid, KERNEL, theta=0.7)
    ones = np.ones(spec.grid.n_points)
    raw = guarded_solve(bundle.mv_self_cost, ones)
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
    with pytest.raises(ValueError, match="cross-impact matrix must be symmetric"):
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

    def recording(*args, **kwargs):
        counts.append([get() for get, _ in controls])
        return guarded_solve(*args, **kwargs)

    monkeypatch.setattr(equilibrium_module, "guarded_solve", recording)
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
            build_matrices(
                spec.grid,
                spec.effective_kernel.scaled(float(value)),
                theta=spec.theta,
                gamma=spec.gamma,
                var_rate=max(float(var_rate), 0.0),
            ),
            spec.n_agents,
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

    def counted(bundle, n_agents):
        calls.append(bundle.kernel_at_zero)
        return fundamental_solutions(bundle, n_agents)

    monkeypatch.setattr(equilibrium_module, "fundamental_solutions", counted)
    _, pairs = principal_fundamentals(spec)
    assert len(calls) == distinct
    assert len({id(pair) for pair in pairs}) == distinct
