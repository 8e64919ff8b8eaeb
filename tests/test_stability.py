import dataclasses
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve, toeplitz

from impact_games import (
    BracketError,
    GameSpec,
    NumericError,
    TimeGrid,
    analyze_cross_impact,
    build_matrices,
    critical_theta,
    exponential_kernel,
    guarded_solve,
    is_unstable_at,
    make_equidistant_grid,
    one_factor_matrix,
    oscillation_flags,
    power_law_kernel,
    predicted_theta_star,
    principal_fundamentals,
    rank_one_matrix,
    stability_sweep,
)
from impact_games import _linalg, hetero, kernels
from impact_games import equilibrium as equilibrium_module
from impact_games import stability as stability_module
from impact_games._linalg import ArgumentError
from impact_games.stability import (
    _CROSS_CHECK_TOL,
    SweepBase,
    _bisect_threshold,
    _top_groups,
    prepare_profile_systems,
)

KERNEL = exponential_kernel()
# a kernel whose profile systems take the Levinson and triangular paths
POWER_LAW = power_law_kernel(0.5, 0.1)


def stability_game(n_assets=1, coupling=0.9, n_agents=2, n_steps=50, gamma=0.0, beta=0.0,
                   kernel=KERNEL):
    cross = one_factor_matrix(n_assets, coupling) if n_assets > 1 else np.eye(1)
    return GameSpec(
        grid=make_equidistant_grid(n_steps, 1.0),
        kernel=kernel,
        cross_impact=cross,
        n_agents=n_agents,
        gamma=gamma,
        beta=beta,
        covariance=cross if gamma > 0 else None,
    )


def test_flip_detection_examples():
    flags = oscillation_flags(np.array([1.0, -1.0, 1.0, -1.0]))
    assert flags.flip_count == 3 and flags.unstable
    u_shape = np.array([0.3, 0.1, 0.05, 0.1, 0.3])
    assert not oscillation_flags(u_shape).unstable
    zero = oscillation_flags(np.zeros(4))
    assert zero.flip_count == 0 and not zero.unstable


def test_flip_tolerance_suppresses_noise():
    u = np.array([1.0, 1e-12, -1e-12, 1.0])  # products are solver noise
    assert not oscillation_flags(u).unstable
    assert oscillation_flags(u, rel_tol=0.0).unstable


def test_deviation_profile_oscillates_below_the_threshold():
    spec = stability_game()
    _, pairs = principal_fundamentals(
        GameSpec(
            grid=spec.grid, kernel=KERNEL, cross_impact=np.eye(1), n_agents=2, theta=0.2
        )
    )
    assert oscillation_flags(pairs[0].deviation_profile).unstable
    assert is_unstable_at(spec, 0.2)
    assert not is_unstable_at(spec, 10.0)


def test_two_asset_instability_verdicts():
    spec = stability_game(n_assets=2, coupling=0.9)
    assert is_unstable_at(spec, 0.3)  # stable for one asset, unstable for two
    assert not is_unstable_at(spec, 0.6)  # above the top-eigenvalue threshold 0.475


def test_critical_fee_base_case():
    report = critical_theta(stability_game(n_assets=1), tol=1e-4)
    assert report.estimate == pytest.approx(0.25, abs=0.01)
    assert report.method == "bisect"
    lo, hi = report.bracket
    assert lo <= report.estimate <= hi
    assert hi - lo <= 1e-4
    assert report.predicted_theorem == pytest.approx(0.25)
    # just below the transition only the deviation profile oscillates
    mean_flags, deviation_flags = report.flags_below[0]
    assert deviation_flags.unstable and not mean_flags.unstable


def test_bad_brackets_are_rejected():
    spec = stability_game(n_assets=1)
    with pytest.raises(BracketError):
        critical_theta(spec, bracket=(1.0, 2.0))  # stable at both ends
    with pytest.raises(BracketError):
        critical_theta(spec, bracket=(0.0, 0.1))  # unstable at both ends
    with pytest.raises(BracketError):
        critical_theta(spec, bracket=(0.3, 0.2))


def test_a_negative_bracket_end_is_blamed_on_the_bracket():
    with pytest.raises(ArgumentError) as raised:
        critical_theta(stability_game(n_assets=1), bracket=(-1.0, 1.0))
    assert raised.value.argument == "bracket"
    assert str(raised.value) == "bracket must be finite and nonnegative, got -1.0"


def test_one_agent_without_a_bracket_has_no_default_bracket():
    # one agent never oscillates: the many-agent prediction is zero
    with pytest.raises(BracketError, match="no default bracket"):
        critical_theta(stability_game(n_assets=1, n_agents=1))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"tol": 0.0},
        {"tol": -1e-4},
        {"bracket": (0.0, float("inf"))},
        {"bracket": (float("-inf"), 1.0)},
        {"bracket": (float("nan"), 1.0)},
        {"rel_tol": 0.0},
        {"rel_tol": float("nan")},
    ],
)
def test_non_finite_or_non_positive_bisection_settings_are_rejected(kwargs):
    with pytest.raises(ValueError, match="finite"):
        critical_theta(stability_game(n_assets=1, n_steps=20), **kwargs)


def probe_with(theta, prepared):
    """is_unstable_at at this fee, on prepared systems or on the reference path."""
    spec = stability_game(n_steps=20)
    systems = prepare_profile_systems(spec) if prepared else None
    return is_unstable_at(spec, theta, systems=systems)


@pytest.mark.parametrize(
    "call, argument",
    [
        (lambda: SweepBase(kernel=KERNEL, coupling=1.5), "coupling"),
        (lambda: SweepBase(kernel=KERNEL, coupling=0.0), "coupling"),
        (lambda: SweepBase(kernel=KERNEL, rel_tol=-1.0), "rel_tol"),
        (lambda: SweepBase(kernel=KERNEL, flip_tol=0.0), "flip_tol"),
        (lambda: SweepBase(kernel=KERNEL, sigma=-1.0), "sigma"),
        (lambda: SweepBase(kernel=KERNEL, sigma="foo"), "sigma"),
        (lambda: critical_theta(stability_game(n_steps=20), bracket=(0.0, 1.0, 2.0)), "bracket"),
        pytest.param(
            lambda: critical_theta(stability_game(n_steps=20), bracket=0.5),
            "bracket",
            id="bracket=0.5",
        ),
        pytest.param(
            lambda: critical_theta(stability_game(n_steps=20), bracket=("a", 1.0)),
            "bracket",
            id="bracket=('a', 1.0)",
        ),
        pytest.param(
            lambda: critical_theta(stability_game(n_steps=20), tol="x"), "tol", id="tol='x'"
        ),
        pytest.param(
            lambda: critical_theta(stability_game(n_steps=20), rel_tol=None),
            "rel_tol",
            id="rel_tol=None",
        ),
        pytest.param(
            lambda: is_unstable_at(stability_game(n_steps=20), 0.1, rel_tol=float("nan")),
            "rel_tol",
            id="is_unstable_at-rel_tol=nan",
        ),
        pytest.param(
            lambda: oscillation_flags(np.array([1.0, 2.0, 3.0]), -1.0),
            "rel_tol",
            id="oscillation_flags-rel_tol=-1",
        ),
        pytest.param(
            lambda: predicted_theta_star(np.array([[np.nan]]), 1.0, 2),
            "cross_impact",
            id="prediction-nan-Q",
        ),
        pytest.param(
            lambda: predicted_theta_star(np.array([[1.0, 0.9], [0.0, 1.0]]), 1.0, 2),
            "cross_impact",
            id="prediction-asymmetric-Q",
        ),
        pytest.param(
            lambda: predicted_theta_star(np.eye(1), -1.0, 2),
            "kernel_at_zero",
            id="prediction-kernel_at_zero=-1",
        ),
    ]
    + [
        pytest.param(
            lambda theta=theta, prepared=prepared: probe_with(theta, prepared),
            "theta",
            id=f"theta={theta}-{'prepared' if prepared else 'reference'}",
        )
        for theta in (-1.0, float("nan"), float("inf"))
        for prepared in (False, True)
    ],
)
def test_bad_sweep_and_bisection_settings_name_their_argument(call, argument):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert excinfo.value.argument == argument


def test_predictions():
    assert predicted_theta_star(
        one_factor_matrix(2000, 0.2), 1.0, n_agents=2, mode="theorem"
    ) == pytest.approx(100.2, rel=1e-12)
    assert predicted_theta_star(np.eye(1), 1.0, n_agents=2, mode="conjecture") == pytest.approx(
        0.25
    )
    for n_assets, n_agents in [(2, 2), (3, 4), (5, 3)]:
        expected = (n_agents - 1) * (1.0 + (n_assets - 1) / 2.0) / 4.0
        assert predicted_theta_star(
            one_factor_matrix(n_assets, 0.5), 1.0, n_agents=n_agents, mode="conjecture"
        ) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        predicted_theta_star(np.eye(1), 1.0, 2, mode="oracle")


def record_decompositions(monkeypatch, shape, controls):
    """Thread counts seen by each ``eigh`` and ``eigvalsh`` call on a matrix of ``shape``."""
    calls = {"eigh": [], "eigvalsh": []}
    for name in calls:
        original = getattr(np.linalg, name)

        def recording(matrix, *args, _name=name, _original=original, **kwargs):
            if np.shape(matrix) == shape:
                calls[_name].append([get() for get, _ in controls])
            return _original(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def test_predictions_run_on_one_blas_thread(monkeypatch):
    controls = _linalg._openblas_thread_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS")
    cross = one_factor_matrix(3, 0.5)
    calls = record_decompositions(monkeypatch, cross.shape, controls)
    original = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(2)
        predicted_theta_star(cross, 1.0, n_agents=2)
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, put), count in zip(controls, original):
            put(count)
    # the top eigenvalue of the spectral report
    assert calls == {"eigh": [[1] * len(controls)], "eigvalsh": []}


def test_critical_fee_decomposes_the_cross_impact_twice_on_one_blas_thread(monkeypatch):
    controls = _linalg._openblas_thread_controls()
    spec = stability_game(n_assets=3, coupling=0.5, n_steps=30)
    calls = record_decompositions(monkeypatch, spec.cross_impact.shape, controls)
    original = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(2)
        report = critical_theta(spec, tol=1e-3)
    finally:
        for (_, put), count in zip(controls, original):
            put(count)
    # the preparation, whose spectrum the predictions read, and the dense reference
    assert calls == {"eigh": [[1] * len(controls)] * 2, "eigvalsh": []}
    assert report.params["top_eigenvalue"] == analyze_cross_impact(spec.cross_impact).top_eigenvalue
    assert report.predicted_conjecture == predicted_theta_star(spec.cross_impact, 1.0, 2)


def test_prepared_systems_are_freed_before_the_dense_check(monkeypatch):
    prepared, alive = [], []
    prepare = stability_module.prepare_profile_systems
    build = stability_module.build_matrices

    def recording_prepare(spec):
        systems = prepare(spec)
        prepared.append(weakref.ref(systems))
        return systems

    def recording_build(*args, **kwargs):
        alive.append(prepared[0]() is not None)
        return build(*args, **kwargs)

    monkeypatch.setattr(stability_module, "prepare_profile_systems", recording_prepare)
    monkeypatch.setattr(stability_module, "build_matrices", recording_build)
    # power-law systems hold their matrices, which the final check's builds can reuse;
    # it builds one bundle for each of the two groups
    critical_theta(stability_game(n_assets=3, coupling=0.5, kernel=POWER_LAW), tol=1e-3)
    assert alive == [False, False]


def test_estimate_scales_with_the_kernel():
    base = critical_theta(stability_game(), tol=1e-5).estimate
    for factor in (0.5, 2.0):
        scaled = critical_theta(
            stability_game(kernel=KERNEL.scaled(factor)),
            bracket=(0.0, factor),
            tol=1e-5 * factor,
        ).estimate
        assert scaled == pytest.approx(factor * base, rel=1e-3)


@pytest.mark.parametrize("n_steps", [150, 250])
@pytest.mark.parametrize("n_assets, coupling", [(1, 0.5), (2, 0.9)])
def test_two_agent_estimates_near_the_theorem_value(n_steps, n_assets, coupling):
    spec = stability_game(n_assets=n_assets, coupling=coupling, n_steps=n_steps)
    predicted = predicted_theta_star(spec.cross_impact, 1.0, 2, mode="theorem")
    report = critical_theta(spec, tol=1e-4 * predicted)
    assert abs(report.estimate - predicted) <= 0.02 * predicted
    # the verdict flips across the predicted value
    assert is_unstable_at(spec, predicted - 0.05)
    assert not is_unstable_at(spec, predicted + 0.05)


def test_sweep_rows_and_beta_monotonicity():
    base = SweepBase(kernel=KERNEL, gamma=10.0, rel_tol=1e-3)
    points = [
        {"n_assets": 1, "n_agents": 3, "n_steps": 50, "beta": beta} for beta in (0.0, 0.5, 1.0)
    ]
    rows = stability_sweep(points, base)
    assert len(rows) == 3 and all(row.error is None for row in rows)
    estimates = [row.estimate for row in rows]
    assert estimates[0] >= estimates[1] >= estimates[2]
    for row in rows:
        assert row.rel_discrepancy <= 5e-2


def test_sweep_records_row_failures_and_continues():
    base = SweepBase(kernel=KERNEL, gamma=10.0)
    rows = stability_sweep(
        [{"n_assets": 1, "n_agents": 2, "n_steps": 50}, {"n_assets": 1, "n_agents": 2, "n_steps": 0}],
        base,
    )
    assert rows[0].error is None and rows[0].estimate is not None
    assert rows[1].error is not None and rows[1].estimate is None


def test_sweep_records_a_row_without_agents_as_failed():
    (row,) = stability_sweep(
        [{"n_assets": 1, "n_agents": 0, "n_steps": 20, "beta": 0.5}], SweepBase(kernel=KERNEL)
    )
    assert row.estimate is None
    assert row.error.startswith("ArgumentError: n_agents must be an integer >= 1")


@pytest.mark.parametrize("name", ["n_assets", "n_agents", "n_steps"])
def test_sweep_records_a_count_that_is_not_a_whole_number_as_failed(name):
    point = {"n_assets": 1, "n_agents": 2, "n_steps": 20}
    row, whole = stability_sweep(
        [{**point, name: 2.9}, {**point, name: 2.0}], SweepBase(kernel=KERNEL)
    )
    assert row.estimate is None
    assert row.error == f"ArgumentError: {name} must be an integer, got 2.9"
    assert whole.error is None and type(whole.params[name]) is int


def test_sweep_records_a_point_with_a_bad_number_as_failed_and_goes_on():
    bad, good = stability_sweep(
        [{"gamma": "x"}, {"n_agents": 2, "n_steps": 20}], SweepBase(kernel=KERNEL)
    )
    assert bad.estimate is None
    assert bad.error == "ArgumentError: gamma must be finite and nonnegative, got 'x'"
    assert good.error is None and good.estimate is not None


def test_sweep_propagates_unexpected_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("programming error, not a failed row")

    monkeypatch.setattr(stability_module, "critical_theta", broken)
    with pytest.raises(TypeError, match="programming error"):
        stability_sweep([{"n_assets": 1, "n_agents": 2, "n_steps": 20}], SweepBase(kernel=KERNEL))


def test_bisection_helper_monotone_case():
    estimate, bracket, trace, method = _bisect_threshold(
        lambda x: x < 0.37, 0.0, 1.0, tol=1e-6
    )
    assert method == "bisect"
    assert estimate == pytest.approx(0.37, abs=1e-5)
    assert bracket[1] - bracket[0] <= 1e-6
    assert all(isinstance(v, bool) for _, v in trace)


def test_bisection_helper_falls_back_to_scan_on_non_monotone_verdicts():
    # a stable pocket below the true edge breaks the bisection assumption
    def verdict(x):
        return x < 0.8 and not (0.3 < x < 0.4)

    estimate, bracket, trace, method = _bisect_threshold(lambda x: verdict(x), 0.0, 1.0, tol=1e-6)
    assert method == "scan"
    assert estimate == pytest.approx(0.8, abs=5e-3)
    assert bracket[0] <= estimate <= bracket[1]


def prepared_against_dense(spec, theta):
    """Largest relative difference of prepared and dense profiles, and the solve paths."""
    systems = prepare_profile_systems(spec)
    fast = systems.profiles(theta)
    _, dense = principal_fundamentals(dataclasses.replace(spec, theta=theta))
    worst = 0.0
    for prepared, pair in zip(fast, dense):
        for a, b in ((prepared.mean_profile, pair.mean_profile),
                     (prepared.deviation_profile, pair.deviation_profile)):
            worst = max(worst, np.abs(a - b).max() / np.abs(b).max())
    return worst, systems.paths


def count_solves(monkeypatch):
    """Count the Levinson, triangular and dense solves of the prepared systems.

    A banded solve makes none of these calls.
    """
    calls = {"toeplitz": 0, "triangular": 0, "guarded": 0}
    toeplitz = _linalg.solve_toeplitz
    triangular = _linalg.solve_triangular

    def counted_toeplitz(*args, **kwargs):
        calls["toeplitz"] += 1
        return toeplitz(*args, **kwargs)

    def counted_triangular(*args, **kwargs):
        calls["triangular"] += 1
        return triangular(*args, **kwargs)

    def counted_guarded(*args, **kwargs):
        calls["guarded"] += 1
        return guarded_solve(*args, **kwargs)

    monkeypatch.setattr(_linalg, "solve_toeplitz", counted_toeplitz)
    monkeypatch.setattr(_linalg, "solve_triangular", counted_triangular)
    monkeypatch.setattr(_linalg, "guarded_solve", counted_guarded)
    return calls


def paths_of(
    banded=0, levinson=0, triangular=0, dense=0, shifted=0, certified=0, all_groups=0, rebisect=0
):
    """A ``solve_paths`` dict with these counts."""
    return {
        "banded": banded,
        "levinson": levinson,
        "triangular": triangular,
        "dense": dense,
        "shifted": shifted,
        "certified": certified,
        "all_groups": all_groups,
        "rebisect": rebisect,
    }


@pytest.mark.parametrize("kernel", [KERNEL, POWER_LAW], ids=["exp", "power"])
@pytest.mark.parametrize("n_agents", [2, 10])
@pytest.mark.parametrize("fraction", [0.0, 0.5, 2.0])
def test_levinson_profiles_match_the_dense_path(kernel, n_agents, fraction, monkeypatch):
    """Prepared profiles match the dense ones: Levinson for the power law, banded for "exp"."""
    spec = stability_game(n_assets=3, coupling=0.5, n_agents=n_agents, n_steps=60, kernel=kernel)
    theta = fraction * predicted_theta_star(spec.cross_impact, kernel.at_zero, n_agents)
    calls = count_solves(monkeypatch)
    worst, paths = prepared_against_dense(spec, theta)
    assert worst <= 1e-11
    if kernel is KERNEL:
        # two distinct eigenvalues: both systems of each solved on the banded path
        assert paths == paths_of(banded=4)
        assert calls == {"toeplitz": 0, "triangular": 0, "guarded": 0}
    else:
        # each mean system solved by Levinson, each upper triangular deviation
        # system by back substitution
        assert paths == paths_of(levinson=2, triangular=2)
        assert calls == {"toeplitz": 2, "triangular": 2, "guarded": 0}


def uneven_game(kernel):
    return GameSpec(
        grid=TimeGrid(np.sort(np.r_[0.0, np.random.default_rng(3).uniform(0.0, 1.0, 40)])),
        kernel=kernel,
        cross_impact=one_factor_matrix(2, 0.5),
        n_agents=3,
    )


def test_risk_aversion_takes_the_dense_path(monkeypatch):
    calls = count_solves(monkeypatch)
    risk_averse = stability_game(n_assets=2, coupling=0.5, n_agents=3, gamma=5.0)
    worst, paths = prepared_against_dense(risk_averse, 0.3)
    assert worst <= 1e-12
    assert paths == paths_of(dense=4)
    assert calls == {"toeplitz": 0, "triangular": 0, "guarded": 4}


def test_uneven_exponential_grid_takes_the_banded_path(monkeypatch):
    calls = count_solves(monkeypatch)
    # the banded forms hold on any grid
    worst, paths = prepared_against_dense(uneven_game(KERNEL), 0.3)
    assert worst <= 1e-12
    assert paths == paths_of(banded=4)
    assert calls == {"toeplitz": 0, "triangular": 0, "guarded": 0}


def test_uneven_power_law_grid_takes_the_dense_mean_and_triangular_deviation_path(monkeypatch):
    calls = count_solves(monkeypatch)
    # without a variance term the deviation system is triangular on any grid;
    # only Levinson needs an equidistant one
    worst, paths = prepared_against_dense(uneven_game(POWER_LAW), 0.3)
    assert worst <= 1e-12
    assert paths == paths_of(dense=2, triangular=2)
    assert calls == {"toeplitz": 0, "triangular": 2, "guarded": 2}


def test_failed_levinson_residual_falls_back_to_the_dense_solve(monkeypatch):
    calls = count_solves(monkeypatch)
    monkeypatch.setattr(_linalg, "solve_toeplitz", lambda cr, b, **kw: 2.0 * b)
    worst, paths = prepared_against_dense(stability_game(n_agents=3, kernel=POWER_LAW), 0.1)
    assert worst <= 1e-12
    # the mean system falls back; the deviation system is triangular
    assert paths == paths_of(triangular=1, dense=1)
    assert calls["guarded"] == 1


def test_failed_triangular_residual_falls_back_to_the_dense_solve(monkeypatch):
    calls = count_solves(monkeypatch)
    monkeypatch.setattr(_linalg, "solve_triangular", lambda a, b, **kw: 2.0 * b)
    spec = stability_game(n_agents=3, kernel=POWER_LAW)
    systems = prepare_profile_systems(spec)
    deviation = systems.pairs[0][1]
    zero_fee = deviation.matrix.copy()
    worst, paths = prepared_against_dense(spec, 0.1)
    assert worst <= 1e-12
    assert paths == paths_of(levinson=1, dense=1)
    assert calls == {"toeplitz": 1, "triangular": 0, "guarded": 1}
    # the rejected solve restores the diagonal it shifted; the shift is twice the fee
    paths = paths_of()
    fallback = deviation.solve(0.2, paths)
    assert paths == paths_of(dense=1)
    assert np.array_equal(deviation.matrix, zero_fee)
    ones = np.ones(len(zero_fee))
    dense = guarded_solve(zero_fee + 0.2 * np.eye(len(ones)), ones)
    assert np.array_equal(fallback, dense / (ones @ dense))


def test_deviation_system_without_a_variance_term_is_solved_by_back_substitution(monkeypatch):
    scans = []
    tril = np.tril
    monkeypatch.setattr(np, "tril", lambda *args: scans.append(args) or tril(*args))
    spec = stability_game(n_assets=3, coupling=0.5, n_agents=3, n_steps=40, kernel=POWER_LAW)
    # a covariance without risk aversion adds no variance term either
    for spec in (spec, dataclasses.replace(spec, covariance=spec.cross_impact)):
        systems = prepare_profile_systems(spec)
        # the preparer names the paths; no matrix is scanned for its structure
        assert scans == []
        for mean, deviation in systems.pairs:
            assert (mean.path, deviation.path) == ("levinson", "triangular")
            assert np.array_equal(np.triu(deviation.matrix), deviation.matrix)
            zero_fee = deviation.matrix.copy()
            paths = paths_of()
            deviation.solve(0.3, paths)
            assert paths == paths_of(triangular=1)
            # the probe restores the diagonal it shifted
            assert np.array_equal(deviation.matrix, zero_fee)
        report = critical_theta(spec, tol=1e-3)
        assert report.solve_paths["triangular"] == report.solve_paths["levinson"] > 0
    # a variance term fills the lower triangle: no structured path
    risk_averse = prepare_profile_systems(stability_game(n_agents=3, n_steps=40, gamma=5.0))
    assert all(system.path is None for pair in risk_averse.pairs for system in pair)


def test_levinson_and_triangular_systems_hold_their_matrix_norms():
    spec = stability_game(n_assets=3, coupling=0.5, n_agents=3, n_steps=40, kernel=POWER_LAW)
    for mean, deviation in prepare_profile_systems(spec).pairs:
        for system in (mean, deviation):
            for norm, order in ((system.norm_1, 1), (system.norm_inf, np.inf)):
                exact = np.linalg.norm(system.matrix, order)
                assert abs(norm - exact) <= system.n * np.finfo(float).eps * exact


@settings(max_examples=40, derandomize=True)
@given(
    n_steps=st.integers(min_value=1, max_value=200),
    jittered=st.booleans(),
    rate=st.floats(min_value=0.1, max_value=20.0),
    n_agents=st.integers(min_value=1, max_value=10),
    shift=st.floats(min_value=0.0, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_banded_path_matches_the_dense_reference(n_steps, jittered, rate, n_agents, shift, seed):
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.5, 1.5, n_steps) if jittered else np.ones(n_steps)
    spec = GameSpec(
        grid=TimeGrid(np.r_[0.0, np.cumsum(steps) / steps.sum()]),
        kernel=exponential_kernel(rate),
        cross_impact=np.eye(1),
        n_agents=n_agents,
    )
    systems = prepare_profile_systems(spec)
    mean, deviation = systems.pairs[0]
    _, (reference,) = principal_fundamentals(dataclasses.replace(spec, theta=0.5 * shift))
    for system, dense in ((mean, reference.mean_profile), (deviation, reference.deviation_profile)):
        profile = system.solve(shift, systems.paths)
        assert np.abs(profile - dense).max() <= _CROSS_CHECK_TOL * np.abs(dense).max()
        matrix = system.dense()
        eps_n = spec.grid.n_points * np.finfo(float).eps
        for norm, order in ((system.norm_1, 1), (system.norm_inf, np.inf)):
            exact = np.linalg.norm(matrix, order)
            assert abs(norm - exact) <= eps_n * exact
    assert systems.paths == paths_of(banded=2)
    lower = build_matrices(spec.grid, spec.kernel).strict_lower
    x = rng.normal(size=spec.grid.n_points)
    for product, exact, norm in (
        (mean.lower.dot(x), lower @ x, np.linalg.norm(lower, np.inf)),
        (mean.lower.dot_transposed(x), lower.T @ x, np.linalg.norm(lower, 1)),
    ):
        assert np.abs(product - exact).max() <= eps_n * norm * np.abs(x).max()


def backward_error(matrix, shift, x):
    """Normwise backward error of ``x`` solving ``(matrix + shift I) x = 1``, as in ``_linalg``."""
    scale = (np.linalg.norm(matrix, np.inf) + shift) * np.abs(x).max() + 1.0
    return np.abs(matrix @ x + shift * x - 1.0).max() / scale


def kept(system, shift, x):
    """``x`` when it passes the backward test that ``_PreparedSystem.solve`` applies, else None."""
    if x is None:
        return None
    residual, ones = system._residual(x, shift), np.ones(system.n)
    return x if _linalg._backward_stable(residual, x, ones, system.norm_inf, shift) else None


def lacks(structure, matrix):
    """Whether ``matrix`` is far from upper triangular ("triangular") or Toeplitz ("levinson")."""
    if structure == "triangular":
        gap = np.tril(matrix, -1)
    else:
        gap = matrix - toeplitz(matrix[:, 0], matrix[0])
    return np.abs(gap).max() > 1e-6 * np.abs(matrix).max()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    power_law=st.booleans(),
    rate=st.floats(min_value=0.1, max_value=20.0),
    exponent=st.floats(min_value=0.1, max_value=3.0),
    offset=st.floats(min_value=0.01, max_value=2.0),
    n_steps=st.integers(min_value=1, max_value=120),
    jittered=st.booleans(),
    n_agents=st.integers(min_value=1, max_value=10),
    gamma=st.sampled_from([0.0, 5.0]),
    log_variance=st.one_of(st.none(), st.floats(min_value=-18.0, max_value=1.0)),
    shift=st.floats(min_value=0.0, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_every_solve_path_is_backward_stable_or_declines(
    power_law, rate, exponent, offset, n_steps, jittered, n_agents, gamma, log_variance, shift, seed
):
    """Each path forced on each prepared system, against the system's dense matrix.

    Each raw solution goes through the backward test that
    ``_PreparedSystem.solve`` applies. A kept solution passes the
    backward-error test and matches the dense solve within a bound from the
    condition number; a path forced on a matrix far from its structure
    declines; the prepared path of a banded or triangular system within its
    condition bound solves; each floor is below the smallest eigenvalue of
    the symmetric part. With a covariance and ``gamma = 0`` the variance
    rate is positive but no variance term is added.
    """
    steps = np.random.default_rng(seed).uniform(0.5, 1.5, n_steps) if jittered else np.ones(n_steps)
    spec = GameSpec(
        grid=TimeGrid(np.r_[0.0, np.cumsum(steps) / steps.sum()]),
        kernel=power_law_kernel(exponent, offset) if power_law else exponential_kernel(rate),
        cross_impact=np.eye(1),
        n_agents=n_agents,
        gamma=gamma,
        covariance=None if log_variance is None else np.array([[10.0**log_variance]]),
    )
    systems = prepare_profile_systems(spec)
    if gamma == 0.0 or log_variance is None:  # no variance term: named on any grid but Levinson's
        uniform = not jittered or n_steps == 1
        expected = ("levinson" if uniform else None, "triangular") if power_law else ("banded",) * 2
        assert tuple(system.path for system in systems.pairs[0]) == expected
    eps_n = spec.grid.n_points * np.finfo(float).eps
    for system in systems.pairs[0]:
        matrix = system.dense().copy()
        shifted = matrix + shift * np.eye(len(matrix))
        if system.floor is not None:
            assert system.floor <= np.linalg.eigvalsh(0.5 * (matrix + matrix.T))[0]
        ones = np.ones(len(matrix))
        reduced = _linalg._PreparedSystem(matrix.copy())
        reduced.reduce()
        solutions = {
            "shifted": kept(reduced, shift, reduced.shifted.solve(shift, ones)),
            "dense": guarded_solve(shifted, ones),
        }
        # a structured path is the method named after it, on a system prepared for it
        for path in ("triangular", "levinson"):
            forced = _linalg._PreparedSystem(matrix.copy(), path, system.floor)
            solutions[path] = kept(forced, shift, getattr(forced, "_" + path)(shift, ones))
            if lacks(path, matrix):
                assert solutions[path] is None, path
        if system.path == "banded":
            solutions["banded"] = kept(system, shift, system._banded(shift, ones))
        bounded = system.floor is not None and _linalg._floor_bounded(
            system.n, system.norm_1, system.floor, shift
        )
        if system.path in ("banded", "triangular") and bounded:
            assert solutions[system.path] is not None, system.path
        condition = np.linalg.cond(shifted, np.inf)
        reference = solutions["dense"]
        for path, x in solutions.items():
            if x is None:
                continue
            assert backward_error(matrix, shift, x) <= _linalg.BACKWARD_TOL + 4 * eps_n, path
            gap = np.abs(x - reference).max() / np.abs(reference).max()
            assert gap <= 4 * condition * (_linalg.BACKWARD_TOL + eps_n), path


def refined_profile(matrix):
    """Normalized solution of ``matrix x = 1``: LU, refined with residuals in ``np.longdouble``."""
    lu = lu_factor(matrix)
    x = lu_solve(lu, np.ones(len(matrix)))
    for _ in range(5):
        residual = np.einsum("ij,j->i", matrix, x.astype(np.longdouble)) - 1.0
        x = x - lu_solve(lu, residual.astype(float))
    return x / x.sum()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    power_law=st.booleans(),
    rate=st.floats(min_value=0.1, max_value=20.0),
    exponent=st.floats(min_value=0.1, max_value=3.0),
    offset=st.floats(min_value=0.01, max_value=2.0),
    n_steps=st.integers(min_value=1, max_value=120),
    jittered=st.booleans(),
    n_agents=st.integers(min_value=1, max_value=10),
    gamma=st.sampled_from([0.0, 5.0]),
    log_variance=st.one_of(st.none(), st.floats(min_value=-18.0, max_value=1.0)),
    eigenvalue=st.floats(min_value=0.1, max_value=10.0),
    fee=st.floats(min_value=0.0, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_certified_bound_covers_the_true_error(
    power_law, rate, exponent, offset, n_steps, jittered, n_agents, gamma, log_variance,
    eigenvalue, fee, seed,
):
    """The final check's forward-error certificate, against a refined dense solve.

    Every bound the certificate computes, and the bound of the prepared
    profile perturbed by 1e-8 relative, is at least the distance of the
    profile from the exact one, whose refined LU profile is within a few
    units of rounding; each floor is below the smallest eigenvalue of
    the symmetric part; a certified profile has the verdict of the exact
    one, and where every profile is certified the prepared and the dense
    ``is_unstable_at`` agree.
    """
    steps = np.random.default_rng(seed).uniform(0.5, 1.5, n_steps) if jittered else np.ones(n_steps)
    spec = GameSpec(
        grid=TimeGrid(np.r_[0.0, np.cumsum(steps) / steps.sum()]),
        kernel=power_law_kernel(exponent, offset) if power_law else exponential_kernel(rate),
        cross_impact=[[eigenvalue]],
        n_agents=n_agents,
        gamma=gamma,
        covariance=None if log_variance is None else np.array([[10.0**log_variance]]),
    )
    bounds, verdicts = [], []
    bound_of, certified = stability_module._profile_error_bound, stability_module._certified

    def recording_bound(matrix, profile, floor, dtype=np.float64):
        bound, rounding = bound_of(matrix, profile, floor, dtype)
        bounds.append((matrix, profile, bound))
        return bound, rounding

    def recording_certified(matrix, profile, floor, rel_tol):
        result = certified(matrix, profile, floor, rel_tol)
        verdicts.append((matrix, profile, floor, result))
        return result

    systems = prepare_profile_systems(spec)
    paths = paths_of()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stability_module, "_profile_error_bound", recording_bound)
        patch.setattr(stability_module, "_certified", recording_certified)
        stability_module._checked_profiles(spec, fee, systems.profiles(fee), 1e-9, paths)
    assert paths["certified"] + paths["dense"] == 2 and len(verdicts) == 2
    eps = np.finfo(float).eps
    for matrix, profile, bound in bounds:
        exact = refined_profile(matrix)
        error = np.abs(profile - exact).max()
        assert bound >= error - 4 * eps * np.abs(exact).max(), (bound, error)
    rng = np.random.default_rng(seed)
    for matrix, profile, floor, result in verdicts:
        assert floor <= np.linalg.eigvalsh(0.5 * (matrix + matrix.T))[0]
        exact = refined_profile(matrix)
        if result:
            assert oscillation_flags(profile) == oscillation_flags(exact)
        # a profile with a true error well above rounding is bounded too
        perturbed = profile * (1.0 + 1e-8 * rng.standard_normal(len(profile)))
        perturbed /= perturbed.sum()
        bound, _ = _linalg._profile_error_bound(matrix, perturbed, floor)
        assert bound >= np.abs(perturbed - exact).max() - 4 * eps * np.abs(exact).max()
    if paths["certified"] == 2:
        assert is_unstable_at(spec, fee, systems=systems) == is_unstable_at(spec, fee)


def test_a_perturbed_prepared_solve_is_caught_by_the_final_check(monkeypatch):
    spec = stability_game(n_steps=50)
    dense, *_ = _bisect_threshold(lambda theta: is_unstable_at(spec, theta), 0.0, 1.0, 1e-4)
    profiles = equilibrium_module.ProfileSystems.profiles
    monkeypatch.setattr(
        equilibrium_module.ProfileSystems,
        "profiles",
        lambda self, theta: profiles(self, theta * (1.0 + 1e-6)),
    )
    report = critical_theta(spec, bracket=(0.0, 1.0), tol=1e-4)
    assert report.solve_paths["certified"] == 0 and report.solve_paths["rebisect"] == 1
    assert report.estimate == dense


def test_rejected_banded_probe_falls_back_to_guarded_solve_bit_for_bit(monkeypatch):
    spec = stability_game(n_agents=3, n_steps=40)
    systems = prepare_profile_systems(spec)
    ones = np.ones(spec.grid.n_points)
    dense_systems = equilibrium_module.profile_systems(spec, build_matrices(spec.grid, spec.kernel), 0.0, 0.0)
    banded = [system.solve(0.4, systems.paths) for system in systems.pairs[0]]
    assert systems.paths == paths_of(banded=2)
    monkeypatch.setattr(_linalg, "BACKWARD_TOL", -1.0)  # every solve fails it
    for system, matrix, kept in zip(systems.pairs[0], dense_systems, banded):
        paths = paths_of()
        fallback = system.solve(0.4, paths)
        assert paths == paths_of(dense=1)
        dense = guarded_solve(matrix + 0.4 * np.eye(len(ones)), ones)
        assert np.array_equal(fallback, dense / (ones @ dense))
        assert np.abs(kept - fallback).max() <= 1e-12 * np.abs(fallback).max()


def test_banded_fallback_above_the_size_cap_raises_before_forming_the_matrix(monkeypatch):
    builds = []
    build = kernels._unit_lower
    monkeypatch.setattr(
        kernels, "_unit_lower", lambda *args: builds.append(args) or build(*args)
    )
    systems = prepare_profile_systems(stability_game(n_agents=3, n_steps=40))
    monkeypatch.setattr(_linalg, "BACKWARD_TOL", -1.0)  # every banded solve fails it
    monkeypatch.setattr(kernels, "MAX_FORMED_BYTES", 8 * 41**2 - 1)
    for system in systems.pairs[0]:
        with pytest.raises(NumericError, match="n = 41 would need"):
            system.solve(0.4, paths_of())
    assert builds == []
    # a matrix of exactly the cap is formed
    monkeypatch.setattr(kernels, "MAX_FORMED_BYTES", 8 * 41**2)
    paths = paths_of()
    systems.pairs[0][1].solve(0.4, paths)
    assert paths == paths_of(dense=1) and len(builds) == 1


def test_final_check_above_the_size_cap_raises_a_numeric_error_not_a_memory_error():
    # the banded probes of a jittered N = 20000 game hold no matrix, and the
    # final check's (N+1)^2 builds are refused; the child's address space is
    # capped so that a build that is not refused fails without taking the machine
    script = """
import resource, time
import numpy as np
from impact_games import GameSpec, TimeGrid, critical_theta, exponential_kernel
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
steps = np.random.default_rng(0).uniform(0.5, 1.5, 20000)
points = np.r_[0.0, np.cumsum(steps) / steps.sum()]
spec = GameSpec(TimeGrid(points), exponential_kernel(1.0), cross_impact=np.eye(1), n_agents=2)
start = time.perf_counter()
try:
    critical_theta(spec, tol=1e-6)
except Exception as exc:
    print(f"{time.perf_counter() - start:.3f}", type(exc).__name__, exc)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    seconds, kind, message = result.stdout.strip().split(" ", 2)
    assert kind == "NumericError", result.stdout + result.stderr
    assert message.startswith("n = 20001 would need 3.0 GiB per kernel matrix, above the cap")
    assert float(seconds) < 1.0


def test_exponential_game_without_a_variance_term_forms_no_matrix(monkeypatch):
    builds = []
    build = equilibrium_module.build_matrices

    def counted_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(equilibrium_module, "build_matrices", counted_build)
    calls = count_solves(monkeypatch)
    spec = stability_game(n_assets=3, coupling=0.5, n_agents=10, n_steps=300)
    systems = prepare_profile_systems(spec)
    assert builds == []
    predicted = predicted_theta_star(spec.cross_impact, KERNEL.at_zero, spec.n_agents)
    verdicts = [is_unstable_at(spec, f * predicted, systems=systems) for f in (0.0, 0.5, 2.0)]
    assert verdicts == [True, True, False]
    assert builds == []
    assert calls == {"toeplitz": 0, "triangular": 0, "guarded": 0}
    assert systems.paths == paths_of(banded=12)


def test_condition_bound_above_the_cap_reaches_the_guarded_solve(monkeypatch):
    calls = count_solves(monkeypatch)
    spec = stability_game(n_agents=3)
    systems = prepare_profile_systems(spec)
    # every system's bound is at least 1, so a cap of 1 sends it to the dense guard
    monkeypatch.setattr(_linalg, "MAX_CONDITION", 1.0)
    with pytest.raises(NumericError, match="ill-conditioned"):
        is_unstable_at(spec, 0.1, systems=systems)
    assert calls == {"toeplitz": 0, "triangular": 0, "guarded": 1}


def test_cross_check_mismatch_bisects_again_on_the_dense_path(monkeypatch):
    spec = stability_game(n_agents=3, n_steps=40)
    fast = critical_theta(spec, tol=1e-4)
    assert fast.solve_paths["rebisect"] == 0
    probes = []
    probe = stability_module.is_unstable_at
    reference = stability_module.principal_fundamentals

    def recording(spec, theta, rel_tol=1e-9, systems=None):
        probes.append(systems is None)
        return probe(spec, theta, rel_tol, systems=systems)

    def recording_reference(spec, paths=None):
        probes.append(True)
        return reference(spec, paths)

    monkeypatch.setattr(stability_module, "is_unstable_at", recording)
    monkeypatch.setattr(stability_module, "principal_fundamentals", recording_reference)
    monkeypatch.setattr(stability_module, "_CROSS_CHECK_TOL", -1.0)
    report = critical_theta(spec, tol=1e-4)
    n = len(fast.trace)
    # prepared probes, whose final check declines, then the same probes again
    # on the reference path and its final check
    assert probes == [False] * n + [True] * (n + 1)
    assert report.solve_paths == paths_of(banded=2 * (n + 1), dense=2 * (n + 2), rebisect=1)
    assert report.trace == fast.trace and report.estimate == fast.estimate


def test_a_verdict_only_disagreement_bisects_again_on_the_dense_path(monkeypatch):
    # every checked profile is close, but none oscillates where the prepared ones do
    spec = stability_game(n_agents=3, n_steps=40)
    dense, *_ = _bisect_threshold(lambda theta: is_unstable_at(spec, theta), 0.0, 1.0, 1e-4)
    n = spec.grid.n_points
    flat = equilibrium_module.FundamentalSolutions(np.full(n, 1.0 / n), np.full(n, 1.0 / n))
    checks = []

    def close_but_stable(spec, theta, fast, rel_tol, paths):
        checks.append(theta)
        return (flat,) * len(fast), True

    monkeypatch.setattr(stability_module, "_checked_profiles", close_but_stable)
    report = critical_theta(spec, bracket=(0.0, 1.0), tol=1e-4)
    assert len(checks) == 1 and report.solve_paths["rebisect"] == 1
    assert report.estimate == dense
    assert any(flags.unstable for pair in report.flags_below for flags in pair)


def test_high_frequency_limit_at_a_thousand_steps():
    # theta* -> lambda_max G(0) / 4 = 0.25 as the grid refines; at N = 1000 the
    # dense path gave 0.2494998, about 2 / N below the limit
    spec = stability_game(n_assets=1, n_agents=2, n_steps=1000)
    started = time.perf_counter()
    report = critical_theta(spec, tol=1e-6)
    elapsed = time.perf_counter() - started
    assert report.estimate == pytest.approx(0.2494998, abs=1e-6)
    assert report.method == "bisect"
    assert report.solve_paths["rebisect"] == 0 and report.solve_paths["dense"] == 0
    assert report.solve_paths["certified"] == 2
    assert elapsed < 2.0


def test_one_factor_game_bisects_its_top_principal_asset_only():
    spec = stability_game(n_assets=4, coupling=0.5, n_agents=3, n_steps=60)
    full = critical_theta(spec, tol=1e-4)
    top = analyze_cross_impact(spec.cross_impact).eigenvalues[0]
    reduced = critical_theta(
        GameSpec(grid=spec.grid, kernel=KERNEL, cross_impact=[[top]], n_agents=3),
        bracket=(0.0, 2.0 * full.predicted_conjecture),
        tol=1e-4,
    )
    assert (full.estimate, full.bracket, full.trace) == (
        reduced.estimate, reduced.bracket, reduced.trace
    )
    # the top group per probe, then both groups at each final bracket end
    n = len(full.trace)
    assert full.solve_paths == paths_of(banded=2 * (n + 4), certified=4)
    # every verdict of the trace is the dense all-groups verdict
    assert [(theta, is_unstable_at(spec, theta)) for theta, _ in full.trace] == list(full.trace)


def count_reductions(monkeypatch):
    """Count the Hessenberg reductions of prepared systems."""
    reductions = []

    class Counted(_linalg._ShiftedSolver):
        def __init__(self, matrix):
            reductions.append(len(matrix))
            super().__init__(matrix)

    monkeypatch.setattr(_linalg, "_ShiftedSolver", Counted)
    return reductions


@pytest.mark.parametrize("gamma", [0.0, 1.0], ids=["risk_neutral", "equal_to_Q"])
def test_large_scale_law_class_checks_its_reference_solves_densely(gamma, monkeypatch):
    # nine distinct eigenvalues in one scale-law class
    cross = rank_one_matrix(np.linspace(0.1, 0.9, 9))
    spec = GameSpec(
        grid=make_equidistant_grid(40, 1.0),
        kernel=KERNEL,
        cross_impact=cross,
        n_agents=3,
        gamma=gamma,
        covariance=cross if gamma > 0.0 else None,
    )
    reductions = count_reductions(monkeypatch)
    report = critical_theta(spec, tol=1e-4)
    n = len(report.trace)
    # the top group per probe, all nine at both final bracket ends, then the
    # final check, which certifies all 18 profiles
    if gamma == 0.0:
        assert report.solve_paths == paths_of(banded=2 * (n + 18), certified=18)
        assert reductions == []
    else:
        assert report.solve_paths == paths_of(shifted=2 * n + 36, certified=18)
        # reduced when prepared; reducing the bisected top group again is a no-op
        assert reductions == [41, 41]
    # with every certificate declined, the 18 systems are solved densely
    with monkeypatch.context() as patch:
        patch.setattr(stability_module, "_certified", lambda *args: False)
        declined = critical_theta(spec, tol=1e-4)
    paths = dict(report.solve_paths, certified=0, dense=18)
    assert declined.solve_paths == paths
    assert (report.estimate, report.bracket, report.trace, report.flags_below) == (
        declined.estimate, declined.bracket, declined.trace, declined.flags_below
    )
    reductions.clear()
    monkeypatch.setattr(equilibrium_module, "_REDUCE_MIN_GROUPS", 10)
    small = critical_theta(spec, tol=1e-4)
    # a class too small to be reduced when prepared is reduced for its bisected group
    assert reductions == ([] if gamma == 0.0 else [41, 41])
    assert small.solve_paths == report.solve_paths
    assert (report.estimate, report.bracket, report.trace, report.flags_below) == (
        small.estimate, small.bracket, small.trace, small.flags_below
    )


def two_class_game(top_variance=0.0, kernel=KERNEL):
    """Risk-averse game whose covariance commutes with Q but is not proportional to it.

    The two larger eigenvalues have no variance term (the top one
    ``top_variance``, when given) and form one class; the smallest, with a
    large variance rate, is a class of its own and oscillates up to a higher
    fee than the top principal asset.
    """
    rotation = np.linalg.qr(np.random.default_rng(11).normal(size=(3, 3)))[0]
    return GameSpec(
        grid=make_equidistant_grid(40, 1.0),
        kernel=kernel,
        cross_impact=rotation @ np.diag([1.02, 1.01, 1.0]) @ rotation.T,
        n_agents=3,
        gamma=1.0,
        covariance=rotation @ np.diag([top_variance, 0.0, 10.0]) @ rotation.T,
    )


def all_groups_report(spec, monkeypatch):
    """critical_theta with every group bisected."""
    with monkeypatch.context() as patch:
        patch.setattr(stability_module, "_top_groups", lambda systems: range(len(systems.pairs)))
        return critical_theta(spec, bracket=(0.0, 1.0), tol=1e-4)


def test_two_ratio_classes_bisect_the_top_group_of_each(monkeypatch):
    spec = two_class_game()
    systems = prepare_profile_systems(spec)
    assert np.allclose(systems.eigenvalues, [1.02, 1.01, 1.0], rtol=1e-12)
    assert _top_groups(systems) == (0, 2)
    report = critical_theta(spec, bracket=(0.0, 1.0), tol=1e-4)
    reference = all_groups_report(spec, monkeypatch)
    assert (report.estimate, report.bracket, report.trace) == (
        reference.estimate, reference.bracket, reference.trace
    )
    # the lower class decides: above the top principal asset's own estimate
    alone = critical_theta(
        GameSpec(grid=spec.grid, kernel=KERNEL, cross_impact=[[1.02]], n_agents=3),
        bracket=(0.0, 1.0),
        tol=1e-4,
    )
    assert report.estimate > alone.estimate + 1e-3
    # two groups per probe, then all three at both ends and in the final check;
    # the bisected group without a floor is reduced once and solved by
    # shifted solves, and the final check certifies all six profiles
    paths = report.solve_paths
    solves = paths["banded"] + paths["certified"] + paths["shifted"]
    assert solves == 4 * len(report.trace) + 18
    assert paths["banded"] == 2 * (len(report.trace) + 4)
    assert paths["shifted"] == 2 * len(report.trace) + 4 and paths["certified"] == 6
    assert paths["dense"] == 0
    assert paths["all_groups"] == 0 and paths["rebisect"] == 0


def test_variance_term_of_rounding_noise_keeps_the_levinson_path(monkeypatch):
    # the split leaves the 1.01 group a variance rate of rounding noise
    assert 0.0 < prepare_profile_systems(two_class_game()).variance_terms[1] < 1e-15
    # a variance rate of 1e-15 on the top group puts noise into the
    # unit-eigenvalue systems of their class, which are built from the top group
    spec = two_class_game(top_variance=1e-15, kernel=POWER_LAW)
    systems = prepare_profile_systems(spec)
    assert 0.0 < systems.variance_terms[0] < 1e-14
    assert systems.pairs[0] is systems.pairs[1]
    floors = [[system.floor for system in pair] for pair in systems.pairs]
    assert None not in floors[0] and floors[2] == [None, None]
    report = critical_theta(spec, bracket=(0.0, 4.0), tol=1e-4)

    prepare = stability_module.prepare_profile_systems

    def exact_zero_only(spec):
        """The prepared systems with floors only where the variance term is exactly zero."""
        systems = prepare(spec)
        pairs = tuple(
            pair if term == 0.0 else tuple(_linalg._PreparedSystem(s.matrix, None) for s in pair)
            for pair, term in zip(systems.pairs, systems.variance_terms)
        )
        return dataclasses.replace(systems, pairs=pairs)

    monkeypatch.setattr(stability_module, "prepare_profile_systems", exact_zero_only)
    dense = critical_theta(spec, bracket=(0.0, 4.0), tol=1e-4)
    assert (report.estimate, report.bracket, report.trace) == (
        dense.estimate, dense.bracket, dense.trace
    )
    assert report.solve_paths["levinson"] > dense.solve_paths["levinson"]
    assert sum(report.solve_paths.values()) == sum(dense.solve_paths.values())


def test_unstable_group_left_out_at_the_upper_end_bisects_all_groups(monkeypatch):
    spec = two_class_game()
    reference = all_groups_report(spec, monkeypatch)
    probes = []
    probe = stability_module.is_unstable_at

    def recording(spec, theta, rel_tol=1e-9, systems=None):
        probes.append(len(systems.pairs))
        return probe(spec, theta, rel_tol, systems=systems)

    monkeypatch.setattr(stability_module, "is_unstable_at", recording)
    # one class: the lower group, unstable at the top group's upper end, is left out
    monkeypatch.setattr(
        stability_module, "_top_groups", lambda systems: (int(np.argmax(systems.eigenvalues)),)
    )
    report = critical_theta(spec, bracket=(0.0, 1.0), tol=1e-4)
    assert report.solve_paths["all_groups"] == 1 and report.solve_paths["rebisect"] == 0
    n = len(reference.trace)
    assert probes == [1] * (len(probes) - n) + [3] * n
    assert (report.estimate, report.bracket, report.trace) == (
        reference.estimate, reference.bracket, reference.trace
    )


def test_risk_averse_bisection_probes_the_reduced_top_group(monkeypatch):
    # the threshold-sweep setting: gamma > 0 with a covariance equal to Q
    spec = stability_game(n_assets=3, coupling=0.5, n_agents=3, n_steps=60, gamma=10.0)
    report = critical_theta(spec, tol=1e-4)
    n = len(report.trace)
    # the top group's two systems for every probe, both groups at both final
    # bracket ends on the class's reduced systems, and both groups in the final check
    assert report.solve_paths == paths_of(certified=4, shifted=2 * n + 8)
    monkeypatch.setattr(_linalg._PreparedSystem, "reduce", lambda self: None)
    dense = critical_theta(spec, tol=1e-4)
    assert dense.solve_paths["shifted"] == 0
    assert (report.estimate, report.bracket, report.trace, report.flags_below) == (
        dense.estimate, dense.bracket, dense.trace, dense.flags_below
    )


def risk_averse_system():
    spec = stability_game(n_agents=3, n_steps=40, gamma=5.0)
    system = prepare_profile_systems(spec).pairs[0][0]
    assert system.floor is None
    system.reduce()
    return system


def test_rejected_shifted_probe_falls_back_to_guarded_solve_bit_for_bit(monkeypatch):
    system = risk_averse_system()
    ones = np.ones(len(system.matrix))
    paths = {"levinson": 0, "dense": 0, "shifted": 0}
    shifted = system.solve(0.4, paths)
    assert paths == {"levinson": 0, "dense": 0, "shifted": 1}
    monkeypatch.setattr(_linalg, "BACKWARD_TOL", -1.0)  # every solve fails it
    fallback = system.solve(0.4, paths)
    assert paths == {"levinson": 0, "dense": 1, "shifted": 1}
    dense = guarded_solve(system.matrix + 0.4 * np.eye(len(ones)), ones)
    assert np.array_equal(fallback, dense / (ones @ dense))
    assert np.abs(shifted - fallback).max() <= 1e-12 * np.abs(fallback).max()


def test_singular_shifted_probe_raises_numeric_error():
    system = risk_averse_system()
    # the shift -lambda makes A + shift I singular
    eigenvalues = np.linalg.eigvals(system.matrix)
    eigenvalue = eigenvalues[eigenvalues.imag == 0.0].real.max()
    with pytest.raises(NumericError):
        system.solve(-eigenvalue, {"levinson": 0, "dense": 0, "shifted": 0})


def perturbing(monkeypatch, owner, name, applies=lambda *args: True):
    """Wrap ``owner.name`` to move the largest entry of its result by 1e-6 relative.

    Only calls for which ``applies(*args)`` holds are perturbed; their
    unperturbed results are collected in the returned list.
    """
    method, raw = getattr(owner, name), []

    def perturbed(*args):
        x = method(*args)
        if not applies(*args):
            return x
        raw.append(x)
        x = x.copy()
        x.flat[np.argmax(np.abs(x))] *= 1.0 + 1e-6
        return x

    monkeypatch.setattr(owner, name, perturbed)
    return raw


def prepared_for(path):
    """A prepared system whose solve at shift 0.4 takes ``path``, and the path's method."""
    if path == "shifted":
        system = risk_averse_system()
        return system, system.shifted, "solve"
    kernel = KERNEL if path == "banded" else POWER_LAW
    spec = stability_game(n_agents=3, n_steps=40, kernel=kernel)
    mean, deviation = prepare_profile_systems(spec).pairs[0]
    system = deviation if path == "triangular" else mean
    return system, system, "_" + path


@pytest.mark.parametrize("path", ["banded", "triangular", "levinson", "shifted"])
def test_a_prepared_solution_off_by_1e_6_in_one_entry_is_declined(path, monkeypatch):
    """The one backward test of ``_PreparedSystem.solve`` declines each path's raw solution."""
    system, owner, name = prepared_for(path)
    paths = paths_of()
    system.solve(0.4, paths)
    assert paths == paths_of(**{path: 1})
    with monkeypatch.context() as patch:
        patch.setattr(owner, name, lambda *args: None)  # the path disabled
        disabled = system.solve(0.4, paths_of())
    raw = perturbing(monkeypatch, owner, name)
    paths = paths_of()
    declined = system.solve(0.4, paths)
    assert len(raw) == 1 and paths == paths_of(dense=1)
    assert np.array_equal(declined, disabled)


def test_a_principal_solution_off_by_1e_6_in_one_entry_is_declined(monkeypatch):
    """hetero's structured solve declines multipliers moved in one entry, by the same test."""
    spec = GameSpec(
        grid=make_equidistant_grid(30, 1.0),
        kernel=KERNEL,
        cross_impact=np.eye(1),
        n_agents=3,
        theta=[0.3, 0.6, 0.9],
        scales=[1.0, 1.5, 0.8],
        priority=np.array([[0.5, 0.7, 0.4], [0.3, 0.5, 0.8], [0.6, 0.2, 0.5]]),
    )
    assert hetero._PrincipalSystem(spec, 1.0).solve() is not None
    with monkeypatch.context() as patch:
        patch.setattr(hetero._PrincipalSystem, "solve", lambda system: None)  # the path disabled
        disabled = hetero._unit_responses(spec, 1.0)
    dense_solves = []
    dense = hetero._dense_responses
    monkeypatch.setattr(
        hetero, "_dense_responses", lambda *args: dense_solves.append(args) or dense(*args)
    )
    # the J x J solve for the multipliers
    raw = perturbing(monkeypatch, hetero, "guarded_solve", lambda matrix, rhs: len(matrix) == 3)
    declined = hetero._unit_responses(spec, 1.0)
    assert len(raw) == 1 and len(dense_solves) == 1
    assert np.array_equal(declined, disabled)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_profile_has_no_verdict(entry):
    with pytest.raises(NumericError, match="non-finite"):
        oscillation_flags(np.array([1.0, entry, -1.0]))


def test_profile_solution_without_a_normalization_raises(monkeypatch):
    # x = (1, -1) sums to exactly zero
    system = _linalg._PreparedSystem(np.diag([1.0, -1.0]), None)
    with pytest.raises(NumericError, match="sums to 0.0"):
        system.solve(0.0, paths_of())
    infinite = np.array([np.inf, 1.0])
    monkeypatch.setattr(_linalg, "guarded_solve", lambda a, b: infinite)
    with pytest.raises(NumericError, match="sums to inf"):
        system.solve(0.0, paths_of())
    # the dense reference normalizes through the same check
    monkeypatch.setattr(equilibrium_module, "guarded_solve", lambda a, b: np.array([1.0, -1.0]))
    with pytest.raises(NumericError, match="sums to 0.0"):
        principal_fundamentals(stability_game(n_steps=1))


def kernel_matrix_and_floor(kernel, points):
    """Kernel matrix on ``points`` and its floor per unit lag-zero value, as prepared."""
    matrix = build_matrices(TimeGrid(points), kernel).kernel_matrix
    rounding = len(points) * np.finfo(float).eps * np.linalg.norm(matrix, 1)
    floor = equilibrium_module._unit_floor(kernel, float(np.diff(points).min()))
    return matrix, floor - rounding / kernel.at_zero


@pytest.mark.parametrize("rate", [1e-2, 0.3, 1.0, 20.0, 300.0])
@pytest.mark.parametrize("n_steps", [1, 7, 150, 400])
@pytest.mark.parametrize("jitter", [False, True], ids=["uniform", "jittered"])
def test_exponential_floor_is_below_the_smallest_eigenvalue(rate, n_steps, jitter):
    points = make_equidistant_grid(n_steps, 1.0).points
    if jitter:
        steps = np.diff(points) * np.random.default_rng(n_steps).uniform(0.2, 1.8, n_steps)
        points = np.r_[0.0, np.cumsum(steps)]
    kernel = exponential_kernel(rate, scale=3.0)
    matrix, floor = kernel_matrix_and_floor(kernel, points)
    smallest = np.linalg.eigvalsh(matrix)[0] / kernel.at_zero
    assert floor <= smallest
    # the Gershgorin bound on the inverse is tight for a long uniform grid
    if not jitter and n_steps == 400 and rate >= 1.0:
        assert floor >= 0.99 * smallest


@pytest.mark.parametrize("exponent", [0.1, 0.5, 5.0])
@pytest.mark.parametrize("offset", [1e-3, 0.1, 10.0])
@pytest.mark.parametrize("n_steps", [1, 7, 150, 400])
@pytest.mark.parametrize("jitter", [False, True], ids=["uniform", "jittered"])
def test_power_law_floor_is_below_the_smallest_eigenvalue(exponent, offset, n_steps, jitter):
    points = make_equidistant_grid(n_steps, 1.0).points
    if jitter:
        steps = np.diff(points) * np.random.default_rng(n_steps).uniform(0.2, 1.8, n_steps)
        points = np.r_[0.0, np.cumsum(steps)]
    kernel = power_law_kernel(exponent, offset, scale=3.0)
    matrix, floor = kernel_matrix_and_floor(kernel, points)
    smallest = np.linalg.eigvalsh(matrix)[0] / kernel.at_zero
    assert 0.0 < floor <= smallest
    # the mixture of exponential floors stays within a small factor
    assert floor >= smallest / 3.0


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    exponent=st.floats(min_value=0.05, max_value=3.0),
    log_offset=st.floats(min_value=-3.0, max_value=1.0),
    n_steps=st.integers(min_value=1, max_value=200),
    jittered=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_power_law_floor_is_below_the_smallest_eigenvalue_on_drawn_grids(
    exponent, log_offset, n_steps, jittered, seed
):
    steps = np.random.default_rng(seed).uniform(0.5, 1.5, n_steps) if jittered else np.ones(n_steps)
    kernel = power_law_kernel(exponent, 10.0**log_offset)
    matrix, floor = kernel_matrix_and_floor(kernel, np.r_[0.0, np.cumsum(steps) / steps.sum()])
    assert 0.0 < floor <= np.linalg.eigvalsh(matrix)[0] / kernel.at_zero


def test_a_power_law_hetero_solve_leaves_scipy_special_unloaded():
    # the power-law floor is in closed form; scipy.special costs a process about 50 ms
    script = """
import sys
import numpy as np
from impact_games import GameSpec, make_equidistant_grid, one_factor_matrix, power_law_kernel, solve
spec = GameSpec(
    grid=make_equidistant_grid(20, 1.0), kernel=power_law_kernel(0.5, 0.1),
    cross_impact=one_factor_matrix(3, 0.5), inventories=np.ones((3, 2)), theta=[0.3, 0.6],
)
solve(spec)
print(sorted(name for name in sys.modules if name.startswith("scipy.special")))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def count_kernel_eigvalsh(monkeypatch, n_points):
    """Count the ``eigvalsh`` calls on (n_points x n_points) matrices."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(matrix, *args, **kwargs):
        if np.shape(matrix) == (n_points, n_points):
            calls.append(np.shape(matrix))
        return eigvalsh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize(
    "kernel", [KERNEL, power_law_kernel(0.5, 0.1)], ids=["exponential", "power_law"]
)
def test_floors_take_no_eigvalsh(kernel, monkeypatch):
    spec = stability_game(n_assets=3, coupling=0.5, n_agents=3, n_steps=40, kernel=kernel)
    calls = count_kernel_eigvalsh(monkeypatch, spec.grid.n_points)
    systems = prepare_profile_systems(spec)
    assert calls == []
    _, floor = kernel_matrix_and_floor(kernel, spec.grid.points)
    # one scale-law class, prepared at unit eigenvalue
    assert len({id(pair) for pair in systems.pairs}) == 1
    for mean, deviation in systems.pairs:
        scale = floor * kernel.at_zero
        assert deviation.floor == pytest.approx(0.5 * scale, rel=1e-12)
        # (J + 1) / 2 for J = 3 agents
        assert mean.floor == pytest.approx(2.0 * scale, rel=1e-12)
