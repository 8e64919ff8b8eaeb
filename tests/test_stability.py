import dataclasses
import time

import numpy as np
import pytest

from impact_games import (
    BracketError,
    GameSpec,
    NumericError,
    TimeGrid,
    analyze_cross_impact,
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
    stability_sweep,
)
from impact_games import _linalg
from impact_games import stability as stability_module
from impact_games.stability import (
    SweepBase,
    _bisect_threshold,
    _FeeFreeSystem,
    _top_groups,
    prepare_profile_systems,
)

KERNEL = exponential_kernel()


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


def test_predictions_run_on_one_blas_thread(monkeypatch):
    controls = _linalg._openblas_thread_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS")
    counts = []
    eigvalsh = np.linalg.eigvalsh

    def recording(*args, **kwargs):
        counts.append([get() for get, _ in controls])
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    original = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(2)
        predicted_theta_star(one_factor_matrix(3, 0.5), 1.0, n_agents=2)
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, put), count in zip(controls, original):
            put(count)
    assert counts == [[1] * len(controls)]


def test_critical_fee_decomposes_the_cross_impact_once_on_one_blas_thread(monkeypatch):
    controls = _linalg._openblas_thread_controls()
    spec = stability_game(n_assets=3, coupling=0.5, n_steps=30)
    counts = []
    eigvalsh = np.linalg.eigvalsh

    def recording(matrix, *args, **kwargs):
        if np.shape(matrix) == spec.cross_impact.shape:
            counts.append([get() for get, _ in controls])
        return eigvalsh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    report = critical_theta(spec, tol=1e-3)
    assert counts == [[1] * len(controls)]
    assert report.params["top_eigenvalue"] == eigvalsh(spec.cross_impact)[-1]
    assert report.predicted_conjecture == predicted_theta_star(spec.cross_impact, 1.0, 2)


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
    assert row.error.startswith("ArgumentError: need at least one agent")


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

    estimate, bracket, trace, method = _bisect_threshold(
        lambda x: verdict(x), 0.0, 1.0, tol=1e-6, scan_points=400
    )
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
    """Count the Levinson and dense solves of the prepared systems."""
    calls = {"toeplitz": 0, "guarded": 0}
    toeplitz = stability_module.solve_toeplitz

    def counted_toeplitz(*args, **kwargs):
        calls["toeplitz"] += 1
        return toeplitz(*args, **kwargs)

    def counted_guarded(*args, **kwargs):
        calls["guarded"] += 1
        return guarded_solve(*args, **kwargs)

    monkeypatch.setattr(stability_module, "solve_toeplitz", counted_toeplitz)
    monkeypatch.setattr(stability_module, "guarded_solve", counted_guarded)
    return calls


@pytest.mark.parametrize("kernel", [KERNEL, power_law_kernel(0.5, 0.1)], ids=["exp", "power"])
@pytest.mark.parametrize("n_agents", [2, 10])
@pytest.mark.parametrize("fraction", [0.0, 0.5, 2.0])
def test_levinson_profiles_match_the_dense_path(kernel, n_agents, fraction, monkeypatch):
    spec = stability_game(n_assets=3, coupling=0.5, n_agents=n_agents, n_steps=60, kernel=kernel)
    theta = fraction * predicted_theta_star(spec.cross_impact, kernel.at_zero, n_agents)
    calls = count_solves(monkeypatch)
    worst, paths = prepared_against_dense(spec, theta)
    assert worst <= 1e-11
    # two distinct eigenvalues, two profile systems each, all solved by Levinson
    assert paths == {"levinson": 4, "dense": 0, "all_groups": 0, "rebisect": 0}
    assert calls == {"toeplitz": 4, "guarded": 0}


def test_risk_aversion_and_uneven_grids_take_the_dense_path(monkeypatch):
    calls = count_solves(monkeypatch)
    risk_averse = stability_game(n_assets=2, coupling=0.5, n_agents=3, gamma=5.0)
    uneven = GameSpec(
        grid=TimeGrid(np.sort(np.r_[0.0, np.random.default_rng(3).uniform(0.0, 1.0, 40)])),
        kernel=KERNEL,
        cross_impact=one_factor_matrix(2, 0.5),
        n_agents=3,
    )
    for spec in (risk_averse, uneven):
        worst, paths = prepared_against_dense(spec, 0.3)
        assert worst <= 1e-12
        assert paths == {"levinson": 0, "dense": 4, "all_groups": 0, "rebisect": 0}
    assert calls == {"toeplitz": 0, "guarded": 8}


def test_failed_levinson_residual_falls_back_to_the_dense_solve(monkeypatch):
    calls = count_solves(monkeypatch)
    monkeypatch.setattr(stability_module, "solve_toeplitz", lambda cr, b, **kw: 2.0 * b)
    worst, paths = prepared_against_dense(stability_game(n_agents=3), 0.1)
    assert worst <= 1e-12
    assert paths == {"levinson": 0, "dense": 2, "all_groups": 0, "rebisect": 0}
    assert calls["guarded"] == 2


def test_condition_bound_above_the_cap_reaches_the_guarded_solve(monkeypatch):
    calls = count_solves(monkeypatch)
    spec = stability_game(n_agents=3)
    systems = prepare_profile_systems(spec)
    # every system's bound is at least 1, so a cap of 1 sends it to the dense guard
    monkeypatch.setattr(stability_module, "_MAX_CONDITION", 1.0)
    with pytest.raises(NumericError, match="ill-conditioned"):
        is_unstable_at(spec, 0.1, systems=systems)
    assert calls == {"toeplitz": 0, "guarded": 1}


def test_cross_check_mismatch_bisects_again_on_the_dense_path(monkeypatch):
    spec = stability_game(n_agents=3, n_steps=40)
    fast = critical_theta(spec, tol=1e-4)
    assert fast.solve_paths["rebisect"] == 0
    probes = []
    probe = stability_module.is_unstable_at

    def recording(spec, theta, rel_tol=1e-9, systems=None):
        probes.append(systems is None)
        return probe(spec, theta, rel_tol, systems=systems)

    monkeypatch.setattr(stability_module, "is_unstable_at", recording)
    monkeypatch.setattr(stability_module, "_CROSS_CHECK_TOL", -1.0)
    report = critical_theta(spec, tol=1e-4)
    n = len(fast.trace)
    # prepared probes, then the same probes again on the dense path
    assert probes == [False] * n + [True] * n
    assert report.solve_paths == {
        "levinson": 2 * (n + 1), "dense": 2 * (n + 2), "all_groups": 0, "rebisect": 1
    }
    assert report.trace == fast.trace and report.estimate == fast.estimate


def test_high_frequency_limit_at_a_thousand_steps():
    # theta* -> lambda_max G(0) / 4 = 0.25 as the grid refines; at N = 1000 the
    # dense path gave 0.2494998, about 2 / N below the limit
    spec = stability_game(n_assets=1, n_agents=2, n_steps=1000)
    started = time.perf_counter()
    report = critical_theta(spec, tol=1e-6)
    elapsed = time.perf_counter() - started
    assert report.estimate == pytest.approx(0.2494998, abs=1e-6)
    assert report.method == "bisect"
    assert report.solve_paths["rebisect"] == 0 and report.solve_paths["dense"] == 2
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
    assert full.solve_paths == {"levinson": 2 * n + 8, "dense": 4, "all_groups": 0, "rebisect": 0}
    # every verdict of the trace is the dense all-groups verdict
    assert [(theta, is_unstable_at(spec, theta)) for theta, _ in full.trace] == list(full.trace)


def two_class_game():
    """Risk-averse game whose covariance commutes with Q but is not proportional to it.

    The two larger eigenvalues have no variance term and form one class; the
    smallest, with a large variance rate, is a class of its own and
    oscillates up to a higher fee than the top principal asset.
    """
    rotation = np.linalg.qr(np.random.default_rng(11).normal(size=(3, 3)))[0]
    return GameSpec(
        grid=make_equidistant_grid(40, 1.0),
        kernel=KERNEL,
        cross_impact=rotation @ np.diag([1.02, 1.01, 1.0]) @ rotation.T,
        n_agents=3,
        gamma=1.0,
        covariance=rotation @ np.diag([0.0, 0.0, 10.0]) @ rotation.T,
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
    # two groups per probe, then all three at both ends and in the dense check
    paths = report.solve_paths
    assert paths["levinson"] + paths["dense"] == 4 * len(report.trace) + 18
    assert paths["all_groups"] == 0 and paths["rebisect"] == 0


def test_variance_term_of_rounding_noise_keeps_the_levinson_path(monkeypatch):
    # the split leaves the 1.01 group a variance rate of rounding noise
    spec = two_class_game()
    systems = prepare_profile_systems(spec)
    assert systems.variance_terms[0] == 0.0 and 0.0 < systems.variance_terms[1] < 1e-15
    floors = [[system.floor for system in pair] for pair in systems.pairs]
    assert None not in floors[0] + floors[1] and floors[2] == [None, None]
    report = critical_theta(spec, bracket=(0.0, 1.0), tol=1e-4)

    prepare = stability_module.prepare_profile_systems

    def exact_zero_only(spec):
        """The prepared systems with floors only where the variance term is exactly zero."""
        systems = prepare(spec)
        pairs = tuple(
            pair if term == 0.0 else tuple(_FeeFreeSystem(s.matrix, None) for s in pair)
            for pair, term in zip(systems.pairs, systems.variance_terms)
        )
        return dataclasses.replace(systems, pairs=pairs)

    monkeypatch.setattr(stability_module, "prepare_profile_systems", exact_zero_only)
    dense = critical_theta(spec, bracket=(0.0, 1.0), tol=1e-4)
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
