import numpy as np
import pytest

from impact_games import (
    BracketError,
    GameSpec,
    critical_theta,
    exponential_kernel,
    is_unstable_at,
    make_equidistant_grid,
    one_factor_matrix,
    oscillation_flags,
    predicted_theta_star,
    principal_fundamentals,
    stability_sweep,
)
from impact_games import stability as stability_module
from impact_games.stability import SweepBase, _bisect_threshold

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
    ],
)
def test_non_finite_or_non_positive_bisection_settings_are_rejected(kwargs):
    with pytest.raises(ValueError, match="finite"):
        critical_theta(stability_game(n_assets=1, n_steps=20), **kwargs)


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
