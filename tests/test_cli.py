import copy
import csv
import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import VENUE_CHOICE_COSTS, assert_matches_printed
from impact_games import _linalg, cli, stability
from impact_games._csv import write_csv
from impact_games.cli import ConfigError, _round_floats, main, run_experiment

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def read_strategies_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of the strategies CSV writer: (times, (M, J, N+1) array)."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, data = rows[0], np.asarray(rows[1:], dtype=float)
    labels = [name.removeprefix("asset").split("_agent") for name in header[1:]]
    n_assets = max(int(a) for a, _ in labels)
    n_agents = max(int(j) for _, j in labels)
    strategies = np.empty((n_assets, n_agents, data.shape[0]))
    for col, (asset, agent) in enumerate(labels):
        strategies[int(asset) - 1, int(agent) - 1, :] = data[:, col + 1]
    return data[:, 0], strategies


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


MINIMAL_EQUILIBRIUM = {
    "experiment": "equilibrium",
    "grid": {"steps": 15},
    "theta": 1.0,
    "agents": [{"inventories": [1.0]}, {"inventories": [1.0]}],
}


def test_minimal_equilibrium_run(tmp_path):
    report = run_experiment(dict(MINIMAL_EQUILIBRIUM), tmp_path)
    assert report["schema_version"] == "1.0"
    assert report["config"]["sigma"] == "equal_to_Q"  # defaults are materialized
    times, strategies = read_strategies_csv(tmp_path / "strategies.csv")
    assert strategies.shape == (1, 2, 16)
    assert np.allclose(strategies.sum(axis=2), [[1.0, 1.0]], atol=1e-9)
    assert (tmp_path / "report.json").exists()


def test_config_round_trip_is_bit_identical(tmp_path):
    first = run_experiment(dict(MINIMAL_EQUILIBRIUM), tmp_path / "a")
    second = run_experiment(first["config"], tmp_path / "b")
    assert first["results"] == second["results"]
    assert first["config_sha256"] == second["config_sha256"]
    assert (tmp_path / "a/strategies.csv").read_bytes() == (
        tmp_path / "b/strategies.csv"
    ).read_bytes()


def test_schema_violation_reports_the_field_path(tmp_path):
    config = dict(MINIMAL_EQUILIBRIUM, theta=-1.0)
    with pytest.raises(ConfigError) as excinfo:
        run_experiment(config, tmp_path)
    assert excinfo.value.field == "theta"


def test_cli_exit_codes(tmp_path, capsys):
    ok_path = write_config(tmp_path, MINIMAL_EQUILIBRIUM)
    assert main(["equilibrium", "--config", str(ok_path), "--out", str(tmp_path / "out")]) == 0

    bad_path = write_config(tmp_path, dict(MINIMAL_EQUILIBRIUM, theta=-1.0), "bad.json")
    capsys.readouterr()
    assert main(["equilibrium", "--config", str(bad_path), "--out", str(tmp_path / "o2")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"
    assert err["error"]["field"] == "theta"

    assert main(["equilibrium", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    # experiment mismatch between the flag and the config body
    assert main(["costs", "--config", str(ok_path), "--out", str(tmp_path / "o3")]) == 2


def with_value(config, dotted, value):
    """Copy of ``config`` with ``value`` at the dotted key (blocks made as needed)."""
    config = copy.deepcopy(config)
    *parents, last = dotted.split(".")
    block = config
    for key in parents:
        block = block[int(key)] if isinstance(block, list) else block.setdefault(key, {})
    block[int(last) if isinstance(block, list) else last] = value
    return config


SIMULATE = dict(MINIMAL_EQUILIBRIUM, experiment="simulate")
THETA_CRITICAL = {
    "experiment": "theta-critical",
    "grid": {"steps": 20},
    "cross_impact": {"family": "identity", "size": 1},
    "n_agents": 2,
}
SWEEP = {
    "experiment": "sweep",
    "grid": {"steps": 20},
    "sweep": {"points": [{"n_assets": 1, "n_agents": 2, "n_steps": 20}]},
}
SWEEP_GRID = dict(SWEEP, sweep={"grid": {"n_agents": [2]}})
# (config, dotted key, bad value, field the JSON schema of earlier versions
# reported), each in an experiment that uses the value; the field may now be
# a config block enclosing that path
SCHEMA_CONSTRAINTS = [
    (MINIMAL_EQUILIBRIUM, "grid.steps", 0, "grid.steps"),
    (MINIMAL_EQUILIBRIUM, "grid.horizon", 0, "grid.horizon"),
    (MINIMAL_EQUILIBRIUM, "kernel.rate", 0, "kernel.rate"),
    (MINIMAL_EQUILIBRIUM, "kernel.offset", -1, "kernel.offset"),
    (MINIMAL_EQUILIBRIUM, "kernel.beta", -1, "kernel.beta"),
    (MINIMAL_EQUILIBRIUM, "theta", -1, "theta"),
    (MINIMAL_EQUILIBRIUM, "gamma", -1, "gamma"),
    (MINIMAL_EQUILIBRIUM, "n_agents", 0, "n_agents"),
    (MINIMAL_EQUILIBRIUM, "priority", 1.5, "priority"),
    (MINIMAL_EQUILIBRIUM, "sigma", -1, "sigma"),
    (MINIMAL_EQUILIBRIUM, "sigma", "foo", "sigma"),
    (SIMULATE, "seed", -1, "seed"),
    (MINIMAL_EQUILIBRIUM, "agents", [], "agents"),
    (MINIMAL_EQUILIBRIUM, "agents.0.inventories", [], "agents.0.inventories"),
    (MINIMAL_EQUILIBRIUM, "agents.0.theta", -1, "agents.0.theta"),
    (MINIMAL_EQUILIBRIUM, "agents.0.scale", 0, "agents.0.scale"),
    (MINIMAL_EQUILIBRIUM, "agents.0.mask", [2], "agents.0.mask.0"),
    (SIMULATE, "simulate.fine_steps", 0, "simulate.fine_steps"),
    (SIMULATE, "simulate.horizon", 0, "simulate.horizon"),
    (SIMULATE, "simulate.initial_prices", math.nan, "simulate.initial_prices"),
    (THETA_CRITICAL, "tolerances.bisection", 0, "tolerances.bisection"),
    (SWEEP, "tolerances.bisection", -1, "tolerances.bisection"),
    (THETA_CRITICAL, "tolerances.flip", 0, "tolerances.flip"),
    (THETA_CRITICAL, "theta_critical.bracket", [0, 1, 2], "theta_critical.bracket"),
    (SWEEP, "sweep.coupling", 1.5, "sweep.coupling"),
]
# the base settings of a sweep, checked before any row runs
SWEEP_BASE = [
    (SWEEP, "gamma", -1, "gamma"),
    (SWEEP, "kernel.beta", -1, "kernel.beta"),
    (SWEEP, "grid.horizon", 0, "grid.horizon"),
]
# a wrong JSON type or an unknown key is reported at its own dotted path.
# Earlier versions accepted output.dir, ran the sweep rows past a misspelt
# axis or a fractional or boolean count, dropped a grid given with points, and
# wrote a header-only sweep.csv for an empty axis or point list. They also
# blamed a power law infinite at lag zero on the default bracket, and a
# crowding factor that underflows on no key (exit 1)
EXACT_FIELDS = [
    (MINIMAL_EQUILIBRIUM, "grid.steps", "15", "grid.steps"),
    (MINIMAL_EQUILIBRIUM, "grid.stpes", 15, "grid.stpes"),
    (MINIMAL_EQUILIBRIUM, "bogus", 15, "bogus"),
    (MINIMAL_EQUILIBRIUM, "output.dir", "out", "output"),
    (SWEEP_GRID, "sweep.grid.n_asset", [3], "sweep.grid.n_asset"),
    (SWEEP_GRID, "sweep.grid.gama", [1.0], "sweep.grid.gama"),
    (SWEEP, "sweep.points.0.n_assets", 2.7, "sweep.points.0.n_assets"),
    (SWEEP, "sweep.points.0.n_agents", True, "sweep.points.0.n_agents"),
    (SWEEP, "sweep.grid", {"n_agents": [3]}, "sweep"),
    (SWEEP_GRID, "sweep.grid.n_agents", [], "sweep.grid.n_agents"),
    (SWEEP, "sweep.points", [], "sweep.points"),
    (THETA_CRITICAL, "kernel", {"family": "power_law", "exponent": 2, "offset": 1e-300}, "kernel"),
    (MINIMAL_EQUILIBRIUM, "kernel.beta", 2000, "kernel.beta"),
]


@pytest.mark.parametrize(
    "config, field, exact",
    [(with_value(c, key, value), field, False) for c, key, value, field in SCHEMA_CONSTRAINTS]
    + [(with_value(c, key, value), field, True) for c, key, value, field in EXACT_FIELDS]
    + [(with_value(c, key, value), field, True) for c, key, value, field in SWEEP_BASE],
    ids=[f"{key}={value!r}" for _, key, value, _ in SCHEMA_CONSTRAINTS + EXACT_FIELDS]
    + [f"sweep:{key}={value!r}" for _, key, value, _ in SWEEP_BASE],
)
def test_bad_config_exits_2_and_names_its_field(tmp_path, capsys, config, field, exact):
    path = write_config(tmp_path, config)
    assert main([config["experiment"], "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "config"
    assert error["field"] == field or (not exact and field.startswith(error["field"] + "."))


def test_sweep_honours_sigma(tmp_path):
    config = {
        "experiment": "sweep",
        "grid": {"steps": 40},
        "gamma": 10.0,
        "sweep": {"points": [{"n_assets": 2, "n_agents": 3, "n_steps": 40}]},
    }

    def estimate(**changes):
        report = run_experiment(dict(config, **changes), tmp_path / json.dumps(changes))
        return report["results"]["rows"][0]["estimate"]

    assert estimate() == estimate(sigma="equal_to_Q") == 0.741279602051
    # a zero price covariance leaves no risk term: the risk-neutral estimate
    assert estimate(sigma=0) == estimate(gamma=0.0) == 0.708824157715


def test_report_arrays_round_like_each_float():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-300, 300, size=(40, 3))
    values[0] = [np.nan, np.inf, -0.0]
    values[1] = [1 / 3, 2.5e-12, 123456789.1234567]

    def reference(x):
        return None if math.isnan(x) else float(f"{x:.12g}") if math.isfinite(x) else x

    expected = [[reference(x) for x in row] for row in values.tolist()]
    assert _round_floats(values) == expected
    nested = {"a": [values[1], np.float64(1 / 3)]}
    assert _round_floats(nested) == {"a": [expected[1], expected[1][0]]}
    assert _round_floats(np.arange(3)) == [0, 1, 2] and _round_floats(np.float64(np.nan)) is None


def test_costs_experiment_outputs(tmp_path):
    config = {
        "experiment": "costs",
        "grid": {"steps": 25},
        "theta": 1.5,
        "agents": [{"inventories": [1.0]}, {"inventories": [0.0]}],
        "sigma": 0.0,
    }
    report = run_experiment(config, tmp_path)
    costs = report["results"]["expected_cost"]
    assert costs[0] == pytest.approx(0.4882, abs=5e-4)
    assert costs[1] == pytest.approx(-0.0370, abs=5e-4)
    rows = (tmp_path / "costs.csv").read_text().strip().splitlines()
    assert rows[0] == "agent,expected_cost,variance,mean_variance"
    assert len(rows) == 3


def test_theta_critical_experiment(tmp_path):
    config = {
        "experiment": "theta-critical",
        "grid": {"steps": 50},
        "cross_impact": {"family": "identity", "size": 1},
        "n_agents": 2,
        "tolerances": {"bisection": 1e-4},
    }
    report = run_experiment(config, tmp_path)
    result = report["results"]
    assert result["estimate"] == pytest.approx(0.25, abs=0.01)
    assert result["method"] == "bisect"
    assert result["predicted_conjecture"] == pytest.approx(0.25)
    trace = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "theta,unstable"
    assert len(trace) == result["n_probes"] + 1


def test_cli_tol_flag_overrides_config(tmp_path):
    config = {
        "experiment": "theta-critical",
        "grid": {"steps": 50},
        "cross_impact": {"family": "identity", "size": 1},
        "n_agents": 2,
    }
    path = write_config(tmp_path, config)
    assert main(
        ["theta-critical", "--config", str(path), "--out", str(tmp_path / "out"), "--tol", "0.05"]
    ) == 0
    report = json.loads((tmp_path / "out/report.json").read_text())
    lo, hi = report["results"]["bracket"]
    assert hi - lo <= 0.05
    assert report["config"]["tolerances"]["bisection"] == 0.05


def test_tol_flag_on_a_non_object_tolerances_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, dict(THETA_CRITICAL, tolerances=5))
    out = str(tmp_path / "out")
    assert main(["theta-critical", "--config", str(path), "--out", out, "--tol", "0.01"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "config" and error["field"] == "tolerances"


def test_sweep_isolates_row_errors(tmp_path):
    config = {
        "experiment": "sweep",
        "grid": {"steps": 40},
        "gamma": 10.0,
        "sweep": {
            "points": [
                {"n_assets": 1, "n_agents": 2, "n_steps": 40},
                {"n_assets": 1, "n_agents": 3, "n_steps": 40},
                {"n_assets": 2, "n_agents": 2, "n_steps": 40},
                {"n_assets": 2, "n_agents": 3, "n_steps": 40},
                {"n_assets": 1, "n_agents": 2, "n_steps": 0},
                {"n_assets": 3, "n_agents": 2, "n_steps": 40},
            ]
        },
    }
    report = run_experiment(config, tmp_path)
    rows = report["results"]["rows"]
    assert len(rows) == 6
    failures = [row for row in rows if row["error"]]
    assert len(failures) == 1
    assert report["warnings"]
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 7


def test_sweep_grid_expansion(tmp_path):
    config = {
        "experiment": "sweep",
        "grid": {"steps": 30},
        "gamma": 10.0,
        "sweep": {"grid": {"n_agents": [2, 3], "n_steps": [30], "n_assets": [1, 2]}},
    }
    report = run_experiment(config, tmp_path)
    assert len(report["results"]["rows"]) == 4


def test_sweep_rows_default_to_the_grid_steps(tmp_path):
    config = {
        "experiment": "sweep",
        "grid": {"steps": 20},
        "sweep": {
            "points": [
                {"n_assets": 1, "n_agents": 2},
                {"n_assets": 1, "n_agents": 2, "n_steps": 30},
            ]
        },
    }
    report = run_experiment(config, tmp_path)
    assert [row["params"]["n_steps"] for row in report["results"]["rows"]] == [20, 30]
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert [line.split(",")[2] for line in lines] == ["n_steps", "20", "30"]


def test_simulate_experiment_is_seed_deterministic(tmp_path):
    config = {
        "experiment": "simulate",
        "grid": {"steps": 20},
        "theta": 1.5,
        "agents": [{"inventories": [1.0]}, {"inventories": [1.0]}],
        "sigma": 1.0,
        "seed": 9,
        "simulate": {"fine_steps": 5, "horizon": 1.5, "initial_prices": 100.0},
    }
    run_experiment(dict(config), tmp_path / "a")
    run_experiment(dict(config), tmp_path / "b")
    assert (tmp_path / "a/path.csv").read_bytes() == (tmp_path / "b/path.csv").read_bytes()
    report = json.loads((tmp_path / "a/report.json").read_text())
    assert report["results"]["seed"] == 9
    assert "generator" in report["results"]


def test_seed_flag_overrides_the_config_seed(tmp_path, capsys):
    config = SCRIPTS / "configs" / "price_simulation.json"
    assert json.loads(config.read_text())["seed"] == 1
    for seed, out in ((None, "own"), (3, "flag")):
        flag = [] if seed is None else ["--seed", str(seed)]
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / out)]
        assert main(argv + flag) == 0
    report = json.loads((tmp_path / "flag/report.json").read_text())
    assert report["config"]["seed"] == 3 and report["results"]["seed"] == 3
    assert (tmp_path / "flag/path.csv").read_bytes() != (tmp_path / "own/path.csv").read_bytes()


def test_negative_bracket_is_a_config_error(tmp_path, capsys):
    config = with_value(THETA_CRITICAL, "theta_critical.bracket", [-1, 1])
    argv = ["theta-critical", "--config", str(write_config(tmp_path, config))]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "config" and error["field"] == "theta_critical.bracket"


def test_one_agent_without_a_bracket_is_a_bracket_error(tmp_path, capsys):
    config = dict(THETA_CRITICAL, n_agents=1)
    argv = ["theta-critical", "--config", str(write_config(tmp_path, config))]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "bracket" and "no default bracket" in error["message"]


@pytest.mark.parametrize(
    "key, value", [("initial_prices", [1.0, 2.0]), ("fine_steps", 0), ("horizon", 0.5)]
)
def test_a_bad_simulate_setting_is_reported_at_its_key(tmp_path, capsys, key, value):
    # one asset, so two initial prices do not broadcast; the trading horizon is 1
    config = with_value(SIMULATE, f"simulate.{key}", value)
    argv = ["simulate", "--config", str(write_config(tmp_path, config))]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "config" and error["field"] == f"simulate.{key}"
    assert error["message"].startswith(f"simulate.{key}: {key} must ")


def test_missing_required_key_exits_2_at_that_key(tmp_path, capsys):
    config = {key: value for key, value in MINIMAL_EQUILIBRIUM.items() if key != "grid"}
    argv = ["equilibrium", "--config", str(write_config(tmp_path, config))]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"type": "config", "message": "grid: missing required key", "field": "grid"}


def test_a_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    argv = ["equilibrium", "--config", str(write_config(tmp_path, [MINIMAL_EQUILIBRIUM]))]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"type": "config", "message": "config must be a JSON object"}


def test_run_experiment_rejects_an_unknown_experiment(tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        run_experiment(dict(MINIMAL_EQUILIBRIUM, experiment="bogus"), tmp_path)
    assert excinfo.value.field == "experiment"
    assert not (tmp_path / "report.json").exists()


def test_a_kernel_that_underflows_on_the_grid_fails_alike_in_equilibrium_and_costs(
    tmp_path, capsys
):
    # exp(-1e5) is zero at the largest lag of 10 steps; the banded closed form forms no matrix
    config = with_value(MINIMAL_EQUILIBRIUM, "kernel", {"family": "exponential", "rate": 1e5})
    config = with_value(config, "grid.steps", 10)
    errors = []
    for experiment in ("equilibrium", "costs"):
        path = write_config(tmp_path, dict(config, experiment=experiment), f"{experiment}.json")
        code = main([experiment, "--config", str(path), "--out", str(tmp_path / experiment)])
        errors.append((code, json.loads(capsys.readouterr().err)["error"]))
    assert errors[0] == errors[1]
    assert errors[0][0] == 2 and "strictly positive on the sampled lags" in errors[0][1]["message"]


def test_agents_with_different_fees_have_no_critical_fee(tmp_path, capsys):
    config = {key: value for key, value in THETA_CRITICAL.items() if key != "n_agents"}
    config["agents"] = [{"inventories": [1.0], "theta": 0.5}, {"inventories": [1.0], "theta": 1.0}]
    argv = ["theta-critical", "--config", str(write_config(tmp_path, config))]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "domain" and "identical agents" in error["message"]


def test_a_singular_stacked_system_exits_1_with_its_condition(tmp_path, capsys):
    # a tiny impact, no fee and no variance leave the unequal agents' system singular
    config = dict(
        MINIMAL_EQUILIBRIUM,
        theta=0.0,
        sigma=0.0,
        cross_impact={"family": "explicit", "matrix": [[1e-13]]},
        agents=[{"inventories": [1.0]}, {"inventories": [1.0], "scale": 0.5}],
    )
    argv = ["equilibrium", "--config", str(write_config(tmp_path, config))]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "numeric"
    condition = float(error["message"].rsplit("condition number ", 1)[1].rstrip(")"))
    assert condition > _linalg.MAX_CONDITION


def test_payoff_matrix_experiment(tmp_path):
    config = {
        "experiment": "payoff-matrix",
        "grid": {"steps": 10},
        "theta": 1.5,
        "cross_impact": {"family": "one_factor", "n_assets": 2, "coupling": 0.6},
        "agents": [
            {"inventories": [1.0, 0.0], "mask_options": [[1, 0], [1, 1]]},
            {"inventories": [0.0, 0.0], "mask_options": [[1, 0], [1, 1]]},
        ],
    }
    report = run_experiment(config, tmp_path)
    costs = np.asarray(report["results"]["costs"])
    assert costs.shape == (2, 2, 2)
    nash = np.asarray(report["results"]["nash"])
    assert nash.sum() == 1
    lines = (tmp_path / "payoff.csv").read_text().strip().splitlines()
    assert len(lines) == 5


THREE_AGENT_PAYOFF = {
    "experiment": "payoff-matrix",
    "grid": {"steps": 10},
    "cross_impact": {"family": "one_factor", "n_assets": 3, "coupling": 0.5},
    "agents": [
        {
            "inventories": [inventory, 0.0, 0.0],
            "theta": theta,
            "mask_options": [[1, 0, 0], [1, 1, 0], [1, 1, 1]],
        }
        for inventory, theta in [(1.0, 0.4), (-0.5, 0.8), (0.0, 1.2)]
    ],
}


def assert_payoff_csv_matches_the_report(out):
    """Every payoff.csv row against report.json: options, costs to 12 digits, Nash flag."""
    results = json.loads((out / "report.json").read_text())["results"]
    with open(out / "payoff.csv", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    shape = [len(per_agent) for per_agent in results["mask_options"]]
    assert header[-1] == "nash" and len(header) == 2 * len(shape) + 1
    assert len(rows) == math.prod(shape)
    for row, combo in zip(rows, itertools.product(*(range(k) for k in shape))):
        costs, nash = results["costs"], results["nash"]
        for option in combo:
            costs, nash = costs[option], nash[option]
        assert row[: len(shape)] == [str(option + 1) for option in combo]
        assert row[len(shape) : -1] == ["nan" if x is None else f"{x:.12g}" for x in costs]
        assert row[-1] == str(nash)


@pytest.mark.parametrize("name", ["shipped", "three_agents"])
def test_payoff_csv_rows_match_the_report(name, tmp_path):
    path = SCRIPTS / "configs" / "payoff_matrix_two_assets.json"
    config = json.loads(path.read_text()) if name == "shipped" else THREE_AGENT_PAYOFF
    run_experiment(config, tmp_path)
    assert_payoff_csv_matches_the_report(tmp_path)


def test_shipped_payoff_config_reproduces_the_venue_choice_table(tmp_path):
    path = SCRIPTS / "configs" / "payoff_matrix_two_assets.json"
    results = run_experiment(json.loads(path.read_text()), tmp_path)["results"]
    for (seller, idle), printed in VENUE_CHOICE_COSTS.items():
        for agent, value in enumerate(printed):
            assert_matches_printed(results["costs"][seller][idle][agent], value)
    assert results["nash"] == [[0, 0], [0, 1]]


def test_nan_payoff_cost_is_null_in_the_report(tmp_path, monkeypatch):
    payoff_matrix = cli.payoff_matrix

    def with_nan(*args):
        table = payoff_matrix(*args)
        costs = table.costs.copy()
        costs[1, 2, 0, 1] = np.nan
        return dataclasses.replace(table, costs=costs)

    monkeypatch.setattr(cli, "payoff_matrix", with_nan)
    results = run_experiment(THREE_AGENT_PAYOFF, tmp_path)["results"]
    assert results["costs"][1][2][0][1] is None and results["costs"][1][2][0][0] is not None
    assert_payoff_csv_matches_the_report(tmp_path)


def test_heterogeneous_config_dispatches_to_the_stacked_solver(tmp_path):
    config = {
        "experiment": "costs",
        "grid": {"steps": 15},
        "agents": [
            {"inventories": [1.0], "theta": 1.0},
            {"inventories": [1.0], "theta": 0.5},
        ],
        "sigma": 0.0,
    }
    report = run_experiment(config, tmp_path)
    costs = report["results"]["expected_cost"]
    assert costs[0] == pytest.approx(0.8286, abs=5e-4)
    assert costs[1] == pytest.approx(0.7317, abs=5e-4)

    with pytest.raises(ConfigError, match="identical agents"):
        run_experiment(dict(config, gamma=2.0), tmp_path / "x")


def test_game_the_spec_rejects_is_a_config_error(tmp_path, capsys):
    # inventory on an asset the first agent cannot trade
    config = dict(MINIMAL_EQUILIBRIUM, cross_impact={"family": "identity", "size": 2})
    config["agents"] = [
        {"inventories": [1.0, 0.5], "mask": [1, 0]},
        {"inventories": [1.0, 0.0]},
    ]
    path = write_config(tmp_path, config)
    assert main(["equilibrium", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "config" and "untradable" in error["message"]


def test_sweep_tol_flag_sets_each_rows_relative_bracket_width(tmp_path, monkeypatch):
    config = {
        "experiment": "sweep",
        "grid": {"steps": 40},
        "gamma": 10.0,
        "sweep": {"points": [{"n_assets": 2, "n_agents": 3, "n_steps": 40}]},
    }
    path = write_config(tmp_path, config)
    brackets = []
    critical = stability.critical_theta

    def recording(*args, **kwargs):
        report = critical(*args, **kwargs)
        brackets.append(report.bracket)
        return report

    monkeypatch.setattr(stability, "critical_theta", recording)
    widths = {}
    for tol in (1e-6, 0.05):
        out = tmp_path / f"out{tol}"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--tol", str(tol)]) == 0
        (row,) = json.loads((out / "report.json").read_text())["results"]["rows"]
        lo, hi = brackets[-1]
        assert hi - lo <= tol * row["predicted"]
        widths[tol] = hi - lo
    assert widths[0.05] > 1e3 * widths[1e-6]


def test_csv_writer_formats_floats_only(tmp_path):
    write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"], [[1, np.float64(1 / 3), "x", None]])
    assert (tmp_path / "t.csv").read_text().splitlines() == ["a,b,c,d", "1,0.333333333333,x,"]


# four sellers sharing a total inventory of 4, from an equal split to one
# dominant seller
INVENTORY_SPLITS = {
    "equal": [1.0, 1.0, 1.0, 1.0],
    "one_small": [0.5, 7 / 6, 7 / 6, 7 / 6],
    "one_tiny": [0.1, 1.3, 1.3, 1.3],
    "one_dominant": [3.7, 0.1, 0.1, 0.1],
}


def split_strategies(name, out):
    """Strategies of the four sellers of one split: 16 points, stiff fee 10."""
    config = {
        "experiment": "equilibrium",
        "grid": {"steps": 15},
        "theta": 10.0,
        "agents": [{"inventories": [share]} for share in INVENTORY_SPLITS[name]],
    }
    run_experiment(config, out)
    return read_strategies_csv(out / "strategies.csv")


@pytest.mark.parametrize("name", INVENTORY_SPLITS)
def test_inventory_split_writes_conserving_strategies(name, tmp_path):
    times, strategies = split_strategies(name, tmp_path)
    assert strategies.shape == (1, 4, 16) and times[-1] == 1.0
    assert np.allclose(strategies.sum(axis=2), [INVENTORY_SPLITS[name]], atol=1e-10)


def test_smallest_seller_front_loads_more_as_its_share_shrinks(tmp_path):
    # first order as a fraction of the smallest seller's inventory: about
    # 0.116, 0.180 and 0.690 for these splits
    front_loads = []
    for name in ("equal", "one_small", "one_tiny"):
        _, strategies = split_strategies(name, tmp_path / name)
        smallest = int(np.argmin(INVENTORY_SPLITS[name]))
        front_loads.append(strategies[0, smallest, 0] / INVENTORY_SPLITS[name][smallest])
    assert front_loads[0] < front_loads[1] < front_loads[2]


CONFIGS = sorted((SCRIPTS / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=[path.stem for path in CONFIGS])
def test_shipped_configs_run(path, tmp_path):
    config = json.loads(path.read_text())
    report = run_experiment(config, tmp_path)
    assert json.loads((tmp_path / "report.json").read_text()) == json.loads(json.dumps(report))
    assert report["experiment"] == config["experiment"] and report["warnings"] == []
    results = report["results"]
    for name in results["files"].values():
        assert (tmp_path / name).stat().st_size > 0
    if config["experiment"] == "theta-critical":
        lo, hi = results["bracket"]
        assert results["method"] == "bisect" and lo <= results["estimate"] <= hi
        assert hi - lo <= report["config"]["tolerances"]["bisection"]
    if config["experiment"] == "sweep":
        assert all(row["error"] is None for row in results["rows"])


def test_theta_critical_base_probes_by_the_banded_path(tmp_path):
    path = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "theta_critical_base.json"
    results = run_experiment(json.loads(path.read_text()), tmp_path)["results"]
    # one principal asset with an exponential kernel: two banded solves per
    # probe and for the final check, which certifies both profiles
    assert results["solve_paths"] == {
        "banded": 2 * (results["n_probes"] + 1),
        "levinson": 0,
        "triangular": 0,
        "dense": 0,
        "shifted": 0,
        "certified": 2,
        "all_groups": 0,
        "rebisect": 0,
    }
