"""Config-driven experiment runner with JSON/CSV outputs.

Subcommands: equilibrium, costs, payoff-matrix, theta-critical, sweep,
simulate. Every run reads one JSON config, writes ``report.json`` (schema
version, echoed config with defaults filled, config hash, results, warnings)
plus experiment-specific CSV files into the output directory. Set the
``IMPACT_GAMES_LOG`` environment variable (debug/info/warning) for progress
logging.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._linalg import NumericError
from .costs import cost_report
from .cross_impact import build_cross_impact
from .equilibrium import GameSpec
from .hetero import payoff_matrix, solve
from .kernels import exponential_kernel, make_equidistant_grid, power_law_kernel
from .simulate import simulate_price, write_price_csv
from .stability import BracketError, SweepBase, critical_theta, stability_sweep

logger = logging.getLogger("impact_games")

SCHEMA_VERSION = "1.0"
EXPERIMENTS = ("equilibrium", "costs", "payoff-matrix", "theta-critical", "sweep", "simulate")

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["experiment", "grid"],
    "additionalProperties": False,
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "grid": {
            "type": "object",
            "required": ["steps"],
            "additionalProperties": False,
            "properties": {
                "steps": {"type": "integer", "minimum": 1},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "kernel": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "family": {"enum": ["exponential", "power_law"]},
                "rate": {"type": "number", "exclusiveMinimum": 0},
                "exponent": {"type": "number", "exclusiveMinimum": 0},
                "offset": {"type": "number", "exclusiveMinimum": 0},
                "scale": {"type": "number", "exclusiveMinimum": 0},
                "beta": {"type": "number", "minimum": 0},
            },
        },
        "cross_impact": {
            "type": "object",
            "required": ["family"],
            "properties": {"family": {"type": "string"}},
        },
        "agents": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["inventories"],
                "additionalProperties": False,
                "properties": {
                    "inventories": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                    "theta": {"type": "number", "minimum": 0},
                    "scale": {"type": "number", "exclusiveMinimum": 0},
                    "mask": {"type": "array", "items": {"type": "integer", "enum": [0, 1]}},
                    "mask_options": {
                        "type": "array",
                        "items": {"type": "array", "items": {"type": "integer", "enum": [0, 1]}},
                        "minItems": 1,
                    },
                },
            },
        },
        "n_agents": {"type": "integer", "minimum": 1},
        "theta": {"type": "number", "minimum": 0},
        "gamma": {"type": "number", "minimum": 0},
        "priority": {
            "anyOf": [
                {"type": "number", "minimum": 0, "maximum": 1},
                {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
            ]
        },
        "sigma": {
            "anyOf": [
                {"const": "equal_to_Q"},
                {"type": "number", "minimum": 0},
                {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
            ]
        },
        "seed": {"type": "integer", "minimum": 0},
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "bisection": {"type": "number", "exclusiveMinimum": 0},
                "flip": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "theta_critical": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "bracket": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 2,
                    "maxItems": 2,
                }
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "points": {"type": "array", "items": {"type": "object"}},
                "grid": {"type": "object"},
                "coupling": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
        },
        "simulate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "fine_steps": {"type": "integer", "minimum": 1},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "initial_prices": {
                    "anyOf": [
                        {"type": "number"},
                        {"type": "array", "items": {"type": "number"}},
                    ]
                },
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"dir": {"type": "string"}},
        },
    },
}


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


def _validate_schema(config: dict) -> None:
    import jsonschema

    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        path = ".".join(str(part) for part in first.absolute_path) or "<root>"
        raise ConfigError(first.message, field=path)


def _normalize_config(config: dict) -> dict:
    """Fill defaults so the echoed config reruns identically."""
    cfg = json.loads(json.dumps(config))  # deep copy, JSON types only
    cfg.setdefault("grid", {}).setdefault("horizon", 1.0)
    kernel = cfg.setdefault("kernel", {})
    kernel.setdefault("family", "exponential")
    if kernel["family"] == "exponential":
        kernel.setdefault("rate", 1.0)
    else:
        kernel.setdefault("exponent", 1.0)
        kernel.setdefault("offset", 1.0)
    kernel.setdefault("scale", 1.0)
    kernel.setdefault("beta", 0.0)
    cfg.setdefault("theta", 0.0)
    cfg.setdefault("gamma", 0.0)
    cfg.setdefault("priority", 0.5)
    cfg.setdefault("sigma", "equal_to_Q")
    cfg.setdefault("seed", 0)
    tol = cfg.setdefault("tolerances", {})
    tol.setdefault("bisection", 1e-4)
    tol.setdefault("flip", 1e-9)
    if "agents" in cfg:
        n_assets = len(cfg["agents"][0]["inventories"])
        cfg.setdefault("cross_impact", {"family": "identity", "size": n_assets})
    if "n_agents" not in cfg and "agents" in cfg:
        cfg["n_agents"] = len(cfg["agents"])
    return cfg


def _kernel_from_config(cfg: dict):
    spec = cfg["kernel"]
    if spec["family"] == "exponential":
        return exponential_kernel(rate=spec["rate"], scale=spec["scale"])
    return power_law_kernel(
        exponent=spec["exponent"], offset=spec["offset"], scale=spec["scale"]
    )


def _cross_impact_from_config(cfg: dict) -> np.ndarray:
    params = dict(cfg["cross_impact"])
    family = params.pop("family")
    try:
        return build_cross_impact(family, **params)
    except TypeError as exc:
        raise ConfigError(str(exc), field="cross_impact") from exc
    except ValueError as exc:
        raise ConfigError(str(exc), field="cross_impact") from exc


def _sigma_from_config(cfg: dict, cross: np.ndarray) -> np.ndarray:
    sigma = cfg["sigma"]
    if isinstance(sigma, str):
        return cross
    if isinstance(sigma, (int, float)):
        return float(sigma) * np.eye(cross.shape[0])
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != cross.shape:
        raise ConfigError("explicit sigma must match the cross-impact shape", field="sigma")
    return sigma


def _per_asset_columns(agents: list, key: str, n_assets: int, default=None) -> np.ndarray:
    """(n_assets, n_agents) array of each agent's per-asset ``key`` list."""
    rows = [agent.get(key, default) for agent in agents]
    for idx, row in enumerate(rows):
        if len(row) != n_assets:
            raise ConfigError(
                f"expected {n_assets} per-asset entries, got {len(row)}",
                field=f"agents.{idx}.{key}",
            )
    return np.array(rows).T


def _game_spec_from_config(cfg: dict) -> GameSpec:
    """Build the game a config describes; the spec's ValueErrors become ConfigErrors.

    A theta-critical config may give ``n_agents`` in place of the agents
    array; every other experiment needs the agents.
    """
    if "cross_impact" not in cfg:
        raise ConfigError("this experiment needs a cross_impact block", field="cross_impact")
    cross = _cross_impact_from_config(cfg)
    agents = cfg.get("agents")
    if agents is not None:
        n_assets = cross.shape[0]
        players = {
            "inventories": _per_asset_columns(agents, "inventories", n_assets).astype(float),
            "theta": [agent.get("theta", cfg["theta"]) for agent in agents],
            "scales": [agent.get("scale", 1.0) for agent in agents],
            "mask": _per_asset_columns(agents, "mask", n_assets, [1] * n_assets),
        }
    elif cfg["experiment"] == "theta-critical" and "n_agents" in cfg:
        players = {"n_agents": cfg["n_agents"], "theta": cfg["theta"]}
    else:
        raise ConfigError("this experiment needs an agents array", field="agents")
    grid = make_equidistant_grid(cfg["grid"]["steps"], cfg["grid"]["horizon"])
    kernel = _kernel_from_config(cfg)
    sigma = _sigma_from_config(cfg, cross)
    try:
        return GameSpec(
            grid=grid,
            kernel=kernel,
            cross_impact=cross,
            gamma=cfg["gamma"],
            beta=cfg["kernel"]["beta"],
            covariance=sigma,
            priority=cfg["priority"],
            **players,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _round_floats(value, digits: int = 12):
    """Round every float to the given number of significant digits."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float(f"{value:.{digits}g}")
        return None if math.isnan(value) else value
    if isinstance(value, dict):
        return {key: _round_floats(item, digits) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(item, digits) for item in value]
    if isinstance(value, np.generic):
        return _round_floats(value.item(), digits)
    if isinstance(value, np.ndarray):
        return _round_floats(value.tolist(), digits)
    return value


def _write_csv(path: Path, header: list, rows) -> None:
    """CSV with floats written to 12 significant digits, ints and strings as they are."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(f"{value:.12g}" if isinstance(value, float) else value for value in row)


def _write_strategies_csv(path: Path, grid_points: np.ndarray, strategies: np.ndarray) -> None:
    n_assets, n_agents, _ = strategies.shape
    pairs = [(i, j) for i in range(n_assets) for j in range(n_agents)]
    _write_csv(
        path,
        ["time"] + [f"asset{i + 1}_agent{j + 1}" for i, j in pairs],
        ([t] + [strategies[i, j, k] for i, j in pairs] for k, t in enumerate(grid_points)),
    )


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


def _run_equilibrium(cfg: dict, out: Path) -> dict:
    spec = _game_spec_from_config(cfg)
    eq = solve(spec)
    _write_strategies_csv(out / "strategies.csv", spec.grid.points, eq.strategies)
    return {
        "n_assets": spec.n_assets,
        "n_agents": spec.n_agents,
        "eigenvalues": eq.spectrum.eigenvalues,
        "totals": eq.totals(),
        "inventories": spec.inventories,
        "files": {"strategies": "strategies.csv"},
    }


def _run_costs(cfg: dict, out: Path) -> dict:
    spec = _game_spec_from_config(cfg)
    eq = solve(spec)
    report = cost_report(spec, eq.strategies)
    _write_strategies_csv(out / "strategies.csv", spec.grid.points, eq.strategies)
    _write_csv(
        out / "costs.csv",
        ["agent", "expected_cost", "variance", "mean_variance"],
        zip(range(1, spec.n_agents + 1), report.expected, report.variance, report.mean_variance),
    )
    return {
        "expected_cost": report.expected,
        "variance": report.variance,
        "mean_variance": report.mean_variance,
        "files": {"strategies": "strategies.csv", "costs": "costs.csv"},
    }


def _run_payoff_matrix(cfg: dict, out: Path) -> dict:
    spec = _game_spec_from_config(cfg)
    options = []
    for j, agent in enumerate(cfg["agents"]):
        if "mask_options" not in agent:
            raise ConfigError("payoff-matrix needs mask_options", f"agents.{j}.mask_options")
        options.append([np.asarray(mask, dtype=bool) for mask in agent["mask_options"]])
    table = payoff_matrix(spec, options)
    combos = itertools.product(*(range(len(per)) for per in options))
    _write_csv(
        out / "payoff.csv",
        [f"option_agent{j + 1}" for j in range(spec.n_agents)]
        + [f"cost_agent{j + 1}" for j in range(spec.n_agents)]
        + ["nash"],
        (
            [c + 1 for c in combo] + list(table.costs[combo]) + [int(table.equilibrium[combo])]
            for combo in combos
        ),
    )
    return {
        "mask_options": [[mask.astype(int) for mask in per] for per in table.mask_options],
        "costs": table.costs,
        "nash": table.equilibrium.astype(int),
        "files": {"payoff": "payoff.csv"},
    }


def _run_theta_critical(cfg: dict, out: Path, warnings: list) -> dict:
    spec = _game_spec_from_config(cfg)
    bracket = cfg.get("theta_critical", {}).get("bracket")
    report = critical_theta(
        spec,
        bracket=tuple(bracket) if bracket else None,
        tol=cfg["tolerances"]["bisection"],
        rel_tol=cfg["tolerances"]["flip"],
    )
    if report.method == "scan":
        warnings.append("bisection verdicts were not monotone; estimate comes from a grid scan")
    _write_csv(
        out / "trace.csv",
        ["theta", "unstable"],
        ((theta, int(unstable)) for theta, unstable in report.trace),
    )
    return {
        "estimate": report.estimate,
        "bracket": list(report.bracket),
        "method": report.method,
        "predicted_theorem": report.predicted_theorem,
        "predicted_conjecture": report.predicted_conjecture,
        "n_probes": len(report.trace),
        "solve_paths": report.solve_paths,
        "params": report.params,
        "files": {"trace": "trace.csv"},
    }


def _run_sweep(cfg: dict, out: Path, warnings: list) -> dict:
    sweep_cfg = cfg.get("sweep", {})
    if "points" in sweep_cfg:
        points = sweep_cfg["points"]
    elif "grid" in sweep_cfg:
        axes = sweep_cfg["grid"]
        keys = list(axes)
        points = [dict(zip(keys, combo)) for combo in itertools.product(*(axes[k] for k in keys))]
    else:
        raise ConfigError("sweep needs either points or grid", "sweep")
    base = SweepBase(
        kernel=_kernel_from_config(cfg),
        horizon=cfg["grid"]["horizon"],
        coupling=sweep_cfg.get("coupling", 0.5),
        gamma=cfg["gamma"],
        beta=cfg["kernel"]["beta"],
        rel_tol=cfg["tolerances"]["bisection"],
        flip_tol=cfg["tolerances"]["flip"],
    )
    rows = stability_sweep(points, base)
    failed = [row for row in rows if row.error]
    if failed:
        warnings.append(f"{len(failed)} of {len(rows)} sweep rows failed; see the rows")
    _write_csv(
        out / "sweep.csv",
        ["n_assets", "n_agents", "n_steps", "gamma", "beta"]
        + ["estimate", "predicted", "rel_discrepancy", "method", "error"],
        (
            [int(row.params[key]) for key in ("n_assets", "n_agents", "n_steps")]
            + [row.params["gamma"], row.params["beta"], row.estimate, row.predicted]
            + [row.rel_discrepancy, row.method, row.error]
            for row in rows
        ),
    )
    return {
        "rows": [
            {
                "params": row.params,
                "estimate": row.estimate,
                "predicted": row.predicted,
                "rel_discrepancy": row.rel_discrepancy,
                "method": row.method,
                "error": row.error,
            }
            for row in rows
        ],
        "files": {"sweep": "sweep.csv"},
    }


def _run_simulate(cfg: dict, out: Path) -> dict:
    spec = _game_spec_from_config(cfg)
    eq = solve(spec)
    sim_cfg = cfg.get("simulate", {})
    path = simulate_price(
        spec,
        eq.strategies,
        initial_prices=sim_cfg.get("initial_prices", 0.0),
        fine_steps=sim_cfg.get("fine_steps", 10),
        horizon=sim_cfg.get("horizon"),
        seed=cfg["seed"],
    )
    _write_strategies_csv(out / "strategies.csv", spec.grid.points, eq.strategies)
    write_price_csv(path, out / "path.csv")
    return {
        "seed": path.seed,
        "generator": path.generator,
        "n_times": int(path.times.size),
        "final_drift": path.drift[-1],
        "files": {"strategies": "strategies.csv", "path": "path.csv"},
    }


def run_experiment(config: dict, out_dir) -> dict:
    """Validate, dispatch, and write the run report; returns the report."""
    _validate_schema(config)
    cfg = _normalize_config(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    warnings: list[str] = []
    started = time.perf_counter()
    experiment = cfg["experiment"]
    logger.info("running %s experiment into %s", experiment, out)
    runners = {
        "equilibrium": lambda: _run_equilibrium(cfg, out),
        "costs": lambda: _run_costs(cfg, out),
        "payoff-matrix": lambda: _run_payoff_matrix(cfg, out),
        "theta-critical": lambda: _run_theta_critical(cfg, out, warnings),
        "sweep": lambda: _run_sweep(cfg, out, warnings),
        "simulate": lambda: _run_simulate(cfg, out),
    }
    results = runners[experiment]()
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    report = {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "experiment": experiment,
        "config": cfg,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "wall_clock_seconds": time.perf_counter() - started,
        "results": _round_floats(results),
        "warnings": warnings,
    }
    with open(out / "report.json", "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impact-games",
        description="Market impact game experiments: equilibria, costs, stability, simulation.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        cmd = sub.add_parser(name, help=f"run a {name} experiment from a JSON config")
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default="out", help="output directory (default: ./out)")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument(
            "--tol", type=float, default=None, help="override the bisection tolerance"
        )
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("IMPACT_GAMES_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = _build_parser().parse_args(argv)

    def fail(exc, kind: str, code: int) -> int:
        payload = {"error": {"type": kind, "message": str(exc)}}
        if isinstance(exc, ConfigError) and exc.field:
            payload["error"]["field"] = exc.field
        print(json.dumps(payload), file=sys.stderr)
        return code

    try:
        with open(args.config) as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return fail(exc, "config", 2)
    if not isinstance(config, dict):
        return fail(ConfigError("config must be a JSON object"), "config", 2)
    if config.get("experiment", args.experiment) != args.experiment:
        return fail(
            ConfigError(
                f"config is for {config.get('experiment')!r}, invoked as {args.experiment!r}",
                field="experiment",
            ),
            "config",
            2,
        )
    config["experiment"] = args.experiment
    if args.seed is not None:
        config["seed"] = args.seed
    if args.tol is not None:
        config.setdefault("tolerances", {})["bisection"] = args.tol

    try:
        report = run_experiment(config, args.out)
    except ConfigError as exc:
        return fail(exc, "config", 2)
    except BracketError as exc:
        return fail(exc, "bracket", 1)
    except NumericError as exc:
        return fail(exc, "numeric", 1)
    except ValueError as exc:
        return fail(exc, "domain", 1)
    print(json.dumps({"out": str(args.out), "config_sha256": report["config_sha256"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
