"""Config-driven experiment runner with JSON/CSV outputs.

Subcommands: equilibrium, costs, payoff-matrix, theta-critical, sweep,
simulate. Every run reads one JSON config, writes ``report.json`` (schema
version, echoed config with defaults filled, config hash, results, warnings)
plus experiment-specific CSV files into the output directory. Set the
``IMPACT_GAMES_LOG`` environment variable (debug/info/warning) for progress
logging.

A config is checked in two steps. One walk of :data:`CONFIG_KEYS` rejects an
unknown key, a missing required key and a value of the wrong JSON type, and
fills in the defaults. Ranges are left to the library calls that use each
value, and their ValueErrors come back as a :class:`ConfigError` naming the
config path that fed the call. Either way the command exits with code 2.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import itertools
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from ._csv import write_csv, write_strategies_csv
from ._linalg import NumericError
from .costs import cost_report
from .cross_impact import build_cross_impact, price_covariance
from .equilibrium import GameSpec
from .hetero import payoff_matrix, solve
from .kernels import DecayKernel, make_equidistant_grid
from .simulate import simulate_price, write_price_csv
from .stability import BracketError, SweepBase, critical_theta, stability_sweep

logger = logging.getLogger("impact_games")

SCHEMA_VERSION = "1.0"
EXPERIMENTS = ("equilibrium", "costs", "payoff-matrix", "theta-critical", "sweep", "simulate")

_REQUIRED = object()


def _identity_for_agents(cfg: dict):
    """Default cross impact: the identity over the first agent's assets."""
    if cfg.get("agents"):
        return {"family": "identity", "size": len(cfg["agents"][0]["inventories"])}
    return None


# Every config key as a dotted pattern, "*" standing for each item of an
# array and for any other key of an object, with the JSON types its value may
# have ("|" between alternatives, "[]" for an array of that type) and its
# default. A callable default is computed from the enclosing block, and None
# means no default. An object without keys listed here is free-form. Defaults
# are filled in this order, which fixes the key order of the echoed config.
CONFIG_KEYS = {
    "": ("object", _REQUIRED),
    "experiment": ("string", _REQUIRED),
    "grid": ("object", _REQUIRED),
    "grid.steps": ("integer", _REQUIRED),
    "grid.horizon": ("number", 1.0),
    "kernel": ("object", {}),
    "kernel.family": ("string", "exponential"),
    "kernel.rate": ("number", lambda kernel: 1.0 if kernel["family"] == "exponential" else None),
    "kernel.exponent": ("number", lambda kernel: 1.0 if kernel["family"] == "power_law" else None),
    "kernel.offset": ("number", lambda kernel: 1.0 if kernel["family"] == "power_law" else None),
    "kernel.scale": ("number", 1.0),
    "kernel.beta": ("number", 0.0),
    "theta": ("number", 0.0),
    "gamma": ("number", 0.0),
    "priority": ("number|number[][]", 0.5),
    "sigma": ("string|number|number[][]", "equal_to_Q"),
    "seed": ("integer", 0),
    "tolerances": ("object", {}),
    "tolerances.bisection": ("number", 1e-4),
    "tolerances.flip": ("number", 1e-9),
    "cross_impact": ("object", _identity_for_agents),
    "cross_impact.family": ("string", _REQUIRED),
    "cross_impact.*": ("number|number[]|number[][]", None),
    "n_agents": ("integer", lambda cfg: len(cfg["agents"]) if "agents" in cfg else None),
    "agents": ("array", None),
    "agents.*": ("object", None),
    "agents.*.inventories": ("number[]", _REQUIRED),
    "agents.*.theta": ("number", None),
    "agents.*.scale": ("number", None),
    "agents.*.mask": ("integer[]", None),
    "agents.*.mask_options": ("integer[][]", None),
    "theta_critical": ("object", None),
    "theta_critical.bracket": ("number[]", None),
    "sweep": ("object", None),
    "sweep.points": ("object[]", None),
    "sweep.grid": ("object", None),
    "sweep.coupling": ("number", None),
    "simulate": ("object", None),
    "simulate.fine_steps": ("integer", None),
    "simulate.horizon": ("number", None),
    "simulate.initial_prices": ("number|number[]", None),
}
_CHILDREN: dict = {}
for _pattern in CONFIG_KEYS:
    if _pattern:
        _parent, _, _name = _pattern.rpartition(".")
        _CHILDREN.setdefault(_parent, []).append(_name)

_JSON_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float), "integer": int}


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


def _join(path: str, name) -> str:
    return f"{path}.{name}" if path else str(name)


def _is_json(value, json_type: str) -> bool:
    """Whether ``value`` has the JSON type ``json_type``; a bool is no number."""
    if json_type.endswith("[]"):
        return isinstance(value, list) and all(_is_json(item, json_type[:-2]) for item in value)
    return isinstance(value, _JSON_TYPES[json_type]) and not isinstance(value, bool)


def _checked(value, key: str = "", path: str = ""):
    """Check ``value`` as the CONFIG_KEYS entry ``key`` and fill its defaults in place.

    Raises ConfigError at the dotted ``path`` of a value of the wrong JSON
    type, of an unknown key and of a missing required key. Returns ``value``.
    """
    types = CONFIG_KEYS[key][0]
    if not any(_is_json(value, json_type) for json_type in types.split("|")):
        expected = types.replace("|", " or ")
        raise ConfigError(f"expected {expected}, got {value!r:.40}", path or "<root>")
    children = _CHILDREN.get(key, ())
    if isinstance(value, list) and children:
        for index, item in enumerate(value):
            _checked(item, _join(key, "*"), _join(path, index))
    elif isinstance(value, dict) and children:
        for name, item in value.items():
            if name not in children and "*" not in children:
                raise ConfigError("unknown key", _join(path, name))
            _checked(item, _join(key, name if name in children else "*"), _join(path, name))
        for name in children:
            default = CONFIG_KEYS[_join(key, name)][1]
            if name in value or default is None:
                continue
            if default is _REQUIRED:
                raise ConfigError("missing required key", _join(path, name))
            default = default(value) if callable(default) else copy.deepcopy(default)
            if default is not None:
                value[name] = _checked(default, _join(key, name), _join(path, name))
    return value


@contextmanager
def _errors_at(field: Optional[str] = None, **arguments: str):
    """Report a ValueError of the block as a ConfigError at the config path that fed it.

    An error naming one of ``arguments`` (an ``ArgumentError``) gets that
    argument's path and any other gets ``field``; with no ``field`` it passes
    unchanged, as does a BracketError.
    """
    try:
        yield
    except (BracketError, ConfigError):
        raise
    except ValueError as exc:
        path = arguments.get(getattr(exc, "argument", None), field)
        if path is None:
            raise
        raise ConfigError(str(exc), path) from exc


def _kernel_from_config(cfg: dict) -> DecayKernel:
    with _errors_at("kernel"):
        return DecayKernel(**{key: value for key, value in cfg["kernel"].items() if key != "beta"})


def _per_asset_columns(agents: list, key: str, n_assets: int, default=None) -> np.ndarray:
    """(n_assets, n_agents) array of each agent's nonempty per-asset ``key`` list."""
    rows = [agent.get(key, default) for agent in agents]
    for idx, row in enumerate(rows):
        if len(row) != n_assets or not row:
            raise ConfigError(
                f"expected {n_assets or 'at least one'} per-asset entries, got {len(row)}",
                field=f"agents.{idx}.{key}",
            )
    return np.array(rows).T


def _game_spec_from_config(cfg: dict) -> GameSpec:
    """Build the game a config describes; the spec's ValueErrors become ConfigErrors.

    A theta-critical config may give ``n_agents`` in place of the agents
    array; every other experiment needs a nonempty agents array.
    """
    agents = cfg.get("agents")
    by_count = agents is None and cfg["experiment"] == "theta-critical" and "n_agents" in cfg
    if not (agents or by_count):
        raise ConfigError("this experiment needs a nonempty agents array", field="agents")
    if "cross_impact" not in cfg:
        raise ConfigError("this experiment needs a cross_impact block", field="cross_impact")
    params = dict(cfg["cross_impact"])
    try:
        cross = build_cross_impact(params.pop("family"), **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), field="cross_impact") from exc
    players = {"n_agents": cfg["n_agents"], "theta": cfg["theta"]}
    if agents:
        n_assets = cross.shape[0]
        players.update(
            inventories=_per_asset_columns(agents, "inventories", n_assets).astype(float),
            theta=[agent.get("theta", cfg["theta"]) for agent in agents],
            scales=[agent.get("scale", 1.0) for agent in agents],
            mask=_per_asset_columns(agents, "mask", n_assets, [1] * n_assets),
        )
    kernel = _kernel_from_config(cfg)
    with _errors_at("grid"):
        grid = make_equidistant_grid(cfg["grid"]["steps"], cfg["grid"]["horizon"])
    with _errors_at("sigma"):
        covariance = price_covariance(cfg["sigma"], cross)
    fees = "agents" if any("theta" in agent for agent in agents or ()) else "theta"
    with _errors_at(
        "<root>",
        cross_impact="cross_impact",
        inventories="agents",
        n_agents="n_agents",
        theta=fees,
        gamma="gamma",
        beta="kernel.beta",
        covariance="sigma",
        scales="agents",
        priority="priority",
        mask="agents",
    ):
        return GameSpec(
            grid=grid,
            kernel=kernel,
            cross_impact=cross,
            gamma=cfg["gamma"],
            beta=cfg["kernel"]["beta"],
            covariance=covariance,
            priority=cfg["priority"],
            **players,
        )


def _round_floats(value, digits: int = 12):
    """Every float rounded to ``digits`` significant digits and NaN made None; arrays as lists."""
    if isinstance(value, dict):
        return {key: _round_floats(item, digits) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(item, digits) for item in value]
    if isinstance(value, (float, np.generic, np.ndarray)):
        array = np.asarray(value)
        if array.dtype.kind == "f":  # one pass over the values, formatted as the CSVs are
            flat = [float(f"{x:.{digits}g}") for x in array.ravel().tolist()]
            array = np.reshape(flat, array.shape)
            if np.isnan(array).any():
                array = np.where(np.isnan(array), None, array)
        return array.tolist()
    return value


def _run_equilibrium(cfg: dict, out: Path) -> dict:
    spec = _game_spec_from_config(cfg)
    eq = solve(spec)
    write_strategies_csv(out / "strategies.csv", spec.grid.points, eq.strategies)
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
    write_strategies_csv(out / "strategies.csv", spec.grid.points, eq.strategies)
    write_csv(
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
    options = [agent.get("mask_options", []) for agent in cfg["agents"]]
    with _errors_at("agents"):
        table = payoff_matrix(spec, options)
    # one row per cell, in C order: 1-based options, costs, Nash flag
    shape = table.equilibrium.shape
    labels = (np.indices(shape).reshape(len(shape), -1).T + 1).tolist()
    costs = table.costs.reshape(-1, spec.n_agents).tolist()
    flags = table.equilibrium.ravel().astype(int).tolist()
    write_csv(
        out / "payoff.csv",
        [f"option_agent{j + 1}" for j in range(spec.n_agents)]
        + [f"cost_agent{j + 1}" for j in range(spec.n_agents)]
        + ["nash"],
        (label + cost + [flag] for label, cost, flag in zip(labels, costs, flags)),
    )
    return {
        "mask_options": [[mask.astype(int) for mask in per] for per in table.mask_options],
        "costs": table.costs,
        "nash": table.equilibrium.astype(int),
        "files": {"payoff": "payoff.csv"},
    }


def _run_theta_critical(cfg: dict, out: Path, warnings: list) -> dict:
    spec = _game_spec_from_config(cfg)
    with _errors_at(
        tol="tolerances.bisection", rel_tol="tolerances.flip", bracket="theta_critical.bracket"
    ):
        report = critical_theta(
            spec,
            bracket=cfg.get("theta_critical", {}).get("bracket"),
            tol=cfg["tolerances"]["bisection"],
            rel_tol=cfg["tolerances"]["flip"],
        )
    if report.method == "scan":
        warnings.append("bisection verdicts were not monotone; estimate comes from a grid scan")
    write_csv(
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
    points = [{"n_steps": cfg["grid"]["steps"], **point} for point in points]
    with _errors_at(
        horizon="grid.horizon",
        coupling="sweep.coupling",
        gamma="gamma",
        beta="kernel.beta",
        sigma="sigma",
        rel_tol="tolerances.bisection",
        flip_tol="tolerances.flip",
    ):
        base = SweepBase(
            kernel=_kernel_from_config(cfg),
            horizon=cfg["grid"]["horizon"],
            coupling=sweep_cfg.get("coupling", 0.5),
            gamma=cfg["gamma"],
            beta=cfg["kernel"]["beta"],
            sigma=cfg["sigma"],
            rel_tol=cfg["tolerances"]["bisection"],
            flip_tol=cfg["tolerances"]["flip"],
        )
    rows = stability_sweep(points, base)
    failed = [row for row in rows if row.error]
    if failed:
        warnings.append(f"{len(failed)} of {len(rows)} sweep rows failed; see the rows")
    write_csv(
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
        "rows": [dataclasses.asdict(row) for row in rows],
        "files": {"sweep": "sweep.csv"},
    }


def _run_simulate(cfg: dict, out: Path) -> dict:
    spec = _game_spec_from_config(cfg)
    eq = solve(spec)
    sim_cfg = cfg.get("simulate", {})
    with _errors_at("simulate", seed="seed"):
        path = simulate_price(
            spec,
            eq.strategies,
            initial_prices=sim_cfg.get("initial_prices", 0.0),
            fine_steps=sim_cfg.get("fine_steps", 10),
            horizon=sim_cfg.get("horizon"),
            seed=cfg["seed"],
        )
    write_strategies_csv(out / "strategies.csv", spec.grid.points, eq.strategies)
    write_price_csv(path, out / "path.csv")
    return {
        "seed": path.seed,
        "generator": path.generator,
        "n_times": int(path.times.size),
        "final_drift": path.drift[-1],
        "files": {"strategies": "strategies.csv", "path": "path.csv"},
    }


def run_experiment(config: dict, out_dir) -> dict:
    """Check the config, fill its defaults, run it and write the report; returns the report."""
    cfg = _checked(copy.deepcopy(config))
    experiment = cfg["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"expected one of {', '.join(EXPERIMENTS)}", field="experiment")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    warnings: list[str] = []
    started = time.perf_counter()
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
    try:
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        if config.get("experiment", args.experiment) != args.experiment:
            mismatch = f"config is for {config.get('experiment')!r}, invoked as {args.experiment!r}"
            raise ConfigError(mismatch, field="experiment")
        config["experiment"] = args.experiment
        if args.seed is not None:
            config["seed"] = args.seed
        if args.tol is not None:
            tolerances = _checked(config.setdefault("tolerances", {}), "tolerances", "tolerances")
            tolerances["bisection"] = args.tol
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
