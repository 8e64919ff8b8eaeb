"""Seeded workloads of the impact_games benchmark.

A workload turns a seed into a sequence of operations ("ops"). For each op
it prepares the input (untimed), runs it (timed) and checks the output
(untimed). The library only ever receives the generated configs and specs.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from impact_games import cli, costs, equilibrium, hetero, simulate
from impact_games.cross_impact import rank_one_matrix
from impact_games.kernels import make_equidistant_grid, power_law_kernel

CONSERVATION_TOL = 1e-10
STATIONARITY_TOL = 1e-8
CONJECTURE_TOL = 2e-2
# report.json rounds floats to 12 significant digits
REPORT_ROUNDING = 1e-10


def _conservation_error(strategies: np.ndarray, inventories: np.ndarray) -> float:
    scale = max(float(np.abs(inventories).max()), 1.0)
    return float(np.abs(strategies.sum(axis=2) - inventories).max()) / scale


def _files_size(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


class Workload:
    """One seeded workload; subclasses define the op."""

    name = ""
    why = ""
    min_ops = 1
    layers: tuple = ()

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch / self.name
        self.sizes: dict = {}

    def prepare(self, index: int):
        """Input of op ``index``; the same (seed, index) gives the same input."""
        raise NotImplementedError

    def run(self, op_input):
        raise NotImplementedError

    def check(self, op_input, output) -> list:
        """Failure messages of one op; empty when the output is correct."""
        raise NotImplementedError

    def output_metrics(self, op_input, output) -> dict:
        """Per-layer counts read from what the op wrote or returned."""
        return {}

    def _fresh_out_dir(self) -> Path:
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        return self.scratch


class ThetaDesk(Workload):
    name = "theta_desk"
    why = (
        "stability hot path: desk-scale critical-fee bisection; Q has 2 distinct "
        "eigenvalues and gamma = 0 keeps both profile systems Toeplitz"
    )
    min_ops = 1
    layers = ("kernels", "linalg", "cross_impact", "equilibrium", "stability", "cli")

    def __init__(self, seed, small, scratch):
        super().__init__(seed, scratch)
        coupling = float(np.random.default_rng(seed).uniform(0.35, 0.65))
        m, j, n = (3, 3, 150) if small else (50, 10, 300)
        self.sizes = {"n_assets": m, "n_agents": j, "n_steps": n, "coupling": coupling}
        # one market per seed: every op of a run repeats the same bisection
        self.config = {
            "experiment": "theta-critical",
            "grid": {"steps": n, "horizon": 1.0},
            "kernel": {"family": "exponential", "rate": 1.0},
            "cross_impact": {"family": "one_factor", "n_assets": m, "coupling": coupling},
            "n_agents": j,
            "gamma": 0.0,
        }

    def prepare(self, index):
        return self.config, self._fresh_out_dir()

    def run(self, op_input):
        config, out = op_input
        return cli.run_experiment(config, out)

    def check(self, op_input, report):
        results = report["results"]
        tol = report["config"]["tolerances"]["bisection"]
        lo, hi = results["bracket"]
        conjecture = results["predicted_conjecture"]
        rel = abs(results["estimate"] - conjecture) / conjecture
        failures = []
        if results["method"] != "bisect":
            failures.append(f"method is {results['method']!r}, expected 'bisect'")
        if hi - lo > tol * (1.0 + REPORT_ROUNDING) + REPORT_ROUNDING * abs(hi):
            failures.append(f"final bracket width {hi - lo:.3e} exceeds tol {tol:.3e}")
        if not rel <= CONJECTURE_TOL:
            failures.append(f"|estimate - conjecture| / conjecture = {rel:.3e} > {CONJECTURE_TOL}")
        return failures

    def output_metrics(self, op_input, report):
        _, out = op_input
        rows = (out / "trace.csv").read_text().split()[1:]
        probes = [(float(theta), unstable == "1") for theta, unstable in (r.split(",") for r in rows)]
        bisect, guard, scan = classify_probes(probes)
        return {
            "stability.probes": report["results"]["n_probes"],
            "stability.bisect_probes": bisect,
            "stability.guard_probes": guard,
            "stability.scan_probes": scan,
            "cli.bytes_written": _files_size(out),
        }


def classify_probes(probes):
    """Split a critical-fee probe trace into (bisect, guard, scan) counts.

    ``critical_theta`` probes both bracket ends, then bracket midpoints, then
    the monotonicity-guard points, and, only if the guard trips, a scan grid
    starting at the lower bracket end. Bracket ends count as bisection probes.
    Trace values carry 12 significant digits, hence the relative tolerance.
    """
    if len(probes) < 2:
        return len(probes), 0, 0
    lo0, hi0 = probes[0][0], probes[1][0]
    lo, hi, k = lo0, hi0, 2
    while k < len(probes) and abs(probes[k][0] - 0.5 * (lo + hi)) <= REPORT_ROUNDING * hi0:
        if probes[k][1]:
            lo = probes[k][0]
        else:
            hi = probes[k][0]
        k += 1
    rest = [theta for theta, _ in probes[k:]]
    guard = next((i for i, theta in enumerate(rest) if theta == lo0), len(rest))
    return k, guard, len(rest) - guard


class VenueHetero(Workload):
    name = "venue_hetero"
    why = (
        "only workload of the hetero stacked solver: venue-choice payoff tables "
        "with per-agent fees, scales and asymmetric priority; measures memory"
    )
    min_ops = 3
    layers = ("kernels", "linalg", "cross_impact", "hetero", "costs", "cli")

    def __init__(self, seed, small, scratch):
        super().__init__(seed, scratch)
        m, j, n = (4, 3, 20) if small else (8, 6, 120)
        self.sizes = {"n_assets": m, "n_agents": j, "n_steps": n, "mask_options": 3}

    def prepare(self, index):
        m, j, n = self.sizes["n_assets"], self.sizes["n_agents"], self.sizes["n_steps"]
        rng = np.random.default_rng([self.seed, index])
        thetas = rng.uniform(0.05, 0.5, j)
        scales = rng.uniform(0.7, 1.3, j)
        inventories = rng.uniform(-1.0, 1.0, j)
        upper = np.triu_indices(j, 1)
        priority = np.zeros((j, j))
        priority[upper] = rng.uniform(0.2, 0.8, upper[0].size)
        priority[upper[::-1]] = 1.0 - priority[upper]
        # nested venue choices: asset 0 only, the first half, all assets
        masks = [[int(i < size) for i in range(m)] for size in (1, m // 2, m)]
        config = {
            "experiment": "payoff-matrix",
            "grid": {"steps": n, "horizon": 1.0},
            "kernel": {"family": "power_law", "exponent": 0.5, "offset": 0.1},
            "cross_impact": {"family": "one_factor", "n_assets": m, "coupling": 0.6},
            "priority": priority.tolist(),
            "agents": [
                {
                    "inventories": [float(inventories[a])] + [0.0] * (m - 1),
                    "theta": float(thetas[a]),
                    "scale": float(scales[a]),
                    "mask_options": masks,
                }
                for a in range(j)
            ],
        }
        return config, self._fresh_out_dir()

    def run(self, op_input):
        """One payoff-matrix experiment; also keeps each uniform-mask solve.

        The uniform-mask games are the diagonal cells of the table, so their
        strategies are the outputs the check needs.
        """
        config, out = op_input
        solved = []
        solve = hetero.solve_hetero_nash

        def keep(spec, *args, **kwargs):
            result = solve(spec, *args, **kwargs)
            solved.append((spec, result.strategies))
            return result

        hetero.solve_hetero_nash = keep
        try:
            report = cli.run_experiment(config, out)
        finally:
            hetero.solve_hetero_nash = solve
        return report, solved

    def check(self, op_input, output):
        config, _ = op_input
        report, solved = output
        failures = []
        n_masks = len(config["agents"][0]["mask_options"])
        if len(solved) != n_masks:
            failures.append(f"{len(solved)} uniform-mask solves, expected {n_masks}")
        for spec, strategies in solved:
            label = "mask " + "".join(str(int(v)) for v in spec.mask[:, 0])
            err = _conservation_error(strategies, spec.inventories)
            if not err <= CONSERVATION_TOL:
                failures.append(f"{label}: inventory conservation error {err:.3e}")
            for agent in range(spec.n_agents):
                res = costs.stationarity_residual(spec, strategies, agent)
                if not res <= STATIONARITY_TOL:
                    failures.append(f"{label}: agent {agent} stationarity residual {res:.3e}")
        table = np.asarray(report["results"]["costs"], dtype=float)  # null -> nan
        if not np.all(np.isfinite(table)):
            failures.append("payoff table has non-finite costs")
        return failures

    def output_metrics(self, op_input, output):
        return {"cli.bytes_written": _files_size(op_input[1])}


class ScenarioRisk(Workload):
    name = "scenario_risk"
    why = (
        "many small closed-form solves at fixed theta with fresh inventories; 20 "
        "distinct eigenvalues and gamma > 0 bypass dedup and Toeplitz; only simulate user"
    )
    min_ops = 64
    layers = ("kernels", "linalg", "cross_impact", "equilibrium", "costs", "simulate")
    n_paths = 8

    def __init__(self, seed, small, scratch):
        super().__init__(seed, scratch)
        m, j, n = (4, 3, 30) if small else (20, 5, 200)
        rng = np.random.default_rng(seed)
        # jittered grid: loadings (and so all eigenvalues of Q) stay distinct
        spacing = 0.7 / (m - 1)
        loadings = np.linspace(0.15, 0.85, m) + rng.uniform(-0.3, 0.3, m) * spacing
        self.cross_impact = rank_one_matrix(loadings)
        self.grid = make_equidistant_grid(n, 1.0)
        self.kernel = power_law_kernel(exponent=0.5, offset=0.1)
        self.sizes = {
            "n_assets": m,
            "n_agents": j,
            "n_steps": n,
            "theta": 0.05,
            "gamma": 2.0,
            "paths": self.n_paths,
            "fine_steps": 10,
            "horizon": 1.2,
        }

    def prepare(self, index):
        rng = np.random.default_rng([self.seed, index])
        inventories = rng.normal(size=(self.sizes["n_assets"], self.sizes["n_agents"]))
        spec = equilibrium.GameSpec(
            grid=self.grid,
            kernel=self.kernel,
            cross_impact=self.cross_impact,
            inventories=inventories,
            theta=self.sizes["theta"],
            gamma=self.sizes["gamma"],
            covariance=self.cross_impact,
        )
        return spec, [int(s) for s in rng.integers(0, 2**31, self.n_paths)]

    def _path(self, spec, strategies, seed):
        return simulate.simulate_price(
            spec,
            strategies,
            initial_prices=100.0,
            fine_steps=self.sizes["fine_steps"],
            horizon=self.sizes["horizon"],
            seed=seed,
        )

    def run(self, op_input):
        spec, path_seeds = op_input
        strategies = equilibrium.closed_form_equilibrium(spec).strategies
        report = costs.cost_report(spec, strategies)
        residuals = [costs.stationarity_residual(spec, strategies, a) for a in range(spec.n_agents)]
        paths = [self._path(spec, strategies, seed) for seed in path_seeds]
        return strategies, report, residuals, paths

    def check(self, op_input, output):
        spec, path_seeds = op_input
        strategies, report, residuals, paths = output
        failures = []
        err = _conservation_error(strategies, spec.inventories)
        if not err <= CONSERVATION_TOL:
            failures.append(f"inventory conservation error {err:.3e}")
        if not max(residuals) <= STATIONARITY_TOL:
            failures.append(f"max stationarity residual {max(residuals):.3e}")
        values = np.concatenate([report.expected, report.variance, report.mean_variance])
        if not np.all(np.isfinite(values)):
            failures.append("cost report has non-finite values")
        for seed, path in zip(path_seeds, paths):
            if not np.array_equal(path.affected, path.unaffected + path.drift):
                failures.append(f"path seed {seed}: affected != unaffected + drift")
        again = self._path(spec, strategies, path_seeds[0])
        for field in ("times", "unaffected", "affected", "drift"):
            if not np.array_equal(getattr(again, field), getattr(paths[0], field)):
                failures.append(f"path seed {path_seeds[0]}: rerun changed {field}")
        return failures


WORKLOADS = {w.name: w for w in (ThetaDesk, VenueHetero, ScenarioRisk)}
