"""Spans around the calls into each impact_games layer, recorded from outside.

Installing the tracer replaces every module attribute bound to a layer
function (the defining module and every ``from ... import`` site, the package
namespace included) with a timing wrapper, so nested calls become child
spans. Spans are kept in memory; a layer's self time is its span's duration
minus the part of it covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (span name, defining module, function)
LAYERS = (
    ("kernels.build_matrices", "impact_games.kernels", "build_matrices"),
    ("linalg.guarded_solve", "impact_games._linalg", "guarded_solve"),
    ("cross_impact.analyze_cross_impact", "impact_games.cross_impact", "analyze_cross_impact"),
    ("equilibrium.fundamental_solutions", "impact_games.equilibrium", "fundamental_solutions"),
    ("equilibrium.principal_fundamentals", "impact_games.equilibrium", "principal_fundamentals"),
    ("equilibrium.closed_form_equilibrium", "impact_games.equilibrium", "closed_form_equilibrium"),
    ("hetero.assemble_equilibrium_system", "impact_games.hetero", "assemble_equilibrium_system"),
    ("hetero.solve_hetero_nash", "impact_games.hetero", "solve_hetero_nash"),
    ("hetero.payoff_matrix", "impact_games.hetero", "payoff_matrix"),
    ("costs.expected_cost", "impact_games.costs", "expected_cost"),
    ("costs.cost_report", "impact_games.costs", "cost_report"),
    ("costs.stationarity_residual", "impact_games.costs", "stationarity_residual"),
    ("stability.is_unstable_at", "impact_games.stability", "is_unstable_at"),
    ("stability.critical_theta", "impact_games.stability", "critical_theta"),
    ("simulate.simulate_price", "impact_games.simulate", "simulate_price"),
    ("simulate.impact_drift", "impact_games.simulate", "impact_drift"),
    ("cli.run_experiment", "impact_games.cli", "run_experiment"),
)

# span record fields
ID, PARENT, OP, NAME, SITE, START, END, ATTR = range(8)
SPAN_FIELDS = ("id", "parent", "op", "name", "site", "start", "end", "attr")

# computed from array sizes, not measured: the bundle holds 7 float64
# (N+1) x (N+1) matrices; an LU factorization costs 2/3 n^3 flops
BUNDLE_MATRICES = 7


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _distinct_pairs(spec) -> int:
    """Distinct (eigenvalue, principal variance rate) pairs of a game spec."""
    lam, vec = np.linalg.eigh(spec.cross_impact)
    if spec.covariance is None:
        var = np.zeros_like(lam)
    else:
        var = np.diag(vec.T @ spec.covariance @ vec)
    unit = 1e-9 * max(float(np.abs(lam).max()), float(np.abs(var).max()), 1.0)
    return len({(round(a / unit), round(b / unit)) for a, b in zip(lam, var)})


class Tracer:
    """Span recorder; wrappers are active only inside :meth:`installed`."""

    def __init__(self):
        self.spans = []
        self._stack = [None]
        self._op = None
        self._distinct = {}
        annotate = {
            "kernels.build_matrices": lambda a, k, r: _arg(a, k, 0, "grid").n_points,
            "linalg.guarded_solve": lambda a, k, r: len(_arg(a, k, 0, "matrix")),
            "hetero.assemble_equilibrium_system": lambda a, k, r: r.matrix.shape[0],
            "hetero.payoff_matrix": lambda a, k, r: r.costs.size // r.costs.shape[-1],
            "equilibrium.principal_fundamentals": lambda a, k, r: self._distinct_pairs(
                _arg(a, k, 0, "spec")
            ),
        }
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "impact_games" or name.startswith("impact_games.")
        ]
        self._sites = []
        for name, module_name, attr in LAYERS:
            original = getattr(importlib.import_module(module_name), attr)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        wrapper = self._wrap(name, module.__name__, original, annotate.get(name))
                        self._sites.append((module, key, original, wrapper))

    def _distinct_pairs(self, spec) -> int:
        key = (spec.cross_impact.tobytes(), None if spec.covariance is None else spec.covariance.tobytes())
        if key not in self._distinct:
            self._distinct[key] = _distinct_pairs(spec)
        return self._distinct[key]

    def _wrap(self, name, site, fn, annotate):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), stack[-1], self._op, name, site, perf_counter(), 0.0, None]
            spans.append(record)
            stack.append(record[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if annotate is not None:
                record[ATTR] = annotate(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route every call through a layer's import sites into spans."""
        try:
            for module, key, _, wrapper in self._sites:
                setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, original, _ in self._sites:
                setattr(module, key, original)

    @contextmanager
    def op(self, op_id):
        """Root span of one op; spans opened inside carry ``op_id``."""
        self._op = op_id
        record = [len(self.spans), None, op_id, "op", "bench", perf_counter(), 0.0, None]
        self.spans.append(record)
        self._stack.append(record[ID])
        try:
            yield
        finally:
            record[END] = perf_counter()
            self._stack.pop()
            self._op = None


def self_times(spans):
    """Self time of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append((span[START], span[END]))
    result = {}
    for span in spans:
        covered, reach = 0.0, span[START]
        for start, end in sorted(children[span[ID]]):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        result[span[ID]] = (span[END] - span[START]) - covered
    return result


def op_metrics(spans):
    """Per-layer metrics of one op from its spans (the root "op" span first)."""
    own = self_times(spans)
    by_id = {span[ID]: span for span in spans}
    metrics = {}
    for name, _, _ in LAYERS:
        metrics[name + ".calls"] = 0
        metrics[name + ".self_s"] = 0.0
    bundle_bytes = flops = max_dim = distinct = costs_builds = uniform = 0
    kkt_dim = kkt_bytes = cells = 0
    probe_s = []
    for span in spans:
        name, attr = span[NAME], span[ATTR]
        if name == "op":
            continue
        metrics[name + ".calls"] += 1
        metrics[name + ".self_s"] += own[span[ID]]
        if name == "kernels.build_matrices":
            bundle_bytes += BUNDLE_MATRICES * attr * attr * 8
            costs_builds += span[SITE] == "impact_games.costs"
        elif name == "linalg.guarded_solve":
            flops += 2 * attr**3 // 3
            max_dim = max(max_dim, attr)
        elif name == "equilibrium.principal_fundamentals":
            distinct += attr
        elif name == "hetero.assemble_equilibrium_system":
            kkt_dim = max(kkt_dim, attr)
            kkt_bytes += attr * attr * 8
        elif name == "hetero.payoff_matrix":
            cells += attr
        elif name == "hetero.solve_hetero_nash":
            uniform += by_id[span[PARENT]][NAME] == "hetero.payoff_matrix"
        elif name == "stability.is_unstable_at":
            probe_s.append(span[END] - span[START])
    root = spans[0]
    evals = metrics["costs.expected_cost.calls"] + metrics["costs.stationarity_residual.calls"]
    metrics.update(
        {
            "kernels.build_matrices.bytes_computed": bundle_bytes,
            "linalg.guarded_solve.max_dim": max_dim,
            "linalg.guarded_solve.flops_computed": flops,
            "equilibrium.distinct_pairs": distinct,
            "hetero.assemble_equilibrium_system.dim": kkt_dim,
            "hetero.assemble_equilibrium_system.bytes_computed": kkt_bytes,
            "hetero.payoff_matrix.cells": cells,
            "hetero.payoff_matrix.uniform_solves": uniform,
            "costs.build_calls": costs_builds,
            "costs.evals": evals,
            "trace.op_s": root[END] - root[START],
            "trace.self_sum_s": sum(own.values()),
        }
    )
    return metrics, probe_s


def ratio(numerator, denominator):
    return numerator / denominator if denominator else None


def aggregate(per_op, probe_s):
    """Median over traced ops of each per-op metric, plus derived ratios."""
    metrics = {}
    for key in per_op[0]:
        values = [m[key] for m in per_op]
        if all(isinstance(v, int) for v in values):
            metrics[key] = statistics.median_low(values)
        else:
            metrics[key] = statistics.median(values)
    metrics["equilibrium.distinct_share"] = ratio(
        metrics["equilibrium.distinct_pairs"], metrics["equilibrium.fundamental_solutions.calls"]
    )
    metrics["costs.builds_per_eval"] = ratio(metrics["costs.build_calls"], metrics["costs.evals"])
    metrics["stability.probe_p50_s"] = statistics.median(probe_s) if probe_s else None
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed") or name.endswith("bytes_written"):
        return "B"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("_share") or name.endswith("_error"):
        return "fraction"
    if name.endswith("per_eval"):
        return "ratio"
    return "count"


# per-layer counts a workload reads from what its op wrote or returned
OUTPUT_COUNTS = (
    "stability.probes",
    "stability.bisect_probes",
    "stability.guard_probes",
    "stability.scan_probes",
    "cli.bytes_written",
)
