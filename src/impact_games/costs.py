"""Expected execution costs, revenue variance, and the mean-variance value.

All reported costs are impact costs: the bookkeeping term (inventory times the
initial price) is omitted, which for deterministic strategies only shifts
every agent's cost by the same constant when the initial price is nonzero.
Another agent enters only through the strict lower kernel part ``L`` and the
priority-weighted lag-zero value ``p g0``, so no per-pair matrix is formed:
``X (L + p g0 I) Y^T = (X L) Y^T + p g0 X Y^T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import ArgumentError, _array, _integer
from .kernels import build_matrices

__all__ = [
    "expected_cost",
    "variance_and_mv",
    "cost_report",
    "CostReport",
    "stationarity_residual",
]


def _check_strategies(spec, strategies) -> np.ndarray:
    """``strategies`` as a float array, not copied; ArgumentError unless finite and (M, J, N+1)."""
    array = _array("strategies", strategies)
    shape = (spec.n_assets, spec.n_agents, spec.grid.n_points)
    if array.shape != shape:
        raise ArgumentError("strategies", f"strategies have shape {array.shape}, expected {shape}")
    return array


def _check_agent(n_agents: int, agent) -> int:
    """``agent`` as an int; ArgumentError unless it is the index of one of ``n_agents`` agents."""
    index = _integer("agent", agent, 0)
    if index >= n_agents:
        raise ArgumentError("agent", f"agent must be in range({n_agents}), got {agent!r}")
    return index


def priority_cross(bundle, probability: float) -> np.ndarray:
    """Cross-cost matrix against an agent who executes first with ``probability``.

    Decayed impact of the other agent's earlier trades plus, at shared times,
    the lag-zero impact weighted by the probability of going second.
    """
    cross = bundle.strict_lower.copy()
    # the diagonal of strict_lower is exactly zero
    cross.flat[:: len(cross) + 1] = probability * bundle.kernel_at_zero
    return cross


def own_cost_term(q, gram, theta: float, own: np.ndarray):
    """Cost of an agent's own impact volume ``own`` (M, N+1), fee included."""
    return 0.5 * np.sum(q * (own @ gram @ own.T)) + theta * np.sum(own**2)


def cross_cost_term(q, weight: float, own: np.ndarray, lagged: np.ndarray, theirs: np.ndarray):
    """Cost that another agent's impact volume ``theirs`` adds to ``own``.

    ``lagged`` is ``own @ strict_lower``; ``weight`` is ``p g0`` for the
    other agent's probability ``p`` of executing first (see priority_cross).
    """
    return np.sum(q * (lagged @ theirs.T + weight * (own @ theirs.T)))


def expected_cost(spec, strategies, agent: int) -> float:
    """Expected execution cost of one agent given everybody's strategies.

    The cost is quadratic: half the kernel-matrix form of the agent's own
    impact volume, plus the quadratic fee, plus for every other agent the
    decayed cost of their earlier trades and the priority-weighted cost of
    their simultaneous trades. Per-agent impact scales multiply the share
    volumes wherever they hit the price, fee included. The terms are summed
    in agent order, starting from the own term.
    """
    strategies = _check_strategies(spec, strategies)
    agent = _check_agent(spec.n_agents, agent)
    return _expected_cost(spec, strategies, agent, build_matrices(spec.grid, spec.effective_kernel))


def _expected_cost(spec, strategies: np.ndarray, agent: int, bundle) -> float:
    """:func:`expected_cost` from the bundle of the spec's grid and effective kernel."""
    q, scales, g0 = spec.cross_impact, spec.scales, bundle.kernel_at_zero
    own = scales[agent] * strategies[:, agent, :]
    lagged = own @ bundle.strict_lower
    cost = own_cost_term(q, bundle.kernel_matrix, spec.thetas[agent], own)
    for other in range(spec.n_agents):
        if other != agent:
            theirs = scales[other] * strategies[:, other, :]
            cost += cross_cost_term(q, spec.priority[agent, other] * g0, own, lagged, theirs)
    return float(cost)


def variance_and_mv(spec, strategies, agent: int) -> tuple[float, float]:
    """Revenue variance and mean-variance value of one agent's strategy.

    For deterministic strategies under the Bachelier model the only random
    term is the unaffected-price revenue, whose variance couples trades at
    times ``t_k`` and ``t_h`` through the covariance at ``min(t_k, t_h)``.
    """
    strategies = _check_strategies(spec, strategies)
    agent = _check_agent(spec.n_agents, agent)
    variance = _variance(spec, strategies, agent, _earlier(spec))
    return variance, expected_cost(spec, strategies, agent) + 0.5 * spec.gamma * variance


def _earlier(spec) -> np.ndarray:
    """``min(t_k, t_h)`` over every pair of trading times."""
    t = spec.grid.points
    return np.minimum.outer(t, t)


def _variance(spec, strategies: np.ndarray, agent: int, earlier: np.ndarray) -> float:
    if spec.covariance is None:
        return 0.0
    own = spec.scales[agent] * strategies[:, agent, :]
    return float(np.sum(earlier * (own.T @ spec.covariance @ own)))


@dataclass(frozen=True)
class CostReport:
    """Per-agent expected cost, revenue variance, and mean-variance value."""

    expected: np.ndarray
    variance: np.ndarray
    mean_variance: np.ndarray


def cost_report(spec, strategies) -> CostReport:
    """Cost report of every agent, from one matrix bundle and one ``min(t_k, t_h)``.

    Each entry equals what :func:`expected_cost` and :func:`variance_and_mv`
    give for that agent, bit for bit.
    """
    strategies = _check_strategies(spec, strategies)
    bundle = build_matrices(spec.grid, spec.effective_kernel)
    earlier = _earlier(spec)
    agents = range(spec.n_agents)
    expected = np.array([_expected_cost(spec, strategies, j, bundle) for j in agents])
    variance = np.array([_variance(spec, strategies, j, earlier) for j in agents])
    mv = expected + 0.5 * spec.gamma * variance
    return CostReport(expected=expected, variance=variance, mean_variance=mv)


def stationarity_residual(spec, strategies, agent: int) -> float:
    """Max-norm of the projected gradient of the agent's objective.

    The gradient of the mean-variance value with respect to the agent's own
    strategy is projected onto the feasible directions (per-asset sums fixed,
    untradable coordinates dropped); at an equilibrium it vanishes. It is 0
    for an agent without tradable assets. The others' impact volumes ``V_o``
    enter as ``(sum V_o) L^T + g0 sum p_ao V_o``: one product with ``L^T``.
    """
    strategies = _check_strategies(spec, strategies)
    agent = _check_agent(spec.n_agents, agent)
    bundle = build_matrices(spec.grid, spec.effective_kernel)
    return _stationarity_residual(spec, strategies, agent, bundle)


def _stationarity_residual(spec, strategies: np.ndarray, agent: int, bundle) -> float:
    """:func:`stationarity_residual` from the bundle of the spec's grid and effective kernel."""
    scale = spec.scales[agent]
    volumes = spec.scales[:, None] * strategies
    own, others = volumes[:, agent], np.arange(spec.n_agents) != agent
    theirs = volumes[:, others]
    impact = own @ bundle.kernel_matrix + theirs.sum(axis=1) @ bundle.strict_lower.T
    impact += np.einsum("o,mot->mt", spec.priority[agent, others] * bundle.kernel_at_zero, theirs)
    grad = scale * (spec.cross_impact @ impact) + 2.0 * spec.thetas[agent] * scale * own
    if spec.gamma > 0.0 and spec.covariance is not None:
        grad += spec.gamma * scale * (spec.covariance @ own @ _earlier(spec))
    traded = grad[spec.mask[:, agent]]
    return float(np.abs(traded - traded.mean(axis=1, keepdims=True)).max(initial=0.0))
