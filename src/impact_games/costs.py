"""Expected execution costs, revenue variance, and the mean-variance value.

All reported costs are impact costs: the bookkeeping term (inventory times the
initial price) is omitted, which for deterministic strategies only shifts
every agent's cost by the same constant when the initial price is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import build_matrices

__all__ = [
    "expected_cost",
    "variance_and_mv",
    "cost_report",
    "CostReport",
    "stationarity_residual",
]


def _check_strategies(spec, strategies) -> np.ndarray:
    strategies = np.asarray(strategies, dtype=float)
    expected = (spec.n_assets, spec.n_agents, spec.grid.n_points)
    if strategies.shape != expected:
        raise ValueError(f"strategies have shape {strategies.shape}, expected {expected}")
    return strategies


def priority_cross(bundle, probability: float) -> np.ndarray:
    """Cross-cost matrix against an agent who executes first with ``probability``.

    Decayed impact of the other agent's earlier trades plus, at shared times,
    the lag-zero impact weighted by the probability of going second.
    """
    eye = np.eye(len(bundle.strict_lower))
    return bundle.strict_lower + probability * bundle.kernel_at_zero * eye


def own_cost_term(q, gram, theta: float, own: np.ndarray):
    """Cost of an agent's own impact volume ``own`` (M, N+1), fee included."""
    return 0.5 * np.sum(q * (own @ gram @ own.T)) + theta * np.sum(own**2)


def cross_cost_term(q, cross, own: np.ndarray, theirs: np.ndarray):
    """Cost that another agent's impact volume ``theirs`` adds to ``own``."""
    return np.sum(q * (own @ cross @ theirs.T))


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
    bundle = build_matrices(spec.grid, spec.effective_kernel)
    q, scales = spec.cross_impact, spec.scales

    own = scales[agent] * strategies[:, agent, :]
    cost = own_cost_term(q, bundle.kernel_matrix, spec.thetas[agent], own)
    for other in range(spec.n_agents):
        if other == agent:
            continue
        theirs = scales[other] * strategies[:, other, :]
        cost += cross_cost_term(q, priority_cross(bundle, spec.priority[agent, other]), own, theirs)
    return float(cost)


def variance_and_mv(spec, strategies, agent: int) -> tuple[float, float]:
    """Revenue variance and mean-variance value of one agent's strategy.

    For deterministic strategies under the Bachelier model the only random
    term is the unaffected-price revenue, whose variance couples trades at
    times ``t_k`` and ``t_h`` through the covariance at ``min(t_k, t_h)``.
    """
    variance = _variance(spec, _check_strategies(spec, strategies), agent)
    return variance, expected_cost(spec, strategies, agent) + 0.5 * spec.gamma * variance


def _variance(spec, strategies: np.ndarray, agent: int) -> float:
    own = spec.scales[agent] * strategies[:, agent, :]
    if spec.covariance is None:
        return 0.0
    t = spec.grid.points
    earlier = np.minimum.outer(t, t)
    return float(np.sum(earlier * (own.T @ spec.covariance @ own)))


@dataclass(frozen=True)
class CostReport:
    """Per-agent expected cost, revenue variance, and mean-variance value."""

    expected: np.ndarray
    variance: np.ndarray
    mean_variance: np.ndarray


def cost_report(spec, strategies) -> CostReport:
    """Cost report of every agent, pricing each agent's expected cost once."""
    strategies = _check_strategies(spec, strategies)
    expected = np.array([expected_cost(spec, strategies, j) for j in range(spec.n_agents)])
    variance = np.array([_variance(spec, strategies, j) for j in range(spec.n_agents)])
    mv = expected + 0.5 * spec.gamma * variance
    return CostReport(expected=expected, variance=variance, mean_variance=mv)


def stationarity_residual(spec, strategies, agent: int) -> float:
    """Max-norm of the projected gradient of the agent's objective.

    The gradient of the mean-variance value with respect to the agent's own
    strategy is projected onto the feasible directions (per-asset sums fixed,
    untradable coordinates dropped); at an equilibrium it vanishes.
    """
    strategies = _check_strategies(spec, strategies)
    bundle = build_matrices(spec.grid, spec.effective_kernel)
    q, scales = spec.cross_impact, spec.scales

    own = scales[agent] * strategies[:, agent, :]
    gram = bundle.kernel_matrix
    grad = scales[agent] * (q @ own @ gram) + 2.0 * spec.thetas[agent] * scales[agent] * own
    for other in range(spec.n_agents):
        if other == agent:
            continue
        cross = priority_cross(bundle, spec.priority[agent, other])
        grad += scales[agent] * scales[other] * (q @ strategies[:, other, :] @ cross.T)
    if spec.gamma > 0.0 and spec.covariance is not None:
        t = spec.grid.points
        earlier = np.minimum.outer(t, t)
        grad += spec.gamma * scales[agent] * (spec.covariance @ own @ earlier)

    residual = 0.0
    for asset in range(spec.n_assets):
        if not spec.mask[asset, agent]:
            continue
        centered = grad[asset] - grad[asset].mean()
        residual = max(residual, float(np.abs(centered).max()))
    return residual
