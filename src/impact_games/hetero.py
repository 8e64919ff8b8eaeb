"""Equilibria for heterogeneous risk-neutral games via stacked first-order conditions.

:func:`solve` is the entry point for every game: identical agents take the
closed form of :mod:`equilibrium`, all others the stacked system here.

Heterogeneity covers per-agent quadratic fees, per-agent impact scales,
pairwise execution-priority probabilities, and per-agent tradable-asset
masks. The game is linear-quadratic, so the stationarity conditions of all
agents plus their inventory constraints form one linear system; no
best-response iteration is involved. When every agent trades the same assets,
each block of that system is a Kronecker product with the cross-impact matrix
Q, so it splits exactly into one single-asset system per eigenvalue of Q.
Other games solve the stacked system as one dense solve, whose result is
checked against the game's conditions as well.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import List, Sequence, Tuple

import numpy as np

from ._linalg import NumericError, _boolean_mask, guarded_solve, single_blas_thread
from .costs import (
    cross_cost_term,
    expected_cost,
    own_cost_term,
    priority_cross,
    stationarity_residual,
)
from .cross_impact import analyze_cross_impact
from .equilibrium import Equilibrium, GameSpec, _shared_solves, closed_form_equilibrium
from .kernels import build_matrices

__all__ = [
    "solve",
    "KktSystem",
    "assemble_equilibrium_system",
    "solve_hetero_nash",
    "PayoffTable",
    "payoff_matrix",
]


@dataclass(frozen=True)
class KktSystem:
    """Stacked stationarity-plus-constraint system of the heterogeneous game.

    Variables are every agent's strategy coordinates on its tradable assets,
    followed by one multiplier per (agent, tradable asset). ``strategy_rows``
    maps agent j to the list of (asset, slice-into-variables) pairs.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    strategy_rows: Tuple[Tuple[Tuple[int, slice], ...], ...]


def _constraint_rhs(size: int, strategy_rows, inventories: np.ndarray) -> np.ndarray:
    """Right-hand side of a stacked system: each multiplier row holds its inventory.

    An agent's multipliers follow its last strategy coordinates, one per
    tradable asset. ``inventories`` of shape (M, J, K) give K columns.
    """
    rhs = np.zeros((size,) + inventories.shape[2:])
    for j, rows in enumerate(strategy_rows):
        for pos, (asset, _) in enumerate(rows):
            rhs[rows[-1][1].stop + pos] = inventories[asset, j]
    return rhs


def assemble_equilibrium_system(spec: GameSpec) -> KktSystem:
    """Build the dense linear system whose solution is the Nash equilibrium."""
    q = spec.cross_impact
    bundle = build_matrices(spec.grid, spec.effective_kernel)
    n = spec.grid.n_points

    active = [np.flatnonzero(spec.mask[:, j]) for j in range(spec.n_agents)]
    offsets, size = [], 0
    for assets in active:
        offsets.append(size)
        size += assets.size * (n + 1)  # strategy coords plus one multiplier per asset

    matrix = np.zeros((size, size))
    strategy_rows: List[Tuple[Tuple[int, slice], ...]] = []
    for j in range(spec.n_agents):
        assets_j = active[j]
        start = offsets[j]
        block = assets_j.size * n
        s_j = spec.scales[j]
        self_block = s_j**2 * np.kron(q[np.ix_(assets_j, assets_j)], bundle.kernel_matrix)
        self_block += 2.0 * spec.thetas[j] * s_j**2 * np.eye(block)
        matrix[start : start + block, start : start + block] = self_block
        rows = []
        for pos, asset in enumerate(assets_j):
            coords = slice(start + pos * n, start + (pos + 1) * n)
            rows.append((int(asset), coords))
            mult = start + block + pos
            matrix[coords, mult] = -1.0  # stationarity: gradient equals multiplier
            matrix[mult, coords] = 1.0  # constraint: orders sum to the inventory
        strategy_rows.append(tuple(rows))
        for l in range(spec.n_agents):
            if l == j:
                continue
            assets_l = active[l]
            if assets_l.size == 0:
                continue
            cross = priority_cross(bundle, spec.priority[j, l])
            coupling = s_j * spec.scales[l] * np.kron(q[np.ix_(assets_j, assets_l)], cross)
            matrix[start : start + block, offsets[l] : offsets[l] + assets_l.size * n] = coupling
    rhs = _constraint_rhs(size, strategy_rows, spec.inventories)
    return KktSystem(matrix=matrix, rhs=rhs, strategy_rows=tuple(strategy_rows))


def _solve_kkt(matrix: np.ndarray, rhs: np.ndarray, name: str) -> np.ndarray:
    try:
        return guarded_solve(matrix, rhs)
    except NumericError as exc:
        raise NumericError(
            f"no unique equilibrium: {name} is singular or near-singular ({exc})",
            exc.condition,
        ) from exc


def _solve_stacked(spec: GameSpec) -> np.ndarray:
    """Strategies from one dense solve of the full stacked system.

    The result must pass :func:`_is_equilibrium`. Partial pivoting in the
    agent-major layout can grow the entries enough to miss the inventories
    (by 1.2e-4 on a 6-agent, 121-time single-asset game), so a failed result
    is solved again with the strategy coordinates ordered by trading time,
    then agent and asset, and the multipliers last, as in
    :func:`_solve_principal`. If that result fails too, NumericError.
    """
    system = assemble_equilibrium_system(spec)

    def strategies_from(solution):
        strategies = np.zeros((spec.n_assets, spec.n_agents, spec.grid.n_points))
        for j, rows in enumerate(system.strategy_rows):
            for asset, coords in rows:
                strategies[asset, j, :] = solution[coords]
        return strategies

    strategies = strategies_from(_solve_kkt(system.matrix, system.rhs, "stacked system"))
    if _is_equilibrium(spec, strategies):
        return strategies
    starts = [coords.start for rows in system.strategy_rows for _, coords in rows]
    time_major = (np.arange(spec.grid.n_points)[:, None] + starts).ravel()
    multipliers = np.setdiff1d(np.arange(len(system.matrix)), time_major)
    order = np.concatenate([time_major, multipliers])
    solution = np.empty_like(system.rhs)
    solution[order] = _solve_kkt(
        system.matrix[np.ix_(order, order)], system.rhs[order], "stacked system"
    )
    strategies = strategies_from(solution)
    if not _is_equilibrium(spec, strategies):
        raise NumericError(
            "no unique equilibrium: the stacked solve misses the inventory or "
            "first-order conditions in both variable orders"
        )
    return strategies


def _solve_principal(spec: GameSpec, assets: np.ndarray) -> np.ndarray:
    """Strategies of a game in which every agent trades exactly ``assets``.

    Every block of the stacked system is ``kron(Q_SS, .)`` on the tradable
    set S, so rotating each agent's strategy by the eigenvectors V of
    ``Q_SS = V diag(lam) V^T`` turns it into ``kron(diag(lam), .)``: principal
    asset k is the single-asset game with cross impact ``lam[k]`` and the
    rotated inventories ``V^T inv_S``. Principal assets with equal eigenvalues
    share one system, whose right-hand sides are the columns of one solve.
    Each system is solved with its variables ordered by trading time, then
    by agent, and the multipliers last. In the agent-major layout of
    :func:`assemble_equilibrium_system`, partial pivoting grew the entries by
    7e11 on a 6-agent, 121-time system, whose solve then missed its
    inventories by 2e-3; ordered by time, the growth was 3.3. The solves run
    on one BLAS thread (see :func:`single_blas_thread`).
    """
    lam, vec = np.linalg.eigh(spec.cross_impact[np.ix_(assets, assets)])
    principal_inv = vec.T @ spec.inventories[assets]
    principal = np.empty((assets.size, spec.n_agents, spec.grid.n_points))
    shared = _shared_solves(lam, np.zeros_like(lam), risk_averse=False)
    # in a single-asset system agent j owns rows j * block ... (j + 1) * block - 1:
    # its coordinates, then its multiplier; swapping the two axes orders the rows
    # by time, then by agent, with the multipliers as the last "time"
    n_agents, block = spec.n_agents, spec.grid.n_points + 1
    with single_blas_thread():
        for first in np.unique(shared):
            members = np.flatnonzero(shared == first)
            single = GameSpec(
                grid=spec.grid,
                kernel=spec.kernel,
                cross_impact=np.array([[lam[first]]]),
                inventories=principal_inv[first : first + 1],
                theta=spec.theta,
                beta=spec.beta,
                scales=spec.scales,
                priority=spec.priority,
            )
            system = assemble_equilibrium_system(single)
            matrix = system.matrix.reshape(n_agents, block, n_agents, block)
            matrix = matrix.transpose(1, 0, 3, 2).reshape(system.matrix.shape)
            rhs = np.zeros((block, n_agents, members.size))
            rhs[-1] = principal_inv[members].T  # the multiplier rows hold the inventories
            name = f"principal-asset system (eigenvalue {lam[first]:.6e})"
            solution = _solve_kkt(matrix, rhs.reshape(len(matrix), -1), name)
            principal[members] = solution.reshape(rhs.shape)[:-1].transpose(2, 1, 0)
    strategies = np.zeros((spec.n_assets, spec.n_agents, spec.grid.n_points))
    strategies[assets] = np.einsum("ik,kjt->ijt", vec, principal)
    return strategies


def _is_equilibrium(spec: GameSpec, strategies: np.ndarray) -> bool:
    """Whether strategies meet every inventory and first-order condition of ``spec``."""
    scale = max(float(np.abs(spec.inventories).max()), 1.0)
    conservation = np.abs(strategies.sum(axis=2) - spec.inventories).max()
    return bool(conservation <= 1e-11 * scale) and all(
        stationarity_residual(spec, strategies, j) <= 1e-9 * scale for j in range(spec.n_agents)
    )


def solve(spec: GameSpec) -> Equilibrium:
    """Nash equilibrium of any game.

    Identical agents (see :attr:`GameSpec.identical_agents`) take
    :func:`closed_form_equilibrium`, every other game :func:`solve_hetero_nash`.
    """
    if spec.identical_agents:
        return closed_form_equilibrium(spec)
    return solve_hetero_nash(spec)


def solve_hetero_nash(spec: GameSpec) -> Equilibrium:
    """Solve the risk-neutral game by its stacked conditions; zero on masked assets.

    When there are several assets and every agent trades the same nonempty
    set of them, the game is solved one principal asset of that set's
    cross-impact block at a time (see :func:`_solve_principal`), with one
    ``J (N + 2)``-dimensional solve per distinct eigenvalue. The rotated-back
    strategies must conserve the inventories within 1e-11 and leave every
    agent's stationarity residual within 1e-9 (both relative to the largest
    inventory, or 1); otherwise the stacked system is solved densely, as it
    is for every other game. The stacked result must pass the same checks
    (see :func:`_solve_stacked`), or NumericError is raised. ValueError for a
    risk-averse game, whose variance term this solver does not model.
    """
    if spec.gamma > 0.0:
        raise ValueError("the stacked solver is risk neutral; use solve for gamma > 0")
    strategies = None
    traded = spec.mask.all(axis=1)
    if spec.n_assets > 1 and traded.any() and np.array_equal(traded, spec.mask.any(axis=1)):
        strategies = _solve_principal(spec, np.flatnonzero(traded))
        if not _is_equilibrium(spec, strategies):
            strategies = None
    if strategies is None:
        strategies = _solve_stacked(spec)
    spectrum = analyze_cross_impact(spec.cross_impact)
    principal = np.einsum("im,mjk->ijk", spectrum.eigenvectors.T, strategies)
    return Equilibrium(
        strategies=strategies,
        principal_strategies=principal,
        spectrum=spectrum,
        fundamentals=None,
    )


@dataclass(frozen=True)
class PayoffTable:
    """Expected costs over all combinations of per-agent venue choices.

    ``costs[o_1, ..., o_J, j]`` is agent j's expected cost when each agent i
    trades with its ``o_i``-th mask option. ``equilibrium[o_1, ..., o_J]``
    flags the combinations no agent leaves unilaterally. Each agent's
    candidate strategy for a mask option comes from the game where all agents
    share that mask; the diagonal cells are therefore genuine equilibria and
    the off-diagonal cells cross those candidate strategies.
    """

    mask_options: Tuple[Tuple[np.ndarray, ...], ...]
    costs: np.ndarray
    equilibrium: np.ndarray


def payoff_matrix(
    base: GameSpec,
    mask_options: Sequence[Sequence[np.ndarray]],
    tol: float = 1e-12,
) -> PayoffTable:
    """Meta-game payoff table over per-agent tradable-asset choices.

    Parameters
    ----------
    base : the game every cell shares (fees, scales, priority, inventories).
    mask_options : for each agent, the list of candidate masks (length-M
        boolean vectors). Each distinct mask must admit the uniform game in
        which every agent is restricted to it.

    An agent's expected cost is its own-cost term plus one cross-cost term
    per other agent, and each term depends on the options of at most two
    agents. Every (agent, option) own term and every (agent, option, other
    agent, option) cross term is evaluated once, and each cell sums its terms
    in the order of :func:`expected_cost`, so the table equals per-cell
    ``expected_cost`` bit for bit. As a guard, the first and the last cell are
    priced with ``expected_cost``; if either differs by more than 1e-12
    relative, every cell is priced that way instead.
    """
    n_agents = base.n_agents
    if len(mask_options) != n_agents:
        raise ValueError("need one mask-option list per agent")
    options = tuple(
        tuple(_boolean_mask(mask) for mask in per_agent) for per_agent in mask_options
    )
    for per_agent in options:
        if not per_agent:
            raise ValueError("each agent needs at least one mask option")
        for mask in per_agent:
            if mask.shape != (base.n_assets,):
                raise ValueError("each mask option must be a length-M vector")

    def uniform_game(mask: np.ndarray) -> np.ndarray:
        spec = replace(base, mask=np.repeat(mask[:, None], n_agents, axis=1))
        return solve_hetero_nash(spec).strategies

    candidate_cache: dict[bytes, np.ndarray] = {}
    candidates: List[List[np.ndarray]] = []
    for j, per_agent in enumerate(options):
        per_candidates = []
        for mask in per_agent:
            key = mask.tobytes()
            if key not in candidate_cache:
                candidate_cache[key] = uniform_game(mask)
            per_candidates.append(candidate_cache[key][:, j, :])
        candidates.append(per_candidates)

    shape = tuple(len(per_agent) for per_agent in options)
    q = base.cross_impact
    bundle = build_matrices(base.grid, base.effective_kernel)
    volumes = [[base.scales[j] * candidate for candidate in candidates[j]] for j in range(n_agents)]
    own = [
        [own_cost_term(q, bundle.kernel_matrix, base.thetas[j], volume) for volume in volumes[j]]
        for j in range(n_agents)
    ]
    cross = {}
    for j, l in product(range(n_agents), repeat=2):
        if j != l:
            matrix = priority_cross(bundle, base.priority[j, l])
            cross[j, l] = [
                [cross_cost_term(q, matrix, a, b) for b in volumes[l]] for a in volumes[j]
            ]

    costs = np.empty(shape + (n_agents,))
    for combo in product(*(range(k) for k in shape)):
        for j in range(n_agents):
            cost = own[j][combo[j]]
            for l in range(n_agents):
                if l != j:
                    cost += cross[j, l][combo[j]][combo[l]]
            costs[combo + (j,)] = cost

    def priced(combo):
        strategies = np.stack([candidates[j][combo[j]] for j in range(n_agents)], axis=1)
        return [expected_cost(base, strategies, j) for j in range(n_agents)]

    corners = {tuple(0 for _ in shape), tuple(k - 1 for k in shape)}
    if not all(np.allclose(costs[c], priced(c), rtol=1e-12, atol=0.0) for c in corners):
        for combo in product(*(range(k) for k in shape)):
            costs[combo] = priced(combo)

    nash = np.zeros(shape, dtype=bool)
    for combo in product(*(range(k) for k in shape)):
        best = True
        for j in range(n_agents):
            here = costs[combo + (j,)]
            for alt in range(shape[j]):
                if alt == combo[j]:
                    continue
                other = combo[:j] + (alt,) + combo[j + 1 :]
                if costs[other + (j,)] < here - tol * max(abs(here), 1.0):
                    best = False
                    break
            if not best:
                break
        nash[combo] = best
    return PayoffTable(mask_options=options, costs=costs, equilibrium=nash)
