"""Equilibria for heterogeneous risk-neutral games via stacked first-order conditions.

:func:`solve` is the entry point for every game: identical agents take the
closed form of :mod:`equilibrium`, all others the stacked system here.

Heterogeneity covers per-agent quadratic fees, per-agent impact scales,
pairwise execution-priority probabilities, and per-agent tradable-asset
masks. The game is linear-quadratic, so the stationarity conditions of all
agents plus their inventory constraints form one linear system; no
best-response iteration is involved. That system has one layout, fixed by
:func:`assemble_equilibrium_system`: the strategy coordinates ordered by
trading time, then by (agent, tradable asset), and the multipliers last (see
:class:`KktSystem` for why). When every agent trades the same assets, each
block of that system is a Kronecker product with the tradable block of the
cross-impact matrix Q, so it splits exactly into one single-asset system per
distinct eigenvalue of that block; the split is
:func:`equilibrium.principal_groups`, the one the closed form uses. Other
games solve the stacked system as one dense solve, whose result is checked
against the game's conditions as well.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Sequence, Tuple

import numpy as np

from ._linalg import NumericError, _boolean_mask, guarded_solve, single_blas_thread
from .costs import (
    cross_cost_term,
    expected_cost,
    own_cost_term,
    priority_cross,
    stationarity_residual,
)
from .cross_impact import SpectralReport, analyze_cross_impact
from .equilibrium import (
    _SHARE_TOL,
    Equilibrium,
    GameSpec,
    closed_form_equilibrium,
    principal_groups,
)
from .kernels import build_matrices

__all__ = [
    "solve",
    "KktSystem",
    "assemble_equilibrium_system",
    "solve_hetero_nash",
    "PayoffTable",
    "payoff_matrix",
]

# a payoff cell is an equilibrium unless another option lowers some agent's
# cost there by more than this fraction of the cost's magnitude, or of 1
_NASH_TOL = 1e-12

# (eigenvalue, unit responses) of the principal systems solved so far inside
# _shared_responses, None outside it
_RESPONSES: ContextVar = ContextVar("_RESPONSES", default=None)


@dataclass(frozen=True)
class KktSystem:
    """Stacked stationarity-plus-constraint system of the heterogeneous game.

    Variables are in time-major order. With P (agent, tradable asset) pairs
    in the order of ``np.nonzero(mask.T)``, agent by agent and within an
    agent by asset, pair p's strategy coordinate at trading time t is
    variable ``t * P + p``, so the first ``(N + 1) * P`` variables reshape to
    [time, pair]; pair p's inventory multiplier is variable ``(N + 1) * P + p``.
    Partial pivoting needs this order: on a 6-agent, 121-time single-asset
    system it grew the entries by 3.3, against 7e11 with each agent's
    variables kept together, whose solve then missed its inventories by 2e-3.
    """

    matrix: np.ndarray
    rhs: np.ndarray


def assemble_equilibrium_system(spec: GameSpec) -> KktSystem:
    """Build the dense linear system whose solution is the Nash equilibrium."""
    q = spec.cross_impact
    bundle = build_matrices(spec.grid, spec.effective_kernel)
    n = spec.grid.n_points

    active = [np.flatnonzero(spec.mask[:, j]) for j in range(spec.n_agents)]
    first = np.cumsum([0] + [assets.size for assets in active])  # agent j owns pairs first[j]...
    n_pairs = int(first[-1])
    blocks = np.zeros((n_pairs, n + 1, n_pairs, n + 1))  # the multipliers as the last "time"
    for j, assets_j in enumerate(active):
        s_j = spec.scales[j]
        for l, assets_l in enumerate(active):
            if l == j:
                block = s_j**2 * np.kron(q[np.ix_(assets_j, assets_j)], bundle.kernel_matrix)
                block += 2.0 * spec.thetas[j] * s_j**2 * np.eye(len(block))
            else:
                cross = priority_cross(bundle, spec.priority[j, l])
                block = s_j * spec.scales[l] * np.kron(q[np.ix_(assets_j, assets_l)], cross)
            blocks[first[j] : first[j + 1], :n, first[l] : first[l + 1], :n] = block.reshape(
                assets_j.size, n, assets_l.size, n
            )
    pairs = np.arange(n_pairs)
    blocks[pairs, :n, pairs, n] = -1.0  # stationarity: gradient equals multiplier
    blocks[pairs, n, pairs, :n] = 1.0  # constraint: orders sum to the inventory
    # one copy into time-major order, [time, pair, time, pair]; filled pair by
    # pair, each block above is written in contiguous runs along time
    size = (n + 1) * n_pairs
    matrix = blocks.transpose(1, 0, 3, 2).reshape(size, size)
    rhs = np.zeros((n + 1, n_pairs))
    rhs[n] = spec.inventories.T[spec.mask.T]  # pairs in agent-major order
    return KktSystem(matrix=matrix, rhs=rhs.ravel())


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

    The result must pass :func:`_is_equilibrium`, or NumericError is raised.
    """
    system = assemble_equilibrium_system(spec)
    solution = _solve_kkt(system.matrix, system.rhs, "stacked system")
    n = spec.grid.n_points
    agents, assets = np.nonzero(spec.mask.T)  # the pairs, in the system's order
    strategies = np.zeros((spec.n_assets, spec.n_agents, n))
    strategies[assets, agents] = solution[: n * agents.size].reshape(n, agents.size).T
    if not _is_equilibrium(spec, strategies):
        raise NumericError(
            "no unique equilibrium: the stacked solve misses the inventory or "
            "first-order conditions"
        )
    return strategies


def _solve_principal(spec: GameSpec, assets: np.ndarray) -> Tuple[np.ndarray, SpectralReport]:
    """Strategies of a game in which every agent trades exactly ``assets``, and Q_SS's spectrum.

    Every block of the stacked system is ``kron(Q_SS, .)`` on the tradable
    set S, so rotating each agent's strategy by the eigenvectors V of
    ``Q_SS = V diag(lam) V^T`` turns it into ``kron(diag(lam), .)``: principal
    asset k is the single-asset game with cross impact ``lam[k]`` and the
    rotated inventories ``V^T inv_S``. The split is :func:`principal_groups`.
    The system is linear in the inventories, so a group's strategies are its
    system's responses to each agent's unit inventory (see
    :func:`_unit_responses`) times the group's rotated inventories. The
    solves run on one BLAS thread (see :func:`single_blas_thread`).
    """
    spectrum, _, groups = principal_groups(spec.cross_impact[np.ix_(assets, assets)])
    lam, vec = spectrum.eigenvalues, spectrum.eigenvectors
    principal_inv = vec.T @ spec.inventories[assets]
    n, n_agents = spec.grid.n_points, spec.n_agents
    principal = np.empty((assets.size, n_agents, n))
    with single_blas_thread():
        for members in groups:
            response = _unit_responses(spec, float(lam[members[0]]))
            # one pair per agent: [time, agent, member]
            solution = response[: n * n_agents] @ principal_inv[members].T
            principal[members] = solution.reshape(n, n_agents, -1).T
    strategies = np.zeros((spec.n_assets, n_agents, n))
    strategies[assets] = np.einsum("ik,kjt->ijt", vec, principal)
    return strategies, spectrum


def _unit_responses(spec: GameSpec, eigenvalue: float) -> np.ndarray:
    """Solutions of one principal-asset system, one column per agent's unit inventory.

    The system is that of the single-asset game with cross impact
    ``eigenvalue`` and the grid, kernel, fees, scales and priority of
    ``spec``; column j has agent j's inventory 1 and the others 0. Inside
    :func:`_shared_responses`, a system whose eigenvalue agrees with an
    earlier one's within ``_SHARE_TOL`` of the larger magnitude is not solved
    again: its earlier responses are returned.
    """
    shared = _RESPONSES.get()
    for known, response in shared or ():
        if abs(known - eigenvalue) <= _SHARE_TOL * max(abs(known), abs(eigenvalue)):
            return response
    single = replace(
        spec, cross_impact=np.array([[eigenvalue]]), inventories=None, covariance=None, mask=None
    )
    system = assemble_equilibrium_system(single)
    n_agents = spec.n_agents
    rhs = np.zeros((len(system.matrix), n_agents))
    rhs[-n_agents:] = np.eye(n_agents)  # one multiplier row per agent, last
    response = _solve_kkt(
        system.matrix, rhs, f"principal-asset system (eigenvalue {eigenvalue:.6e})"
    )
    if shared is not None:
        shared.append((eigenvalue, response))
    return response


@contextmanager
def _shared_responses():
    """Share the principal systems' unit responses among the solves of the block.

    Only for solves of games that differ in their masks alone, so that a
    principal system is fixed by its eigenvalue. The responses are dropped
    when the block exits; the sharing is private to the thread (a context
    variable).
    """
    token = _RESPONSES.set([])
    try:
        yield
    finally:
        _RESPONSES.reset(token)


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
    (see :func:`_solve_stacked`), or NumericError is raised. When the split
    covers every asset, its spectrum is the returned one, so Q is
    diagonalised once. ValueError for a risk-averse game, whose variance term
    this solver does not model.
    """
    if spec.gamma > 0.0:
        raise ValueError("the stacked solver is risk neutral; use solve for gamma > 0")
    strategies = spectrum = None
    traded = spec.mask.all(axis=1)
    if spec.n_assets > 1 and traded.any() and np.array_equal(traded, spec.mask.any(axis=1)):
        strategies, split = _solve_principal(spec, np.flatnonzero(traded))
        if traded.all():
            spectrum = split  # Q_SS is Q, and the split does not rotate it
        if not _is_equilibrium(spec, strategies):
            strategies = None
    if strategies is None:
        strategies = _solve_stacked(spec)
    if spectrum is None:
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
) -> PayoffTable:
    """Meta-game payoff table over per-agent tradable-asset choices.

    Parameters
    ----------
    base : the game every cell shares (fees, scales, priority, inventories).
    mask_options : for each agent, the list of candidate masks (length-M
        boolean vectors). Each distinct mask must admit the uniform game in
        which every agent is restricted to it.

    Each distinct mask's uniform game is solved once by
    :func:`solve_hetero_nash`. Those games differ only in their masks, so
    their principal-asset systems are fixed by the eigenvalue: each distinct
    one is factored once per table, and the games that share it use its
    responses to unit inventories (see :func:`_unit_responses`). Nothing of
    that outlives the call.

    An agent's expected cost is its own-cost term plus one cross-cost term
    per other agent, and each term depends on the options of at most two
    agents. Every (agent, option) own term and every (agent, option, other
    agent, option) cross term is evaluated once, and the cells sum them as
    arrays over the option grid in the order of :func:`expected_cost`, so the
    table equals per-cell ``expected_cost`` bit for bit. As a guard, the
    first and the last cell are priced with ``expected_cost``; if either
    differs by more than 1e-12 relative, every cell is priced that way
    instead.
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

    distinct = {mask.tobytes(): mask for per_agent in options for mask in per_agent}
    with _shared_responses():  # the uniform games differ in their masks alone
        uniform = {
            key: solve_hetero_nash(replace(base, mask=np.repeat(mask[:, None], n_agents, axis=1)))
            for key, mask in distinct.items()
        }
    candidates = [
        [uniform[mask.tobytes()].strategies[:, j, :] for mask in per_agent]
        for j, per_agent in enumerate(options)
    ]

    shape = tuple(len(per_agent) for per_agent in options)
    q = base.cross_impact
    bundle = build_matrices(base.grid, base.effective_kernel)
    volumes = [[base.scales[j] * candidate for candidate in candidates[j]] for j in range(n_agents)]
    option = np.indices(shape)  # option[j] is agent j's option in every cell
    costs = np.empty(shape + (n_agents,))
    for j in range(n_agents):
        own = [own_cost_term(q, bundle.kernel_matrix, base.thetas[j], v) for v in volumes[j]]
        costs[..., j] = np.array(own)[option[j]]
        for l in range(n_agents):
            if l != j:
                matrix = priority_cross(bundle, base.priority[j, l])
                cross = [[cross_cost_term(q, matrix, a, b) for b in volumes[l]] for a in volumes[j]]
                costs[..., j] += np.array(cross)[option[j], option[l]]

    def priced(combo):
        strategies = np.stack([candidates[j][combo[j]] for j in range(n_agents)], axis=1)
        return [expected_cost(base, strategies, j) for j in range(n_agents)]

    corners = {tuple(0 for _ in shape), tuple(k - 1 for k in shape)}
    if not all(np.allclose(costs[c], priced(c), rtol=1e-12, atol=0.0) for c in corners):
        for combo in np.ndindex(shape):
            costs[combo] = priced(combo)

    return PayoffTable(mask_options=options, costs=costs, equilibrium=_equilibrium_cells(costs))


def _equilibrium_cells(costs: np.ndarray) -> np.ndarray:
    """Flags of the cells of ``costs[o_1, ..., o_J, j]`` that no agent leaves unilaterally."""
    nash = np.ones(costs.shape[:-1], dtype=bool)
    for j in range(costs.shape[-1]):
        here = costs[..., j]
        best = here.min(axis=j, keepdims=True)  # agent j's best reply to the others' options
        nash &= best >= here - _NASH_TOL * np.maximum(np.abs(here), 1.0)
    return nash
