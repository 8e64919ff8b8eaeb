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
:func:`equilibrium.principal_groups`, the one the closed form uses. Each
single-asset system is solved in structured form, by block back substitution
over the times and an (N + 1)-dimensional correction, without forming its
matrix (:class:`_PrincipalSystem`); the assembled system and a dense solve
are the reference, and the fallback when the structured solve cannot vouch
for its condition or its backward error. Other games solve the stacked system
as one dense solve, whose result is checked against the game's conditions as
well.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from ._linalg import (
    MAX_CONDITION,
    ArgumentError,
    NumericError,
    _backward_stable,
    _boolean_mask,
    _floor_bounded,
    guarded_solve,
    single_blas_thread,
)
from .costs import (
    _stationarity_residual,
    cross_cost_term,
    expected_cost,
    own_cost_term,
    priority_cross,
)
from .cross_impact import SpectralReport, analyze_cross_impact
from .equilibrium import (
    _SHARE_TOL,
    Equilibrium,
    GameSpec,
    _unit_floor,
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
                block.flat[:: len(block) + 1] += 2.0 * spec.thetas[j] * s_j**2
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
            f"no unique equilibrium: {name} is singular or near-singular ({exc.reason})",
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
    ``spec``; column j has agent j's inventory 1 and the others 0. It is
    solved in structured form (:class:`_PrincipalSystem`) and, when that
    declines, assembled and solved densely (:func:`_dense_responses`). Inside
    :func:`_shared_responses`, a system whose eigenvalue agrees with an
    earlier one's within ``_SHARE_TOL`` of the larger magnitude is not solved
    again: its earlier responses are returned.
    """
    shared = _RESPONSES.get()
    for known, response in shared or ():
        if abs(known - eigenvalue) <= _SHARE_TOL * max(abs(known), abs(eigenvalue)):
            return response
    response = _PrincipalSystem(spec, eigenvalue).solve()
    if response is None:
        response = _dense_responses(spec, eigenvalue)
    if shared is not None:
        shared.append((eigenvalue, response))
    return response


def _dense_responses(spec: GameSpec, eigenvalue: float) -> np.ndarray:
    """:func:`_unit_responses` from the assembled system and :func:`guarded_solve`."""
    single = replace(
        spec, cross_impact=np.array([[eigenvalue]]), inventories=None, covariance=None, mask=None
    )
    system = assemble_equilibrium_system(single)
    n_agents = spec.n_agents
    rhs = np.zeros((len(system.matrix), n_agents))
    rhs[-n_agents:] = np.eye(n_agents)  # one multiplier row per agent, last
    return _solve_kkt(system.matrix, rhs, f"principal-asset system (eigenvalue {eigenvalue:.6e})")


class _PrincipalSystem:
    """One principal-asset system of :func:`_unit_responses`, solved without its matrix.

    With n = N + 1 times, L the strict lower kernel part, s the scales, Pb
    the priority with a unit diagonal and ``kron(time, agent)`` products in
    time-major order, the strategy block at eigenvalue lam is
    ``A = kron(I, T0) + lam kron(L^T, diag(s^2)) + lam kron(L, s s^T)``
    with ``T0 = lam g0 (s s^T * Pb) + diag(2 theta s^2)``, and the system is
    ``[[A, -E], [E^T, 0]]`` with ``E = kron(1, I)``. U, the first two terms
    of A, is block upper triangular: U^-1 is a back substitution over the
    times with T0's inverse, one column of L per step. With
    ``P = kron(I, s)``, ``A = U + lam P L P^T``, so ``A^-1 E`` follows from
    ``U^-1 [P | E]`` and one n-dimensional system
    ``(I + lam W L) z = P^T U^-1 E`` with ``W = P^T U^-1 P`` (Hager, SIAM
    Review 1989). The multipliers are ``S^-1`` for ``S = E^T A^-1 E``, from
    :func:`guarded_solve`, and the strategies ``A^-1 E S^-1``: O(n^2 J (n + J))
    flops, and no matrix of the system's size.

    The symmetric part of A is
    ``lam D kron(K, (1 1^T + I) / 2) D + kron(I, diag(2 theta s^2))`` with
    ``D = kron(I, diag(s))`` and K the kernel matrix, so ``floor``, from
    :func:`equilibrium._unit_floor` and lowered by ``dim eps ||A||`` for
    rounding, bounds its smallest eigenvalue from below (lam >= 0), and
    ``||A^-1||_2 <= 1 / floor``. That, ``||E||_2 = sqrt(n)`` and
    ``||S^-1||_2`` bound the 2-norms of the blocks of the system's inverse,
    whose 2x2 matrix of norms bounds its 2-norm through the Frobenius norm;
    times ``sqrt(dim)`` and the system's 1-norm ``norm_1``, in closed form
    from the column sums of L, that bounds its 1-norm condition number.
    :meth:`solve` keeps a solution only when that bound is within
    ``MAX_CONDITION`` (checked first from the floor alone, by ``_floor_bounded``)
    and ``_backward_stable`` passes in every column. The bound is at least the
    condition number, which is at least LAPACK's estimate, so the path
    declines wherever :func:`guarded_solve` would raise.
    """

    def __init__(self, spec: GameSpec, eigenvalue: float):
        bundle = build_matrices(spec.grid, spec.effective_kernel)
        g0, lower, scales = bundle.kernel_at_zero, bundle.strict_lower, spec.scales
        n, n_agents = spec.grid.n_points, spec.n_agents
        fees = 2.0 * spec.thetas * scales**2
        priority = spec.priority.copy()
        np.fill_diagonal(priority, 1.0)
        self.eigenvalue, self.lower, self.scales = eigenvalue, lower, scales
        self.t0 = eigenvalue * g0 * np.outer(scales, scales) * priority + np.diag(fees)
        # the strategy block's column and row sums, [time, agent]; its entries
        # are nonnegative for lam >= 0, the only eigenvalues solve() takes
        column_sums, row_sums = lower.sum(axis=0), lower.sum(axis=1)
        cross, own = eigenvalue * scales * scales.sum(), eigenvalue * scales**2
        block_1 = np.outer(column_sums, cross) + np.outer(row_sums, own) + self.t0.sum(axis=0)
        block_inf = np.outer(row_sums, cross) + np.outer(column_sums, own) + self.t0.sum(axis=1)
        self.dim = (n + 1) * n_agents
        # each strategy row and column also holds one entry of E; E's hold n
        self.norm_1 = max(float(block_1.max()) + 1.0, float(n))
        self.norm_inf = max(float(block_inf.max()) + 1.0, float(n))
        rounding = self.dim * np.finfo(float).eps * max(block_1.max(), block_inf.max())
        unit_floor = _unit_floor(spec.kernel, float(np.diff(spec.grid.points).min()))
        self.floor = (
            0.5 * eigenvalue * (scales**2).min() * g0 * unit_floor + fees.min() - rounding
        )

    def solve(self) -> Optional[np.ndarray]:
        """Unit responses in the layout of the assembled system, or None when declined."""
        lam, lower, s, n_agents = self.eigenvalue, self.lower, self.scales, len(self.scales)
        n = len(lower)
        # the floor alone bounds the condition bound below: past the cap, skip the solve
        if not (lam >= 0.0 and _floor_bounded(self.dim, self.norm_1, self.floor, 0.0)):
            return None
        # U^-1 [P | E] by back substitution over the times, [time, agent, column]:
        # block t is T0^-1 [P | E]_t - lam T0^-1 diag(s^2) sum_(u > t) L[u, t] block u
        inverse = np.linalg.inv(self.t0)  # regular: its symmetric part is above the floor
        coupling = inverse * (lam * s**2)
        solved = np.zeros((n, n_agents, n + n_agents))
        solved[np.arange(n), :, np.arange(n)] = inverse @ s
        solved[:, :, n:] = inverse
        flat = solved.reshape(n, -1)
        for t in range(n - 2, -1, -1):
            solved[t] -= coupling @ (lower[t + 1 :, t] @ flat[t + 1 :]).reshape(solved[t].shape)
        on_p, on_e = solved[:, :, :n], solved[:, :, n:]
        w = np.einsum("j,tju->tu", s, on_p)
        # regular, as A and U are: det(A) = det(U) det(I + lam W L)
        z = np.linalg.solve(np.eye(n) + lam * (w @ lower), np.einsum("j,tjk->tk", s, on_e))
        strategies = on_e - lam * (on_p.reshape(-1, n) @ (lower @ z)).reshape(on_e.shape)
        try:
            multipliers = guarded_solve(strategies.sum(axis=0), np.eye(n_agents))
        except NumericError:
            return None
        # ||A^-1|| <= a, ||E|| = sqrt(n) and ||S^-1|| = sigma bound the inverse's blocks
        a, sigma = 1.0 / self.floor, float(np.linalg.norm(multipliers, 2))
        corner, side = a + a * a * n * sigma, a * np.sqrt(n) * sigma
        inverse_2 = np.sqrt(corner**2 + 2.0 * side**2 + sigma**2)
        if not self.norm_1 * np.sqrt(self.dim) * inverse_2 <= MAX_CONDITION:
            return None
        strategies = strategies @ multipliers
        stationarity = self._strategy_product(strategies) - multipliers
        constraint = strategies.sum(axis=0) - np.eye(n_agents)
        residual = np.concatenate([stationarity.reshape(-1, n_agents), constraint])
        response = np.concatenate([strategies.reshape(-1, n_agents), multipliers])
        # the right side: zero on the strategy rows, the identity on the multiplier rows
        stable = _backward_stable(residual, response, np.eye(n_agents), self.norm_inf, 0.0)
        return response if stable else None

    def _strategy_product(self, strategies: np.ndarray) -> np.ndarray:
        """``A x`` for columns x in [time, agent, column] layout."""
        lam, lower, s = self.eigenvalue, self.lower, self.scales
        n = len(lower)
        product = np.matmul(self.t0, strategies)
        later = (lower.T @ strategies.reshape(n, -1)).reshape(strategies.shape)
        product += (lam * s**2)[:, None] * later
        earlier = lower @ np.einsum("j,tjc->tc", s, strategies)
        product += lam * s[:, None] * earlier[:, None, :]
        return product


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
    """Whether strategies meet every inventory and first-order condition of ``spec``.

    Every agent's residual is taken from one matrix bundle.
    """
    scale = max(float(np.abs(spec.inventories).max()), 1.0)
    conservation = np.abs(strategies.sum(axis=2) - spec.inventories).max()
    if not conservation <= 1e-11 * scale:
        return False
    bundle = build_matrices(spec.grid, spec.effective_kernel)
    return all(
        _stationarity_residual(spec, strategies, j, bundle) <= 1e-9 * scale
        for j in range(spec.n_agents)
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

    When every agent trades the same nonempty set of assets (one asset
    included), the game is solved one principal asset of that set's
    cross-impact block at a time (see :func:`_solve_principal`), with one
    ``J (N + 2)``-dimensional system per distinct eigenvalue, solved in
    structured form (see :func:`_unit_responses`). The rotated-back
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
    if traded.any() and np.array_equal(traded, spec.mask.any(axis=1)):
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
    one is solved once per table, and the games that share it use its
    responses to unit inventories (see :func:`_unit_responses`). Nothing of
    that outlives the call.

    An agent's expected cost is its own-cost term plus one cross-cost term
    per other agent, and each term depends on the options of at most two
    agents. Every (agent, option) own term and lagged volume, and every
    (agent, option, other agent, option) cross term is evaluated once, and
    the cells sum them as arrays over the option grid in the order of
    :func:`expected_cost`, so the table equals per-cell ``expected_cost``
    bit for bit. As a guard, the first and the last cell are priced with
    ``expected_cost``; if either differs by more than 1e-12 relative, every
    cell is priced that way instead.
    """
    n_agents = base.n_agents
    if len(mask_options) != n_agents:
        raise ArgumentError("mask_options", "need one mask-option list per agent")
    options = tuple(
        tuple(_boolean_mask("mask_options", mask) for mask in masks) for masks in mask_options
    )
    for per_agent in options:
        if not per_agent:
            raise ArgumentError("mask_options", "each agent needs at least one mask option")
        for mask in per_agent:
            if mask.shape != (base.n_assets,):
                raise ArgumentError("mask_options", "each mask option must be a length-M vector")

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
        lagged = [v @ bundle.strict_lower for v in volumes[j]]
        for l in range(n_agents):
            if l != j:
                weight = base.priority[j, l] * bundle.kernel_at_zero
                cross = [
                    [cross_cost_term(q, weight, a, lagged_a, b) for b in volumes[l]]
                    for a, lagged_a in zip(volumes[j], lagged)
                ]
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
