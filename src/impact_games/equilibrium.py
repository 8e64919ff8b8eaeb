"""The game spec, and closed-form Nash equilibria when its agents are identical.

The cross-impact matrix is diagonalized, each principal (eigenvector-rotated)
asset becomes an independent single-asset game whose kernel is the original
kernel times the eigenvalue, and every agent's strategy is a combination of
two normalized profiles per principal asset: one carried by the average
inventory, one by the deviation from it.

:func:`principal_groups` makes that split for every consumer: the closed form
here, the prepared stability probes of :mod:`stability`, and the
heterogeneous split of :mod:`hetero` (on the tradable block of Q). It returns
the spectrum, the variance rates and the groups of principal assets that
share one solve. The closed form and the heterogeneous split run their
per-group solves on one BLAS thread, as :func:`stability.critical_theta`
runs its probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ._linalg import (
    ArgumentError,
    _boolean_mask,
    _finite,
    _symmetric,
    guarded_solve,
    single_blas_thread,
)
from .cross_impact import SpectralReport, analyze_cross_impact
from .kernels import DecayKernel, MatrixBundle, TimeGrid, build_matrices

__all__ = [
    "GameSpec",
    "FundamentalSolutions",
    "Equilibrium",
    "profile_systems",
    "fundamental_solutions",
    "principal_groups",
    "principal_bundles",
    "principal_fundamentals",
    "closed_form_equilibrium",
    "aggregate_flow_is_zero",
    "arbitrageur_is_idle",
]

_COMMUTE_TOL = 1e-9
# principal assets whose eigenvalues (and, when gamma > 0, variance rates)
# agree within this fraction of the largest one share one solve; eigh spreads
# a repeated eigenvalue over about 1e-14 relative
_SHARE_TOL = 1e-12


@dataclass(frozen=True)
class GameSpec:
    """A market impact game of J agents trading M assets.

    Parameters
    ----------
    grid, kernel : trading grid and (unscaled) decay kernel.
    cross_impact : symmetric (M, M) matrix mapping aggregate order flow per
        asset to price displacement across assets.
    inventories : (M, n_agents) array, positive entries are sells; zeros when
        omitted (enough for stability analysis, which only needs dimensions).
    n_agents : number of agents; inferred from ``inventories`` when omitted.
    theta : quadratic fee parameter, >= 0: one float shared by every agent
        (stored as a float) or a length-J vector of per-agent fees. The fee
        applies to the agent's impact volume (share volume times its scale),
        which makes a reduced impact scale behave exactly like trading a
        proportionally smaller inventory.
    gamma : risk-aversion parameter of the mean-variance objective, >= 0;
        positive only with identical agents.
    beta : crowding exponent; every consumer scales the kernel by
        ``n_agents ** -beta`` (see :attr:`effective_kernel`).
    covariance : (M, M) covariance rate of the Bachelier unaffected price;
        zero when omitted. Must commute with ``cross_impact`` when gamma > 0.
    scales : per-agent impact scales, > 0; ones when omitted. An agent's
        share volume is multiplied by its scale wherever it hits the price;
        per-agent crowding exponents are expressed as ``n_agents ** -beta_j``
        here.
    priority : (J, J) matrix, ``priority[j, l]`` is the probability that agent
        l executes before agent j at a shared trading time. Off-diagonal
        entries must pair up to one; 1/2 everywhere is the fair game. A scalar
        is broadcast to all pairs.
    mask : (M, J) array of tradable assets with bool or 0/1 entries;
        inventories must vanish on masked entries. Full when omitted.

    An invalid argument raises an ``ArgumentError``, a ValueError naming it.
    """

    grid: TimeGrid
    kernel: DecayKernel
    cross_impact: np.ndarray
    inventories: Optional[np.ndarray] = None
    n_agents: Optional[int] = None
    theta: Union[float, np.ndarray] = 0.0
    gamma: float = 0.0
    beta: float = 0.0
    covariance: Optional[np.ndarray] = None
    scales: Optional[np.ndarray] = None
    priority: Union[float, np.ndarray] = 0.5
    mask: Optional[np.ndarray] = None

    def __post_init__(self):
        q = np.asarray(self.cross_impact, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ArgumentError("cross_impact", "cross_impact must be a square matrix")
        _finite("cross_impact", q)
        _symmetric("cross_impact", q)
        object.__setattr__(self, "cross_impact", q)

        m = q.shape[0]
        inv = self.inventories
        if inv is None:
            if self.n_agents is None:
                raise ArgumentError("n_agents", "provide inventories or n_agents")
            inv = np.zeros((m, int(self.n_agents)))
        inv = np.atleast_2d(np.asarray(inv, dtype=float))
        _finite("inventories", inv)
        if inv.shape[0] != m:
            raise ArgumentError(
                "inventories",
                f"inventories have {inv.shape[0]} asset rows, cross_impact is {m}x{m}",
            )
        if self.n_agents is not None and inv.shape[1] != self.n_agents:
            raise ArgumentError("n_agents", "n_agents disagrees with the inventory column count")
        object.__setattr__(self, "inventories", inv)
        n_agents = inv.shape[1]
        object.__setattr__(self, "n_agents", n_agents)
        if n_agents < 1:
            raise ArgumentError("n_agents", "need at least one agent")

        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim and theta.shape != (n_agents,):
            raise ArgumentError("theta", "theta must be a scalar or one fee per agent")
        for name, value in (("theta", theta), ("gamma", self.gamma), ("beta", self.beta)):
            value = np.asarray(value, dtype=float)
            if value.ndim and name != "theta":
                raise ArgumentError(name, f"{name} must be a scalar")
            if not (np.all(np.isfinite(value)) and np.all(value >= 0.0)):
                raise ArgumentError(name, f"{name} must be finite and nonnegative")
        object.__setattr__(self, "theta", theta.copy() if theta.ndim else float(theta))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "beta", float(self.beta))

        scales = np.ones(n_agents) if self.scales is None else self.scales
        scales = np.broadcast_to(np.asarray(scales, dtype=float), (n_agents,)).copy()
        _finite("scales", scales)
        if np.any(scales <= 0.0):
            raise ArgumentError("scales", "per-agent impact scales must be positive")
        object.__setattr__(self, "scales", scales)

        prio = np.asarray(self.priority, dtype=float)
        _finite("priority", prio)
        if prio.ndim == 0:
            prio = np.full((n_agents, n_agents), float(prio))
            np.fill_diagonal(prio, 0.0)
        if prio.shape != (n_agents, n_agents):
            raise ArgumentError("priority", "priority must be scalar or a (J, J) matrix")
        if np.any(prio < 0.0) or np.any(prio > 1.0):
            raise ArgumentError("priority", "priority probabilities must lie in [0, 1]")
        off = ~np.eye(n_agents, dtype=bool)
        if n_agents > 1 and np.abs((prio + prio.T)[off] - 1.0).max() > 1e-12:
            raise ArgumentError(
                "priority", "priority[j, l] + priority[l, j] must equal 1 for j != l"
            )
        object.__setattr__(self, "priority", prio)

        mask = np.ones(inv.shape, dtype=bool) if self.mask is None else _boolean_mask(self.mask)
        if mask.shape != inv.shape:
            raise ArgumentError("mask", "mask must have the same shape as the inventories")
        if np.any((inv != 0.0) & ~mask):
            raise ArgumentError("mask", "inventories must be zero on untradable assets")
        object.__setattr__(self, "mask", mask)

        if self.gamma > 0.0 and not self.identical_agents:
            raise ArgumentError("gamma", "risk aversion is only supported with identical agents")
        if self.covariance is not None:
            sigma = np.asarray(self.covariance, dtype=float)
            if sigma.shape != q.shape:
                raise ArgumentError("covariance", "covariance must match the cross-impact shape")
            _finite("covariance", sigma)
            _symmetric("covariance", sigma)
            if np.min(np.linalg.eigvalsh(sigma)) < -1e-10 * max(np.abs(sigma).max(), 1.0):
                raise ArgumentError("covariance", "covariance must be positive semidefinite")
            object.__setattr__(self, "covariance", sigma)
            if self.gamma > 0.0:
                comm = np.linalg.norm(q @ sigma - sigma @ q)
                bound = _COMMUTE_TOL * max(np.linalg.norm(q) * np.linalg.norm(sigma), 1e-300)
                if comm > bound:
                    raise ArgumentError(
                        "covariance",
                        "cross-impact and covariance matrices must commute when "
                        "risk aversion is positive (their eigenbases must agree)"
                    )

    @property
    def n_assets(self) -> int:
        return self.cross_impact.shape[0]

    @property
    def thetas(self) -> np.ndarray:
        """Per-agent fees as a length-J vector."""
        return np.broadcast_to(self.theta, (self.n_agents,))

    @property
    def identical_agents(self) -> bool:
        """Equal fees, equal scales, fair priority and a full mask."""
        fair = np.full((self.n_agents, self.n_agents), 0.5)
        np.fill_diagonal(fair, 0.0)
        return bool(
            np.all(self.thetas == self.thetas[0])
            and np.all(self.scales == self.scales[0])
            and np.array_equal(self.priority, fair)
            and self.mask.all()
        )

    @property
    def effective_kernel(self) -> DecayKernel:
        """Kernel with the crowding scale ``n_agents ** -beta`` folded in."""
        if self.beta == 0.0:
            return self.kernel
        return self.kernel.scaled(float(self.n_agents) ** (-self.beta))


@dataclass(frozen=True)
class FundamentalSolutions:
    """Normalized profiles spanning all equilibrium strategies of one asset.

    ``mean_profile`` multiplies the average inventory, ``deviation_profile``
    the deviation from it; both sum to one.
    """

    mean_profile: np.ndarray
    deviation_profile: np.ndarray


def profile_systems(bundle: MatrixBundle, n_agents: int) -> Tuple[np.ndarray, np.ndarray]:
    """Matrices of the mean-profile and the deviation-profile systems of one asset.

    The mean system is the risk-adjusted self-cost matrix plus
    ``n_agents - 1`` fair-priority cross-cost matrices, the deviation system
    is self-cost minus one cross-cost matrix; both are solved against the
    all-ones vector.
    """
    if n_agents < 1:
        raise ValueError("need at least one agent")
    mean_sys = bundle.mv_self_cost + (n_agents - 1) * bundle.fair_priority
    dev_sys = bundle.mv_self_cost - bundle.fair_priority
    return mean_sys, dev_sys


def fundamental_solutions(bundle: MatrixBundle, n_agents: int) -> FundamentalSolutions:
    """Solve the two normalized linear systems of one single-asset game.

    The systems are those of :func:`profile_systems`. Each solution is
    divided by its sum, so both sum to exactly one.
    """
    mean_sys, dev_sys = profile_systems(bundle, n_agents)
    ones = np.ones(mean_sys.shape[0])
    v = guarded_solve(mean_sys, ones)
    w = guarded_solve(dev_sys, ones)
    return FundamentalSolutions(mean_profile=v / (ones @ v), deviation_profile=w / (ones @ w))


@dataclass(frozen=True)
class Equilibrium:
    """Equilibrium strategies plus the data used to build them.

    ``strategies[i, j, k]`` is agent j's order in asset i at trading time k.
    ``principal_strategies`` are the same strategies rotated into the
    eigenbasis of the cross-impact matrix. ``fundamentals`` holds one profile
    pair per principal asset (None for stacked-system solutions, which do not
    factor through profiles).
    """

    strategies: np.ndarray
    principal_strategies: np.ndarray
    spectrum: SpectralReport
    fundamentals: Optional[Tuple[FundamentalSolutions, ...]] = field(default=None)

    @property
    def n_assets(self) -> int:
        return self.strategies.shape[0]

    @property
    def n_agents(self) -> int:
        return self.strategies.shape[1]

    def totals(self) -> np.ndarray:
        """Executed volume per (asset, agent); equals the inventories."""
        return self.strategies.sum(axis=2)


def _require_identical_agents(spec: GameSpec) -> None:
    """Reject a game whose agents differ; only identical agents have the closed form."""
    if not spec.identical_agents:
        raise ValueError(
            "the closed form needs identical agents (equal fees and scales, fair "
            "priority, full mask); solve other games with hetero.solve"
        )


def _shared_solves(*keys: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Member indices of each group of principal assets that share one solve.

    Asset i joins the group of the first asset whose keys all agree with its
    own within ``_SHARE_TOL`` times the largest magnitude of that key. Groups
    come in increasing order of their first member, whose values the solve
    uses.
    """
    same = np.logical_and.reduce(
        [np.abs(v[:, None] - v[None, :]) <= _SHARE_TOL * np.abs(v).max() for v in keys]
    )
    first = same.argmax(axis=1)
    return tuple(np.flatnonzero(first == i) for i in np.unique(first))


def principal_groups(
    cross_impact: np.ndarray, covariance: Optional[np.ndarray] = None, risk_averse: bool = False
) -> Tuple[SpectralReport, np.ndarray, Tuple[np.ndarray, ...]]:
    """Split of a game into principal assets: spectrum, variance rates and shared-solve groups.

    The spectrum is that of :func:`analyze_cross_impact`. A covariance that
    commutes with Q maps each eigenspace of Q into itself, but on a repeated
    eigenvalue its block need not be diagonal in the basis ``eigh`` returns;
    each eigenspace whose block has an off-diagonal entry above
    ``_SHARE_TOL`` of the largest entry is rotated by the eigenvectors of
    that block. The variance rates are the diagonal of the covariance in the
    returned basis, zeros without one. Principal assets whose eigenvalues
    (and, when ``risk_averse``, variance rates) agree share one solve; each
    group is an array of member indices (see :func:`_shared_solves`).
    """
    spectrum = analyze_cross_impact(cross_impact)
    lam = spectrum.eigenvalues
    eigenspaces = _shared_solves(lam)
    if covariance is None:
        return spectrum, np.zeros_like(lam), eigenspaces
    vec = spectrum.eigenvectors.copy()
    rotated = vec.T @ covariance @ vec
    for members in eigenspaces:
        block = rotated[np.ix_(members, members)]
        if np.abs(block - np.diag(block.diagonal())).max() > _SHARE_TOL * np.abs(rotated).max():
            vec[:, members] = vec[:, members] @ np.linalg.eigh(block)[1]
    var_rates = np.diag(vec.T @ covariance @ vec).copy()
    groups = _shared_solves(lam, var_rates) if risk_averse else eigenspaces
    return replace(spectrum, eigenvectors=vec), var_rates, groups


def _spread(groups: Sequence[np.ndarray], values: Iterable) -> tuple:
    """One item per principal asset: each group's value at every member of the group."""
    spread = [None] * sum(len(members) for members in groups)
    for members, value in zip(groups, values):
        for i in members:
            spread[i] = value
    return tuple(spread)


def principal_bundles(
    spec: GameSpec,
) -> Tuple[SpectralReport, Tuple[np.ndarray, ...], Iterator[MatrixBundle]]:
    """Spectrum, shared-solve groups and one matrix bundle per group of principal assets.

    The agents of ``spec`` must be identical and the cross-impact matrix
    positive definite (ValueError otherwise). The spectrum and groups are
    those of :func:`principal_groups`. A group's bundle uses the effective
    kernel scaled by its first member's eigenvalue and that member's
    variance rate, at the fee stored in ``spec``; each is built when the
    iterator reaches it.
    """
    _require_identical_agents(spec)
    spectrum, var_rates, groups = principal_groups(
        spec.cross_impact, spec.covariance, spec.gamma > 0.0
    )
    if spectrum.eigenvalues[-1] <= 0.0:
        raise ValueError(
            "cross-impact matrix must be positive definite "
            f"(smallest eigenvalue {spectrum.eigenvalues[-1]:.3e})"
        )
    kernel = spec.effective_kernel
    bundles = (
        build_matrices(
            spec.grid,
            kernel.scaled(float(spectrum.eigenvalues[members[0]])),
            theta=spec.thetas[0],
            gamma=spec.gamma,
            var_rate=max(float(var_rates[members[0]]), 0.0),
        )
        for members in groups
    )
    return spectrum, groups, bundles


def principal_fundamentals(
    spec: GameSpec,
) -> Tuple[SpectralReport, Tuple[FundamentalSolutions, ...]]:
    """Profile pair of every principal asset of the game.

    The principal assets of a group (see :func:`principal_bundles`) share one
    solve and one profile-pair object. The solves run on one BLAS thread
    (see :func:`single_blas_thread`).
    """
    spectrum, groups, bundles = principal_bundles(spec)
    pairs = []
    with single_blas_thread():
        for bundle in bundles:
            pairs.append(fundamental_solutions(bundle, spec.n_agents))
            del bundle  # free before the next bundle is built
    return spectrum, _spread(groups, pairs)


def closed_form_equilibrium(spec: GameSpec) -> Equilibrium:
    """Unique Nash equilibrium of the mean-variance game with identical agents.

    Inventories are rotated into the eigenbasis of the cross-impact matrix,
    each principal asset is solved independently through its profile pair,
    and the result is rotated back. ValueError for a game whose agents differ
    (see :func:`hetero.solve`).
    """
    spectrum, fundamentals = principal_fundamentals(spec)
    vec = spectrum.eigenvectors
    principal_inv = vec.T @ spec.inventories
    n_times = spec.grid.n_points
    principal = np.zeros((spec.n_assets, spec.n_agents, n_times))
    for i, pair in enumerate(fundamentals):
        mean_inv = principal_inv[i].mean()
        deviations = principal_inv[i] - mean_inv
        principal[i] = mean_inv * pair.mean_profile + np.outer(
            deviations, pair.deviation_profile
        )
    strategies = np.einsum("mi,ijk->mjk", vec, principal)
    return Equilibrium(
        strategies=strategies,
        principal_strategies=principal,
        spectrum=spectrum,
        fundamentals=fundamentals,
    )


def aggregate_flow_is_zero(spec: GameSpec, tol: float = 1e-12) -> bool:
    """True when every asset's inventories sum to zero across agents."""
    means = spec.inventories.mean(axis=1)
    scale = max(np.abs(spec.inventories).max(), 1.0)
    return bool(np.abs(means).max() <= tol * scale)


def arbitrageur_is_idle(equilibrium: Equilibrium, agent: int, tol: float = 1e-10) -> bool:
    """True when the given agent's strategy is identically zero within tol."""
    strategies = equilibrium.strategies
    scale = max(np.abs(strategies).max(), 1.0)
    return bool(np.abs(strategies[:, agent, :]).max() <= tol * scale)
