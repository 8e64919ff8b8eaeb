"""Closed-form Nash equilibria for games with identical agents.

The cross-impact matrix is diagonalized, each principal (eigenvector-rotated)
asset becomes an independent single-asset game whose kernel is the original
kernel times the eigenvalue, and every agent's strategy is a combination of
two normalized profiles per principal asset: one carried by the average
inventory, one by the deviation from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

import numpy as np

from ._linalg import _finite, _symmetric, guarded_solve
from .cross_impact import SpectralReport, analyze_cross_impact
from .kernels import DecayKernel, MatrixBundle, TimeGrid, build_matrices

__all__ = [
    "GameSpec",
    "FundamentalSolutions",
    "Equilibrium",
    "profile_systems",
    "fundamental_solutions",
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
    """A market impact game with identical agents.

    Parameters
    ----------
    grid, kernel : trading grid and (unscaled) decay kernel.
    cross_impact : symmetric (M, M) matrix mapping aggregate order flow per
        asset to price displacement across assets.
    inventories : (M, n_agents) array, positive entries are sells; zeros when
        omitted (enough for stability analysis, which only needs dimensions).
    n_agents : number of agents; inferred from ``inventories`` when omitted.
    theta : quadratic transaction-cost parameter, >= 0.
    gamma : risk-aversion parameter of the mean-variance objective, >= 0.
    beta : crowding exponent; the kernel is scaled by ``n_agents ** -beta``.
    covariance : (M, M) covariance rate of the Bachelier unaffected price;
        zero when omitted. Must commute with ``cross_impact`` when gamma > 0.
    """

    grid: TimeGrid
    kernel: DecayKernel
    cross_impact: np.ndarray
    inventories: Optional[np.ndarray] = None
    n_agents: Optional[int] = None
    theta: float = 0.0
    gamma: float = 0.0
    beta: float = 0.0
    covariance: Optional[np.ndarray] = None

    def __post_init__(self):
        q = np.asarray(self.cross_impact, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("cross_impact must be a square matrix")
        _finite("cross_impact", q)
        _symmetric("cross_impact", q)
        object.__setattr__(self, "cross_impact", q)

        m = q.shape[0]
        inv = self.inventories
        if inv is None:
            if self.n_agents is None:
                raise ValueError("provide inventories or n_agents")
            inv = np.zeros((m, int(self.n_agents)))
        inv = np.atleast_2d(np.asarray(inv, dtype=float))
        _finite("inventories", inv)
        if inv.shape[0] != m:
            raise ValueError(
                f"inventories have {inv.shape[0]} asset rows, cross_impact is {m}x{m}"
            )
        if self.n_agents is not None and inv.shape[1] != self.n_agents:
            raise ValueError("n_agents disagrees with the inventory column count")
        object.__setattr__(self, "inventories", inv)
        object.__setattr__(self, "n_agents", inv.shape[1])

        for name in ("theta", "gamma", "beta"):
            value = getattr(self, name)
            if not (value >= 0.0) or not np.isfinite(value):
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.n_agents < 1:
            raise ValueError("need at least one agent")

        if self.covariance is not None:
            sigma = np.asarray(self.covariance, dtype=float)
            if sigma.shape != q.shape:
                raise ValueError("covariance must match the cross-impact shape")
            _finite("covariance", sigma)
            _symmetric("covariance", sigma)
            if np.min(np.linalg.eigvalsh(sigma)) < -1e-10 * max(np.abs(sigma).max(), 1.0):
                raise ValueError("covariance must be positive semidefinite")
            object.__setattr__(self, "covariance", sigma)
            if self.gamma > 0.0:
                comm = np.linalg.norm(q @ sigma - sigma @ q)
                bound = _COMMUTE_TOL * max(np.linalg.norm(q) * np.linalg.norm(sigma), 1e-300)
                if comm > bound:
                    raise ValueError(
                        "cross-impact and covariance matrices must commute when "
                        "risk aversion is positive (their eigenbases must agree)"
                    )

    @property
    def n_assets(self) -> int:
        return self.cross_impact.shape[0]

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


def _principal_var_rates(spec: GameSpec, spectrum: SpectralReport) -> np.ndarray:
    if spec.covariance is None:
        return np.zeros(spec.n_assets)
    rotated = spectrum.eigenvectors.T @ spec.covariance @ spectrum.eigenvectors
    return np.diag(rotated).copy()


def _shared_solves(eigenvalues: np.ndarray, var_rates: np.ndarray, risk_averse: bool) -> np.ndarray:
    """Index of the principal asset whose solve each principal asset reuses.

    Asset i reuses the first asset whose eigenvalue agrees with its own within
    ``_SHARE_TOL`` times the largest eigenvalue magnitude and, for risk-averse
    games, whose variance rate agrees within the same fraction of the largest
    variance rate. Without risk aversion the variance rate drops out of the
    system, so it is not compared.
    """
    def close(values):
        return np.abs(values[:, None] - values[None, :]) <= _SHARE_TOL * np.abs(values).max()

    same = close(eigenvalues) & close(var_rates) if risk_averse else close(eigenvalues)
    return same.argmax(axis=1)


def principal_bundles(
    spec: GameSpec,
) -> Tuple[SpectralReport, np.ndarray, Iterator[Tuple[int, MatrixBundle]]]:
    """Spectrum, shared-solve index and the matrix bundles of the distinct principal assets.

    Principal asset i uses the effective kernel scaled by the i-th eigenvalue
    of the cross-impact matrix and the i-th diagonal entry of the rotated
    covariance as its variance rate. ``shared[i]`` is the principal asset
    whose bundle asset i reuses (see :func:`_shared_solves`). The last item
    yields (first member, bundle) pairs at the fee stored in ``spec``, in
    increasing order of first member, each built when it is reached.
    """
    spectrum = analyze_cross_impact(spec.cross_impact, spec.covariance)
    if spectrum.eigenvalues[-1] <= 0.0:
        raise ValueError(
            "cross-impact matrix must be positive definite "
            f"(smallest eigenvalue {spectrum.eigenvalues[-1]:.3e})"
        )
    if spec.gamma > 0.0 and spec.covariance is not None and not spectrum.commutes_with_covariance:
        raise ValueError(
            "cross-impact and covariance matrices must commute when risk aversion is positive"
        )
    kernel = spec.effective_kernel
    var_rates = _principal_var_rates(spec, spectrum)
    shared = _shared_solves(spectrum.eigenvalues, var_rates, spec.gamma > 0.0)
    bundles = (
        (
            int(i),
            build_matrices(
                spec.grid,
                kernel.scaled(float(spectrum.eigenvalues[i])),
                theta=spec.theta,
                gamma=spec.gamma,
                var_rate=max(float(var_rates[i]), 0.0),
            ),
        )
        for i in np.unique(shared)
    )
    return spectrum, shared, bundles


def principal_fundamentals(
    spec: GameSpec,
) -> Tuple[SpectralReport, Tuple[FundamentalSolutions, ...]]:
    """Profile pair of every principal asset of the game.

    Principal assets with the same eigenvalue and variance rate (see
    :func:`principal_bundles`) share one solve and one profile-pair object.
    """
    spectrum, shared, bundles = principal_bundles(spec)
    solved = {}
    for i, bundle in bundles:
        solved[i] = fundamental_solutions(bundle, spec.n_agents)
        del bundle  # free before the next bundle is built
    return spectrum, tuple(solved[i] for i in shared)


def closed_form_equilibrium(spec: GameSpec) -> Equilibrium:
    """Unique Nash equilibrium of the mean-variance game with identical agents.

    Inventories are rotated into the eigenbasis of the cross-impact matrix,
    each principal asset is solved independently through its profile pair,
    and the result is rotated back.
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
