"""The game spec, and closed-form Nash equilibria when its agents are identical.

The cross-impact matrix is diagonalized, each principal (eigenvector-rotated)
asset becomes an independent single-asset game whose kernel is the original
kernel times the eigenvalue, and every agent's strategy is a combination of
two normalized profiles per principal asset: one carried by the average
inventory, one by the deviation from it.

The two profile systems of a principal asset are formed here alone
(:func:`profile_systems`), from its kernel bundle (:func:`kernels.build_matrices`),
or, for an exponential kernel without a variance term, held in banded form
with no matrix (see below).

:func:`principal_groups` makes that split for every consumer: the closed form
here, the critical-fee probes of :mod:`stability`, and the heterogeneous
split of :mod:`hetero` (on the tradable block of Q). It returns the spectrum,
the variance rates and the groups of principal assets that share one solve.

The closed form and the probes solve the same prepared systems
(:func:`prepare_profile_systems`), by the solve paths of :mod:`_linalg`; they,
the dense reference and the heterogeneous split run their solves on one BLAS
thread. The prepared systems use the eigenvalue scale law. When a group's variance
term (risk aversion times variance rate) is proportional to its eigenvalue
lambda_k, as it is for ``gamma = 0`` or a covariance proportional to Q, the
group's profile systems at fee theta are ``lambda_k (B + (2 theta / lambda_k) I)``
for one zero-fee system B at unit eigenvalue, and normalized profiles do not
see the factor lambda_k. The groups of such a scale-law class share B: the
class builds B's two systems once, and group k solves them at the shift
``2 theta / lambda_k``.

Without a variance term, B's systems are ``J L + L^T + (J + 1) G(0) / 2 I``
(mean) and ``L^T + G(0) / 2 I`` (deviation), for the strict lower triangle L
of the kernel matrix K and the lag-zero value G(0). The deviation system is
upper triangular on any grid, the mean system Toeplitz on an equidistant one.
For an exponential kernel ``G(t) = g0 exp(-r t)``, L factors on any grid as
``L = g0 D^-1 R``, with D lower bidiagonal (ones on the diagonal,
``-rho_i`` below it), R holding ``rho_i`` below the diagonal, and
``rho_i = exp(-r (t_i - t_(i-1)))``. At shift s the substitution
``x = D^T y`` makes both systems ``A x = 1`` banded, with ``rho_0 = 0``:

- mean, ``c = (J + 1) g0 / 2 + s``: ``D A D^T y = D 1``, tridiagonal; row
  i holds ``(J g0 - c) rho_i`` below the diagonal,
  ``c (1 + rho_i^2) - (J + 1) g0 rho_i^2`` on it and ``(g0 - c) rho_(i+1)``
  above it, and the right-hand side is ``(1, 1 - rho_1, ..., 1 - rho_N)``;
- deviation, ``c = g0 / 2 + s``: ``(g0 R^T + c D^T) y = 1``, upper
  bidiagonal, with diagonal c and superdiagonal ``(g0 - c) rho_(i+1)``.

Such a class is solved in O(N) on the "banded" path of :mod:`_linalg`, and
no kernel matrix is built for it. The symmetric parts of the two systems
are ``(J + 1) / 2 K`` and ``K / 2`` on any grid, plus the variance term
``gamma v min(t_i, t_j)`` when there is one, which is positive
semidefinite; so a floor under the smallest eigenvalue of K gives a floor of
every profile system (:func:`_profile_floor`). For an exponential kernel
with rate r, K is the covariance of an Ornstein-Uhlenbeck process at the
grid times, so its inverse is tridiagonal, and Gershgorin's theorem on the
inverse gives ``lambda_min(K) >= G(0) tanh(r h / 2)`` for the smallest step
h, on any grid. A power-law kernel is a mixture of exponential kernels, and
its floor a mixture of theirs (:func:`_unit_floor`); neither takes an
eigenvalue solve. A class with a variance term has no structured path of its
own; one of at least ``_REDUCE_MIN_GROUPS`` groups is reduced to Hessenberg
form when prepared, for the "shifted" path.

:func:`principal_fundamentals` is the dense reference: one bundle and two
:func:`guarded_solve` calls per group, at the group's own eigenvalue and fee.

The profile pairs depend on the market, not on the inventories. The closed
form keeps the spectrum and profile pairs of the last market it solved,
read-only, keyed by the bytes of what it reads: trading times, effective
kernel, Q, covariance, fee, risk aversion and agent count. Draws of new
inventories in one market then cost one rotation each.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ._linalg import (
    ArgumentError,
    _BandedSystem,
    _ExponentialLower,
    _PreparedSystem,
    _array,
    _boolean_mask,
    _integer,
    _normalized,
    _number,
    _symmetric,
    guarded_solve,
    single_blas_thread,
)
from .costs import _check_agent, _earlier, priority_cross
from .cross_impact import SpectralReport, analyze_cross_impact, explicit_matrix
from .kernels import DecayKernel, MatrixBundle, TimeGrid, _validate_kernel_values, build_matrices

__all__ = [
    "GameSpec",
    "FundamentalSolutions",
    "Equilibrium",
    "profile_systems",
    "fundamental_solutions",
    "principal_groups",
    "principal_fundamentals",
    "ProfileSystems",
    "prepare_profile_systems",
    "closed_form_equilibrium",
    "aggregate_flow_is_zero",
    "arbitrageur_is_idle",
]

_COMMUTE_TOL = 1e-9
# principal assets whose eigenvalues (and, when gamma > 0, variance rates)
# agree within this fraction of the largest one share one solve; eigh spreads
# a repeated eigenvalue over about 1e-14 relative
_SHARE_TOL = 1e-12
# a scale-law class of at least this many groups reduces its systems without a path to
# Hessenberg form when prepared; at N = 100 to 300 the two reductions cost about
# as much as the bundle builds and dense solves of four groups
_REDUCE_MIN_GROUPS = 8
# grid steps equal within this fraction of the horizon count as equidistant
_UNIFORM_TOL = 1e-13


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

    An invalid argument raises an ``ArgumentError``, a ValueError naming it
    (``beta`` when the crowding factor leaves no valid kernel). A kernel not
    positive and nonincreasing on the grid's lags is refused here with the
    message of :func:`kernels.build_matrices`, naming ``kernel``, so every
    solve path takes the same games.
    The spec holds read-only copies of the arrays it is given, so changing a
    caller's array afterwards leaves the checked spec as it was.
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
        q = _array("cross_impact", self.cross_impact)
        explicit_matrix(q)  # the checks; the matrix is kept as given
        object.__setattr__(self, "cross_impact", q)

        m = q.shape[0]
        inv = self.inventories
        if inv is None:
            if self.n_agents is None:
                raise ArgumentError("n_agents", "provide inventories or n_agents")
            inv = np.zeros((m, _integer("n_agents", self.n_agents, 1)))
        inv = np.atleast_2d(_array("inventories", inv))
        if inv.shape[0] != m:
            raise ArgumentError(
                "inventories",
                f"inventories have {inv.shape[0]} asset rows, cross_impact is {m}x{m}",
            )
        if self.n_agents is not None and inv.shape[1] != self.n_agents:
            raise ArgumentError("n_agents", "n_agents disagrees with the inventory column count")
        object.__setattr__(self, "inventories", inv)
        n_agents = _integer("n_agents", inv.shape[1], 1)
        object.__setattr__(self, "n_agents", n_agents)

        theta = _array("theta", self.theta, positive=False)
        if theta.ndim and theta.shape != (n_agents,):
            raise ArgumentError("theta", "theta must be a scalar or one fee per agent")
        object.__setattr__(self, "theta", theta if theta.ndim else float(theta))
        object.__setattr__(self, "gamma", _number("gamma", self.gamma, positive=False))
        object.__setattr__(self, "beta", _number("beta", self.beta, positive=False))
        kernel = self.kernel
        if self.beta != 0.0:
            try:
                kernel = kernel.scaled(float(n_agents) ** (-self.beta))
            except ArgumentError as exc:  # the factor or the scaled kernel underflows
                message = f"beta {self.beta!r} leaves no kernel for {n_agents} agents: {exc}"
                raise ArgumentError("beta", message) from None
        try:
            _validate_kernel_values(self.grid, kernel)
        except ValueError as exc:  # the kernel underflows or grows on this grid's lags
            raise ArgumentError("kernel", str(exc)) from None
        object.__setattr__(self, "_effective_kernel", kernel)

        scales = 1.0 if self.scales is None else self.scales
        object.__setattr__(self, "scales", _array("scales", scales, (n_agents,), positive=True))

        prio = _array("priority", self.priority)
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

        mask = _boolean_mask("mask", np.ones(inv.shape) if self.mask is None else self.mask)
        if mask.shape != inv.shape:
            raise ArgumentError("mask", "mask must have the same shape as the inventories")
        if np.any((inv != 0.0) & ~mask):
            raise ArgumentError("mask", "inventories must be zero on untradable assets")
        object.__setattr__(self, "mask", mask)

        if self.gamma > 0.0 and not self.identical_agents:
            raise ArgumentError("gamma", "risk aversion is only supported with identical agents")
        if self.covariance is not None:
            sigma = _array("covariance", self.covariance)
            if sigma.shape != q.shape:
                raise ArgumentError("covariance", "covariance must match the cross-impact shape")
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
        for attribute in fields(self):
            value = getattr(self, attribute.name)
            if isinstance(value, np.ndarray):  # a copy, so the caller cannot change a checked spec
                value = value.copy()
                value.flags.writeable = False
                object.__setattr__(self, attribute.name, value)

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
        """Kernel with the crowding scale ``n_agents ** -beta`` folded in, formed once."""
        return self._effective_kernel


@dataclass(frozen=True)
class FundamentalSolutions:
    """Normalized profiles spanning all equilibrium strategies of one asset.

    ``mean_profile`` multiplies the average inventory, ``deviation_profile``
    the deviation from it; both sum to one.
    """

    mean_profile: np.ndarray
    deviation_profile: np.ndarray


def _adds_variance_term(spec: GameSpec, var_rate: float) -> bool:
    """Whether :func:`profile_systems` adds a variance term at this variance rate."""
    return spec.gamma > 0.0 and var_rate > 0.0


def profile_systems(
    spec: GameSpec, bundle: MatrixBundle, theta: float, var_rate: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Matrices of the mean-profile and the deviation-profile systems of one asset.

    ``bundle`` holds the asset's kernel matrix K, strict lower part L and
    lag-zero value G(0), ``theta`` is the fee and ``var_rate`` the variance
    rate v; the agent count J, the risk aversion gamma and the trading times
    come from ``spec``. The self-cost ``S = K + 2 theta I + gamma v min(t_i, t_j)``
    (a zero variance term is not added) and the fair-priority cross cost
    ``F = L + G(0) / 2 I`` (:func:`costs.priority_cross` at one half) give
    the mean system ``S + (J - 1) F`` and the deviation system ``S - F``,
    both solved against the all-ones vector. ``ArgumentError`` unless
    ``theta`` and ``var_rate`` are finite and nonnegative and ``bundle`` is
    built on a grid of as many points as ``spec``'s.
    """
    theta = _number("theta", theta, positive=False)
    var_rate = _number("var_rate", var_rate, positive=False)
    n = spec.grid.n_points
    if bundle.kernel_matrix.shape != (n, n):
        shape = bundle.kernel_matrix.shape
        raise ArgumentError("bundle", f"bundle must be built on {n} grid points, got shape {shape}")
    self_cost = bundle.kernel_matrix.copy()
    self_cost.flat[:: len(self_cost) + 1] += 2.0 * theta
    if _adds_variance_term(spec, var_rate):
        self_cost += spec.gamma * (var_rate * _earlier(spec))
    fair = priority_cross(bundle, 0.5)
    return self_cost + (spec.n_agents - 1) * fair, self_cost - fair


def fundamental_solutions(
    spec: GameSpec, bundle: MatrixBundle, theta: float, var_rate: float
) -> FundamentalSolutions:
    """Solve the two normalized linear systems of one single-asset game.

    The systems are those of :func:`profile_systems`, which checks the
    arguments. Each solution is divided by its sum, so both sum to exactly
    one (NumericError if it cannot).
    """
    systems = profile_systems(spec, bundle, theta, var_rate)
    ones = np.ones(spec.grid.n_points)
    return FundamentalSolutions(*(_normalized(guarded_solve(system, ones)) for system in systems))


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
    ``ArgumentError`` unless a given covariance is a finite matrix of Q's
    shape.
    """
    spectrum = analyze_cross_impact(cross_impact)
    lam = spectrum.eigenvalues
    eigenspaces = _shared_solves(lam)
    if covariance is None:
        return spectrum, np.zeros_like(lam), eigenspaces
    covariance = _array("covariance", covariance)
    if covariance.shape != (len(lam), len(lam)):
        raise ArgumentError("covariance", "covariance must match the cross-impact shape")
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


def _scale_law_classes(
    eigenvalues: np.ndarray, variance_terms: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Groups of principal assets, by index, whose systems follow one scale law.

    ``eigenvalues[k]`` and ``variance_terms[k]`` (risk aversion times
    variance rate) are those of group k. Group k's profile systems are
    ``lambda_k (B + (2 theta / lambda_k) I)``, where B is the system at unit
    eigenvalue with variance term ``variance_terms[k] / eigenvalues[k]``;
    groups whose ratios agree (see :func:`_shared_solves`) share one B. With
    ``gamma = 0`` or a covariance proportional to Q there is one class.
    """
    return _shared_solves(np.asarray(variance_terms) / np.asarray(eigenvalues))


def _principal_split(spec: GameSpec) -> Tuple[SpectralReport, np.ndarray, Tuple[np.ndarray, ...]]:
    """:func:`principal_groups` of a game with identical agents and a positive definite Q.

    The variance rates are clipped at zero. ValueError otherwise.
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
    return spectrum, np.maximum(var_rates, 0.0), groups


def principal_fundamentals(
    spec: GameSpec, paths: Optional[Dict[str, int]] = None
) -> Tuple[SpectralReport, Tuple[FundamentalSolutions, ...]]:
    """Profile pair of every principal asset of the game, by dense solves.

    The reference of :func:`stability.is_unstable_at` without prepared
    systems and of a re-bisection of :func:`stability.critical_theta`. The agents of
    ``spec`` must be identical and the cross-impact matrix positive definite
    (ValueError otherwise); the spectrum and groups are those of
    :func:`principal_groups`. Each group gets one bundle, of the effective
    kernel scaled by its first member's eigenvalue, and one
    :func:`fundamental_solutions` at that member's variance rate and the fee
    stored in ``spec``, on one BLAS thread (see :func:`single_blas_thread`).
    The principal assets of a group share one profile-pair object. When
    given, ``paths`` counts the solves under "dense".
    """
    spectrum, var_rates, groups = _principal_split(spec)
    pairs = []
    with single_blas_thread():
        for members in groups:
            first = members[0]
            eigenvalue = float(spectrum.eigenvalues[first])
            bundle = build_matrices(spec.grid, spec.effective_kernel.scaled(eigenvalue))
            pairs.append(
                fundamental_solutions(spec, bundle, spec.thetas[0], float(var_rates[first]))
            )
            del bundle  # free before the next bundle is built
    if paths is not None:
        paths["dense"] += 2 * len(pairs)
    return spectrum, _spread(groups, pairs)


@dataclass(frozen=True)
class ProfileSystems:
    """Zero-fee profile systems of the groups of principal assets of one game.

    ``pairs[k]`` holds the (mean, deviation) systems of group k's scale-law
    class at unit eigenvalue; the groups of one class share the same two
    :class:`_PreparedSystem` objects. Group k, the principal assets
    ``groups[k]``, has the eigenvalue ``eigenvalues[k]`` and the variance
    term ``variance_terms[k]`` (risk aversion times variance rate), and is
    solved at fee theta with the shift ``2 theta / eigenvalues[k]``.
    Every system has a floor; one without a ``path`` is solved densely until
    :meth:`_PreparedSystem.reduce` names "shifted". ``paths`` counts the
    profile solves by path ("banded", "levinson", "triangular", "dense",
    "shifted"), the profiles certified by the final check of
    :func:`stability.critical_theta` ("certified"), and the re-bisections of
    :func:`stability.critical_theta` on all groups ("all_groups") and on the
    reference path ("rebisect").
    """

    spectrum: SpectralReport
    groups: Tuple[np.ndarray, ...]
    pairs: Tuple[Tuple[_PreparedSystem, _PreparedSystem], ...]
    paths: Dict[str, int]
    eigenvalues: np.ndarray
    variance_terms: np.ndarray

    def profiles(self, theta: float) -> Tuple[FundamentalSolutions, ...]:
        """Profile pair of every principal asset at fee ``theta``, one solve per group.

        The result is laid out as that of :func:`principal_fundamentals`.
        """
        pairs = (
            FundamentalSolutions(
                mean_profile=mean.solve(2.0 * theta / eigenvalue, self.paths),
                deviation_profile=deviation.solve(2.0 * theta / eigenvalue, self.paths),
            )
            for (mean, deviation), eigenvalue in zip(self.pairs, self.eigenvalues)
        )
        return _spread(self.groups, pairs)

    def subset(self, indices: Sequence[int]) -> "ProfileSystems":
        """The systems of the groups ``indices`` alone, one principal asset standing for each.

        The subset shares the systems and the solve counts of this one.
        """
        indices = list(indices)
        return replace(
            self,
            groups=tuple(np.array([i]) for i in range(len(indices))),
            pairs=tuple(self.pairs[k] for k in indices),
            eigenvalues=self.eigenvalues[indices],
            variance_terms=self.variance_terms[indices],
        )


def _unit_floor(kernel: DecayKernel, min_step: float) -> float:
    """Lower bound on the smallest eigenvalue of a kernel matrix, per unit lag-zero value.

    Holds on any grid whose smallest step is ``min_step``. An exponential
    kernel's matrix is an Ornstein-Uhlenbeck covariance with a tridiagonal
    inverse, whose absolute row sums are at most ``(1 + rho) / (1 - rho)``
    for ``rho = exp(-rate * min_step)`` (Gershgorin): the bound is
    ``tanh(rate * min_step / 2)``. A power-law kernel ``(t + c)^-a`` is
    ``c^-a E[exp(-rho t)]`` for ``rho ~ Gamma(a, rate c)``, a mixture of
    exponential kernels; the smallest eigenvalue of a sum of symmetric
    matrices is at least the sum of theirs, so the bound is
    ``E[tanh(rho * min_step / 2)]``. Since ``tanh(x) >= 1 - exp(-x)`` for
    ``x >= 0`` and ``E[exp(-rho s)] = (1 + s / c)^-a``, that is at least
    ``1 - (1 + min_step / (2 c))^-a``.
    """
    if kernel.family == "exponential":
        return float(np.tanh(0.5 * kernel.rate * min_step))
    return float(-np.expm1(-kernel.exponent * np.log1p(0.5 * min_step / kernel.offset)))


def _profile_floor(spec: GameSpec, weight: float, norm_1: float) -> float:
    """Floor of a formed profile system of ``spec`` whose symmetric part is ``weight K`` and more.

    The rest, a fee and a variance term, is positive semidefinite, so ``weight
    G(0) _unit_floor`` bounds the exact system's smallest eigenvalue; lowered
    by ``n eps norm_1``, for the formed system's 1-norm, it covers the
    rounding of every formed entry, the variance term's included.
    """
    min_step = float(np.diff(spec.grid.points).min())
    floor = weight * spec.effective_kernel.at_zero * _unit_floor(spec.kernel, min_step)
    return float(floor - spec.grid.n_points * np.finfo(float).eps * norm_1)


def _dense_system(spec: GameSpec, var_rate: float, index: int) -> np.ndarray:
    """Zero-fee unit-eigenvalue profile system ``index`` (0 mean, 1 deviation), freshly built."""
    unit = build_matrices(spec.grid, spec.effective_kernel)
    return profile_systems(spec, unit, 0.0, var_rate)[index]


def prepare_profile_systems(spec: GameSpec) -> ProfileSystems:
    """Build the zero-fee unit-eigenvalue profile systems of every scale-law class once.

    Runs the split and its checks of :func:`principal_fundamentals`; the fee
    stored in ``spec`` is ignored. Each system gets its floor here, from its
    own 1-norm (:func:`_profile_floor`), and its structured solve path
    (:class:`_linalg._PreparedSystem`). Without a variance term (see the
    module docstring), with an exponential kernel, both systems of a class
    are "banded" on any grid, held without a matrix
    (:class:`_linalg._BandedSystem`, whose dense solve forms the system by
    :func:`_dense_system`); otherwise the deviation system is "triangular" on
    any grid and the mean system "levinson" on an equidistant one. The other
    systems are formed from one bundle of the effective kernel at unit
    eigenvalue, at the first group's ratio of variance rate to eigenvalue. A
    variance term ``gamma v Gamma``, with ``Gamma = min(t_i, t_j)``, counts
    as absent for the path when its 1-norm is within ``n eps ||K||_1`` of
    the unit kernel matrix K, as when v is rounding noise of the split: its
    first row and column are zero, so the Levinson generators are K's (the
    deviation system then takes the mean system's path). A class of at least
    ``_REDUCE_MIN_GROUPS`` groups reduces its systems without a path
    (:meth:`_PreparedSystem.reduce`).
    """
    spectrum, var_rates, groups = _principal_split(spec)
    firsts = [members[0] for members in groups]
    eigenvalues, var_rates = spectrum.eigenvalues[firsts], var_rates[firsts]
    variance_terms = spec.gamma * var_rates
    steps = np.diff(spec.grid.points)
    uniform = np.ptp(steps) <= _UNIFORM_TOL * spec.grid.horizon
    n, n_agents = spec.grid.n_points, spec.n_agents
    earlier_norm = float(np.sum(spec.grid.points))  # ||min(t_i, t_j)||_1, the last column
    g0 = spec.effective_kernel.at_zero
    unit = lower = None
    if spec.kernel.family == "exponential":
        lower = _ExponentialLower(np.exp(-spec.kernel.rate * steps), g0)
        kernel_norm = float(np.max(lower.row_sums + lower.column_sums)) + g0
    else:
        unit = build_matrices(spec.grid, spec.effective_kernel)
        kernel_norm = np.linalg.norm(unit.kernel_matrix, 1)
    negligible = n * np.finfo(float).eps * kernel_norm
    # K's weights in the symmetric parts of the mean and the deviation system
    weights = (0.5 * (n_agents + 1), 0.5)
    pairs = [None] * len(groups)
    for members in _scale_law_classes(eigenvalues, variance_terms):
        first = members[0]
        var_rate = float(var_rates[first] / eigenvalues[first])
        plain = spec.gamma * var_rate * earlier_norm <= negligible
        if plain and lower is not None:
            pair = (
                _BandedSystem(
                    lower, n_agents, weights[0] * g0,
                    functools.partial(_dense_system, spec, var_rate, 0),
                ),
                _BandedSystem(
                    lower, 0.0, weights[1] * g0,
                    functools.partial(_dense_system, spec, var_rate, 1),
                ),
            )
        else:
            if unit is None:
                unit = build_matrices(spec.grid, spec.effective_kernel)
            mean, deviation = profile_systems(spec, unit, 0.0, var_rate)
            mean_path = "levinson" if uniform and plain else None
            # without a variance term the deviation system is L^T + G(0) / 2 I
            deviation_path = mean_path if _adds_variance_term(spec, var_rate) else "triangular"
            pair = (_PreparedSystem(mean, mean_path), _PreparedSystem(deviation, deviation_path))
        for system, weight in zip(pair, weights):
            system.floor = _profile_floor(spec, weight, system.norm_1)
            if len(members) >= _REDUCE_MIN_GROUPS:
                system.reduce()
        for k in members:
            pairs[k] = pair
    return ProfileSystems(
        spectrum=spectrum,
        groups=groups,
        pairs=tuple(pairs),
        paths=dict.fromkeys(
            (
                "banded", "levinson", "triangular", "dense", "shifted", "certified", "all_groups",
                "rebisect",
            ),
            0,
        ),
        eigenvalues=eigenvalues,
        variance_terms=variance_terms,
    )


class _Market(tuple):
    """Memo key of a game: the tuple of what its solve reads, and the game itself as ``spec``.

    The tuple holds the trading times, the effective kernel, Q, the covariance
    (None without one), the fee, the risk aversion and the agent count, arrays
    as bytes; games that differ only in their inventories share a key.
    """

    def __new__(cls, spec: GameSpec):
        market = super().__new__(cls, (
            spec.grid.points.tobytes(),
            spec.effective_kernel,
            spec.cross_impact.tobytes(),
            None if spec.covariance is None else spec.covariance.tobytes(),
            float(spec.thetas[0]),
            spec.gamma,
            spec.n_agents,
        ))
        market.spec = spec
        return market


@functools.lru_cache(maxsize=1)
def _market_fundamentals(
    market: _Market,
) -> Tuple[SpectralReport, Tuple[FundamentalSolutions, ...]]:
    """Spectrum and profile pairs of the identical-agent game of one market.

    Solved on the prepared systems (:func:`prepare_profile_systems`) of
    ``market.spec``, on one BLAS thread. Only the last market is kept, so the
    draws of one market share one solve. Its arrays are read-only, since
    repeated calls return the same ones.
    """
    with single_blas_thread():
        systems = prepare_profile_systems(market.spec)
        fundamentals = systems.profiles(market.spec.thetas[0])
    spectrum = systems.spectrum
    arrays = [spectrum.eigenvalues, spectrum.eigenvectors]
    for pair in fundamentals:
        arrays += [pair.mean_profile, pair.deviation_profile]
    for array in arrays:
        array.flags.writeable = False
    return spectrum, fundamentals


def closed_form_equilibrium(spec: GameSpec) -> Equilibrium:
    """Unique Nash equilibrium of the mean-variance game with identical agents.

    Inventories are rotated into the eigenbasis of the cross-impact matrix,
    each principal asset is solved independently through its profile pair,
    and the result is rotated back. ValueError for a game whose agents differ
    (see :func:`hetero.solve`).

    The spectrum and the profile pairs do not depend on the inventories:
    they come from :func:`_market_fundamentals`, which keeps those of the
    last market (keyed by its grid, effective kernel, Q, covariance, fee,
    risk aversion and agent count) read-only. A new draw of inventories in
    the same market costs one rotation and one ``einsum``; ``strategies``
    and ``principal_strategies`` are new arrays.
    """
    _require_identical_agents(spec)
    spectrum, fundamentals = _market_fundamentals(_Market(spec))
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
    """True when every asset's inventories sum to zero across agents.

    ``ArgumentError`` unless ``tol`` is finite and nonnegative.
    """
    tol = _number("tol", tol, positive=False)
    means = spec.inventories.mean(axis=1)
    scale = max(np.abs(spec.inventories).max(), 1.0)
    return bool(np.abs(means).max() <= tol * scale)


def arbitrageur_is_idle(equilibrium: Equilibrium, agent: int, tol: float = 1e-10) -> bool:
    """True when the given agent's strategy is identically zero within tol.

    ``ArgumentError`` unless ``agent`` indexes one of the equilibrium's agents
    and ``tol`` is finite and nonnegative.
    """
    strategies = equilibrium.strategies
    agent = _check_agent(strategies.shape[1], agent)
    tol = _number("tol", tol, positive=False)
    scale = max(np.abs(strategies).max(), 1.0)
    return bool(np.abs(strategies[:, agent, :]).max() <= tol * scale)
