"""Oscillation detection, critical-fee estimation, and stability sweeps.

A market is unstable at a given fee level when some normalized profile of
some principal asset alternates between buys and sells at consecutive trading
times. The smallest fee above which no profile oscillates is estimated by
bisection, guarded by a verdict-consistency check with a grid-scan fallback,
and compared against two closed-form predictions: the two-agent theorem value
(top eigenvalue times the lag-zero kernel over four) and its many-agent
extrapolation.

The fee enters each profile system only as ``2 theta`` on the diagonal, so
:func:`critical_theta` builds the two systems of each group of principal
assets that share a solve (the groups of :func:`equilibrium.principal_groups`,
as in the closed form) once, at zero fee (:func:`prepare_profile_systems`),
and a probe solves ``(A_0 + 2 theta I) x = 1`` for the groups it needs. On
an equidistant grid without a variance term both systems are Toeplitz and a
probe solves the mean system ``J L + L^T + (J + 1) G(0) / 2 I`` by Levinson
recursion in O(N^2), for the strict lower triangle L of the kernel matrix.
The deviation system ``L^T + (G(0) / 2 + 2 theta) I`` is then upper
triangular, its entries below the diagonal exactly zero, and a probe solves
it by one back substitution in O(N^2), with the shift written onto the
diagonal in place and the diagonal restored after. Either solution is kept
only when a bound on the condition number is within the dense solver's cap
and its normwise residual against the dense matrix is at most 1e-12. The
bound rests on a floor under the smallest eigenvalue of the kernel matrix K.
For an exponential kernel with rate r, K is the covariance of an
Ornstein-Uhlenbeck process at the grid times, so its inverse is
tridiagonal, and Gershgorin's theorem on the inverse gives
``lambda_min(K) >= G(0) tanh(r h / 2)`` for the smallest step h, on any
grid; for a power-law kernel the floor is ``eigvalsh``'s smallest value. A
bisected system that is not Toeplitz (a variance term, an uneven grid) is
reduced to Hessenberg form once, and a probe solves it by a banded LU of the
shifted Hessenberg matrix in O(N^2), kept only when its condition estimate
is within the cap divided by the squared system size and its normwise
backward error is at most 1e-12. Every other solve goes to
:func:`guarded_solve`, which rejects the systems it always rejected.

The bisection probes only the group of largest eigenvalue in each class of
groups with equal ``gamma * v_k / lambda_k`` (variance rate v_k, eigenvalue
lambda_k). In one class, principal asset k's systems are
``lambda_k (B + 2 (theta / lambda_k) I)`` for one zero-fee system B at unit
eigenvalue, and profiles are normalized, so group k at fee theta has the top
group's profiles at ``theta * lambda_top / lambda_k >= theta``: with a verdict
that is unstable below some fee and stable above it, a lower group oscillates
only where the top group does. This scale law is behind the theorem value
``lambda_max G(0) / 4``; with ``gamma = 0`` or a covariance proportional to Q
there is one class, and only the top principal asset is bisected. The
returned bracket and estimate rest only on the verdicts at the two final
bracket ends, so checking every group there also covers rounding and a
verdict that is not monotone. At the lower end a bisected group oscillates,
so the game does. At the upper end every group is solved on the prepared
systems; if one oscillates, the bisection runs again on all groups. Then the
reference path (:func:`principal_fundamentals`) recomputes every profile at
the lower end; if its verdict or profiles disagree with the prepared
systems, the bisection runs again on that path. The reference path solves
each group's own systems densely, except in a scale-law class of at least
``equilibrium._REDUCE_MIN_GROUPS`` groups, where it is the residual-checked
shifted solve on the class's unit-eigenvalue systems. There the check uses
the same shifted solver as the probes of a reduced top group, and differs
from them only in the systems it builds; it counts its solves by path, as
the probes do.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.linalg import solve_toeplitz, solve_triangular

from ._linalg import (
    ArgumentError,
    NumericError,
    _ShiftedSolver,
    guarded_solve,
    single_blas_thread,
)
from .cross_impact import one_factor_matrix, price_covariance
from .equilibrium import (
    FundamentalSolutions,
    GameSpec,
    _require_identical_agents,
    _scale_law_classes,
    _spread,
    principal_bundles,
    principal_fundamentals,
    profile_systems,
)
from .kernels import DecayKernel, make_equidistant_grid

__all__ = [
    "OscillationFlags",
    "oscillation_flags",
    "ProfileSystems",
    "prepare_profile_systems",
    "is_unstable_at",
    "predicted_theta_star",
    "BracketError",
    "StabilityReport",
    "critical_theta",
    "SweepBase",
    "SweepRow",
    "stability_sweep",
]

DEFAULT_FLIP_TOL = 1e-9
# guarded_solve's default cap on the estimated 1-norm condition number
_MAX_CONDITION = 1e12
# largest normwise backward error accepted from a Levinson solve
_RESIDUAL_TOL = 1e-12
# grid steps equal within this fraction of the horizon count as equidistant
_UNIFORM_TOL = 1e-13
# relative agreement required of prepared and reference profiles in the final check
_CROSS_CHECK_TOL = 1e-10
# after a bisection, the verdict is checked at this many interior points of
# the bracket, and a failed check scans it at this many points
_CHECK_POINTS = 16
_SCAN_POINTS = 200


class BracketError(ValueError):
    """The supplied fee bracket does not straddle the stability transition."""


@dataclass(frozen=True)
class OscillationFlags:
    """Count of adjacent strict sign flips in a vector, and the verdict."""

    flip_count: int
    unstable: bool


def oscillation_flags(u: np.ndarray, rel_tol: float = DEFAULT_FLIP_TOL) -> OscillationFlags:
    """Detect buy/sell alternation in a trading profile.

    Index k flips when ``u[k] * u[k+1]`` falls below ``-rel_tol * max(|u|)**2``;
    the relative floor suppresses solver noise around zero entries. One flip
    already counts as unstable. The zero vector is stable by convention. A
    profile with a NaN or infinite entry has no verdict: NumericError.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise NumericError("trading profile has non-finite entries")
    peak = np.abs(u).max() if u.size else 0.0
    if peak == 0.0:
        return OscillationFlags(flip_count=0, unstable=False)
    products = u[:-1] * u[1:]
    flips = int(np.sum(products < -rel_tol * peak**2))
    return OscillationFlags(flip_count=flips, unstable=flips >= 1)


def _pair_flags(
    pairs: Sequence[FundamentalSolutions], rel_tol: float
) -> Tuple[Tuple[OscillationFlags, OscillationFlags], ...]:
    """(mean, deviation) flags of each profile pair; a shared pair object is checked once."""
    flags = {}
    for pair in pairs:
        if id(pair) not in flags:
            flags[id(pair)] = (
                oscillation_flags(pair.mean_profile, rel_tol),
                oscillation_flags(pair.deviation_profile, rel_tol),
            )
    return tuple(flags[id(pair)] for pair in pairs)


def _any_unstable(flags: Iterable[Tuple[OscillationFlags, OscillationFlags]]) -> bool:
    return any(f.unstable for pair in flags for f in pair)


class _FeeFreeSystem:
    """One profile system at zero fee; at fee theta it is ``matrix + 2 theta I``.

    ``floor`` is a lower bound on the smallest eigenvalue of the symmetric
    part of ``matrix`` when the matrix is Toeplitz, and None otherwise.
    ``triangular`` is True when such a matrix is upper triangular, its
    entries below the diagonal exactly zero; a probe then writes the shift
    onto the diagonal of ``matrix`` in place and restores it after, so a
    system must not be solved from two threads at once. ``shifted`` is the
    Hessenberg reduction of a system that :meth:`reduce` prepared for many
    probes, and None otherwise.
    """

    def __init__(self, matrix: np.ndarray, floor: Optional[float]):
        self.matrix = matrix
        self.floor = floor
        self.shifted: Optional[_ShiftedSolver] = None
        self.norm_1 = float(np.linalg.norm(matrix, 1))
        self.norm_inf = float(np.linalg.norm(matrix, np.inf))
        self.triangular = floor is not None and not np.tril(matrix, -1).any()
        self._diagonal = matrix.diagonal().copy()

    def reduce(self) -> None:
        """Reduce a system without a Levinson floor once, for O(n^2) shifted solves."""
        if self.floor is None:
            self.shifted = _ShiftedSolver(self.matrix)

    def solve(self, theta: float, paths: Dict[str, int]) -> np.ndarray:
        """Normalized solution of ``(matrix + 2 theta I) x = 1``, counted in ``paths``.

        NumericError when the solution sums to zero or to a non-finite value.
        """
        ones = np.ones(len(self.matrix))
        shift = 2.0 * theta
        if self.triangular:
            x, path = self._back_substitution(shift, ones), "triangular"
        else:
            x, path = self._levinson(shift, ones), "levinson"
        if x is None and self.shifted is not None:
            x, path = self.shifted.solve(shift, ones), "shifted"
        if x is None:
            path = "dense"
            x = guarded_solve(self.matrix + shift * np.eye(len(ones)), ones, _MAX_CONDITION)
        paths[path] += 1
        total = ones @ x
        if not (np.isfinite(total) and total != 0.0):
            raise NumericError(
                f"profile solution sums to {float(total)}, so it has no normalization"
            )
        return x / total

    def _bounded(self, shift: float) -> bool:
        """Whether the floor bounds the condition number within the dense solver's cap.

        ``sqrt(n) ||A||_1 / (floor + shift)`` bounds the 1-norm condition
        number: a symmetric part >= mu I gives ``||A^-1||_2 <= 1 / mu``.
        """
        if self.floor is None or not self.floor + shift > 0.0:
            return False
        bound = np.sqrt(len(self.matrix)) * (self.norm_1 + shift) / (self.floor + shift)
        return bool(bound <= _MAX_CONDITION)

    def _accepted(self, residual: np.ndarray, x: np.ndarray, shift: float) -> bool:
        """Whether the normwise backward error is at most ``_RESIDUAL_TOL``."""
        scale = (self.norm_inf + shift) * np.abs(x).max() + 1.0
        return bool(np.abs(residual).max() <= _RESIDUAL_TOL * scale)

    def _levinson(self, shift: float, ones: np.ndarray) -> Optional[np.ndarray]:
        """Levinson solution, or None when the matrix is not Toeplitz or a guard fails.

        The guards are :meth:`_bounded` and :meth:`_accepted`, the residual
        taken against the dense matrix.
        """
        if not self._bounded(shift):
            return None
        column = self.matrix[:, 0].copy()
        row = self.matrix[0].copy()
        column[0] += shift
        row[0] += shift
        try:
            x = solve_toeplitz((column, row), ones, check_finite=False)
        except np.linalg.LinAlgError:  # a singular leading block
            return None
        if not self._accepted(self.matrix @ x + shift * x - ones, x, shift):
            return None
        return x

    def _back_substitution(self, shift: float, ones: np.ndarray) -> Optional[np.ndarray]:
        """Solution of the shifted upper triangular system, or None when a guard fails.

        The guards are those of :meth:`_levinson`; the shifted matrix is
        formed in place and its residual taken before the diagonal is
        restored.
        """
        if not self._bounded(shift):
            return None
        diagonal = slice(None, None, len(ones) + 1)  # of the flattened matrix
        self.matrix.flat[diagonal] = self._diagonal + shift
        try:
            x = solve_triangular(self.matrix, ones, check_finite=False)
            residual = self.matrix @ x - ones
        except np.linalg.LinAlgError:  # a zero on the diagonal
            return None
        finally:
            self.matrix.flat[diagonal] = self._diagonal
        if not self._accepted(residual, x, shift):
            return None
        return x


@dataclass(frozen=True)
class ProfileSystems:
    """Zero-fee profile systems of the groups of principal assets of one game.

    ``pairs[k]`` holds the (mean, deviation) systems shared by the principal
    assets ``groups[k]`` (see :func:`principal_bundles`), built with the
    eigenvalue ``eigenvalues[k]`` and the variance term ``variance_terms[k]``
    (risk aversion times variance rate). ``paths`` counts the profile solves
    by path ("levinson", "triangular", "dense", "shifted"), and the
    re-bisections of :func:`critical_theta` on all groups ("all_groups") and
    on the reference path ("rebisect").
    """

    groups: Tuple[np.ndarray, ...]
    pairs: Tuple[Tuple[_FeeFreeSystem, _FeeFreeSystem], ...]
    paths: Dict[str, int]
    eigenvalues: np.ndarray
    variance_terms: np.ndarray

    def profiles(self, theta: float) -> Tuple[FundamentalSolutions, ...]:
        """Profile pair of every principal asset at fee ``theta``, one solve per group.

        The result is laid out as that of :func:`principal_fundamentals`.
        """
        pairs = (
            FundamentalSolutions(
                mean_profile=mean.solve(theta, self.paths),
                deviation_profile=deviation.solve(theta, self.paths),
            )
            for mean, deviation in self.pairs
        )
        return _spread(self.groups, pairs)

    def subset(self, indices: Sequence[int]) -> "ProfileSystems":
        """The systems of the groups ``indices`` alone, one principal asset standing for each.

        The subset shares the systems and the solve counts of this one.
        """
        indices = list(indices)
        return ProfileSystems(
            groups=tuple(np.array([i]) for i in range(len(indices))),
            pairs=tuple(self.pairs[k] for k in indices),
            paths=self.paths,
            eigenvalues=self.eigenvalues[indices],
            variance_terms=self.variance_terms[indices],
        )


def _unit_floor(
    kernel: DecayKernel,
    kernel_matrix: np.ndarray,
    at_zero: float,
    min_step: float,
    rounding: float,
) -> float:
    """Lower bound on the smallest eigenvalue of a kernel matrix, per unit lag-zero value.

    ``kernel_matrix`` holds ``kernel``'s shape, scaled to the value
    ``at_zero`` at lag zero, on a grid whose smallest step is ``min_step``;
    ``rounding`` is subtracted from the bound. For an exponential kernel the
    bound is ``tanh(rate * min_step / 2)``, on any grid: the matrix is an
    Ornstein-Uhlenbeck covariance with a tridiagonal inverse, whose absolute
    row sums are at most ``(1 + rho) / (1 - rho)`` for
    ``rho = exp(-rate * min_step)`` (Gershgorin). Other kernels take the
    smallest eigenvalue from ``eigvalsh``.
    """
    if kernel.family == "exponential":
        return float(np.tanh(0.5 * kernel.rate * min_step)) - rounding / at_zero
    return (np.linalg.eigvalsh(kernel_matrix)[0] - rounding) / at_zero


def prepare_profile_systems(spec: GameSpec) -> ProfileSystems:
    """Build the zero-fee profile systems of every group of principal assets once.

    Runs the split and its checks of :func:`principal_bundles`.
    On an equidistant grid, a system without a variance term (risk aversion
    or variance rate zero) is Toeplitz; its symmetric part is
    ``(J + 1) / 2 * K`` (mean) or ``K / 2`` (deviation) for the kernel matrix
    K, and K is a multiple of the first such asset's kernel matrix, so one
    floor of it (:func:`_unit_floor`) gives every floor. The floor is lowered
    by ``n eps ||K||_1`` to cover rounding. A variance term
    ``gamma v Gamma``, with ``Gamma = min(t_i, t_j)``, counts as absent when
    its 1-norm is within that rounding allowance, as when v is rounding noise
    of the split: the term is positive semi-definite, so the floor still
    holds, and its first row and column are zero, so the Levinson generators
    are K's. The Levinson and triangular residuals are checked against the
    actual matrix.
    """
    spectrum, groups, bundles = principal_bundles(replace(spec, theta=0.0))
    steps = np.diff(spec.grid.points)
    uniform = np.ptp(steps) <= _UNIFORM_TOL * spec.grid.horizon
    n, n_agents = spec.grid.n_points, spec.n_agents
    earlier_norm = float(np.sum(spec.grid.points))  # ||min(t_i, t_j)||_1, the last column
    unit_floor = None  # floor of the kernel matrix per unit lag-zero value
    pairs, variance_terms = [], []
    for bundle in bundles:
        variance_terms.append(bundle.gamma * bundle.var_rate)
        mean, deviation = profile_systems(bundle, n_agents)
        kernel = bundle.kernel_matrix
        rounding = n * np.finfo(float).eps * np.linalg.norm(kernel, 1)
        if uniform and variance_terms[-1] * earlier_norm <= rounding:
            if unit_floor is None:
                unit_floor = _unit_floor(
                    spec.kernel, kernel, bundle.kernel_at_zero, float(steps.min()), rounding
                )
            floor = unit_floor * bundle.kernel_at_zero
            pairs.append(
                (
                    _FeeFreeSystem(mean, 0.5 * (n_agents + 1) * floor),
                    _FeeFreeSystem(deviation, 0.5 * floor),
                )
            )
        else:
            pairs.append((_FeeFreeSystem(mean, None), _FeeFreeSystem(deviation, None)))
        del bundle  # free before the next bundle is built
    return ProfileSystems(
        groups=groups,
        pairs=tuple(pairs),
        paths=dict.fromkeys(
            ("levinson", "triangular", "dense", "shifted", "all_groups", "rebisect"), 0
        ),
        eigenvalues=spectrum.eigenvalues[[members[0] for members in groups]],
        variance_terms=np.array(variance_terms),
    )


def is_unstable_at(
    spec: GameSpec,
    theta: float,
    rel_tol: float = DEFAULT_FLIP_TOL,
    systems: Optional[ProfileSystems] = None,
) -> bool:
    """True when any profile of any principal asset oscillates at this fee.

    The fee stored in ``spec`` is ignored; inventories are irrelevant because
    every equilibrium is a combination of the probed profiles. Without
    ``systems`` the profiles come from :func:`principal_fundamentals`; with
    systems prepared from ``spec`` by :func:`prepare_profile_systems` they
    are solved from those.
    """
    if systems is None:
        _, pairs = principal_fundamentals(replace(spec, theta=float(theta)))
    else:
        pairs = systems.profiles(theta)
    return _any_unstable(_pair_flags(pairs, rel_tol))


def _agrees(
    fast: Sequence[FundamentalSolutions],
    fundamentals: Sequence[FundamentalSolutions],
    flags: Sequence[Tuple[OscillationFlags, OscillationFlags]],
    rel_tol: float,
) -> bool:
    """Whether prepared profiles give the reference verdict and, asset by asset, its profiles."""
    if _any_unstable(_pair_flags(fast, rel_tol)) != _any_unstable(flags):
        return False
    for pair, reference in zip(fast, fundamentals):
        for a, b in (
            (pair.mean_profile, reference.mean_profile),
            (pair.deviation_profile, reference.deviation_profile),
        ):
            if not np.abs(a - b).max() <= _CROSS_CHECK_TOL * np.abs(b).max():
                return False
    return True


def predicted_theta_star(
    cross_impact: np.ndarray,
    kernel_at_zero: float,
    n_agents: int,
    beta: float = 0.0,
    mode: str = "conjecture",
) -> float:
    """Closed-form critical-fee predictions.

    ``mode="theorem"`` gives the proven two-agent risk-neutral threshold,
    the top eigenvalue times the lag-zero kernel value over four.
    ``mode="conjecture"`` extrapolates to J agents with kernel crowding:
    ``kernel_at_zero * J**-beta * (J - 1) * top_eigenvalue / 4``, for
    ``n_agents`` of at least one (an ``ArgumentError`` otherwise). The
    eigenvalues are computed on one BLAS thread (see :func:`single_blas_thread`).
    """
    return _prediction(_top_eigenvalue(cross_impact), kernel_at_zero, n_agents, beta, mode)


def _top_eigenvalue(cross_impact: np.ndarray) -> float:
    """Largest eigenvalue of the cross-impact matrix, by ``eigvalsh`` on one BLAS thread."""
    with single_blas_thread():
        return float(np.linalg.eigvalsh(np.asarray(cross_impact, dtype=float))[-1])


def _prediction(top: float, kernel_at_zero: float, n_agents: int, beta: float, mode: str) -> float:
    """The prediction of :func:`predicted_theta_star` from the top eigenvalue."""
    if mode == "theorem":
        return kernel_at_zero * top / 4.0
    if mode == "conjecture":
        if n_agents < 1:
            raise ArgumentError("n_agents", f"need at least one agent, got {n_agents!r}")
        return kernel_at_zero * float(n_agents) ** (-beta) * (n_agents - 1) * top / 4.0
    raise ValueError(f"unknown prediction mode {mode!r}")


def _bisect_threshold(
    verdict,
    lo: float,
    hi: float,
    tol: float,
) -> Tuple[float, Tuple[float, float], List[Tuple[float, bool]], str]:
    """Bisection for the edge of a boolean region, with a monotonicity guard.

    ``verdict(x)`` is expected to be True below the edge and False above.
    After bisecting, the verdict is probed on a coarse grid; if the collected
    verdicts are not separated (some True above some False), the assumption
    failed and a fine scan of ``_SCAN_POINTS`` values locates the largest x
    with a True verdict instead. Returns (estimate, bracket, trace, method).
    """
    trace: List[Tuple[float, bool]] = []

    def probe(x: float) -> bool:
        result = bool(verdict(x))
        trace.append((x, result))
        return result

    if not probe(lo):
        raise BracketError(f"expected an unstable verdict at the lower bracket end {lo!r}")
    if probe(hi):
        raise BracketError(f"expected a stable verdict at the upper bracket end {hi!r}")
    lo0, hi0 = lo, hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float resolution exhausted
            break
        if probe(mid):
            lo = mid
        else:
            hi = mid

    for x in np.linspace(lo0, hi0, _CHECK_POINTS + 2)[1:-1]:
        if lo0 < x < hi0:
            probe(float(x))
    largest_true = max(x for x, r in trace if r)
    smallest_false = min(x for x, r in trace if not r)
    if largest_true < smallest_false:
        return 0.5 * (lo + hi), (lo, hi), trace, "bisect"

    # verdict is not monotone on this problem: fall back to a fine scan
    grid = np.linspace(lo0, hi0, _SCAN_POINTS)
    verdicts = [probe(float(x)) for x in grid]
    if not any(verdicts):
        raise BracketError("fine scan found no unstable fee inside the bracket")
    last_true = max(i for i, r in enumerate(verdicts) if r)
    if last_true == len(grid) - 1:
        raise BracketError("fine scan found no stable fee inside the bracket")
    lo, hi = float(grid[last_true]), float(grid[last_true + 1])
    return 0.5 * (lo + hi), (lo, hi), trace, "scan"


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a critical-fee estimation.

    ``estimate`` lies inside ``bracket``; ``method`` is "bisect" unless the
    monotonicity guard tripped and a grid scan produced the estimate.
    ``flags_below`` holds the (mean, deviation) oscillation flags of every
    principal asset probed just below the transition, from the reference
    path (:func:`principal_fundamentals`). Predictions carry the theorem
    value and the many-agent extrapolation for this game. ``solve_paths``
    counts the profile solves by path, the final check and any re-bisection
    on the reference path included: "levinson" (a Toeplitz system),
    "triangular" (an upper triangular Toeplitz deviation system), "shifted"
    (on a reduced top group or a large scale-law class) and "dense" (every
    other solve); "all_groups" is 1 when a group left out of the bisection
    was unstable at the final upper bracket end and the bisection ran again
    on all groups, and "rebisect" is 1 when the final reference check failed
    and the bisection ran again on the reference path.
    """

    estimate: float
    bracket: Tuple[float, float]
    method: str
    trace: Tuple[Tuple[float, bool], ...]
    flags_below: Tuple[Tuple[OscillationFlags, OscillationFlags], ...]
    predicted_theorem: float
    predicted_conjecture: float
    params: Dict[str, float]
    solve_paths: Dict[str, int]


def _top_groups(systems: ProfileSystems) -> Tuple[int, ...]:
    """The largest-eigenvalue group of each scale-law class.

    The classes are those of :func:`equilibrium._scale_law_classes`.
    """
    eigenvalues = systems.eigenvalues
    classes = _scale_law_classes(eigenvalues, systems.variance_terms)
    return tuple(int(members[np.argmax(eigenvalues[members])]) for members in classes)


def _checked_bisection(spec: GameSpec, lo: float, hi: float, tol: float, rel_tol: float):
    """Bisection of the top groups on prepared systems, checked at the end on all groups.

    See the module docstring. Returns (estimate, bracket, trace, method,
    flags_below, solve_paths).
    """
    systems = prepare_profile_systems(spec)
    paths = systems.paths
    top = systems.subset(_top_groups(systems))
    for pair in top.pairs:
        for system in pair:
            system.reduce()

    def reference_at(theta):
        _, fundamentals = principal_fundamentals(replace(spec, theta=theta), paths)
        return fundamentals, _pair_flags(fundamentals, rel_tol)

    def bisect(prepared):
        def verdict(theta):
            if prepared is None:
                return _any_unstable(reference_at(theta)[1])
            return is_unstable_at(spec, theta, rel_tol, systems=prepared)

        return _bisect_threshold(verdict, lo, hi, tol)

    estimate, final_bracket, trace, method = bisect(top)
    if len(top.pairs) < len(systems.pairs) and _any_unstable(
        _pair_flags(systems.profiles(final_bracket[1]), rel_tol)
    ):
        paths["all_groups"] += 1
        estimate, final_bracket, trace, method = bisect(systems)
    fast = systems.profiles(final_bracket[0])
    del systems, top  # the reference check needs the memory of the prepared matrices
    fundamentals, flags_below = reference_at(final_bracket[0])
    if not _agrees(fast, fundamentals, flags_below, rel_tol):
        paths["rebisect"] += 1
        estimate, final_bracket, trace, method = bisect(None)
        _, flags_below = reference_at(final_bracket[0])
    return estimate, final_bracket, trace, method, flags_below, paths


def _check_positive(**values: float) -> None:
    """ArgumentError naming the first value that is not finite and positive."""
    for name, value in values.items():
        if not (np.isfinite(value) and value > 0.0):
            raise ArgumentError(name, f"{name} must be finite and positive, got {value!r}")


def critical_theta(
    spec: GameSpec,
    bracket: Optional[Tuple[float, float]] = None,
    tol: float = 1e-4,
    rel_tol: float = DEFAULT_FLIP_TOL,
) -> StabilityReport:
    """Estimate the critical fee below which the market is unstable.

    Parameters
    ----------
    spec : game with identical agents; the stored fee and inventories are
        ignored.
    bracket : (lo, hi) with an unstable verdict at lo and a stable one at hi,
        both finite. Defaults to (0, 2x the many-agent prediction).
    tol : final bracket width for the bisection, finite and positive.
    rel_tol : relative flip-detection tolerance, finite and positive.

    The probes solve systems prepared once (see the module docstring), on
    one BLAS thread (see :func:`single_blas_thread`). ValueError for a game
    whose agents differ.
    """
    _require_identical_agents(spec)
    top = _top_eigenvalue(spec.cross_impact)
    conjecture = _prediction(top, spec.kernel.at_zero, spec.n_agents, spec.beta, "conjecture")
    theorem = _prediction(top, spec.kernel.at_zero, spec.n_agents, spec.beta, "theorem")
    if bracket is None:
        if conjecture <= 0.0:
            raise BracketError(
                "no default bracket available (prediction is zero); pass one explicitly"
            )
        bracket = (0.0, 2.0 * conjecture)
    _check_positive(tol=tol, rel_tol=rel_tol)
    if len(bracket) != 2:
        raise ArgumentError("bracket", f"bracket must be a pair (lo, hi), got {bracket!r}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ArgumentError("bracket", f"bracket ends must be finite, got {bracket!r}")
    if not lo < hi:
        raise BracketError(f"bracket must satisfy lo < hi, got {bracket!r}")

    with single_blas_thread():
        estimate, final_bracket, trace, method, flags_below, paths = _checked_bisection(
            spec, lo, hi, tol, rel_tol
        )
    params = {
        "n_assets": float(spec.n_assets),
        "n_agents": float(spec.n_agents),
        "n_steps": float(spec.grid.n_steps),
        "gamma": float(spec.gamma),
        "beta": float(spec.beta),
        "top_eigenvalue": top,
        "flip_tol": float(rel_tol),
        "requested_tol": float(tol),
    }
    return StabilityReport(
        estimate=float(estimate),
        bracket=(float(final_bracket[0]), float(final_bracket[1])),
        method=method,
        trace=tuple(trace),
        flags_below=flags_below,
        predicted_theorem=theorem,
        predicted_conjecture=conjecture,
        params=params,
        solve_paths=paths,
    )


@dataclass(frozen=True)
class SweepBase:
    """Shared configuration of a stability sweep.

    Each sweep point describes one market through (n_assets, n_agents,
    n_steps, gamma, beta); the cross-impact matrix is one-factor with the
    given coupling in (0, 1), and the price covariance is ``sigma`` resolved
    against it by :func:`price_covariance`. Each row bisects the bracket
    (0, 2x the row's prediction) down to ``rel_tol`` times the prediction;
    ``flip_tol`` is the flip-detection tolerance. These two and ``horizon``
    are finite and positive, ``gamma`` and ``beta`` finite and nonnegative.
    """

    kernel: DecayKernel
    horizon: float = 1.0
    coupling: float = 0.5
    gamma: float = 0.0
    beta: float = 0.0
    sigma: Union[str, float, np.ndarray] = "equal_to_Q"
    rel_tol: float = 1e-3
    flip_tol: float = DEFAULT_FLIP_TOL

    def __post_init__(self):
        if not 0.0 < self.coupling < 1.0:
            raise ArgumentError("coupling", f"coupling must lie in (0, 1), got {self.coupling!r}")
        _check_positive(horizon=self.horizon, rel_tol=self.rel_tol, flip_tol=self.flip_tol)
        for name, value in (("gamma", self.gamma), ("beta", self.beta)):
            if not (np.isfinite(value) and value >= 0.0):
                raise ArgumentError(name, f"{name} must be finite and nonnegative")
        if np.ndim(self.sigma) == 0:  # a matrix sigma is checked against each row's size
            price_covariance(self.sigma, np.eye(1))


@dataclass(frozen=True)
class SweepRow:
    params: Dict[str, float]
    estimate: Optional[float]
    predicted: float
    rel_discrepancy: Optional[float]
    method: Optional[str]
    error: Optional[str]


def stability_sweep(points: Iterable[Mapping], base: SweepBase) -> List[SweepRow]:
    """Estimate the critical fee over a grid of market sizes.

    Every point may set ``n_assets``, ``n_agents``, ``n_steps``, ``gamma``,
    and ``beta``; missing keys fall back to the base configuration (with
    n_assets=1, n_agents=2, n_steps=100 as final defaults). Failures are
    recorded per row and do not stop the sweep.
    """
    rows: List[SweepRow] = []
    for point in points:
        params = {
            "n_assets": int(point.get("n_assets", 1)),
            "n_agents": int(point.get("n_agents", 2)),
            "n_steps": int(point.get("n_steps", 100)),
            "gamma": float(point.get("gamma", base.gamma)),
            "beta": float(point.get("beta", base.beta)),
        }
        predicted = float("nan")
        try:
            cross = one_factor_matrix(params["n_assets"], base.coupling)
            predicted = predicted_theta_star(
                cross, base.kernel.at_zero, params["n_agents"], params["beta"], "conjecture"
            )
            spec = GameSpec(
                grid=make_equidistant_grid(params["n_steps"], base.horizon),
                kernel=base.kernel,
                cross_impact=cross,
                n_agents=params["n_agents"],
                gamma=params["gamma"],
                beta=params["beta"],
                covariance=price_covariance(base.sigma, cross),
            )
            report = critical_theta(
                spec,
                bracket=(0.0, 2.0 * predicted),
                tol=max(base.rel_tol * predicted, 1e-12),
                rel_tol=base.flip_tol,
            )
            rows.append(
                SweepRow(
                    params=params,
                    estimate=report.estimate,
                    predicted=predicted,
                    rel_discrepancy=abs(report.estimate - predicted) / abs(predicted),
                    method=report.method,
                    error=None,
                )
            )
        except (ValueError, NumericError) as exc:  # record and continue with the next row
            rows.append(
                SweepRow(
                    params=params,
                    estimate=None,
                    predicted=predicted,
                    rel_discrepancy=None,
                    method=None,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return rows
