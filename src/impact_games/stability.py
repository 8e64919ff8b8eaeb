"""Oscillation detection, critical-fee estimation, and stability sweeps.

A market is unstable at a given fee level when some normalized profile of
some principal asset alternates between buys and sells at consecutive trading
times. The smallest fee above which no profile oscillates is estimated by
bisection, guarded by a verdict-consistency check with a grid-scan fallback,
and compared against two closed-form predictions: the two-agent theorem value
(top eigenvalue times the lag-zero kernel over four) and its many-agent
extrapolation.

:func:`critical_theta` prepares the profile systems once
(:func:`equilibrium.prepare_profile_systems`, as the closed form does), takes
its predictions from their spectrum, and a probe solves them for the groups
it needs. The bisection probes only the group of largest eigenvalue in each
scale-law class, the groups with equal ``gamma * v_k / lambda_k`` (variance
rate v_k, eigenvalue lambda_k). Group k at fee theta has the unit-eigenvalue
profiles at ``theta / lambda_k``, so it has the top group's profiles at
``theta * lambda_top / lambda_k >= theta``: with a verdict that is unstable
below some fee and stable above it, a lower group oscillates only where the
top group does. This scale law is behind the theorem value
``lambda_max G(0) / 4``; with ``gamma = 0`` or a covariance proportional to Q
there is one class, and only the top principal asset is bisected. A bisected
class without a floor is reduced to Hessenberg form once, for shifted solves.

The returned bracket and estimate rest only on the verdicts at the two final
bracket ends, so checking every group there also covers rounding and a
verdict that is not monotone. At the lower end a bisected group oscillates,
so the game does. At the upper end every group is solved on the prepared
systems; if one oscillates, the bisection runs again on all groups. Then the
prepared systems are freed, and their profiles at the lower end are checked
independently of them: each group's two profile systems are built afresh, as
the dense reference (:func:`equilibrium.principal_fundamentals`) builds them,
and each prepared profile is certified against its system by an a-posteriori
forward-error bound (:func:`_linalg._profile_error_bound`) that proves it
within ``_CROSS_CHECK_TOL`` of the exact profile and proves its verdict. A
system whose certificate declines is solved densely from the same matrix. If
that profile is not as close to the prepared one, or the checked verdict is
not the prepared one, the bisection runs again on the reference path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ._linalg import (
    ArgumentError,
    NumericError,
    _array,
    _integer,
    _normalized,
    _number,
    _profile_error_bound,
    guarded_solve,
    single_blas_thread,
)
from .cross_impact import analyze_cross_impact, one_factor_matrix, price_covariance
from .equilibrium import (
    FundamentalSolutions,
    GameSpec,
    ProfileSystems,
    _principal_split,
    _scale_law_classes,
    _spread,
    _unit_floor,
    prepare_profile_systems,
    principal_fundamentals,
    profile_systems,
)
from .kernels import DecayKernel, build_matrices, make_equidistant_grid

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
    ``ArgumentError`` unless ``u`` is a vector of numbers and ``rel_tol`` is
    finite and nonnegative; zero counts every strict sign change.
    """
    _number("rel_tol", rel_tol, positive=False)
    u = _array("u", u, finite=False)
    if u.ndim != 1:
        raise ArgumentError("u", f"u must be a vector, got shape {u.shape}")
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
    are solved from those. ``ArgumentError`` unless ``theta`` is finite and
    nonnegative and ``rel_tol`` finite and positive.
    """
    theta = _number("theta", theta, positive=False)
    _number("rel_tol", rel_tol)
    if systems is None:
        _, pairs = principal_fundamentals(replace(spec, theta=theta))
    else:
        pairs = systems.profiles(theta)
    return _any_unstable(_pair_flags(pairs, rel_tol))


def _verdict_certain(profile: np.ndarray, bound: float, rel_tol: float) -> bool:
    """Whether every profile within ``bound`` of ``profile`` (infinity norm) is close and agrees.

    Such a profile p is within ``_CROSS_CHECK_TOL`` of p itself, and each
    product ``p_k p_(k+1)`` lies on the same side of ``-rel_tol max|p|^2`` as
    for ``profile``: it moves by at most ``bound (|profile_k| +
    |profile_(k+1)|) + bound^2`` and the threshold by at most ``rel_tol (2
    peak bound + bound^2)``; the floating-point rounding of the verdict's
    own products and threshold is added.
    """
    peak = float(np.abs(profile).max())
    if not bound <= _CROSS_CHECK_TOL * (peak - bound):
        return False
    products = profile[:-1] * profile[1:]
    threshold = -rel_tol * peak**2
    margin = bound * (np.abs(profile[:-1]) + np.abs(profile[1:])) + bound**2
    margin += rel_tol * (2.0 * peak * bound + bound**2)
    margin += 4.0 * np.finfo(float).eps * (np.abs(products) + abs(threshold))
    return bool(np.all(np.abs(products - threshold) > margin))


def _certified(matrix: np.ndarray, profile: np.ndarray, floor: float, rel_tol: float) -> bool:
    """Whether ``profile`` provably is the normalized solution of ``matrix x = 1`` with its verdict.

    The bound is :func:`_linalg._profile_error_bound`'s, with the residual in
    double; when that fails on the rounding allowance of the residual, the
    residual is taken again in ``np.longdouble`` (where that is plain double,
    the bound only declines more often).
    """
    bound, rounding = _profile_error_bound(matrix, profile, floor)
    if not _verdict_certain(profile, bound, rel_tol) and rounding:
        bound, _ = _profile_error_bound(matrix, profile, floor, np.longdouble)
    return _verdict_certain(profile, bound, rel_tol)


def _checked_profiles(
    spec: GameSpec,
    theta: float,
    fast: Sequence[FundamentalSolutions],
    rel_tol: float,
    paths: Dict[str, int],
) -> Tuple[Tuple[FundamentalSolutions, ...], bool]:
    """Each principal asset's profile pair at ``theta``, and whether the dense ones are close.

    Each group of :func:`equilibrium._principal_split` gets its two dense
    profile systems, built as :func:`principal_fundamentals` builds them (one
    bundle of the effective kernel scaled by the group's eigenvalue, then
    :func:`equilibrium.profile_systems`). The symmetric parts of the mean and
    the deviation system are ``lambda (J + 1) / 2 K + 2 theta I + gamma v
    Gamma`` and ``lambda / 2 K + 2 theta I + gamma v Gamma``, for the unit
    kernel matrix K and the positive semidefinite ``Gamma = min(t_i, t_j)``,
    so the floor of :func:`equilibrium.prepare_profile_systems` under K,
    ``G(0) _unit_floor - n eps ||K||_1``, scaled and shifted alike, bounds
    their smallest eigenvalues. The prepared profile ``fast`` of the group's
    first member is kept when :func:`_certified` against its system and
    counted under "certified" (:func:`_verdict_certain` proves it within
    ``_CROSS_CHECK_TOL`` of the exact profile); otherwise the system is solved
    by :func:`guarded_solve`, counted under "dense", and its profile is close
    when within ``_CROSS_CHECK_TOL`` of the prepared one, relative to its
    largest entry.
    """
    spectrum, var_rates, groups = _principal_split(spec)
    n, n_agents = spec.grid.n_points, spec.n_agents
    min_step = float(np.diff(spec.grid.points).min())
    unit_floor = spec.effective_kernel.at_zero * _unit_floor(spec.kernel, min_step)
    pairs, close = [], True
    for members in groups:
        first = members[0]
        eigenvalue = float(spectrum.eigenvalues[first])
        bundle = build_matrices(spec.grid, spec.effective_kernel.scaled(eigenvalue))
        rounding = n * np.finfo(float).eps * np.linalg.norm(bundle.kernel_matrix, 1)
        floor = eigenvalue * unit_floor - rounding
        systems = profile_systems(spec, bundle, theta, float(var_rates[first]))
        del bundle  # free before the next bundle is built
        prepared = (fast[first].mean_profile, fast[first].deviation_profile)
        profiles = []
        for matrix, profile, weight in zip(systems, prepared, (0.5 * (n_agents + 1), 0.5)):
            if _certified(matrix, profile, weight * floor + 2.0 * theta, rel_tol):
                paths["certified"] += 1
            else:
                paths["dense"] += 1
                dense = _normalized(guarded_solve(matrix, np.ones(n)))
                gap = np.abs(dense - profile).max()
                close = close and bool(gap <= _CROSS_CHECK_TOL * np.abs(dense).max())
                profile = dense
            profiles.append(profile)
        pairs.append(FundamentalSolutions(*profiles))
    return _spread(groups, pairs), close


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
    a whole ``n_agents`` of at least one. ``ArgumentError`` unless the
    cross-impact matrix is square, finite and symmetric, ``kernel_at_zero``
    finite and positive, ``beta`` finite and nonnegative and ``mode`` one of
    the two. The top eigenvalue is that of :func:`analyze_cross_impact`, on
    one BLAS thread, as in :func:`critical_theta`.
    """
    _number("kernel_at_zero", kernel_at_zero)
    _number("beta", beta, positive=False)
    with single_blas_thread():
        top = analyze_cross_impact(cross_impact).top_eigenvalue
    return _prediction(top, kernel_at_zero, n_agents, beta, mode)


def _prediction(top: float, kernel_at_zero: float, n_agents: int, beta: float, mode: str) -> float:
    """The prediction of :func:`predicted_theta_star` from the top eigenvalue."""
    if mode == "theorem":
        return kernel_at_zero * top / 4.0
    if mode == "conjecture":
        n_agents = _integer("n_agents", n_agents, 1)
        return kernel_at_zero * float(n_agents) ** (-beta) * (n_agents - 1) * top / 4.0
    raise ArgumentError("mode", f"unknown prediction mode {mode!r}")


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
    principal asset probed just below the transition: those of the prepared
    profiles the final check certified and of dense solves where it
    declined, or those of the reference path (:func:`principal_fundamentals`)
    after a re-bisection on it. Predictions carry the theorem value and the
    many-agent extrapolation for this game. ``solve_paths`` counts the
    profile solves by path, the final check and any re-bisection on the
    reference path included: "banded" (an exponential kernel's system
    without a variance term, on any grid), "levinson" (a Toeplitz mean
    system), "triangular" (an upper triangular deviation system), "shifted"
    (on the reduced systems of a bisected or a large scale-law class) and
    "dense" (the reference, a system of the final check whose certificate
    declined, and every other solve; see :mod:`_linalg`). "certified" counts
    the systems of the final check whose prepared profile was certified, so
    the final check adds ``certified + dense`` = twice the number of groups.
    "all_groups" is 1 when a group left out of the bisection was unstable at
    the final upper bracket end and the bisection ran again on all groups,
    and "rebisect" is 1 when the final check disagreed with the prepared
    profiles and the bisection ran again on the reference path.
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
        both finite and nonnegative fees. Defaults to (0, 2x the many-agent
        prediction).
    tol : final bracket width for the bisection, finite and positive.
    rel_tol : relative flip-detection tolerance, finite and positive.

    The probes solve systems prepared once, and the final check certifies
    their profiles (see the module docstring), on one BLAS thread (see
    :func:`single_blas_thread`); the predictions and the default bracket read
    the top eigenvalue of their spectrum. ValueError for a game whose agents
    differ.
    """
    _number("tol", tol)
    _number("rel_tol", rel_tol)
    with single_blas_thread():
        systems = prepare_profile_systems(spec)
    paths = systems.paths
    top = systems.spectrum.top_eigenvalue
    conjecture = _prediction(top, spec.kernel.at_zero, spec.n_agents, spec.beta, "conjecture")
    theorem = _prediction(top, spec.kernel.at_zero, spec.n_agents, spec.beta, "theorem")
    if bracket is None:
        if conjecture <= 0.0:
            raise BracketError(
                "no default bracket available (prediction is zero); pass one explicitly"
            )
        bracket = (0.0, 2.0 * conjecture)
    try:
        lo, hi = bracket
    except (TypeError, ValueError):  # not a pair
        raise ArgumentError("bracket", f"bracket must be a pair, got {bracket!r}") from None
    lo, hi = (_number("bracket", end, positive=False) for end in (lo, hi))
    if not lo < hi:
        raise BracketError(f"bracket must satisfy lo < hi, got {bracket!r}")

    def reference_at(theta):
        _, fundamentals = principal_fundamentals(replace(spec, theta=theta), paths)
        return _pair_flags(fundamentals, rel_tol)

    def bisect(prepared):
        def verdict(theta):
            if prepared is None:
                return _any_unstable(reference_at(theta))
            return is_unstable_at(spec, theta, rel_tol, systems=prepared)

        return _bisect_threshold(verdict, lo, hi, tol)

    with single_blas_thread():
        subset = systems.subset(_top_groups(systems))
        for pair in subset.pairs:
            for system in pair:
                system.reduce()
        estimate, final_bracket, trace, method = bisect(subset)
        if len(subset.pairs) < len(systems.pairs) and _any_unstable(
            _pair_flags(systems.profiles(final_bracket[1]), rel_tol)
        ):
            paths["all_groups"] += 1
            estimate, final_bracket, trace, method = bisect(systems)
        fast = systems.profiles(final_bracket[0])
        del systems, subset, pair, system  # the final check needs the prepared matrices' memory
        checked, close = _checked_profiles(spec, final_bracket[0], fast, rel_tol, paths)
        flags_below = _pair_flags(checked, rel_tol)
        if not (close and _any_unstable(_pair_flags(fast, rel_tol)) == _any_unstable(flags_below)):
            paths["rebisect"] += 1
            estimate, final_bracket, trace, method = bisect(None)
            flags_below = reference_at(final_bracket[0])
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
        one_factor_matrix(1, self.coupling)  # the coupling check, as sigma's is price_covariance
        for name in ("horizon", "rel_tol", "flip_tol"):
            _number(name, getattr(self, name))
        for name in ("gamma", "beta"):
            _number(name, getattr(self, name), positive=False)
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
    recorded per row and do not stop the sweep; a count that is not a whole
    number, or a ``gamma`` or ``beta`` that is not a finite nonnegative
    number, is such a failure (ArgumentError), not truncated or converted.
    """
    rows: List[SweepRow] = []
    for point in points:
        params = {
            "n_assets": point.get("n_assets", 1),
            "n_agents": point.get("n_agents", 2),
            "n_steps": point.get("n_steps", 100),
            "gamma": point.get("gamma", base.gamma),
            "beta": point.get("beta", base.beta),
        }
        predicted = float("nan")
        try:
            for name in ("n_assets", "n_agents", "n_steps"):
                params[name] = _integer(name, params[name])
            for name in ("gamma", "beta"):
                params[name] = _number(name, params[name], positive=False)
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
