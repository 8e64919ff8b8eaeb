"""Oscillation detection, critical-fee estimation, and stability sweeps.

A market is unstable at a given fee level when some normalized profile of
some principal asset alternates between buys and sells at consecutive trading
times. The smallest fee above which no profile oscillates is estimated by
bisection, guarded by a verdict-consistency check with a grid-scan fallback,
and compared against two closed-form predictions: the two-agent theorem value
(top eigenvalue times the lag-zero kernel over four) and its many-agent
extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ._linalg import NumericError
from .cross_impact import one_factor_matrix
from .equilibrium import GameSpec, principal_fundamentals
from .kernels import DecayKernel, make_equidistant_grid

__all__ = [
    "OscillationFlags",
    "oscillation_flags",
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
    already counts as unstable. The zero vector is stable by convention.
    """
    u = np.asarray(u, dtype=float)
    peak = np.abs(u).max() if u.size else 0.0
    if peak == 0.0:
        return OscillationFlags(flip_count=0, unstable=False)
    products = u[:-1] * u[1:]
    flips = int(np.sum(products < -rel_tol * peak**2))
    return OscillationFlags(flip_count=flips, unstable=flips >= 1)


def _profile_flags(
    spec: GameSpec, theta: float, rel_tol: float
) -> Tuple[Tuple[OscillationFlags, OscillationFlags], ...]:
    _, fundamentals = principal_fundamentals(replace(spec, theta=float(theta)))
    return tuple(
        (
            oscillation_flags(pair.mean_profile, rel_tol),
            oscillation_flags(pair.deviation_profile, rel_tol),
        )
        for pair in fundamentals
    )


def is_unstable_at(spec: GameSpec, theta: float, rel_tol: float = DEFAULT_FLIP_TOL) -> bool:
    """True when any profile of any principal asset oscillates at this fee.

    The fee stored in ``spec`` is ignored; inventories are irrelevant because
    every equilibrium is a combination of the probed profiles.
    """
    return any(
        flags.unstable
        for pair in _profile_flags(spec, theta, rel_tol)
        for flags in pair
    )


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
    ``kernel_at_zero * J**-beta * (J - 1) * top_eigenvalue / 4``.
    """
    eigenvalues = np.linalg.eigvalsh(np.asarray(cross_impact, dtype=float))
    top = float(eigenvalues[-1])
    if mode == "theorem":
        return kernel_at_zero * top / 4.0
    if mode == "conjecture":
        return kernel_at_zero * float(n_agents) ** (-beta) * (n_agents - 1) * top / 4.0
    raise ValueError(f"unknown prediction mode {mode!r}")


def _bisect_threshold(
    verdict,
    lo: float,
    hi: float,
    tol: float,
    check_points: int = 16,
    scan_points: int = 200,
) -> Tuple[float, Tuple[float, float], List[Tuple[float, bool]], str]:
    """Bisection for the edge of a boolean region, with a monotonicity guard.

    ``verdict(x)`` is expected to be True below the edge and False above.
    After bisecting, the verdict is probed on a coarse grid; if the collected
    verdicts are not separated (some True above some False), the assumption
    failed and a fine scan of ``scan_points`` values locates the largest x
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

    for x in np.linspace(lo0, hi0, check_points + 2)[1:-1]:
        if lo0 < x < hi0:
            probe(float(x))
    largest_true = max(x for x, r in trace if r)
    smallest_false = min(x for x, r in trace if not r)
    if largest_true < smallest_false:
        return 0.5 * (lo + hi), (lo, hi), trace, "bisect"

    # verdict is not monotone on this problem: fall back to a fine scan
    grid = np.linspace(lo0, hi0, scan_points)
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
    principal asset probed just below the transition. Predictions carry the
    theorem value and the many-agent extrapolation for this game.
    """

    estimate: float
    bracket: Tuple[float, float]
    method: str
    trace: Tuple[Tuple[float, bool], ...]
    flags_below: Tuple[Tuple[OscillationFlags, OscillationFlags], ...]
    predicted_theorem: float
    predicted_conjecture: float
    params: Dict[str, float]


def critical_theta(
    spec: GameSpec,
    bracket: Optional[Tuple[float, float]] = None,
    tol: float = 1e-4,
    rel_tol: float = DEFAULT_FLIP_TOL,
    scan_points: int = 200,
) -> StabilityReport:
    """Estimate the critical fee below which the market is unstable.

    Parameters
    ----------
    spec : game parameters; the stored fee and inventories are ignored.
    bracket : (lo, hi) with an unstable verdict at lo and a stable one at hi.
        Defaults to (0, 2x the many-agent prediction).
    tol : final bracket width for the bisection, finite and positive.
    rel_tol : relative flip-detection tolerance.
    scan_points : resolution of the fallback scan when bisection detects a
        non-monotone verdict.
    """
    conjecture = predicted_theta_star(
        spec.cross_impact, spec.kernel.at_zero, spec.n_agents, spec.beta, "conjecture"
    )
    theorem = predicted_theta_star(
        spec.cross_impact, spec.kernel.at_zero, spec.n_agents, spec.beta, "theorem"
    )
    if bracket is None:
        if conjecture <= 0.0:
            raise BracketError(
                "no default bracket available (prediction is zero); pass one explicitly"
            )
        bracket = (0.0, 2.0 * conjecture)
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"bracket ends must be finite, got {bracket!r}")
    if not lo < hi:
        raise BracketError(f"bracket must satisfy lo < hi, got {bracket!r}")

    estimate, final_bracket, trace, method = _bisect_threshold(
        lambda theta: is_unstable_at(spec, theta, rel_tol),
        lo,
        hi,
        tol=tol,
        scan_points=scan_points,
    )
    flags_below = _profile_flags(spec, final_bracket[0], rel_tol)
    spectrum_top = float(np.linalg.eigvalsh(spec.cross_impact)[-1])
    params = {
        "n_assets": float(spec.n_assets),
        "n_agents": float(spec.n_agents),
        "n_steps": float(spec.grid.n_steps),
        "gamma": float(spec.gamma),
        "beta": float(spec.beta),
        "top_eigenvalue": spectrum_top,
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
    )


@dataclass(frozen=True)
class SweepBase:
    """Shared configuration of a stability sweep.

    Each sweep point describes one market through (n_assets, n_agents,
    n_steps, gamma, beta); the cross-impact matrix is one-factor with the
    given coupling, and the price covariance equals the cross-impact matrix
    unless ``covariance_mode`` is "none".
    """

    kernel: DecayKernel
    horizon: float = 1.0
    coupling: float = 0.5
    gamma: float = 0.0
    beta: float = 0.0
    covariance_mode: str = "cross_impact"
    bracket_factor: float = 2.0
    rel_tol: float = 1e-3
    flip_tol: float = DEFAULT_FLIP_TOL


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
    if base.covariance_mode not in ("cross_impact", "none"):
        raise ValueError(f"unknown covariance mode {base.covariance_mode!r}")
    rows: List[SweepRow] = []
    for point in points:
        params = {
            "n_assets": int(point.get("n_assets", 1)),
            "n_agents": int(point.get("n_agents", 2)),
            "n_steps": int(point.get("n_steps", 100)),
            "gamma": float(point.get("gamma", base.gamma)),
            "beta": float(point.get("beta", base.beta)),
        }
        try:
            cross = one_factor_matrix(params["n_assets"], base.coupling)
            covariance = cross if base.covariance_mode == "cross_impact" else None
            spec = GameSpec(
                grid=make_equidistant_grid(params["n_steps"], base.horizon),
                kernel=base.kernel,
                cross_impact=cross,
                n_agents=params["n_agents"],
                gamma=params["gamma"],
                beta=params["beta"],
                covariance=covariance,
            )
            predicted = predicted_theta_star(
                cross, base.kernel.at_zero, params["n_agents"], params["beta"], "conjecture"
            )
            report = critical_theta(
                spec,
                bracket=(0.0, base.bracket_factor * predicted),
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
            predicted = float("nan")
            try:
                predicted = predicted_theta_star(
                    one_factor_matrix(params["n_assets"], base.coupling),
                    base.kernel.at_zero,
                    params["n_agents"],
                    params["beta"],
                    "conjecture",
                )
            except (ValueError, NumericError):
                pass
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
