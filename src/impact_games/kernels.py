"""Trading grids, decay kernels, and the dense matrices built from them.

The solvers' quadratic forms are assembled here: the symmetric kernel
matrix, its strict lower part, the fair-priority cross-cost matrix, and the
self-cost matrix with the quadratic fee and the Bachelier variance term.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import _finite

__all__ = [
    "TimeGrid",
    "DecayKernel",
    "MatrixBundle",
    "make_equidistant_grid",
    "exponential_kernel",
    "power_law_kernel",
    "build_matrices",
]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing trading times ``t_0 = 0 < t_1 < ... < t_N``."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a trading grid needs at least two time points")
        _finite("points", pts)
        if pts[0] != 0.0:
            raise ValueError("trading grids must start at t = 0")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("trading times must be strictly increasing")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n_steps(self) -> int:
        """Number of trading intervals (one less than the point count)."""
        return self.points.size - 1

    @property
    def n_points(self) -> int:
        return self.points.size

    @property
    def horizon(self) -> float:
        return float(self.points[-1])


def make_equidistant_grid(n_steps: int, horizon: float = 1.0) -> TimeGrid:
    """Equidistant grid with ``n_steps + 1`` points on ``[0, horizon]``.

    Parameters
    ----------
    n_steps : int
        Number of trading intervals, at least 1.
    horizon : float
        Length of the trading session, strictly positive.
    """
    if int(n_steps) != n_steps or n_steps < 1:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    return TimeGrid(np.linspace(0.0, float(horizon), int(n_steps) + 1))


def _unit_kernel(family: str, rate: float, exponent: float, offset: float, lag: np.ndarray):
    """Kernel values at unit scale, from the fields that fix the kernel's shape."""
    if family == "exponential":
        return np.exp(-rate * lag)
    return (lag + offset) ** (-exponent)


@dataclass(frozen=True)
class DecayKernel:
    """Nonincreasing, strictly positive impact decay kernel.

    Two families are supported:

    * ``"exponential"``: ``scale * exp(-rate * t)``
    * ``"power_law"``: ``scale * (t + offset) ** -exponent`` (the positive
      offset keeps the value at lag zero finite)

    ``scale`` is a uniform multiplier; crowding adjustments of the form
    ``n_agents ** -beta`` are folded into it via :meth:`scaled`. Every
    parameter must be finite and positive, also one the family does not use.
    """

    family: str
    rate: float = 1.0
    exponent: float = 1.0
    offset: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in ("exponential", "power_law"):
            raise ValueError(f"unknown kernel family {self.family!r}")
        _finite("kernel parameters", np.array([self.rate, self.exponent, self.offset, self.scale]))
        for name in ("rate", "exponent", "offset", "scale"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"kernel {name} must be positive, got {getattr(self, name)!r}")

    def __call__(self, lag):
        lag = np.asarray(lag, dtype=float)
        return self.scale * _unit_kernel(self.family, self.rate, self.exponent, self.offset, lag)

    @property
    def at_zero(self) -> float:
        """Kernel value at lag zero (instantaneous impact of a unit trade)."""
        return float(self(0.0))

    def scaled(self, factor: float) -> "DecayKernel":
        """Same kernel with the uniform scale multiplied by ``factor > 0``."""
        if not factor > 0.0:
            raise ValueError("kernel scale factor must be positive")
        return replace(self, scale=self.scale * factor)


def exponential_kernel(rate: float = 1.0, scale: float = 1.0) -> DecayKernel:
    return DecayKernel(family="exponential", rate=rate, scale=scale)


def power_law_kernel(exponent: float, offset: float, scale: float = 1.0) -> DecayKernel:
    return DecayKernel(family="power_law", exponent=exponent, offset=offset, scale=scale)


@dataclass(frozen=True)
class MatrixBundle:
    """The ``(N+1) x (N+1)`` matrices the solvers need from one grid/kernel pair.

    Attributes
    ----------
    kernel_matrix : symmetric matrix of kernel values at absolute time lags.
    strict_lower : kernel values at positive lags, zero on and above the diagonal.
    fair_priority : strict_lower plus half the lag-zero value on the diagonal;
        the cross-cost matrix when simultaneous execution order is a fair coin.
    mv_self_cost : kernel_matrix plus twice the quadratic fee on the diagonal,
        plus risk aversion times the Bachelier variance matrix
        ``var_rate * min(t_i, t_j)``; the system matrix of the mean-variance
        first-order conditions.
    """

    kernel_matrix: np.ndarray
    strict_lower: np.ndarray
    fair_priority: np.ndarray
    mv_self_cost: np.ndarray
    kernel_at_zero: float
    gamma: float
    var_rate: float


def _validate_kernel_values(values: np.ndarray) -> None:
    if np.any(values <= 0.0):
        raise ValueError("decay kernel must be strictly positive on the sampled lags")
    # allow for float noise on near-flat kernels
    if np.any(np.diff(values) > 1e-12 * values[0]):
        raise ValueError("decay kernel must be nonincreasing on the sampled lags")


@functools.lru_cache(maxsize=1)
def _unit_parts(points: bytes, family: str, rate: float, exponent: float, offset: float):
    """Scale-, fee- and risk-free parts of a bundle, for one grid and kernel shape.

    The kernel is checked on every distinct lag of the grid, then evaluated at
    unit scale on the strict lower triangle; ``min(t_i, t_j)`` completes the
    pair. Both arrays are read-only, since repeated calls return the same ones.
    """
    shape = functools.partial(_unit_kernel, family, rate, exponent, offset)
    t = np.frombuffer(points)
    lag = t[:, None] - t[None, :]
    _validate_kernel_values(shape(np.unique(np.abs(lag))))
    unit_lower = np.where(lag > 0.0, shape(np.where(lag > 0.0, lag, 0.0)), 0.0)
    min_times = np.minimum.outer(t, t)
    unit_lower.flags.writeable = False
    min_times.flags.writeable = False
    return unit_lower, min_times


def build_matrices(
    grid: TimeGrid,
    kernel: DecayKernel,
    theta: float = 0.0,
    gamma: float = 0.0,
    var_rate: float = 0.0,
) -> MatrixBundle:
    """Assemble the matrix bundle for one asset.

    Parameters
    ----------
    grid, kernel : trading grid and decay kernel.
    theta : quadratic transaction-cost parameter, >= 0.
    gamma : risk-aversion parameter, >= 0.
    var_rate : variance per unit time of the unaffected price, >= 0.
    """
    if theta < 0.0:
        raise ValueError("theta must be nonnegative")
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    if var_rate < 0.0:
        raise ValueError("var_rate must be nonnegative")

    if not kernel.scale > 0.0:
        raise ValueError("kernel scale must be positive")
    unit_lower, min_times = _unit_parts(
        grid.points.tobytes(), kernel.family, kernel.rate, kernel.exponent, kernel.offset
    )

    eye = np.eye(grid.n_points)
    g0 = kernel.at_zero
    strict_lower = kernel.scale * unit_lower
    # symmetric matrix from the exact same kernel evaluations
    kernel_matrix = strict_lower + strict_lower.T + g0 * eye
    return MatrixBundle(
        kernel_matrix=kernel_matrix,
        strict_lower=strict_lower,
        fair_priority=strict_lower + 0.5 * g0 * eye,
        mv_self_cost=kernel_matrix + 2.0 * theta * eye + gamma * (var_rate * min_times),
        kernel_at_zero=g0,
        gamma=float(gamma),
        var_rate=float(var_rate),
    )
