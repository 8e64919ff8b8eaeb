"""Trading grids, decay kernels, and the dense matrices built from them.

A single-asset game is built from the decay kernel alone: the symmetric
kernel matrix K and its strict lower part L (:func:`build_matrices`). The
fee, the variance term and the priority weights are added by their
consumers: :mod:`equilibrium` forms the profile systems, :mod:`costs` and
:mod:`hetero` the costs and the stacked system. Every kernel matrix of the
package is formed here, under one size cap (``MAX_FORMED_BYTES``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import ArgumentError, NumericError, _array, _integer, _number

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
        pts = _array("points", self.points)
        if pts.ndim != 1 or pts.size < 2:
            raise ArgumentError("points", "a trading grid needs at least two time points")
        if pts[0] != 0.0:
            raise ArgumentError("points", "trading grids must start at t = 0")
        if np.any(np.diff(pts) <= 0.0):
            raise ArgumentError("points", "trading times must be strictly increasing")
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
        Number of trading intervals, a whole number of at least 1.
    horizon : float
        Length of the trading session, finite and positive.
    """
    n_steps = _integer("n_steps", n_steps, 1)
    return TimeGrid(np.linspace(0.0, _number("horizon", horizon), n_steps + 1))


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
    parameter must be finite and positive, also one the family does not use,
    and the value at lag zero must be finite (an ``offset`` error if not).
    """

    family: str
    rate: float = 1.0
    exponent: float = 1.0
    offset: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in ("exponential", "power_law"):
            raise ArgumentError("family", f"unknown kernel family {self.family!r}")
        for name in ("rate", "exponent", "offset", "scale"):
            _number(name, getattr(self, name))
        with np.errstate(over="ignore"):
            at_zero = self.at_zero
        if not np.isfinite(at_zero):  # only a power law's can overflow
            raise ArgumentError(
                "offset", f"offset {self.offset!r} gives the non-finite value {at_zero} at lag zero"
            )

    def __call__(self, lag):
        lag = np.asarray(lag, dtype=float)
        return self.scale * _unit_kernel(self.family, self.rate, self.exponent, self.offset, lag)

    @property
    def at_zero(self) -> float:
        """Kernel value at lag zero (instantaneous impact of a unit trade)."""
        return float(self(0.0))

    def scaled(self, factor: float) -> "DecayKernel":
        """Same kernel with the uniform scale multiplied by ``factor > 0``."""
        return replace(self, scale=self.scale * _number("factor", factor))


def exponential_kernel(rate: float = 1.0, scale: float = 1.0) -> DecayKernel:
    return DecayKernel(family="exponential", rate=rate, scale=scale)


def power_law_kernel(exponent: float, offset: float, scale: float = 1.0) -> DecayKernel:
    return DecayKernel(family="power_law", exponent=exponent, offset=offset, scale=scale)


@dataclass(frozen=True)
class MatrixBundle:
    """The ``(N+1) x (N+1)`` kernel matrices of one grid/kernel pair.

    Attributes
    ----------
    kernel_matrix : symmetric matrix of kernel values at absolute time lags.
    strict_lower : kernel values at positive lags, zero on and above the diagonal.
    kernel_at_zero : the kernel's value at lag zero, the diagonal of ``kernel_matrix``.
    """

    kernel_matrix: np.ndarray
    strict_lower: np.ndarray
    kernel_at_zero: float


def _validate_kernel_values(grid: TimeGrid, kernel: DecayKernel) -> None:
    """Reject a kernel not strictly positive and nonincreasing on the lags of ``grid``.

    Checked at unit scale on the N + 1 lags ``t - t_0``. They hold the largest
    lag, where both families are smallest, so they catch an underflow at any lag.
    """
    t = grid.points
    values = _unit_kernel(kernel.family, kernel.rate, kernel.exponent, kernel.offset, t - t[0])
    if np.any(values <= 0.0):
        raise ValueError("decay kernel must be strictly positive on the sampled lags")
    # allow for float noise on near-flat kernels
    if np.any(np.diff(values) > 1e-12 * values[0]):
        raise ValueError("decay kernel must be nonincreasing on the sampled lags")


@functools.lru_cache(maxsize=1)
def _unit_lower(points: bytes, family: str, rate: float, exponent: float, offset: float):
    """Strict lower triangle of the unit-scale kernel matrix, for one grid and kernel shape.

    The array is read-only, since repeated calls return the same one.
    """
    shape = functools.partial(_unit_kernel, family, rate, exponent, offset)
    t = np.frombuffer(points)
    lag = t[:, None] - t[None, :]
    lower = np.where(lag > 0.0, shape(np.where(lag > 0.0, lag, 0.0)), 0.0)
    lower.flags.writeable = False
    return lower


# bytes of the largest kernel matrix formed; it caps every one, and a consumer holds a few
MAX_FORMED_BYTES = 2**30


def build_matrices(grid: TimeGrid, kernel: DecayKernel) -> MatrixBundle:
    """Assemble the kernel matrices of one asset on a trading grid.

    NumericError, before any allocation, above ``MAX_FORMED_BYTES`` per matrix.
    """
    n = grid.n_points
    if 8 * n**2 > MAX_FORMED_BYTES:
        need = f"n = {n} would need {8 * n**2 / 2**30:.1f} GiB"
        raise NumericError(f"{need} per kernel matrix, above the cap")
    _validate_kernel_values(grid, kernel)
    g0 = kernel.at_zero
    strict_lower = kernel.scale * _unit_lower(
        grid.points.tobytes(), kernel.family, kernel.rate, kernel.exponent, kernel.offset
    )
    # symmetric matrix from the exact same kernel evaluations; strict_lower's
    # diagonal is exactly zero, so writing a value there adds it
    kernel_matrix = strict_lower + strict_lower.T
    kernel_matrix.flat[:: n + 1] = g0
    return MatrixBundle(kernel_matrix=kernel_matrix, strict_lower=strict_lower, kernel_at_zero=g0)
