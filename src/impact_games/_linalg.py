"""Argument checks, guarded linear solves, and the prepared profile systems' solve paths.

The package checks a caller's number (:func:`_number`), count (:func:`_integer`)
or array (:func:`_array`) here alone, and every rejected argument raises an
:class:`ArgumentError` naming it. A plain ValueError is left for domain
errors: arguments that pass their checks but not the computation, such as a
cross-impact matrix that is not positive definite.

:func:`guarded_solve` is the dense solve: one LU factorization, rejected when
LAPACK's 1-norm condition estimate exceeds ``MAX_CONDITION``.

:class:`_PreparedSystem` is a matrix A prepared once and solved against the
all-ones vector at many shifts s, ``(A + s I) x = 1``; the profile systems of
:mod:`equilibrium` are such matrices, with the fee in s. The preparer, which
built A, names the structured path it may take, one of the first three below:

- "banded": A is ``w L + L^T + c I`` for the strict lower part L of an
  exponential kernel's matrix, held without a matrix (:class:`_BandedSystem`).
  Since ``L = g0 D^-1 R``, the substitution ``x = D^T y`` makes the system
  tridiagonal (``lapack.dgtsv``), or upper bidiagonal when w = 0
  (``blas.dtbsv``): O(n).
- "triangular": A is upper triangular, with entries below the diagonal that
  are exactly zero. One back substitution in O(n^2), with the shift written
  onto the diagonal in place and the diagonal restored after.
- "levinson": A is Toeplitz. Levinson recursion from its first column and
  row in O(n^2) (``solve_toeplitz``).
- "shifted": A was reduced to Hessenberg form once (:class:`_ShiftedSolver`);
  a banded LU of each shifted Hessenberg matrix in O(n^2) (Laub, IEEE TAC
  1981), kept only when its condition estimate is within
  ``MAX_CONDITION / n**2``.
- "dense": :func:`guarded_solve` on ``A + s I``, which has the final say on
  conditioning; a banded system forms A for it by :func:`kernels.build_matrices`.

A named path comes with a floor, a lower bound on the smallest eigenvalue of
the symmetric part of A, and runs only when the floor bounds the condition
number within ``MAX_CONDITION`` (:func:`_floor_bounded`). Only a system
without a floor is reduced, so a system has one structured path at most. It
returns a raw solution, or None when its own factorization fails, and
:meth:`_PreparedSystem.solve` alone keeps it, by its normwise backward error
against A (:func:`_backward_stable`), or declines it for the dense solve. A
system that holds A takes its norms densely when it is prepared, a banded
system in O(n).
"""

from __future__ import annotations

import ctypes
import functools
import numbers
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np
import scipy
from scipy.linalg import (
    LinAlgWarning,
    blas,
    hessenberg,
    lapack,
    lu_factor,
    lu_solve,
    solve_toeplitz,
    solve_triangular,
)

# (prefix, suffix) of the thread-count functions in OpenBLAS builds; the numpy
# and scipy wheels each bundle a renamed OpenBLAS
_OPENBLAS_NAMES = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", ""))

# cap on the 1-norm condition number of a system any solve path accepts
MAX_CONDITION = 1e12
# largest normwise backward error accepted from a banded, triangular, Levinson or shifted solve
BACKWARD_TOL = 1e-12

# blocks of single_blas_thread open in any thread, and the thread counts the
# first of them saw on entry; guarded by the lock
_BLAS_LOCK = threading.Lock()
_blas_entries = 0
_blas_saved: list = []


class NumericError(RuntimeError):
    """Raised when a linear system is singular or too ill-conditioned to trust.

    Carries ``condition``, the estimated 1-norm condition number (may be inf),
    and ``reason``, the message without the condition number, for a caller
    that re-raises it with context.
    """

    def __init__(self, message: str, condition: float = float("inf")):
        super().__init__(f"{message} (estimated condition number {condition:.3e})")
        self.reason = message
        self.condition = condition


class ArgumentError(ValueError):
    """A ValueError about one argument of a library call, named in ``argument``."""

    def __init__(self, argument: str, message: str):
        super().__init__(message)
        self.argument = argument


def _number(name: str, value, positive: bool = True) -> float:
    """``value`` as a float; ArgumentError unless it is one finite number, > 0 or else >= 0."""
    try:
        signed = value > 0.0 if positive else value >= 0.0
        valid = np.ndim(value) == 0 and bool(np.isfinite(value) and signed)
    except (TypeError, ValueError):  # not a number, or not one number
        valid = False
    if not valid:
        sign = "positive" if positive else "nonnegative"
        raise ArgumentError(name, f"{name} must be finite and {sign}, got {value!r}")
    return float(value)


def _integer(name: str, value, minimum: Optional[int] = None) -> int:
    """``value`` as an int, never truncated; ArgumentError unless a whole number >= ``minimum``."""
    whole = isinstance(value, numbers.Real) and float(value).is_integer()
    if not (whole and (minimum is None or value >= minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ArgumentError(name, f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _array(
    name: str, value, shape=None, positive: Optional[bool] = None, finite: bool = True
) -> np.ndarray:
    """``value`` as a float array (a float64 array is not copied), broadcast to ``shape`` if given.

    ArgumentError naming ``name``, never numpy's own error, unless every entry
    is a number, and a finite one unless ``finite`` is False (a caller that
    reports a non-finite entry as a NumericError); with ``positive`` set, each
    entry must pass :func:`_number`.
    """
    try:
        array = np.asarray(value, dtype=float)
        array = array if shape is None else np.broadcast_to(array, shape)
    except (TypeError, ValueError):  # an entry not a number, ragged nesting or the wrong shape
        expected = "numbers" if shape is None else f"numbers that broadcast to shape {shape}"
        raise ArgumentError(name, f"{name} must be {expected}, got {value!r:.60}") from None
    if positive is not None:
        for entry in array.ravel().tolist():
            _number(name, entry, positive)
    elif finite and not np.all(np.isfinite(array)):
        raise ArgumentError(name, f"{name} must be finite")
    return array


def _boolean_mask(name: str, values) -> np.ndarray:
    """``values`` as a bool array; ArgumentError unless every entry is a bool, 0 or 1."""
    try:
        mask = np.asarray(values)
    except ValueError:  # ragged nesting
        raise ArgumentError(name, f"{name} must be one array, got {values!r:.60}") from None
    if mask.dtype != bool and not np.all((mask == 0) | (mask == 1)):
        raise ArgumentError(name, "mask entries must be booleans, 0 or 1")
    return mask.astype(bool)


def _symmetric(name: str, matrix: np.ndarray) -> None:
    """Reject matrices asymmetric beyond 1e-10 of their largest entry (at least 1)."""
    if np.abs(matrix - matrix.T).max() > 1e-10 * max(np.abs(matrix).max(), 1.0):
        raise ArgumentError(name, f"{name} must be symmetric")


@functools.lru_cache(maxsize=1)
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS bundled with numpy and scipy."""
    controls = []
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for prefix, suffix in _OPENBLAS_NAMES:
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype = ctypes.c_int
                    put.argtypes = (ctypes.c_int,)
                    controls.append((get, put))
                    break
    return tuple(controls)


@contextmanager
def single_blas_thread():
    """Run the block with the OpenBLAS bundled with numpy and scipy on one thread.

    For solves of a few hundred unknowns a second BLAS thread gains little, and
    when another process holds a core it waits for it: on 2 vCPUs one busy core
    doubled the time of a venue-choice payoff table. The thread counts are
    process-wide, so blocks open in several Python threads (or nested in one)
    share them: the first entry saves them and sets one thread, and the last
    exit restores them. Without a bundled OpenBLAS (other BLAS vendors, other
    platforms) the block runs unchanged.
    """
    global _blas_entries, _blas_saved
    controls = _openblas_thread_controls()
    with _BLAS_LOCK:
        if _blas_entries == 0:
            _blas_saved = [get() for get, _ in controls]
            for _, put in controls:
                put(1)
        _blas_entries += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_entries -= 1
            if _blas_entries == 0:
                for (_, put), count in zip(controls, _blas_saved):
                    put(count)


def guarded_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs``, rejecting systems with condition above ``MAX_CONDITION``.

    Uses one LU factorization plus a LAPACK reciprocal-condition estimate, so the
    guard costs O(n^2) on top of the factorization. ArgumentError naming
    ``matrix`` or ``rhs`` unless they are numbers, the matrix square and
    ``rhs`` one vector or matrix of as many rows; NumericError for a
    non-finite entry.
    """
    matrix = _array("matrix", matrix, finite=False)
    rhs = _array("rhs", rhs, finite=False)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ArgumentError("matrix", f"matrix must be square, got shape {matrix.shape}")
    if rhs.ndim not in (1, 2) or len(rhs) != len(matrix):
        raise ArgumentError("rhs", f"rhs must have {len(matrix)} rows, got shape {rhs.shape}")
    if not np.all(np.isfinite(rhs)):
        raise NumericError("right-hand side has non-finite entries")
    anorm = np.linalg.norm(matrix, 1)
    if anorm == 0.0:
        raise NumericError("cannot solve against the zero matrix")
    try:
        with warnings.catch_warnings():
            # singularity is reported through the rcond check below
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(matrix)
    except (ValueError, np.linalg.LinAlgError) as exc:  # non-finite entries, etc.
        raise NumericError(f"LU factorization failed: {exc}") from exc
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond <= 0.0:
        raise NumericError("matrix is numerically singular")
    condition = 1.0 / rcond
    if condition > MAX_CONDITION:
        raise NumericError("matrix too ill-conditioned for a trustworthy solve", condition)
    return lu_solve((lu, piv), rhs)


def _normalized(x: np.ndarray) -> np.ndarray:
    """A profile solution divided by its sum; NumericError when the sum is zero or not finite."""
    total = np.ones(len(x)) @ x
    if not (np.isfinite(total) and total != 0.0):
        raise NumericError(f"profile solution sums to {float(total)}, so it has no normalization")
    return x / total


def _backward_stable(
    residual: np.ndarray, x: np.ndarray, rhs: np.ndarray, norm_inf: float, shift: float
) -> bool:
    """Whether ``x`` solves ``(A + shift I) x = rhs`` within ``BACKWARD_TOL``, column by column.

    ``residual`` is ``(A + shift I) x - rhs`` and ``norm_inf`` is the
    infinity norm of A; the test is Rigal and Gaches' normwise backward error
    (Higham, *Accuracy and Stability of Numerical Algorithms*, section 7.1),
    ``||r|| <= BACKWARD_TOL ((||A|| + |shift|) ||x|| + ||rhs||)`` in the
    infinity norm, for each column of a 2-D ``x``. A NaN anywhere fails it.
    """
    scale = (norm_inf + abs(shift)) * np.abs(x).max(axis=0) + np.abs(rhs).max(axis=0)
    return bool(np.all(np.abs(residual).max(axis=0) <= BACKWARD_TOL * scale))


def _profile_error_bound(
    matrix: np.ndarray, profile: np.ndarray, floor: float, dtype=np.float64
) -> Tuple[float, bool]:
    """Bound on ``||profile - p||_inf`` for the exact normalized solution p of ``matrix x = 1``.

    ``matrix`` has nonnegative entries and ``floor`` is a lower bound on the
    smallest eigenvalue of its symmetric part. The candidate ``x^ = s^ profile``,
    with ``s^ = n / (1^T matrix profile)``, has the residual ``r = matrix x^ - 1``
    and the error ``e = x^ - x``, ``||e||_2 <= ||r||_2 / floor =: d`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, chapter 7). With
    ``s = 1^T x`` and ``sigma = 1^T profile``, ``profile - p = (profile s^
    (sigma - 1) - profile 1^T e + e) / s`` and ``|s| >= |s^| |sigma| - sqrt(n) d``.
    The residual is taken in ``dtype``; its rounding, ``gamma_n |matrix| |x^|``
    (``|matrix| = matrix``), is added to it, and the bound is widened to cover
    the double rounding of its own evaluation. Returns the bound (inf when
    ``floor`` or the normalization leaves none) and whether the rounding
    allowance exceeds the computed residual, which a residual in a wider
    ``dtype`` shrinks.
    """
    n = len(profile)
    u, ud = float(np.finfo(dtype).eps) / 2, float(np.finfo(float).eps) / 2
    applied = matrix @ np.column_stack((profile, np.abs(profile)))
    total = float(applied[:, 0].sum())
    scale = n / total if total != 0.0 else float("inf")
    if not (floor > 0.0 and np.isfinite(scale)):
        return float("inf"), False
    if dtype is np.float64:
        product = applied[:, 0]
    else:  # the product of two double arrays, each entry summed in dtype
        product = np.einsum("ij,j->i", matrix, profile.astype(dtype))
    residual = scale * product - 1.0
    residual = float(np.sqrt(residual @ residual))
    rounding = abs(scale) * _gamma(n, u) * float(np.linalg.norm(applied[:, 1]))
    rounding += 2.0 * u * (residual + np.sqrt(n))  # of the scaling and the subtraction
    slack = 1.0 + 8.0 * (n + 20) * ud  # double rounding of the norms and the arithmetic below
    distance = slack * (residual + rounding) / floor
    peak = float(np.abs(profile).max())
    sum_error = abs(float(profile.sum()) - 1.0) + _gamma(n, ud) * float(np.abs(profile).sum())
    total = abs(scale) * (1.0 - sum_error) - np.sqrt(n) * distance
    if not total > 0.0:
        return float("inf"), rounding > residual
    bound = (peak * abs(scale) * sum_error + (peak * np.sqrt(n) + 1.0) * distance) / total
    return slack * bound, rounding > residual


def _gamma(n: int, u: float) -> float:
    """Higham's ``gamma_n = n u / (1 - n u)``, the rounding bound of an n-term dot product."""
    return n * u / (1.0 - n * u)


def _floor_bounded(n: int, norm_1: float, floor: float, shift: float) -> bool:
    """Whether ``sqrt(n) (norm_1 + shift) / (floor + shift)`` is within ``MAX_CONDITION``.

    For ``floor`` under the smallest eigenvalue of the symmetric part of the
    n x n matrix A, ``||(A + shift I)^-1||_2 <= 1 / (floor + shift)``, so
    that bounds the 1-norm condition number of ``A + shift I``.
    """
    if not floor + shift > 0.0:
        return False
    return bool(np.sqrt(n) * (norm_1 + shift) / (floor + shift) <= MAX_CONDITION)


class _ShiftedSolver:
    """Solves of ``(A + s I) x = b`` for many shifts s from one Hessenberg reduction.

    ``A = Z H Z^T`` with H upper Hessenberg and Z orthogonal
    (``scipy.linalg.hessenberg``), so a shifted system is
    ``(H + s I) y = Z^T b`` with ``x = Z y``: a banded LU with one
    subdiagonal, O(n^2) per shift after the O(n^3) reduction (Laub, IEEE
    TAC 1981). :meth:`solve` returns the raw solution when the LU is regular
    and its 1-norm condition estimate (``dgbcon``) is within
    ``MAX_CONDITION / n**2``, and None otherwise; the backward test is the
    caller's. The 2-norm condition numbers of ``A + s I`` and ``H + s I``
    agree, and a 1-norm condition number is within a factor n of the 2-norm
    one either way, so ``kappa_1(A + s I) <= n**2 kappa_1(H + s I)``: the cap
    keeps ``A + s I`` within ``MAX_CONDITION``.
    """

    def __init__(self, matrix: np.ndarray):
        n = len(matrix)
        h, self._z = hessenberg(matrix, calc_q=True, check_finite=False)
        self._diagonal = h.diagonal().copy()
        self._off_diagonal_sums = np.abs(h).sum(axis=0) - np.abs(self._diagonal)
        # LAPACK band storage with kl = 1, ku = n - 1, in Fortran order: H[i, j]
        # at row n + i - j, under one row of fill-in space. That is flat offset
        # n + i + j (n + 1), distinct for every (i, j) of the square, so all of H
        # is written through one strided view; its zeros below the subdiagonal
        # land on slots outside the band, which stay zero.
        flat = np.zeros((n + 2) * n)
        np.lib.stride_tricks.as_strided(
            flat[n:], shape=(n, n), strides=(flat.itemsize, (n + 1) * flat.itemsize)
        )[...] = h
        self._band = flat.reshape((n + 2, n), order="F")

    def solve(self, shift: float, rhs: np.ndarray) -> Optional[np.ndarray]:
        """Raw solution of ``(A + shift I) x = rhs``, or None when a guard fails."""
        n = len(self._diagonal)
        band = self._band.copy(order="F")
        band[n] += shift
        lu, ipiv, info = lapack.dgbtrf(band, 1, n - 1, overwrite_ab=True)
        if info != 0:
            return None
        anorm = float(np.max(self._off_diagonal_sums + np.abs(self._diagonal + shift)))
        rcond, info = lapack.dgbcon(1, n - 1, lu, ipiv, anorm)
        if info != 0 or not rcond * MAX_CONDITION >= n * n:
            return None
        y, info = lapack.dgbtrs(lu, 1, n - 1, self._z.T @ rhs, ipiv)
        if info != 0:
            return None
        return self._z @ y


class _PreparedSystem:
    """A matrix A solved against the all-ones vector at many shifts; see the module docstring.

    ``path`` names the structured path of the module docstring that A was
    built for, "triangular" or "levinson", or is None, and ``floor`` is a
    lower bound on the smallest eigenvalue of the symmetric part of A, given
    exactly when ``path`` is. ``shifted`` is the Hessenberg reduction
    :meth:`reduce` made of a system without a floor, or None; so a system has
    a path or a reduction, never both. :meth:`solve` tries that one (the
    method ``_<path>`` or ``shifted``) and keeps its raw solution only when it
    passes :func:`_backward_stable` on :meth:`_residual`. ``norm_1`` and
    ``norm_inf`` are A's norms. A triangular solve writes the shift onto the
    diagonal of ``matrix`` in place and restores it after, so a system must
    not be solved from two threads at once.
    """

    def __init__(
        self, matrix: np.ndarray, path: Optional[str] = None, floor: Optional[float] = None
    ):
        self.matrix = matrix
        self.n = len(matrix)
        self.path = path
        self.floor = floor
        self.shifted: Optional[_ShiftedSolver] = None
        self.norm_1 = float(np.linalg.norm(matrix, 1))
        self.norm_inf = float(np.linalg.norm(matrix, np.inf))
        self._diagonal = matrix.diagonal().copy()

    def dense(self) -> np.ndarray:
        """The matrix A, for the dense solve."""
        return self.matrix

    def reduce(self) -> None:
        """Reduce a matrix without a floor to Hessenberg form, once, for shifted solves."""
        if self.floor is None and self.shifted is None:
            self.shifted = _ShiftedSolver(self.matrix)

    def solve(self, shift: float, paths: Dict[str, int]) -> np.ndarray:
        """Normalized solution of ``(A + shift I) x = 1``, its path counted in ``paths``.

        NumericError when the solution sums to zero or to a non-finite value.
        """
        ones = np.ones(self.n)
        x = None
        if self.shifted is not None:
            path, x = "shifted", self.shifted.solve(shift, ones)
        elif self.floor is not None and _floor_bounded(self.n, self.norm_1, self.floor, shift):
            path, x = self.path, getattr(self, "_" + self.path)(shift, ones)
        if x is None or not _backward_stable(
            self._residual(x, shift), x, ones, self.norm_inf, shift
        ):
            path, x = "dense", guarded_solve(self.dense() + shift * np.eye(self.n), ones)
        paths[path] += 1
        return _normalized(x)

    def _residual(self, x: np.ndarray, shift: float) -> np.ndarray:
        """``(A + shift I) x - 1``."""
        return self.matrix @ x + shift * x - 1.0

    def _levinson(self, shift: float, ones: np.ndarray) -> Optional[np.ndarray]:
        """Levinson solution from the first column and row; None at a singular leading block."""
        column = self.matrix[:, 0].copy()
        row = self.matrix[0].copy()
        column[0] += shift
        row[0] += shift
        try:
            return solve_toeplitz((column, row), ones, check_finite=False)
        except np.linalg.LinAlgError:  # a singular leading block
            return None

    def _triangular(self, shift: float, ones: np.ndarray) -> Optional[np.ndarray]:
        """Back-substitution solution, or None at a zero on the shifted diagonal."""
        diagonal = slice(None, None, len(ones) + 1)  # of the flattened matrix
        self.matrix.flat[diagonal] = self._diagonal + shift
        try:
            return solve_triangular(self.matrix, ones, check_finite=False)
        except np.linalg.LinAlgError:  # a zero on the diagonal
            return None
        finally:
            self.matrix.flat[diagonal] = self._diagonal


class _ExponentialLower:
    """The strict lower part L of an exponential kernel's matrix, held in O(n).

    ``decay[i - 1]`` is ``rho_i = exp(-rate (t_i - t_(i-1)))`` and ``g0`` the
    kernel's value at lag zero. With D lower bidiagonal (ones on the
    diagonal, ``-rho_i`` below it) and R holding ``rho_i`` below the
    diagonal, ``L = g0 D^-1 R``: ``L x`` is the recurrence
    ``p_i = rho_i (p_(i-1) + g0 x_(i-1))`` and ``L^T x`` the reverse one, each
    one ``dtbsv`` on D. ``row_sums`` and ``column_sums`` are ``L 1`` and
    ``L^T 1``.
    """

    def __init__(self, decay: np.ndarray, g0: float):
        self.decay = decay
        self.g0 = g0
        n = len(decay) + 1
        self._band = np.ones((2, n))  # D in lower band storage; its unit diagonal is implied
        self._band[1, :-1] = -decay
        ones = np.ones(n)
        self.row_sums = self.dot(ones)
        self.column_sums = self.dot_transposed(ones)

    def dot(self, x: np.ndarray) -> np.ndarray:
        """``L @ x``."""
        lagged = np.zeros(len(x))
        np.multiply(self.decay, x[:-1], out=lagged[1:])
        lagged *= self.g0
        return blas.dtbsv(1, self._band, lagged, lower=1, diag=1, overwrite_x=1)

    def dot_transposed(self, x: np.ndarray) -> np.ndarray:
        """``L.T @ x``."""
        lagged = np.zeros(len(x))
        np.multiply(self.decay, x[1:], out=lagged[:-1])
        lagged *= self.g0
        return blas.dtbsv(1, self._band, lagged, lower=1, trans=1, diag=1, overwrite_x=1)


class _BandedSystem(_PreparedSystem):
    """The system ``A = weight L + L^T + offset I`` of an exponential kernel, with no matrix.

    ``lower`` is L (:class:`_ExponentialLower`); every entry of A is
    positive, so its norms are its largest column and row sums, from
    ``lower``'s. ``form`` builds A by :func:`kernels.build_matrices`; only
    the dense solve calls it, when a banded solve is rejected. A banded solve
    at shift s, with ``c = offset + s``, substitutes ``x = D^T y``:

    - ``weight = 0``: ``(g0 R^T + c D^T) y = 1`` is upper bidiagonal, with
      diagonal c and superdiagonal ``(g0 - c) rho_(i+1)`` (``blas.dtbsv``).
    - ``weight > 0``: ``D A D^T y = D 1`` is tridiagonal; row i holds
      ``(weight g0 - c) rho_i`` below the diagonal,
      ``c (1 + rho_i^2) - (weight + 1) g0 rho_i^2`` on it (``rho_0 = 0``)
      and ``(g0 - c) rho_(i+1)`` above it (``lapack.dgtsv``).

    Its residual is taken against A through ``lower``'s recurrences.
    """

    def __init__(
        self,
        lower: _ExponentialLower,
        weight: float,
        offset: float,
        floor: float,
        form: Callable[[], np.ndarray],
    ):
        # no matrix: the inherited solve reads n, path, floor, shifted and the norms
        self.lower = lower
        self.weight = weight
        self.offset = offset
        self.floor = floor
        self.form = form
        self.n = len(lower.row_sums)
        self.path = "banded"
        self.shifted = None
        self.norm_1 = float(np.max(weight * lower.column_sums + lower.row_sums)) + offset
        self.norm_inf = float(np.max(weight * lower.row_sums + lower.column_sums)) + offset

    def dense(self) -> np.ndarray:
        return self.form()

    def _banded(self, shift: float, ones: np.ndarray) -> Optional[np.ndarray]:
        """Raw solution of the banded form, or None when the tridiagonal form is singular."""
        lower, rho, c = self.lower, self.lower.decay, self.offset + shift
        g0, n = lower.g0, self.n
        if self.weight == 0.0:
            band = np.zeros((2, n))  # upper band storage
            np.multiply(g0 - c, rho, out=band[0, 1:])
            band[1] = c
            y = blas.dtbsv(1, band, ones)
        else:
            squares = rho * rho
            diagonal = np.empty(n)
            diagonal[0] = c
            np.multiply(c - (self.weight + 1.0) * g0, squares, out=diagonal[1:])
            diagonal[1:] += c
            rhs = np.empty((n, 1))
            rhs[0] = 1.0
            np.subtract(1.0, rho, out=rhs[1:, 0])
            *_, y, info = lapack.dgtsv(
                (self.weight * g0 - c) * rho,
                diagonal,
                (g0 - c) * rho,
                rhs,
                overwrite_dl=1,
                overwrite_d=1,
                overwrite_du=1,
                overwrite_b=1,
            )
            if info != 0:
                return None
            y = y[:, 0]
        x = y.copy()
        x[:-1] -= rho * y[1:]
        return x

    def _residual(self, x: np.ndarray, shift: float) -> np.ndarray:
        """``(A + shift I) x - 1``, through ``lower``'s recurrences."""
        residual = self.lower.dot_transposed(x) + (self.offset + shift) * x - 1.0
        if self.weight != 0.0:
            residual += self.weight * self.lower.dot(x)
        return residual
