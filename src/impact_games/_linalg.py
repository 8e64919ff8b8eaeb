"""Dense linear solves with an explicit ill-conditioning guard, and input checks."""

from __future__ import annotations

import ctypes
import functools
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import LinAlgWarning, lapack, lu_factor, lu_solve

# (prefix, suffix) of the thread-count functions in OpenBLAS builds; the numpy
# and scipy wheels each bundle a renamed OpenBLAS
_OPENBLAS_NAMES = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", ""))

# blocks of single_blas_thread open in any thread, and the thread counts the
# first of them saw on entry; guarded by the lock
_BLAS_LOCK = threading.Lock()
_blas_entries = 0
_blas_saved: list = []


class NumericError(RuntimeError):
    """Raised when a linear system is singular or too ill-conditioned to trust.

    Carries ``condition``, the estimated 1-norm condition number (may be inf).
    """

    def __init__(self, message: str, condition: float = float("inf")):
        super().__init__(f"{message} (estimated condition number {condition:.3e})")
        self.condition = condition


class ArgumentError(ValueError):
    """A ValueError about one argument of a library call, named in ``argument``."""

    def __init__(self, argument: str, message: str):
        super().__init__(message)
        self.argument = argument


def _finite(name: str, values: np.ndarray) -> None:
    """Reject arrays holding NaN or infinite entries."""
    if not np.all(np.isfinite(values)):
        raise ArgumentError(name, f"{name} must be finite")


def _boolean_mask(values) -> np.ndarray:
    """``values`` as a bool array; ValueError unless every entry is a bool, 0 or 1."""
    mask = np.asarray(values)
    if mask.dtype != bool and not np.all((mask == 0) | (mask == 1)):
        raise ArgumentError("mask", "mask entries must be booleans, 0 or 1")
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


def guarded_solve(matrix: np.ndarray, rhs: np.ndarray, max_condition: float = 1e12) -> np.ndarray:
    """Solve ``matrix @ x = rhs``, rejecting systems with condition above the cap.

    Uses one LU factorization plus a LAPACK reciprocal-condition estimate, so the
    guard costs O(n^2) on top of the factorization.
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
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
    if condition > max_condition:
        raise NumericError("matrix too ill-conditioned for a trustworthy solve", condition)
    return lu_solve((lu, piv), rhs)
