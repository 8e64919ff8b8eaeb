"""Dense linear solves with an explicit ill-conditioning guard, and input checks."""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, lapack, lu_factor, lu_solve


class NumericError(RuntimeError):
    """Raised when a linear system is singular or too ill-conditioned to trust.

    Carries ``condition``, the estimated 1-norm condition number (may be inf).
    """

    def __init__(self, message: str, condition: float = float("inf")):
        super().__init__(f"{message} (estimated condition number {condition:.3e})")
        self.condition = condition


def _finite(name: str, values: np.ndarray) -> None:
    """Reject arrays holding NaN or infinite entries."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")


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
