"""Cross-impact matrix families and their spectral analysis.

The structured families (one-factor, rank-one, block) all have unit diagonal;
the spectrum of the cross-impact matrix determines the kernels of the
principal (eigenvector-rotated) assets and, through its top eigenvalue, the
stability threshold of the market. A builder rejects a bad count or coupling
with the checks of :mod:`_linalg`, a given matrix with :func:`explicit_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import ArgumentError, _array, _integer, _number, _symmetric

__all__ = [
    "one_factor_matrix",
    "rank_one_matrix",
    "block_matrix",
    "explicit_matrix",
    "build_cross_impact",
    "price_covariance",
    "SpectralReport",
    "analyze_cross_impact",
]


def one_factor_matrix(n_assets: int, coupling: float) -> np.ndarray:
    """Unit diagonal with constant off-diagonal ``coupling`` in (0, 1).

    The bounds keep the matrix positive definite for any size ``n_assets >= 1``.
    """
    n_assets = _integer("n_assets", n_assets, 1)
    if not 0.0 < _number("coupling", coupling) < 1.0:
        raise ArgumentError("coupling", f"coupling must lie in (0, 1), got {coupling!r}")
    q = np.full((n_assets, n_assets), float(coupling))
    np.fill_diagonal(q, 1.0)
    return q


def rank_one_matrix(loadings: Sequence[float]) -> np.ndarray:
    """``diag(1 - b_i**2) + b b^T`` for factor loadings with ``|b_i| < 1``.

    The diagonal compensation keeps every self-impact coefficient equal to 1.
    """
    b = _array("loadings", loadings)
    if b.ndim != 1 or b.size < 1:
        raise ArgumentError("loadings", "loadings must be a nonempty vector")
    if np.any(np.abs(b) >= 1.0):
        raise ArgumentError("loadings", "all factor loadings must satisfy |b_i| < 1")
    return np.diag(1.0 - b**2) + np.outer(b, b)


def block_matrix(sizes: Sequence[int], intra: Sequence[float], inter: float) -> np.ndarray:
    """Sector-block matrix: coupling ``intra[i]`` inside block i, ``inter`` across.

    Requires at least one block, whole sizes of at least 1 and
    ``0 <= inter < intra[i] < 1`` for every block.
    """
    sizes = [_integer("sizes", s, 1) for s in sizes]
    intra = [_number("intra", q, positive=False) for q in intra]
    inter = _number("inter", inter, positive=False)
    if not sizes:
        raise ArgumentError("sizes", "need at least one block")
    if len(sizes) != len(intra):
        raise ArgumentError("intra", "need one intra-block coupling per block")
    if any(not inter < qi < 1.0 for qi in intra):
        raise ArgumentError("intra", "couplings must satisfy 0 <= inter < intra_i < 1")
    total = sum(sizes)
    q = np.full((total, total), inter)
    start = 0
    for size, qi in zip(sizes, intra):
        q[start : start + size, start : start + size] = qi
        start += size
    np.fill_diagonal(q, 1.0)
    return q


def explicit_matrix(matrix) -> np.ndarray:
    """Symmetric part of a user-supplied cross-impact matrix.

    The one check of a cross-impact matrix: ArgumentError naming
    ``cross_impact`` unless it is square, finite and symmetric.
    """
    q = _array("cross_impact", matrix)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ArgumentError("cross_impact", f"cross_impact must be square, got shape {q.shape}")
    _symmetric("cross_impact", q)
    return 0.5 * (q + q.T)


def build_cross_impact(family: str, **params) -> np.ndarray:
    """Dispatcher used by config-driven entry points.

    Families: ``identity`` (size), ``one_factor`` (n_assets, coupling),
    ``rank_one`` (loadings), ``block`` (sizes, intra, inter),
    ``explicit`` (matrix).
    """
    builders = {
        "identity": lambda size: np.eye(_integer("size", size)),
        "one_factor": one_factor_matrix,
        "rank_one": rank_one_matrix,
        "block": block_matrix,
        "explicit": explicit_matrix,
    }
    if family not in builders:
        raise ArgumentError("family", f"unknown cross-impact family {family!r}")
    return builders[family](**params)


def price_covariance(sigma, cross_impact: np.ndarray) -> np.ndarray:
    """Covariance rate of the unaffected price described by ``sigma``.

    ``"equal_to_Q"`` gives the cross-impact matrix, a finite number s >= 0
    gives ``s I``, and an (M, M) array is taken as it is; the spec checks
    that a matrix is symmetric and positive semidefinite.
    """
    if isinstance(sigma, str):
        if sigma != "equal_to_Q":
            raise ArgumentError("sigma", f"sigma must be 'equal_to_Q' if a string, got {sigma!r}")
        return cross_impact
    matrix = _array("sigma", sigma)
    if matrix.ndim == 0:
        return _number("sigma", sigma, positive=False) * np.eye(len(cross_impact))
    if matrix.shape != np.shape(cross_impact):
        raise ArgumentError("sigma", "explicit sigma must match the cross-impact shape")
    return matrix


@dataclass(frozen=True)
class SpectralReport:
    """Eigendecomposition of a cross-impact matrix.

    ``eigenvalues`` are sorted descending and ``eigenvectors[:, i]`` is the
    orthonormal eigenvector for ``eigenvalues[i]``. ``one_factor_bound`` is
    ``1 + 2 h / M`` where h is the upper-triangular off-diagonal sum: for any
    unit-diagonal matrix with that off-diagonal mass, the top eigenvalue is at
    least this bound, with equality for the one-factor member.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    top_eigenvalue: float
    one_factor_bound: float


def analyze_cross_impact(cross_impact: np.ndarray) -> SpectralReport:
    """Spectral report for a symmetric (M, M) cross-impact matrix; see :func:`explicit_matrix`."""
    q = explicit_matrix(cross_impact)
    try:
        lam, vec = np.linalg.eigh(q)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigendecomposition failed: {exc}") from exc
    # descending eigenvalues, stable order within ties
    lam = lam[::-1].copy()
    vec = vec[:, ::-1].copy()
    return SpectralReport(
        eigenvalues=lam,
        eigenvectors=vec,
        top_eigenvalue=float(lam[0]),
        one_factor_bound=1.0 + 2.0 * float(np.triu(q, k=1).sum()) / q.shape[0],
    )
