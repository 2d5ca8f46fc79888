"""Dense linear-algebra primitives with explicit contracts.

Every routine here is a thin, checked wrapper around LAPACK-backed numpy /
scipy calls. Outputs are deterministic (eigenvalues ascending, eigenvector
signs canonicalized) so they can be used in golden tests, and the routines
double as independent oracles for the QP solvers elsewhere in the package.
Each job has one routine: a pseudo-inverse comes from the
:class:`EigenDecomposition` a caller already holds, cut at its own zero
threshold, and a projection onto null(A) is ``W W^T``, W = nullspace_basis(A).

All rank decisions funnel through a single relative threshold,
``DEFAULT_RANK_TOL``, so the numerical meaning of "rank" is auditable in one
place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, NonSymmetricError

DEFAULT_RANK_TOL = 1e-10


def require_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    """Return ``arr`` as a float ndarray, raising NonFiniteError on NaN/Inf."""
    out = np.asarray(arr, dtype=float)
    if out.size and not np.isfinite(out).all():
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    return out


def _require_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    m = require_finite(m, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSymmetricError(f"{name} must be square, got shape {m.shape}")
    if m.size == 0:
        return m
    tol = 1e-10 * max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > tol:
        raise NonSymmetricError(f"{name} is not symmetric within {tol:.3e}")
    # Work on the exactly-symmetric part so LAPACK sees a clean input.
    return 0.5 * (m + m.T)


def canonicalize_columns(v: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive."""
    if v.size == 0:
        return v
    idx = np.abs(v).argmax(axis=0)
    signs = np.sign(v[idx, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    return v * signs


@dataclass(frozen=True)
class EigenDecomposition:
    """Symmetric eigendecomposition with eigenvalues sorted ascending.

    ``eigenvectors[:, j]`` pairs with ``eigenvalues[j]``; the eigenvector
    matrix is orthonormal and sign-canonicalized.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T

    def pseudoinverse(self, tol: float) -> np.ndarray:
        """Moore-Penrose pseudoinverse of the decomposed matrix.

        Eigenvalues with ``|lambda| <= tol`` are treated as exact zeros;
        ``tol`` is absolute, the zero threshold of the caller's decision.
        """
        w, v = self.eigenvalues, self.eigenvectors
        keep = self._kept(tol)
        return (v * np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)) @ v.T

    def pseudoinverse_factor(self, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """L and signs s with ``pseudoinverse(tol) = L diag(s) L^T``: the
        eigenvectors of the eigenvalues it keeps, each divided by
        sqrt(|lambda|), and the signs of those eigenvalues."""
        w, keep = self.eigenvalues, self._kept(tol)
        return self.eigenvectors[:, keep] / np.sqrt(np.abs(w[keep])), np.sign(w[keep])

    def _kept(self, tol: float) -> np.ndarray:
        if tol <= 0:
            raise ValueError("tol must be positive")
        return np.abs(self.eigenvalues) > tol


def sym_eig(m: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix.

    Raises NonSymmetricError if the input fails the relative symmetry check,
    NonFiniteError on NaN/Inf. Eigenvalues come back ascending; eigenvector
    signs are canonicalized for deterministic output.
    """
    m = _require_symmetric(m, "matrix")
    if m.size == 0:
        return EigenDecomposition(np.zeros(0), np.zeros((0, 0)))
    w, v = np.linalg.eigh(m)
    return EigenDecomposition(w, canonicalize_columns(v))


def nullspace_basis(m: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the null space of ``m``."""
    m = require_finite(m, "matrix")
    if m.ndim != 2:
        raise NonFiniteError(f"expected a matrix, got shape {m.shape}")
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return np.eye(cols)
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > rank_tol * s[0]))
    return canonicalize_columns(vt[rank:].T)


def matrix_rank(m: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank using the package-wide relative threshold."""
    m = require_finite(m, "matrix")
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rank_tol * s[0]))
