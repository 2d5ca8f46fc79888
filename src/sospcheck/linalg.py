"""Dense linear-algebra primitives with explicit contracts.

Every routine here is a thin, checked wrapper around LAPACK-backed numpy /
scipy calls. Outputs are deterministic (eigenvalues ascending, eigenvector
signs canonicalized) so they can be used in golden tests, and the routines
double as independent oracles for the QP solvers elsewhere in the package.
Each job has one routine: a pseudo-inverse comes from the
:class:`EigenDecomposition` a caller already holds, cut at its own zero
threshold, a projection onto null(A) is ``W W^T``, W = nullspace_basis(A),
and a symmetry check, of one matrix or a stack, is :func:`symmetric_part`.

Every threshold of a check is one field of :class:`Tolerances`, read from
its one instance ``TOLERANCES``, so the numerical meaning of "zero", "rank"
or "symmetric" is auditable in one place; each report records it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, NonSymmetricError


@dataclass(frozen=True)
class Tolerances:
    """Every threshold of a check, each relative to the scale named with it
    (absolute where none is). ``TOLERANCES`` is the one instance; it is not a
    setting, and every verdict records it as ``diagnostics["tolerances"]``."""

    zero: float = 1e-8  # first-order zero tests: a norm, or a ray's product, <= zero * scale
    # a gradient factor W2[:,k]^T grad_t within this of ||W2[:,k]|| (||grad_t|| +
    # ||output_t||) is rounding noise, so its slope stays at the box midpoint
    factor_rounding: float = 1e-12
    gram: float = 1e-12  # boundary Gram matrix singular: lambda_min <= gram * max(1, lambda_max)
    ray_cross: float = 1e-9  # an extreme ray meets another boundary row: > ray_cross * max ||xbar||
    ray_inner: float = 1e-12  # an extreme ray misses its own boundary row: |xbar_t . v_t| <= this
    loss_convexity: float = 1e-10  # loss Hessian not PSD: lambda_min < -this * max(1, lambda_max)
    rank: float = 1e-10  # numerical rank: singular values above rank * the largest
    symmetry: float = 1e-10  # symmetric within symmetry * max(1, max |M|), or per 2 x 2 block of S
    form_symmetry: float = 1e-9  # the same for the cone QPs' forms Q
    eig: float = 1e-8  # a face eigenvalue, or PD3's ||R12 z||, is zero within eig * scale
    interlacing: float = 1e-9  # a projected top eigenvalue may exceed Q's by this * max(1, ||Q||)
    cp: float = 1e-9  # copositivity's zero threshold, times max(1, max |S|)
    pareto_pos: float = 1e-9  # a unit Pareto eigenvector's entries above this are positive
    pareto_comp: float = 1e-10  # Pareto complementarity S x >= -pareto_comp * max(1, max |S|)
    pareto_repeat: float = 1e-9  # eigenvalues within pareto_repeat * max(1, max |S|) repeat
    # witness re-verification, a soundness invariant: feasible within witness_feas *
    # ||eta||, T2 curvature within witness_feas * max(1, ||Q||), T3 at most -witness_curv * ||Q||
    witness_feas: float = 1e-8
    witness_curv: float = 1e-10
    descent_margin: float = 1e-14  # a validated step beats the risk by this * max(1, risk)


TOLERANCES = Tolerances()


def require_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    """Return ``arr`` as a float ndarray, raising NonFiniteError on NaN/Inf."""
    out = np.asarray(arr, dtype=float)
    if out.size and not np.isfinite(out).all():
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    return out


def require_in_range(obj, names: str, low: float, high: float = float("inf"), *,
                     open_low: bool = False) -> None:
    """Raise ValueError, naming the field, unless each attribute of ``obj``
    in ``names`` (space-separated) lies in [low, high), or in (low, high)
    with ``open_low``; NaN and infinities never do. Every settings object
    checks its fields with it."""
    for name in names.split():
        value = getattr(obj, name)
        if not (low < value < high if open_low else low <= value < high):
            interval = f"{'(' if open_low else '['}{low:g}, {high:g})"
            raise ValueError(f"{name} must lie in {interval}, got {value}")


def symmetric_part(m: np.ndarray, name: str, rtol: float) -> np.ndarray:
    """The exactly symmetric part 0.5 (M + M^T) of a square matrix, or of
    each matrix of a stack (..., n, n).

    Raises NonFiniteError on NaN/Inf, and NonSymmetricError unless every
    matrix is square with max |M - M^T| <= rtol * max(1, max |M|).
    """
    m = require_finite(m, name)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NonSymmetricError(f"{name} must be square, got shape {m.shape}")
    m_t = np.swapaxes(m, -1, -2)
    tol = rtol * np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))
    if (np.abs(m - m_t).max(axis=(-2, -1), initial=0.0) > tol).any():
        raise NonSymmetricError(f"{name} is not symmetric within {rtol:.0e} relative")
    return 0.5 * (m + m_t)


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
    m = symmetric_part(m, "matrix", TOLERANCES.symmetry)
    if m.ndim != 2:
        raise NonSymmetricError(f"expected one matrix, got shape {m.shape}")
    if m.size == 0:
        return EigenDecomposition(np.zeros(0), np.zeros((0, 0)))
    w, v = np.linalg.eigh(m)
    return EigenDecomposition(w, canonicalize_columns(v))


def _rank(s: np.ndarray, rank_tol: float) -> int:
    """The number of singular values ``s`` (largest first) above ``rank_tol``
    times the largest."""
    return 0 if s.size == 0 or s[0] == 0.0 else int(np.sum(s > rank_tol * s[0]))


def nullspace_basis(m: np.ndarray, rank_tol: float = TOLERANCES.rank) -> np.ndarray:
    """Orthonormal basis (as columns) of the null space of ``m``."""
    m = require_finite(m, "matrix")
    if m.ndim != 2:
        raise NonFiniteError(f"expected a matrix, got shape {m.shape}")
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return np.eye(cols)
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    return canonicalize_columns(vt[_rank(s, rank_tol) :].T)


def matrix_rank(m: np.ndarray, rank_tol: float = TOLERANCES.rank) -> int:
    """Numerical rank using the package-wide relative threshold."""
    m = require_finite(m, "matrix")
    if m.size == 0:
        return 0
    return _rank(np.linalg.svd(m, compute_uv=False), rank_tol)
