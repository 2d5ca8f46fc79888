"""First-order stationarity tests.

Three layers of tests, in the order the certification pipeline runs them:

* outer-layer gradient test: the risk gradient with respect to (W2, b2) is a
  singleton even at nondifferentiable points; nonzero means instant descent.
* per-unit zero-in-subdifferential test: for a hidden unit with boundary
  samples, membership of zero in the (projected) generalized gradient set is
  decided by a small box-constrained convex QP over one slope variable per
  boundary sample: bounded-variable least squares, solved exactly by one
  active-set call. Slopes with a zero gradient factor stay at the box
  midpoint; a solver that stops short of a KKT point raises a typed error.
* per-unit increasing test: once zero is in the subdifferential, directional
  growth of the risk along every extreme ray of the per-unit sign cones is
  checked with one inequality per ray; rays with exactly zero growth are
  "flat" and recorded for the second-order stage.

Everything here is a pure function of cached derivatives; per-unit tests are
independent across units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import lsq_linear

from .errors import DegenerateGeometryError, InternalInconsistencyError, NotBoundaryError
from .network import BoundaryAnalysis, DerivativeBundle, NetworkParams, Perturbation

DEFAULT_TOL_ZERO = 1e-8


# ---------------------------------------------------------------------------
# Outer layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OuterLayerResult:
    passed: bool
    gradient: np.ndarray  # (d_y, d_h + 1): [sum grad_i O_i^T, sum grad_i]
    descent: Perturbation | None


def outer_layer_fosp(
    params: NetworkParams,
    bundle: DerivativeBundle,
    tol_zero: float = DEFAULT_TOL_ZERO,
) -> OuterLayerResult:
    """Test whether the (W2, b2) gradient block vanishes.

    If not, the negated gradient is a strict descent direction: its
    first-order term equals minus the squared Frobenius norm of the block.
    """
    d_x, d_h, d_y = params.dims
    aug = np.hstack([bundle.hidden, np.ones((bundle.m, 1))])
    grad = bundle.grads.T @ aug  # (d_y, d_h + 1)
    scale = max(1.0, float(np.linalg.norm(bundle.grads, axis=1) @ np.linalg.norm(aug, axis=1)))
    if np.linalg.norm(grad) <= tol_zero * scale:
        return OuterLayerResult(True, grad, None)
    descent = Perturbation(
        delta2_bias=-grad[:, d_h],
        delta2_matrix=-grad[:, :d_h],
        v=np.zeros((d_h, d_x + 1)),
    )
    return OuterLayerResult(False, grad, descent)


# ---------------------------------------------------------------------------
# Inner layer, differentiable units
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothUnitResult:
    passed: bool
    gradient: np.ndarray  # (d_x + 1,): C_k^T W2[:, k]
    descent: Perturbation | None


def inner_layer_fosp_smooth(
    k: int,
    params: NetworkParams,
    boundary: BoundaryAnalysis,
    tol_zero: float = DEFAULT_TOL_ZERO,
) -> SmoothUnitResult:
    """Gradient test for a unit with no boundary samples (M_k = 0)."""
    d_x, d_h, d_y = params.dims
    w = params.W2[:, k]
    grad = boundary.C[k].T @ w
    scale = max(1.0, float(np.linalg.norm(boundary.C[k]) * np.linalg.norm(w)))
    if np.linalg.norm(grad) <= tol_zero * scale:
        return SmoothUnitResult(True, grad, None)
    v = np.zeros((d_h, d_x + 1))
    v[k] = -grad
    descent = Perturbation(np.zeros(d_y), np.zeros((d_y, d_h)), v)
    return SmoothUnitResult(False, grad, descent)


# ---------------------------------------------------------------------------
# Box-constrained subdifferential QP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubdiffQPResult:
    """Solution of the per-unit box QP.

    ``s_star[t]`` is the optimal slope for the t-th boundary sample of the
    unit, ``residual_vector`` is the minimizing element of the generalized
    gradient set (a row covector over [W1 b1] space), and ``objective`` its
    squared norm. Zero objective certifies that zero belongs to the set;
    otherwise the negated residual is a strict descent direction. ``scale``
    is the problem scale that zero test is relative to (pass it to
    :meth:`certifies_zero`).
    """

    s_star: np.ndarray
    residual_vector: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float
    scale: float

    def certifies_zero(self, scale: float, tol_zero: float = DEFAULT_TOL_ZERO) -> bool:
        return float(np.linalg.norm(self.residual_vector)) <= tol_zero * scale


def _box_qp_scale(c0: np.ndarray, cols: np.ndarray, s_hi: float) -> float:
    col_norms = np.linalg.norm(cols, axis=0) if cols.size else np.zeros(0)
    return max(1.0, float(np.linalg.norm(c0)), float(s_hi * col_norms.sum()))


def solve_subdiff_qp(
    k: int,
    params: NetworkParams,
    boundary: BoundaryAnalysis,
    bundle: DerivativeBundle,
) -> SubdiffQPResult:
    """Solve min_s ||W2[:,k]^T (C_k + sum_t s_t grad_t xbar_t^T)||^2 over the slope box.

    Bounded-variable least squares, solved exactly by one active-set call
    (``lsq_linear``, ``method="bvls"``); ``iterations`` counts its steps.
    Slopes whose gradient factor W2[:,k]^T grad_t is exactly zero stay at the
    box midpoint. A stalled solver raises InternalInconsistencyError.
    """
    idx = boundary.boundary_indices[k]
    m_k = len(idx)
    if m_k == 0:
        raise NotBoundaryError(f"unit {k} has no boundary samples")
    w = params.W2[:, k]
    lo, hi = params.activation.box
    c0 = boundary.C[k].T @ w  # (d_x + 1,)
    a = bundle.grads[idx] @ w  # (m_k,)
    cols = bundle.xbar[idx].T * a  # (d_x+1, m_k), column t = a_t * xbar_t

    s = np.full(m_k, 0.5 * (lo + hi))
    live = a != 0.0
    iterations = 0
    if live.any():
        sol = lsq_linear(cols[:, live], -c0, bounds=(lo, hi), method="bvls")
        if sol.status < 1:
            raise InternalInconsistencyError(f"box QP of unit {k} not solved: {sol.message}")
        s[live] = sol.x
        iterations = int(sol.nit)

    residual = c0 + cols @ s
    grad = 2.0 * cols.T @ residual
    return SubdiffQPResult(
        s_star=s,
        residual_vector=residual,
        objective=float(residual @ residual),
        iterations=iterations,
        kkt_residual=float(np.linalg.norm(s - np.clip(s - grad, lo, hi), ord=np.inf)),
        scale=_box_qp_scale(c0, cols, max(np.abs(params.activation.box))),
    )


def subdiff_scale(
    k: int, params: NetworkParams, boundary: BoundaryAnalysis, bundle: DerivativeBundle
) -> float:
    """Problem scale of the unit-k box QP; solves it, so read ``SubdiffQPResult.scale`` instead."""
    return solve_subdiff_qp(k, params, boundary, bundle).scale


# ---------------------------------------------------------------------------
# Extreme rays and the increasing test
# ---------------------------------------------------------------------------


def extreme_ray(k: int, i: int, boundary: BoundaryAnalysis) -> np.ndarray:
    """Unit vector in span{xbar_j : j in B_k} orthogonal to all xbar_j, j != i.

    Sign-normalized so that xbar_i . v > 0. Raises DegenerateGeometryError
    if the boundary inputs are too close to dependent for the intersection
    to be one-dimensional.
    """
    idx = list(boundary.boundary_indices[k])
    if i not in idx:
        raise NotBoundaryError(f"sample {i} is not a boundary sample of unit {k}")
    return extreme_ray_from_rows(boundary.boundary_xbar[k], idx.index(i))


def extreme_ray_from_rows(xbar_rows: np.ndarray, pos: int) -> np.ndarray:
    """Core extreme-ray computation from the raw boundary rows.

    Solving (Xb Xb^T) c = e_pos and setting v = Xb^T c makes
    xbar_j . v = delta_{j, pos}, which is exactly the active-constraint
    geometry of the ray.
    """
    gram = xbar_rows @ xbar_rows.T
    w = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    if w[0] <= 1e-12 * max(w[-1], 1.0):
        raise DegenerateGeometryError(
            f"boundary Gram matrix nearly singular (eigenvalues {w[0]:.3e}..{w[-1]:.3e})"
        )
    e = np.zeros(len(xbar_rows))
    e[pos] = 1.0
    coeff = np.linalg.solve(gram, e)
    v = xbar_rows.T @ coeff
    v = v / np.linalg.norm(v)
    inner = float(xbar_rows[pos] @ v)
    if inner < 0:
        v = -v
        inner = -inner
    others = np.delete(xbar_rows @ v, pos)
    if others.size and np.abs(others).max() > 1e-9 * np.linalg.norm(xbar_rows, axis=1).max():
        raise DegenerateGeometryError("extreme ray fails orthogonality to the other boundary rows")
    if inner <= 1e-12:
        raise DegenerateGeometryError("extreme ray nearly orthogonal to its own boundary row")
    return v


@dataclass(frozen=True)
class IncreasingCheckResult:
    """Outcome of the extreme-ray growth test for one unit.

    ``flat_sets[t]`` records which ray signs of boundary sample t are flat:
    {0} none, {+1} or {-1} one side, {-1, +1} both (the latter exactly when
    the gradient factor W2[:,k]^T grad_i vanishes).
    """

    descent_found: bool
    descent_v: np.ndarray | None  # (d_x + 1,) ray achieving strict decrease
    flat_sets: list  # list of frozenset, aligned with boundary indices
    products: list  # per sample: (product_plus, product_minus) diagnostics


def increasing_check(
    k: int,
    params: NetworkParams,
    boundary: BoundaryAnalysis,
    bundle: DerivativeBundle,
    s_star: np.ndarray,
    tol_zero: float = DEFAULT_TOL_ZERO,
) -> IncreasingCheckResult:
    """Test directional growth along both directions of every extreme ray.

    The growth of the first-order term along a ray factors into
    (slope(sign) - s_star_t) * (W2[:,k]^T grad_t) * (xbar_t . ray): a single
    inequality per ray decides all sign regions sharing it. Strictly
    negative product means descent; zero (within tolerance) marks the ray
    flat. Borderline values count as flat, never as descent.
    """
    idx = boundary.boundary_indices[k]
    if len(idx) == 0:
        raise NotBoundaryError(f"unit {k} has no boundary samples")
    act = params.activation
    w = params.W2[:, k]
    rows = boundary.boundary_xbar[k]
    flat_sets = []
    products = []
    for pos, i in enumerate(idx):
        ray = extreme_ray_from_rows(rows, pos)
        a = float(bundle.grads[i] @ w)
        c = float(rows[pos] @ ray)  # > 0 by construction
        prod_plus = (act.s_plus - s_star[pos]) * a * c
        prod_minus = (act.s_minus - s_star[pos]) * a * (-c)
        scale = max(1.0, abs(a) * c * abs(act.s_plus - act.s_minus))
        products.append((prod_plus, prod_minus))
        flats = set()
        for sigma, prod, direction in ((1, prod_plus, ray), (-1, prod_minus, -ray)):
            if prod < -tol_zero * scale:
                return IncreasingCheckResult(True, direction, [], products)
            if abs(prod) <= tol_zero * scale:
                flats.add(sigma)
        flat_sets.append(frozenset(flats) if flats else frozenset({0}))
    return IncreasingCheckResult(False, None, flat_sets, products)


# ---------------------------------------------------------------------------
# Boundary classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryClassification:
    """Partition of each unit's boundary samples by their flat-ray sets.

    ``both[k]``: samples with both ray directions flat (gradient factor
    zero); ``single[k]``: samples with exactly one flat direction, mapped to
    that sign; ``none[k]``: samples with no flat ray. K counts the first
    group, L the first two together, so K <= L <= M.
    """

    both: dict  # k -> list of sample indices
    single: dict  # k -> list of (sample index, sigma)
    none: dict  # k -> list of sample indices
    K: int
    L: int
    M: int

    @property
    def has_flat_rays(self) -> bool:
        return self.L > 0


def classify_boundary(
    flat_sets_by_unit: dict, boundary: BoundaryAnalysis
) -> BoundaryClassification:
    """Aggregate per-unit flat-ray sets into the K/L classification."""
    both: dict = {}
    single: dict = {}
    none: dict = {}
    k_count = 0
    l_count = 0
    for k, idx in enumerate(boundary.boundary_indices):
        if len(idx) == 0:
            continue
        flat_sets = flat_sets_by_unit[k]
        both[k] = []
        single[k] = []
        none[k] = []
        for pos, i in enumerate(idx):
            s = flat_sets[pos]
            if s == frozenset({-1, 1}):
                both[k].append(int(i))
                k_count += 1
                l_count += 1
            elif s in (frozenset({1}), frozenset({-1})):
                single[k].append((int(i), 1 if s == frozenset({1}) else -1))
                l_count += 1
            elif s == frozenset({0}):
                none[k].append(int(i))
            else:
                raise ValueError(f"invalid flat set {s} for unit {k}, sample {i}")
    return BoundaryClassification(
        both=both, single=single, none=none, K=k_count, L=l_count, M=boundary.total
    )
