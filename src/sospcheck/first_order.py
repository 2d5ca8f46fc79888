"""First-order stationarity tests.

Three layers of tests, in the order the certification pipeline runs them:

* outer-layer gradient test: the risk gradient with respect to (W2, b2) is a
  singleton even at nondifferentiable points; nonzero means instant descent.
* per-unit zero-in-subdifferential test: for a hidden unit with boundary
  samples, membership of zero in the (projected) generalized gradient set is
  decided by a small box-constrained convex QP over one slope variable per
  boundary sample: bounded-variable least squares, solved exactly by one
  active-set call. Slopes whose gradient factor is zero up to rounding stay
  at the box midpoint; a solver that stops short of a KKT point raises a
  typed error. A unit without boundary samples has a plain gradient test.
* per-unit increasing test: once zero is in the subdifferential, directional
  growth of the risk along every extreme ray of the per-unit sign cones is
  checked with one inequality per ray, all of a unit's rays from one Gram
  solve; rays with exactly zero growth are "flat". The flat rays give each
  boundary sample its entry of the second-order stage's sign row: no flat
  ray pins it to 0 (an equality), one flat ray pins it to that ray's sign
  (an inequality), and two flat rays leave it free, one of the K signs
  enumerated over 2^K cone QPs.

Each zero test passes when its :func:`zero_test` record ``{value, scale,
tol}`` has value <= tol. :func:`unit_tests` runs each unit's tests in order,
for the checker and the fixture constructor alike.

Everything here is a pure function of cached derivatives; per-unit tests are
independent across units.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InternalInconsistencyError, NotBoundaryError
from .linalg import TOLERANCES
from .network import BoundaryAnalysis, DerivativeBundle, NetworkParams, Perturbation


def zero_test(value: float, scale: float) -> dict:
    """The record ``{value, scale, tol}`` of the zero test value <= tol: the
    norm tested, its problem scale, and ``TOLERANCES.zero`` * scale."""
    return {"value": float(value), "scale": float(scale), "tol": TOLERANCES.zero * float(scale)}


def unit_direction(params: NetworkParams, k: int, v_k: np.ndarray) -> Perturbation:
    """The direction that moves row k of [W1 b1] by ``v_k`` and nothing else."""
    d_x, d_h, d_y = params.dims
    v = np.zeros((d_h, d_x + 1))
    v[k] = v_k
    return Perturbation(np.zeros(d_y), np.zeros((d_y, d_h)), v)


@dataclass(frozen=True)
class GradientTest:
    """The zero test of a gradient block that is a singleton: ``margin`` is
    the :func:`zero_test` of ||gradient||, and when it fails ``descent`` is
    the negated gradient, a strict descent direction."""

    passed: bool
    gradient: np.ndarray
    descent: Perturbation | None
    margin: dict


def unit_tests(
    params: NetworkParams,
    boundary: BoundaryAnalysis,
    bundle: DerivativeBundle,
) -> Iterator[tuple[list[dict], Perturbation | None, np.ndarray, np.ndarray]]:
    """Run each hidden unit's first-order tests, in unit order, lazily.

    Yields ``(entries, descent, pinned, free)`` per unit: the trace entries
    of the tests that ran ("smooth_gradient"; else "subdiff_qp", then
    "increasing" once the box QP certifies zero), the descent direction of
    the last test (None when it passed), and the unit's sign-row parts
    (:class:`IncreasingCheckResult`), empty when the unit has a descent or
    no boundary samples.
    """
    no_signs = (np.zeros(0, int), np.zeros(0, bool))
    for k in range(params.dims[1]):
        if boundary.counts[k] == 0:
            sm = inner_layer_fosp_smooth(k, params, boundary)
            entry = {"stage": "smooth_gradient", "k": k, "passed": sm.passed, **sm.margin}
            yield [entry], sm.descent, *no_signs
            continue
        qp = solve_subdiff_qp(k, params, boundary, bundle)
        margin = zero_test(np.linalg.norm(qp.residual_vector), qp.scale)
        certified = margin["value"] <= margin["tol"]
        entries = [
            {
                "stage": "subdiff_qp",
                "k": k,
                "objective": qp.objective,
                "s_star": qp.s_star.tolist(),
                "kkt_residual": qp.kkt_residual,
                "iterations": qp.iterations,
                "certified": certified,
                **margin,
            }
        ]
        if not certified:
            yield entries, unit_direction(params, k, -qp.residual_vector), *no_signs
            continue
        inc = increasing_check(k, params, boundary, bundle, qp.s_star)
        entries.append(
            {
                "stage": "increasing",
                "k": k,
                "descent": inc.descent_found,
                "flat_sets": [
                    [-1, 1] if both else [int(sign)] for sign, both in zip(inc.pinned, inc.free)
                ],
                "products": inc.products.tolist(),
                "tol": inc.tol.tolist(),
            }
        )
        descent = None if inc.descent_v is None else unit_direction(params, k, inc.descent_v)
        yield entries, descent, inc.pinned, inc.free


# ---------------------------------------------------------------------------
# Outer layer and differentiable units
# ---------------------------------------------------------------------------


def outer_layer_fosp(params: NetworkParams, bundle: DerivativeBundle) -> GradientTest:
    """Test whether the (W2, b2) gradient block vanishes.

    ``gradient`` is (d_y, d_h + 1): [sum grad_i O_i^T, sum grad_i]. The
    descent's first-order term equals minus its squared Frobenius norm.
    """
    d_x, d_h, d_y = params.dims
    aug = np.hstack([bundle.hidden, np.ones((bundle.m, 1))])
    grad = bundle.grads.T @ aug
    scale = max(1.0, float(np.linalg.norm(bundle.grads, axis=1) @ np.linalg.norm(aug, axis=1)))
    margin = zero_test(np.linalg.norm(grad), scale)
    if margin["value"] <= margin["tol"]:
        return GradientTest(True, grad, None, margin)
    descent = Perturbation(-grad[:, d_h], -grad[:, :d_h], np.zeros((d_h, d_x + 1)))
    return GradientTest(False, grad, descent, margin)


def inner_layer_fosp_smooth(
    k: int, params: NetworkParams, boundary: BoundaryAnalysis
) -> GradientTest:
    """Gradient test for a unit with no boundary samples (M_k = 0);
    ``gradient`` is (d_x + 1,): C_k^T W2[:, k]."""
    w = params.W2[:, k]
    grad = boundary.C[k].T @ w
    scale = max(1.0, float(np.linalg.norm(boundary.C[k]) * np.linalg.norm(w)))
    margin = zero_test(np.linalg.norm(grad), scale)
    if margin["value"] <= margin["tol"]:
        return GradientTest(True, grad, None, margin)
    return GradientTest(False, grad, unit_direction(params, k, -grad), margin)


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

    def certifies_zero(self, scale: float) -> bool:
        test = zero_test(np.linalg.norm(self.residual_vector), scale)
        return test["value"] <= test["tol"]


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
    Slopes whose gradient factor W2[:,k]^T grad_t is zero up to rounding
    (``TOLERANCES.factor_rounding``) stay at the box midpoint.
    A stalled solver raises InternalInconsistencyError.
    """
    from scipy.optimize import lsq_linear

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
    a_scale = np.linalg.norm(w) * (
        np.linalg.norm(bundle.grads[idx], axis=1) + np.linalg.norm(bundle.outputs[idx], axis=1)
    )
    live = np.abs(a) > TOLERANCES.factor_rounding * a_scale
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
    return extreme_rays(boundary.boundary_xbar[k])[idx.index(i)]


def extreme_rays(xbar_rows: np.ndarray) -> np.ndarray:
    """The extreme rays of all boundary rows of a unit, one row each.

    Taking the columns of Xb^T (Xb Xb^T)^-1 makes xbar_j . v_t = delta_jt,
    which is exactly the active-constraint geometry of the rays; each is
    then scaled to unit length and signed so that xbar_t . v_t > 0. Raises
    DegenerateGeometryError as :func:`extreme_ray` does.
    """
    gram = xbar_rows @ xbar_rows.T
    w = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    if w[0] <= TOLERANCES.gram * max(w[-1], 1.0):
        raise DegenerateGeometryError(
            f"boundary Gram matrix nearly singular (eigenvalues {w[0]:.3e}..{w[-1]:.3e})"
        )
    rays = (xbar_rows.T @ np.linalg.inv(gram)).T
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    cross = xbar_rows @ rays.T  # (j, t): xbar_j . v_t
    inner = cross.diagonal().copy()
    rays[inner < 0] *= -1.0
    np.fill_diagonal(cross, 0.0)
    if np.abs(cross).max() > TOLERANCES.ray_cross * np.sqrt(gram.diagonal().max()):
        raise DegenerateGeometryError("extreme ray fails orthogonality to the other boundary rows")
    if np.abs(inner).min() <= TOLERANCES.ray_inner:
        raise DegenerateGeometryError("extreme ray nearly orthogonal to its own boundary row")
    return rays


@dataclass(frozen=True)
class IncreasingCheckResult:
    """Outcome of the extreme-ray growth test for one unit.

    Without a descent, ``pinned`` and ``free`` are the unit's part of the
    sign row of the second-order stage, one entry per boundary sample:
    ``pinned[t]`` is the sign of sample t's one flat ray (0 when no ray is
    flat), and ``free[t]`` is true when both rays are flat, which happens
    exactly when the gradient factor W2[:,k]^T grad_t vanishes. With a
    descent both are empty.
    """

    descent_found: bool
    descent_v: np.ndarray | None  # (d_x + 1,) ray achieving strict decrease
    pinned: np.ndarray  # (M_k,) int in {-1, 0, 1}
    free: np.ndarray  # (M_k,) bool
    products: np.ndarray  # (M_k, 2): growth along the + and the - ray of each sample
    tol: np.ndarray  # (M_k,): a product below -tol descends, one within +-tol is flat


def increasing_check(
    k: int,
    params: NetworkParams,
    boundary: BoundaryAnalysis,
    bundle: DerivativeBundle,
    s_star: np.ndarray,
) -> IncreasingCheckResult:
    """Test directional growth along both directions of every extreme ray.

    The growth of the first-order term along a ray factors into
    (slope(sign) - s_star_t) * (W2[:,k]^T grad_t) * (xbar_t . ray): a single
    inequality per ray decides all sign regions sharing it. Strictly
    negative product means descent; zero (within tolerance) marks the ray
    flat. Borderline values count as flat, never as descent. The descent
    returned is the first in sample order, the + ray before the - ray.
    """
    idx = boundary.boundary_indices[k]
    if len(idx) == 0:
        raise NotBoundaryError(f"unit {k} has no boundary samples")
    act = params.activation
    rows = boundary.boundary_xbar[k]
    rays = extreme_rays(rows)
    a = bundle.grads[idx] @ params.W2[:, k]
    c = np.einsum("ij,ij->i", rows, rays)  # > 0 by construction
    products = np.column_stack([(act.s_plus - s_star) * a * c, (act.s_minus - s_star) * a * -c])
    tol = TOLERANCES.zero * np.maximum(1.0, np.abs(a) * c * abs(act.s_plus - act.s_minus))
    descends = products < -tol[:, None]
    if descends.any():
        t, minus = divmod(int(np.argmax(descends)), 2)
        return IncreasingCheckResult(
            True, -rays[t] if minus else rays[t], np.zeros(0, int), np.zeros(0, bool), products,
            tol,
        )
    flat = np.abs(products) <= tol[:, None]
    pinned = flat[:, 0].astype(int) - flat[:, 1]
    return IncreasingCheckResult(False, None, pinned, flat.all(axis=1), products, tol)
