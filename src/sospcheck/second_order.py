"""Second-order cone quadratic programs and their classification.

Each sign pattern over the boundary samples fixes the hidden-layer slope
matrix of every sample and turns the second-order term of the risk into a
quadratic form ``eta^T Q eta`` over a polyhedral cone
``S = {eta : A eta = 0, B eta >= 0}``. The certification needs to know which
of three mutually exclusive cases holds:

* T1 -- the form is strictly positive on S minus the origin,
* T2 -- nonnegative on S with a nonzero flat direction,
* T3 -- some feasible direction has strictly negative value (a second-order
  descent direction).

With no inequality rows the cone is a subspace, and one eigendecomposition
of the form projected onto it decides (``projected_spectrum_oracle``, cost
O(p^3), the polynomial bound of the paper's projected gradient argument).
The paper's projected gradient descent is kept as ``solve_ecqp_pgd``, an
independent cross-check for the tests; its rate is about 1 - 1/kappa in
floating point, too slow to decide the ill-conditioned forms of real
fixtures within a fixed budget. With inequality rows, one change of
variables reduces the problem to ``min nu^T Rbar nu  s.t. nu_1 >= 0``,
which is decided by a positive-semidefiniteness test on the block R22, the
form on the face {A eta = 0, B eta = 0}, and a copositivity test on an
r x r Schur complement S (a null vector z of R22 that R12 sees spans a
descent direction with e_j, j = argmax |R12 z|). Copositivity of S is
decided by the first of these rules that applies
(``copositivity_classify``): lambda_min(S) above the zero threshold (CP1);
for lambda_min(S) within it, a zero diagonal entry (CP2), or else a
nonnegative least-squares solve of the convex standard quadratic program on
the simplex, whose Frank-Wolfe gap bounds its minimum from below (CP1 or
CP2); and only for the rest, indefinite S among it, the Pareto spectrum, at
cost O(r^3 2^r). Only the PGD cross-check draws random numbers.

A sign pattern is a sign row: one entry in {-1, 0, 1} per boundary pair
(k, i), in the order of ``BoundaryAnalysis.pairs``. A
zero pins the direction to the pair's boundary hyperplane (an equality
row); -1 and 1 pick a side (an inequality row signed by the entry). The
cone QPs of all sign patterns at one point share an :class:`AssemblyBase`:
a pattern changes only the slopes of the boundary samples, so the terms of
every other sample are summed once, and it only signs and sorts the same
constraint rows, so their rank is checked once. Their inequality rows
differ only in sign, so they also share one :class:`IcqpFrame`, the O(p^3)
elimination of the constraints, built with every signed row at +1, so that
the signs of a cone's inequality rows are its own sign row. Every term a
pattern changes carries a factor ``xbar_i . v_k`` that vanishes on the
face, so R22 is the projected form of the point's equality-constrained QP,
decided once. ``icqp_sweep`` decides the patterns of a point a chunk at a
time: one stacked assembly of their forms, one contraction with the frame
for R11 and R12, one batched PSD-block test, and one stacked
eigendecomposition of the Schur complements for the positive definite
certificate; only what that leaves open, and the witnesses, are handled
pattern by pattern. Each pattern costs O(p^2 r + r^3) beyond its assembly.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from .errors import (
    InternalInconsistencyError,
    NonSymmetricError,
    RankDeficientConstraintsError,
    RankDeficientError,
    SubsetBudgetExceededError,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    EigenDecomposition,
    matrix_rank,
    nullspace_basis,
    require_finite,
    sym_eig,
)
from .network import (
    BoundaryAnalysis,
    Dataset,
    DerivativeBundle,
    LossModel,
    NetworkParams,
    Perturbation,
    _response_terms,
    per_sample_derivatives,
    perturbation_layout,
)

DEFAULT_ZERO_EIG_TOL = 1e-8
# Pareto spectrum: positivity of unit eigenvectors, then complementarity and
# the zero test of copositivity relative to max(1, max |S|)
DEFAULT_POS_TOL = 1e-9
DEFAULT_COMP_TOL = 1e-10
DEFAULT_CP_TOL = 1e-9
WITNESS_FEAS_TOL = 1e-8
WITNESS_CURV_TOL = 1e-10
# samples per block when summing the per-sample curvature terms of a cone QP;
# bounds the working memory of the assembly at O(ASSEMBLY_BLOCK * p)
ASSEMBLY_BLOCK = 1024
# form entries per stack of the pattern sweep (one pattern at least); bounds
# its working memory at O(PATTERN_CHUNK) floats
PATTERN_CHUNK = 1 << 18
# principal subsets per batched eigendecomposition in the Pareto spectrum;
# bounds its working memory at O(SPECTRUM_CHUNK * r^2)
SPECTRUM_CHUNK = 1024
# PGD budget, and its divergence, convergence and fixed-point factors
PGD_MAX_ITERS = 10_000
PGD_DIV_FACTOR = 1e8
PGD_CONV_FACTOR = 1e-12
PGD_FIXED_POINT_TOL = 1e-12


def _symmetric_form(q_mat: np.ndarray) -> np.ndarray:
    """The exactly symmetric part of Q, or of each form of a stack (..., p, p);
    reject a non-square or asymmetric form."""
    q_mat = require_finite(q_mat, "Q")
    if q_mat.ndim < 2 or q_mat.shape[-1] != q_mat.shape[-2]:
        raise NonSymmetricError("Q must be square symmetric")
    q_t = np.swapaxes(q_mat, -1, -2)
    asym = np.abs(q_mat - q_t).max(axis=(-2, -1), initial=0.0)
    if (asym > 1e-9 * np.maximum(1.0, np.abs(q_mat).max(axis=(-2, -1), initial=0.0))).any():
        raise NonSymmetricError("Q must be square symmetric")
    return 0.5 * (q_mat + q_t)


def _as_rows(mat: np.ndarray, p: int, name: str) -> np.ndarray:
    """``mat`` as a stack of constraint rows of length p; a single row may
    come as a vector, and with p = 0 every row is empty."""
    mat = require_finite(mat, name)
    return mat.reshape(-1, p) if p else mat.reshape(mat.shape[0] if mat.ndim == 2 else 0, 0)


@dataclass(frozen=True)
class ConeQP:
    """Quadratic form Q over the cone {A eta = 0, B eta >= 0}.

    Q must be symmetric; A and B must each have full row rank and their
    stacked rows must be linearly independent (checked at construction).
    """

    Q: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        q_mat = _symmetric_form(self.Q)
        if q_mat.ndim != 2:
            raise NonSymmetricError("Q must be one square symmetric matrix")
        p = q_mat.shape[0]
        object.__setattr__(self, "Q", q_mat)
        a = _as_rows(self.A, p, "A")
        b = _as_rows(self.B, p, "B")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        q, r = a.shape[0], b.shape[0]
        stacked = np.vstack([a, b]) if q + r else np.zeros((0, p))
        if q + r and matrix_rank(stacked) != q + r:
            raise RankDeficientConstraintsError(
                f"constraint rows are dependent: rank {matrix_rank(stacked)} < {q + r}"
            )

    @property
    def shape(self) -> tuple[int, int, int]:
        """(p, q, r)."""
        return (self.Q.shape[0], self.A.shape[0], self.B.shape[0])


@dataclass(frozen=True)
class QPClassification:
    verdict: str  # "T1" | "T2" | "T3"
    witness: np.ndarray | None
    diagnostics: dict = field(default_factory=dict)


def _spectral_norm(q_mat: np.ndarray) -> float:
    if q_mat.size == 0:
        return 0.0
    w = np.linalg.eigvalsh(q_mat)
    return float(max(abs(w[0]), abs(w[-1])))


def verify_witness(
    q_mat: np.ndarray, a_mat: np.ndarray, b_mat: np.ndarray, eta: np.ndarray, verdict: str
) -> None:
    """Re-check a witness of the form ``q_mat`` on the cone {a_mat eta = 0,
    b_mat eta >= 0} in the original coordinates; raise if it fails."""
    n = float(np.linalg.norm(eta))
    if n == 0.0:
        raise InternalInconsistencyError(f"{verdict} witness is the zero vector")
    qnorm = _spectral_norm(q_mat)
    quad = float(eta @ q_mat @ eta)
    if a_mat.shape[0] and np.linalg.norm(a_mat @ eta) > WITNESS_FEAS_TOL * n:
        raise InternalInconsistencyError(f"{verdict} witness violates equality constraints")
    if b_mat.shape[0] and float(np.min(b_mat @ eta)) < -WITNESS_FEAS_TOL * n:
        raise InternalInconsistencyError(f"{verdict} witness violates inequality constraints")
    if verdict == "T3" and quad > -WITNESS_CURV_TOL * qnorm * n * n:
        raise InternalInconsistencyError(
            f"T3 witness curvature {quad:.3e} not sufficiently negative"
        )
    if verdict == "T2" and abs(quad) > WITNESS_FEAS_TOL * max(qnorm, 1.0) * n * n:
        raise InternalInconsistencyError(f"T2 witness curvature {quad:.3e} not flat")


# ---------------------------------------------------------------------------
# Assembly of the second-order QP from a sign pattern
# ---------------------------------------------------------------------------


def _sign_row(signs, n_pairs: int) -> np.ndarray:
    """``signs`` as a sign row of ``n_pairs`` entries; ValueError unless it
    has that length and every entry is in {-1, 0, 1}."""
    row = np.asarray(signs)
    if row.shape != (n_pairs,) or (np.sign(row) != row).any():
        raise ValueError(f"need a sign row of {n_pairs} entries in {{-1, 0, 1}}")
    return row.astype(int)


def _pair_slopes(params: NetworkParams, signs: np.ndarray) -> np.ndarray:
    """The hidden-layer slope that each sign sets on its boundary pair:
    ``s_minus``, 0 or ``s_plus``."""
    act = params.activation
    return np.where(signs > 0, act.s_plus, np.where(signs < 0, act.s_minus, 0.0))


def pattern_objective(
    params: NetworkParams,
    bundle: DerivativeBundle,
    signs: np.ndarray,
    eta: Perturbation,
) -> float:
    """Second-order objective at ``eta`` with the slopes of the boundary
    pairs fixed by the sign row ``signs``.

    Used as the direct-evaluation oracle for the assembled quadratic form:
    eta^T Q eta equals exactly twice this value.
    """
    units, samples = np.nonzero(bundle.boundary_mask.T)  # the pairs, unit-major
    jvals = params.activation.hprime(bundle.preact)
    jvals[samples, units] = _pair_slopes(params, _sign_row(signs, len(units)))
    return _response_terms(params, bundle, eta, jvals)[1]


def _sample_terms(
    params: NetworkParams, bundle: DerivativeBundle, rows: np.ndarray, jvals: np.ndarray
) -> np.ndarray:
    """The samples' part of the forms of n sign patterns: their curvature
    plus their u/v coupling.

    ``jvals`` holds the hidden-layer slopes of the samples ``rows`` under
    each pattern, shape (n, len(rows), d_h). Sums P_i^T H_i P_i, with P_i
    the (d_y, p) linear response map of sample i, and the bilinear coupling
    of the u_k and v_k blocks over the samples, a block of
    ``ASSEMBLY_BLOCK`` samples at a time as one product per pattern. The
    result, shape (n, p, p), is symmetric up to rounding.
    """
    d_x, d_h, d_y = params.dims
    p = params.n_params
    n = len(jvals)
    _, sl_u, sl_v = perturbation_layout(params.dims)
    eye = np.eye(d_y)
    q_mat = np.zeros((n, p, p))
    coupling = np.zeros((n, d_h * d_y, d_x + 1))
    for start in range(0, len(rows), ASSEMBLY_BLOCK):
        blk = rows[start : start + ASSEMBLY_BLOCK]
        jv = jvals[:, start : start + ASSEMBLY_BLOCK]
        hidden, xbar, grads = bundle.hidden[blk], bundle.xbar[blk], bundle.grads[blk]
        b = len(blk)
        # P_i is [1, hidden_i] (x) I on (delta2, u_1..u_dh) and j_ik W2[:, k] xbar_i^T on v_k
        aug = np.ones((b, d_h + 1))
        aug[:, 1:] = hidden
        fixed = (aug[:, None, :, None] * eye[:, None, :]).reshape(b, d_y, -1)
        slopes = jv[:, :, None, :] * params.W2  # (n, b, d_y, d_h)
        resp = np.concatenate(
            [
                np.broadcast_to(fixed, (n, *fixed.shape)),
                (slopes[..., None] * xbar[:, None, None, :]).reshape(n, b, d_y, -1),
            ],
            axis=3,
        )
        curv = bundle.hessians[blk] @ resp
        q_mat += resp.reshape(n, -1, p).transpose(0, 2, 1) @ curv.reshape(n, -1, p)
        # sum_i j_ik g_i xbar_i^T for every unit k, stacked by rows
        coupling += (jv[..., None] * grads[:, None, :]).reshape(n, b, -1).transpose(0, 2, 1) @ xbar
    for k in range(d_h):
        w_k = coupling[:, k * d_y : (k + 1) * d_y]
        q_mat[:, sl_u[k], sl_v[k]] += w_k
        q_mat[:, sl_v[k], sl_u[k]] += w_k.transpose(0, 2, 1)
    return q_mat


@dataclass(frozen=True)
class AssemblyBase:
    """The part of the cone QPs of one point that no sign pattern changes.

    A sign pattern sets the slopes of the boundary pairs only, so the Q
    terms of the samples with no boundary pair are summed once
    (``q_fixed``), and each pattern adds those of the ``touched`` samples.
    A pattern also only signs and sorts the same constraint rows, so they
    are built and rank-checked once, as ``rows``: one homogeneity row per
    hidden unit, then one row per boundary pair in the order of
    ``boundary.pairs``, the order of the entries of a sign row.
    """

    params: NetworkParams
    bundle: DerivativeBundle
    boundary: BoundaryAnalysis
    touched: np.ndarray  # sorted indices of the samples with a boundary pair
    q_fixed: np.ndarray  # (p, p) terms of the other samples
    rows: np.ndarray  # (d_h + M, p) independent constraint rows, each pair's at sign +1
    slopes: np.ndarray  # (len(touched), d_h) slopes of the touched samples off their pairs
    pair_at: np.ndarray  # place in ``touched`` of the sample of each boundary pair
    pair_unit: np.ndarray  # hidden unit of each boundary pair

    def forms(self, signs: np.ndarray) -> np.ndarray:
        """The forms Q of n sign patterns, shape (n, p, p), from their sign
        rows (n, M)."""
        jvals = np.repeat(self.slopes[None], len(signs), axis=0)
        jvals[:, self.pair_at, self.pair_unit] = _pair_slopes(self.params, signs)
        return self.q_fixed + _sample_terms(self.params, self.bundle, self.touched, jvals)


def assembly_base(
    params: NetworkParams, bundle: DerivativeBundle, boundary: BoundaryAnalysis
) -> AssemblyBase:
    """Sum the pattern-independent part of the cone QPs at one point.

    Dependent constraint rows raise RankDeficientConstraintsError.
    """
    on_boundary = bundle.boundary_mask.any(axis=1)
    rest, touched = np.flatnonzero(~on_boundary), np.flatnonzero(on_boundary)
    act = params.activation
    q_fixed = _sample_terms(params, bundle, rest, act.hprime(bundle.preact[rest])[None])[0]
    _, d_h, _ = params.dims
    p = params.n_params
    _, sl_u, sl_v = perturbation_layout(params.dims)
    rows = np.zeros((d_h + boundary.total, p))
    for k in range(d_h):
        rows[k, sl_u[k]] = params.W2[:, k]
        rows[k, sl_v[k]] = -params.hyperplane_row(k)
    pair_unit, pair_samples = boundary.pairs
    for at, (k, i) in enumerate(zip(pair_unit, pair_samples), start=d_h):
        rows[at, sl_v[k]] = bundle.xbar[i]
    if matrix_rank(rows) != len(rows):
        raise RankDeficientConstraintsError(
            f"constraint rows are dependent: rank {matrix_rank(rows)} < {len(rows)}"
        )
    return AssemblyBase(
        params,
        bundle,
        boundary,
        touched,
        q_fixed,
        rows,
        act.hprime(bundle.preact[touched]),
        np.searchsorted(touched, pair_samples),
        pair_unit,
    )


def assemble_so_qp(
    params: NetworkParams,
    data: Dataset,
    loss: LossModel,
    boundary: BoundaryAnalysis,
    signs: np.ndarray,
    bundle: DerivativeBundle | None = None,
    base: AssemblyBase | None = None,
) -> ConeQP:
    """Build the cone QP for the sign pattern of the sign row ``signs``.

    Q is the symmetric matrix with eta^T Q eta equal to twice the
    second-order objective. A stacks one homogeneity row per hidden unit
    (confining directions to the orthogonal complement of the per-unit
    rescaling invariances) plus the boundary row of each zero entry; B
    stacks the boundary rows of the other entries, each times its sign.
    A sign row of the wrong length or with an entry outside {-1, 0, 1}
    raises ValueError; dependent constraint rows raise
    RankDeficientConstraintsError.

    ``base`` is the :func:`assembly_base` of the point, which then also
    supplies the parameters, derivatives and boundary analysis. Passing the
    same base for every sign pattern of a point sums the terms of the
    samples off the boundary, and checks the rank of the constraint rows,
    once; without it the base is built here.
    """
    if base is None:
        if bundle is None:
            bundle = per_sample_derivatives(params, data, loss, boundary.boundary_tol)
        base = assembly_base(params, bundle, boundary)
    signs = _sign_row(signs, base.boundary.total)
    d_h = base.params.dims[1]
    pairs, zero = base.rows[d_h:], signs == 0
    return ConeQP(
        base.forms(signs[None])[0],
        np.vstack([base.rows[:d_h], pairs[zero]]),
        signs[~zero, None] * pairs[~zero],
    )


# ---------------------------------------------------------------------------
# Equality-constrained case: the spectrum decider and the PGD cross-oracle
# ---------------------------------------------------------------------------


def solve_ecqp_pgd(q_mat: np.ndarray, a_mat: np.ndarray, seed: int = 0) -> QPClassification:
    """Classify Q on the subspace {A eta = 0} by projected gradient descent.

    Iterates eta <- P (I - alpha Q) eta from a random start projected onto
    null(A), with P = W W^T for an orthonormal basis W of null(A) and
    alpha = 0.9 / lambda_max(Q) when the top eigenvalue is positive (else 1).
    Convergence to zero means T1, to a nonzero fixed point T2; norm growth
    implies a negative eigenvalue and the iterate is then renormalized and
    run until its Rayleigh quotient is decisively negative (T3). If the
    trajectory does not resolve within ``PGD_MAX_ITERS`` the eigen oracle
    decides and the fallback is recorded in the diagnostics.
    """
    q_mat = require_finite(q_mat, "Q")
    p = q_mat.shape[0]
    a_mat = _as_rows(a_mat, p, "A")
    basis = nullspace_basis(a_mat)
    proj = basis @ basis.T
    qnorm = _spectral_norm(q_mat)
    lam_max = float(np.linalg.eigvalsh(q_mat)[-1]) if p else 0.0
    alpha = 0.9 / lam_max if lam_max > 0 else 1.0

    rng = np.random.default_rng(seed)
    eta = proj @ rng.standard_normal(p)
    n0 = float(np.linalg.norm(eta))
    diag = {"alpha": alpha, "lam_max": lam_max, "fallback": False, "mode": "pgd"}
    if n0 == 0.0:
        # W has no columns: the feasible set is {0}, strictly positive vacuously
        diag["mode"] = "trivial"
        return QPClassification("T1", None, diag)

    step_mat = proj @ (np.eye(p) - alpha * q_mat)
    norms = [n0]
    diverged = False
    prev = eta
    for it in range(1, PGD_MAX_ITERS + 1):
        eta = step_mat @ prev
        n = float(np.linalg.norm(eta))
        norms.append(n)
        if not diverged:
            if n <= PGD_CONV_FACTOR * n0:
                diag.update(iterations=it, norms=norms)
                return QPClassification("T1", None, diag)
            if n >= PGD_DIV_FACTOR * n0:
                diverged = True
                eta = eta / n * n0  # keep iterating on the direction only
            elif (
                float(np.linalg.norm(eta - prev)) <= PGD_FIXED_POINT_TOL * n
                and n >= 1e-6 * n0
            ):
                diag.update(iterations=it, norms=norms)
                witness = eta / n
                return QPClassification("T2", witness, diag)
        else:
            eta = eta / max(float(np.linalg.norm(eta)), 1e-300) * n0
        if diverged:
            u = eta / n0
            quad = float(u @ q_mat @ u)
            if quad < -max(WITNESS_CURV_TOL * qnorm, 1e-300):
                diag.update(iterations=it, norms=norms)
                return QPClassification("T3", u, diag)
        prev = eta

    oracle = projected_spectrum_oracle(q_mat, a_mat)
    diag.update(iterations=PGD_MAX_ITERS, norms=norms, fallback=True, mode="oracle-fallback")
    return QPClassification(oracle.verdict, oracle.witness, diag)


@dataclass(frozen=True)
class SpectrumOracle:
    verdict: str
    witness: np.ndarray | None
    decomposition: EigenDecomposition
    basis: np.ndarray  # orthonormal basis of null(A)
    scale: float  # ||Q||_2
    tol: float  # zero_tol * scale: eigenvalues within it count as zero

    @property
    def lam_min(self) -> float | None:
        """Smallest eigenvalue of the projected form; None if null(A) = {0}."""
        values = self.decomposition.eigenvalues
        return float(values[0]) if values.size else None


def projected_spectrum_oracle(
    q_mat: np.ndarray,
    a_mat: np.ndarray,
    zero_tol: float = DEFAULT_ZERO_EIG_TOL,
) -> SpectrumOracle:
    """Classify Q on {A eta = 0} from the spectrum of the projected form.

    With W an orthonormal basis of null(A), the verdict follows from the
    eigenvalue signs of C = W^T Q W, with |lambda| below
    ``zero_tol * ||Q||`` counted as zero. The witness is the unit
    eigenvector of the smallest (T3) or first zero (T2) eigenvalue, mapped
    back by W. The top eigenvalue of C never exceeds that of Q
    (interlacing); this is asserted.
    """
    q_mat = require_finite(q_mat, "Q")
    p = q_mat.shape[0]
    a_mat = _as_rows(a_mat, p, "A")
    basis = nullspace_basis(a_mat) if a_mat.shape[0] else np.eye(p)
    eig_q = np.linalg.eigvalsh(q_mat)
    scale = float(np.abs(eig_q).max(initial=0.0))
    tol = zero_tol * scale
    if basis.shape[1] == 0:
        empty = EigenDecomposition(np.zeros(0), np.zeros((0, 0)))
        return SpectrumOracle("T1", None, empty, basis, scale, tol)
    c_mat = basis.T @ q_mat @ basis
    dec = sym_eig(0.5 * (c_mat + c_mat.T))
    if dec.eigenvalues[-1] > eig_q[-1] + 1e-9 * max(1.0, scale):
        raise InternalInconsistencyError("projected top eigenvalue exceeds the unprojected one")
    if dec.eigenvalues[0] < -tol:
        return SpectrumOracle("T3", basis @ dec.eigenvectors[:, 0], dec, basis, scale, tol)
    zero_cols = np.flatnonzero(np.abs(dec.eigenvalues) <= tol)
    if zero_cols.size:
        witness = basis @ dec.eigenvectors[:, zero_cols[0]]
        return SpectrumOracle("T2", witness, dec, basis, scale, tol)
    return SpectrumOracle("T1", None, dec, basis, scale, tol)


# ---------------------------------------------------------------------------
# Inequality-constrained case: reduction to a sign-constrained form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IcqpReduction:
    """One change of variables that turns the cone into a sign constraint.

    The map ``t`` of an :class:`IcqpFrame` satisfies ``A t = 0`` and
    ``B t = [I 0]``, so the problem is ``min nu^T Rbar nu  s.t. nu_1 >= 0``
    with ``Rbar = t^T Q t``. Only the rows R11 and R12 that nu_1 (length r)
    indexes are formed; R22 is the frame's ``face``. ``eta_from_nu`` maps
    reduced coordinates back to a feasible original direction.
    """

    t: np.ndarray  # (p, p - q)
    r11: np.ndarray
    r12: np.ndarray
    shape: tuple[int, int, int]  # (p, q, r)

    def eta_from_nu(self, nu1: np.ndarray, nu2: np.ndarray) -> np.ndarray:
        return self.t @ np.concatenate([np.atleast_1d(nu1), np.atleast_1d(nu2)])


@dataclass(frozen=True)
class IcqpFrame:
    """The part of the ICQP reduction that the sign patterns of a point share.

    The cones of one point have the same A, and their B differ only by row
    signs: B = diag(sigma) b0, sigma in {-1, 1}^r. The map of a cone is
    ``t0 diag(sigma, 1)``, ``t0 = [T_r | face.basis]``, T_r the minimum-norm
    map with A T_r = 0 and b0 T_r = I. ``face`` is the form on the face
    {A eta = 0, b0 eta = 0}, R22 of every cone of the frame; ``face_pinv``
    drops the eigenvalues it calls zero.
    """

    a: np.ndarray  # (q, p) equality rows
    b0: np.ndarray  # (r, p) inequality rows at sigma = 1
    t0: np.ndarray  # (p, p - q) map at sigma = 1
    face: SpectrumOracle
    face_pinv: np.ndarray  # (p - q - r, p - q - r)


def _frame(a: np.ndarray, b0: np.ndarray, face: SpectrumOracle, rank_tol: float) -> IcqpFrame:
    """The :class:`IcqpFrame` of the rows ``a`` and ``b0``; see
    :func:`icqp_frame`."""
    p, q, r = a.shape[1], a.shape[0], b0.shape[0]
    if r == 0:
        raise ValueError("no inequality rows; use the equality-constrained path")
    basis = nullspace_basis(a, rank_tol)
    if basis.shape[1] != p - q:
        raise RankDeficientError(f"null(A) has dimension {basis.shape[1]}, expected {p - q}")
    u, s, vt = np.linalg.svd(b0 @ basis, full_matrices=False)
    if s[-1] <= rank_tol * s[0]:
        raise RankDeficientError("inequality rows are dependent on null(A)")
    rows = np.vstack([a, b0])
    bad = face.basis.shape != (p, p - q - r)
    if bad or np.linalg.norm(rows @ face.basis) > rank_tol * np.linalg.norm(rows):
        raise InternalInconsistencyError("the face basis does not span null of the cone's rows")
    t0 = np.hstack([basis @ (vt.T @ (u.T / s[:, None])), face.basis])
    # the tol of a zero form is 0, and every eigenvalue of it is zero
    face_pinv = face.decomposition.pseudoinverse(max(face.tol, np.finfo(float).tiny))
    return IcqpFrame(a, b0, t0, face, face_pinv)


def icqp_frame(
    qp: ConeQP, rank_tol: float = DEFAULT_RANK_TOL, face: SpectrumOracle | None = None
) -> IcqpFrame:
    """Eliminate the equality constraints once for every cone that shares
    ``qp``'s rows up to the signs of B, and check their ranks.

    ``qp.B`` becomes the frame's b0. ``face`` is the
    :func:`projected_spectrum_oracle` of the form on the face
    {A eta = 0, B eta = 0}, by default that of ``qp.Q``. Cones that share a
    frame must agree on the face, as those of one :func:`assembly_base` and
    its all-zero pattern's QP do. Raises InternalInconsistencyError unless
    ``face.basis`` has p - q - r columns that the cone's rows annihilate.
    """
    if face is None:
        face = projected_spectrum_oracle(qp.Q, np.vstack([qp.A, qp.B]))
    return _frame(qp.A, qp.B, face, rank_tol)


def _reduce(
    frame: IcqpFrame, forms: np.ndarray, signs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R11, R12 and the Schur complement S = R11 - R12 R22^+ R12^T of n cones
    of ``frame``: forms (n, p, p), and B of cone j equal to
    diag(signs[j]) b0.

    The map of cone j is ``t0 diag(sigma, 1)``, so with D = diag(sigma) and
    H = T_r^T Q t0 (T_r the first r columns of t0), R11 = D H11 D and
    R12 = D H12: one contraction of the stack with t0 serves every sign.
    R11 and S are made exactly symmetric.
    """
    r = frame.b0.shape[0]
    head = (frame.t0[:, :r].T @ forms) @ frame.t0
    head *= signs[:, :, None]
    r11 = head[:, :, :r] * signs[:, None, :]
    r11 = 0.5 * (r11 + r11.transpose(0, 2, 1))
    r12 = head[:, :, r:]
    # an empty R22 gives an empty pseudo-inverse
    schur = r11 - r12 @ frame.face_pinv @ r12.transpose(0, 2, 1)
    return r11, r12, 0.5 * (schur + schur.transpose(0, 2, 1))


def icqp_reduce(qp: ConeQP, rank_tol: float = DEFAULT_RANK_TOL) -> IcqpReduction:
    """Form R11 and R12 of an inequality-constrained QP in its own
    :func:`icqp_frame`, at cost O(p^2 r) beyond the frame."""
    frame = icqp_frame(qp, rank_tol)
    r11, r12, _ = _reduce(frame, qp.Q[None], np.ones((1, qp.shape[2])))
    return IcqpReduction(t=frame.t0, r11=r11[0], r12=r12[0], shape=qp.shape)


# ---------------------------------------------------------------------------
# PSD block classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsdBlockResult:
    kind: str  # "PD1" | "PD2" | "PD3" | "PD4"
    witness_nu2: np.ndarray | None  # negative direction (PD4) or null vector (PD2/PD3)


def _psd_blocks(face: SpectrumOracle, r12: np.ndarray, tols: np.ndarray) -> list[PsdBlockResult]:
    """:func:`classify_psd_block` of a stack of R12 (n, r, n2), with one
    threshold per block, by one batched product with the face's null
    vectors."""
    dec = face.decomposition
    if face.verdict == "T3":
        return [PsdBlockResult("PD4", dec.eigenvectors[:, 0])] * len(r12)
    if face.verdict == "T1":
        return [PsdBlockResult("PD1", None)] * len(r12)
    null_basis = dec.eigenvectors[:, np.abs(dec.eigenvalues) <= face.tol]
    norms = np.linalg.norm(r12 @ null_basis, axis=1)
    best = norms.argmax(axis=1)
    seen = norms[np.arange(len(r12)), best] > tols
    return [
        PsdBlockResult("PD3", null_basis[:, j]) if hit else PsdBlockResult("PD2", null_basis[:, 0])
        for j, hit in zip(best, seen)
    ]


def classify_psd_block(face: SpectrumOracle, r12: np.ndarray, tol: float) -> PsdBlockResult:
    """Trichotomy of the unconstrained block R22 from the verdict of the form
    on the face, which R22 is, with no eigendecomposition.

    PD4 (face T3): a negative eigenvalue; its smallest eigenvector. PD1
    (face T1): positive definite. Face T2 is PD3 when ``||R12 z|| > tol``
    for a null vector z of the face (the form is then unbounded below), the
    z that R12 sees most, and PD2 otherwise (flat directions only).
    """
    return _psd_blocks(face, require_finite(r12, "R12")[None], np.array([tol]))[0]


# ---------------------------------------------------------------------------
# Pareto spectrum and copositivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParetoEigenpair:
    """A Pareto eigenpair: S^J xi = value * xi with xi strictly positive on J.

    ``vector`` is the zero-padded unit eigenvector; complementarity holds on
    the rows outside J.
    """

    value: float
    vector: np.ndarray
    subset: tuple


def _require_symmetric_pairs(s_mat: np.ndarray) -> None:
    """Reject S if any of its principal submatrices fails the symmetry check.

    The check of :func:`linalg.sym_eig` on a submatrix S^J allows an
    asymmetry of 1e-10 * max(1, max |S^J|). The asymmetry of entry (i, j) is
    held to the tightest of these on the 2 x 2 submatrix on {i, j}, so
    testing every pair against its own scale is the same as checking every
    principal submatrix.
    """
    r = s_mat.shape[0]
    if s_mat.ndim != 2 or s_mat.shape[1] != r:
        raise NonSymmetricError(f"S must be square, got shape {s_mat.shape}")
    mag = np.abs(s_mat)
    diag = np.diag(mag)
    pair_scale = np.maximum(np.maximum(mag, mag.T), np.maximum.outer(diag, diag))
    bad = np.abs(s_mat - s_mat.T) > 1e-10 * np.maximum(pair_scale, 1.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonSymmetricError(f"S is not symmetric at entry ({i}, {j})")


def _subset_candidates(
    sym: np.ndarray, chunk: list, offset: int, degen_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Candidate Pareto eigenpairs of the principal submatrices on ``chunk``
    (subsets of one size), by one stacked eigendecomposition.

    The candidates are every eigenvector, then for each near-repeated
    eigenvalue the normalized sum and difference of its two neighbouring
    eigenvectors; at most one of a sum and a difference of orthonormal
    vectors is positive, so the eigenvector signs cannot change the result.
    Returns the vectors zero-padded to the rows of S, their eigenvalues, the
    index of their subset (``offset`` plus its place in ``chunk``), and
    whether some subset has a numerically repeated eigenvalue.
    """
    idx = np.array(chunk)
    n, size = idx.shape
    lam, vecs = np.linalg.eigh(sym[idx[:, :, None], idx[:, None, :]])
    sub = np.repeat(np.arange(n), size)
    val = lam.ravel()
    vec = vecs.transpose(0, 2, 1).reshape(-1, size)
    sub_d, j_d = np.nonzero(np.abs(np.diff(lam, axis=1)) <= degen_tol)
    if len(sub_d):
        a, b = vecs[sub_d, :, j_d], vecs[sub_d, :, j_d + 1]
        combos = np.stack([a + b, a - b], axis=1).reshape(-1, size)
        combos /= np.linalg.norm(combos, axis=1)[:, None]
        sub = np.concatenate([sub, np.repeat(sub_d, 2)])
        val = np.concatenate([val, np.repeat(lam[sub_d, j_d], 2)])
        vec = np.concatenate([vec, combos])
    padded = np.zeros((len(vec), sym.shape[0]))
    padded[np.arange(len(vec))[:, None], idx[sub]] = vec
    return padded, val, sub + offset, bool(len(sub_d))


def _keep_pareto(
    s_mat: np.ndarray,
    parts: list,
    subsets: list,
    comp_tol: float,
    pairs: list,
) -> None:
    """Append the candidates of ``parts`` that are Pareto eigenpairs to ``pairs``.

    A candidate is kept when, signed so that its largest entry is positive,
    it is above ``DEFAULT_POS_TOL`` on its subset J (zero off J) and
    ``S x >= -comp_tol`` on the rows outside J. Pairs are appended by
    subset, eigenvectors before sums and differences.
    """
    vec = np.concatenate([part[0] for part in parts])
    val = np.concatenate([part[1] for part in parts])
    sub = np.concatenate([part[2] for part in parts])
    top = vec[np.arange(len(vec)), np.abs(vec).argmax(axis=1)]
    vec *= np.where(top < 0.0, -1.0, 1.0)[:, None]
    positive = vec > DEFAULT_POS_TOL
    sizes = np.array([len(subset) for subset in subsets])
    keep = np.flatnonzero(positive.sum(axis=1) == sizes[sub])
    comp = vec[keep] @ s_mat.T
    comp[positive[keep]] = np.inf
    keep = keep[comp.min(axis=1) >= -comp_tol]
    keep = keep[np.argsort(sub[keep], kind="stable")]
    for s, value, v in zip(sub[keep].tolist(), val[keep].tolist(), vec[keep]):
        pairs.append(ParetoEigenpair(value, v, subsets[s]))


def pareto_spectrum(s_mat: np.ndarray, r_max: int = 20) -> tuple[list[ParetoEigenpair], dict]:
    """Enumerate the Pareto spectrum of a symmetric matrix.

    Every nonempty principal submatrix S^J is eigendecomposed; eigenpairs
    whose eigenvector can be signed strictly positive (componentwise above
    ``DEFAULT_POS_TOL`` after unit normalization) and whose excluded rows
    satisfy the complementarity inequalities are kept. For numerically
    repeated eigenvalues the candidate set additionally includes normalized
    sums and differences of same-eigenvalue eigenvector pairs, and a
    diagnostic flag is raised, since the eigenvectors themselves are then
    not well defined.

    The enumeration is batched: the submatrices of one size are stacked, up
    to ``SPECTRUM_CHUNK`` at a time, into one eigendecomposition, and the
    positivity, sign and complementarity tests run on the candidates of
    about ``SPECTRUM_CHUNK`` subsets at once, across sizes. The candidate
    set, and the order of the returned pairs (by subset size, then
    lexicographic subset, then eigenvectors before sums and differences),
    are those of one eigendecomposition per subset.
    """
    s_mat = require_finite(np.atleast_2d(s_mat), "S")
    r = s_mat.shape[0]
    if r > r_max:
        raise SubsetBudgetExceededError(f"r={r} exceeds the subset budget r_max={r_max}")
    _require_symmetric_pairs(s_mat)
    sym = 0.5 * (s_mat + s_mat.T)
    scale = max(1.0, float(np.abs(s_mat).max(initial=0.0)))
    comp_tol = DEFAULT_COMP_TOL * scale
    degen_tol = 1e-9 * scale
    pairs: list[ParetoEigenpair] = []
    degenerate = False
    parts, subsets = [], []
    for size in range(1, r + 1):
        combos = combinations(range(r), size)
        while chunk := list(islice(combos, SPECTRUM_CHUNK)):
            part = _subset_candidates(sym, chunk, len(subsets), degen_tol)
            degenerate |= part[3]
            parts.append(part)
            subsets.extend(chunk)
            if len(subsets) >= SPECTRUM_CHUNK or size == r:
                _keep_pareto(s_mat, parts, subsets, comp_tol, pairs)
                parts, subsets = [], []
    return pairs, {"degenerate_multiplicity": degenerate, "subsets": 2**r - 1}


@dataclass(frozen=True)
class CopositivityResult:
    kind: str  # "CP1" | "CP2" | "CP3"
    witness: np.ndarray | None  # nonnegative vector with value <= 0 (CP2/CP3)
    min_pareto: float | None  # None unless the Pareto spectrum decided
    spectrum: list | None  # the Pareto spectrum; None when it was not enumerated
    diagnostics: dict


def _simplex_bound(s_mat: np.ndarray) -> tuple[float, np.ndarray]:
    """A point x of the simplex {x >= 0, sum x = 1} near the minimum of
    x^T S x there, and a lower bound on that minimum, for S with
    lambda_min(S) near zero.

    With mu = max(0, -lambda_min(S)) the form of M = S + mu I is convex, and
    for any x of the simplex the Frank-Wolfe gap bounds its minimum from
    below by min_i (2 M x)_i - x^T M x (Jaggi, ICML 2013); x^T S x is at
    least that minus mu, as ||x|| <= 1. x minimizes ||L x||^2 + rho (1^T x - 1)^2
    over x >= 0, L^T L = M, by one nonnegative least-squares solve: the
    penalty only scales the minimizer of the simplex, which x is once
    normalized.
    """
    from scipy.optimize import nnls

    sym = 0.5 * (s_mat + s_mat.T)
    w, v = np.linalg.eigh(sym)
    mu = max(0.0, -float(w[0]))
    root = np.sqrt(np.maximum(w + mu, 0.0))[:, None] * v.T
    weight = np.sqrt(max(1.0, float(np.abs(sym).max()) + mu))
    rhs = np.zeros(len(sym) + 1)
    rhs[-1] = weight
    x = nnls(np.vstack([root, np.full(len(sym), weight)]), rhs)[0]
    x /= x.sum()
    grad = sym @ x + mu * x
    return float(2.0 * grad.min() - x @ grad - mu), x


def _copositivity(
    s_mat: np.ndarray, lam_min_s: float, tol: float, r_max: int
) -> CopositivityResult:
    """Decide copositivity of S given lambda_min(S) and the zero threshold,
    by the first of these rules that applies; see
    :func:`copositivity_classify`."""
    diag = {"lam_min_s": lam_min_s, "tol": tol}
    if lam_min_s > tol:
        return CopositivityResult("CP1", None, None, None, {"cp_by": "pd_certificate", **diag})
    if lam_min_s >= -tol:
        flat = np.flatnonzero(np.diag(s_mat) <= tol)
        if flat.size:
            witness = np.zeros(len(s_mat))
            witness[flat[0]] = 1.0
            return CopositivityResult("CP2", witness, None, None, {"cp_by": "zero_diagonal", **diag})
        lower, x = _simplex_bound(s_mat)
        value = float(x @ s_mat @ x)
        diag.update(simplex_lower=lower, simplex_value=value)
        if lower > tol:
            return CopositivityResult("CP1", None, None, None, {"cp_by": "simplex_bound", **diag})
        if value <= tol * float(x @ x):
            witness = x / np.linalg.norm(x)
            return CopositivityResult("CP2", witness, None, None, {"cp_by": "simplex_bound", **diag})
    pairs, pareto_diag = pareto_spectrum(s_mat, r_max=r_max)
    diag = {"cp_by": "pareto", **diag, **pareto_diag}
    if not pairs:
        raise InternalInconsistencyError("empty Pareto spectrum; the minimum must be attained")
    values = np.array([p.value for p in pairs])
    best = int(np.argmin(values))
    lam_min = float(values[best])
    if lam_min > tol:
        return CopositivityResult("CP1", None, lam_min, pairs, diag)
    if lam_min < -tol:
        return CopositivityResult("CP3", pairs[best].vector, lam_min, pairs, diag)
    flat = next(pair for pair in pairs if abs(pair.value) <= tol)
    return CopositivityResult("CP2", flat.vector, lam_min, pairs, diag)


def copositivity_classify(s_mat: np.ndarray, r_max: int = 20) -> CopositivityResult:
    """Decide (strict) copositivity from the sign of the minimal Pareto eigenvalue.

    The minimal Pareto eigenvalue is the minimum of x^T S x over unit x >= 0,
    and it is compared with the zero threshold ``tol = DEFAULT_CP_TOL *
    max(1, max|S|)``: CP1 above it, CP3 below -tol, CP2 within. Every Pareto
    eigenvalue is an eigenvalue of a principal submatrix, so by interlacing
    it is at least lambda_min(S). The rules, in order, each exact in exact
    arithmetic (``cp_by`` in ``diagnostics`` names the one that decided):

    * "pd_certificate": lambda_min(S) > tol, so CP1.
    * For lambda_min(S) >= -tol, S cannot be CP3, and the minimum over the
      unit vectors x >= 0 is at most that over the simplex divided by
      ||x||^2 and, when positive, at least that over the simplex itself:
      "zero_diagonal" when some S_ii <= tol, CP2 with witness e_i (the
      first such i); otherwise "simplex_bound" (:func:`_simplex_bound`),
      CP1 when the lower bound on the simplex exceeds tol, and CP2 with
      witness x / ||x|| when x^T S x <= tol ||x||^2.
    * "pareto": everything else, indefinite S among it, by enumerating the
      Pareto spectrum. The CP3 witness is the pair of the minimal Pareto
      value, the CP2 witness the first pair whose value is within ``tol``
      of zero, so that rounding does not pick it.

    ``diagnostics`` also records lambda_min(S) (``lam_min_s``), ``tol`` and
    the simplex bound and value where they were computed. The subset budget
    ``r_max`` and the symmetry of S are checked on every path.
    """
    s_mat = require_finite(np.atleast_2d(s_mat), "S")
    r = s_mat.shape[0]
    if r > r_max:
        raise SubsetBudgetExceededError(f"r={r} exceeds the subset budget r_max={r_max}")
    _require_symmetric_pairs(s_mat)
    tol = DEFAULT_CP_TOL * max(1.0, float(np.abs(s_mat).max(initial=0.0)))
    lam_min_s = float(np.linalg.eigvalsh(0.5 * (s_mat + s_mat.T))[0]) if r else float("nan")
    return _copositivity(s_mat, lam_min_s, tol, r_max)


# ---------------------------------------------------------------------------
# Full inequality-constrained solver and the per-point pattern sweep
# ---------------------------------------------------------------------------


def _pd3_ray(q_mat: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The unit direction of least curvature of Q on span{u, w} with a
    nonnegative u coefficient, so that B eta >= 0.

    u (the map's column t e_j of a PD3 pair) is orthogonal to the face and w
    a unit vector on it, so this is one 2 x 2 eigenproblem of Q on
    (u / ||u||, w). Raises if the span has no negative curvature.
    """
    pair = np.column_stack([u / np.linalg.norm(u), w])
    curv, vecs = np.linalg.eigh(pair.T @ q_mat @ pair)
    if curv[0] >= 0.0:
        raise InternalInconsistencyError("no negative curvature on the span of a PD3 pair")
    return pair @ (vecs[:, 0] if vecs[0, 0] >= 0.0 else -vecs[:, 0])


def _decide_icqps(
    frame: IcqpFrame, forms: np.ndarray, signs: np.ndarray, r_max: int, zero_tol: float
) -> Iterator[QPClassification]:
    """Decide n cones of ``frame`` in order: forms (n, p, p), and B of cone
    j equal to diag(signs[j]) b0.

    The reduction, the PSD blocks, the Schur complements and their positive
    definite certificate run on the whole stack at once. The rest (the
    other copositivity rules, and lifting and verifying witnesses) runs per
    cone as the results are consumed, so that a consumer that stops at a T3
    does none of it for later cones.
    """
    p, q, r = frame.t0.shape[0], frame.a.shape[0], frame.b0.shape[0]
    face = frame.face
    r11, r12, schur = _reduce(frame, forms, signs)
    scale = np.maximum(
        np.maximum(np.abs(r11).max(axis=(1, 2)), np.abs(r12).max(axis=(1, 2), initial=0.0)),
        np.abs(face.decomposition.eigenvalues).max(initial=0.0),
    )
    psds = _psd_blocks(face, r12, zero_tol * scale)
    # S decides only where R22 is PD1 or PD2
    lam_min = np.linalg.eigvalsh(schur)[:, 0]
    cp_tol = DEFAULT_CP_TOL * np.maximum(1.0, np.abs(schur).max(axis=(1, 2)))
    for j, psd in enumerate(psds):
        diag = {"psd": psd.kind, "reduction": (p, q, r)}
        sigma = signs[j]
        if psd.kind == "PD3":
            z = psd.witness_nu2
            image = r12[j] @ z
            i = int(np.argmax(np.abs(image)))
            diag["pd3_cross"] = float(image[i])
            verdict = "T3"
            eta = _pd3_ray(forms[j], sigma[i] * frame.t0[:, i], face.basis @ z)
        else:
            if psd.kind == "PD4":
                verdict, nu1, nu2 = "T3", np.zeros(r), psd.witness_nu2
            else:
                if r > r_max:
                    raise SubsetBudgetExceededError(
                        f"r={r} exceeds the subset budget r_max={r_max}"
                    )
                cp = _copositivity(schur[j], float(lam_min[j]), float(cp_tol[j]), r_max)
                diag.update(cp=cp.kind, min_pareto=cp.min_pareto, copositivity=cp.diagnostics)
                if psd.kind == "PD1" and cp.kind == "CP1":
                    yield QPClassification("T1", None, diag)
                    continue
                verdict = "T3" if cp.kind == "CP3" else "T2"
                if cp.kind == "CP3" or psd.kind == "PD1":  # lift the Schur witness nu1
                    nu1 = cp.witness
                    nu2 = -(frame.face_pinv @ (r12[j].T @ nu1))
                else:  # PD2 with CP1 or CP2: the null vector of R22 is flat
                    nu1, nu2 = np.zeros(r), psd.witness_nu2
            eta = frame.t0 @ np.concatenate([sigma * nu1, nu2])
        eta = eta / np.linalg.norm(eta)
        verify_witness(forms[j], frame.a, sigma[:, None] * frame.b0, eta, verdict)
        yield QPClassification(verdict, eta, diag)


def solve_icqp(
    qp: ConeQP,
    r_max: int = 20,
    zero_tol: float = DEFAULT_ZERO_EIG_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> QPClassification:
    """Classify an inequality-constrained cone QP.

    Reduces to ``min nu^T Rbar nu, nu_1 >= 0`` in the cone's own
    :func:`icqp_frame`. The block R22 is decided as the frame's ``face``, at
    ``zero_tol``. A negative eigenvalue of it (PD4) settles T3.
    So does a null vector z of R22 that R12 sees (PD3), with the least
    curvature on the span of t e_j and W z, j = argmax |R12 z|. PD3 means
    ``||R12 z|| > zero_tol * scale``, scale the largest of max |R11|,
    max |R12| and max |lambda(R22)|. Otherwise copositivity of the Schur
    complement R11 - R12 R22^+ R12^T (:func:`copositivity_classify`'s rules)
    decides between T1 (strict, with R22 positive definite), T3 (CP3) and
    T2. Witnesses are re-verified in original coordinates. This is the
    pattern sweep's decision (:func:`icqp_sweep`) on a stack of one cone.
    """
    r = qp.shape[2]
    if r == 0:
        raise ValueError("no inequality rows; use the equality-constrained path")
    face = projected_spectrum_oracle(qp.Q, np.vstack([qp.A, qp.B]), zero_tol)
    frame = icqp_frame(qp, rank_tol, face)
    return next(_decide_icqps(frame, qp.Q[None], np.ones((1, r)), r_max, zero_tol))


def sign_rows(pinned: np.ndarray, free: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Sign patterns ``start`` to ``stop - 1`` of the lexicographic
    enumeration in which the entries marked ``free`` take -1 or 1 and the
    others keep their ``pinned`` sign: pattern n reads the free entries off
    the binary digits of n, the first entry the most significant, 0 as -1."""
    index = np.arange(start, stop)
    cols = np.flatnonzero(free)
    rows = np.repeat(np.asarray(pinned, dtype=int)[None], len(index), axis=0)
    rows[:, cols] = 2 * ((index[:, None] >> np.arange(len(cols) - 1, -1, -1)) & 1) - 1
    return rows


def icqp_sweep(
    base: AssemblyBase,
    face: SpectrumOracle,
    pinned: np.ndarray,
    free: np.ndarray,
    r_max: int = 20,
    zero_tol: float = DEFAULT_ZERO_EIG_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> Iterator[tuple[np.ndarray, QPClassification]]:
    """Decide the inequality-constrained QP of every sign pattern of a point,
    in the order of :func:`sign_rows`; yield (sign row, classification) for
    each.

    ``pinned`` and ``free`` hold one entry per boundary pair, in the order
    of a sign row. ``face`` is the :func:`projected_spectrum_oracle` of the
    point's equality-constrained QP, which is the form on the face of every
    pattern's cone, so one :func:`icqp_frame` serves them all. It takes the
    row of every signed pair at +1, so the signs of a pattern's inequality
    rows are its sign row's entries on those pairs. The patterns are assembled and
    decided a chunk at a time, on stacks of at most ``PATTERN_CHUNK`` form
    entries (one pattern at least), so the working memory does not grow with
    the number of patterns. A consumer that stops at a T3 skips the rest.
    """
    d_h = base.params.dims[1]
    p = base.params.n_params
    signed = (np.asarray(pinned) != 0) | free
    pairs = base.rows[d_h:]
    frame = _frame(np.vstack([base.rows[:d_h], pairs[~signed]]), pairs[signed], face, rank_tol)
    n_patterns = 2 ** int(np.count_nonzero(free))
    step = max(1, PATTERN_CHUNK // (p * p))
    for start in range(0, n_patterns, step):
        rows = sign_rows(pinned, free, start, min(start + step, n_patterns))
        forms = _symmetric_form(base.forms(rows))
        yield from zip(rows, _decide_icqps(frame, forms, rows[:, signed], r_max, zero_tol))
