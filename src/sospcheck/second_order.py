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
decided once. For the same reason the form of a pattern is one form plus a
rank-two correction per free pair (and a constant for two free pairs of
one sample), each of which lives in one row and column of the frame's
coordinates: a :class:`PatternCalculus` holds them, built once per point at
O(p^2 K), and gives R11, R12 and the Schur complement of any pattern at
O(r^2 p). ``icqp_sweep`` decides the patterns of a point a chunk at a time
from it: one batched PSD-block test and one stacked eigendecomposition of
the Schur complements for the positive definite certificate, and the
simplex rule on the stack of the complements it is left to; only the
Pareto spectra are handled pattern by pattern. A pattern's own p x p form
is assembled only to verify its witness, and ``verify_witness`` settles most
witnesses with a bound on ||Q||_2. Each pattern costs O(r^2 p + r^3) beyond
the point's O(p^2 K). The sweep yields its decisions as columns
(:class:`IcqpBatch`): per pattern the codes of its verdict, PSD kind,
copositivity kind and rule (named by ``DECISIONS``), lambda_min(S) and the
zero threshold, and a :class:`QPClassification` only for a pattern with a
witness, so a T1 pattern costs no Python object. ``solve_icqp``,
``classify_psd_block`` and ``copositivity_classify`` are the one-row views
of the same code.
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
    TOLERANCES,
    EigenDecomposition,
    matrix_rank,
    nullspace_basis,
    require_finite,
    sym_eig,
    symmetric_part,
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

# samples per block when summing the per-sample curvature terms of a cone QP;
# bounds the working memory of the assembly at O(ASSEMBLY_BLOCK * p)
ASSEMBLY_BLOCK = 1024
# entries of the reduced rows [R11 R12] per stack of the pattern sweep (one
# pattern at least); bounds its working memory at O(PATTERN_CHUNK) floats
PATTERN_CHUNK = 1 << 18
# principal subsets per batched eigendecomposition in the Pareto spectrum;
# bounds its working memory at O(SPECTRUM_CHUNK * r^2)
SPECTRUM_CHUNK = 1024
# PGD budget, and its divergence, convergence and fixed-point factors
PGD_MAX_ITERS = 10_000
PGD_DIV_FACTOR = 1e8
PGD_CONV_FACTOR = 1e-12
PGD_FIXED_POINT_TOL = 1e-12
# the names of the decision codes of an IcqpBatch, one tuple per column of
# its ``codes``; code -1 picks the last name, None: the copositivity test did
# not run, because R22 decided (PD3 or PD4)
DECISIONS = {
    "verdict": ("T1", "T2", "T3"),
    "psd": ("PD1", "PD2", "PD3", "PD4"),
    "cp": ("CP1", "CP2", "CP3", None),
    "cp_by": ("pd_certificate", "zero_diagonal", "simplex_bound", "pareto", None),
}
_T1, _T2, _T3 = range(3)
_PD1, _PD2, _PD3, _PD4 = range(4)
_CP1, _CP2, _CP3 = range(3)
_BY_PD, _BY_ZERO_DIAGONAL, _BY_SIMPLEX, _BY_PARETO = range(4)


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
        q_mat = symmetric_part(self.Q, "Q", TOLERANCES.form_symmetry)
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
) -> dict:
    """Re-check a T2 or T3 witness of the form ``q_mat`` on the cone
    {a_mat eta = 0, b_mat eta >= 0} in the original coordinates; raise if it
    fails.

    A T3 witness needs curvature eta^T Q eta / ||eta||^2 at most
    ``-witness_curv * ||Q||_2``, a T2 witness at most ``witness_feas *
    max(||Q||_2, 1)`` in absolute value (fields of ``TOLERANCES``). A screen
    settles most witnesses without ||Q||_2: U = 2 max_i sum_j |Q_ij| bounds
    it from above and L = max_j ||Q e_j|| / 2 from below, so a T3 curvature
    at most ``-witness_curv * U`` and a T2 one within ``witness_feas *
    max(L, 1)`` pass the exact test too. Only the rest
    pays for the eigenvalues of Q, so the check accepts and rejects exactly
    the witnesses that the exact thresholds do. Returns the record
    ``{"curvature", "threshold", "by"}`` of the test that settled the
    witness: with ``by`` "bound" the threshold is the screen's, from U or L,
    which is stricter than the exact one; with "exact" it is the exact
    threshold from ||Q||_2.
    """
    if verdict not in ("T2", "T3"):
        raise ValueError(f"no witness test for verdict {verdict!r}")
    n = float(np.sqrt(eta @ eta))
    if n == 0.0:
        failure = "is the zero vector"
    elif a_mat.shape[0] and np.linalg.norm(a_mat @ eta) > TOLERANCES.witness_feas * n:
        failure = "violates equality constraints"
    elif b_mat.shape[0] and (b_mat @ eta).min() < -TOLERANCES.witness_feas * n:
        failure = "violates inequality constraints"
    else:
        quad = float(eta @ q_mat @ eta)
        if verdict == "T3":
            by, norm = "bound", 2.0 * float(np.abs(q_mat).sum(axis=1).max(initial=0.0))
        else:
            by, norm = "bound", 0.5 * float(np.sqrt((q_mat * q_mat).sum(axis=0).max(initial=0.0)))
        if not _passes(verdict, quad, n, norm):
            by, norm = "exact", _spectral_norm(q_mat)
        if _passes(verdict, quad, n, norm):
            limit = _curvature_limit(verdict, norm)
            return {"curvature": quad / (n * n), "threshold": limit, "by": by}
        failure = "not sufficiently negative" if verdict == "T3" else "not flat"
        failure = f"curvature {quad:.3e} {failure}"
    raise InternalInconsistencyError(f"{verdict} witness {failure}")


def _curvature_limit(verdict: str, norm: float) -> float:
    """The curvature eta^T Q eta / ||eta||^2 allowed to a witness of a form
    of 2-norm ``norm``: an upper bound for T3, a bound on its size for T2."""
    if verdict == "T3":
        return -TOLERANCES.witness_curv * norm
    return TOLERANCES.witness_feas * max(norm, 1.0)


def _passes(verdict: str, quad: float, n: float, norm: float) -> bool:
    """Whether ``quad`` = eta^T Q eta, ||eta|| = n, is within the limit."""
    limit = _curvature_limit(verdict, norm) * n * n
    return quad <= limit if verdict == "T3" else abs(quad) <= limit


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
            if quad < -max(TOLERANCES.witness_curv * qnorm, 1e-300):
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
    tol: float  # TOLERANCES.eig * scale: eigenvalues within it count as zero

    @property
    def lam_min(self) -> float | None:
        """Smallest eigenvalue of the projected form; None if null(A) = {0}."""
        values = self.decomposition.eigenvalues
        return float(values[0]) if values.size else None


def projected_spectrum_oracle(q_mat: np.ndarray, a_mat: np.ndarray) -> SpectrumOracle:
    """Classify Q on {A eta = 0} from the spectrum of the projected form.

    With W an orthonormal basis of null(A), the verdict follows from the
    eigenvalue signs of C = W^T Q W, with |lambda| below
    ``TOLERANCES.eig * ||Q||`` counted as zero. The witness is the unit
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
    tol = TOLERANCES.eig * scale
    if basis.shape[1] == 0:
        empty = EigenDecomposition(np.zeros(0), np.zeros((0, 0)))
        return SpectrumOracle("T1", None, empty, basis, scale, tol)
    c_mat = basis.T @ q_mat @ basis
    dec = sym_eig(0.5 * (c_mat + c_mat.T))
    if dec.eigenvalues[-1] > eig_q[-1] + TOLERANCES.interlacing * max(1.0, scale):
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
class IcqpFrame:
    """The part of the ICQP reduction that the sign patterns of a point share.

    The cones of one point have the same A, and their B differ only by row
    signs: B = diag(sigma) b0, sigma in {-1, 1}^r. The map of a cone is
    ``t0 diag(sigma, 1)``, ``t0 = [T_r | face.basis]``, T_r the minimum-norm
    map with A T_r = 0 and b0 T_r = I. ``face`` is the form on the face
    {A eta = 0, b0 eta = 0}, R22 of every cone of the frame. Its
    pseudo-inverse, without the eigenvalues ``face`` calls zero, is
    R22^+ = face_root diag(face_sign) face_root^T.
    """

    a: np.ndarray  # (q, p) equality rows
    b0: np.ndarray  # (r, p) inequality rows at sigma = 1
    t0: np.ndarray  # (p, p - q) map at sigma = 1
    face: SpectrumOracle
    face_root: np.ndarray  # (p - q - r, k), k the rank of R22^+
    face_sign: np.ndarray  # (k,) in {-1, 1}


def _frame(
    a: np.ndarray, b0: np.ndarray, face: SpectrumOracle, rank_tol: float = TOLERANCES.rank
) -> IcqpFrame:
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
    root, sign = face.decomposition.pseudoinverse_factor(max(face.tol, np.finfo(float).tiny))
    return IcqpFrame(a, b0, t0, face, root, sign)


def icqp_frame(
    qp: ConeQP, rank_tol: float = TOLERANCES.rank, face: SpectrumOracle | None = None
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


@dataclass(frozen=True)
class PatternCalculus:
    """The reduced forms of every sign pattern of an :class:`IcqpFrame` from
    one form and K rank-two corrections.

    The form of pattern sigma is Q = C + sum_i sigma_i E_i + sum_ab
    sigma_a sigma_b F_ab, over the free pairs i and the couples a, b of free
    pairs of one sample. Every term a free pair's sign changes carries the
    factor b_i . eta, and ``b0 t0 = [I 0]``, so in the frame's coordinates
    E_i lives in row and column i only, t0^T E_i t0 = e_i h_i^T + h_i e_i^T,
    and F_ab in entries (a, b) and (b, a), as c_ab. With D = diag(sigma),
    H = T_r^T C t0 = [H11 H12], G the nu_2 part of the rows h_i and
    R22^+ = L diag(s) L^T the frame's factor:

        R11 = D H11 D + V + V^T + [c_ab],  V = [h_i on nu_1] D,
        R12 = D H12 + G,
        S   = R11 - Y diag(s) Y^T,  Y = R12 L = D (H12 L) + G L,

    with H12 L and G L formed once (sigma squared is 1, so the couples' term
    is a constant of R11). A pattern then costs O(r^2 p) to reduce. S comes
    from Y, not from its expansion in H12 and G, so where R12 is small it
    keeps the absolute accuracy that a fresh reduction has. The rows h_i of
    pinned pairs are zero: their slopes are part of C.
    """

    frame: IcqpFrame
    h11: np.ndarray  # (r, r) T_r^T C T_r, exactly symmetric
    h12: np.ndarray  # (r, p - q - r) T_r^T C W_f
    h_rows: np.ndarray  # (r, p - q) the row h_i of each free pair i, zero for the others
    pair: np.ndarray  # (r, r) c_ab of the couples of free pairs, exactly symmetric
    h12_root: np.ndarray  # (r, k) H12 L
    g_root: np.ndarray  # (r, k) G L

    def reduce(self, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """R11, R12 and S = R11 - R12 R22^+ R12^T of n patterns, from their
        signs (n, r) on the rows of b0. R11 and S are exactly symmetric."""
        r = self.h11.shape[0]
        d = signs[:, :, None]
        v = self.h_rows[:, :r] * signs[:, None, :]
        r11 = d * self.h11 * signs[:, None, :] + (v + v.transpose(0, 2, 1)) + self.pair
        r12 = d * self.h12 + self.h_rows[:, r:]
        y = d * self.h12_root + self.g_root
        schur = r11 - (y * self.frame.face_sign) @ y.transpose(0, 2, 1)
        return r11, r12, 0.5 * (schur + schur.transpose(0, 2, 1))


def _calculus(
    frame: IcqpFrame,
    c_mat: np.ndarray,
    h_rows: np.ndarray | None = None,
    pair: np.ndarray | None = None,
) -> PatternCalculus:
    """The :class:`PatternCalculus` of the symmetric form ``c_mat`` and the
    corrections of the free pairs in the frame's coordinates; with none, that
    of one form under every sign of the rows of b0 (K = 0). O(p^2 r)."""
    r = frame.b0.shape[0]
    head = (frame.t0[:, :r].T @ c_mat) @ frame.t0
    if h_rows is None:
        h_rows, pair = np.zeros_like(head), np.zeros((r, r))
    h11, h12 = 0.5 * (head[:, :r] + head[:, :r].T), head[:, r:]
    root = frame.face_root
    return PatternCalculus(frame, h11, h12, h_rows, pair, h12 @ root, h_rows[:, r:] @ root)


def _pattern_calculus(
    base: AssemblyBase, frame: IcqpFrame, pinned: np.ndarray, free: np.ndarray
) -> PatternCalculus:
    """The :class:`PatternCalculus` of the sign patterns of a point: ``pinned``
    and ``free`` hold one entry per boundary pair, and the frame's b0 has the
    rows of the signed ones.

    C, E_i and F_ab follow by polarization from the pattern with every free
    pair at +1: flipping pair i alone changes Q by -2 E_i - 2 sum_b F_ib, and
    flipping a and b of one sample by the sum of both less 4 F_ab. Only the
    touched samples' terms change, so they are summed once per flip, in one
    stacked product, and no pattern's form is assembled; the rows of the
    corrections in the frame cost O(p^2) each.
    """
    params, t0 = base.params, frame.t0
    signed = (np.asarray(pinned) != 0) | free
    col = np.cumsum(signed) - 1  # the row of b0 of each signed pair
    free_pairs = np.flatnonzero(free)
    by_sample: dict[int, list[int]] = {}
    for i in free_pairs.tolist():
        by_sample.setdefault(int(base.pair_at[i]), []).append(i)
    couples = [list(ab) for pairs in by_sample.values() for ab in combinations(pairs, 2)]
    flips = [[i] for i in free_pairs] + couples
    slopes = base.slopes.copy()
    slopes[base.pair_at, base.pair_unit] = _pair_slopes(params, np.where(free, 1, pinned))
    jvals = np.repeat(slopes[None], 1 + len(flips), axis=0)
    for row, flip in enumerate(flips, start=1):
        jvals[row, base.pair_at[flip], base.pair_unit[flip]] = params.activation.s_minus
    terms = _sample_terms(params, base.bundle, base.touched, jvals)
    flipped = terms[1:] - terms[0]
    c_mat = base.q_fixed + terms[0]
    k = len(free_pairs)
    corr = -0.5 * flipped[:k]  # E_i, once the couples' terms are taken out
    place = {int(i): j for j, i in enumerate(free_pairs)}
    r = frame.b0.shape[0]
    pair = np.zeros((r, r))
    for (a, b), both in zip(couples, flipped[k:]):
        f_ab = 0.25 * (both - flipped[place[a]] - flipped[place[b]])
        corr[place[a]] -= f_ab
        corr[place[b]] -= f_ab
        c_mat -= f_ab
        pair[col[a], col[b]] = pair[col[b], col[a]] = t0[:, col[a]] @ f_ab @ t0[:, col[b]]
    c_mat -= corr.sum(axis=0)
    cols = col[free_pairs]
    h_rows = np.zeros((r, t0.shape[1]))
    h_rows[cols] = np.einsum("kp,kpq->kq", t0[:, cols].T, corr) @ t0
    h_rows[cols, cols] *= 0.5  # e_i h_i^T + h_i e_i^T holds h_i[i] twice
    return _calculus(frame, 0.5 * (c_mat + c_mat.T), h_rows, pair)


def icqp_reduce(qp: ConeQP) -> PatternCalculus:
    """Reduce an inequality-constrained QP in its own :func:`icqp_frame`: the
    :class:`PatternCalculus` of its one cone (K = 0), whose ``h11`` and
    ``h12`` are R11 and R12 and whose ``frame.t0`` maps reduced coordinates
    to original directions. O(p^2 r) beyond the frame."""
    return _calculus(icqp_frame(qp), qp.Q)


# ---------------------------------------------------------------------------
# PSD block classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsdBlockResult:
    kind: str  # "PD1" | "PD2" | "PD3" | "PD4"
    witness_nu2: np.ndarray | None  # negative direction (PD4) or null vector (PD2/PD3)


def _psd_blocks(
    face: SpectrumOracle, r12: np.ndarray, tols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`classify_psd_block` of a stack of R12 (n, r, n2), with one
    threshold per block, by one batched product with the face's null
    vectors: the code of each block's kind (in ``DECISIONS["psd"]``) and the
    column of the face's eigenvectors that is its ``witness_nu2`` (-1 for
    PD1)."""
    n = len(r12)
    if face.verdict == "T3":
        return np.full(n, _PD4), np.zeros(n, dtype=int)
    if face.verdict == "T1":
        return np.full(n, _PD1), np.full(n, -1)
    dec = face.decomposition
    null = np.flatnonzero(np.abs(dec.eigenvalues) <= face.tol)
    norms = np.linalg.norm(r12 @ dec.eigenvectors[:, null], axis=1)
    best = norms.argmax(axis=1)
    seen = norms[np.arange(n), best] > tols
    return np.where(seen, _PD3, _PD2), null[np.where(seen, best, 0)]


def classify_psd_block(face: SpectrumOracle, r12: np.ndarray, tol: float) -> PsdBlockResult:
    """Trichotomy of the unconstrained block R22 from the verdict of the form
    on the face, which R22 is, with no eigendecomposition.

    PD4 (face T3): a negative eigenvalue; its smallest eigenvector. PD1
    (face T1): positive definite. Face T2 is PD3 when ``||R12 z|| > tol``
    for a null vector z of the face (the form is then unbounded below), the
    z that R12 sees most, and PD2 otherwise (flat directions only).
    """
    kind, col = _psd_blocks(face, require_finite(r12, "R12")[None], np.array([tol]))
    witness = face.decomposition.eigenvectors[:, col[0]] if col[0] >= 0 else None
    return PsdBlockResult(DECISIONS["psd"][kind[0]], witness)


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
    """Reject S, a public input of :func:`pareto_spectrum` or
    :func:`copositivity_classify`, unless every principal submatrix S^J is
    symmetric within ``TOLERANCES.symmetry`` * max(1, max |S^J|).

    Both decide on principal submatrices of S, so a large entry elsewhere
    in S must not excuse the asymmetry of a small block. The asymmetry of
    entry (i, j) is held to the tightest of these scales, that of the 2 x 2
    submatrix on {i, j}, so testing every pair against its own scale is the
    same as checking every principal submatrix.
    """
    r = s_mat.shape[0]
    if s_mat.ndim != 2 or s_mat.shape[1] != r:
        raise NonSymmetricError(f"S must be square, got shape {s_mat.shape}")
    mag = np.abs(s_mat)
    diag = np.diag(mag)
    pair_scale = np.maximum(np.maximum(mag, mag.T), np.maximum.outer(diag, diag))
    bad = np.abs(s_mat - s_mat.T) > TOLERANCES.symmetry * np.maximum(pair_scale, 1.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonSymmetricError(f"S is not symmetric at entry ({i}, {j})")


def _positive_in_span(basis: np.ndarray) -> np.ndarray | None:
    """A vector x = basis c with every entry at least 1, by one feasibility
    LP (the one of least sum); None if the span holds no positive vector."""
    from scipy.optimize import linprog

    res = linprog(
        basis.sum(axis=0),
        A_ub=-basis,
        b_ub=-np.ones(len(basis)),
        bounds=(None, None),
        method="highs",
    )
    return basis @ res.x if res.status == 0 else None


def _subset_candidates(
    sym: np.ndarray, chunk: list, offset: int, degen_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Candidate Pareto eigenpairs of the principal submatrices on ``chunk``
    (subsets of one size), by one stacked eigendecomposition.

    The candidates are every eigenvector, then for each run of numerically
    repeated eigenvalues (neighbours within ``degen_tol``) a positive vector
    of the span of its eigenvectors, if there is one (:func:`_positive_in_span`),
    with the run's smallest eigenvalue. The eigenvectors of a repeated
    eigenvalue are not well defined, and none of them, nor any sum of two,
    need be positive when a positive vector of their span exists.
    Returns the vectors zero-padded to the rows of S, their eigenvalues, the
    index of their subset (``offset`` plus its place in ``chunk``), and
    whether some subset has a numerically repeated eigenvalue.
    """
    idx = np.array(chunk)
    n, size = idx.shape
    lam, vecs = np.linalg.eigh(sym[idx[:, :, None], idx[:, None, :]])
    sub = [np.repeat(np.arange(n), size)]
    val = [lam.ravel()]
    vec = [vecs.transpose(0, 2, 1).reshape(-1, size)]
    repeated = np.abs(np.diff(lam, axis=1)) <= degen_tol
    for s in np.flatnonzero(repeated.any(axis=1)):
        # runs of repeated eigenvalues: each starts where a repeat follows a non-repeat
        edges = np.diff(np.concatenate([[0], repeated[s].astype(int), [0]]))
        for lo, hi in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)):
            x = _positive_in_span(vecs[s, :, lo : hi + 1])
            if x is not None:
                sub.append([s])
                val.append([lam[s, lo]])
                vec.append(x[None] / np.linalg.norm(x))
    sub, val, vec = np.concatenate(sub), np.concatenate(val), np.concatenate(vec)
    padded = np.zeros((len(vec), sym.shape[0]))
    padded[np.arange(len(vec))[:, None], idx[sub]] = vec
    return padded, val, sub + offset, bool(repeated.any())


def _keep_pareto(
    s_mat: np.ndarray,
    parts: list,
    subsets: list,
    comp_tol: float,
    pairs: list,
) -> None:
    """Append the candidates of ``parts`` that are Pareto eigenpairs to ``pairs``.

    A candidate is kept when, signed so that its largest entry is positive,
    it is above ``TOLERANCES.pareto_pos`` on its subset J (zero off J) and
    ``S x >= -comp_tol`` on the rows outside J. Pairs are appended by
    subset, eigenvectors before the vectors of repeated eigenvalues.
    """
    vec = np.concatenate([part[0] for part in parts])
    val = np.concatenate([part[1] for part in parts])
    sub = np.concatenate([part[2] for part in parts])
    top = vec[np.arange(len(vec)), np.abs(vec).argmax(axis=1)]
    vec *= np.where(top < 0.0, -1.0, 1.0)[:, None]
    positive = vec > TOLERANCES.pareto_pos
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
    ``TOLERANCES.pareto_pos`` after unit normalization) and whose excluded rows
    satisfy the complementarity inequalities are kept. For each run of
    numerically repeated eigenvalues the candidate set additionally holds a
    positive vector of the span of their eigenvectors, found by an exact
    feasibility LP, and a diagnostic flag is raised, since the eigenvectors
    themselves are then not well defined.

    The enumeration is batched: the submatrices of one size are stacked, up
    to ``SPECTRUM_CHUNK`` at a time, into one eigendecomposition, and the
    positivity, sign and complementarity tests run on the candidates of
    about ``SPECTRUM_CHUNK`` subsets at once, across sizes. The candidate
    set, and the order of the returned pairs (by subset size, then
    lexicographic subset, then eigenvectors before the vectors of repeated
    eigenvalues), are those of one eigendecomposition per subset.
    """
    s_mat = require_finite(np.atleast_2d(s_mat), "S")
    r = s_mat.shape[0]
    if r > r_max:
        raise SubsetBudgetExceededError(f"r={r} exceeds the subset budget r_max={r_max}")
    _require_symmetric_pairs(s_mat)
    sym = 0.5 * (s_mat + s_mat.T)
    scale = max(1.0, float(np.abs(s_mat).max(initial=0.0)))
    comp_tol = TOLERANCES.pareto_comp * scale
    degen_tol = TOLERANCES.pareto_repeat * scale
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


def _simplex_bounds(s_mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each S of a stack (n, r, r) with lambda_min(S) near zero: a point
    x of the simplex {x >= 0, sum x = 1} near the minimum of x^T S x there, a
    lower bound on that minimum, and x^T S x.

    With mu = max(0, -lambda_min(S)) the form of M = S + mu I is convex, and
    for any x of the simplex the Frank-Wolfe gap bounds its minimum from
    below by min_i (2 M x)_i - x^T M x (Jaggi, ICML 2013); x^T S x is at
    least that minus mu, as ||x|| <= 1. x minimizes ||L x||^2 + rho (1^T x - 1)^2
    over x >= 0, L^T L = M, by one nonnegative least-squares solve: the
    penalty only scales the minimizer of the simplex, which x is once
    normalized. The eigendecompositions and the rest run on the stack; only
    the solves run one S at a time.
    """
    from scipy.optimize import nnls

    sym = 0.5 * (s_mats + s_mats.transpose(0, 2, 1))
    w, v = np.linalg.eigh(sym)
    mu = np.maximum(0.0, -w[:, 0])
    root = np.sqrt(np.maximum(w + mu[:, None], 0.0))[:, :, None] * v.transpose(0, 2, 1)
    weight = np.sqrt(np.maximum(1.0, np.abs(sym).max(axis=(1, 2)) + mu))
    r = sym.shape[-1]
    x = np.empty((len(sym), r))
    rhs = np.zeros(r + 1)
    for j in range(len(sym)):
        rhs[-1] = weight[j]
        x[j] = nnls(np.vstack([root[j], np.full(r, weight[j])]), rhs)[0]
    x /= x.sum(axis=1, keepdims=True)
    grad = (sym @ x[:, :, None])[:, :, 0] + mu[:, None] * x
    lower = 2.0 * grad.min(axis=1) - (x * grad).sum(axis=1) - mu
    return lower, x, np.einsum("ni,nij,nj->n", x, s_mats, x)


def _pareto_decision(s_mat: np.ndarray, tol: float, r_max: int, diag: dict) -> CopositivityResult:
    """Decide copositivity of S from its minimal Pareto eigenvalue."""
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


@dataclass(frozen=True)
class CopositivityColumns:
    """The copositivity decisions of a stack of n Schur complements S, one
    entry per S, with no object per S: the codes of the kind and of the rule
    that decided it (in ``DECISIONS["cp"]`` and ``DECISIONS["cp_by"]``, -1
    where S was not tested), the CP2/CP3 witness (zero elsewhere), and the
    simplex rule's lower bound and value (NaN where that rule did not run).
    The Pareto decisions are kept whole, by place in the stack."""

    kind: np.ndarray  # (n,)
    by: np.ndarray  # (n,)
    witness: np.ndarray  # (n, r)
    lam_min_s: np.ndarray  # (n,) lambda_min(S)
    tol: np.ndarray  # (n,) zero threshold
    simplex: np.ndarray  # (n, 2) simplex lower bound and value
    pareto: dict  # place -> CopositivityResult

    def result(self, j: int) -> CopositivityResult:
        """The :class:`CopositivityResult` of S number j, which was tested."""
        if j in self.pareto:
            return self.pareto[j]
        kind = DECISIONS["cp"][self.kind[j]]
        diag = {
            "cp_by": DECISIONS["cp_by"][self.by[j]],
            **_cp_diagnostics(self.lam_min_s[j], self.tol[j], self.simplex[j]),
        }
        witness = None if kind == "CP1" else self.witness[j]
        return CopositivityResult(kind, witness, None, None, diag)


def _cp_diagnostics(lam_min_s: float, tol: float, simplex: np.ndarray) -> dict:
    """lambda_min(S), the zero threshold and, where it ran (not NaN), the
    simplex rule's lower bound and value."""
    diag = {"lam_min_s": float(lam_min_s), "tol": float(tol)}
    if not np.isnan(simplex[0]):
        diag.update(simplex_lower=float(simplex[0]), simplex_value=float(simplex[1]))
    return diag


def _copositivities(
    s_mats: np.ndarray, lam_min: np.ndarray, tols: np.ndarray, r_max: int, tested: np.ndarray
) -> CopositivityColumns:
    """Decide copositivity of the S ``tested`` of a stack (n, r, r), given
    lambda_min and the zero threshold of each, by the first of the rules of
    :func:`copositivity_classify` that applies. The first two rules decide
    the stack at once, and the simplex rule runs on the stack of the S that
    it is left to; only its solves, and the Pareto spectra, run one S at a
    time."""
    n, r = s_mats.shape[:2]
    kind, by = np.full(n, -1), np.full(n, -1)
    witness, simplex = np.zeros((n, r)), np.full((n, 2), np.nan)
    flat = np.diagonal(s_mats, axis1=1, axis2=2) <= tols[:, None]
    within = tested & (lam_min <= tols) & (lam_min >= -tols)
    certified = tested & (lam_min > tols)
    kind[certified], by[certified] = _CP1, _BY_PD
    zero = np.flatnonzero(within & flat.any(axis=1))
    kind[zero], by[zero] = _CP2, _BY_ZERO_DIAGONAL
    witness[zero, flat[zero].argmax(axis=1)] = 1.0
    rest = np.flatnonzero(within & ~flat.any(axis=1))
    if rest.size:
        lower, xs, value = _simplex_bounds(s_mats[rest])
        simplex[rest, 0], simplex[rest, 1] = lower, value
        for j, x in zip(rest.tolist(), xs):
            if simplex[j, 0] > tols[j]:
                kind[j], by[j] = _CP1, _BY_SIMPLEX
            elif simplex[j, 1] <= tols[j] * float(x @ x):
                kind[j], by[j] = _CP2, _BY_SIMPLEX
                witness[j] = x / np.linalg.norm(x)
    pareto = {}
    for j in np.flatnonzero(tested & (kind < 0)).tolist():
        diag = _cp_diagnostics(lam_min[j], tols[j], simplex[j])
        pareto[j] = res = _pareto_decision(s_mats[j], float(tols[j]), r_max, diag)
        kind[j], by[j] = DECISIONS["cp"].index(res.kind), _BY_PARETO
        if res.witness is not None:
            witness[j] = res.witness
    return CopositivityColumns(kind, by, witness, lam_min, tols, simplex, pareto)


def copositivity_classify(s_mat: np.ndarray, r_max: int = 20) -> CopositivityResult:
    """Decide (strict) copositivity from the sign of the minimal Pareto eigenvalue.

    The minimal Pareto eigenvalue is the minimum of x^T S x over unit x >= 0,
    and it is compared with the zero threshold ``tol = TOLERANCES.cp *
    max(1, max|S|)``: CP1 above it, CP3 below -tol, CP2 within. Every Pareto
    eigenvalue is an eigenvalue of a principal submatrix, so by interlacing
    it is at least lambda_min(S). The rules, in order, each exact in exact
    arithmetic (``cp_by`` in ``diagnostics`` names the one that decided):

    * "pd_certificate": lambda_min(S) > tol, so CP1.
    * For lambda_min(S) >= -tol, S cannot be CP3, and the minimum over the
      unit vectors x >= 0 is at most that over the simplex divided by
      ||x||^2 and, when positive, at least that over the simplex itself:
      "zero_diagonal" when some S_ii <= tol, CP2 with witness e_i (the
      first such i); otherwise "simplex_bound" (:func:`_simplex_bounds`),
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
    tol = TOLERANCES.cp * max(1.0, float(np.abs(s_mat).max(initial=0.0)))
    lam_min_s = float(np.linalg.eigvalsh(0.5 * (s_mat + s_mat.T))[0]) if r else float("nan")
    columns = _copositivities(
        s_mat[None], np.array([lam_min_s]), np.array([tol]), r_max, np.ones(1, dtype=bool)
    )
    return columns.result(0)


# ---------------------------------------------------------------------------
# Full inequality-constrained solver and the per-point pattern sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IcqpBatch:
    """The decisions of consecutive sign patterns of one point, one entry per
    pattern, with an object only for the patterns that have a witness.

    ``codes`` holds each pattern's verdict, PSD kind, copositivity kind and
    copositivity rule as codes into the names of ``DECISIONS``, in that
    order; ``copositivity`` holds lambda_min(S) and the copositivity zero
    threshold of every pattern (read them only where the cp code is not -1).
    ``witnessed`` maps the place in the batch of every T2/T3 pattern to its
    :class:`QPClassification`, whose witness has been verified; its
    ``diagnostics`` hold the record of that test (``witness``) and, for a
    PD3 pattern, the entry of R12 z that chose its pair (``pd3_cross``). A
    batch ends at its first T3.
    """

    reduction: tuple[int, int, int]  # (p, q, r)
    codes: np.ndarray  # (n, 4) int
    copositivity: CopositivityColumns
    witnessed: dict  # place in the batch -> QPClassification

    def __len__(self) -> int:
        return len(self.codes)


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
    calc: PatternCalculus, signs: np.ndarray, forms_of, r_max: int
) -> Iterator[IcqpBatch]:
    """Decide n cones of ``calc``'s frame in order, and yield them as
    :class:`IcqpBatch` es: B of cone j is diag(signs[j]) b0, and
    ``forms_of(idx)`` assembles the forms Q of the cones ``idx``, shape
    (len(idx), p, p).

    R11, R12 and S, the scale, the PSD blocks and lambda_min(S) are formed
    for the whole stack at once, from the calculus. The rest runs a segment
    at a time, each ending at the next cone that can be T3 (PD3, PD4, or
    lambda_min(S) below -tol), and each segment is one batch: the other
    copositivity rules, with the simplex rule on the segment's stack, and
    the witnesses of the segment's T2/T3 cones, whose forms are assembled
    ``PATTERN_CHUNK`` form entries at a time (one cone at least). No other
    form is assembled, and no object is built for a T1 cone. A consumer that
    stops at a T3 pays for nothing after it, and no cone after it can raise.
    """
    frame = calc.frame
    face, t0 = frame.face, frame.t0
    p, q, r = t0.shape[0], frame.a.shape[0], frame.b0.shape[0]
    r11, r12, schur = calc.reduce(signs)
    scale = np.maximum(
        np.maximum(np.abs(r11).max(axis=(1, 2)), np.abs(r12).max(axis=(1, 2), initial=0.0)),
        np.abs(face.decomposition.eigenvalues).max(initial=0.0),
    )
    psd, psd_col = _psd_blocks(face, r12, TOLERANCES.eig * scale)
    # S decides only where R22 is PD1 or PD2
    lam_min = np.linalg.eigvalsh(schur)[:, 0]
    cp_tol = TOLERANCES.cp * np.maximum(1.0, np.abs(schur).max(axis=(1, 2)))
    tested = psd < _PD3
    ends = sorted({*(np.flatnonzero(~tested | (lam_min < -cp_tol)) + 1).tolist(), len(signs)})
    form_step = max(1, PATTERN_CHUNK // (p * p))
    start, at = 0, 0
    while start < len(signs):
        seg = slice(start, ends[at])
        if tested[seg].any() and r > r_max:
            raise SubsetBudgetExceededError(f"r={r} exceeds the subset budget r_max={r_max}")
        cps = _copositivities(schur[seg], lam_min[seg], cp_tol[seg], r_max, tested[seg])
        t3 = ~tested[seg] | (cps.kind == _CP3)
        if t3[:-1].any():  # a CP3 that lambda_min(S) did not announce ends the segment
            ends.insert(at, start + int(t3.argmax()) + 1)
            continue
        verdict = np.where(t3, _T3, np.where((psd[seg] == _PD1) & (cps.kind == _CP1), _T1, _T2))
        codes = np.column_stack([verdict, psd[seg], cps.kind, cps.by])
        batch = IcqpBatch((p, q, r), codes, cps, {})
        witnessed = (start + np.flatnonzero(verdict != _T1)).tolist()
        forms: dict = {}
        for j in witnessed:
            if j not in forms:
                idx = witnessed[witnessed.index(j) :][:form_step]
                forms = dict(zip(idx, forms_of(idx)))
            place, sigma, diag = j - start, signs[j], {}
            if psd[j] == _PD3:
                z = face.decomposition.eigenvectors[:, psd_col[j]]
                image = r12[j] @ z
                i = int(np.argmax(np.abs(image)))
                diag["pd3_cross"] = float(image[i])
                eta = _pd3_ray(forms[j], sigma[i] * t0[:, i], face.basis @ z)
            else:
                kind = cps.kind[place]
                if kind == _CP3 or (kind >= 0 and psd[j] == _PD1):
                    nu1 = cps.witness[place]  # lift the Schur witness
                    root = frame.face_root
                    nu2 = -(root @ (frame.face_sign * (root.T @ (r12[j].T @ nu1))))
                else:  # PD4's negative direction, or a flat null vector of a PD2 R22
                    nu1, nu2 = np.zeros(r), face.decomposition.eigenvectors[:, psd_col[j]]
                eta = t0 @ np.concatenate([sigma * nu1, nu2])
            eta = eta / np.linalg.norm(eta)
            name = DECISIONS["verdict"][verdict[place]]
            b_mat = sigma[:, None] * frame.b0
            diag["witness"] = verify_witness(forms[j], frame.a, b_mat, eta, name)
            batch.witnessed[place] = QPClassification(name, eta, diag)
        yield batch
        start, at = ends[at], at + 1


def solve_icqp(qp: ConeQP, r_max: int = 20) -> QPClassification:
    """Classify an inequality-constrained cone QP.

    Reduces to ``min nu^T Rbar nu, nu_1 >= 0`` in the cone's own
    :func:`icqp_frame`. The block R22 is decided as the frame's ``face``. A
    negative eigenvalue of it (PD4) settles T3.
    So does a null vector z of R22 that R12 sees (PD3), with the least
    curvature on the span of t e_j and W z, j = argmax |R12 z|. PD3 means
    ``||R12 z|| > TOLERANCES.eig * scale``, scale the largest of max |R11|,
    max |R12| and max |lambda(R22)|. Otherwise copositivity of the Schur
    complement R11 - R12 R22^+ R12^T (:func:`copositivity_classify`'s rules)
    decides between T1 (strict, with R22 positive definite), T3 (CP3) and
    T2. Witnesses are re-verified in original coordinates, and the record of
    that test is kept as ``diagnostics["witness"]``. This is the one-row
    view of the pattern sweep's decision (:func:`icqp_sweep`): the batch of
    one cone, with no free pair (K = 0).
    """
    r = qp.shape[2]
    if r == 0:
        raise ValueError("no inequality rows; use the equality-constrained path")
    face = projected_spectrum_oracle(qp.Q, np.vstack([qp.A, qp.B]))
    calc = _calculus(icqp_frame(qp, face=face), qp.Q)
    batch = next(_decide_icqps(calc, np.ones((1, r)), lambda idx: qp.Q[None], r_max))
    diag = {"psd": DECISIONS["psd"][batch.codes[0, 1]], "reduction": batch.reduction}
    if batch.codes[0, 2] >= 0:
        cp = batch.copositivity.result(0)
        diag.update(cp=cp.kind, min_pareto=cp.min_pareto, copositivity=cp.diagnostics)
    if 0 not in batch.witnessed:
        return QPClassification("T1", None, diag)
    ic = batch.witnessed[0]
    return QPClassification(ic.verdict, ic.witness, {**diag, **ic.diagnostics})


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
) -> Iterator[IcqpBatch]:
    """Decide the inequality-constrained QP of every sign pattern of a point,
    in the order of :func:`sign_rows`; yield the decisions of consecutive
    patterns as :class:`IcqpBatch` es, so that pattern n of the sweep is the
    one of sign row ``sign_rows(pinned, free, n, n + 1)``.

    ``pinned`` and ``free`` hold one entry per boundary pair, in the order
    of a sign row. ``face`` is the :func:`projected_spectrum_oracle` of the
    point's equality-constrained QP, which is the form on the face of every
    pattern's cone, so one :func:`icqp_frame` serves them all. It takes the
    row of every signed pair at +1, so the signs of a pattern's inequality
    rows are its sign row's entries on those pairs. One
    :class:`PatternCalculus` per point gives the reduced forms of every
    pattern, at O(p^2 K) for the point; a pattern's own form is assembled
    only to verify its witness. The patterns are decided a chunk at a time,
    on stacks of at most ``PATTERN_CHUNK`` entries of their reduced rows
    [R11 R12], r x (p - q) each (one pattern at least), so the working
    memory does not grow with the number of patterns. A consumer that stops
    at a T3, which ends its batch, skips the rest.
    """
    d_h = base.params.dims[1]
    signed = (np.asarray(pinned) != 0) | free
    pairs = base.rows[d_h:]
    frame = _frame(np.vstack([base.rows[:d_h], pairs[~signed]]), pairs[signed], face)
    calc = _pattern_calculus(base, frame, pinned, free)
    n_patterns = 2 ** int(np.count_nonzero(free))
    step = max(1, PATTERN_CHUNK // (frame.b0.shape[0] * frame.t0.shape[1]))
    for start in range(0, n_patterns, step):
        rows = sign_rows(pinned, free, start, min(start + step, n_patterns))

        def forms_of(idx, rows=rows):
            return symmetric_part(base.forms(rows[idx]), "Q", TOLERANCES.form_symmetry)

        yield from _decide_icqps(calc, rows[:, signed], forms_of, r_max)
