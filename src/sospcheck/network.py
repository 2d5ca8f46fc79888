"""One-hidden-layer network model, empirical risk, and directional expansions.

The model is ``Y(x) = W2 h(W1 x + b1) + b2`` with a piecewise-linear
activation ``h(t) = max(s_plus * t, 0) + min(s_minus * t, 0)`` (ReLU and
Leaky-ReLU are the usual instances). The empirical risk is a sum of
per-sample convex losses.

A training input whose preactivation at some hidden unit is exactly zero
("boundary sample") makes the risk nondifferentiable at the current
parameters: first and second directional derivatives then depend on the
perturbation direction. This module computes those direction-dependent
first/second-order terms exactly, along with the per-unit boundary index
sets and the constant matrices the stationarity tests are built from.

Sign conventions for the direction-dependent terms: for a perturbation
``eta`` scaled by ``t``,

    risk(z + t*eta) = risk(z) + t * first + t^2 * second + o(t^2),

where ``second`` includes the one-half factor on the squared linear response
(so for a quadratic loss the identity above is exact for small ``t``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    GeneralPositionViolationError,
    NonFiniteError,
    NonPSDHessianError,
    ShapeMismatchError,
)
from .linalg import DEFAULT_RANK_TOL, matrix_rank, require_finite


@dataclass(frozen=True)
class ActivationSpec:
    """Piecewise-linear activation with slopes ``s_plus`` (t>0) and ``s_minus`` (t<0).

    Requires ``s_plus > 0``, ``s_minus >= 0`` and distinct slopes. The
    derivative at zero is defined as ``s_plus``; the convention is harmless
    because the algorithm only ever multiplies it with an exactly-zero factor.
    """

    s_plus: float = 1.0
    s_minus: float = 0.0

    def __post_init__(self):
        if not (self.s_plus > 0.0):
            raise ValueError("s_plus must be positive")
        if self.s_minus < 0.0:
            raise ValueError("s_minus must be nonnegative")
        if self.s_plus == self.s_minus:
            raise ValueError("s_plus and s_minus must differ")

    def h(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.0, self.s_plus * t, self.s_minus * t)

    def hprime(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0.0, float(self.s_plus), float(self.s_minus))

    @property
    def box(self) -> tuple[float, float]:
        """Closed interval between the two slopes (subdifferential box at 0)."""
        return (min(self.s_minus, self.s_plus), max(self.s_minus, self.s_plus))


RELU = ActivationSpec(1.0, 0.0)


@dataclass(frozen=True)
class NetworkParams:
    """Parameter tuple (W1, b1, W2, b2) plus the activation slopes."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    activation: ActivationSpec = RELU

    def __post_init__(self):
        object.__setattr__(self, "W1", require_finite(self.W1, "W1"))
        object.__setattr__(self, "b1", require_finite(self.b1, "b1"))
        object.__setattr__(self, "W2", require_finite(self.W2, "W2"))
        object.__setattr__(self, "b2", require_finite(self.b2, "b2"))
        d_h, d_x = self.W1.shape
        d_y = self.W2.shape[0]
        if self.b1.shape != (d_h,) or self.W2.shape != (d_y, d_h) or self.b2.shape != (d_y,):
            raise ShapeMismatchError(
                f"inconsistent parameter shapes: W1 {self.W1.shape}, b1 {self.b1.shape}, "
                f"W2 {self.W2.shape}, b2 {self.b2.shape}"
            )

    @property
    def dims(self) -> tuple[int, int, int]:
        """(d_x, d_h, d_y)."""
        return (self.W1.shape[1], self.W1.shape[0], self.W2.shape[0])

    @property
    def n_params(self) -> int:
        d_x, d_h, d_y = self.dims
        return d_y + d_y * d_h + d_h * (d_x + 1)

    def hyperplane_row(self, k: int) -> np.ndarray:
        """Row k of [W1 b1], the normal of unit k's boundary hyperplane in xbar space."""
        return np.concatenate([self.W1[k], [self.b1[k]]])

    def perturbed(self, eta: "Perturbation", gamma: float = 1.0) -> "NetworkParams":
        """Parameters displaced by ``gamma`` times the perturbation."""
        return NetworkParams(
            W1=self.W1 + gamma * eta.delta1_matrix,
            b1=self.b1 + gamma * eta.delta1_bias,
            W2=self.W2 + gamma * eta.delta2_matrix,
            b2=self.b2 + gamma * eta.delta2_bias,
            activation=self.activation,
        )


@dataclass(frozen=True)
class Dataset:
    """Training inputs (m, d_x) and labels (m, d_y)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        inputs = np.atleast_2d(require_finite(self.inputs, "inputs"))
        labels = np.atleast_2d(require_finite(self.labels, "labels"))
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        if inputs.shape[0] != labels.shape[0] or inputs.shape[0] < 1:
            raise ShapeMismatchError(
                f"need matching nonempty inputs/labels, got {inputs.shape} and {labels.shape}"
            )

    @property
    def m(self) -> int:
        return self.inputs.shape[0]

    @property
    def d_x(self) -> int:
        return self.inputs.shape[1]

    @property
    def d_y(self) -> int:
        return self.labels.shape[1]

    @property
    def xbar(self) -> np.ndarray:
        """Inputs augmented with a trailing 1: shape (m, d_x + 1)."""
        return np.hstack([self.inputs, np.ones((self.m, 1))])


class LossModel:
    """Convex, twice-differentiable loss, evaluated on all samples at once.

    Every method takes predictions ``w`` and labels ``y`` of shape (m, d_y).
    ``value`` returns the loss summed over the samples (a float),
    ``gradient`` the per-sample gradients in the prediction, shape (m, d_y),
    and ``hessian`` the per-sample Hessians, shape (m, d_y, d_y). Each
    per-sample loss must be convex in the prediction: a Hessian with a
    negative eigenvalue is rejected by ``per_sample_derivatives``.
    """

    def value(self, w: np.ndarray, y: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, w: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, w: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class SquaredLoss(LossModel):
    """l(w, y) = 0.5 * ||w - y||^2 per sample, so every Hessian is the identity."""

    def value(self, w, y):
        diff = np.asarray(w, dtype=float) - np.asarray(y, dtype=float)
        return 0.5 * float(np.vdot(diff, diff))

    def gradient(self, w, y):
        return np.asarray(w, dtype=float) - np.asarray(y, dtype=float)

    def hessian(self, w, y):
        m, d_y = np.shape(w)
        return np.broadcast_to(np.eye(d_y), (m, d_y, d_y))


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Perturbation:
    """A parameter-space direction, stored blockwise.

    ``delta2_bias`` perturbs b2, column k of ``delta2_matrix`` perturbs
    column k of W2, and row k of ``v`` perturbs row k of [W1 b1]. The flat
    layout used by the quadratic programs is

        eta = [delta2_bias, u_1, ..., u_dh, v_1, ..., v_dh]

    with u_k the k-th column of ``delta2_matrix`` and v_k the k-th row of
    ``v``; packing and unpacking are exact inverses.
    """

    delta2_bias: np.ndarray  # (d_y,)
    delta2_matrix: np.ndarray  # (d_y, d_h)
    v: np.ndarray  # (d_h, d_x + 1); row k = (Delta1 row k, delta1[k])

    def __post_init__(self):
        object.__setattr__(self, "delta2_bias", require_finite(self.delta2_bias, "delta2_bias"))
        object.__setattr__(self, "delta2_matrix", require_finite(self.delta2_matrix, "delta2_matrix"))
        object.__setattr__(self, "v", require_finite(self.v, "v"))
        d_y = self.delta2_bias.shape[0]
        d_h = self.v.shape[0]
        if self.delta2_matrix.shape != (d_y, d_h):
            raise ShapeMismatchError(
                f"delta2_matrix shape {self.delta2_matrix.shape} inconsistent with "
                f"d_y={d_y}, d_h={d_h}"
            )

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.v.shape[1] - 1, self.v.shape[0], self.delta2_bias.shape[0])

    @property
    def delta1_matrix(self) -> np.ndarray:
        return self.v[:, :-1]

    @property
    def delta1_bias(self) -> np.ndarray:
        return self.v[:, -1]

    def pack(self) -> np.ndarray:
        return np.concatenate([self.delta2_bias, self.delta2_matrix.T.ravel(), self.v.ravel()])

    def norm(self) -> float:
        return float(np.linalg.norm(self.pack()))

    def scaled(self, gamma: float) -> "Perturbation":
        return Perturbation(gamma * self.delta2_bias, gamma * self.delta2_matrix, gamma * self.v)

    @staticmethod
    def zeros(dims: tuple[int, int, int]) -> "Perturbation":
        d_x, d_h, d_y = dims
        return Perturbation(np.zeros(d_y), np.zeros((d_y, d_h)), np.zeros((d_h, d_x + 1)))

    @staticmethod
    def unpack(vec: np.ndarray, dims: tuple[int, int, int]) -> "Perturbation":
        d_x, d_h, d_y = dims
        vec = require_finite(vec, "eta").ravel()
        p = d_y + d_y * d_h + d_h * (d_x + 1)
        if vec.shape != (p,):
            raise ShapeMismatchError(f"expected flat direction of length {p}, got {vec.shape}")
        delta2 = vec[:d_y]
        u = vec[d_y : d_y + d_y * d_h].reshape(d_h, d_y).T
        v = vec[d_y + d_y * d_h :].reshape(d_h, d_x + 1)
        return Perturbation(delta2, u, v)


def perturbation_layout(dims: tuple[int, int, int]):
    """Slices of the flat direction vector: (delta2, [u_k slices], [v_k slices])."""
    d_x, d_h, d_y = dims
    delta2 = slice(0, d_y)
    u = [slice(d_y + k * d_y, d_y + (k + 1) * d_y) for k in range(d_h)]
    off = d_y + d_y * d_h
    v = [slice(off + k * (d_x + 1), off + (k + 1) * (d_x + 1)) for k in range(d_h)]
    return delta2, u, v


def scaling_direction(params: NetworkParams, k: int) -> Perturbation:
    """The loss-invariant rescaling direction for hidden unit ``k``.

    Scales unit k's outgoing weights down and incoming weights up; by
    positive homogeneity of the activation this is a flat direction with
    zero curvature at any first-order stationary point.
    """
    d_x, d_h, d_y = params.dims
    eta = Perturbation.zeros((d_x, d_h, d_y))
    u = eta.delta2_matrix.copy()
    v = eta.v.copy()
    u[:, k] = -params.W2[:, k]
    v[k] = params.hyperplane_row(k)
    return Perturbation(eta.delta2_bias, u, v)


# ---------------------------------------------------------------------------
# Forward pass, risk, cached derivatives
# ---------------------------------------------------------------------------


def forward_slopes(params: NetworkParams, inputs: np.ndarray, boundary_tol: float = 0.0):
    """Network outputs for (m, d_x) inputs: returns (outputs, preactivation,
    hidden output, activation slopes ``hprime(preactivation)``).

    Preactivations within ``boundary_tol`` of zero are snapped to exactly
    zero. The hidden output is formed as slope times preactivation, which
    equals ``activation.h`` entry for entry, signed zeros included.
    """
    if inputs.shape[1] != params.dims[0]:
        raise ShapeMismatchError(
            f"input dimension {inputs.shape[1]} does not match network d_x={params.dims[0]}"
        )
    preact = inputs @ params.W1.T + params.b1  # (m, d_h)
    if boundary_tol > 0.0:
        preact = np.where(np.abs(preact) <= boundary_tol, 0.0, preact)
    slopes = params.activation.hprime(preact)
    hidden = slopes * preact
    outputs = hidden @ params.W2.T + params.b2
    return outputs, preact, hidden, slopes


def forward(params: NetworkParams, x: np.ndarray):
    """Network output for one input: returns (y, preactivation, hidden output)."""
    x = require_finite(np.atleast_1d(x), "x")
    if x.shape != (params.dims[0],):
        raise ShapeMismatchError(f"input shape {x.shape} does not match d_x={params.dims[0]}")
    y, preact, hidden, _ = forward_slopes(params, x[None, :])
    return y[0], preact[0], hidden[0]


def empirical_risk(params: NetworkParams, data: Dataset, loss: LossModel) -> float:
    """Sum of per-sample losses at the current parameters."""
    total = float(loss.value(forward_slopes(params, data.inputs)[0], data.labels))
    if not np.isfinite(total):
        raise NonFiniteError("empirical risk is not finite")
    return total


@dataclass(frozen=True)
class DerivativeBundle:
    """Cached per-sample quantities at one parameter point.

    Preactivations within ``boundary_tol`` of zero are snapped to exactly
    zero before anything else is computed, so every downstream consumer sees
    the same algebraic structure an exact boundary point would have.
    """

    preact: np.ndarray  # (m, d_h), snapped
    hidden: np.ndarray  # (m, d_h)
    outputs: np.ndarray  # (m, d_y)
    grads: np.ndarray  # (m, d_y)
    hessians: np.ndarray  # (m, d_y, d_y)
    xbar: np.ndarray  # (m, d_x + 1)
    boundary_mask: np.ndarray  # (m, d_h) bool
    boundary_tol: float

    @property
    def m(self) -> int:
        return self.preact.shape[0]


def per_sample_derivatives(
    params: NetworkParams,
    data: Dataset,
    loss: LossModel,
    boundary_tol: float = 0.0,
) -> DerivativeBundle:
    """Evaluate and cache loss gradients/Hessians and hidden-layer state.

    Raises NonPSDHessianError if any per-sample Hessian has an eigenvalue
    below -1e-10 (relative), since the tests assume a convex loss.
    """
    if data.d_y != params.dims[2]:
        raise ShapeMismatchError(
            f"dataset d_y={data.d_y} does not match network d_y={params.dims[2]}"
        )
    outputs, preact, hidden, _ = forward_slopes(params, data.inputs, boundary_tol)
    grads = require_finite(loss.gradient(outputs, data.labels), "loss gradients")
    hessians = np.asarray(loss.hessian(outputs, data.labels), dtype=float)
    if grads.shape != outputs.shape or hessians.shape != outputs.shape + (data.d_y,):
        raise ShapeMismatchError(f"loss shapes {grads.shape}, {hessians.shape} for {outputs.shape}")
    w = np.linalg.eigvalsh(0.5 * (hessians + hessians.swapaxes(1, 2)))
    bad = np.flatnonzero(w[:, 0] < -1e-10 * np.maximum(1.0, np.abs(w[:, -1])))
    if bad.size:
        i = int(bad[0])
        raise NonPSDHessianError(f"loss Hessian at sample {i} has eigenvalue {w[i, 0]:.3e}")
    return DerivativeBundle(
        preact=preact,
        hidden=hidden,
        outputs=outputs,
        grads=grads,
        hessians=hessians,
        xbar=data.xbar,
        boundary_mask=(preact == 0.0),
        boundary_tol=boundary_tol,
    )


# ---------------------------------------------------------------------------
# Boundary structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryAnalysis:
    """Per-unit boundary index sets and the constant first-order matrices.

    For hidden unit k, ``boundary_indices[k]`` lists samples whose (snapped)
    preactivation at k is exactly zero, ``boundary_xbar[k]`` holds their
    augmented inputs, and ``C[k]`` collects the gradient contributions of
    all *non*-boundary samples:

        C_k = sum_{i not on boundary of k} h'(preact_ik) grad_i xbar_i^T.

    ``general_position[k]`` is whether unit k's boundary inputs are in
    general position: at most d_x of them, linearly independent.
    """

    boundary_indices: list  # list of int arrays, one per unit
    boundary_xbar: list  # list of (M_k, d_x+1) arrays of augmented boundary inputs
    C: list  # list of (d_y, d_x+1) matrices
    boundary_tol: float
    dims: tuple[int, int, int] = field(default=(0, 0, 0))
    general_position: list = field(default_factory=list)  # one bool per unit

    @property
    def counts(self) -> list[int]:
        return [len(ix) for ix in self.boundary_indices]

    @property
    def total(self) -> int:
        return int(sum(self.counts))

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Hidden unit and sample of every boundary pair (k, i), unit-major
        in the order of ``boundary_indices``: the order of a sign row."""
        units = np.repeat(np.arange(len(self.boundary_indices)), self.counts)
        return units, np.concatenate([np.asarray(ix, dtype=int) for ix in self.boundary_indices])


def boundary_analysis(
    params: NetworkParams,
    data: Dataset,
    loss: LossModel,
    boundary_tol: float = 0.0,
    bundle: DerivativeBundle | None = None,
    enforce_general_position: bool = True,
) -> BoundaryAnalysis:
    """Identify boundary samples per hidden unit and assemble C_k matrices.

    A unit's boundary inputs are out of general position when there are
    more than d_x of them or their augmented inputs are linearly dependent
    (either one breaks the extreme-ray geometry). This is recorded per unit,
    and with ``enforce_general_position`` set it raises
    GeneralPositionViolationError.
    """
    if bundle is None:
        bundle = per_sample_derivatives(params, data, loss, boundary_tol)
    d_x, d_h, d_y = params.dims
    act = params.activation
    indices, rows, cmats, general = [], [], [], []
    for k in range(d_h):
        mask = bundle.boundary_mask[:, k]
        idx = np.flatnonzero(mask)
        m_k = len(idx)
        rank = matrix_rank(bundle.xbar[idx]) if m_k <= d_x else -1
        general.append(rank == m_k)
        if enforce_general_position and rank != m_k:
            raise GeneralPositionViolationError(
                f"unit {k} has {m_k} boundary samples but d_x={d_x}"
                if rank < 0
                else f"boundary inputs of unit {k} are linearly dependent (rank {rank} < {m_k})"
            )
        weights = np.where(mask, 0.0, act.hprime(bundle.preact[:, k]))
        cmats.append((bundle.grads * weights[:, None]).T @ bundle.xbar)
        indices.append(idx)
        rows.append(bundle.xbar[idx].copy())
    return BoundaryAnalysis(
        boundary_indices=indices,
        boundary_xbar=rows,
        C=cmats,
        boundary_tol=boundary_tol,
        dims=(d_x, d_h, d_y),
        general_position=general,
    )


# ---------------------------------------------------------------------------
# Directional expansion
# ---------------------------------------------------------------------------


def expansion_terms(
    params: NetworkParams,
    data: Dataset,
    loss: LossModel,
    eta: Perturbation,
    boundary_tol: float = 0.0,
    bundle: DerivativeBundle | None = None,
) -> tuple[float, float]:
    """First- and second-order coefficients of the risk along ``eta``.

    Returns (first, second) with risk(z + t*eta) = risk(z) + t*first +
    t^2*second + o(t^2) for small t > 0. On boundary units the hidden-layer
    slope is resolved by the direction itself (the sign of xbar_i . v_k), so
    both values are positively homogeneous: scaling eta by gamma > 0 scales
    them by gamma and gamma^2.
    """
    if bundle is None:
        bundle = per_sample_derivatives(params, data, loss, boundary_tol)
    if eta.dims != params.dims:
        raise ShapeMismatchError(f"direction dims {eta.dims} do not match network {params.dims}")
    act = params.activation
    t_lin = bundle.xbar @ eta.v.T  # (m, d_h): Delta1 x_i + delta1
    jvals = np.where(bundle.boundary_mask, act.hprime(t_lin), act.hprime(bundle.preact))
    return _response_terms(params, bundle, eta, jvals)


def _response_terms(
    params: NetworkParams, bundle: DerivativeBundle, eta: Perturbation, jvals: np.ndarray
) -> tuple[float, float]:
    """(first, second) along ``eta`` with the (m, d_h) hidden slopes held at ``jvals``."""
    jt = jvals * (bundle.xbar @ eta.v.T)
    dy1 = bundle.hidden @ eta.delta2_matrix.T + eta.delta2_bias + jt @ params.W2.T
    dy2 = jt @ eta.delta2_matrix.T
    first = float(np.sum(bundle.grads * dy1))
    second = float(np.sum(bundle.grads * dy2))
    second += 0.5 * float(np.einsum("ia,iab,ib->", dy1, bundle.hessians, dy1))
    return first, second


# ---------------------------------------------------------------------------
# General-position check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneralPositionReport:
    passed: bool
    mode: str  # "exhaustive" or "sampled" or "vacuous"
    subsets_checked: int
    violations: list


def validate_general_position(
    data: Dataset,
    max_exhaustive: int = 20000,
    n_samples: int = 2000,
    seed: int = 0,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> GeneralPositionReport:
    """Check that no d_x + 1 inputs lie on a common affine hyperplane.

    Equivalent to every (d_x+1)-subset of augmented inputs having full rank.
    Exhaustive when the number of subsets is small, randomized spot-check
    otherwise; returns a report rather than raising.
    """
    m, d = data.m, data.d_x
    size = d + 1
    if m < size:
        return GeneralPositionReport(True, "vacuous", 0, [])
    xbar = data.xbar

    def dependent(idx) -> bool:
        sub = xbar[list(idx)]
        s = np.linalg.svd(sub, compute_uv=False)
        return s[-1] <= rank_tol * max(s[0], 1.0)

    import math

    total = math.comb(m, size)
    violations = []
    if total <= max_exhaustive:
        checked = 0
        for idx in combinations(range(m), size):
            checked += 1
            if dependent(idx):
                violations.append(idx)
        return GeneralPositionReport(not violations, "exhaustive", checked, violations)
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        idx = tuple(sorted(rng.choice(m, size=size, replace=False).tolist()))
        if dependent(idx):
            violations.append(idx)
    return GeneralPositionReport(not violations, "sampled", n_samples, violations)
