"""Experiment harness: data generation, full-batch Adam, boundary statistics,
and constructors for exact-boundary stationary test points.

The training loop reproduces the protocol used for the boundary-point
statistics: full-batch Adam with a step size decayed by a constant factor on
a fixed period, run long enough that the iterates settle into the creases of
the loss surface where preactivations of some samples nearly vanish. The
statistics pass then counts approximate boundary samples, solves the
per-unit box QP, and estimates how many boundary samples would contribute
inequality constraints to the second-order stage.

The fixture constructor works backwards: fix random parameters, place
selected samples exactly on chosen units' hyperplanes (none, for a
differentiable point), and solve a linear system for label residuals that
makes every first-order test pass with a prescribed box-QP solution. Each
fixture is accepted only once the certifier's own first-order tests pass on
it. It is the source of exact, certifiable stationary points for the test
suite.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    ConstructionFailedError,
    GeneralPositionViolationError,
    NonFiniteError,
    ShapeMismatchError,
)
from .first_order import outer_layer_fosp, solve_subdiff_qp, unit_tests
from .linalg import nullspace_basis, require_in_range
from .network import (
    RELU,
    ActivationSpec,
    Dataset,
    LossModel,
    NetworkParams,
    SquaredLoss,
    boundary_analysis,
    empirical_risk,
    forward_slopes,
    per_sample_derivatives,
    require_label_width,
)

# ---------------------------------------------------------------------------
# Synthetic data and initialization
# ---------------------------------------------------------------------------


def generate_dataset(d_x: int, d_y: int, m: int, seed: int = 0) -> Dataset:
    """Inputs and labels drawn iid from the standard normal distribution."""
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((m, d_x)), rng.standard_normal((m, d_y)))


def init_params(
    d_x: int,
    d_h: int,
    d_y: int,
    seed: int = 0,
    activation: ActivationSpec = RELU,
) -> NetworkParams:
    """Random starting point: fan-in scaled Gaussian weights, zero biases."""
    rng = np.random.default_rng(seed)
    return NetworkParams(
        W1=rng.standard_normal((d_h, d_x)) / np.sqrt(d_x),
        b1=np.zeros(d_h),
        W2=rng.standard_normal((d_y, d_h)) / np.sqrt(d_h),
        b2=np.zeros(d_y),
        activation=activation,
    )


# ---------------------------------------------------------------------------
# Full-batch Adam
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdamConfig:
    """Full-batch Adam settings; invalid values raise ValueError."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    iters: int = 20_000
    decay_factor: float = 0.2
    decay_every: int = 2_000
    record_every: int = 200

    def __post_init__(self):
        require_in_range(self, "iters decay_every record_every", 1)
        require_in_range(self, "lr eps decay_factor", 0, open_low=True)
        require_in_range(self, "beta1 beta2", 0, 1)


def risk_gradient(params: NetworkParams, data: Dataset, loss: LossModel):
    """Exact full-batch gradient of the risk with respect to all parameters.

    At an exactly-zero preactivation the hidden-layer slope is taken as the
    positive-side slope, a subgradient choice that matters only on a
    measure-zero set of parameters.

    The pass is unit-major: every per-sample temporary is a contiguous
    (d_h, m) or (d_y, m) array, updated in place where it can be, so each
    elementwise op and each sum over the samples runs along one row of
    length m instead of m rows of d_h entries. It is deliberately not
    ``forward_slopes``: the check's forward pass keeps its sample-major
    rounding, on which exact-zero preactivations, fixtures and verdicts
    depend, and computing that pass unit-major moves its outputs by ulps at
    most shapes with d_h >= 3. Training only needs a correct gradient. At
    d_h = d_y = 1 every result is bit-identical to the sample-major formula;
    otherwise the sums are reassociated and agree with it to rounding.
    """
    X = data.inputs
    if X.shape[1] != params.W1.shape[1]:
        raise ShapeMismatchError(
            f"input dimension {X.shape[1]} does not match network d_x={params.W1.shape[1]}"
        )
    require_label_width(params, data)
    hidden = params.W1 @ X.T  # (d_h, m); X.T is a view of the inputs, not a copy
    hidden += params.b1[:, None]
    slopes = params.activation.hprime(hidden)
    hidden *= slopes  # preactivation -> hidden output, as slope times preactivation
    out = params.W2 @ hidden  # (d_y, m)
    out += params.b2[:, None]
    grads = loss.gradient(out.T, data.labels).T
    back = params.W2.T @ grads
    back *= slopes
    return back @ X, back.sum(axis=1), grads @ hidden.T, grads.sum(axis=1)


def adam_train(
    params0: NetworkParams,
    data: Dataset,
    loss: LossModel | None = None,
    config: AdamConfig | None = None,
):
    """Full-batch Adam with step-size decay; returns (params, risk trace).

    The trace records (iteration, risk) every ``record_every`` steps plus
    the final point. Standard bias-corrected moment updates; the step size
    at iteration t (1-based) is lr * decay_factor ** ((t - 1) // decay_every).
    The parameters and both moments are one flat vector each, raveled as
    W1, b1, W2, b2, so every step is a few whole-vector operations; each
    entry sees the same float64 operations as a blockwise update, so the
    update is bit-identical to it given the same gradient. The gradient is
    ``risk_gradient``'s unit-major one, called once per iteration; at
    d_h = d_y = 1 it is bit-identical to the sample-major formula, so whole
    iterates are too. The returned parameters own their arrays, and
    ``params0`` is not modified.
    """
    loss = loss if loss is not None else SquaredLoss()
    cfg = config if config is not None else AdamConfig()
    blocks = (params0.W1, params0.b1, params0.W2, params0.b2)
    theta = np.concatenate([b.ravel() for b in blocks])
    ends = np.cumsum([b.size for b in blocks])
    views = [theta[e - b.size : e].reshape(b.shape) for b, e in zip(blocks, ends)]
    # built once: require_finite hands a float64 array back as itself, so
    # these views follow every in-place update of theta
    current = NetworkParams(*views, params0.activation)
    grad = np.empty_like(theta)
    mom = np.zeros_like(theta)
    vel = np.zeros_like(theta)
    beta1, beta2, eps = cfg.beta1, cfg.beta2, cfg.eps
    trace = []
    for start in range(0, cfg.iters, cfg.record_every):
        end = min(start + cfg.record_every, cfg.iters)
        # divergence is detected explicitly, so transient overflow is expected
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(start + 1, end + 1):
                np.concatenate([g.ravel() for g in risk_gradient(current, data, loss)], out=grad)
                lr = cfg.lr * cfg.decay_factor ** ((t - 1) // cfg.decay_every)
                mom *= beta1
                mom += (1.0 - beta1) * grad
                vel *= beta2
                vel += (1.0 - beta2) * grad * grad
                theta -= lr * (mom / (1.0 - beta1**t)) / (np.sqrt(vel / (1.0 - beta2**t)) + eps)
                if not np.isfinite(theta).all():
                    raise NonFiniteError(f"training diverged at iteration {t}")
        trace.append((end, empirical_risk(current, data, loss)))
    return NetworkParams(*(v.copy() for v in views), params0.activation), trace


# ---------------------------------------------------------------------------
# Boundary statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatThresholds:
    """Counting thresholds for the approximate boundary statistics; each must
    be finite and nonnegative, or ValueError is raised.

    ``qp_objective`` only flags units whose box-QP objective exceeds it
    (trained points are approximate, so their objectives are near but not
    exactly zero); it does not gate any computation.
    """

    boundary: float = 1e-5
    s_edge: float = 1e-6
    grad_orth: float = 1e-4
    qp_objective: float = 1e-3

    def __post_init__(self):
        require_in_range(self, "boundary s_edge grad_orth qp_objective", 0)


@dataclass(frozen=True)
class RunReport:
    """Boundary statistics of one parameter point.

    ``m_hat`` counts approximate boundary samples, ``k_hat`` those whose
    outgoing-gradient factor is below the orthogonality threshold, and
    ``l_hat`` those that would contribute an inequality constraint (edge
    box-QP solution or orthogonal gradient), so k_hat <= l_hat <= m_hat by
    construction. ``edge_count`` is the raw edge-solution count among the
    non-orthogonal samples (the L - K estimate).
    """

    final_risk: float
    m_hat: int
    l_hat: int
    k_hat: int
    edge_count: int
    qp_objectives: list
    per_unit: list
    general_position_ok: bool
    elapsed: float
    verdict: dict | None = None  # populated when the full check is requested

    def as_dict(self) -> dict:
        return asdict(self)


def boundary_statistics(
    params: NetworkParams,
    data: Dataset,
    loss: LossModel | None = None,
    thresholds: StatThresholds | None = None,
    full_check: bool = False,
) -> RunReport:
    """Count approximate boundary samples and solve the per-unit box QPs.

    Preactivations within the boundary threshold are snapped to zero and the
    analysis proceeds as at an exact boundary point; the general-position
    requirement is reported rather than enforced, since snapped sets at
    trained points occasionally violate it. With ``full_check`` the complete
    certification runs on the snapped point and its verdict is attached
    (trained points sit near the certification tolerances, so a hard
    validation error is recorded rather than raised here).
    """
    loss = loss if loss is not None else SquaredLoss()
    thr = thresholds if thresholds is not None else StatThresholds()
    t0 = time.perf_counter()
    bundle = per_sample_derivatives(params, data, loss, boundary_tol=thr.boundary)
    boundary = boundary_analysis(params, data, loss, bundle=bundle, enforce_general_position=False)

    act = params.activation
    lo, hi = act.box
    width = hi - lo
    per_unit = []
    qp_objectives = []
    k_hat = 0
    l_hat = 0
    edge_count = 0
    for k, idx in enumerate(boundary.boundary_indices):
        if len(idx) == 0:
            continue
        res = solve_subdiff_qp(k, params, boundary, bundle)
        qp_objectives.append(res.objective)
        w = params.W2[:, k]
        a_vals = np.abs(bundle.grads[idx] @ w)
        unit_rows = []
        for pos, i in enumerate(idx):
            frac = (res.s_star[pos] - lo) / width
            is_edge = frac <= thr.s_edge or frac >= 1.0 - thr.s_edge
            is_orth = a_vals[pos] < thr.grad_orth
            k_hat += int(is_orth)
            l_hat += int(is_orth or is_edge)
            edge_count += int(is_edge and not is_orth)
            unit_rows.append(
                {
                    "sample": int(i),
                    "s_star": float(res.s_star[pos]),
                    "grad_factor": float(a_vals[pos]),
                    "edge": bool(is_edge),
                    "orthogonal": bool(is_orth),
                }
            )
        per_unit.append(
            {
                "unit": k,
                "count": len(idx),
                "objective": res.objective,
                "near_stationary": bool(res.objective <= thr.qp_objective),
                "samples": unit_rows,
            }
        )
    verdict_dict = None
    if full_check:
        from .checker import CheckConfig, sosp_check
        from .errors import InternalInconsistencyError, NoDecreaseFoundError

        try:
            verdict = sosp_check(
                params, data, loss, CheckConfig(boundary_tol=thr.boundary)
            )
            verdict_dict = {"kind": verdict.kind, "stage": verdict.stage}
        except (
            NoDecreaseFoundError, InternalInconsistencyError, GeneralPositionViolationError
        ) as exc:
            verdict_dict = {"kind": "error", "detail": str(exc)}
    return RunReport(
        final_risk=empirical_risk(params, data, loss),
        m_hat=boundary.total,
        l_hat=l_hat,
        k_hat=k_hat,
        edge_count=edge_count,
        qp_objectives=qp_objectives,
        per_unit=per_unit,
        general_position_ok=all(boundary.general_position),
        elapsed=time.perf_counter() - t0,
        verdict=verdict_dict,
    )


@dataclass(frozen=True)
class TrendConfig:
    """One multi-seed training-and-statistics experiment."""

    d_x: int = 10
    d_h: int = 1
    d_y: int = 1
    m: int = 1000
    runs: int = 10
    seed: int = 0
    adam: AdamConfig = field(default_factory=AdamConfig)
    thresholds: StatThresholds = field(default_factory=StatThresholds)

    def __post_init__(self):
        require_in_range(self, "runs", 1)


def run_boundary_trend(config: TrendConfig) -> dict:
    """Train ``runs`` independent instances and aggregate boundary statistics."""
    reports = []
    for j in range(config.runs):
        seed = config.seed + j
        data = generate_dataset(config.d_x, config.d_y, config.m, seed=seed)
        params0 = init_params(config.d_x, config.d_h, config.d_y, seed=seed + 10_000)
        params, _ = adam_train(params0, data, config=config.adam)
        reports.append(boundary_statistics(params, data, thresholds=config.thresholds))
    m_sum = sum(r.m_hat for r in reports)
    l_sum = sum(r.l_hat for r in reports)
    k_sum = sum(r.k_hat for r in reports)
    return {
        "dims": {"d_x": config.d_x, "d_h": config.d_h, "d_y": config.d_y, "m": config.m},
        "runs": config.runs,
        "iters": config.adam.iters,
        "sum_m": m_sum,
        "sum_l": l_sum,
        "sum_k": k_sum,
        "avg_m": m_sum / config.runs,
        "avg_l": l_sum / config.runs,
        "avg_k": k_sum / config.runs,
        "p_l_positive": sum(r.l_hat > 0 for r in reports) / config.runs,
        "reports": [r.as_dict() for r in reports],
    }


# ---------------------------------------------------------------------------
# Constructed stationary points
# ---------------------------------------------------------------------------


def _pin_sample_to_hyperplane(inputs: np.ndarray, params: NetworkParams, i: int, k: int) -> bool:
    """Adjust one coordinate of sample i until its unit-k preactivation is
    exactly zero in floating point.

    The batched forward pass is the arbiter of "exactly zero" (a row-wise dot
    product may round differently than the gemm the pipeline uses). Newton
    steps land within an ulp or two; a scan over the 64 representable values
    on either side closes the gap, and other coordinates are tried if
    rounding makes exact zero unreachable through the first one.

    Each scan is one stacked product: 128 full copies of ``inputs``, one per
    candidate (lower_1, upper_1, lower_2, ...), differing only at [i, j].
    matmul makes the same BLAS call for every slice, with the shape and
    strides of the unstacked product, so each candidate is rounded exactly as
    the pipeline's own gemm rounds it (a tier-1 test checks this premise).
    The first candidate that gives zero is the one a one-at-a-time scan
    would stop at, and a failed scan leaves the last candidate (upper_64) in
    place, which the next phase starts from. The arbiter is unchanged: the
    constructor still rejects any attempt whose ``forward_slopes`` pass is
    not exactly zero on a boundary sample, and ``_verify_construction`` runs
    the certifier's own tests.
    """
    # the stack's slices are C-contiguous, so the unstacked operand must be too
    assert inputs.flags.c_contiguous
    w = params.W1[k]

    def preact(x: np.ndarray) -> np.ndarray:
        return (x @ params.W1.T + params.b1)[..., i, k]

    def newton_and_scan(j: int) -> bool:
        rest = w @ inputs[i] - w[j] * inputs[i, j] + params.b1[k]
        inputs[i, j] = -rest / w[j]
        for _ in range(6):
            val = preact(inputs)
            if val == 0.0:
                return True
            step = val / w[j]
            if inputs[i, j] - step == inputs[i, j]:
                break
            inputs[i, j] -= step
        # rounding plateaus can skip zero on this coordinate's ulp grid
        walk = np.full((65, 2), [-np.inf, np.inf])
        walk[0] = inputs[i, j]
        cands = np.nextafter.accumulate(walk)[1:].ravel()
        stack = np.repeat(inputs[None], cands.size, axis=0)
        stack[:, i, j] = cands
        hits = np.flatnonzero(preact(stack) == 0.0)
        inputs[i, j] = cands[hits[0] if hits.size else -1]
        return hits.size > 0

    order = [int(j) for j in np.argsort(-np.abs(w)) if w[j] != 0.0]
    for j in order:
        original_row = inputs[i].copy()
        secondary = [j2 for j2 in order if j2 != j]
        for phase in range(4):
            if phase > 0:
                if not secondary:
                    break
                # shift the cancellation phase through another coordinate
                j2 = secondary[(phase - 1) % len(secondary)]
                inputs[i, j2] = np.nextafter(inputs[i, j2], np.inf)
            if newton_and_scan(j):
                return True
        inputs[i] = original_row
    return False


def _fosp_constraint_matrix(
    params: NetworkParams,
    inputs: np.ndarray,
    hidden: np.ndarray,
    slopes: np.ndarray,
    boundary_pairs: list,
    s_prescribed: dict,
    orthogonal_pairs: list,
) -> np.ndarray:
    """Linear constraints on the per-sample residual matrix G (m x d_y) that
    make the point first-order stationary with the prescribed box-QP solution."""
    d_x, d_h, d_y = params.dims
    m = inputs.shape[0]
    xbar = np.hstack([inputs, np.ones((m, 1))])
    # each block is (rows, m, d_y): entry [., i, a] is the coefficient of G[i, a]
    # Outer-layer stationarity: sum_i G[i] hidden[i]^T = 0 and sum_i G[i] = 0.
    outer = np.zeros((d_y, d_h + 1, m, d_y))
    diag = np.arange(d_y)
    outer[diag, :, :, diag] = np.vstack([hidden.T, np.ones((1, m))])
    # Per-unit stationarity with fixed slope coefficients.
    coeff = slopes.copy()
    for i, k in boundary_pairs:
        coeff[i, k] = s_prescribed[(i, k)]
    slope = (coeff[:, :, None] * params.W2.T[None, :, :]).transpose(1, 0, 2)
    unit = slope[:, None, :, :] * xbar.T[None, :, :, None]
    # Orthogonality of the outgoing-gradient factor for selected samples.
    orth = np.zeros((len(orthogonal_pairs), m, d_y))
    for row, (i, k) in enumerate(orthogonal_pairs):
        orth[row, i] = params.W2[:, k]
    return np.vstack([b.reshape(-1, m * d_y) for b in (outer, unit, orth)])


@dataclass(frozen=True)
class ConstructedPoint:
    params: NetworkParams
    data: Dataset
    mode: str
    unit: int
    boundary_samples: list
    s_prescribed: list
    residual_scale: float


def construct_boundary_fosp(
    d_x: int,
    d_h: int,
    d_y: int,
    seed: int = 0,
    m: int | None = None,
    n_boundary: int = 1,
    units=None,
    mode: str = "interior",
    activation: ActivationSpec = RELU,
    residual_scale: float = 0.5,
    max_attempts: int = 40,
) -> ConstructedPoint:
    """Construct a point whose risk is stationary with exact boundary samples.

    ``n_boundary`` samples are placed exactly on hidden-unit hyperplanes
    (sample b on ``units[b]``, by default all on unit 0) and the labels
    are solved for so that every first-order test passes. With
    ``n_boundary=0`` the point is differentiable: no preactivation is near
    zero, only mode "interior" is accepted, and the returned ``unit`` is -1.
    ``mode`` controls the character of the boundary samples:

    * "interior": box-QP solution strictly inside the slope box; the
      boundary samples add equality constraints only (L = 0).
    * "edge": box-QP solution exactly at the positive slope; one flat ray
      per boundary sample (L = n_boundary, K = 0).
    * "orthogonal": outgoing-gradient factor exactly zero; both rays flat
      (K = L = n_boundary).
    * "ray_descent": like "interior" but with the residual sign flipped, so
      both extreme-ray products are negative and the increasing test finds
      a strict descent direction (a first-order nonsmooth saddle).
    * "subdiff_descent": the stationarity identity holds only at a slope
      outside the admissible box, so zero is not in the generalized gradient
      set and the box QP itself yields the descent direction.

    Raises ConstructionFailedError when no attempt satisfies the target
    within the attempt budget.
    """
    if mode not in ("interior", "edge", "orthogonal", "ray_descent", "subdiff_descent"):
        raise ValueError(f"unknown mode {mode!r}")
    if n_boundary == 0 and mode != "interior":
        raise ValueError(f"mode {mode!r} needs boundary samples")
    if units is None:
        units = [0] * n_boundary
    units = [int(u) for u in units]
    if len(units) != n_boundary or any(not 0 <= u < d_h for u in units):
        raise ValueError(f"need {n_boundary} valid unit indices, got {units}")
    loss = SquaredLoss()
    lo, hi = activation.box
    n_constraints = d_y * (d_h + 1) + d_h * (d_x + 1) + (n_boundary if mode == "orthogonal" else 0)
    if m is None:
        m = max(int(np.ceil(n_constraints / d_y)) + n_boundary + 3, 2 * n_boundary + 4)
    margin = 0.05
    first_on_unit = {}
    for b, k in enumerate(units):
        first_on_unit.setdefault(k, b)

    for attempt in range(max_attempts):
        rng = np.random.default_rng((seed, attempt))
        w1 = rng.standard_normal((d_h, d_x)) / np.sqrt(d_x)
        b1 = 0.3 * rng.standard_normal(d_h)
        w2 = rng.standard_normal((d_y, d_h)) / np.sqrt(d_h)
        b2 = 0.3 * rng.standard_normal(d_y)
        if any(np.linalg.norm(w2[:, k]) < 0.3 / np.sqrt(d_h) for k in set(units)):
            continue
        inputs = rng.standard_normal((m, d_x))
        # place each unit's first boundary sample near the hyperplane, then
        # choose that unit's bias to cancel its product row exactly
        # (x + (-x) is exact in floats)
        ok = True
        for k, b in first_on_unit.items():
            w_row = w1[k]
            j = int(np.abs(w_row).argmax())
            if w_row[j] == 0.0:
                ok = False
                break
            rest = w_row @ inputs[b] - w_row[j] * inputs[b, j] + b1[k]
            inputs[b, j] = -rest / w_row[j]
            b1[k] = -(inputs @ w1.T)[b, k]
        if not ok:
            continue
        # pinning moves only the boundary samples and draws nothing from rng,
        # so the margin of the other rows is final here: test it before the
        # pinning, with the same product as the test below
        if np.abs((inputs @ w1.T + b1)[n_boundary:]).min(initial=np.inf) < margin:
            continue
        params = NetworkParams(W1=w1, b1=b1, W2=w2, b2=b2, activation=activation)
        for b, k in enumerate(units):
            if b == first_on_unit[k]:
                continue
            if not _pin_sample_to_hyperplane(inputs, params, b, k):
                ok = False
                break
        if not ok:
            continue
        outputs, preact, hidden, slopes = forward_slopes(params, inputs)
        mask = np.zeros((m, d_h), dtype=bool)
        for b, k in enumerate(units):
            mask[b, k] = True
        if np.abs(np.where(mask, 1.0, preact)).min() < margin:
            continue  # some unintended preactivation too close to the boundary
        if (preact[mask] != 0.0).any():
            continue

        pairs = [(b, k) for b, k in enumerate(units)]
        if mode == "edge":
            s_presc = {pair: activation.s_plus for pair in pairs}
        elif mode == "orthogonal":
            s_presc = {pair: 0.5 * (lo + hi) for pair in pairs}
        elif mode == "subdiff_descent":
            s_presc = {pair: hi + (0.3 + 0.3 * rng.random()) * (hi - lo) for pair in pairs}
        else:
            s_presc = {
                pair: lo + (0.3 + 0.4 * rng.random()) * (hi - lo) for pair in pairs
            }
        phi = _fosp_constraint_matrix(
            params, inputs, hidden, slopes, pairs, s_presc, pairs if mode == "orthogonal" else []
        )
        null = nullspace_basis(phi)
        if null.shape[1] == 0:
            continue
        # both extreme-ray products of a boundary sample share the sign of
        # (gradient factor) * (s_plus - s_minus): the pass modes need it
        # positive on every boundary sample, ray_descent needs it negative
        orient = 1.0 if activation.s_plus > activation.s_minus else -1.0
        resid = None
        for _ in range(64):
            cand = (null @ rng.standard_normal(null.shape[1])).reshape(m, d_y)
            a_vals = orient * np.array(
                [cand[b] @ params.W2[:, k] for b, k in pairs]
            )
            if mode == "orthogonal":
                resid = cand
                break
            if np.abs(a_vals).min(initial=np.inf) < 1e-3 * np.linalg.norm(cand) / np.sqrt(m):
                continue
            if mode == "subdiff_descent":  # any sign: the box QP fails regardless
                resid = cand
                break
            if (a_vals > 0).all():
                resid = cand
                break
            if (a_vals < 0).all():
                resid = -cand
                break
        if resid is None:
            continue
        if mode == "ray_descent":
            resid = -resid
        norm = np.linalg.norm(resid)
        if norm == 0.0:
            continue
        resid = resid * (residual_scale * np.sqrt(m * d_y) / norm)
        data = Dataset(inputs, outputs - resid)

        if _verify_construction(params, data, loss, pairs, s_presc, mode):
            return ConstructedPoint(
                params=params,
                data=data,
                mode=mode,
                unit=units[0] if units else -1,
                boundary_samples=list(range(n_boundary)),
                s_prescribed=[s_presc[p] for p in pairs],
                residual_scale=residual_scale,
            )
    raise ConstructionFailedError(
        f"no {mode!r} boundary point found in {max_attempts} attempts (seed {seed})"
    )


def _verify_construction(params, data, loss, pairs, s_presc, mode) -> bool:
    """Check the constructed point has the intended first-order structure,
    with the certifier's own first-order tests on every unit."""
    try:
        bundle = per_sample_derivatives(params, data, loss)
        boundary = boundary_analysis(params, data, loss, bundle=bundle)
    except GeneralPositionViolationError:
        return False
    want = {}
    for i, k in pairs:
        want.setdefault(k, set()).add(i)
    got = {
        k: set(int(i) for i in idx)
        for k, idx in enumerate(boundary.boundary_indices)
        if len(idx)
    }
    if got != want or not outer_layer_fosp(params, bundle).passed:
        return False
    # the test each boundary unit's tests end at, and whether with a descent
    ends = {"subdiff_descent": ("subdiff_qp", True), "ray_descent": ("increasing", True)}
    signs = {"interior": (0, False), "edge": (1, False), "orthogonal": (0, True)}
    for entries, descent, pinned, free in unit_tests(params, boundary, bundle):
        stage, k = entries[-1]["stage"], entries[-1]["k"]
        want = ends.get(mode, ("increasing", False)) if k in got else ("smooth_gradient", False)
        if (stage, descent is not None) != want:
            return False
        if mode in ("interior", "edge") and k in got:
            prescribed = [s_presc[(int(i), k)] for i in boundary.boundary_indices[k]]
            if np.abs(np.subtract(entries[0]["s_star"], prescribed)).max() > 1e-6:
                return False
        if mode in signs and ((pinned != signs[mode][0]).any() or (free != signs[mode][1]).any()):
            return False
    return True


def construct_indefinite_fosp(
    d_x: int,
    d_h: int,
    d_y: int,
    seed: int = 0,
    max_attempts: int = 40,
) -> ConstructedPoint:
    """An exact-boundary stationary point whose second-order form is indefinite.

    Scales up the label residuals of an interior-mode construction until the
    equality-constrained quadratic form acquires negative curvature, so the
    full check must escape at the second-order stage.
    """
    from .second_order import assemble_so_qp, projected_spectrum_oracle

    loss = SquaredLoss()
    for attempt in range(max_attempts):
        for scale in (3.0, 10.0, 30.0, 100.0):
            try:
                point = construct_boundary_fosp(
                    d_x,
                    d_h,
                    d_y,
                    seed=(seed * 1000 + attempt * 7 + int(scale)) % 2**31,
                    mode="interior",
                    residual_scale=scale,
                )
            except ConstructionFailedError:
                continue
            bundle = per_sample_derivatives(point.params, point.data, loss)
            boundary = boundary_analysis(point.params, point.data, loss, bundle=bundle)
            qp = assemble_so_qp(
                point.params, point.data, loss, boundary, np.zeros(boundary.total), bundle=bundle
            )
            oracle = projected_spectrum_oracle(qp.Q, qp.A)
            if oracle.verdict == "T3":
                return point
    raise ConstructionFailedError(f"no indefinite boundary stationary point found (seed {seed})")


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

SCHEMA_VERSION = "1"


def params_to_dict(params: NetworkParams) -> dict:
    d_x, d_h, d_y = params.dims
    return {
        "schema_version": SCHEMA_VERSION,
        "d_x": d_x,
        "d_h": d_h,
        "d_y": d_y,
        "s_plus": params.activation.s_plus,
        "s_minus": params.activation.s_minus,
        "W1": params.W1.tolist(),
        "b1": params.b1.tolist(),
        "W2": params.W2.tolist(),
        "b2": params.b2.tolist(),
    }


def params_from_dict(obj: dict) -> NetworkParams:
    act = ActivationSpec(float(obj["s_plus"]), float(obj["s_minus"]))
    return NetworkParams(
        W1=np.asarray(obj["W1"], dtype=float),
        b1=np.asarray(obj["b1"], dtype=float),
        W2=np.asarray(obj["W2"], dtype=float),
        b2=np.asarray(obj["b2"], dtype=float),
        activation=act,
    )


def dataset_to_dict(data: Dataset) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "inputs": data.inputs.tolist(),
        "labels": data.labels.tolist(),
    }


def dataset_from_dict(obj: dict) -> Dataset:
    return Dataset(
        np.asarray(obj["inputs"], dtype=float), np.asarray(obj["labels"], dtype=float)
    )


def save_json(path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
