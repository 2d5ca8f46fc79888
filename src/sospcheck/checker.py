"""End-to-end certification pipeline.

Runs, in order: the outer-layer gradient test, per-unit zero-in-
subdifferential and increasing tests, one equality-constrained QP for the
all-zero sign pattern, and (only when flat extreme rays exist) one
inequality-constrained QP per enumerated sign pattern. The cone QPs share
one assembly base, so only the boundary samples are summed per pattern.
The equality-constrained QP is decided exactly by the spectrum of the
projected form, and every T2/T3 witness is re-verified in the original
coordinates. The first strict descent signal short-circuits the pipeline;
the returned direction is always re-validated by an actual line search on
the risk before it is reported. If every QP is strictly positive the point
is a local minimum; if some QP has a nonzero flat direction and none has a
negative one, the point is a second-order stationary point and a concrete
flat witness is attached.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from itertools import product

import numpy as np

from .errors import NoDecreaseFoundError, PatternBudgetExceededError
from .first_order import (
    classify_boundary,
    increasing_check,
    inner_layer_fosp_smooth,
    outer_layer_fosp,
    solve_subdiff_qp,
)
from .network import (
    BoundaryAnalysis,
    Dataset,
    LossModel,
    NetworkParams,
    Perturbation,
    SignPattern,
    SquaredLoss,
    boundary_analysis,
    empirical_risk,
    expansion_terms,
    per_sample_derivatives,
)
from .second_order import (
    assemble_so_qp,
    assembly_base,
    icqp_frame,
    projected_spectrum_oracle,
    solve_icqp,
    verify_witness,
)


@dataclass(frozen=True)
class CheckConfig:
    """Tolerances and budgets threaded through a check.

    Nothing in a check is random, so these fields are all a rerun needs;
    every verdict records them under ``diagnostics["config"]``.
    """

    boundary_tol: float = 0.0
    tol_zero: float = 1e-8
    rank_tol: float = 1e-10
    zero_eig_tol: float = 1e-8
    k_max: int = 16
    r_max: int = 20
    gamma0: float = 1e-2
    gamma_halvings: int = 40


DEFAULT_CONFIG = CheckConfig()


@dataclass(frozen=True)
class Verdict:
    """Outcome of a certification run.

    ``kind`` is one of "local_minimum", "sosp", "descent". For descent
    verdicts ``direction`` holds the certified direction, ``stage`` names
    the test that produced it and ``step`` is always set: a step size along
    the direction that a line search on the risk has shown to decrease it.
    SOSP verdicts carry a flat witness direction instead.
    """

    kind: str
    stage: str | None = None
    direction: Perturbation | None = None
    step: float | None = None
    flat_witness: Perturbation | None = None
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "stage": self.stage,
            "step": self.step,
            "diagnostics": self.diagnostics,
        }
        for name, pert in (("direction", self.direction), ("flat_witness", self.flat_witness)):
            out[name] = (
                None
                if pert is None
                else {
                    "delta2_bias": pert.delta2_bias.tolist(),
                    "delta2_matrix": pert.delta2_matrix.tolist(),
                    "v": pert.v.tolist(),
                }
            )
        return out


def enumerate_sign_patterns(classification, boundary: BoundaryAnalysis, k_max: int = 16):
    """All sign patterns consistent with the flat-ray sets, lexicographically.

    Samples with both ray directions flat contribute both signs (2^K
    combinations total), single-flat samples are pinned to their sign, and
    samples with no flat ray are pinned to zero.
    """
    if classification.K > k_max:
        raise PatternBudgetExceededError(
            f"2^{classification.K} sign patterns exceed the budget 2^{k_max}"
        )
    keys = []
    choices = []
    for k, idx in enumerate(boundary.boundary_indices):
        singles = dict(classification.single.get(k, []))
        for i in idx:
            i = int(i)
            keys.append((k, i))
            if i in classification.both.get(k, []):
                choices.append((-1, 1))
            elif i in singles:
                choices.append((singles[i],))
            else:
                choices.append((0,))
    patterns = []
    for combo in product(*choices):
        patterns.append(SignPattern.from_dict(dict(zip(keys, combo))))
    return patterns


def validate_descent(
    params: NetworkParams,
    data: Dataset,
    loss: LossModel,
    eta: Perturbation,
    gamma0: float = 1e-2,
    halvings: int = 40,
    margin: float = 1e-14,
) -> float:
    """Backtracking line search certifying an actual risk decrease along ``eta``.

    Returns the first step size gamma in {gamma0 * 2^-j} with
    risk(z + gamma eta) < risk(z) - margin * max(1, risk(z)); raises
    NoDecreaseFoundError if none of them decreases the risk.
    """
    if eta.norm() == 0.0:
        raise ValueError("descent direction must be nonzero")
    base = empirical_risk(params, data, loss)
    floor = base - margin * max(1.0, abs(base))
    for j in range(halvings + 1):
        gamma = gamma0 * (0.5**j)
        if empirical_risk(params.perturbed(eta, gamma), data, loss) < floor:
            return gamma
    raise NoDecreaseFoundError(
        f"no decrease along the claimed descent direction (risk {base:.6e})"
    )


def _flat_sets_json(flat_sets) -> list:
    return [sorted(s) for s in flat_sets]


def sosp_check(
    params: NetworkParams,
    data: Dataset,
    loss: LossModel | None = None,
    config: CheckConfig | None = None,
) -> Verdict:
    """Certify the parameter point as local minimum, SOSP, or escapable.

    Executes the full test pipeline and returns a verdict with a
    machine-readable stage trace in ``diagnostics`` (boundary counts, box-QP
    solutions, flat-ray sets, QP verdicts and counts, timings).
    """
    loss = loss if loss is not None else SquaredLoss()
    cfg = config if config is not None else DEFAULT_CONFIG
    t_start = time.perf_counter()
    bundle = per_sample_derivatives(params, data, loss, cfg.boundary_tol)
    boundary = boundary_analysis(
        params, data, loss, cfg.boundary_tol, bundle=bundle, rank_tol=cfg.rank_tol
    )
    d_x, d_h, d_y = params.dims
    trace: list[dict] = []
    diagnostics = {
        "dims": {"d_x": d_x, "d_h": d_h, "d_y": d_y, "m": data.m},
        "boundary_counts": boundary.counts,
        "M": boundary.total,
        "trace": trace,
        "n_ecqp": 0,
        "n_icqp": 0,
        "config": asdict(cfg),
    }

    def finish_descent(stage: str, eta: Perturbation) -> Verdict:
        step = validate_descent(params, data, loss, eta, cfg.gamma0, cfg.gamma_halvings)
        first, second = expansion_terms(params, data, loss, eta, cfg.boundary_tol, bundle=bundle)
        diagnostics["descent_first_order"] = first
        diagnostics["descent_second_order"] = second
        diagnostics["elapsed"] = time.perf_counter() - t_start
        return Verdict(
            kind="descent",
            stage=stage,
            direction=eta,
            step=step,
            diagnostics=diagnostics,
        )

    outer = outer_layer_fosp(params, bundle, cfg.tol_zero)
    trace.append(
        {
            "stage": "outer_layer",
            "passed": outer.passed,
            "gradient_norm": float(np.linalg.norm(outer.gradient)),
        }
    )
    if not outer.passed:
        return finish_descent("outer_layer", outer.descent)

    flat_sets_by_unit: dict[int, list] = {}
    s_stars: dict[int, list] = {}
    for k in range(d_h):
        if boundary.counts[k] > 0:
            qp_res = solve_subdiff_qp(k, params, boundary, bundle)
            certified = qp_res.certifies_zero(qp_res.scale, cfg.tol_zero)
            trace.append(
                {
                    "stage": "subdiff_qp",
                    "k": k,
                    "objective": qp_res.objective,
                    "s_star": qp_res.s_star.tolist(),
                    "kkt_residual": qp_res.kkt_residual,
                    "iterations": qp_res.iterations,
                    "certified": certified,
                }
            )
            s_stars[k] = qp_res.s_star.tolist()
            if not certified:
                v = np.zeros((d_h, d_x + 1))
                v[k] = -qp_res.residual_vector
                eta = Perturbation(np.zeros(d_y), np.zeros((d_y, d_h)), v)
                return finish_descent("subdiff_qp", eta)
            inc = increasing_check(k, params, boundary, bundle, qp_res.s_star, cfg.tol_zero)
            trace.append(
                {
                    "stage": "increasing",
                    "k": k,
                    "descent": inc.descent_found,
                    "flat_sets": _flat_sets_json(inc.flat_sets),
                }
            )
            if inc.descent_found:
                v = np.zeros((d_h, d_x + 1))
                v[k] = inc.descent_v
                eta = Perturbation(np.zeros(d_y), np.zeros((d_y, d_h)), v)
                return finish_descent("increasing", eta)
            flat_sets_by_unit[k] = inc.flat_sets
        else:
            sm = inner_layer_fosp_smooth(k, params, boundary, cfg.tol_zero)
            trace.append(
                {
                    "stage": "smooth_gradient",
                    "k": k,
                    "passed": sm.passed,
                    "gradient_norm": float(np.linalg.norm(sm.gradient)),
                }
            )
            if not sm.passed:
                return finish_descent("smooth_gradient", sm.descent)

    classification = classify_boundary(flat_sets_by_unit, boundary)
    diagnostics["K"] = classification.K
    diagnostics["L"] = classification.L
    diagnostics["s_star"] = s_stars

    sosp_flag = False
    flat_witness: Perturbation | None = None

    base = assembly_base(params, bundle, boundary)
    pattern0 = SignPattern.all_zero(boundary)
    qp0 = assemble_so_qp(params, data, loss, boundary, pattern0, base=base)
    ec = projected_spectrum_oracle(qp0.Q, qp0.A, zero_tol=cfg.zero_eig_tol)
    if ec.witness is not None:
        verify_witness(qp0, ec.witness, ec.verdict)
    diagnostics["n_ecqp"] += 1
    trace.append(
        {
            "stage": "ecqp",
            "verdict": ec.verdict,
            "constraints": {"q": qp0.shape[1], "r": qp0.shape[2]},
            "lam_min": ec.lam_min,
            "scale": ec.scale,
            "tol": ec.tol,
            # no iterative solver runs; trace readers still read these keys
            "fallback": False,
            "iterations": None,
        }
    )
    if ec.verdict == "T3":
        return finish_descent("ecqp", Perturbation.unpack(ec.witness, params.dims))
    if ec.verdict == "T2":
        sosp_flag = True
        flat_witness = Perturbation.unpack(ec.witness, params.dims)

    if boundary.total > 0 and classification.has_flat_rays:
        patterns = enumerate_sign_patterns(classification, boundary, cfg.k_max)
        diagnostics["n_patterns"] = len(patterns)
        frame = None  # the patterns differ only in the signs of B: one elimination
        for idx, pat in enumerate(patterns):
            qp = assemble_so_qp(params, data, loss, boundary, pat, base=base)
            if frame is None:
                frame = icqp_frame(qp, rank_tol=cfg.rank_tol, face=ec)
            ic = solve_icqp(
                qp,
                r_max=cfg.r_max,
                zero_tol=cfg.zero_eig_tol,
                rank_tol=cfg.rank_tol,
                frame=frame,
            )
            diagnostics["n_icqp"] += 1
            cp_diag = ic.diagnostics.get("copositivity", {})
            trace.append(
                {
                    "stage": "icqp",
                    "pattern_index": idx,
                    "pattern": {f"{k},{i}": s for (k, i), s in pat.entries},
                    "verdict": ic.verdict,
                    "constraints": {"q": qp.shape[1], "r": qp.shape[2]},
                    "psd": ic.diagnostics.get("psd"),
                    "cp": ic.diagnostics.get("cp"),
                    "cp_by": cp_diag.get("cp_by"),
                    "lam_min_s": cp_diag.get("lam_min_s"),
                    "tol": cp_diag.get("tol"),
                }
            )
            if ic.verdict == "T3":
                return finish_descent("icqp", Perturbation.unpack(ic.witness, params.dims))
            if ic.verdict == "T2" and flat_witness is None:
                sosp_flag = True
                flat_witness = Perturbation.unpack(ic.witness, params.dims)
            sosp_flag = sosp_flag or ic.verdict == "T2"

    diagnostics["elapsed"] = time.perf_counter() - t_start
    if sosp_flag:
        first, second = expansion_terms(
            params, data, loss, flat_witness, cfg.boundary_tol, bundle=bundle
        )
        diagnostics["flat_witness_first_order"] = first
        diagnostics["flat_witness_second_order"] = second
        return Verdict(kind="sosp", flat_witness=flat_witness, diagnostics=diagnostics)
    return Verdict(kind="local_minimum", diagnostics=diagnostics)
