"""End-to-end certification pipeline.

Runs, in order: the outer-layer gradient test, each unit's first-order tests
(``first_order.unit_tests``: a gradient test, or the zero-in-subdifferential
box QP and then the increasing test), one equality-constrained QP for the
all-zero sign pattern, and (only when flat extreme rays exist) one
inequality-constrained QP per enumerated sign pattern, decided in one
batched sweep (``second_order.icqp_sweep``). Each unit's increasing test
gives its boundary pairs their sign-row entries (a pinned sign, 0 with no
flat ray, or free with both rays flat); joined in the order of
``BoundaryAnalysis.pairs`` they are the sweep's input, with K free entries
(2^K patterns) and L pinned-nonzero or free ones. The cone QPs share one
assembly base, so only the boundary samples are summed per pattern.
The equality-constrained QP is decided exactly by the spectrum of the
projected form, and every T2/T3 witness is re-verified in the original
coordinates. The first descent direction that passes an actual line search
on the risk ends the pipeline with a descent verdict; the check raises
NoDecreaseFoundError when no direction it may try passes. If every QP is
strictly positive the point is a local minimum; if some QP has a nonzero
flat direction and none has a negative one, the point is a second-order
stationary point and a concrete flat witness is attached.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NoDecreaseFoundError, PatternBudgetExceededError
from .first_order import outer_layer_fosp, unit_tests
from .linalg import TOLERANCES, require_in_range
from .network import (
    BoundaryAnalysis,
    Dataset,
    LossModel,
    NetworkParams,
    Perturbation,
    SquaredLoss,
    boundary_analysis,
    empirical_risk,
    expansion_terms,
    per_sample_derivatives,
)
# solve_icqp stays bound here: benchmarks/tracer.py wraps it in this namespace
from .second_order import (  # noqa: F401
    DECISIONS,
    IcqpBatch,
    assemble_so_qp,
    assembly_base,
    icqp_sweep,
    projected_spectrum_oracle,
    solve_icqp,
    verify_witness,
)


@dataclass(frozen=True)
class CheckConfig:
    """The snapping tolerance and budgets of a check; invalid values raise ValueError.

    Nothing in a check is random, so these fields and ``TOLERANCES`` are all a
    rerun needs; every verdict records them as ``diagnostics["config"]`` and
    ``diagnostics["tolerances"]``.
    """

    boundary_tol: float = 0.0
    k_max: int = 16
    r_max: int = 20
    gamma0: float = 1e-2
    gamma_halvings: int = 40

    def __post_init__(self):
        require_in_range(self, "boundary_tol k_max r_max gamma_halvings", 0)
        require_in_range(self, "gamma0", 0, open_low=True)


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


def validate_descent(
    params: NetworkParams,
    data: Dataset,
    loss: LossModel,
    eta: Perturbation,
    gamma0: float = DEFAULT_CONFIG.gamma0,
    halvings: int = DEFAULT_CONFIG.gamma_halvings,
) -> float:
    """Backtracking line search certifying an actual risk decrease along ``eta``.

    Returns the first step size gamma in {gamma0 * 2^-j} with
    risk(z + gamma eta) < risk(z) - ``TOLERANCES.descent_margin`` * max(1, risk(z));
    raises NoDecreaseFoundError if none of them decreases the risk.
    """
    if eta.norm() == 0.0:
        raise ValueError("descent direction must be nonzero")
    base = empirical_risk(params, data, loss)
    floor = base - TOLERANCES.descent_margin * max(1.0, abs(base))
    for j in range(halvings + 1):
        gamma = gamma0 * (0.5**j)
        if empirical_risk(params.perturbed(eta, gamma), data, loss) < floor:
            return gamma
    raise NoDecreaseFoundError(
        f"no decrease along the claimed descent direction (risk {base:.6e})"
    )


def _icqp_record(
    boundary: BoundaryAnalysis, pinned: np.ndarray, free: np.ndarray, batches: list[IcqpBatch]
) -> dict:
    """The trace record of the ICQP stage: the sweep's sign rows once, and
    its decisions as columns with one entry per pattern decided.

    Pattern n has the sign row ``sign_rows(pinned, free, n, n + 1)`` over
    the boundary pairs named in ``pairs`` ("k,i"). ``lam_min_s`` and ``tol``
    are None where no copositivity test ran. ``witness`` maps the index of
    each T2/T3 pattern to the record of its re-verification, and ``counts``
    counts the patterns per (verdict, psd, cp, cp_by).
    """
    codes = np.concatenate([batch.codes for batch in batches])
    _, q, r = batches[0].reduction
    record = {
        "stage": "icqp",
        "pairs": [f"{k},{i}" for k, i in zip(*boundary.pairs)],
        "pinned": pinned.tolist(),
        "free": free.tolist(),
        "constraints": {"q": q, "r": r},
    }
    for col, (name, labels) in enumerate(DECISIONS.items()):
        record[name] = np.array(labels, dtype=object)[codes[:, col]].tolist()
    tested = codes[:, 2] >= 0
    for name in ("lam_min_s", "tol"):
        values = np.concatenate([getattr(batch.copositivity, name) for batch in batches])
        record[name] = np.where(tested, values, None).tolist()
    record["witness"], first = {}, 0
    for batch in batches:
        for j, ic in batch.witnessed.items():
            record["witness"][first + j] = ic.diagnostics["witness"]
        first += len(batch)
    # "wrap" takes code -1 to the last name, None
    dims = [len(labels) for labels in DECISIONS.values()]
    counts = np.bincount(np.ravel_multi_index(codes.T, dims, mode="wrap"), minlength=np.prod(dims))
    seen = np.flatnonzero(counts)
    record["counts"] = [
        {**{name: DECISIONS[name][c] for name, c in zip(DECISIONS, key)}, "n": n}
        for key, n in zip(np.transpose(np.unravel_index(seen, dims)).tolist(),
                          counts[seen].tolist())
    ]
    return record


def sosp_check(
    params: NetworkParams,
    data: Dataset,
    loss: LossModel | None = None,
    config: CheckConfig | None = None,
) -> Verdict:
    """Certify the parameter point as local minimum, SOSP, or escapable.

    Executes the full test pipeline and returns a verdict with a
    machine-readable stage trace in ``diagnostics`` (boundary counts, box-QP
    solutions, flat-ray sets, QP verdicts and counts, timings). The
    outer-layer, box-QP and smooth-gradient entries record their zero test
    as ``{value, scale, tol}``, passing when value <= tol; the increasing
    entries record each ray's ``products`` against its sample's ``tol``
    (``first_order.unit_tests`` writes every unit's entries). The sweep of
    the sign patterns is one ``icqp`` record with a column per decision (see
    ``_icqp_record``), not an entry per pattern. ``stage_s`` holds the wall
    seconds of each stage that ran: "derivatives" (per-sample derivatives
    and boundary analysis), "first_order" (the outer-layer, box-QP,
    increasing and smooth-gradient tests), "ecqp" (assembly base and the
    equality-constrained QP) and "icqp" (the sign-pattern sweep); line
    searches are in ``elapsed`` only.

    A unit's first-order descent direction that the line search rejects
    is recorded as ``descent_rejected`` in its trace entry, and the check
    goes on to the next unit's; it raises NoDecreaseFoundError only when
    every such direction it found is rejected. The outer-layer direction,
    and the second-order ones, are final.
    """
    loss = loss if loss is not None else SquaredLoss()
    cfg = config if config is not None else DEFAULT_CONFIG
    t_start = time.perf_counter()
    stage_s: dict[str, float] = {}
    last_lap = t_start

    def lap(stage: str | None) -> None:
        """Add the wall time since the previous lap to ``stage``'s (None: to
        no stage's)."""
        nonlocal last_lap
        now = time.perf_counter()
        if stage is not None:
            stage_s[stage] = stage_s.get(stage, 0.0) + now - last_lap
        last_lap = now

    bundle = per_sample_derivatives(params, data, loss, cfg.boundary_tol)
    boundary = boundary_analysis(params, data, loss, bundle=bundle)
    lap("derivatives")
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
        "tolerances": asdict(TOLERANCES),
        "stage_s": stage_s,
    }

    def finish_descent(stage: str, eta: Perturbation) -> Verdict:
        lap(stage if stage in ("ecqp", "icqp") else "first_order")
        step = validate_descent(params, data, loss, eta, cfg.gamma0, cfg.gamma_halvings)
        first, second = expansion_terms(params, data, loss, eta, bundle=bundle)
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

    outer = outer_layer_fosp(params, bundle)
    trace.append({"stage": "outer_layer", "passed": outer.passed, **outer.margin})
    if not outer.passed:
        return finish_descent("outer_layer", outer.descent)

    pinned_by_unit, free_by_unit, rejected = [], [], []
    for entries, eta, pinned_k, free_k in unit_tests(params, boundary, bundle):
        trace.extend(entries)
        if eta is None:
            pinned_by_unit.append(pinned_k)
            free_by_unit.append(free_k)
            continue
        try:
            return finish_descent(entries[-1]["stage"], eta)
        except NoDecreaseFoundError as exc:
            lap(None)  # the line search belongs to no stage
            entries[-1]["descent_rejected"] = str(exc)
            rejected.append(exc)

    if rejected:
        raise NoDecreaseFoundError(
            f"none of the {len(rejected)} first-order descent directions tried decreases "
            f"the risk; the first: {rejected[0]}"
        )
    pinned = np.concatenate([np.zeros(0, dtype=int), *pinned_by_unit])
    free = np.concatenate([np.zeros(0, dtype=bool), *free_by_unit])
    lap("first_order")
    n_free = int(np.count_nonzero(free))
    n_flat = n_free + int(np.count_nonzero(pinned))
    diagnostics["K"] = n_free
    diagnostics["L"] = n_flat
    diagnostics["s_star"] = {e["k"]: e["s_star"] for e in trace if e["stage"] == "subdiff_qp"}

    sosp_flag = False
    flat_witness: Perturbation | None = None

    base = assembly_base(params, bundle, boundary)
    qp0 = assemble_so_qp(params, data, loss, boundary, np.zeros(boundary.total), base=base)
    ec = projected_spectrum_oracle(qp0.Q, qp0.A)
    if ec.witness is not None:
        verify_witness(qp0.Q, qp0.A, qp0.B, ec.witness, ec.verdict)
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
    lap("ecqp")

    if n_flat > 0:
        if n_free > cfg.k_max:
            raise PatternBudgetExceededError(
                f"2^{n_free} sign patterns exceed the budget 2^{cfg.k_max}"
            )
        diagnostics["n_patterns"] = 2**n_free
        sweep = icqp_sweep(base, ec, pinned, free, r_max=cfg.r_max)
        batches, descent = [], None
        for batch in sweep:
            batches.append(batch)
            diagnostics["n_icqp"] += len(batch)
            for ic in batch.witnessed.values():
                if ic.verdict == "T3":  # the last pattern of its batch
                    descent = Perturbation.unpack(ic.witness, params.dims)
                elif flat_witness is None:
                    sosp_flag, flat_witness = True, Perturbation.unpack(ic.witness, params.dims)
            if descent is not None:
                break
        trace.append(_icqp_record(boundary, pinned, free, batches))
        if descent is not None:
            return finish_descent("icqp", descent)
        lap("icqp")

    diagnostics["elapsed"] = time.perf_counter() - t_start
    if sosp_flag:
        first, second = expansion_terms(params, data, loss, flat_witness, bundle=bundle)
        diagnostics["flat_witness_first_order"] = first
        diagnostics["flat_witness_second_order"] = second
        return Verdict(kind="sosp", flat_witness=flat_witness, diagnostics=diagnostics)
    return Verdict(kind="local_minimum", diagnostics=diagnostics)
