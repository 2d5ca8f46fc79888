"""Benchmark workloads: seeded inputs, set-up, and output checks.

Three workloads stress different layers of the certifier:

* ``desk_trained`` -- the paper's own experiment: (d_x, d_h, d_y, m) =
  (10, 1, 1, 1000) data trained by full-batch Adam on the default schedule,
  then checked at boundary tolerance 1e-5. Training dominates, and trained
  points stop at the first-order stage.
* ``large_m_certify`` -- exact stationary points at large m, made by
  replicating small constructed fixtures that are strict local minima. The
  m-proportional Python loops (QP assembly, per-sample derivatives, advisory
  expansions) dominate; the second-order solvers are cheap.
* ``flat_rays_k7`` -- seven orthogonal boundary samples, so 2^7 ICQPs each
  with a 7 x 7 copositivity test; pattern enumeration and Pareto spectra
  dominate, the m-loops are negligible.

The certify workloads build every fixture from a fixed number of candidate
construction seeds, so that the set-up work, and the mix of fixtures the
check is timed on, vary little from one workload seed to the next.

Everything here is derived from the workload seed alone; the library sees
only the generated parameters and data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sospcheck import checker, harness, network
from sospcheck.errors import (
    ConstructionFailedError,
    GeneralPositionViolationError,
    InternalInconsistencyError,
    NoDecreaseFoundError,
)

DESK_BOUNDARY_TOL = 1e-5
LARGE_M_REPLICAS = 500  # m = 2 + 22 * 500 = 11,002
DESK_POOL = 16  # more points than one run has time to train
# Adam iterations per loop step on the certify workloads: about 0.4 s of
# training at each workload's m, so the training samples cover a fair share
# of the run instead of a few instants of it
LARGE_M_TRAIN_ITERS = 400
FLAT_RAYS_TRAIN_ITERS = 4000
# construction seeds for workload seed s are s * SEED_STRIDE + j, j = 0, 1, ...
SEED_STRIDE = 1000
# candidate construction seeds every certify set-up tries; more are tried
# only while no candidate has been accepted. A flat_rays_k7 candidate makes
# a single construction attempt, which succeeds about one time in 80, so
# that set-up does nearly the same work for every workload seed.
LARGE_M_CANDIDATES = 5
FLAT_RAYS_CANDIDATES = 200
MAX_CONSTRUCTION_SEEDS = SEED_STRIDE
WITNESS_REL_TOL = 1e-6


class WorkloadGuardError(RuntimeError):
    """The workload's inputs do not exercise the layers it exists to measure."""


@dataclass
class Instance:
    """One parameter point to certify, plus what its construction guarantees."""

    label: str
    params: network.NetworkParams  # point that is checked (desk: the Adam start)
    data: network.Dataset
    config: checker.CheckConfig
    adam: harness.AdamConfig
    trains_point: bool  # desk: the trained point replaces ``params`` before checking
    expect: dict | None = None  # {"M", "K", "L"} guaranteed by construction


@dataclass
class Pool:
    instances: list
    construction_attempts: int = 0


def fingerprint(pool: Pool) -> float:
    """Sum of every input array, to tell whether two set-ups built the same pool."""
    total = 0.0
    for inst in pool.instances:
        for arr in (inst.params.W1, inst.params.b1, inst.params.W2, inst.params.b2,
                    inst.data.inputs, inst.data.labels):
            total += float(np.sum(arr))
    return total


# ---------------------------------------------------------------------------
# Replication transform
# ---------------------------------------------------------------------------


def replicate(point, copies: int) -> network.Dataset:
    """Grow a constructed stationary point to ``m = M + copies * (m0 - M)``.

    Every non-boundary sample is repeated ``copies`` times and each
    boundary sample's label residual (output minus label) is multiplied by
    ``copies``. Every first-order sum then scales by ``copies``, so the
    point stays exactly stationary in exact arithmetic, and the boundary
    samples keep their exact-zero preactivations.
    """
    n_b = len(point.boundary_samples)
    if list(point.boundary_samples) != list(range(n_b)):
        raise ValueError("boundary samples must lead the dataset")
    params, data = point.params, point.data
    outputs = params.activation.h(data.inputs @ params.W1.T + params.b1) @ params.W2.T + params.b2
    labels_b = outputs[:n_b] - copies * (outputs[:n_b] - data.labels[:n_b])
    inputs = np.vstack([data.inputs[:n_b], np.tile(data.inputs[n_b:], (copies, 1))])
    labels = np.vstack([labels_b, np.tile(data.labels[n_b:], (copies, 1))])
    return network.Dataset(inputs, labels)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def _construct_fixtures(seed: int, candidates: int, accept=None, **kwargs):
    """Fixtures from construction seeds ``seed * SEED_STRIDE + j``.

    Tries ``j = 0 .. candidates - 1`` and keeps every construction that
    succeeds and that ``accept`` (if given) accepts; past those, steps on
    only until one fixture is kept. Returns (fixtures, seeds tried).
    """
    fixtures = []
    for j in range(MAX_CONSTRUCTION_SEEDS):
        if j >= candidates and fixtures:
            return fixtures, j
        try:
            point = harness.construct_boundary_fosp(seed=seed * SEED_STRIDE + j, **kwargs)
        except ConstructionFailedError:
            continue
        if accept is None or accept(point):
            fixtures.append(point)
    raise WorkloadGuardError(f"no construction succeeded for workload seed {seed}")


def setup_desk_trained(seed: int) -> Pool:
    instances = []
    for j in range(DESK_POOL):
        s = seed * SEED_STRIDE + j
        data = harness.generate_dataset(10, 1, 1000, seed=s)
        start = harness.init_params(10, 1, 1, seed=s + 10_000)
        instances.append(
            Instance(
                label=f"desk seed {s}",
                params=start,
                data=data,
                config=checker.CheckConfig(boundary_tol=DESK_BOUNDARY_TOL),
                adam=harness.AdamConfig(),
                trains_point=True,
            )
        )
    return Pool(instances)


def certify_instance(label, point, data, n_boundary, train_iters) -> Instance:
    return Instance(
        label=label,
        params=point.params,
        data=data,
        config=checker.CheckConfig(),
        adam=harness.AdamConfig(iters=train_iters, record_every=train_iters),
        trains_point=False,
        expect={"M": n_boundary, "K": n_boundary, "L": n_boundary},
    )


def is_strict_local_minimum(point) -> bool:
    """Whether the unreplicated fixture checks as a strict local minimum.

    ``large_m_certify`` replicates only these. At a fixture that checks as
    an SOSP, the copositivity matrices hold entries that are zero in exact
    arithmetic, and the rounding error in them grows with m. Once it passes
    ``pareto_spectrum``'s fixed complementarity tolerance the library raises
    InternalInconsistencyError ("empty Pareto spectrum") instead of
    returning a verdict; ``test_benchmarks.TestLargeMFixtures`` reproduces it.
    """
    return checker.sosp_check(point.params, point.data).kind == "local_minimum"


def setup_large_m_certify(seed: int) -> Pool:
    fixtures, tried = _construct_fixtures(
        seed, LARGE_M_CANDIDATES, is_strict_local_minimum,
        d_x=6, d_h=2, d_y=1, n_boundary=2, units=[0, 1], mode="orthogonal",
    )
    instances = [
        certify_instance(f"large_m {j}", point, replicate(point, LARGE_M_REPLICAS), 2,
                         LARGE_M_TRAIN_ITERS)
        for j, point in enumerate(fixtures)
    ]
    return Pool(instances, construction_attempts=tried)


def setup_flat_rays_k7(seed: int) -> Pool:
    fixtures, tried = _construct_fixtures(
        seed, FLAT_RAYS_CANDIDATES,
        d_x=10, d_h=2, d_y=1, n_boundary=7, units=[0] * 4 + [1] * 3, mode="orthogonal",
        max_attempts=1,
    )
    instances = [
        certify_instance(f"flat_rays {j}", point, point.data, 7, FLAT_RAYS_TRAIN_ITERS)
        for j, point in enumerate(fixtures)
    ]
    return Pool(instances, construction_attempts=tried)


SETUPS = {
    "desk_trained": setup_desk_trained,
    "large_m_certify": setup_large_m_certify,
    "flat_rays_k7": setup_flat_rays_k7,
}


# ---------------------------------------------------------------------------
# Guard and output checks
# ---------------------------------------------------------------------------


def guard_certify(verdict, expect: dict) -> None:
    """Refuse a certify workload whose point no longer reaches the cone QPs.

    The point must pass the outer-layer and every box-QP test, and the
    trace must hold the one ECQP and all 2^K ICQPs; otherwise a rounding
    regression could quietly turn it into a first-order descent workload.
    """
    trace = verdict.diagnostics["trace"]
    stages = [e["stage"] for e in trace]
    outer = [e for e in trace if e["stage"] == "outer_layer"]
    subdiff = [e for e in trace if e["stage"] == "subdiff_qp"]
    n_icqp = verdict.diagnostics["n_icqp"]
    problems = []
    if not outer or not all(e["passed"] for e in outer):
        problems.append("outer-layer test did not pass")
    if not subdiff or not all(e["certified"] for e in subdiff):
        problems.append("a box QP did not certify zero")
    if stages.count("ecqp") != 1:
        problems.append(f"{stages.count('ecqp')} ECQPs in the trace")
    if n_icqp != 2 ** expect["K"]:
        problems.append(f"{n_icqp} ICQPs in the trace, expected {2 ** expect['K']}")
    if problems:
        raise WorkloadGuardError(
            f"verdict {verdict.kind}/{verdict.stage}: " + "; ".join(problems)
        )


def _expansion_scale(params, data, eta) -> tuple[float, float]:
    """Magnitudes the first and second expansion coefficients are compared to.

    Sums of the absolute per-sample contributions of a squared-loss risk
    along ``eta``, taking every hidden slope at its largest value.
    """
    pre = data.inputs @ params.W1.T + params.b1
    hidden = params.activation.h(pre)
    g = np.linalg.norm(hidden @ params.W2.T + params.b2 - data.labels, axis=1)
    slope = max(params.activation.box)
    t_lin = np.abs(data.xbar @ eta.v.T) * slope  # (m, d_h)
    dy1 = (
        np.abs(hidden) @ np.linalg.norm(eta.delta2_matrix, axis=0)
        + np.linalg.norm(eta.delta2_bias)
        + t_lin @ np.linalg.norm(params.W2, axis=0)
    )
    dy2 = t_lin @ np.linalg.norm(eta.delta2_matrix, axis=0)
    return float(g @ dy1), float(g @ dy2 + 0.5 * dy1 @ dy1)


def output_problems(inst: Instance, point, verdict) -> list[str]:
    """Checks on one verdict that do not trust the checker's own diagnostics."""
    loss = network.SquaredLoss()
    problems = []
    diag = verdict.diagnostics
    if inst.expect is not None:
        for key, want in inst.expect.items():
            if diag.get(key) != want:
                problems.append(f"{key}={diag.get(key)} but the construction guarantees {want}")
    if verdict.kind == "descent":
        if verdict.step is None:
            problems.append("descent verdict without a validated step")
        else:
            before = network.empirical_risk(point, inst.data, loss)
            after = network.empirical_risk(
                point.perturbed(verdict.direction, verdict.step), inst.data, loss
            )
            if not after < before:
                problems.append(f"descent step does not lower the risk ({before!r} -> {after!r})")
    elif verdict.kind == "sosp":
        eta = verdict.flat_witness
        if eta is None or eta.norm() == 0.0:
            problems.append("sosp verdict without a nonzero flat witness")
        else:
            eta = eta.scaled(1.0 / eta.norm())
            first, second = network.expansion_terms(
                point, inst.data, loss, eta, inst.config.boundary_tol
            )
            s1, s2 = _expansion_scale(point, inst.data, eta)
            if abs(first) > WITNESS_REL_TOL * max(s1, 1e-300):
                problems.append(f"flat witness first-order term {first:.3e} (scale {s1:.3e})")
            if abs(second) > WITNESS_REL_TOL * max(s2, 1e-300):
                problems.append(f"flat witness second-order term {second:.3e} (scale {s2:.3e})")
    elif verdict.kind != "local_minimum":
        problems.append(f"unknown verdict kind {verdict.kind!r}")
    return problems


# Outcomes of a check at a trained point that ``harness.boundary_statistics``
# records as a verdict of kind "error" rather than raising: trained points
# sit near the certification tolerances.
TRAINED_POINT_ERRORS = (
    NoDecreaseFoundError, InternalInconsistencyError, GeneralPositionViolationError,
)


def verdict_key(verdict) -> tuple:
    """What must repeat exactly when the same instance is checked again."""
    return (verdict.kind, verdict.stage, verdict.step,
            verdict.diagnostics.get("n_ecqp"), verdict.diagnostics.get("n_icqp"))


def error_key(exc: Exception) -> tuple:
    """The key of a check that ended in one of TRAINED_POINT_ERRORS."""
    return ("error", str(exc))


def statistics_verdict(key: tuple) -> dict:
    """The verdict ``boundary_statistics(full_check=True)`` records for a key."""
    if key[0] == "error":
        return {"kind": "error", "detail": key[1]}
    return {"kind": key[0], "stage": key[1]}


# ---------------------------------------------------------------------------
# Exact work counters from one verdict
# ---------------------------------------------------------------------------

WORK_COUNTERS = (
    "checker.sosp_check.n_ecqp",
    "checker.sosp_check.n_icqp",
    "first_order.solve_subdiff_qp.iterations",
    "second_order.solve_ecqp_pgd.iterations",
    "second_order.solve_ecqp_pgd.fallbacks",
    "second_order.pareto_spectrum.subsets",
    "checker.validate_descent.halvings",
)


def work_counts(verdict, config) -> dict:
    """Per-layer work counters of one check, keyed by metric name."""
    diag = verdict.diagnostics
    counts = dict.fromkeys(WORK_COUNTERS, 0)
    counts["checker.sosp_check.n_ecqp"] = diag["n_ecqp"]
    counts["checker.sosp_check.n_icqp"] = diag["n_icqp"]
    for entry in diag["trace"]:
        if entry["stage"] == "ecqp":
            counts["second_order.solve_ecqp_pgd.iterations"] += entry["iterations"] or 0
            counts["second_order.solve_ecqp_pgd.fallbacks"] += int(bool(entry["fallback"]))
        elif entry["stage"] == "icqp" and entry["cp"] is not None:
            # the copositivity test enumerates every principal subset of the
            # r x r Schur complement
            counts["second_order.pareto_spectrum.subsets"] += 2 ** entry["constraints"]["r"] - 1
        elif entry["stage"] == "subdiff_qp":
            counts["first_order.solve_subdiff_qp.iterations"] += entry["iterations"]
    if verdict.kind == "descent" and verdict.step is not None:
        counts["checker.validate_descent.halvings"] = round(math.log2(config.gamma0 / verdict.step))
    return counts
