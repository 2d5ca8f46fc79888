"""Fast built-in consistency checks, runnable without pytest.

Each check exercises one subsystem against an independent oracle (finite
differences, brute-force enumeration, eigendecompositions, line search).
Intended as a smoke test for installations: `sospcheck selftest`.
"""

from __future__ import annotations

import numpy as np

from .checker import sosp_check
from .first_order import solve_subdiff_qp
from .harness import construct_boundary_fosp, generate_dataset, init_params
from .linalg import sym_eig
from .network import (
    Dataset,
    Perturbation,
    SquaredLoss,
    boundary_analysis,
    empirical_risk,
    expansion_terms,
    per_sample_derivatives,
)
from .second_order import (
    ConeQP,
    _calculus,
    copositivity_classify,
    icqp_frame,
    pareto_spectrum,
    projected_spectrum_oracle,
    solve_ecqp_pgd,
    solve_icqp,
)


def _check_eig(rng) -> str | None:
    m = rng.standard_normal((8, 8))
    m = m + m.T
    dec = sym_eig(m)
    if np.abs(dec.reconstruct() - m).max() > 1e-10 * np.abs(m).max():
        return "eigendecomposition does not reconstruct its input"
    return None


def _check_expansion(rng) -> str | None:
    loss = SquaredLoss()
    params = init_params(3, 2, 2, seed=11)
    data = generate_dataset(3, 2, 6, seed=12)
    eta = Perturbation(
        rng.standard_normal(2), rng.standard_normal((2, 2)), rng.standard_normal((2, 4))
    )
    first, second = expansion_terms(params, data, loss, eta)
    base = empirical_risk(params, data, loss)
    t = 1e-6
    fd = (empirical_risk(params.perturbed(eta, t), data, loss) - base) / t
    if abs(fd - first) > 1e-4 * max(1.0, abs(first)):
        return f"directional derivative mismatch: {fd} vs {first}"
    return None


def _check_box_qp() -> str | None:
    loss = SquaredLoss()
    for mode in ("edge", "subdiff_descent"):
        point = construct_boundary_fosp(3, 1, 1, seed=1, mode=mode)
        bundle = per_sample_derivatives(point.params, point.data, loss)
        boundary = boundary_analysis(point.params, point.data, loss, bundle=bundle)
        res = solve_subdiff_qp(point.unit, point.params, boundary, bundle)
        ok = res.certifies_zero(res.scale) == (mode == "edge")
        if mode == "edge":
            ok = ok and np.abs(res.s_star - point.params.activation.s_plus).max() <= 1e-9
        if not ok:
            return f"box QP on the {mode} fixture: s* {res.s_star}, objective {res.objective:.3e}"
    return None


def _check_ecqp(rng) -> str | None:
    for trial in range(5):
        p = 6
        g = rng.standard_normal((p, p))
        q = g + g.T
        a = rng.standard_normal((2, p))
        got = solve_ecqp_pgd(q, a, seed=trial)
        want = projected_spectrum_oracle(q, a)
        if got.verdict != want.verdict:
            return f"PGD verdict {got.verdict} disagrees with spectrum {want.verdict}"
    return None


def _check_copositivity() -> str | None:
    # (S, kind, path): [[2, 1], [1, 2]] is PD, so the certificate decides;
    # [[1, 2], [2, 1]] is copositive but not PSD, so only enumeration can
    cases = [
        (np.eye(2), "CP1", "pd_certificate"),
        (np.array([[2.0, 1.0], [1.0, 2.0]]), "CP1", "pd_certificate"),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), "CP1", "pareto"),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), "CP2", "pareto"),
        (np.array([[1.0, -3.0], [-3.0, 1.0]]), "CP3", "pareto"),
    ]
    for mat, want, path in cases:
        res = copositivity_classify(mat)
        got = (res.kind, res.diagnostics["cp_by"])
        if got != (want, path):
            return f"copositivity of {mat.tolist()} came out {got}, expected {(want, path)}"
        # the minimal Pareto eigenvalue, enumerated, must have the verdict's sign
        lam = min(pair.value for pair in pareto_spectrum(mat)[0])
        tol = res.diagnostics["tol"]
        if (lam > tol, lam < -tol) != (want == "CP1", want == "CP3"):
            return f"copositivity of {mat.tolist()} is {want}, minimal Pareto value {lam:.3e}"
    return None


def _check_icqp() -> str | None:
    qp = ConeQP(np.diag([-1.0, 1.0]), np.zeros((0, 2)), np.array([[1.0, 0.0]]))
    res = solve_icqp(qp)
    if res.verdict != "T3":
        return f"indefinite cone form classified {res.verdict}, expected T3"
    # R22 = diag(1, 0) and R12 sees its null vector: unbounded below (PD3)
    q_mat = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    res = solve_icqp(ConeQP(q_mat, np.zeros((0, 3)), np.eye(3)[:1]))
    if (res.verdict, res.diagnostics["psd"]) != ("T3", "PD3"):
        return f"null-coupled cone form classified {res.verdict}/{res.diagnostics['psd']}"
    # R22 = diag(1, 0) and R12 = 0 is blind to its null vector (PD2): the
    # flat witness lies on the face, B eta = 0
    res = solve_icqp(ConeQP(np.diag([1.0, 1.0, 0.0]), np.zeros((0, 3)), np.eye(3)[:1]))
    if (res.verdict, res.diagnostics["psd"]) != ("T2", "PD2") or abs(res.witness[0]) > 1e-12:
        return f"flat cone form classified {res.verdict}/{res.diagnostics['psd']}"
    # x^2 + 4xy + y^2 is not PSD but is strictly positive for x, y >= 0, and
    # the equality row leaves z = -w with positive curvature: T1 by copositivity
    q_mat = np.eye(4)
    q_mat[0, 1] = q_mat[1, 0] = 2.0
    qp = ConeQP(q_mat, np.array([[0.0, 0.0, 1.0, 1.0]]), np.eye(4)[:2])
    res = solve_icqp(qp)
    if res.verdict != "T1" or res.diagnostics["cp"] != "CP1":
        return f"copositive cone form classified {res.verdict}, expected T1"
    # forms that differ by B^T X + X^T B agree on the face {A eta = 0,
    # B eta = 0}, so one frame serves both, here a T1 and a T3 cone: the
    # Schur complement it gives each must be as copositive as their own
    x = np.array([[-2.0, 0.0, 0.5, 0.0], [0.0, 0.5, -0.5, 1.0]])
    frame = icqp_frame(qp)
    for form, want in ((q_mat, ("T1", "CP1")), (q_mat + qp.B.T @ x + x.T @ qp.B, ("T3", "CP3"))):
        fresh = solve_icqp(ConeQP(form, qp.A, qp.B))
        shared = copositivity_classify(_calculus(frame, form).reduce(np.ones((1, 2)))[2][0]).kind
        got = (fresh.verdict, fresh.diagnostics["cp"])
        if got != want or shared != want[1]:
            return f"a shared frame gave {shared}, a fresh one {got}, expected {want}"
    return None


def _check_pipeline() -> str | None:
    point = construct_boundary_fosp(3, 2, 1, seed=5, mode="interior")
    verdict = sosp_check(point.params, point.data)
    if verdict.diagnostics["M"] != 1 or verdict.diagnostics["n_ecqp"] != 1:
        return "constructed boundary point did not reach the second-order stage cleanly"
    perturbed = Dataset(point.data.inputs, point.data.labels + 0.5)
    verdict2 = sosp_check(point.params, perturbed)
    if verdict2.kind != "descent":
        return "perturbed labels should produce a descent verdict"
    return None


def run_selftest(verbose: bool = False) -> int:
    rng = np.random.default_rng(2024)
    checks = [
        ("symmetric eigendecomposition", lambda: _check_eig(rng)),
        ("directional expansion vs finite differences", lambda: _check_expansion(rng)),
        ("per-unit box QP on edge and subdiff_descent fixtures", _check_box_qp),
        ("equality-constrained QP vs spectrum oracle", lambda: _check_ecqp(rng)),
        ("copositivity hand cases", _check_copositivity),
        ("inequality-constrained QP", _check_icqp),
        ("end-to-end pipeline on a constructed fixture", _check_pipeline),
    ]
    failures = 0
    for name, fn in checks:
        err = fn()
        status = "ok" if err is None else f"FAIL ({err})"
        if verbose:
            print(f"  {name}: {status}")
        failures += err is not None
    if verbose:
        print(f"selftest: {len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 2
