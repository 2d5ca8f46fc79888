"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np

from sospcheck.checker import sosp_check
from sospcheck.errors import NoDecreaseFoundError
from sospcheck.harness import (
    AdamConfig,
    StatThresholds,
    TrendConfig,
    adam_train,
    construct_boundary_fosp,
    construct_indefinite_fosp,
    construct_smooth_fosp,
    generate_dataset,
    init_params,
    run_boundary_trend,
)
from sospcheck.network import (
    NetworkParams,
    Perturbation,
    SquaredLoss,
    boundary_analysis,
    empirical_risk,
    expansion_terms,
    per_sample_derivatives,
    scaling_direction,
)
from sospcheck.second_order import (
    ConeQP,
    assemble_so_qp,
    copositivity_classify,
    pareto_spectrum,
    projected_spectrum_oracle,
    solve_ecqp_pgd,
    solve_icqp,
)

LOSS = SquaredLoss()


def report(num, slug, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num} ({slug}): {status}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def random_direction(rng, dims):
    d_x, d_h, d_y = dims
    eta = Perturbation(
        rng.standard_normal(d_y),
        rng.standard_normal((d_y, d_h)),
        rng.standard_normal((d_h, d_x + 1)),
    )
    return eta.scaled(1.0 / eta.norm())


def test_criterion_1_expansion_oracle():
    """First/second-order coefficients agree with one-sided finite differences."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(1001)
    checked = 0
    for case in range(100):
        if case % 2 == 0:  # differentiable random point
            d_x = int(rng.integers(1, 9))
            d_h = int(rng.integers(1, 5))
            d_y = int(rng.integers(1, 4))
            m = int(rng.integers(1, 21))
            params = init_params(d_x, d_h, d_y, seed=case)
            data = generate_dataset(d_x, d_y, m, seed=case + 9000)
        else:  # constructed exact-boundary point within the m <= 20 budget
            mode = ("interior", "edge", "orthogonal")[case % 3]
            d_y = 1 + case % 2
            point = construct_boundary_fosp(3, 2, d_y, seed=case, mode=mode)
            params, data = point.params, point.data
            assert data.m <= 20
        bundle = per_sample_derivatives(params, data, LOSS)
        eta = random_direction(rng, params.dims)
        first, second = expansion_terms(params, data, LOSS, eta, bundle=bundle)
        base = empirical_risk(params, data, LOSS)
        curvature_scale = max(1.0, abs(second))
        for t in (1e-4, 1e-5, 1e-6):
            fd = (empirical_risk(params.perturbed(eta, t), data, LOSS) - base) / t
            assert abs(fd - first) <= 10.0 * t * curvature_scale, (case, t)
        t = 1e-4
        fitted = (
            empirical_risk(params.perturbed(eta, t), data, LOSS) - base - t * first
        ) / t**2
        assert abs(fitted - second) <= 0.01 * max(abs(second), 1e-6), case
        checked += 1
    elapsed = time.perf_counter() - t_start
    report(1, "expansion-oracle", checked == 100 and elapsed < 30.0,
           f"{checked} configs, {elapsed:.1f}s")


def test_criterion_2_descent_soundness():
    """Every descent verdict validates with an actual risk decrease."""
    t_start = time.perf_counter()
    validated = 0
    # 200 random non-stationary points
    for seed in range(200):
        rng = np.random.default_rng((2001, seed))
        d_x = int(rng.integers(1, 4))
        d_h = int(rng.integers(1, 3))
        params = init_params(d_x, d_h, 1, seed=seed + 31)
        data = generate_dataset(d_x, 1, int(rng.integers(3, 9)), seed=seed + 77)
        verdict = sosp_check(params, data)  # raises NoDecreaseFoundError on failure
        assert verdict.kind == "descent" and verdict.step is not None
        validated += 1
    # 50 constructed saddle-at-boundary fixtures spanning the descent stages
    for j in range(20):
        point = construct_boundary_fosp(3, 2, 1, seed=j, mode="ray_descent")
        verdict = sosp_check(point.params, point.data)
        assert verdict.kind == "descent" and verdict.step is not None
        assert verdict.stage == "increasing"
        validated += 1
    for j in range(10):
        point = construct_boundary_fosp(3, 2, 1, seed=j, mode="subdiff_descent")
        verdict = sosp_check(point.params, point.data)
        assert verdict.kind == "descent" and verdict.step is not None
        assert verdict.stage == "subdiff_qp"
        validated += 1
    for j in range(20):
        point = construct_indefinite_fosp(3, 2, 2, seed=j)
        verdict = sosp_check(point.params, point.data)
        assert verdict.kind == "descent" and verdict.step is not None
        assert verdict.stage in ("ecqp", "icqp")
        validated += 1
    elapsed = time.perf_counter() - t_start
    report(2, "descent-soundness", validated == 250 and elapsed < 120.0,
           f"{validated}/250 validated, {elapsed:.1f}s")


def _random_ecqp(rng, p, q, kind):
    a = rng.standard_normal((q, p)) if q else np.zeros((0, p))
    if kind == "t3":
        g = rng.standard_normal((p, p))
        q_mat = g + g.T
    elif kind == "t1":
        g = rng.standard_normal((p + 2, p))
        q_mat = g.T @ g + np.eye(p)
    else:  # t2: PSD with a null direction inside null(A)
        proj = np.eye(p) - np.linalg.pinv(a) @ a if q else np.eye(p)
        u = proj @ rng.standard_normal(p)
        u /= np.linalg.norm(u)
        g = rng.standard_normal((p + 2, p)) @ (np.eye(p) - np.outer(u, u))
        q_mat = g.T @ g
    return q_mat, a


def test_criterion_3_ecqp_cross_oracle():
    """PGD and the projected-spectrum oracle agree; divergence is exponential."""
    rng = np.random.default_rng(3001)
    kinds = ("t1", "t2", "t3")
    agree = 0
    fallbacks = 0
    seen = set()
    slope_checked = 0
    for trial in range(200):
        p = int(rng.integers(6, 21))
        q = int(rng.integers(0, 6))
        q_mat, a_mat = _random_ecqp(rng, p, q, kinds[trial % 3])
        got = solve_ecqp_pgd(q_mat, a_mat, seed=trial)
        want = projected_spectrum_oracle(q_mat, a_mat)
        seen.add(want.verdict)
        if got.diagnostics.get("fallback"):
            fallbacks += 1
            continue
        assert got.verdict == want.verdict, trial
        agree += 1
        if got.verdict == "T3":
            norms = np.array(got.diagnostics["norms"])
            peak = int(np.argmax(norms))
            if peak >= 8:
                grow = np.log(norms[: peak + 1])
                x = np.arange(len(grow))
                half = len(grow) // 2
                slope = np.polyfit(x[half:], grow[half:], 1)[0]
                assert slope > 0, trial
                slope_checked += 1
    ok = fallbacks < 10 and seen == {"T1", "T2", "T3"} and slope_checked > 0
    report(3, "ecqp-cross-oracle", ok,
           f"{agree} agreements, {fallbacks} fallbacks, {slope_checked} slope checks")


def test_criterion_4_copositivity_suite():
    """Copositivity verdicts never contradict dense simplex sampling."""
    rng = np.random.default_rng(4001)
    contradictions = 0
    for trial in range(500):
        r = int(rng.integers(1, 5))
        style = trial % 3
        g = rng.standard_normal((r, r))
        if style == 0:
            s = g + g.T
        elif style == 1:
            s = np.abs(g) + np.abs(g).T  # nonnegative entries: copositive
        else:
            s = g.T @ g - 0.1 * np.eye(r)
        res = copositivity_classify(s)
        samples = rng.dirichlet(np.ones(r), size=100_000)
        min_val = float(np.einsum("ij,jk,ik->i", samples, s, samples).min())
        has_negative = min_val < -1e-8
        if (res.kind == "CP3") != has_negative:
            contradictions += 1

    # hand-enumerated Pareto spectra
    pairs, _ = pareto_spectrum(np.diag([2.0, -1.0]))
    hand_diag = sorted(p.value for p in pairs) == [-1.0, 2.0]
    pairs, _ = pareto_spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))
    hand_coupled = sorted(round(p.value, 12) for p in pairs) == [0.0, 0.0, 1.0]
    pairs, _ = pareto_spectrum(np.array([[1.0, -3.0], [-3.0, 1.0]]))
    hand_negative = [round(p.value, 12) for p in pairs] == [-2.0]
    ok = contradictions == 0 and hand_diag and hand_coupled and hand_negative
    report(4, "copositivity-suite", ok,
           f"500 sampled matrices, {contradictions} contradictions")


def _sample_feasible_cone(rng, qp, n_samples=100_000):
    p, q, r = qp.shape
    proj = np.eye(p) - np.linalg.pinv(qp.A) @ qp.A if q else np.eye(p)
    accepted = []
    need = n_samples
    for _ in range(60):
        draw = rng.standard_normal((max(2 * need, 10_000), p)) @ proj.T
        if r:
            mask = (draw @ qp.B.T >= 0).all(axis=1)
            draw = draw[mask]
        if len(draw):
            accepted.append(draw)
            need -= len(draw)
        if need <= 0:
            break
    pts = np.vstack(accepted)[:n_samples]
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    pts = pts[norms[:, 0] > 0] / norms[norms[:, 0] > 0]
    return pts


def test_criterion_5_icqp_suite():
    """Cone-QP verdicts never contradict feasible-cone sampling; witnesses re-verify."""
    rng = np.random.default_rng(5001)
    kinds = ("t3", "t1", "t2")
    t3_count = 0
    for trial in range(200):
        p = int(rng.integers(4, 13))
        q = int(rng.integers(0, min(4, p - 2) + 1))
        r = int(rng.integers(1, min(3, p - q - 1) + 1))
        while True:
            a = rng.standard_normal((q, p)) if q else np.zeros((0, p))
            b = rng.standard_normal((r, p))
            if np.linalg.matrix_rank(np.vstack([a, b])) == q + r:
                break
        q_mat, _ = _random_ecqp(rng, p, q, kinds[trial % 3])
        qp = ConeQP(q_mat, a, b)
        res = solve_icqp(qp)
        samples = _sample_feasible_cone(rng, qp, 100_000)
        min_val = float(np.einsum("ij,jk,ik->i", samples, qp.Q, samples).min())
        if min_val < -1e-8:
            assert res.verdict == "T3", (trial, res.verdict, min_val)
        if res.verdict == "T3":
            t3_count += 1
            w = res.witness
            n = np.linalg.norm(w)
            qnorm = float(np.abs(np.linalg.eigvalsh(qp.Q)).max())
            assert np.linalg.norm(qp.A @ w) <= 1e-8 * n
            assert (qp.B @ w).min() >= -1e-8 * n
            assert w @ qp.Q @ w <= -1e-10 * qnorm * n * n
    report(5, "icqp-suite", t3_count > 0, f"200 instances, {t3_count} T3 witnesses re-verified")


def test_criterion_6_stage_accounting():
    """QP counts match the flat-ray structure exactly."""
    # no flat rays: exactly one equality-constrained QP
    point = construct_boundary_fosp(3, 2, 1, seed=0, mode="interior")
    v0 = sosp_check(point.params, point.data)
    ok_l0 = (
        v0.diagnostics["L"] == 0
        and v0.diagnostics["n_ecqp"] == 1
        and v0.diagnostics["n_icqp"] == 0
    )
    # K = 1, L = 1: one equality QP plus 2^1 inequality QPs
    point = construct_boundary_fosp(3, 1, 1, seed=2, mode="orthogonal")
    v1 = sosp_check(point.params, point.data)
    stages = [t["stage"] for t in v1.diagnostics["trace"]]
    ok_k1 = (
        v1.diagnostics["K"] == 1
        and v1.diagnostics["L"] == 1
        and v1.diagnostics["n_ecqp"] == 1
        and (v1.kind == "descent" or v1.diagnostics["n_icqp"] == 2)
        and stages.count("ecqp") == v1.diagnostics["n_ecqp"]
        and stages.count("icqp") == v1.diagnostics["n_icqp"]
    )
    report(6, "stage-accounting", ok_l0 and ok_k1,
           f"L=0 counts ({v0.diagnostics['n_ecqp']},{v0.diagnostics['n_icqp']}), "
           f"K=1 counts ({v1.diagnostics['n_ecqp']},{v1.diagnostics['n_icqp']})")


def _certified_fosp_pool():
    """Certified first-order stationary points: trained where attainable, constructed otherwise."""
    pool = []
    trained = 0
    for seed in range(30):
        if trained >= 3:
            break
        data = generate_dataset(2, 1, 2, seed=seed)
        p0 = init_params(2, 2, 1, seed=seed + 50)
        params, _ = adam_train(
            p0, data, config=AdamConfig(iters=12_000, decay_every=1_000, record_every=12_000)
        )
        try:
            verdict = sosp_check(params, data)
        except NoDecreaseFoundError:
            continue
        if verdict.kind in ("sosp", "local_minimum"):
            pool.append(("trained", params, data))
            trained += 1
    for seed in range(6):
        point = construct_smooth_fosp(3, 2, 1, seed=seed)
        pool.append(("constructed-smooth", point.params, point.data))
    modes = ["interior", "interior", "interior", "edge", "edge", "orthogonal", "orthogonal"]
    for seed, mode in enumerate(modes):
        point = construct_boundary_fosp(3, 2, 1 + seed % 2, seed=seed + 100, mode=mode)
        pool.append((f"constructed-{mode}", point.params, point.data))
    for seed in range(4):
        point = construct_smooth_fosp(4, 2, 2, seed=seed + 40)
        pool.append(("constructed-smooth", point.params, point.data))
    return pool[:20]


def test_criterion_7_scale_invariance():
    """Rescaling directions are flat at every certified stationary point, and the
    unconstrained second-order form at differentiable ones is never strictly positive."""
    pool = _certified_fosp_pool()
    assert len(pool) == 20
    flat_ok = 0
    diff_checked = 0
    for label, params, data in pool:
        bundle = per_sample_derivatives(params, data, LOSS)
        scale = max(1.0, abs(empirical_risk(params, data, LOSS)))
        for k in range(params.dims[1]):
            eta = scaling_direction(params, k)
            if eta.norm() == 0.0:
                continue
            first, second = expansion_terms(params, data, LOSS, eta, bundle=bundle)
            assert abs(first) <= 1e-8 * scale, (label, k, first)
            assert abs(second) <= 1e-8 * scale, (label, k, second)
        flat_ok += 1
        if not bundle.boundary_mask.any():
            # rank-deficiency corollary: with the invariance rows dropped, the
            # all-zero-pattern form has the scaling directions in its null space
            boundary = boundary_analysis(params, data, LOSS, bundle=bundle)
            qp = assemble_so_qp(
                params, data, LOSS, boundary, np.zeros(boundary.total), bundle=bundle
            )
            res = solve_ecqp_pgd(qp.Q, np.zeros((0, qp.Q.shape[0])), seed=diff_checked)
            assert res.verdict != "T1", label
            diff_checked += 1
    report(7, "scale-invariance", flat_ok == 20 and diff_checked > 0,
           f"{flat_ok} certified points, {diff_checked} differentiable never-T1 checks")


def test_criterion_8_boundary_trend():
    """Desk-scale training reproduces the boundary-count trend."""
    t_start = time.perf_counter()
    agg = run_boundary_trend(
        TrendConfig(
            d_x=10, d_h=1, d_y=1, m=1000, runs=10, seed=0,
            adam=AdamConfig(iters=20_000, decay_every=2_000),
            thresholds=StatThresholds(),
        )
    )
    elapsed = time.perf_counter() - t_start
    per_run_ok = all(
        r["k_hat"] <= r["l_hat"] <= r["m_hat"] for r in agg["reports"]
    )
    zero_l_runs = sum(r["l_hat"] == 0 for r in agg["reports"])
    ok = (
        agg["avg_m"] >= 1.0
        and zero_l_runs >= 8
        and per_run_ok
        and elapsed < 600.0
    )
    report(8, "boundary-trend", ok,
           f"avg M {agg['avg_m']:.2f}, L=0 in {zero_l_runs}/10 runs, {elapsed:.0f}s")


def test_criterion_9_known_verdicts():
    """Known-verdict fixtures across 20 seeds each."""
    sosp_ok = 0
    outer_ok = 0
    second_ok = 0
    for seed in range(20):
        rng = np.random.default_rng((9001, seed))
        x = 0.5 + float(rng.random())
        params = NetworkParams(
            W1=np.array([[1.0 + rng.random()]]),
            b1=np.array([0.2 * rng.random()]),
            W2=np.array([[1.0 + rng.random()]]),
            b2=np.array([0.1 * rng.random()]),
        )
        from sospcheck.network import Dataset, forward

        y = forward(params, np.array([x]))[0]
        data = Dataset(np.array([[x]]), np.array([y]))
        verdict = sosp_check(params, data)
        sosp_ok += verdict.kind == "sosp"

        perturbed = Dataset(data.inputs, data.labels + 1.0)
        verdict = sosp_check(params, perturbed)
        outer_ok += verdict.kind == "descent" and verdict.stage == "outer_layer"

    for seed in range(20):
        point = construct_indefinite_fosp(3, 2, 2, seed=seed)
        verdict = sosp_check(point.params, point.data)
        good = (
            verdict.kind == "descent"
            and verdict.stage in ("ecqp", "icqp")
            and verdict.step is not None
            and verdict.diagnostics["descent_second_order"] < 0
        )
        if good:
            drop = empirical_risk(
                point.params.perturbed(verdict.direction, verdict.step), point.data, LOSS
            ) - empirical_risk(point.params, point.data, LOSS)
            good = drop < 0
        second_ok += good
    ok = sosp_ok == 20 and outer_ok == 20 and second_ok == 20
    report(9, "known-verdicts", ok,
           f"sosp {sosp_ok}/20, outer descent {outer_ok}/20, second-order descent {second_ok}/20")
