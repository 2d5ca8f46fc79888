import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from sospcheck import second_order
from sospcheck.errors import (
    NonSymmetricError,
    RankDeficientConstraintsError,
    RankDeficientError,
    SubsetBudgetExceededError,
)
from sospcheck.harness import construct_boundary_fosp
from sospcheck.linalg import nullspace_basis, require_finite, sym_eig
from sospcheck.network import (
    RELU,
    ActivationSpec,
    Perturbation,
    SquaredLoss,
    boundary_analysis,
    per_sample_derivatives,
    perturbation_layout,
)
from sospcheck.second_order import (
    ConeQP,
    ParetoEigenpair,
    classify_psd_block,
    copositivity_classify,
    icqp_reduce,
    pareto_spectrum,
    pattern_objective,
    projected_spectrum_oracle,
    solve_ecqp_pgd,
    solve_icqp,
)
from test_network import CoshLoss


def random_cone_qp(rng, p, q, r, kind="indefinite"):
    """Random ConeQP with full-rank constraints and a chosen curvature class."""
    while True:
        a = rng.standard_normal((q, p)) if q else np.zeros((0, p))
        b = rng.standard_normal((r, p)) if r else np.zeros((0, p))
        stacked = np.vstack([a, b])
        if q + r == 0 or np.linalg.matrix_rank(stacked) == q + r:
            break
    if kind == "indefinite":
        g = rng.standard_normal((p, p))
        q_mat = g + g.T
    elif kind == "pd":
        g = rng.standard_normal((p + 2, p))
        q_mat = g.T @ g + 1.0 * np.eye(p)
    elif kind == "psd_null":
        # PSD with null space along a feasible direction
        proj = np.eye(p) - np.linalg.pinv(a) @ a if q else np.eye(p)
        u = proj @ rng.standard_normal(p)
        for _ in range(100):
            if r == 0 or (b @ u >= 0).all():
                break
            u = proj @ rng.standard_normal(p)
        else:
            u = proj @ rng.standard_normal(p)
        u = u / np.linalg.norm(u)
        g = rng.standard_normal((p + 2, p)) @ (np.eye(p) - np.outer(u, u))
        q_mat = g.T @ g
    else:
        raise ValueError(kind)
    return ConeQP(q_mat, a, b)


def boundary_pairs(boundary):
    """The (unit, sample) boundary pairs in the order of a sign row."""
    return [(k, int(i)) for k, idx in enumerate(boundary.boundary_indices) for i in idx]


def sign_row(boundary, entries):
    """The sign row with the signs of the pairs in ``entries``, zero elsewhere."""
    pairs = boundary_pairs(boundary)
    signs = np.zeros(len(pairs), dtype=int)
    for pair, sign in entries.items():
        signs[pairs.index(pair)] = sign
    return signs


class TestConeQP:
    def test_rejects_dependent_constraints(self):
        with pytest.raises(RankDeficientConstraintsError):
            ConeQP(np.eye(3), np.array([[1.0, 0.0, 0.0]]), np.array([[2.0, 0.0, 0.0]]))

    def test_rejects_asymmetric_q(self):
        with pytest.raises(NonSymmetricError):
            ConeQP(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((0, 2)), np.zeros((0, 2)))

    def test_zero_size_form(self):
        empty = np.zeros((0, 0))
        assert ConeQP(empty, empty, empty).shape == (0, 0, 0)
        with pytest.raises(RankDeficientConstraintsError):  # rows of zero length
            ConeQP(empty, np.zeros((2, 0)), empty)
        with pytest.raises(NonSymmetricError):  # a stack of forms is not one form
            ConeQP(np.zeros((2, 3, 3)), np.zeros((0, 3)), np.zeros((0, 3)))


class TestAssemble:
    def _fixture(self, mode, seed=0, d_y=1):
        point = construct_boundary_fosp(3, 2, d_y, seed=seed, mode=mode)
        loss = SquaredLoss()
        bundle = per_sample_derivatives(point.params, point.data, loss)
        boundary = boundary_analysis(point.params, point.data, loss, bundle=bundle)
        return point, loss, bundle, boundary

    def test_all_zero_pattern_constraint_counts(self):
        from sospcheck.second_order import assemble_so_qp

        point, loss, bundle, boundary = self._fixture("interior")
        qp = assemble_so_qp(
            point.params, point.data, loss, boundary, np.zeros(boundary.total), bundle=bundle
        )
        d_h = point.params.dims[1]
        p, q, r = qp.shape
        assert p == point.params.n_params
        assert q == d_h + boundary.total
        assert r == 0

    def test_flat_pattern_constraint_counts(self):
        from sospcheck.second_order import assemble_so_qp

        point, loss, bundle, boundary = self._fixture("edge", seed=1)
        d_h = point.params.dims[1]
        # the single flat index becomes an inequality
        signs = sign_row(boundary, {(point.unit, 0): 1})
        qp = assemble_so_qp(point.params, point.data, loss, boundary, signs, bundle=bundle)
        _, q, r = qp.shape
        assert q == d_h + boundary.total - 1
        assert r == 1

    def _assert_form_matches_objective(self, point, loss, entries, seed, n_directions=100):
        from sospcheck.second_order import assemble_so_qp

        rng = np.random.default_rng(seed)
        bundle = per_sample_derivatives(point.params, point.data, loss)
        boundary = boundary_analysis(point.params, point.data, loss, bundle=bundle)
        signs = sign_row(boundary, entries)
        qp = assemble_so_qp(point.params, point.data, loss, boundary, signs, bundle=bundle)
        assert np.array_equal(qp.Q, qp.Q.T)
        for _ in range(n_directions):
            vec = rng.standard_normal(point.params.n_params)
            eta = Perturbation.unpack(vec, point.params.dims)
            direct = pattern_objective(point.params, bundle, signs, eta)
            assert abs(vec @ qp.Q @ vec - 2.0 * direct) <= 1e-9 * max(1.0, abs(direct))

    def test_quadratic_form_matches_direct_objective(self):
        point = construct_boundary_fosp(3, 2, 2, seed=2, mode="interior")
        # CoshLoss: per-sample Hessians that differ from each other and from the identity
        for loss in (SquaredLoss(), CoshLoss()):
            self._assert_form_matches_objective(point, loss, {}, seed=3)

    def test_quadratic_form_matches_direct_objective_beyond_one_block(self):
        from sospcheck.network import Dataset
        from sospcheck.second_order import ASSEMBLY_BLOCK

        point = construct_boundary_fosp(3, 2, 2, seed=5, mode="edge")
        n_b = len(point.boundary_samples)
        copies = ASSEMBLY_BLOCK // (point.data.m - n_b) + 1
        data = Dataset(
            np.vstack([point.data.inputs[:n_b], np.tile(point.data.inputs[n_b:], (copies, 1))]),
            np.vstack([point.data.labels[:n_b], np.tile(point.data.labels[n_b:], (copies, 1))]),
        )
        assert data.m > ASSEMBLY_BLOCK
        point = replace(point, data=data)
        self._assert_form_matches_objective(
            point, CoshLoss(), {(point.unit, 0): -1}, seed=6, n_directions=30
        )

    @staticmethod
    def _reference_qp(params, bundle, boundary, signs):
        """Q, A and B of one sign row summed over every sample, with no shared base."""
        d_x, d_h, d_y = params.dims
        p = params.n_params
        _, sl_u, sl_v = perturbation_layout(params.dims)
        act = params.activation
        jvals = act.hprime(bundle.preact)
        for (k, i), s in zip(boundary_pairs(boundary), signs):
            jvals[i, k] = act.s_plus if s > 0 else act.s_minus if s < 0 else 0.0
        resp = np.zeros((bundle.m, d_y, p))
        resp[:, :, :d_y] = np.eye(d_y)
        for k in range(d_h):
            resp[:, :, sl_u[k]] = bundle.hidden[:, k, None, None] * np.eye(d_y)
            resp[:, :, sl_v[k]] = (
                jvals[:, k, None, None] * params.W2[None, :, k, None] * bundle.xbar[:, None, :]
            )
        q_mat = np.einsum("iap,iab,ibq->pq", resp, bundle.hessians, resp)
        for k in range(d_h):
            w_k = (bundle.grads * jvals[:, k][:, None]).T @ bundle.xbar
            q_mat[sl_u[k], sl_v[k]] += w_k
            q_mat[sl_v[k], sl_u[k]] += w_k.T
        a_rows, b_rows = [], []
        for k in range(d_h):
            row = np.zeros(p)
            row[sl_u[k]] = params.W2[:, k]
            row[sl_v[k]] = -params.hyperplane_row(k)
            a_rows.append(row)
        for (k, i), s in zip(boundary_pairs(boundary), signs):
            row = np.zeros(p)
            row[sl_v[k]] = bundle.xbar[i] if s >= 0 else -bundle.xbar[i]
            (a_rows if s == 0 else b_rows).append(row)
        b_mat = np.vstack(b_rows) if b_rows else np.zeros((0, p))
        return 0.5 * (q_mat + q_mat.T), np.vstack(a_rows), b_mat

    def test_shared_base_matches_full_assembly_for_every_pattern(self):
        from sospcheck.network import Dataset
        from sospcheck.second_order import ASSEMBLY_BLOCK, assemble_so_qp, assembly_base

        point = construct_boundary_fosp(
            4, 2, 2, seed=8, n_boundary=2, units=[0, 1], mode="orthogonal"
        )
        n_b = len(point.boundary_samples)
        rest = np.arange(n_b, point.data.m)
        tiled = np.tile(rest, ASSEMBLY_BLOCK // len(rest) + 2)[: ASSEMBLY_BLOCK + 20]
        # one boundary sample inside the first block, one inside the second
        order = np.insert(tiled, [7, ASSEMBLY_BLOCK + 2], [0, 1])
        data = Dataset(point.data.inputs[order], point.data.labels[order])
        for loss in (SquaredLoss(), CoshLoss()):
            bundle = per_sample_derivatives(point.params, data, loss)
            boundary = boundary_analysis(point.params, data, loss, bundle=bundle)
            pairs = boundary_pairs(boundary)
            assert sorted(i for _, i in pairs) == [7, ASSEMBLY_BLOCK + 3]
            base = assembly_base(point.params, bundle, boundary)
            n_patterns = 0
            for signs in product((-1, 0, 1), repeat=len(pairs)):
                qp = assemble_so_qp(
                    point.params, data, loss, boundary, signs, bundle=bundle, base=base
                )
                q_ref, a_ref, b_ref = self._reference_qp(point.params, bundle, boundary, signs)
                assert np.abs(qp.Q - q_ref).max() <= 1e-12 * np.abs(q_ref).max()
                assert np.array_equal(qp.A, a_ref) and np.array_equal(qp.B, b_ref)
                n_patterns += 1
            assert n_patterns == 9

    def test_degenerate_unit_rejected(self):
        # an all-zero hidden unit makes its homogeneity row vanish
        from sospcheck.network import Dataset, NetworkParams
        from sospcheck.second_order import assemble_so_qp

        params = NetworkParams(
            W1=np.array([[1.0, 0.5], [0.0, 0.0]]),
            b1=np.array([0.3, 0.0]),
            W2=np.array([[1.0, 0.0]]),
            b2=np.zeros(1),
        )
        data = Dataset(np.array([[1.0, 1.0], [0.5, -0.2]]), np.array([[1.0], [0.0]]))
        loss = SquaredLoss()
        boundary = boundary_analysis(params, data, loss)
        with pytest.raises(RankDeficientConstraintsError):
            assemble_so_qp(params, data, loss, boundary, np.zeros(boundary.total))

    def test_signed_pattern_objective_matches_too(self):
        from sospcheck.second_order import assemble_so_qp

        rng = np.random.default_rng(4)
        point, loss, bundle, boundary = self._fixture("edge", seed=5)
        signs = sign_row(boundary, {(point.unit, 0): -1})
        qp = assemble_so_qp(point.params, point.data, loss, boundary, signs, bundle=bundle)
        for _ in range(50):
            vec = rng.standard_normal(point.params.n_params)
            eta = Perturbation.unpack(vec, point.params.dims)
            direct = pattern_objective(point.params, bundle, signs, eta)
            assert abs(vec @ qp.Q @ vec - 2.0 * direct) <= 1e-9 * max(1.0, abs(direct))

    def test_sign_row_is_checked(self):
        from sospcheck.second_order import assemble_so_qp, assembly_base

        point = construct_boundary_fosp(4, 2, 1, seed=8, n_boundary=2, units=[0, 1],
                                        mode="orthogonal")
        loss = SquaredLoss()
        bundle = per_sample_derivatives(point.params, point.data, loss)
        boundary = boundary_analysis(point.params, point.data, loss, bundle=bundle)
        assert boundary.total == 2
        base = assembly_base(point.params, bundle, boundary)
        eta = Perturbation.unpack(np.ones(point.params.n_params), point.params.dims)
        # a zero entry keeps its row an equality, the others sign theirs into B
        qp = assemble_so_qp(point.params, point.data, loss, boundary, [0, -1], base=base)
        d_h = point.params.dims[1]
        assert np.array_equal(qp.A, base.rows[: d_h + 1])
        assert np.array_equal(qp.B, -base.rows[d_h + 1 :])
        for bad in ([0], [0, 0, 0], [0, 2], [0, 0.5], [[0, 1]], [np.nan, 0]):
            with pytest.raises(ValueError, match="sign row"):
                assemble_so_qp(point.params, point.data, loss, boundary, bad, base=base)
            with pytest.raises(ValueError, match="sign row"):
                pattern_objective(point.params, bundle, bad, eta)


class TestEcqpPgd:
    def test_positive_definite_on_line(self):
        res = solve_ecqp_pgd(np.diag([1.0, 1.0]), np.array([[1.0, 0.0]]))
        assert res.verdict == "T1"

    def test_negative_direction(self):
        res = solve_ecqp_pgd(np.diag([1.0, -1.0]), np.array([[1.0, 0.0]]))
        assert res.verdict == "T3"
        w = res.witness / np.linalg.norm(res.witness)
        assert abs(abs(w[1]) - 1.0) <= 1e-9
        assert np.isclose(w @ np.diag([1.0, -1.0]) @ w, -1.0)

    def test_flat_direction(self):
        res = solve_ecqp_pgd(np.diag([1.0, 0.0]), np.array([[1.0, 0.0]]))
        assert res.verdict == "T2"
        w = res.witness / np.linalg.norm(res.witness)
        assert abs(abs(w[1]) - 1.0) <= 1e-9

    def test_trivial_feasible_set(self):
        res = solve_ecqp_pgd(np.diag([-1.0, -1.0]), np.eye(2))
        assert res.verdict == "T1"

    def test_iterates_stay_feasible_and_slope_signs(self):
        rng = np.random.default_rng(6)
        qp = random_cone_qp(rng, 8, 2, 0, kind="indefinite")
        res = solve_ecqp_pgd(qp.Q, qp.A, seed=1)
        norms = np.array(res.diagnostics["norms"])
        if res.verdict == "T3":
            grow = norms[: int(np.argmax(norms)) + 1]
            if len(grow) > 10:
                x = np.arange(len(grow))
                slope = np.polyfit(x[len(x) // 2 :], np.log(grow[len(x) // 2 :]), 1)[0]
                assert slope > 0
            assert np.linalg.norm(qp.A @ res.witness) <= 1e-8 * np.linalg.norm(res.witness)

    def test_decay_slope_negative_on_strictly_positive_instance(self):
        rng = np.random.default_rng(61)
        qp = random_cone_qp(rng, 8, 2, 0, kind="pd")
        res = solve_ecqp_pgd(qp.Q, qp.A, seed=2)
        assert res.verdict == "T1"
        norms = np.array(res.diagnostics["norms"])
        assert len(norms) > 10
        x = np.arange(len(norms))
        slope = np.polyfit(x[len(x) // 2 :], np.log(norms[len(x) // 2 :]), 1)[0]
        assert slope < 0


class TestSpectrumOracle:
    def test_projected_matrix_example(self):
        oracle = projected_spectrum_oracle(np.diag([3.0, 5.0]), np.array([[1.0, 0.0]]))
        assert oracle.decomposition.eigenvalues.shape == (1,)
        assert np.isclose(oracle.decomposition.eigenvalues[0], 5.0)
        assert np.isclose(oracle.lam_min, 5.0) and oracle.scale == 5.0
        assert oracle.tol == 5.0 * second_order.DEFAULT_ZERO_EIG_TOL

    def test_trivial_subspace_is_strictly_positive(self):
        oracle = projected_spectrum_oracle(np.diag([-3.0, -5.0]), np.eye(2), zero_tol=1e-6)
        assert oracle.verdict == "T1"  # vacuous: the feasible set is {0}
        assert oracle.lam_min is None
        assert oracle.scale == 5.0 and oracle.tol == 1e-6 * 5.0

    def test_zero_size_form_is_strictly_positive(self):
        # p = 0: the only direction is the empty one
        for a_mat in (np.zeros((0, 0)), np.zeros(0)):
            oracle = projected_spectrum_oracle(np.zeros((0, 0)), a_mat)
            assert oracle.verdict == "T1" and oracle.witness is None and oracle.lam_min is None
            assert oracle.decomposition.eigenvalues.shape == (0,)
            assert oracle.basis.shape == (0, 0) and oracle.scale == 0.0

    def test_monotonicity_and_agreement(self):
        rng = np.random.default_rng(7)
        fallbacks = 0
        for trial in range(200):
            p = int(rng.integers(2, 9))
            q = int(rng.integers(0, min(p - 1, 4) + 1))
            kind = ("indefinite", "pd", "psd_null")[trial % 3]
            qp = random_cone_qp(rng, p, q, 0, kind=kind)
            oracle = projected_spectrum_oracle(qp.Q, qp.A)
            lam_max_q = np.linalg.eigvalsh(qp.Q)[-1]
            if oracle.decomposition.eigenvalues.size:
                assert oracle.decomposition.eigenvalues[-1] <= lam_max_q + 1e-9 * max(
                    1.0, abs(lam_max_q)
                )
            got = solve_ecqp_pgd(qp.Q, qp.A, seed=trial)
            if got.diagnostics.get("fallback"):
                fallbacks += 1
                continue
            assert got.verdict == oracle.verdict
        assert fallbacks < 10


def _exact_witness_rule(q_mat, eta, verdict):
    """Whether a witness passes the curvature test measured against the
    exact 2-norm of Q: the oracle for the screen of verify_witness."""
    n = float(np.linalg.norm(eta))
    quad = float(eta @ q_mat @ eta)
    w = np.linalg.eigvalsh(q_mat)
    qnorm = float(max(abs(w[0]), abs(w[-1])))
    if verdict == "T3":
        return not quad > -second_order.WITNESS_CURV_TOL * qnorm * n * n
    return not abs(quad) > second_order.WITNESS_FEAS_TOL * max(qnorm, 1.0) * n * n


class TestVerifyWitness:
    @staticmethod
    def _forms(rng):
        for _ in range(40):
            p = int(rng.integers(2, 30))
            g = rng.standard_normal((p, p)) * 10.0 ** rng.uniform(-3, 3)
            yield g + g.T
            u = rng.standard_normal(p) * 10.0 ** rng.uniform(-2, 2)
            yield np.outer(u, u) * rng.choice((-1.0, 1.0))

    def test_screen_accepts_and_rejects_as_the_exact_norm_does(self):
        # curvatures at (1 +- 1e-3) times each threshold the screen or the
        # exact rule can use: the exact norm, and the screen's upper bound
        # 2 max row-sum |Q| and lower bound max column norm / 2
        from sospcheck.errors import InternalInconsistencyError

        rng = np.random.default_rng(41)
        outcomes = Counter()
        for q_mat in self._forms(rng):
            p = len(q_mat)
            w, v = np.linalg.eigh(q_mat)
            norms = (
                max(abs(w[0]), abs(w[-1])),
                2.0 * np.abs(q_mat).sum(axis=1).max(),
                0.5 * np.linalg.norm(q_mat, axis=0).max(),
            )
            for norm, factor, sign in product(norms, (1 - 1e-3, 1 + 1e-3), (-1.0, 1.0)):
                for verdict in ("T2", "T3"):
                    if verdict == "T3":
                        target = -second_order.WITNESS_CURV_TOL * norm * factor
                    else:
                        target = sign * second_order.WITNESS_FEAS_TOL * max(norm, 1.0) * factor
                    if not w[0] < target < w[-1]:
                        continue
                    # a direction with curvature ``target``, of norm 3
                    c = (target - w[0]) / (w[-1] - w[0])
                    eta = 3.0 * (np.sqrt(1.0 - c) * v[:, 0] + np.sqrt(c) * v[:, -1])
                    want = _exact_witness_rule(q_mat, eta, verdict)
                    empty = np.zeros((0, p))
                    try:
                        record = second_order.verify_witness(q_mat, empty, empty, eta, verdict)
                        got = True
                    except InternalInconsistencyError:
                        record, got = None, False
                    assert got == want
                    outcomes[verdict, got, record and record["by"]] += 1
                    if record:
                        curvature = float(eta @ q_mat @ eta) / 9.0
                        assert record["curvature"] == pytest.approx(curvature, rel=1e-12)
        for verdict in ("T2", "T3"):
            assert outcomes[verdict, True, "bound"] and outcomes[verdict, True, "exact"]
            assert outcomes[verdict, False, None]

    def test_record_of_a_screened_witness(self):
        q_mat = np.diag([-2.0, 1.0])
        record = second_order.verify_witness(q_mat, np.zeros((0, 2)), np.zeros((0, 2)),
                                             np.array([2.0, 0.0]), "T3")
        # U = 2 max row-sum |Q| = 4
        assert record == {"curvature": -2.0, "threshold": -4.0 * second_order.WITNESS_CURV_TOL,
                          "by": "bound"}
        with pytest.raises(ValueError):
            second_order.verify_witness(q_mat, np.zeros((0, 2)), np.zeros((0, 2)),
                                        np.array([2.0, 0.0]), "T1")


def _pivot_permutation(mat):
    _, _, piv = scipy.linalg.qr(mat, mode="economic", pivoting=True)
    return piv


def _reference_icqp_reduce(qp):
    """Two pivoted eliminations, of A and then of the reduced B: the oracle for
    icqp_reduce. Returns (R11, R12, R22) of the reduced form, and the map from
    the reduced coordinates to original directions; its last p - q - r
    columns are a basis of the face {A eta = 0, B eta = 0} that is not
    orthonormal."""
    p, q, r = qp.shape
    map_a = np.eye(p)
    if q:
        perm_a = _pivot_permutation(qp.A)
        a1 = qp.A[:, perm_a[:q]]
        a1inv_a2 = np.linalg.solve(a1, qp.A[:, perm_a[q:]])
        t_a = np.block([[np.linalg.inv(a1), -a1inv_a2], [np.zeros((p - q, q)), np.eye(p - q)]])
        m_full = t_a.T @ qp.Q[np.ix_(perm_a, perm_a)] @ t_a
        r_full = 0.5 * (m_full[q:, q:] + m_full[q:, q:].T)
        b_perm = qp.B[:, perm_a]
        b_bar = b_perm[:, q:] - b_perm[:, :q] @ a1inv_a2
        map_a = np.zeros((p, p - q))
        map_a[perm_a] = t_a[:, q:]
    else:
        r_full, b_bar = qp.Q.copy(), qp.B.copy()
    perm_b = _pivot_permutation(b_bar)
    b1, b2 = b_bar[:, perm_b[:r]], b_bar[:, perm_b[r:]]
    n2 = p - q - r
    t_b = np.block(
        [[np.linalg.inv(b1), -np.linalg.solve(b1, b2)], [np.zeros((n2, r)), np.eye(n2)]]
    )
    r_bar = t_b.T @ r_full[np.ix_(perm_b, perm_b)] @ t_b
    r_bar = 0.5 * (r_bar + r_bar.T)
    map_b = np.zeros((p - q, p - q))
    map_b[perm_b] = t_b
    return r_bar[:r, :r], r_bar[:r, r:], r_bar[r:, r:], map_a @ map_b


def _face_pinv(frame):
    """R22^+ of a frame, the pseudo-inverse of its face's decomposition at
    the face's zero threshold."""
    return frame.face.decomposition.pseudoinverse(max(frame.face.tol, np.finfo(float).tiny))


def _reference_reduce(frame, forms, signs):
    """R11, R12 and the Schur complement S = R11 - R12 R22^+ R12^T of n cones
    of ``frame`` by contracting each assembled form with the frame's map:
    the oracle for the pattern calculus. forms (n, p, p), and B of cone j
    equal to diag(signs[j]) b0. The map of cone j is ``t0 diag(sigma, 1)``,
    so with D = diag(sigma) and H = T_r^T Q t0, R11 = D H11 D and R12 = D H12."""
    r = frame.b0.shape[0]
    head = (frame.t0[:, :r].T @ forms) @ frame.t0
    head *= signs[:, :, None]
    r11 = head[:, :, :r] * signs[:, None, :]
    r11 = 0.5 * (r11 + r11.transpose(0, 2, 1))
    r12 = head[:, :, r:]
    schur = r11 - r12 @ _face_pinv(frame) @ r12.transpose(0, 2, 1)
    return r11, r12, 0.5 * (schur + schur.transpose(0, 2, 1))


def _reference_psd_kind(r22, r12, tol):
    """Eigenvalue trichotomy of R22 by its own eigendecomposition, with one
    zero threshold ``tol``: the oracle for classify_psd_block."""
    dec = sym_eig(r22)
    if dec.eigenvalues.size == 0:
        return "PD1"
    if dec.eigenvalues[0] < -tol:
        return "PD4"
    zero_cols = np.abs(dec.eigenvalues) <= tol
    if not zero_cols.any():
        return "PD1"
    coupling = np.linalg.norm(r12 @ dec.eigenvectors[:, zero_cols], axis=0).max()
    return "PD3" if coupling > tol else "PD2"


def _matches_reference(qp, frame=None, sigma=None):
    """Assert that the reduction of ``qp`` matches the double elimination:
    block shapes, the PSD kind at the reference's zero threshold, and, for a
    positive definite R22, the Schur complement. The reduction is
    :func:`icqp_reduce`'s, or the one of the cone with B = diag(sigma) b0 in
    a shared ``frame``, as the pattern sweep forms it. Returns the kind."""
    p, q, r = qp.shape
    if frame is None:
        red = icqp_reduce(qp)
        frame, new11, new12 = red.frame, red.h11, red.h12
    else:
        calc = second_order._calculus(frame, qp.Q)
        new11, new12, _ = (blk[0] for blk in calc.reduce(sigma[None]))
    r11, r12, r22, _ = _reference_icqp_reduce(qp)
    for new, ref in ((new11, r11), (new12, r12), (_face_pinv(frame), r22)):
        assert new.shape == ref.shape
    # the zero threshold of the PD3 test: relative to the largest block entry
    tol = second_order.DEFAULT_ZERO_EIG_TOL * max(
        np.abs(b).max(initial=0.0) for b in (r11, r12, r22)
    )
    psd_kind = _reference_psd_kind(r22, r12, tol)
    assert classify_psd_block(frame.face, new12, tol).kind == psd_kind
    if psd_kind == "PD1":
        schur = new11 - new12 @ _face_pinv(frame) @ new12.T
        ref = r11 - r12 @ np.linalg.solve(r22, r12.T) if p - q - r else r11
        assert np.abs(schur - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())
    return psd_kind


class TestIcqpReduce:
    @pytest.mark.parametrize("q", [0, 1, 3])
    def test_map_solves_the_constraints(self, q):
        rng = np.random.default_rng(20 + q)
        for r in (1, 2, 4):
            p = q + r + 3
            qp = random_cone_qp(rng, p, q, r, kind="indefinite")
            t = icqp_reduce(qp).frame.t0
            assert t.shape == (p, p - q)
            t_norm = np.linalg.norm(t)
            assert np.linalg.norm(qp.A @ t) <= 1e-12 * np.linalg.norm(qp.A) * t_norm
            target = np.hstack([np.eye(r), np.zeros((r, p - q - r))])
            assert np.abs(qp.B @ t - target).max() <= 1e-12 * np.linalg.norm(qp.B) * t_norm
            assert np.linalg.matrix_rank(t) == p - q

    @staticmethod
    def _flat_cone_qp(rng, p, q, r, coupled):
        """PSD form flat along some u with A u = 0 and B u = 0 (PD2); when
        ``coupled``, a term u v^T + v u^T with v in the row space of B makes
        the flat direction see R12 (PD3)."""
        base = random_cone_qp(rng, p, q, r, kind="pd")
        u = nullspace_basis(np.vstack([base.A, base.B]))[:, 0]
        g = rng.standard_normal((p + 2, p)) @ (np.eye(p) - np.outer(u, u))
        q_mat = g.T @ g
        if coupled:
            v = base.B.T @ rng.standard_normal(r)
            q_mat = q_mat + np.outer(u, v) + np.outer(v, u)
        return ConeQP(q_mat, base.A, base.B)

    def test_schur_complement_and_psd_kind_match_double_elimination(self):
        rng = np.random.default_rng(21)
        kinds = ("indefinite", "pd", "psd_null", "flat", "flat_coupled")
        seen = set()
        n_pd = 0
        for trial in range(200):
            kind = kinds[trial % 5]
            p = int(rng.integers(3, 9))
            q = int(rng.integers(0, p - 1))
            r = int(rng.integers(1, p - q + (0 if kind.startswith("flat") else 1)))
            if kind.startswith("flat"):
                qp = self._flat_cone_qp(rng, p, q, r, coupled=kind == "flat_coupled")
            else:
                qp = random_cone_qp(rng, p, q, r, kind=kind)
            psd_kind = _matches_reference(qp)
            seen.add(psd_kind)
            n_pd += psd_kind == "PD1"
        assert n_pd >= 50
        assert seen == {"PD1", "PD2", "PD3", "PD4"}

    def test_rank_failures_are_typed(self):
        e = np.eye(4)
        near_dependent = np.vstack([e[1], e[1] + 1e-8 * e[2]])
        qp = ConeQP(np.eye(4), e[:1], near_dependent)
        icqp_reduce(qp)
        with pytest.raises(RankDeficientError, match="dependent on null"):
            second_order.icqp_frame(qp, rank_tol=1e-6)
        qp = ConeQP(np.eye(4), near_dependent, e[3:])
        icqp_reduce(qp)
        with pytest.raises(RankDeficientError, match="dimension 3, expected 2"):
            second_order.icqp_frame(qp, rank_tol=1e-6)

    def test_no_inequalities_is_an_error(self):
        qp = ConeQP(np.eye(2), np.array([[1.0, 0.0]]), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            icqp_reduce(qp)

    def test_round_trip_feasibility_and_values(self):
        rng = np.random.default_rng(8)
        qp = random_cone_qp(rng, 6, 2, 2, kind="indefinite")
        red = icqp_reduce(qp)
        r22 = red.frame.face.decomposition.reconstruct()
        for _ in range(1000):
            nu1 = np.abs(rng.standard_normal(2))
            nu2 = rng.standard_normal(2)
            eta = red.frame.t0 @ np.concatenate([nu1, nu2])
            assert np.linalg.norm(qp.A @ eta) <= 1e-9 * max(1.0, np.linalg.norm(eta))
            assert (qp.B @ eta >= -1e-9).all()
            assert np.allclose(qp.B @ eta, nu1, atol=1e-9)
            nu = np.concatenate([nu1, nu2])
            r_bar = np.block([[red.h11, red.h12], [red.h12.T, r22]])
            assert abs(eta @ qp.Q @ eta - nu @ r_bar @ nu) <= 1e-9 * max(
                1.0, abs(nu @ r_bar @ nu)
            )


def _orthogonal_fixture_cones():
    """The all-zero pattern's cone, the sign rows of every pattern in
    lexicographic order, and their cones, at an orthogonal fixture with
    K = 3 (both rays of three boundary samples flat). The last cone, of the
    all-plus row, has the rows of the pattern sweep's frame."""
    from sospcheck.second_order import assemble_so_qp, assembly_base

    point = construct_boundary_fosp(
        5, 2, 1, seed=10, n_boundary=3, units=[0, 0, 1], mode="orthogonal"
    )
    loss = SquaredLoss()
    bundle = per_sample_derivatives(point.params, point.data, loss)
    boundary = boundary_analysis(point.params, point.data, loss, bundle=bundle)
    base = assembly_base(point.params, bundle, boundary)
    rows = np.array(list(product((-1, 1), repeat=boundary.total)))
    cones = [assemble_so_qp(point.params, point.data, loss, boundary, row, base=base)
             for row in rows]
    zero = np.zeros(boundary.total)
    return assemble_so_qp(point.params, point.data, loss, boundary, zero, base=base), rows, cones


def _k3_point():
    """An orthogonal fixture with K = 3: both rays of three boundary samples
    flat, two of them on unit 0."""
    return construct_boundary_fosp(
        5, 2, 1, seed=10, n_boundary=3, units=[0, 0, 1], mode="orthogonal"
    )


def _k7_point():
    """The shape of the flat-rays benchmark fixtures: K = 7 on d_x = 10."""
    return construct_boundary_fosp(
        10, 2, 1, seed=1060, n_boundary=7, units=[0] * 4 + [1] * 3, mode="orthogonal",
        max_attempts=1,
    )


def _two_hyperplane_point(activation):
    """A point with sample 0 on the hyperplanes of units 0 and 1 and sample 1
    on that of unit 2, so that the form of a pattern is bilinear in the signs
    of sample 0's two pairs. Not stationary: only the algebra is tested."""
    from types import SimpleNamespace

    from sospcheck.harness import generate_dataset, init_params

    params = init_params(4, 3, 2, seed=5, activation=activation)
    data = generate_dataset(4, 2, 12, seed=6)
    x = data.inputs
    b1 = params.b1.copy()
    b1[:2] = -(params.W1[:2] @ x[0])
    b1[2] = -(params.W1[2] @ x[1])
    return SimpleNamespace(params=replace(params, b1=b1), data=data)


def _sweep_setup(point, pinned=None, free=None):
    """The pieces of the pattern sweep at ``point``: its assembly base, face
    and frame, the pattern calculus, the sign rows of every pattern, their
    signs on the rows of b0, and each pattern's own cone. Every pair is free
    by default."""
    from types import SimpleNamespace

    loss = SquaredLoss()
    bundle = per_sample_derivatives(point.params, point.data, loss, 1e-12)
    boundary = boundary_analysis(point.params, point.data, loss, 1e-12, bundle=bundle)
    base = second_order.assembly_base(point.params, bundle, boundary)
    zero = np.zeros(boundary.total, dtype=int)
    pinned = zero if pinned is None else np.asarray(pinned)
    free = np.ones(boundary.total, dtype=bool) if free is None else np.asarray(free)
    ecqp = second_order.assemble_so_qp(point.params, point.data, loss, boundary, zero, base=base)
    face = projected_spectrum_oracle(ecqp.Q, ecqp.A)
    signed = (pinned != 0) | free
    d_h = point.params.dims[1]
    pairs = base.rows[d_h:]
    frame = second_order._frame(
        np.vstack([base.rows[:d_h], pairs[~signed]]), pairs[signed], face,
        second_order.DEFAULT_RANK_TOL,
    )
    rows = second_order.sign_rows(pinned, free, 0, 2 ** int(free.sum()))
    cones = [
        second_order.assemble_so_qp(point.params, point.data, loss, boundary, row, base=base)
        for row in rows
    ]
    calc = second_order._pattern_calculus(base, frame, pinned, free)
    return SimpleNamespace(
        base=base, pinned=pinned, free=free, frame=frame, calc=calc, rows=rows,
        signs=rows[:, signed].astype(float), cones=cones,
    )


class TestIcqpFrame:
    @staticmethod
    def _assert_matches_fresh_reduction(qp, frame, sigma):
        p, q, r = qp.shape
        t = frame.t0 * np.append(sigma, np.ones(p - q - r))  # the map of the cone
        t_norm = np.linalg.norm(t)
        assert np.linalg.norm(qp.A @ t) <= 1e-12 * np.linalg.norm(qp.A) * t_norm
        target = np.hstack([np.eye(r), np.zeros((r, p - q - r))])
        assert np.abs(qp.B @ t - target).max() <= 1e-12 * np.linalg.norm(qp.B) * t_norm
        return _matches_reference(qp, frame, sigma)

    def test_every_pattern_of_an_orthogonal_fixture(self):
        ecqp, rows, cones = _orthogonal_fixture_cones()
        assert len(cones) == 8 and cones[0].shape[2] == 3
        plus = cones[-1]
        for row, qp in zip(rows, cones):
            assert np.array_equal(qp.A, plus.A)
            assert np.array_equal(qp.B, row[:, None] * plus.B)
        # the frame of the all-plus cone, with its own face or on the
        # equality-constrained QP's subspace as the pattern sweep builds it,
        # serves every pattern with the pattern's sign row as its signs
        face = projected_spectrum_oracle(ecqp.Q, ecqp.A)
        for frame in (second_order.icqp_frame(plus), second_order.icqp_frame(plus, face=face)):
            for row, qp in zip(rows, cones):
                assert self._assert_matches_fresh_reduction(qp, frame, row) == "PD1"

    def test_r22_of_every_pattern_is_the_equality_constrained_form(self):
        # R22 of the double elimination, in its own basis of the face,
        # against the all-zero pattern's projected form in the same basis
        ecqp, _, cones = _orthogonal_fixture_cones()
        face = projected_spectrum_oracle(ecqp.Q, ecqp.A)
        form = face.basis.T @ ecqp.Q @ face.basis
        for qp in cones:
            _, _, r22, ref_map = _reference_icqp_reduce(qp)
            face_map = ref_map[:, qp.shape[2]:]
            coords = face.basis.T @ face_map
            assert np.abs(face.basis @ coords - face_map).max() <= 1e-12 * np.abs(face_map).max()
            assert np.abs(coords.T @ form @ coords - r22).max() <= 1e-12 * np.abs(r22).max()

    def test_reduction_and_psd_block_run_no_eigendecomposition(self, monkeypatch):
        setup = _sweep_setup(_k3_point())

        def no_eig(*args, **kwargs):
            raise AssertionError("an eigendecomposition ran")

        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, no_eig)
        monkeypatch.setattr(second_order, "sym_eig", no_eig)
        calc = second_order._pattern_calculus(setup.base, setup.frame, setup.pinned, setup.free)
        _, r12, _ = calc.reduce(setup.signs)
        for block in r12:
            assert classify_psd_block(setup.frame.face, block, 1e-8).kind == "PD1"

    def test_random_cones_with_random_signs(self):
        # the cones that share a frame agree on its face: their forms differ
        # by B^T X + X^T B, which vanishes there
        rng = np.random.default_rng(33)
        kinds = ("indefinite", "pd", "psd_null")
        seen = set()
        for trial in range(90):
            p = int(rng.integers(3, 9))
            q = int(rng.integers(0, p - 1))
            r = int(rng.integers(1, p - q + 1))
            first = random_cone_qp(rng, p, q, r, kind=kinds[trial % 3])
            frame = second_order.icqp_frame(first)
            for _ in range(3):
                sigma = rng.choice((-1.0, 1.0), size=r)
                x = rng.standard_normal((r, p))
                form = first.Q + first.B.T @ x + x.T @ first.B
                qp = ConeQP(form, first.A, sigma[:, None] * first.B)
                seen.add(self._assert_matches_fresh_reduction(qp, frame, sigma))
        assert {"PD1", "PD4"} <= seen

    def test_a_face_of_other_rows_is_rejected(self):
        from sospcheck.errors import InternalInconsistencyError

        rng = np.random.default_rng(36)
        first = random_cone_qp(rng, 6, 2, 2, kind="pd")
        rows = np.vstack([first.A, first.B])
        for face_rows in (rows[:3], rows + 1e-3 * rng.standard_normal(rows.shape)):
            face = projected_spectrum_oracle(first.Q, face_rows)
            with pytest.raises(InternalInconsistencyError, match="face basis"):
                second_order.icqp_frame(first, face=face)
        assert second_order.icqp_frame(first, face=projected_spectrum_oracle(first.Q, rows))


class TestBatchedReduction:
    """R11, R12 and S of a stack of cones of one frame, as the pattern sweep
    forms them, against the double elimination of each cone on its own."""

    @staticmethod
    def _assert_matches_double_elimination(frame, cones, signs, blocks):
        r11, r12, schur = blocks
        r22 = frame.face.decomposition.reconstruct()
        for j, qp in enumerate(cones):
            p, q, r = qp.shape
            ref11, ref12, ref22, ref_map = _reference_icqp_reduce(qp)
            ref_bar = np.block([[ref11, ref12], [ref12.T, ref22]])
            tol = 1e-12 * np.abs(ref_bar).max()
            # both maps send nu1 to a direction with B eta = nu1, so they
            # differ by a change of coordinates that keeps nu1
            t = frame.t0 * np.concatenate([signs[j], np.ones(p - q - r)])
            change = np.linalg.lstsq(t, ref_map, rcond=None)[0]
            assert np.abs(change[:r] - np.eye(p - q)[:r]).max() <= 1e-12 * np.abs(change).max()
            r_bar = np.block([[r11[j], r12[j]], [r12[j].T, r22]])
            assert np.abs(change.T @ r_bar @ change - ref_bar).max() <= tol
            if p - q == r or np.linalg.eigvalsh(ref22)[0] > 1e-6 * np.abs(ref22).max():
                ref_schur = ref11 - ref12 @ np.linalg.solve(ref22, ref12.T) if ref22.size else ref11
                assert np.abs(schur[j] - ref_schur).max() <= tol

    def test_every_pattern_of_an_orthogonal_fixture(self):
        setup = _sweep_setup(_k3_point())
        blocks = setup.calc.reduce(setup.signs)
        self._assert_matches_double_elimination(setup.frame, setup.cones, setup.signs, blocks)

    def test_random_cones_with_random_signs(self):
        rng = np.random.default_rng(35)
        for trial in range(60):
            p = int(rng.integers(3, 9))
            q = int(rng.integers(0, p - 1))
            r = int(rng.integers(1, p - q + 1))
            first = random_cone_qp(rng, p, q, r, kind=("indefinite", "pd", "psd_null")[trial % 3])
            frame = second_order.icqp_frame(first)
            cones, signs, blocks = [], [], []
            for _ in range(3):
                sigma = rng.choice((-1.0, 1.0), size=r)
                x = rng.standard_normal((r, p))
                form = first.Q + first.B.T @ x + x.T @ first.B
                cones.append(ConeQP(form, first.A, sigma[:, None] * first.B))
                signs.append(sigma)
                calc = second_order._calculus(frame, cones[-1].Q)
                blocks.append(calc.reduce(sigma[None]))
            blocks = [np.concatenate(parts) for parts in zip(*blocks)]
            self._assert_matches_double_elimination(frame, cones, np.array(signs), blocks)


class TestPatternCalculus:
    """The reduced forms of every pattern from one form and K rank-two
    corrections, against the contraction of each pattern's assembled form
    (the oracle) and the double elimination of its cone."""

    @staticmethod
    def _assert_matches_the_oracles(setup):
        forms = np.stack([qp.Q for qp in setup.cones])
        got = setup.calc.reduce(setup.signs)
        want = _reference_reduce(setup.frame, forms, setup.signs)
        for new, ref in zip(got, want):
            assert new.shape == ref.shape
            assert np.abs(new - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)
        r11, _, schur = got
        assert np.array_equal(r11, r11.transpose(0, 2, 1))
        assert np.array_equal(schur, schur.transpose(0, 2, 1))
        TestBatchedReduction._assert_matches_double_elimination(
            setup.frame, setup.cones, setup.signs, got
        )

    def test_k3_fixture(self):
        self._assert_matches_the_oracles(_sweep_setup(_k3_point()))

    def test_k7_fixture(self):
        setup = _sweep_setup(_k7_point())
        assert len(setup.cones) == 128
        self._assert_matches_the_oracles(setup)

    @pytest.mark.parametrize("activation", [RELU, ActivationSpec(1.0, 0.25)])
    def test_sample_on_two_hyperplanes(self, activation):
        setup = _sweep_setup(_two_hyperplane_point(activation))
        units, samples = setup.base.boundary.pairs
        assert units.tolist() == [0, 1, 2] and samples.tolist() == [0, 0, 1]
        # the bilinear term of sample 0's two free pairs is a constant of R11
        assert setup.calc.pair[0, 1] == setup.calc.pair[1, 0] != 0.0
        assert np.count_nonzero(setup.calc.pair) == 2
        self._assert_matches_the_oracles(setup)

    @pytest.mark.parametrize("pinned, free", [([1, 0, -1], [0, 1, 0]), ([-1, 0, 0], [0, 1, 1])])
    def test_pinned_pairs(self, pinned, free):
        setup = _sweep_setup(_k3_point(), np.array(pinned), np.array(free, dtype=bool))
        signed = (setup.pinned != 0) | setup.free
        assert not setup.calc.h_rows[~setup.free[signed]].any()
        self._assert_matches_the_oracles(setup)


def _patterns(sweep):
    """The batches of a pattern sweep one pattern at a time: its index, the
    names of its (verdict, psd, cp, cp_by) codes, and its classification if
    it has a witness, else None."""
    n = 0
    for batch in sweep:
        for j, codes in enumerate(batch.codes.tolist()):
            names = tuple(labels[c] for labels, c in zip(second_order.DECISIONS.values(), codes))
            yield n + j, names, batch.witnessed.get(j)
        n += len(batch)


class TestIcqpSweep:
    """The pattern sweep against a fresh solve of each pattern's own cone."""

    @staticmethod
    def _assert_matches_fresh_solves(point):
        loss = SquaredLoss()
        bundle = per_sample_derivatives(point.params, point.data, loss)
        boundary = boundary_analysis(point.params, point.data, loss, bundle=bundle)
        base = second_order.assembly_base(point.params, bundle, boundary)
        zero = np.zeros(boundary.total)
        ecqp = second_order.assemble_so_qp(
            point.params, point.data, loss, boundary, zero, base=base
        )
        face = projected_spectrum_oracle(ecqp.Q, ecqp.A)
        # both rays of every boundary sample are flat at these fixtures
        free = np.ones(boundary.total, dtype=bool)
        kinds = []
        sweep = second_order.icqp_sweep(base, face, zero.astype(int), free)
        for n, got, res in _patterns(sweep):
            row = second_order.sign_rows(zero, free, n, n + 1)[0]
            qp = second_order.assemble_so_qp(
                point.params, point.data, loss, boundary, row, base=base
            )
            fresh = solve_icqp(qp)
            want = (fresh.verdict, fresh.diagnostics["psd"], fresh.diagnostics.get("cp"),
                    fresh.diagnostics.get("copositivity", {}).get("cp_by"))
            assert got == want
            assert (res is None) == (got[0] == "T1")
            if res is not None:
                second_order.verify_witness(qp.Q, qp.A, qp.B, res.witness, res.verdict)
            kinds.append(got)
        assert len(kinds) == 2**boundary.total
        return Counter(kinds)

    def test_every_pattern_of_an_orthogonal_fixture(self):
        point = construct_boundary_fosp(
            5, 2, 1, seed=10, n_boundary=3, units=[0, 0, 1], mode="orthogonal"
        )
        kinds = self._assert_matches_fresh_solves(point)
        assert {cp_by for *_, cp_by in kinds} == {"pd_certificate", "simplex_bound"}

    def test_every_pattern_of_a_k7_fixture(self):
        # the shape of the flat-rays benchmark fixtures: K = 7 on d_x = 10,
        # with three flat (T2) patterns among the 128
        point = construct_boundary_fosp(
            10, 2, 1, seed=1060, n_boundary=7, units=[0] * 4 + [1] * 3, mode="orthogonal",
            max_attempts=1,
        )
        kinds = self._assert_matches_fresh_solves(point)
        assert kinds[("T2", "PD1", "CP2", "simplex_bound")] == 3

    @staticmethod
    def _count_forms(monkeypatch):
        """Record the sign row of every pattern whose form is assembled."""
        rows = []
        original = second_order.AssemblyBase.forms

        def counting(self, signs):
            rows.extend(tuple(row) for row in np.asarray(signs).tolist())
            return original(self, signs)

        monkeypatch.setattr(second_order.AssemblyBase, "forms", counting)
        return rows

    @pytest.mark.parametrize("seed, n_witnesses", [(1057, 0), (1060, 3)])
    def test_forms_are_assembled_only_for_witnesses(self, monkeypatch, seed, n_witnesses):
        # construction seed 1057 is a local minimum, 1060 an SOSP with three
        # flat patterns; the calculus decides every pattern without its form
        point = construct_boundary_fosp(
            10, 2, 1, seed=seed, n_boundary=7, units=[0] * 4 + [1] * 3, mode="orthogonal",
            max_attempts=1,
        )
        setup = _sweep_setup(point)
        assembled = self._count_forms(monkeypatch)
        sweep = list(_patterns(
            second_order.icqp_sweep(setup.base, setup.frame.face, setup.pinned, setup.free)
        ))
        witnessed = [tuple(setup.rows[n].tolist()) for n, _, res in sweep if res is not None]
        assert len(sweep) == 128 and len(witnessed) == n_witnesses
        assert assembled == witnessed

    @staticmethod
    def _failing(monkeypatch, fails):
        """Make the verification of every witness for which ``fails(verdict)``
        is true, in the order verified, come out as a failure."""
        from sospcheck.errors import InternalInconsistencyError

        original = second_order.verify_witness

        def spy(q_mat, a_mat, b_mat, eta, verdict):
            record = original(q_mat, a_mat, b_mat, eta, verdict)
            if fails(verdict):
                raise InternalInconsistencyError("planted failure")
            return record

        monkeypatch.setattr(second_order, "verify_witness", spy)

    def test_a_failing_witness_raises_when_its_pattern_is_reached(self, monkeypatch):
        from sospcheck.errors import InternalInconsistencyError

        setup = _sweep_setup(_k7_point())
        args = (setup.base, setup.frame.face, setup.pinned, setup.free)
        want = [res is not None for *_, res in _patterns(second_order.icqp_sweep(*args))]
        # a batch ends at a chunk's end: one pattern per chunk, one per batch
        monkeypatch.setattr(
            second_order, "PATTERN_CHUNK", setup.frame.b0.shape[0] * setup.frame.t0.shape[1]
        )
        seen = []
        self._failing(monkeypatch, lambda verdict: seen.append(verdict) or len(seen) == 2)
        reached = []
        with pytest.raises(InternalInconsistencyError, match="planted failure"):
            for *_, res in _patterns(second_order.icqp_sweep(*args)):
                reached.append(res is not None)
        # every pattern before the second witnessed one was yielded
        assert reached == want[: [i for i, w in enumerate(want) if w][1]]

    def test_no_witness_after_the_first_t3_is_verified(self, monkeypatch):
        from sospcheck.checker import sosp_check

        # K = 1: the first pattern is T3, and the second one follows it
        point = construct_boundary_fosp(3, 2, 2, seed=1, mode="orthogonal", residual_scale=3.0)
        setup = _sweep_setup(point)
        seen = []
        self._failing(monkeypatch, lambda verdict: "T3" in seen or seen.append(verdict))
        sweep = second_order.icqp_sweep(setup.base, setup.frame.face, setup.pinned, setup.free)
        first = next(sweep)
        assert len(first) == 1 and first.witnessed[0].verdict == "T3" and len(setup.rows) == 2
        seen.clear()
        verdict = sosp_check(point.params, point.data)
        diag = verdict.diagnostics
        assert (verdict.kind, verdict.stage, diag["n_icqp"]) == ("descent", "icqp", 1)
        assert seen == ["T3"]

    def test_a_cp3_that_lambda_min_did_not_announce_ends_its_batch(self, monkeypatch):
        # a segment ends at the patterns whose R22 or lambda_min(S) < -tol can
        # make them T3; a CP3 inside one (which interlacing rules out up to
        # rounding) is planted on pattern 2 of the K = 3 fixture, all PD1
        setup = _sweep_setup(_k3_point())
        args = (setup.base, setup.frame.face, setup.pinned, setup.free)
        want = [names for _, names, _ in _patterns(second_order.icqp_sweep(*args))]
        target = setup.calc.reduce(setup.signs)[2][2]
        original = second_order._copositivities

        def planted(s_mats, *rest):
            columns = original(s_mats, *rest)
            for j, s_mat in enumerate(s_mats):
                if np.array_equal(s_mat, target):
                    columns.kind[j], columns.by[j] = 2, 3  # CP3 by pareto
                    columns.witness[j] = np.eye(len(s_mat))[0]
            return columns

        monkeypatch.setattr(second_order, "_copositivities", planted)
        record = {"curvature": -1.0, "threshold": 0.0, "by": "bound"}
        monkeypatch.setattr(second_order, "verify_witness", lambda *args: record)
        batches = list(second_order.icqp_sweep(*args))
        assert [len(batch) for batch in batches] == [3, 5]
        assert [res.verdict for res in batches[0].witnessed.values()][-1] == "T3"
        got = [names for _, names, _ in _patterns(batches)]
        assert got[2] == ("T3", "PD1", "CP3", "pareto")
        assert got[:2] + got[3:] == want[:2] + want[3:]



def _psd_block(face, r12):
    """classify_psd_block with the PD3 threshold relative to the larger of
    the face's scale and max |R12|."""
    scale = max(face.scale, np.abs(r12).max(initial=0.0))
    return classify_psd_block(face, r12, second_order.DEFAULT_ZERO_EIG_TOL * scale)


class TestPsdBlock:
    @staticmethod
    def _classify(r22, r12):
        return _psd_block(projected_spectrum_oracle(r22, np.zeros((0, len(r22)))), r12)

    def test_identity_pd1(self):
        assert self._classify(np.eye(2), np.zeros((1, 2))).kind == "PD1"

    def test_singular_flat_pd2(self):
        res = self._classify(np.diag([1.0, 0.0]), np.zeros((1, 2)))
        assert res.kind == "PD2"
        assert abs(abs(res.witness_nu2[1]) - 1.0) <= 1e-12

    def test_singular_coupled_pd3(self):
        res = self._classify(np.diag([1.0, 0.0]), np.array([[0.0, 1.0]]))
        assert res.kind == "PD3"

    def test_negative_pd4(self):
        res = self._classify(np.diag([1.0, -1.0]), np.zeros((1, 2)))
        assert res.kind == "PD4"
        assert abs(abs(res.witness_nu2[1]) - 1.0) <= 1e-12

    def test_empty_block_is_pd1(self):
        # a face of dimension 0: the rows span the whole space
        face = projected_spectrum_oracle(np.eye(2), np.eye(2))
        assert _psd_block(face, np.zeros((2, 0))).kind == "PD1"


def _positive_vector_of_span(basis):
    """A vector of the span of ``basis`` with every entry at least 1, or None
    if the span holds no positive vector: one nonnegative least-squares
    solve of [basis, -basis, -I] z = 1, whose residual is zero exactly when
    basis c = 1 + s has a solution with s >= 0."""
    n, k = basis.shape
    z, residual = scipy.optimize.nnls(np.hstack([basis, -basis, -np.eye(n)]), np.ones(n))
    return basis @ (z[:k] - z[k : 2 * k]) if residual <= 1e-9 else None


def _reference_pareto_spectrum(s_mat, r_max=20, pos_tol=1e-9, comp_tol_factor=1e-10):
    """One eigendecomposition per principal subset: the oracle for
    pareto_spectrum. Also returns, for each pair, None, or for a pair of a
    run of repeated eigenvalues the orthonormal basis of its eigenspace
    (zero-padded to the rows of S): any positive unit vector of it is as
    good as the one the oracle found."""
    s_mat = require_finite(np.atleast_2d(s_mat), "S")
    r = s_mat.shape[0]
    if r > r_max:
        raise SubsetBudgetExceededError(f"r={r} exceeds the subset budget r_max={r_max}")
    scale = max(1.0, float(np.abs(s_mat).max(initial=0.0)))
    comp_tol = comp_tol_factor * scale
    degen_tol = 1e-9 * scale
    pairs, spans = [], []
    degenerate = False
    for size in range(1, r + 1):
        for subset in combinations(range(r), size):
            idx = np.array(subset)
            dec = sym_eig(s_mat[np.ix_(idx, idx)])
            candidates = [
                (float(lam), dec.eigenvectors[:, j], None) for j, lam in enumerate(dec.eigenvalues)
            ]
            # each run of repeated eigenvalues adds a positive vector of its
            # eigenvectors' span, if there is one
            values, lo = dec.eigenvalues, 0
            for j in range(1, len(values) + 1):
                if j < len(values) and values[j] - values[j - 1] <= degen_tol:
                    degenerate = True
                    continue
                if j - lo > 1:
                    x = _positive_vector_of_span(dec.eigenvectors[:, lo:j])
                    if x is not None:
                        span = np.zeros((r, j - lo))
                        span[idx] = dec.eigenvectors[:, lo:j]
                        candidates.append((float(values[lo]), x / np.linalg.norm(x), span))
                lo = j
            other = np.setdiff1d(np.arange(r), idx)
            for lam, xi, span in candidates:
                flip = xi[np.abs(xi).argmax()]
                if flip < 0:
                    xi = -xi
                if xi.min() <= pos_tol:
                    continue
                if other.size and (s_mat[np.ix_(other, idx)] @ xi).min() < -comp_tol:
                    continue
                vec = np.zeros(r)
                vec[idx] = xi
                pairs.append(ParetoEigenpair(lam, vec, subset))
                spans.append(span)
    return pairs, {"degenerate_multiplicity": degenerate, "subsets": 2**r - 1}, spans


def _assert_matches_reference(s_mat):
    got, got_diag = pareto_spectrum(s_mat)
    want, want_diag, spans = _reference_pareto_spectrum(s_mat)
    assert got_diag == want_diag
    assert [p.subset for p in got] == [p.subset for p in want]
    for g, w, span in zip(got, want, spans):
        assert abs(g.value - w.value) <= 1e-12
        if span is None:
            assert np.abs(g.vector - w.vector).max() <= 1e-12
            continue
        # a positive unit vector of the eigenspace, supported on the subset
        assert g.vector[list(g.subset)].min() > 0.0
        assert abs(np.linalg.norm(g.vector) - 1.0) <= 1e-12
        assert np.abs(g.vector - span @ (span.T @ g.vector)).max() <= 1e-12


def _repeated_eigenvalue_matrix():
    q, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((4, 4)))
    return q @ np.diag([1.0, 1.0, 3.0, -2.0]) @ q.T


class TestParetoSpectrum:
    def test_distinct_diagonal(self):
        pairs, _ = pareto_spectrum(np.diag([2.0, -1.0]))
        assert sorted(p.value for p in pairs) == [-1.0, 2.0]
        assert {p.subset for p in pairs} == {(0,), (1,)}

    def test_off_diagonal_coupling(self):
        pairs, _ = pareto_spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))
        values = sorted(round(p.value, 12) for p in pairs)
        assert values == [0.0, 0.0, 1.0]
        interior = [p for p in pairs if p.subset == (0, 1)]
        assert len(interior) == 1 and np.isclose(interior[0].value, 1.0)
        assert np.allclose(interior[0].vector, np.ones(2) / np.sqrt(2))

    def test_identity_any_size(self):
        for r in (1, 2, 3, 4):
            pairs, _ = pareto_spectrum(np.eye(r))
            assert {round(p.value, 12) for p in pairs} == {1.0}

    def test_repeated_eigenvalues_flagged(self):
        _, diag = pareto_spectrum(np.eye(3))
        assert diag["degenerate_multiplicity"]
        _, diag = pareto_spectrum(np.diag([1.0, 2.0]))
        assert not diag["degenerate_multiplicity"]

    def test_negative_coupling_rejects_singletons(self):
        pairs, _ = pareto_spectrum(np.array([[1.0, -3.0], [-3.0, 1.0]]))
        # singleton subsets fail complementarity; only the interior pair survives
        assert {p.subset for p in pairs} == {(0, 1)}
        assert np.isclose(pairs[0].value, -2.0)
        assert np.allclose(pairs[0].vector, np.ones(2) / np.sqrt(2))

    def test_budget(self):
        with pytest.raises(SubsetBudgetExceededError):
            pareto_spectrum(np.eye(3), r_max=2)

    def test_matches_per_subset_reference(self):
        rng = np.random.default_rng(13)
        for r in range(1, 10):
            for _ in range(3):
                g = rng.standard_normal((r, r))
                _assert_matches_reference(g + g.T)

    def test_matches_reference_on_repeated_eigenvalues(self):
        # in the last one the sum candidate of subset (0, 1) precedes the
        # eigenvector candidate of subset (0, 2)
        coupled = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.5, 0.5, 2.0]])
        for s_mat in (np.eye(3), np.diag([1.0, 1.0, 2.0]), _repeated_eigenvalue_matrix(), coupled):
            _assert_matches_reference(s_mat)
        assert pareto_spectrum(_repeated_eigenvalue_matrix())[1]["degenerate_multiplicity"]

    def test_matches_reference_on_random_eigenspaces(self):
        # a repeated eigenvalue in a random rotation. Its eigenspace holds
        # the positive first column of the basis in even trials, and most
        # bases that eigh returns for it need coefficients of both signs to
        # reach a positive vector; in odd trials it is orthogonal to that
        # column, so it holds no positive vector
        rng = np.random.default_rng(16)
        for trial in range(40):
            n = int(rng.integers(3, 6))
            k = min(int(rng.integers(2, 4)), n - 1)
            g = rng.standard_normal((n, n))
            g[:, 0] = rng.uniform(0.5, 1.5, n)
            basis = np.linalg.qr(g)[0]
            w = rng.uniform(0.5, 3.0, n)
            w[trial % 2 : trial % 2 + k] = -1.0
            _assert_matches_reference((basis * w) @ basis.T)

    def test_positive_vector_of_a_three_dimensional_eigenspace(self):
        # S = 2 I - 3 P, P the projector onto the span E of three integer
        # vectors, the first positive: lambda = -1 has the eigenspace E, and
        # E holds positive vectors, but neither the eigenvectors that eigh
        # returns for it nor the sum or difference of two of them is one
        v = np.array([[2, 1, 3, 1, 2], [-2, 2, 2, 1, 3], [3, -2, -3, -3, 2]], dtype=float)
        basis = np.linalg.qr(v.T)[0]
        s_mat = 2.0 * np.eye(5) - 3.0 * basis @ basis.T
        pairs, diag = pareto_spectrum(s_mat)
        assert diag["degenerate_multiplicity"]
        full = [pair for pair in pairs if pair.subset == (0, 1, 2, 3, 4)]
        assert len(full) == 1
        x = full[0].vector
        assert abs(full[0].value + 1.0) <= 1e-12
        assert x.min() > 0.0 and abs(np.linalg.norm(x) - 1.0) <= 1e-12
        assert np.abs(s_mat @ x + x).max() <= 1e-12

    def test_matches_reference_across_chunks(self, monkeypatch):
        # C(7, 3) = 35 subsets of size 3 span seven chunks of 5
        monkeypatch.setattr(second_order, "SPECTRUM_CHUNK", 5)
        g = np.random.default_rng(14).standard_normal((7, 7))
        _assert_matches_reference(g + g.T)
        _assert_matches_reference(np.eye(7))

    def test_working_memory_is_bounded(self):
        g = np.random.default_rng(15).standard_normal((16, 16))
        tracemalloc.start()
        try:
            pareto_spectrum(g + g.T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_asymmetric_input_rejected(self):
        with pytest.raises(NonSymmetricError):
            pareto_spectrum(np.array([[1.0, 2.0], [0.0, 1.0]]))
        # an asymmetry small against the largest entry of S but not against
        # the 2 x 2 submatrix it sits in, which the reference also rejects
        s_mat = np.diag([1e6, 1.0, 1.0])
        s_mat[1, 2] = 1e-8
        with pytest.raises(NonSymmetricError):
            _reference_pareto_spectrum(s_mat)
        with pytest.raises(NonSymmetricError):
            pareto_spectrum(s_mat)


class TestCopositivity:
    def test_identity_strictly_copositive(self):
        assert copositivity_classify(np.eye(3)).kind == "CP1"

    def test_flat_witness_does_not_follow_rounding(self):
        # diagonal entries at rounding level: every Pareto value is zero
        # within tol, so the witness is the first zero diagonal entry's,
        # e_1, in either order
        for deltas in ((3e-18, -2e-18), (-2e-18, 3e-18), (1e-18, 1e-18)):
            res = copositivity_classify(np.diag(deltas))
            assert res.kind == "CP2"
            assert np.array_equal(res.witness, [1.0, 0.0])
            assert res.diagnostics["lam_min_s"] == min(deltas)

    def test_flat_case(self):
        res = copositivity_classify(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert res.kind == "CP2"
        assert np.allclose(res.witness, [1.0, 0.0])
        assert abs(res.witness @ np.array([[0.0, 1.0], [1.0, 0.0]]) @ res.witness) <= 1e-12

    def test_negative_case(self):
        s = np.array([[1.0, -3.0], [-3.0, 1.0]])
        res = copositivity_classify(s)
        assert res.kind == "CP3"
        direction = res.witness / np.linalg.norm(res.witness)
        assert np.allclose(np.abs(direction), np.ones(2) / np.sqrt(2))
        scaled = res.witness * np.sqrt(2)  # proportional to (1, 1)
        assert np.isclose(scaled @ s @ scaled, -4.0)

    def test_simplex_sampling_never_contradicts(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            r = int(rng.integers(1, 5))
            s = rng.standard_normal((r, r))
            s = s + s.T
            res = copositivity_classify(s)
            samples = rng.dirichlet(np.ones(r), size=20_000)
            vals = np.einsum("ij,jk,ik->i", samples, s, samples)
            if res.kind == "CP3":
                w = res.witness
                assert w @ s @ w < 0
            else:
                assert vals.min() >= -1e-8


def _reference_copositivity(s_mat, r_max=20, zero_tol=second_order.DEFAULT_CP_TOL):
    """Enumeration only, from the sign of the minimal Pareto eigenvalue: the
    oracle for copositivity_classify. Returns (kind, witness, min_pareto); the
    CP3 witness is the pair of the minimal value, the CP2 witness the first
    pair whose value is within tol of zero."""
    pairs, _ = pareto_spectrum(s_mat, r_max=r_max)
    values = np.array([p.value for p in pairs])
    best = int(np.argmin(values))
    lam_min = float(values[best])
    tol = zero_tol * max(1.0, float(np.abs(np.atleast_2d(s_mat)).max(initial=0.0)))
    if lam_min > tol:
        return "CP1", None, lam_min
    if lam_min < -tol:
        return "CP3", pairs[best].vector, lam_min
    flat = int(np.flatnonzero(np.abs(values) <= tol)[0])
    return "CP2", pairs[flat].vector, lam_min


def _assert_flat_witness(s_mat, got):
    """A copositivity result decided without the enumeration carries no
    witness for CP1, and for CP2 a unit witness x >= 0 with |x^T S x| <= tol."""
    if got.kind == "CP1":
        assert got.witness is None
        return
    assert got.kind == "CP2"
    x = got.witness
    assert x.min() >= 0.0 and np.linalg.norm(x) == pytest.approx(1.0, rel=1e-12)
    assert abs(x @ s_mat @ x) <= got.diagnostics["tol"]


def _random_s(rng, r, kind):
    """Random symmetric r x r matrix of one of four kinds."""
    if kind == "pd":
        g = rng.standard_normal((r + 2, r))
        return g.T @ g + 0.1 * np.eye(r)
    if kind == "copositive_not_psd":
        # positive diagonal and nonnegative off-diagonals: copositive, and
        # not PSD when an off-diagonal entry dominates its two diagonals
        n = rng.random((r, r)) + 1.0
        return n + n.T + np.diag(0.1 + rng.random(r) - 2.0 * np.diag(n))
    if kind == "indefinite":
        g = rng.standard_normal((r, r))
        return g + g.T
    if kind == "singular_psd":
        g = rng.standard_normal((r, r - 1))
        return g @ g.T
    raise ValueError(kind)


def _s_with_lam_min(rng, r, lam):
    """Symmetric S whose smallest eigenvalue ``lam`` has a positive eigenvector
    (so lam is also the minimal Pareto eigenvalue) and whose others lie in
    [1, 3]."""
    v = np.abs(rng.standard_normal(r)) + 0.5
    v /= np.linalg.norm(v)
    basis = np.linalg.qr(np.column_stack([v, rng.standard_normal((r, r - 1))]))[0]
    basis[:, 0] = v
    basis = np.linalg.qr(basis)[0]
    basis[:, 0] *= np.sign(basis[0, 0])
    vals = np.concatenate([[lam], 1.0 + 2.0 * rng.random(r - 1)])
    s_mat = (basis * vals) @ basis.T
    return 0.5 * (s_mat + s_mat.T)


class TestCopositivityCertificate:
    KINDS = ("pd", "copositive_not_psd", "indefinite", "singular_psd")

    @staticmethod
    def _assert_matches_enumeration(s_mat):
        got = copositivity_classify(s_mat)
        kind, witness, min_pareto = _reference_copositivity(s_mat)
        assert got.kind == kind
        if got.diagnostics["cp_by"] == "pareto":
            assert got.min_pareto == min_pareto
            assert (got.witness is None) == (witness is None)
            if witness is not None:
                assert np.array_equal(got.witness, witness)
        else:
            assert got.diagnostics["cp_by"] in ("pd_certificate", "zero_diagonal", "simplex_bound")
            assert got.min_pareto is None and got.spectrum is None
            _assert_flat_witness(s_mat, got)
        return got

    def test_certificate_matches_enumeration(self):
        rng = np.random.default_rng(31)
        decided_by = {kind: set() for kind in self.KINDS}
        for r in range(1, 9):
            for kind in self.KINDS:
                if r == 1 and kind in ("copositive_not_psd", "singular_psd"):
                    continue  # a 1 x 1 copositive matrix is PSD; G G^T is 0
                for _ in range(3):
                    got = self._assert_matches_enumeration(_random_s(rng, r, kind))
                    decided_by[kind].add(got.diagnostics["cp_by"])
                    if kind == "copositive_not_psd":
                        assert got.kind == "CP1" and got.diagnostics["lam_min_s"] < 0
        assert decided_by["pd"] == {"pd_certificate"}
        assert decided_by["copositive_not_psd"] == {"pareto"}
        assert decided_by["singular_psd"] == {"simplex_bound"}
        assert "pareto" in decided_by["indefinite"]

    def test_threshold_edges(self):
        rng = np.random.default_rng(32)
        for r in range(1, 9):
            s0 = _s_with_lam_min(rng, r, 0.0)
            tol = second_order.DEFAULT_CP_TOL * max(1.0, np.abs(s0).max())
            # r = 1: S is its own diagonal entry
            flat_by = "zero_diagonal" if r == 1 else "simplex_bound"
            for factor, want_kind, want_by in ((1 + 1e-3, "CP1", "pd_certificate"),
                                               (1 - 1e-3, "CP2", flat_by)):
                s_mat = s0 + factor * tol * np.eye(r)
                got = self._assert_matches_enumeration(s_mat)
                assert (got.kind, got.diagnostics["cp_by"]) == (want_kind, want_by)
                assert got.diagnostics["tol"] == pytest.approx(tol, rel=1e-12)
                assert got.diagnostics["lam_min_s"] == pytest.approx(factor * tol, rel=1e-6)

    def test_budget_and_symmetry_are_checked_before_the_certificate(self):
        with pytest.raises(SubsetBudgetExceededError):
            copositivity_classify(np.eye(3), r_max=2)
        with pytest.raises(NonSymmetricError):
            copositivity_classify(np.array([[1.0, 1e-6], [0.0, 1.0]]))


class TestCopositivityRules:
    """Each rule that decides without the enumeration, against the
    enumeration, and its witnesses lifted through a cone QP whose Schur
    complement is S, where the solver re-verifies them in original
    coordinates."""

    VERDICT = {"CP1": "T1", "CP2": "T2", "CP3": "T3"}

    @staticmethod
    def _cone_with_schur(rng, s_mat):
        """Q = diag(S, I_2) on nu = (nu1, nu2) with B = [I 0], in rotated
        coordinates: R11 = S, R12 = 0 and R22 = I_2."""
        r = len(s_mat)
        p = r + 2
        q_mat = np.eye(p)
        q_mat[:r, :r] = s_mat
        rot = np.linalg.qr(rng.standard_normal((p, p)))[0]
        return ConeQP(rot @ q_mat @ rot.T, np.zeros((0, p)), np.eye(p)[:r] @ rot.T)

    def _assert_decides(self, rng, s_mat, want_kind, want_by):
        got = TestCopositivityCertificate._assert_matches_enumeration(s_mat)
        assert (got.kind, got.diagnostics["cp_by"]) == (want_kind, want_by)
        res = solve_icqp(self._cone_with_schur(rng, s_mat))
        assert res.verdict == self.VERDICT[want_kind]
        assert (res.diagnostics["cp"], res.diagnostics["copositivity"]["cp_by"]) == (
            want_kind, want_by)
        return got

    def test_psd_with_and_without_a_nonnegative_null_vector(self):
        rng = np.random.default_rng(41)
        for r in range(2, 8):
            for positive in (True, False):
                v = np.abs(rng.standard_normal(r)) + 0.5
                if not positive:
                    v[0] = -v[0]
                proj = np.eye(r) - np.outer(v, v) / (v @ v)
                g = rng.standard_normal((r + 2, r))
                s_mat = proj @ (g.T @ g) @ proj
                s_mat = 0.5 * (s_mat + s_mat.T)
                got = self._assert_decides(rng, s_mat, "CP2" if positive else "CP1",
                                           "simplex_bound")
                if positive:  # the witness is the null vector
                    assert np.abs(got.witness - v / np.linalg.norm(v)).max() <= 1e-6

    def test_zero_rows_and_columns(self):
        rng = np.random.default_rng(42)
        for r in range(1, 8):
            for n_zero in range(1, r + 1):
                zero = np.sort(rng.choice(r, size=n_zero, replace=False))
                rest = np.setdiff1d(np.arange(r), zero)
                g = rng.standard_normal((len(rest) + 1, len(rest)))
                s_mat = np.zeros((r, r))
                s_mat[np.ix_(rest, rest)] = g.T @ g
                got = self._assert_decides(rng, s_mat, "CP2", "zero_diagonal")
                assert np.array_equal(got.witness, np.eye(r)[zero[0]])
                if len(rest):  # negative curvature off the zero rows: enumerated
                    s_mat[rest[0], rest[0]] = -1.0
                    self._assert_decides(rng, s_mat, "CP3", "pareto")

    def test_lambda_min_at_the_threshold(self):
        # lambda_min(S) at +-tol (1 +- 1e-3), with a positive eigenvector
        # (the minimal Pareto eigenvalue is lambda_min) and with a mixed one
        rng = np.random.default_rng(43)
        for r in range(2, 8):
            for positive in (True, False):
                s0 = _s_with_lam_min(rng, r, 0.0)
                if not positive:
                    sign = np.ones(r)
                    sign[0] = -1.0
                    s0 = sign[:, None] * s0 * sign
                tol = second_order.DEFAULT_CP_TOL * max(1.0, np.abs(s0).max())
                cases = (
                    (1 + 1e-3, "CP1", "pd_certificate"),
                    (1 - 1e-3, "CP2" if positive else "CP1", "simplex_bound"),
                    (-1 + 1e-3, "CP2" if positive else "CP1", "simplex_bound"),
                    (-1 - 1e-3, "CP3" if positive else "CP1", "pareto"),
                )
                for factor, want_kind, want_by in cases:
                    s_mat = s0 + factor * tol * np.eye(r)
                    got = self._assert_decides(rng, s_mat, want_kind, want_by)
                    assert got.diagnostics["lam_min_s"] == pytest.approx(factor * tol, rel=1e-6)


class TestSolveIcqp:
    def test_negative_on_ray(self):
        qp = ConeQP(np.diag([-1.0, 1.0]), np.zeros((0, 2)), np.array([[1.0, 0.0]]))
        res = solve_icqp(qp)
        assert res.verdict == "T3"
        w = res.witness / np.linalg.norm(res.witness)
        assert np.allclose(np.abs(w), [1.0, 0.0], atol=1e-9)
        assert np.isclose(w @ qp.Q @ w, -1.0)

    def test_identity_everywhere_positive(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            qp = random_cone_qp(rng, 5, 1, 2, kind="pd")
            assert solve_icqp(qp).verdict == "T1"

    def test_flat_cone_direction(self):
        qp = ConeQP(np.diag([0.0, 1.0]), np.zeros((0, 2)), np.array([[1.0, 0.0]]))
        res = solve_icqp(qp)
        assert res.verdict == "T2"
        w = res.witness / np.linalg.norm(res.witness)
        assert np.allclose(np.abs(w), [1.0, 0.0], atol=1e-9)
        # a zero form: every threshold is 0 and every direction is flat
        qp = ConeQP(np.zeros((3, 3)), np.zeros((0, 3)), np.array([[1.0, 0.0, 0.0]]))
        res = solve_icqp(qp)
        assert (res.verdict, res.diagnostics["psd"], res.diagnostics["cp"]) == ("T2", "PD2", "CP2")

    def test_pd3_null_coupling_is_unbounded(self):
        # R22 = diag(1, 0) with R12 seeing the null vector: the form is
        # unbounded below along (nu1 fixed, t * nu2), detected as PD3 -> T3
        q_mat = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        qp = ConeQP(q_mat, np.zeros((0, 3)), np.array([[1.0, 0.0, 0.0]]))
        res = solve_icqp(qp)
        assert res.verdict == "T3"
        assert res.diagnostics["psd"] == "PD3"
        w = res.witness
        assert (qp.B @ w).min() >= -1e-10
        assert w @ q_mat @ w < 0

    def test_pd3_with_every_coupling_entry_below_tol(self):
        # R22 = diag(1, 0); no entry of R12 z exceeds tol while
        # ||R12 z|| = 1.04 tol does: PD3, decided along the largest entry
        r = 4
        tol = second_order.DEFAULT_ZERO_EIG_TOL  # the scale of the blocks is 1
        q_mat = np.zeros((r + 2, r + 2))
        q_mat[r, r] = 1.0
        q_mat[:r, r + 1] = q_mat[r + 1, :r] = np.array([0.4, 0.6, 0.5, 0.55]) * tol
        qp = ConeQP(q_mat, np.zeros((0, r + 2)), np.eye(r + 2)[:r])
        res = solve_icqp(qp)
        assert (res.verdict, res.diagnostics["psd"]) == ("T3", "PD3")
        red = icqp_reduce(qp)
        psd = classify_psd_block(red.frame.face, red.h12, tol)
        image = red.h12 @ psd.witness_nu2
        assert np.abs(image).max() <= tol < np.linalg.norm(image)
        assert res.diagnostics["pd3_cross"] == image[np.argmax(np.abs(image))]
        assert abs(res.diagnostics["pd3_cross"]) == pytest.approx(0.6 * tol, rel=1e-9)
        assert np.argmax(np.abs(res.witness[:r])) == 1  # nu1 = e_1
        second_order.verify_witness(qp.Q, qp.A, qp.B, res.witness, "T3")
        assert (qp.B @ res.witness).min() >= 0.0

    @staticmethod
    def _rotated_pd3_cones():
        """PD3 cones with a known pair: (Q, A, B, j, w), w the one null vector of
        the form on the face and j the one inequality row whose minimum-norm
        direction it couples to. The coordinates are rotated at random."""
        r, tol = 4, second_order.DEFAULT_ZERO_EIG_TOL
        q_mat = np.zeros((r + 2, r + 2))
        q_mat[r, r] = 1.0
        q_mat[:r, r + 1] = q_mat[r + 1, :r] = np.array([0.4, 0.6, 0.5, 0.55]) * tol
        yield q_mat, np.zeros((0, r + 2)), np.eye(r + 2)[:r], 1, np.eye(r + 2)[r + 1]
        # e_0 is eliminated, e_1 and e_2 are the inequality rows, the face is
        # span(e_3, e_4) with null vector e_4, coupled to e_2 only
        q_mat = np.diag([3.0, 1.5, 0.7, 2.0, 0.0])
        q_mat[0, 4] = q_mat[4, 0] = -0.8
        q_mat[1, 3] = q_mat[3, 1] = 0.4
        q_mat[2, 4] = q_mat[4, 2] = 0.3
        eye = np.eye(5)
        for seed in range(3):
            rot = np.linalg.qr(np.random.default_rng(40 + seed).standard_normal((5, 5)))[0]
            yield rot @ q_mat @ rot.T, eye[:1] @ rot.T, eye[1:3] @ rot.T, 1, rot @ eye[4]

    def test_pd3_witness_is_the_least_curvature_on_the_pair(self):
        # u, the minimum-norm direction with A u = 0 and B u = e_j, is
        # orthogonal to the face, so the least Rayleigh quotient on span{u, w}
        # is that of the 2 x 2 form on (u / ||u||, w), in closed form
        for q_mat, a_mat, b_mat, j, w in self._rotated_pd3_cones():
            qp = ConeQP(q_mat, a_mat, b_mat)
            res = solve_icqp(qp)
            assert (res.verdict, res.diagnostics["psd"]) == ("T3", "PD3")
            rows = np.vstack([a_mat, b_mat])
            u = np.linalg.pinv(rows) @ np.eye(len(rows))[a_mat.shape[0] + j]
            u /= np.linalg.norm(u)
            alpha, beta, gamma = u @ qp.Q @ u, u @ qp.Q @ w, w @ qp.Q @ w
            least = 0.5 * (alpha + gamma) - np.hypot(0.5 * (alpha - gamma), beta)
            eta = res.witness
            assert least < 0
            assert abs(eta @ qp.Q @ eta / (eta @ eta) - least) <= 1e-12 * abs(least)
            # the witness lies in the span, with a nonnegative u coefficient
            assert np.linalg.norm(eta - (eta @ u) * u - (eta @ w) * w) <= 1e-12
            assert eta @ u >= 0.0
            assert np.linalg.norm(a_mat @ eta) <= 1e-12 and (b_mat @ eta).min() >= -1e-12

    def test_pd3_span_without_negative_curvature_raises(self):
        # PD3 is called on a coupling that cannot make the span's curvature
        # negative once the small eigenvalue of R22 counts: the call is wrong
        from sospcheck.errors import InternalInconsistencyError

        q_mat = np.diag([1.0, 1.0, 1e-9])
        q_mat[0, 2] = q_mat[2, 0] = 2e-8
        qp = ConeQP(q_mat, np.zeros((0, 3)), np.eye(3)[:1])
        with pytest.raises(InternalInconsistencyError, match="no negative curvature"):
            solve_icqp(qp)

    def test_random_witnesses_reverify(self):
        rng = np.random.default_rng(11)
        kinds = ("indefinite", "pd", "psd_null")
        seen = set()
        for trial in range(60):
            p = int(rng.integers(4, 9))
            q = int(rng.integers(0, min(3, p - 2) + 1))
            r = int(rng.integers(1, min(3, p - q - 1) + 1))
            qp = random_cone_qp(rng, p, q, r, kind=kinds[trial % 3])
            res = solve_icqp(qp)
            seen.add(res.verdict)
            if res.verdict == "T3":
                w = res.witness
                n = np.linalg.norm(w)
                assert np.linalg.norm(qp.A @ w) <= 1e-8 * n
                assert (qp.B @ w).min() >= -1e-8 * n
                qnorm = max(abs(np.linalg.eigvalsh(qp.Q)).max(), 1e-300)
                assert w @ qp.Q @ w <= -1e-10 * qnorm * n * n
        assert {"T1", "T3"} <= seen
