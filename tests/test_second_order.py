import tracemalloc
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
import scipy.linalg

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
    Perturbation,
    SignPattern,
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
    pattern_jvals,
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


class TestConeQP:
    def test_rejects_dependent_constraints(self):
        with pytest.raises(RankDeficientConstraintsError):
            ConeQP(np.eye(3), np.array([[1.0, 0.0, 0.0]]), np.array([[2.0, 0.0, 0.0]]))

    def test_rejects_asymmetric_q(self):
        with pytest.raises(NonSymmetricError):
            ConeQP(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((0, 2)), np.zeros((0, 2)))

    def test_with_signs_splits_and_signs_the_rows(self):
        rows = np.random.default_rng(35).standard_normal((4, 6))
        base = ConeQP(np.zeros((6, 6)), rows, np.zeros((0, 6)))
        q_mat = np.diag(np.arange(6.0))
        cone = base.with_signs(q_mat, np.array([0, -1, 0, 1]))
        assert np.array_equal(cone.Q, q_mat)
        assert np.array_equal(cone.A, rows[[0, 2]])
        assert np.array_equal(cone.B, np.vstack([-rows[1], rows[3]]))
        assert cone.shape == (6, 2, 2)
        with pytest.raises(NonSymmetricError):
            base.with_signs(np.triu(np.ones((6, 6))), np.zeros(4))
        with pytest.raises(ValueError):
            base.with_signs(np.eye(5), np.zeros(4))
        with pytest.raises(ValueError):
            base.with_signs(q_mat, np.array([0, 2, 0, 1]))
        with pytest.raises(ValueError):
            base.with_signs(q_mat, np.zeros(3))
        with pytest.raises(ValueError):  # only equality rows are re-signed
            cone.with_signs(q_mat, np.zeros(2))


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
            point.params, point.data, loss, boundary, SignPattern.all_zero(boundary), bundle=bundle
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
        pattern = dict(SignPattern.all_zero(boundary).entries)
        pattern[(point.unit, 0)] = 1  # the single flat index becomes an inequality
        qp = assemble_so_qp(
            point.params, point.data, loss, boundary, SignPattern.from_dict(pattern), bundle=bundle
        )
        _, q, r = qp.shape
        assert q == d_h + boundary.total - 1
        assert r == 1

    def _assert_form_matches_objective(self, point, loss, pattern, seed, n_directions=100):
        from sospcheck.second_order import assemble_so_qp

        rng = np.random.default_rng(seed)
        bundle = per_sample_derivatives(point.params, point.data, loss)
        boundary = boundary_analysis(point.params, point.data, loss, bundle=bundle)
        if pattern is None:
            pattern = SignPattern.all_zero(boundary)
        qp = assemble_so_qp(point.params, point.data, loss, boundary, pattern, bundle=bundle)
        assert np.array_equal(qp.Q, qp.Q.T)
        for _ in range(n_directions):
            vec = rng.standard_normal(point.params.n_params)
            eta = Perturbation.unpack(vec, point.params.dims)
            direct = pattern_objective(point.params, bundle, pattern, eta)
            assert abs(vec @ qp.Q @ vec - 2.0 * direct) <= 1e-9 * max(1.0, abs(direct))

    def test_quadratic_form_matches_direct_objective(self):
        point = construct_boundary_fosp(3, 2, 2, seed=2, mode="interior")
        # CoshLoss: per-sample Hessians that differ from each other and from the identity
        for loss in (SquaredLoss(), CoshLoss()):
            self._assert_form_matches_objective(point, loss, None, seed=3)

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
        pattern = {(point.unit, 0): -1}
        self._assert_form_matches_objective(
            point, CoshLoss(), SignPattern.from_dict(pattern), seed=6, n_directions=30
        )

    @staticmethod
    def _reference_qp(params, bundle, boundary, pattern):
        """Q, A and B of one pattern summed over every sample, with no shared base."""
        d_x, d_h, d_y = params.dims
        p = params.n_params
        _, sl_u, sl_v = perturbation_layout(params.dims)
        jvals = pattern_jvals(params, bundle, pattern, np.arange(bundle.m))
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
        sigma = pattern.as_dict()
        for k in range(d_h):
            for i in boundary.boundary_indices[k]:
                s = sigma[(k, int(i))]
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
            pairs = [(k, int(i)) for k, idx in enumerate(boundary.boundary_indices) for i in idx]
            assert sorted(i for _, i in pairs) == [7, ASSEMBLY_BLOCK + 3]
            base = assembly_base(point.params, bundle, boundary)
            n_patterns = 0
            for signs in product((-1, 0, 1), repeat=len(pairs)):
                pattern = SignPattern.from_dict(dict(zip(pairs, signs)))
                qp = assemble_so_qp(
                    point.params, data, loss, boundary, pattern, bundle=bundle, base=base
                )
                q_ref, a_ref, b_ref = self._reference_qp(point.params, bundle, boundary, pattern)
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
            assemble_so_qp(params, data, loss, boundary, SignPattern.all_zero(boundary))

    def test_signed_pattern_objective_matches_too(self):
        from sospcheck.second_order import assemble_so_qp

        rng = np.random.default_rng(4)
        point, loss, bundle, boundary = self._fixture("edge", seed=5)
        pattern = dict(SignPattern.all_zero(boundary).entries)
        pattern[(point.unit, 0)] = -1
        pattern = SignPattern.from_dict(pattern)
        qp = assemble_so_qp(point.params, point.data, loss, boundary, pattern, bundle=bundle)
        for _ in range(50):
            vec = rng.standard_normal(point.params.n_params)
            eta = Perturbation.unpack(vec, point.params.dims)
            direct = pattern_objective(point.params, bundle, pattern, eta)
            assert abs(vec @ qp.Q @ vec - 2.0 * direct) <= 1e-9 * max(1.0, abs(direct))


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


def _pivot_permutation(mat):
    _, _, piv = scipy.linalg.qr(mat, mode="economic", pivoting=True)
    return piv


def _reference_icqp_reduce(qp):
    """Two pivoted eliminations, of A and then of the reduced B: the oracle for
    icqp_reduce. Returns (R11, R12, R22) of the reduced form, and the map from
    the coordinates of R22 to original directions, a basis of the face
    {A eta = 0, B eta = 0} that is not orthonormal."""
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
    return r_bar[:r, :r], r_bar[:r, r:], r_bar[r:, r:], (map_a @ map_b)[:, r:]


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


def _matches_reference(qp, frame):
    """Assert that the frame's reduction of ``qp`` matches the double
    elimination: block shapes, the PSD kind at the reference's zero threshold,
    and, for a positive definite R22, the Schur complement. Returns the kind."""
    p, q, r = qp.shape
    red = icqp_reduce(qp, frame=frame)
    r11, r12, r22, _ = _reference_icqp_reduce(qp)
    for new, ref in ((red.r11, r11), (red.r12, r12), (frame.face_pinv, r22)):
        assert new.shape == ref.shape
    # the zero threshold of the PD3 test: relative to the largest block entry
    tol = second_order.DEFAULT_ZERO_EIG_TOL * max(
        np.abs(b).max(initial=0.0) for b in (r11, r12, r22)
    )
    psd_kind = _reference_psd_kind(r22, r12, tol)
    assert classify_psd_block(frame.face, red.r12, tol).kind == psd_kind
    if psd_kind == "PD1":
        schur = red.r11 - red.r12 @ frame.face_pinv @ red.r12.T
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
            t = icqp_reduce(qp).t
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
            psd_kind = _matches_reference(qp, second_order.icqp_frame(qp))
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
            icqp_reduce(qp, rank_tol=1e-6)
        qp = ConeQP(np.eye(4), near_dependent, e[3:])
        icqp_reduce(qp)
        with pytest.raises(RankDeficientError, match="dimension 3, expected 2"):
            icqp_reduce(qp, rank_tol=1e-6)

    def test_no_inequalities_is_an_error(self):
        qp = ConeQP(np.eye(2), np.array([[1.0, 0.0]]), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            icqp_reduce(qp)

    def test_round_trip_feasibility_and_values(self):
        rng = np.random.default_rng(8)
        qp = random_cone_qp(rng, 6, 2, 2, kind="indefinite")
        frame = second_order.icqp_frame(qp)
        red = icqp_reduce(qp, frame=frame)
        r22 = frame.face.decomposition.reconstruct()
        for _ in range(1000):
            nu1 = np.abs(rng.standard_normal(2))
            nu2 = rng.standard_normal(2)
            eta = red.eta_from_nu(nu1, nu2)
            assert np.linalg.norm(qp.A @ eta) <= 1e-9 * max(1.0, np.linalg.norm(eta))
            assert (qp.B @ eta >= -1e-9).all()
            assert np.allclose(qp.B @ eta, nu1, atol=1e-9)
            nu = np.concatenate([nu1, nu2])
            r_bar = np.block([[red.r11, red.r12], [red.r12.T, r22]])
            assert abs(eta @ qp.Q @ eta - nu @ r_bar @ nu) <= 1e-9 * max(
                1.0, abs(nu @ r_bar @ nu)
            )


def _orthogonal_fixture_cones():
    """The all-zero pattern's cone, and every sign pattern's cone in
    lexicographic sign order, at an orthogonal fixture with K = 3 (both rays
    of three boundary samples flat)."""
    from sospcheck.second_order import assemble_so_qp, assembly_base

    point = construct_boundary_fosp(
        5, 2, 1, seed=10, n_boundary=3, units=[0, 0, 1], mode="orthogonal"
    )
    loss = SquaredLoss()
    bundle = per_sample_derivatives(point.params, point.data, loss)
    boundary = boundary_analysis(point.params, point.data, loss, bundle=bundle)
    pairs = [(k, int(i)) for k, idx in enumerate(boundary.boundary_indices) for i in idx]
    base = assembly_base(point.params, bundle, boundary)
    cones = []
    for signs in product((-1, 1), repeat=len(pairs)):
        pattern = SignPattern.from_dict(dict(zip(pairs, signs)))
        cones.append(assemble_so_qp(point.params, point.data, loss, boundary, pattern, base=base))
    pattern0 = SignPattern.all_zero(boundary)
    return assemble_so_qp(point.params, point.data, loss, boundary, pattern0, base=base), cones


class TestIcqpFrame:
    @staticmethod
    def _assert_matches_fresh_reduction(qp, frame):
        p, q, r = qp.shape
        red = icqp_reduce(qp, frame=frame)
        t_norm = np.linalg.norm(red.t)
        assert np.linalg.norm(qp.A @ red.t) <= 1e-12 * np.linalg.norm(qp.A) * t_norm
        target = np.hstack([np.eye(r), np.zeros((r, p - q - r))])
        assert np.abs(qp.B @ red.t - target).max() <= 1e-12 * np.linalg.norm(qp.B) * t_norm
        return _matches_reference(qp, frame)

    def test_every_pattern_of_an_orthogonal_fixture(self):
        ecqp, cones = _orthogonal_fixture_cones()
        assert len(cones) == 8 and cones[0].shape[2] == 3
        frame = second_order.icqp_frame(cones[0])
        for qp in cones:
            assert np.array_equal(qp.A, cones[0].A)
            assert np.array_equal(np.abs(qp.B), np.abs(cones[0].B))
            assert self._assert_matches_fresh_reduction(qp, frame) == "PD1"
        # a frame built from any pattern, or on the equality-constrained QP's
        # subspace as the checker builds it, serves the others
        face = projected_spectrum_oracle(ecqp.Q, ecqp.A)
        for frame in (second_order.icqp_frame(cones[5]),
                      second_order.icqp_frame(cones[0], face=face)):
            for qp in cones:
                assert self._assert_matches_fresh_reduction(qp, frame) == "PD1"

    def test_r22_of_every_pattern_is_the_equality_constrained_form(self):
        # R22 of the double elimination, in its own basis of the face,
        # against the all-zero pattern's projected form in the same basis
        ecqp, cones = _orthogonal_fixture_cones()
        face = projected_spectrum_oracle(ecqp.Q, ecqp.A)
        form = face.basis.T @ ecqp.Q @ face.basis
        for qp in cones:
            _, _, r22, face_map = _reference_icqp_reduce(qp)
            coords = face.basis.T @ face_map
            assert np.abs(face.basis @ coords - face_map).max() <= 1e-12 * np.abs(face_map).max()
            assert np.abs(coords.T @ form @ coords - r22).max() <= 1e-12 * np.abs(r22).max()

    def test_reduction_and_psd_block_run_no_eigendecomposition(self, monkeypatch):
        ecqp, cones = _orthogonal_fixture_cones()
        frame = second_order.icqp_frame(cones[0], face=projected_spectrum_oracle(ecqp.Q, ecqp.A))

        def no_eig(*args, **kwargs):
            raise AssertionError("an eigendecomposition ran")

        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, no_eig)
        monkeypatch.setattr(second_order, "sym_eig", no_eig)
        for qp in cones:
            red = icqp_reduce(qp, frame=frame)
            assert not hasattr(red, "r22")
            assert classify_psd_block(frame.face, red.r12, 1e-8).kind == "PD1"

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
                assert np.array_equal(frame.signs(qp), sigma)
                seen.add(self._assert_matches_fresh_reduction(qp, frame))
        assert {"PD1", "PD4"} <= seen

    def test_mismatched_rows_raise(self):
        from sospcheck.errors import InternalInconsistencyError

        rng = np.random.default_rng(34)
        first = random_cone_qp(rng, 6, 2, 3, kind="pd")
        frame = second_order.icqp_frame(first)
        a = first.A.copy()
        a[1, 2] = np.nextafter(a[1, 2], np.inf)
        b_scaled = first.B.copy()
        b_scaled[1] *= 2.0
        b_mixed = first.B.copy()
        b_mixed[2, 0] = -b_mixed[2, 0]  # one entry flipped, not the whole row
        b_swapped = first.B[[1, 0, 2]]
        for a_mat, b_mat in ((a, first.B), (first.A, b_scaled), (first.A, b_mixed),
                             (first.A, b_swapped), (first.A, first.B[:2])):
            with pytest.raises(InternalInconsistencyError):
                icqp_reduce(ConeQP(first.Q, a_mat, b_mat), frame=frame)

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


def _reference_pareto_spectrum(s_mat, r_max=20, pos_tol=1e-9, comp_tol_factor=1e-10):
    """One eigendecomposition per principal subset: the oracle for pareto_spectrum."""
    s_mat = require_finite(np.atleast_2d(s_mat), "S")
    r = s_mat.shape[0]
    if r > r_max:
        raise SubsetBudgetExceededError(f"r={r} exceeds the subset budget r_max={r_max}")
    scale = max(1.0, float(np.abs(s_mat).max(initial=0.0)))
    comp_tol = comp_tol_factor * scale
    degen_tol = 1e-9 * scale
    pairs = []
    degenerate = False
    for size in range(1, r + 1):
        for subset in combinations(range(r), size):
            idx = np.array(subset)
            dec = sym_eig(s_mat[np.ix_(idx, idx)])
            candidates = [(float(lam), dec.eigenvectors[:, j]) for j, lam in enumerate(dec.eigenvalues)]
            for j in range(len(dec.eigenvalues) - 1):
                if abs(dec.eigenvalues[j + 1] - dec.eigenvalues[j]) <= degen_tol:
                    degenerate = True
                    a = dec.eigenvectors[:, j]
                    b = dec.eigenvectors[:, j + 1]
                    for combo in (a + b, a - b):
                        nrm = np.linalg.norm(combo)
                        if nrm > 0:
                            candidates.append((float(dec.eigenvalues[j]), combo / nrm))
            other = np.setdiff1d(np.arange(r), idx)
            for lam, xi in candidates:
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
    return pairs, {"degenerate_multiplicity": degenerate, "subsets": 2**r - 1}


def _assert_matches_reference(s_mat):
    got, got_diag = pareto_spectrum(s_mat)
    want, want_diag = _reference_pareto_spectrum(s_mat)
    assert got_diag == want_diag
    assert [p.subset for p in got] == [p.subset for p in want]
    for g, w in zip(got, want):
        assert abs(g.value - w.value) <= 1e-12
        assert np.abs(g.vector - w.vector).max() <= 1e-12


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
        # within tol, so the witness is the first pair, e_1, in either order
        for deltas in ((3e-18, -2e-18), (-2e-18, 3e-18), (1e-18, 1e-18)):
            res = copositivity_classify(np.diag(deltas))
            assert res.kind == "CP2"
            assert np.array_equal(res.witness, [1.0, 0.0])
            assert res.min_pareto == min(deltas)

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
            assert got.diagnostics["cp_by"] == "pd_certificate"
            assert got.min_pareto is None and got.spectrum is None and got.witness is None
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
        assert decided_by["copositive_not_psd"] == decided_by["singular_psd"] == {"pareto"}
        assert "pareto" in decided_by["indefinite"]

    def test_threshold_edges(self):
        rng = np.random.default_rng(32)
        for r in range(1, 9):
            s0 = _s_with_lam_min(rng, r, 0.0)
            tol = second_order.DEFAULT_CP_TOL * max(1.0, np.abs(s0).max())
            for factor, want_kind, want_by in ((1 + 1e-3, "CP1", "pd_certificate"),
                                               (1 - 1e-3, "CP2", "pareto")):
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
        frame = second_order.icqp_frame(qp)
        red = icqp_reduce(qp, frame=frame)
        psd = classify_psd_block(frame.face, red.r12, tol)
        image = red.r12 @ psd.witness_nu2
        assert np.abs(image).max() <= tol < np.linalg.norm(image)
        assert res.diagnostics["pd3_cross"] == image[np.argmax(np.abs(image))]
        assert abs(res.diagnostics["pd3_cross"]) == pytest.approx(0.6 * tol, rel=1e-9)
        assert np.argmax(np.abs(res.witness[:r])) == 1  # nu1 = e_1
        second_order.verify_witness(qp, res.witness, "T3")
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
