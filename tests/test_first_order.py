import numpy as np
import pytest

from sospcheck.checker import validate_descent
from sospcheck.errors import DegenerateGeometryError, InternalInconsistencyError, NotBoundaryError
from sospcheck.first_order import (
    classify_boundary,
    extreme_ray,
    increasing_check,
    inner_layer_fosp_smooth,
    outer_layer_fosp,
    solve_subdiff_qp,
    subdiff_scale,
)
from sospcheck.harness import construct_boundary_fosp, generate_dataset, init_params
from sospcheck.linalg import orthonormal_basis
from sospcheck.network import (
    RELU,
    ActivationSpec,
    BoundaryAnalysis,
    Dataset,
    DerivativeBundle,
    NetworkParams,
    Perturbation,
    SquaredLoss,
    boundary_analysis,
    empirical_risk,
    expansion_terms,
    per_sample_derivatives,
)


def synthetic_unit(c_k, grads, xbar_rows, w2col, act=RELU):
    """Single-hidden-unit instance with prescribed C_k, gradients and boundary rows.

    All listed samples are boundary samples of the lone unit; C_k is taken as
    given rather than derived from data, which lets the tests pin the exact
    QP coefficients.
    """
    c_k = np.atleast_2d(np.asarray(c_k, dtype=float))
    grads = np.atleast_2d(np.asarray(grads, dtype=float))
    xbar_rows = np.atleast_2d(np.asarray(xbar_rows, dtype=float))
    w2col = np.asarray(w2col, dtype=float)
    d_y = len(w2col)
    n = len(grads)
    d_x = xbar_rows.shape[1] - 1
    params = NetworkParams(
        W1=np.zeros((1, d_x)),
        b1=np.zeros(1),
        W2=w2col.reshape(d_y, 1),
        b2=np.zeros(d_y),
        activation=act,
    )
    bundle = DerivativeBundle(
        preact=np.zeros((n, 1)),
        hidden=np.zeros((n, 1)),
        outputs=np.zeros((n, d_y)),
        grads=grads,
        hessians=np.stack([np.eye(d_y)] * n),
        xbar=xbar_rows,
        boundary_mask=np.ones((n, 1), dtype=bool),
        boundary_tol=0.0,
    )
    boundary = BoundaryAnalysis(
        boundary_indices=[np.arange(n)],
        boundary_xbar=[xbar_rows],
        span_bases=[orthonormal_basis(xbar_rows)],
        C=[c_k],
        boundary_tol=0.0,
        dims=(d_x, 1, d_y),
    )
    return params, bundle, boundary


class TestOuterLayer:
    def test_perfect_fit_passes(self):
        params = NetworkParams(np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), np.zeros(1))
        data = Dataset(np.array([[1.0]]), np.array([[1.0]]))
        bundle = per_sample_derivatives(params, data, SquaredLoss())
        assert outer_layer_fosp(params, bundle).passed

    def test_single_sample_descent_values(self):
        params = NetworkParams(np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), np.zeros(1))
        data = Dataset(np.array([[1.0]]), np.array([[0.0]]))  # grad = 1, hidden = 1
        loss = SquaredLoss()
        bundle = per_sample_derivatives(params, data, loss)
        res = outer_layer_fosp(params, bundle)
        assert not res.passed
        assert np.allclose(res.descent.delta2_matrix, [[-1.0]])
        assert np.allclose(res.descent.delta2_bias, [-1.0])
        first, _ = expansion_terms(params, data, loss, res.descent)
        assert np.isclose(first, -2.0)

    def test_descent_first_order_negative_on_random_points(self):
        loss = SquaredLoss()
        for seed in range(100):
            params = init_params(2, 2, 1, seed=seed)
            data = generate_dataset(2, 1, 5, seed=seed + 500)
            bundle = per_sample_derivatives(params, data, loss)
            res = outer_layer_fosp(params, bundle)
            assert not res.passed  # random labels: stationarity has probability zero
            first, _ = expansion_terms(params, data, loss, res.descent)
            assert first < 0
            assert np.isclose(first, -np.linalg.norm(res.gradient) ** 2)


class TestInnerSmooth:
    def test_zero_outgoing_column_passes(self):
        params = NetworkParams(
            np.array([[1.0]]), np.array([3.0]), np.array([[0.0]]), np.zeros(1)
        )
        data = Dataset(np.array([[1.0], [2.0]]), np.array([[4.3], [4.7]]))
        boundary = boundary_analysis(params, data, SquaredLoss())
        assert inner_layer_fosp_smooth(0, params, boundary).passed

    def test_prescribed_gradient_descent_direction(self):
        # two positive-preactivation samples with residuals (-0.3, 0.3): C_0 = [0.3, 0]
        params = NetworkParams(
            np.array([[1.0]]), np.array([3.0]), np.array([[1.0]]), np.zeros(1)
        )
        data = Dataset(np.array([[1.0], [2.0]]), np.array([[4.3], [4.7]]))
        loss = SquaredLoss()
        boundary = boundary_analysis(params, data, loss)
        assert np.allclose(boundary.C[0], [[0.3, 0.0]])
        res = inner_layer_fosp_smooth(0, params, boundary)
        assert not res.passed
        assert np.allclose(res.descent.v[0], [-0.3, 0.0])
        first, _ = expansion_terms(params, data, loss, res.descent)
        assert np.isclose(first, -0.09)

    def test_pass_iff_direction_flat(self):
        rng = np.random.default_rng(1)
        loss = SquaredLoss()
        for seed in range(20):
            params = init_params(2, 2, 1, seed=seed)
            data = generate_dataset(2, 1, 6, seed=seed + 300)
            boundary = boundary_analysis(params, data, loss)
            res = inner_layer_fosp_smooth(0, params, boundary)
            if res.passed:
                assert np.linalg.norm(res.gradient) <= 1e-8 * max(
                    1.0, np.linalg.norm(boundary.C[0])
                )
            else:
                first, _ = expansion_terms(params, data, loss, res.descent)
                assert first < 0


class TestSubdiffQP:
    def test_interior_analytic_minimum(self):
        params, bundle, boundary = synthetic_unit(
            c_k=[[-0.5, 0.0]], grads=[[1.0]], xbar_rows=[[1.0, 0.0]], w2col=[1.0]
        )
        res = solve_subdiff_qp(0, params, boundary, bundle)
        assert abs(res.s_star[0] - 0.5) <= 1e-8
        assert res.objective <= 1e-12
        assert res.kkt_residual <= 1e-8

    def test_clipped_to_box_edge(self):
        params, bundle, boundary = synthetic_unit(
            c_k=[[-2.0, 0.0]], grads=[[1.0]], xbar_rows=[[1.0, 0.0]], w2col=[1.0]
        )
        res = solve_subdiff_qp(0, params, boundary, bundle)
        assert abs(res.s_star[0] - 1.0) <= 1e-8
        assert abs(res.objective - 1.0) <= 1e-8
        assert np.allclose(res.residual_vector, [-1.0, 0.0], atol=1e-8)

    def test_degenerate_zero_gradients(self):
        params, bundle, boundary = synthetic_unit(
            c_k=[[0.0, 0.0]], grads=[[0.0]], xbar_rows=[[1.0, 0.0]], w2col=[1.0]
        )
        res = solve_subdiff_qp(0, params, boundary, bundle)
        assert res.objective <= 1e-15
        assert res.s_star[0] == 0.5  # untouched box midpoint

    def test_raises_without_boundary_samples(self):
        params = init_params(2, 1, 1, seed=0)
        data = generate_dataset(2, 1, 4, seed=0)
        bundle = per_sample_derivatives(params, data, SquaredLoss())
        boundary = boundary_analysis(params, data, SquaredLoss(), bundle=bundle)
        with pytest.raises(NotBoundaryError):
            solve_subdiff_qp(0, params, boundary, bundle)

    @staticmethod
    def _active_set_minimum(c0, cols, lo, hi):
        """Brute-force global minimum of ||c0 + cols s||^2 over the box."""
        from itertools import product

        m_k = cols.shape[1]
        best = None
        for pattern in product((0, 1, 2), repeat=m_k):  # lo, hi, free
            s = np.empty(m_k)
            fixed = np.array([p != 2 for p in pattern])
            s[fixed] = [lo if p == 0 else hi for p in np.array(pattern)[fixed]]
            free = ~fixed
            if free.any():
                rhs = -(c0 + cols[:, fixed] @ s[fixed])
                sol, *_ = np.linalg.lstsq(cols[:, free], rhs, rcond=None)
                if (sol < lo - 1e-12).any() or (sol > hi + 1e-12).any():
                    continue
                s[free] = np.clip(sol, lo, hi)
            val = float(np.sum((c0 + cols @ s) ** 2))
            if best is None or val < best:
                best = val
        return best

    def test_matches_active_set_enumeration(self):
        rng = np.random.default_rng(17)
        acts = (ActivationSpec(1.0, 0.1), ActivationSpec(0.2, 1.0))  # second: s_plus < s_minus
        for trial in range(60):
            act = acts[trial % 2]
            lo, hi = act.box
            m_k = int(rng.integers(1, 6))
            d_y = int(rng.integers(1, 4))
            d_x = m_k + int(rng.integers(1, 3))
            grads = rng.standard_normal((m_k, d_y))
            xbar = np.hstack([rng.standard_normal((m_k, d_x)), np.ones((m_k, 1))])
            zero = np.zeros(m_k, dtype=bool)
            if trial % 3 == 1 and m_k > 1:  # repeated boundary rows: rank-deficient columns
                xbar[1::2] = xbar[0]
            if trial % 3 == 2:  # exactly zero gradient factors mixed with nonzero ones
                zero = rng.random(m_k) < 0.5
                grads[zero] = 0.0
            c_k = rng.standard_normal((d_y, d_x + 1))
            w2col = rng.standard_normal(d_y)
            params, bundle, boundary = synthetic_unit(c_k, grads, xbar, w2col, act)
            res = solve_subdiff_qp(0, params, boundary, bundle)
            c0 = c_k.T @ w2col
            cols = xbar.T * (grads @ w2col)
            want = self._active_set_minimum(c0, cols, lo, hi)
            assert res.scale == subdiff_scale(0, params, boundary, bundle)
            scale = max(1.0, res.scale**2)
            assert abs(res.objective - want) <= 1e-9 * scale
            assert res.kkt_residual <= 1e-8
            assert (res.s_star[zero] == 0.5 * (lo + hi)).all()

    def test_unconverged_solver_raises(self, monkeypatch):
        import scipy.optimize
        from scipy.optimize import OptimizeResult

        import sospcheck.first_order as first_order

        def stalled(a, b, bounds, method):
            x = np.full(a.shape[1], bounds[0])
            return OptimizeResult(x=x, status=0, nit=a.shape[1], message="iteration cap")

        # solve_subdiff_qp imports lsq_linear when it is called
        monkeypatch.setattr(scipy.optimize, "lsq_linear", stalled)
        params, bundle, boundary = synthetic_unit(
            c_k=[[-2.0, 0.0]], grads=[[1.0]], xbar_rows=[[1.0, 0.0]], w2col=[1.0]
        )
        with pytest.raises(InternalInconsistencyError):
            first_order.solve_subdiff_qp(0, params, boundary, bundle)


class TestExtremeRay:
    def test_single_boundary_sample(self):
        _, _, boundary = synthetic_unit(
            c_k=np.zeros((1, 3)), grads=[[1.0]], xbar_rows=[[1.0, 0.0, 1.0]], w2col=[1.0]
        )
        ray = extreme_ray(0, 0, boundary)
        assert np.allclose(ray, np.array([1.0, 0.0, 1.0]) / np.sqrt(2))

    def test_two_boundary_samples(self):
        _, _, boundary = synthetic_unit(
            c_k=np.zeros((1, 3)),
            grads=[[1.0], [1.0]],
            xbar_rows=[[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
            w2col=[1.0],
        )
        ray = extreme_ray(0, 0, boundary)
        assert np.allclose(ray, np.array([2.0, -1.0, 1.0]) / np.sqrt(6))

    def test_orthogonality_residuals_random(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            m_k = int(rng.integers(1, 5))
            d_x = 5
            xbar = np.hstack([rng.standard_normal((m_k, d_x)), np.ones((m_k, 1))])
            _, _, boundary = synthetic_unit(
                np.zeros((1, d_x + 1)), np.ones((m_k, 1)), xbar, [1.0]
            )
            basis = orthonormal_basis(xbar)
            for pos in range(m_k):
                ray = extreme_ray(0, boundary.boundary_indices[0][pos], boundary)
                others = np.delete(xbar @ ray, pos)
                assert np.abs(others).max(initial=0.0) <= 1e-12
                assert xbar[pos] @ ray > 0
                # stays inside the boundary span
                assert np.linalg.norm(basis @ (basis.T @ ray) - ray) <= 1e-10

    def test_degenerate_rows_raise(self):
        _, _, boundary = synthetic_unit(
            c_k=np.zeros((1, 3)),
            grads=[[1.0], [1.0]],
            xbar_rows=[[1.0, 0.0, 1.0], [2.0, 0.0, 2.0]],
            w2col=[1.0],
        )
        with pytest.raises(DegenerateGeometryError):
            extreme_ray(0, 0, boundary)

    def test_non_boundary_sample_rejected(self):
        _, _, boundary = synthetic_unit(
            c_k=np.zeros((1, 3)), grads=[[1.0]], xbar_rows=[[1.0, 0.0, 1.0]], w2col=[1.0]
        )
        with pytest.raises(NotBoundaryError):
            extreme_ray(0, 5, boundary)

    def test_increasing_check_requires_boundary(self):
        params = init_params(2, 1, 1, seed=0)
        data = generate_dataset(2, 1, 4, seed=0)
        bundle = per_sample_derivatives(params, data, SquaredLoss())
        boundary = boundary_analysis(params, data, SquaredLoss(), bundle=bundle)
        with pytest.raises(NotBoundaryError):
            increasing_check(0, params, boundary, bundle, np.zeros(0))


class TestIncreasingCheck:
    def test_orthogonal_gradient_gives_both_flat(self):
        params, bundle, boundary = synthetic_unit(
            c_k=np.zeros((2, 3)),
            grads=[[0.0, 1.0]],
            xbar_rows=[[1.0, 0.0, 1.0]],
            w2col=[1.0, 0.0],
        )
        res = increasing_check(0, params, boundary, bundle, np.array([0.5]))
        assert not res.descent_found
        assert res.flat_sets[0] == frozenset({-1, 1})

    def test_edge_solution_single_flat_sign(self):
        params, bundle, boundary = synthetic_unit(
            c_k=np.zeros((1, 3)), grads=[[1.0]], xbar_rows=[[1.0, 0.0, 1.0]], w2col=[1.0]
        )
        res = increasing_check(0, params, boundary, bundle, np.array([1.0]))  # s* = s_plus
        assert not res.descent_found
        assert res.flat_sets[0] == frozenset({1})

    def test_interior_solution_sign_determines_outcome(self):
        # positive gradient factor: both rays strictly increase, no flat signs
        params, bundle, boundary = synthetic_unit(
            c_k=np.zeros((1, 3)), grads=[[1.0]], xbar_rows=[[1.0, 0.0, 1.0]], w2col=[1.0]
        )
        res = increasing_check(0, params, boundary, bundle, np.array([0.5]))
        assert not res.descent_found
        assert res.flat_sets[0] == frozenset({0})
        # negative gradient factor: both products negative, strict descent
        params, bundle, boundary = synthetic_unit(
            c_k=np.zeros((1, 3)), grads=[[-1.0]], xbar_rows=[[1.0, 0.0, 1.0]], w2col=[1.0]
        )
        res = increasing_check(0, params, boundary, bundle, np.array([0.5]))
        assert res.descent_found
        assert res.descent_v is not None

    def test_borderline_product_counts_as_flat(self):
        params, bundle, boundary = synthetic_unit(
            c_k=np.zeros((1, 3)), grads=[[1.0]], xbar_rows=[[1.0, 0.0, 1.0]], w2col=[1.0]
        )
        res = increasing_check(0, params, boundary, bundle, np.array([1.0 + 1e-12]))
        assert not res.descent_found  # tiny negative product is flat, never descent
        assert res.flat_sets[0] == frozenset({1})


class TestClassifyBoundary:
    def _boundary(self, n):
        _, _, boundary = synthetic_unit(
            np.zeros((1, n + 2)),
            np.ones((n, 1)),
            np.hstack([np.eye(n), np.zeros((n, 1)), np.ones((n, 1))]),
            [1.0],
        )
        return boundary

    def test_all_zero_sets(self):
        boundary = self._boundary(2)
        cls = classify_boundary({0: [frozenset({0}), frozenset({0})]}, boundary)
        assert cls.K == 0 and cls.L == 0 and not cls.has_flat_rays

    def test_one_single_flat(self):
        boundary = self._boundary(1)
        cls = classify_boundary({0: [frozenset({1})]}, boundary)
        assert cls.K == 0 and cls.L == 1

    def test_mixed_counts(self):
        boundary = self._boundary(2)
        cls = classify_boundary({0: [frozenset({-1, 1}), frozenset({1})]}, boundary)
        assert cls.K == 1 and cls.L == 2 and cls.M == 2


class TestDescentSoundness:
    def test_ray_descent_fixture_strictly_decreases(self):
        loss = SquaredLoss()
        for seed in range(5):
            point = construct_boundary_fosp(3, 2, 1, seed=seed, mode="ray_descent")
            bundle = per_sample_derivatives(point.params, point.data, loss)
            boundary = boundary_analysis(point.params, point.data, loss, bundle=bundle)
            k = point.unit
            qp_res = solve_subdiff_qp(k, point.params, boundary, bundle)
            assert qp_res.certifies_zero(qp_res.scale)
            inc = increasing_check(k, point.params, boundary, bundle, qp_res.s_star)
            assert inc.descent_found
            d_x, d_h, d_y = point.params.dims
            v = np.zeros((d_h, d_x + 1))
            v[k] = inc.descent_v
            eta = Perturbation(np.zeros(d_y), np.zeros((d_y, d_h)), v)
            first, _ = expansion_terms(point.params, point.data, loss, eta)
            assert first < 0
            gamma = validate_descent(point.params, point.data, loss, eta)
            assert empirical_risk(point.params.perturbed(eta, gamma), point.data, loss) < (
                empirical_risk(point.params, point.data, loss)
            )

    def test_pass_soundness_sampled_directions(self):
        loss = SquaredLoss()
        point = construct_boundary_fosp(3, 2, 1, seed=2, mode="interior")
        bundle = per_sample_derivatives(point.params, point.data, loss)
        scale = max(
            1.0,
            float(np.abs(bundle.grads).sum())
            * (1.0 + float(np.abs(bundle.xbar).max()))
            * (1.0 + float(np.abs(point.params.W2).max())),
        )
        rng = np.random.default_rng(99)
        d_x, d_h, d_y = point.params.dims
        for _ in range(1000):
            eta = Perturbation(
                rng.standard_normal(d_y),
                rng.standard_normal((d_y, d_h)),
                rng.standard_normal((d_h, d_x + 1)),
            )
            eta = eta.scaled(1.0 / eta.norm())
            first, _ = expansion_terms(point.params, point.data, loss, eta, bundle=bundle)
            assert first >= -1e-9 * scale


class TestExtremeRaySufficiency:
    def test_brute_force_cone_agreement(self):
        loss = SquaredLoss()
        for seed, mode, n_boundary in [
            (0, "interior", 1),
            (1, "interior", 2),
            (3, "edge", 1),
            (4, "orthogonal", 1),
            (5, "ray_descent", 1),
            (6, "ray_descent", 2),
        ]:
            point = construct_boundary_fosp(4, 1, 1, seed=seed, mode=mode, n_boundary=n_boundary)
            bundle = per_sample_derivatives(point.params, point.data, loss)
            boundary = boundary_analysis(point.params, point.data, loss, bundle=bundle)
            k = point.unit
            qp_res = solve_subdiff_qp(k, point.params, boundary, bundle)
            inc = increasing_check(k, point.params, boundary, bundle, qp_res.s_star)

            # brute force: check every extreme ray of every sign cone
            act = point.params.activation
            w = point.params.W2[:, k]
            idx = boundary.boundary_indices[k]
            rows = boundary.boundary_xbar[k]
            m_k = len(idx)
            from itertools import product as iproduct

            brute_descent = False
            for sigma in iproduct((-1, 1), repeat=m_k):
                g_sigma = np.zeros(rows.shape[1])
                for pos, i in enumerate(idx):
                    s_val = act.s_plus if sigma[pos] > 0 else act.s_minus
                    g_sigma += (s_val - qp_res.s_star[pos]) * float(
                        bundle.grads[i] @ w
                    ) * rows[pos]
                for pos, i in enumerate(idx):
                    ray = sigma[pos] * extreme_ray(k, i, boundary)
                    a = float(bundle.grads[i] @ w)
                    c = abs(float(rows[pos] @ ray))
                    tol = 1e-8 * max(1.0, abs(a) * c * abs(act.s_plus - act.s_minus))
                    if float(g_sigma @ ray) < -tol:
                        brute_descent = True
            assert brute_descent == inc.descent_found, (mode, n_boundary)
