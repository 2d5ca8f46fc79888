import numpy as np
import pytest

from sospcheck.checker import sosp_check, validate_descent
from sospcheck.errors import DegenerateGeometryError, InternalInconsistencyError, NotBoundaryError
from sospcheck.first_order import (
    extreme_ray,
    increasing_check,
    inner_layer_fosp_smooth,
    outer_layer_fosp,
    solve_subdiff_qp,
    subdiff_scale,
    unit_direction,
    unit_tests,
)
from sospcheck.harness import construct_boundary_fosp, generate_dataset, init_params
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

    @pytest.mark.parametrize("d_y", [1, 2])
    def test_rounding_noise_factors_stay_at_the_midpoint(self, d_y):
        # at an orthogonal fixture every factor W2[:,k]^T grad_t is zero in exact
        # arithmetic and about 1e-17 in floats: no slope is live
        loss = SquaredLoss()
        for seed in range(4):
            point = construct_boundary_fosp(
                6, 2, d_y, seed=seed, n_boundary=2, units=[0, 1], mode="orthogonal"
            )
            bundle = per_sample_derivatives(point.params, point.data, loss)
            boundary = boundary_analysis(point.params, point.data, loss, bundle=bundle)
            for k in (0, 1):
                res = solve_subdiff_qp(k, point.params, boundary, bundle)
                assert res.s_star.tolist() == [0.5], (seed, k)
                assert res.iterations == 0

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
            for pos in range(m_k):
                ray = extreme_ray(0, boundary.boundary_indices[0][pos], boundary)
                others = np.delete(xbar @ ray, pos)
                assert np.abs(others).max(initial=0.0) <= 1e-12
                assert xbar[pos] @ ray > 0
                # stays inside the boundary span
                coeff = np.linalg.lstsq(xbar.T, ray, rcond=None)[0]
                assert np.linalg.norm(xbar.T @ coeff - ray) <= 1e-10

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
        assert res.pinned.tolist() == [0] and res.free.tolist() == [True]

    def test_edge_solution_single_flat_sign(self):
        params, bundle, boundary = synthetic_unit(
            c_k=np.zeros((1, 3)), grads=[[1.0]], xbar_rows=[[1.0, 0.0, 1.0]], w2col=[1.0]
        )
        res = increasing_check(0, params, boundary, bundle, np.array([1.0]))  # s* = s_plus
        assert not res.descent_found
        assert res.pinned.tolist() == [1] and res.free.tolist() == [False]

    def test_interior_solution_sign_determines_outcome(self):
        # positive gradient factor: both rays strictly increase, no flat signs
        params, bundle, boundary = synthetic_unit(
            c_k=np.zeros((1, 3)), grads=[[1.0]], xbar_rows=[[1.0, 0.0, 1.0]], w2col=[1.0]
        )
        res = increasing_check(0, params, boundary, bundle, np.array([0.5]))
        assert not res.descent_found
        assert res.pinned.tolist() == [0] and res.free.tolist() == [False]
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
        assert res.pinned.tolist() == [1] and res.free.tolist() == [False]


class TestClassifyBoundary:
    """A unit's pairs get their sign-row states side by side; the checker's
    K counts the free entries and L adds the nonzero pinned ones."""

    @staticmethod
    def _unit(grad_factors):
        n = len(grad_factors)
        return synthetic_unit(
            np.zeros((1, n + 2)),
            np.array(grad_factors, dtype=float)[:, None],
            np.hstack([np.eye(n), np.zeros((n, 1)), np.ones((n, 1))]),
            [1.0],
        )

    def test_all_zero_sets(self):
        params, bundle, boundary = self._unit([1.0, 2.0])
        res = increasing_check(0, params, boundary, bundle, np.array([0.5, 0.25]))
        assert not res.descent_found
        assert res.pinned.tolist() == [0, 0] and res.free.tolist() == [False, False]

    def test_one_single_flat(self):
        params, bundle, boundary = self._unit([1.0])
        res = increasing_check(0, params, boundary, bundle, np.array([0.0]))  # s* = s_minus
        assert res.pinned.tolist() == [-1] and not res.free.any()

    def test_mixed_counts(self):
        params, bundle, boundary = self._unit([0.0, 1.0, 1.0])
        res = increasing_check(0, params, boundary, bundle, np.array([0.5, 1.0, 0.5]))
        assert not res.descent_found
        assert res.pinned.tolist() == [0, 1, 0]
        assert res.free.tolist() == [True, False, False]
        assert res.pinned.dtype.kind == "i" and res.free.dtype == bool


class TestDescentOrder:
    @staticmethod
    def _by_pair(params, bundle, boundary, s_star, tol_zero=1e-8):
        """The pair-by-pair reading of the test: pairs in order, the + ray
        before the - ray, one ray at a time. Returns (descent, pinned, free)."""
        act = params.activation
        pinned, free = [], []
        for pos, i in enumerate(boundary.boundary_indices[0]):
            ray = extreme_ray(0, i, boundary)
            a = float(bundle.grads[i] @ params.W2[:, 0])
            c = float(boundary.boundary_xbar[0][pos] @ ray)
            tol = tol_zero * max(1.0, abs(a) * c * abs(act.s_plus - act.s_minus))
            flat = []
            for sign, slope in ((1, act.s_plus), (-1, act.s_minus)):
                product = (slope - s_star[pos]) * a * sign * c
                if product < -tol:
                    return sign * ray, None, None
                if abs(product) <= tol:
                    flat.append(sign)
            free.append(len(flat) == 2)
            pinned.append(flat[0] if len(flat) == 1 else 0)
        return None, pinned, free

    def test_matches_the_pair_by_pair_loop(self):
        rng = np.random.default_rng(5)
        for act in (RELU, ActivationSpec(1.0, 0.25)):
            lo, hi = act.box
            for _ in range(200):
                m_k = int(rng.integers(1, 5))
                xbar = np.hstack([rng.standard_normal((m_k, 4)), np.ones((m_k, 1))])
                factors = rng.choice([-1.0, 0.0, 1.0, rng.standard_normal()], m_k)
                params, bundle, boundary = synthetic_unit(
                    np.zeros((1, 5)), factors[:, None], xbar, [1.0], act
                )
                s_star = rng.choice([lo, hi, lo - 1e-3, hi + 1e-3, rng.uniform(lo, hi)], m_k)
                res = increasing_check(0, params, boundary, bundle, s_star)
                descent, pinned, free = self._by_pair(params, bundle, boundary, s_star)
                assert res.descent_found == (descent is not None)
                if descent is None:
                    assert res.pinned.tolist() == pinned and res.free.tolist() == free
                else:
                    np.testing.assert_allclose(res.descent_v, descent, rtol=1e-12, atol=1e-15)

    def test_first_descent_in_pair_order_plus_before_minus(self):
        # pair 0 increases; pairs 1 and 2 descend, pair 1 along its - ray
        # only and pair 2 along both: the - ray of pair 1 is returned
        params, bundle, boundary = TestClassifyBoundary._unit([1.0, 1.0, -1.0])
        s_star = np.array([0.5, -1e-3, 0.5])
        res = increasing_check(0, params, boundary, bundle, s_star)
        assert res.descent_found
        assert (res.products[0] > 0).all()
        assert res.products[1, 0] > 0 > res.products[1, 1]
        assert (res.products[2] < 0).all()
        want = self._by_pair(params, bundle, boundary, s_star)[0]
        np.testing.assert_allclose(want, -extreme_ray(0, 1, boundary), rtol=0, atol=0)
        np.testing.assert_allclose(res.descent_v, want, rtol=1e-12, atol=0)
        # with pair 1's + ray descending too, + comes before -
        params, bundle, boundary = TestClassifyBoundary._unit([1.0, -1.0, -1.0])
        s_star = np.array([0.5, 0.5, 0.5])
        res = increasing_check(0, params, boundary, bundle, s_star)
        assert (res.products[1:] < 0).all()
        want = self._by_pair(params, bundle, boundary, s_star)[0]
        np.testing.assert_allclose(want, extreme_ray(0, 1, boundary), rtol=0, atol=0)
        np.testing.assert_allclose(res.descent_v, want, rtol=1e-12, atol=0)


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
            eta = unit_direction(point.params, k, inc.descent_v)
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


FIRST_ORDER_STAGES = ("subdiff_qp", "increasing", "smooth_gradient")


class TestUnitTests:
    @staticmethod
    def _analysis(params, data):
        bundle = per_sample_derivatives(params, data, SquaredLoss())
        return bundle, boundary_analysis(params, data, SquaredLoss(), bundle=bundle)

    @pytest.mark.parametrize(
        "mode", ["interior", "edge", "orthogonal", "ray_descent", "subdiff_descent"]
    )
    def test_entries_are_the_checks_first_order_entries(self, mode):
        # unit 0 has the boundary sample, unit 1 is smooth
        point = construct_boundary_fosp(3, 2, 1, seed=1, mode=mode)
        verdict = sosp_check(point.params, point.data)
        bundle, boundary = self._analysis(point.params, point.data)
        yielded = []
        for entries, descent, _, _ in unit_tests(point.params, boundary, bundle):
            yielded += entries
            if descent is not None:  # the check stops at a validated descent
                assert verdict.stage == entries[-1]["stage"]
                break
        trace = verdict.diagnostics["trace"]
        assert [e for e in trace if e["stage"] in FIRST_ORDER_STAGES] == yielded
        assert [e["k"] for e in yielded if e["stage"] != "increasing"] == (
            [0] if mode.endswith("descent") else [0, 1]
        )
        for inc in (e for e in yielded if e["stage"] == "increasing"):
            # the recorded products and tol decide the entry
            products, tol = np.array(inc["products"]), np.array(inc["tol"])[:, None]
            assert inc["descent"] == (products < -tol).any()
            if not inc["descent"]:
                assert inc["flat_sets"] == [
                    [-1, 1] if f.all() else [int(f[0]) - int(f[1])]
                    for f in np.abs(products) <= tol
                ]

    def test_a_descent_leaves_no_sign_rows(self):
        # both units end in a descent at their box QP, at their increasing
        # test, or at their gradient test; then an edge fixture without one
        points = [
            construct_boundary_fosp(4, 2, 1, seed=0, n_boundary=2, units=[0, 1], mode=mode)
            for mode in ("subdiff_descent", "ray_descent")
        ]
        points.append(construct_boundary_fosp(3, 2, 1, seed=1, n_boundary=0))
        smooth = init_params(2, 2, 1, seed=0)
        data = generate_dataset(2, 1, 6, seed=100)
        ends = []
        for params, data in [(p.params, p.data) for p in points] + [(smooth, data)]:
            bundle, boundary = self._analysis(params, data)
            for entries, descent, pinned, free in unit_tests(params, boundary, bundle):
                ends.append((entries[-1]["stage"], descent is not None))
                if descent is not None:
                    assert pinned.size == free.size == 0
                    assert descent.v[entries[-1]["k"]].any() and descent.norm() > 0
        assert ends == [
            ("subdiff_qp", True), ("subdiff_qp", True), ("increasing", True), ("increasing", True),
            ("smooth_gradient", False), ("smooth_gradient", False),
            ("smooth_gradient", True), ("smooth_gradient", True),
        ]
        point = construct_boundary_fosp(4, 2, 1, seed=0, n_boundary=2, units=[0, 1], mode="edge")
        bundle, boundary = self._analysis(point.params, point.data)
        rows = [(p.tolist(), f.tolist()) for _, _, p, f in
                unit_tests(point.params, boundary, bundle)]
        assert rows == [([1], [False]), ([1], [False])]
