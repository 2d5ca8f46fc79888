import numpy as np
import pytest

from sospcheck.errors import (
    GeneralPositionViolationError,
    NonPSDHessianError,
    ShapeMismatchError,
)
from sospcheck.harness import construct_boundary_fosp, generate_dataset, init_params
from sospcheck.network import (
    RELU,
    ActivationSpec,
    Dataset,
    LossModel,
    NetworkParams,
    Perturbation,
    SquaredLoss,
    boundary_analysis,
    empirical_risk,
    expansion_terms,
    forward,
    forward_slopes,
    per_sample_derivatives,
    scaling_direction,
    validate_general_position,
)


def scalar_net(w1=1.0, b1=0.0, w2=1.0, b2=0.0, act=RELU) -> NetworkParams:
    return NetworkParams(
        W1=np.array([[w1]]), b1=np.array([b1]), W2=np.array([[w2]]), b2=np.array([b2]),
        activation=act,
    )


def random_direction(rng, dims) -> Perturbation:
    d_x, d_h, d_y = dims
    return Perturbation(
        rng.standard_normal(d_y),
        rng.standard_normal((d_y, d_h)),
        rng.standard_normal((d_h, d_x + 1)),
    )


class TestActivation:
    def test_relu_values(self):
        act = RELU
        assert act.h(2.0) == 2.0 and act.h(-1.0) == 0.0 and act.h(0.0) == 0.0

    def test_derivative_at_zero_is_positive_slope(self):
        act = ActivationSpec(1.0, 0.1)
        assert act.hprime(0.0) == 1.0

    @pytest.mark.parametrize("act", [RELU, ActivationSpec(1.0, 0.1), ActivationSpec(0.5, 2.0)])
    def test_slope_times_input_is_h_bit_for_bit(self, act):
        # forward_slopes forms the hidden output this way
        t = np.array([-np.inf, -2.5, -1e-300, -0.0, 0.0, 1e-300, 3.0, np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            want, got = act.h(t), act.hprime(t) * t
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_invalid_slopes(self):
        with pytest.raises(ValueError):
            ActivationSpec(0.0, 0.0)
        with pytest.raises(ValueError):
            ActivationSpec(1.0, 1.0)
        with pytest.raises(ValueError):
            ActivationSpec(1.0, -0.1)


class TestForward:
    def test_batch_matches_activation_h(self):
        params = init_params(3, 4, 2, seed=1, activation=ActivationSpec(1.0, 0.1))
        inputs = generate_dataset(3, 2, 30, seed=2).inputs
        outputs, preact, hidden, slopes = forward_slopes(params, inputs)
        assert np.array_equal(hidden, params.activation.h(preact))
        assert np.array_equal(slopes, params.activation.hprime(preact))

    def test_positive_branch(self):
        y, _, _ = forward(scalar_net(), np.array([2.0]))
        assert y[0] == 2.0

    def test_negative_branch(self):
        y, _, _ = forward(scalar_net(), np.array([-1.0]))
        assert y[0] == 0.0

    def test_leaky_branch(self):
        y, _, _ = forward(scalar_net(act=ActivationSpec(1.0, 0.1)), np.array([-1.0]))
        assert np.isclose(y[0], -0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            forward(scalar_net(), np.array([1.0, 2.0]))


class TestEmpiricalRisk:
    def test_zero_loss_fit(self):
        params = scalar_net()
        data = Dataset(np.array([[1.0], [2.0]]), np.array([[1.0], [2.0]]))
        assert empirical_risk(params, data, SquaredLoss()) == 0.0

    def test_single_sample(self):
        params = scalar_net()
        data = Dataset(np.array([[2.0]]), np.array([[1.0]]))
        assert np.isclose(empirical_risk(params, data, SquaredLoss()), 0.5)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(0)
        params = init_params(3, 2, 2, seed=1)
        data = generate_dataset(3, 2, 9, seed=2)
        loss = SquaredLoss()
        naive = sum(
            loss.value(forward(params, data.inputs[i])[0][None], data.labels[i][None])
            for i in range(data.m)
        )
        assert abs(empirical_risk(params, data, loss) - naive) <= 1e-12 * max(1.0, naive)


class TestPerturbation:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(4)
        eta = random_direction(rng, (3, 2, 2))
        back = Perturbation.unpack(eta.pack(), (3, 2, 2))
        assert np.array_equal(back.delta2_bias, eta.delta2_bias)
        assert np.array_equal(back.delta2_matrix, eta.delta2_matrix)
        assert np.array_equal(back.v, eta.v)

    def test_flat_length(self):
        eta = Perturbation.zeros((3, 2, 2))
        assert eta.pack().shape == (2 + 4 + 2 * 4,)


class TestPerSampleDerivatives:
    def test_squared_loss_identity_hessian(self):
        params = init_params(2, 2, 3, seed=0)
        data = generate_dataset(2, 3, 4, seed=1)
        bundle = per_sample_derivatives(params, data, SquaredLoss())
        assert all(np.allclose(h, np.eye(3)) for h in bundle.hessians)

    def test_perfect_fit_zero_gradients(self):
        params = scalar_net()
        data = Dataset(np.array([[1.0]]), np.array([[1.0]]))
        bundle = per_sample_derivatives(params, data, SquaredLoss())
        assert np.abs(bundle.grads).max() == 0.0

    def test_gradient_matches_finite_differences(self):
        params = init_params(2, 2, 2, seed=3)
        data = generate_dataset(2, 2, 3, seed=4)
        loss = SquaredLoss()
        bundle = per_sample_derivatives(params, data, loss)
        i = 1
        w = bundle.outputs[i]
        y = data.labels[i]
        h = 1e-6
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            fd = (loss.value((w + e)[None], y[None]) - loss.value((w - e)[None], y[None])) / (2 * h)
            assert abs(fd - bundle.grads[i][a]) <= 1e-6 * max(1.0, abs(fd))

    def test_rejects_nonconvex_loss(self):
        class ConcaveLoss(LossModel):
            def value(self, w, y):
                return -float(np.sum((w - y) ** 2))

            def gradient(self, w, y):
                return -2.0 * (w - y)

            def hessian(self, w, y):
                m, d_y = w.shape
                return np.broadcast_to(-2.0 * np.eye(d_y), (m, d_y, d_y))

        params = init_params(2, 1, 1, seed=0)
        data = generate_dataset(2, 1, 2, seed=0)
        with pytest.raises(NonPSDHessianError):
            per_sample_derivatives(params, data, ConcaveLoss())

    def test_nonconvex_error_names_first_offending_sample(self):
        class SignedLoss(SquaredLoss):
            """Concave on the samples whose label is negative."""

            def hessian(self, w, y):
                return np.sign(y)[:, :, None] * super().hessian(w, y)

        params = init_params(2, 1, 1, seed=0)
        data = Dataset(np.ones((5, 2)), np.array([[1.0], [2.0], [-1.0], [3.0], [-2.0]]))
        with pytest.raises(NonPSDHessianError, match="sample 2 "):
            per_sample_derivatives(params, data, SignedLoss())


class TestBoundaryAnalysis:
    def test_constructed_boundary_point(self):
        params = scalar_net()
        data = Dataset(np.array([[0.0]]), np.array([[1.0]]))
        boundary = boundary_analysis(params, data, SquaredLoss())
        assert boundary.counts == [1]
        assert boundary.total == 1
        assert list(boundary.boundary_indices[0]) == [0]

    def test_no_boundary_full_gradient_sum(self):
        params = init_params(2, 2, 1, seed=5)
        data = generate_dataset(2, 1, 6, seed=6)
        loss = SquaredLoss()
        bundle = per_sample_derivatives(params, data, loss)
        boundary = boundary_analysis(params, data, loss, bundle=bundle)
        assert boundary.total == 0
        act = params.activation
        for k in range(2):
            full = sum(
                act.hprime(bundle.preact[i, k]) * np.outer(bundle.grads[i], bundle.xbar[i])
                for i in range(data.m)
            )
            assert np.allclose(boundary.C[k], full)

    def test_random_data_has_no_boundary(self):
        params = init_params(3, 2, 1, seed=7)
        data = generate_dataset(3, 1, 50, seed=8)
        bundle = per_sample_derivatives(params, data, SquaredLoss())
        # direct scan of preactivations agrees with the analysis
        assert (np.abs(bundle.preact) > 0).all()
        boundary = boundary_analysis(params, data, SquaredLoss(), bundle=bundle)
        assert boundary.total == 0

    def test_general_position_violation_raises(self):
        # two boundary samples whose augmented inputs are dependent: same point twice
        params = NetworkParams(
            W1=np.array([[1.0, 0.0]]), b1=np.array([0.0]),
            W2=np.array([[1.0]]), b2=np.array([0.0]),
        )
        data = Dataset(np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 2.0]]), np.zeros((3, 1)))
        with pytest.raises(GeneralPositionViolationError, match="linearly dependent"):
            boundary_analysis(params, data, SquaredLoss())
        recorded = boundary_analysis(params, data, SquaredLoss(), enforce_general_position=False)
        assert recorded.counts == [2] and recorded.general_position == [False]
        crowded = Dataset(np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]), np.zeros((3, 1)))
        with pytest.raises(GeneralPositionViolationError, match="3 boundary samples but d_x=2"):
            boundary_analysis(params, crowded, SquaredLoss())
        recorded = boundary_analysis(params, crowded, SquaredLoss(), enforce_general_position=False)
        assert recorded.counts == [3] and recorded.general_position == [False]
        data = Dataset(np.array([[0.0, 1.0], [1.0, 2.0]]), np.zeros((2, 1)))
        assert boundary_analysis(params, data, SquaredLoss()).general_position == [True]

    def test_snapping_tolerance(self):
        params = scalar_net()
        data = Dataset(np.array([[1e-7]]), np.array([[0.5]]))
        boundary = boundary_analysis(params, data, SquaredLoss(), boundary_tol=1e-5)
        assert boundary.total == 1
        boundary_exact = boundary_analysis(params, data, SquaredLoss(), boundary_tol=0.0)
        assert boundary_exact.total == 0


class TestExpansionTerms:
    def test_zero_direction(self):
        params = init_params(2, 2, 1, seed=0)
        data = generate_dataset(2, 1, 4, seed=0)
        first, second = expansion_terms(
            params, data, SquaredLoss(), Perturbation.zeros(params.dims)
        )
        assert first == 0.0 and second == 0.0

    def test_matches_finite_differences_smooth(self):
        rng = np.random.default_rng(9)
        loss = SquaredLoss()
        params = init_params(3, 2, 2, seed=10)
        data = generate_dataset(3, 2, 6, seed=11)
        eta = random_direction(rng, params.dims)
        first, _ = expansion_terms(params, data, loss, eta)
        base = empirical_risk(params, data, loss)
        t = 1e-6
        fd = (empirical_risk(params.perturbed(eta, t), data, loss) - base) / t
        assert abs(fd - first) <= 1e-5 * max(1.0, abs(first))

    def test_direction_dependence_at_boundary(self):
        # exact boundary sample: flipping the direction flips the active slope
        params = scalar_net(act=ActivationSpec(1.0, 0.0))
        data = Dataset(np.array([[0.0], [1.0]]), np.array([[-1.0], [2.0]]))
        loss = SquaredLoss()
        eta = Perturbation(np.zeros(1), np.zeros((1, 1)), np.array([[0.0, 1.0]]))
        f_plus, _ = expansion_terms(params, data, loss, eta)
        f_minus, _ = expansion_terms(params, data, loss, eta.scaled(-1.0))
        # one-sided derivatives differ because h' flips between the slopes
        assert abs(f_plus + f_minus) > 1e-6
        base = empirical_risk(params, data, loss)
        # one-sided difference along sgn*eta approximates first(sgn*eta) itself
        for sgn, val in ((1.0, f_plus), (-1.0, f_minus)):
            t = 1e-7
            fd = (empirical_risk(params.perturbed(eta, sgn * t), data, loss) - base) / t
            assert abs(fd - val) <= 1e-5 * max(1.0, abs(val))

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(12)
        point = construct_boundary_fosp(3, 2, 1, seed=3, mode="interior")
        eta = random_direction(rng, point.params.dims)
        loss = SquaredLoss()
        f1, s1 = expansion_terms(point.params, point.data, loss, eta)
        for gamma in (0.5, 2.0, 7.3):
            fg, sg = expansion_terms(point.params, point.data, loss, eta.scaled(gamma))
            assert abs(fg - gamma * f1) <= 1e-9 * max(1.0, abs(f1))
            assert abs(sg - gamma * gamma * s1) <= 1e-9 * max(1.0, abs(s1))

    def test_quadratic_coefficient_exact_for_squared_loss(self):
        rng = np.random.default_rng(13)
        loss = SquaredLoss()
        params = init_params(2, 2, 1, seed=14)
        data = generate_dataset(2, 1, 5, seed=15)
        eta = random_direction(rng, params.dims)
        first, second = expansion_terms(params, data, loss, eta)
        base = empirical_risk(params, data, loss)
        t = 1e-3
        fitted = (empirical_risk(params.perturbed(eta, t), data, loss) - base - t * first) / t**2
        assert abs(fitted - second) <= 0.01 * max(1.0, abs(second))

    def test_scaling_direction_flat_at_fosp(self):
        point = construct_boundary_fosp(3, 2, 1, seed=21, mode="interior")
        loss = SquaredLoss()
        scale = max(1.0, empirical_risk(point.params, point.data, loss))
        for k in range(point.params.dims[1]):
            eta = scaling_direction(point.params, k)
            first, second = expansion_terms(point.params, point.data, loss, eta)
            assert abs(first) <= 1e-9 * scale
            assert abs(second) <= 1e-9 * scale


class CoshLoss(LossModel):
    """Non-quadratic convex loss: sum of cosh(w - y) - 1 per output."""

    def value(self, w, y):
        return float(np.sum(np.cosh(w - y) - 1.0))

    def gradient(self, w, y):
        return np.sinh(w - y)

    def hessian(self, w, y):
        d_y = w.shape[1]
        return np.cosh(w - y)[:, :, None] * np.eye(d_y)


class TestCustomLoss:
    def test_expansion_matches_finite_differences(self):
        rng = np.random.default_rng(55)
        loss = CoshLoss()
        params = init_params(2, 2, 2, seed=20)
        data = generate_dataset(2, 2, 5, seed=21)
        eta = random_direction(rng, params.dims)
        first, second = expansion_terms(params, data, loss, eta)
        base = empirical_risk(params, data, loss)
        t = 1e-6
        fd = (empirical_risk(params.perturbed(eta, t), data, loss) - base) / t
        assert abs(fd - first) <= 1e-5 * max(1.0, abs(first))
        t = 1e-4
        fitted = (empirical_risk(params.perturbed(eta, t), data, loss) - base - t * first) / t**2
        # cubic loss terms enter at O(t); 1e-4 leaves plenty of margin
        assert abs(fitted - second) <= 0.01 * max(1.0, abs(second))

    def test_full_check_finds_validated_descent(self):
        from sospcheck.checker import sosp_check

        params = init_params(2, 2, 1, seed=22)
        data = generate_dataset(2, 1, 6, seed=23)
        verdict = sosp_check(params, data, CoshLoss())
        assert verdict.kind == "descent" and verdict.step is not None


class TestGeneralPosition:
    def test_collinear_fails(self):
        data = Dataset(
            np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), np.zeros((3, 1))
        )
        report = validate_general_position(data)
        assert not report.passed and report.mode == "exhaustive"

    def test_gaussian_passes(self):
        report = validate_general_position(generate_dataset(3, 1, 12, seed=1))
        assert report.passed

    def test_vacuous_when_too_few_points(self):
        report = validate_general_position(generate_dataset(5, 1, 3, seed=2))
        assert report.passed and report.mode == "vacuous"

    def test_sampled_mode_on_large_sets(self):
        report = validate_general_position(generate_dataset(2, 1, 300, seed=3))
        assert report.passed and report.mode == "sampled"

    def test_sampled_mode_catches_dense_violations(self):
        rng = np.random.default_rng(4)
        line = np.column_stack([np.linspace(-1, 1, 80), np.linspace(-1, 1, 80)])
        inputs = np.vstack([line, rng.standard_normal((220, 2))])
        data = Dataset(inputs, np.zeros((300, 1)))
        report = validate_general_position(data, seed=0)
        assert report.mode == "sampled" and not report.passed
