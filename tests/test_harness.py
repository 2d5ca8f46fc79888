import warnings

import numpy as np
import pytest

from sospcheck.errors import ConstructionFailedError
from sospcheck.first_order import (
    increasing_check,
    inner_layer_fosp_smooth,
    outer_layer_fosp,
    solve_subdiff_qp,
)
from sospcheck.harness import (
    AdamConfig,
    StatThresholds,
    TrendConfig,
    adam_train,
    boundary_statistics,
    construct_boundary_fosp,
    dataset_from_dict,
    dataset_to_dict,
    generate_dataset,
    init_params,
    params_from_dict,
    params_to_dict,
    risk_gradient,
)
from sospcheck.harness import _pin_sample_to_hyperplane
from sospcheck.network import (
    RELU,
    ActivationSpec,
    Dataset,
    NetworkParams,
    SquaredLoss,
    boundary_analysis,
    empirical_risk,
    forward_slopes,
    per_sample_derivatives,
    validate_general_position,
)


class TestGenerateDataset:
    def test_deterministic_per_seed(self):
        a = generate_dataset(2, 1, 3, seed=7)
        b = generate_dataset(2, 1, 3, seed=7)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        c = generate_dataset(2, 1, 3, seed=8)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_law_of_large_numbers_smoke(self):
        data = generate_dataset(4, 2, 4000, seed=1)
        bound = 5.0 / np.sqrt(data.m)
        assert np.abs(data.inputs.mean(axis=0)).max() <= bound
        assert np.abs(data.labels.mean(axis=0)).max() <= bound

    def test_general_position_spot_check(self):
        assert validate_general_position(generate_dataset(3, 1, 40, seed=2)).passed


def _blocks(params):
    return [params.W1, params.b1, params.W2, params.b2]


def _reference_forward(blocks, activation, inputs):
    w1, b1, w2, b2 = blocks
    preact = inputs @ w1.T + b1
    hidden = activation.h(preact)
    return hidden @ w2.T + b2, preact, hidden


def _sample_major_gradient(blocks, activation, data, loss):
    """The risk gradient written out sample-major, on (m, ·) arrays."""
    outputs, preact, hidden = _reference_forward(blocks, activation, data.inputs)
    out_grads = loss.gradient(outputs, data.labels)
    back = (out_grads @ blocks[2]) * activation.hprime(preact)
    return (
        back.T @ data.inputs,
        back.sum(axis=0),
        out_grads.T @ hidden,
        out_grads.sum(axis=0),
    )


def _reference_adam(params, data, loss, cfg, gradient=None):
    """Blockwise Adam; (blocks, risk trace).

    The gradient is the written-out sample-major one unless ``gradient``
    (called like ``risk_gradient``) is given, which isolates the update
    from the summation order of the gradient.
    """
    from sospcheck.errors import NonFiniteError

    act = params.activation
    blocks = [b.copy() for b in _blocks(params)]
    mom = [np.zeros_like(b) for b in blocks]
    vel = [np.zeros_like(b) for b in blocks]
    trace = []
    for t in range(1, cfg.iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            if gradient is None:
                grads = _sample_major_gradient(blocks, act, data, loss)
            else:
                grads = gradient(NetworkParams(*blocks, act), data, loss)
            lr = cfg.lr * cfg.decay_factor ** ((t - 1) // cfg.decay_every)
            for j, g in enumerate(grads):
                mom[j] = cfg.beta1 * mom[j] + (1 - cfg.beta1) * g
                vel[j] = cfg.beta2 * vel[j] + (1 - cfg.beta2) * g * g
                m_hat = mom[j] / (1 - cfg.beta1**t)
                v_hat = vel[j] / (1 - cfg.beta2**t)
                blocks[j] = blocks[j] - lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
        if not all(np.isfinite(b).all() for b in blocks):
            raise NonFiniteError(f"training diverged at iteration {t}")
        if t % cfg.record_every == 0 or t == cfg.iters:
            outputs = _reference_forward(blocks, act, data.inputs)[0]
            trace.append((t, float(loss.value(outputs, data.labels))))
    return blocks, trace


ADAM_CASES = ["decay_and_partial_record", "leaky_relu", "cosh_loss_two_outputs"]


def _gradient_case(case):
    """(params, data, loss) of a named training case."""
    from test_network import CoshLoss

    if case == "large_m":
        return init_params(6, 2, 1, seed=21), generate_dataset(6, 1, 5000, seed=22), SquaredLoss()
    loss, activation, d_y = SquaredLoss(), RELU, 1
    if case == "leaky_relu":
        activation = ActivationSpec(1.0, 0.1)
    elif case == "cosh_loss_two_outputs":
        loss, d_y = CoshLoss(), 2
    params = init_params(3, 4, d_y, seed=11, activation=activation)
    return params, generate_dataset(3, d_y, 25, seed=12), loss


def _gradient_test_point(case):
    """A named training case with nonzero biases, so that the bias terms
    of the gradient are exercised too."""
    params, data, loss = _gradient_case(case)
    rng = np.random.default_rng(23)
    b1, b2 = (0.5 * rng.standard_normal(b.shape) for b in (params.b1, params.b2))
    return NetworkParams(params.W1, b1, params.W2, b2, params.activation), data, loss


def _gradient_error_bound(params, data, loss):
    """Bound on the distance of two evaluations of the risk gradient that
    differ only in summation order, entry by entry.

    Each evaluation differs from the exact gradient by at most
    gamma_n = n u / (1 - n u) times the same formula evaluated on magnitudes
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3), where
    n counts the roundings along the longest chain and the loss Hessian
    carries the output's error through the loss gradient, to first order; two
    evaluations differ by at most twice that. Preactivations must be far
    enough from zero that both evaluations take the same slopes.
    """
    act = params.activation
    w1, b1, w2, b2 = (np.abs(b) for b in _blocks(params))
    outputs, preact, _ = _reference_forward(_blocks(params), act, data.inputs)
    x, y = np.abs(data.inputs), np.abs(data.labels)
    slopes = np.abs(act.hprime(preact))
    hidden = slopes * (x @ w1.T + b1)
    out = hidden @ w2.T + b2
    hess = np.abs(loss.hessian(outputs, data.labels))
    grads = np.abs(loss.gradient(outputs, data.labels)) + np.einsum("iab,ib->ia", hess, out + y)
    back = (grads @ w2) * slopes
    magnitudes = (back.T @ x, back.sum(axis=0), grads.T @ hidden, grads.sum(axis=0))
    n = data.m + sum(params.dims) + 4
    u = np.finfo(float).eps / 2
    return [2 * n * u / (1 - n * u) * t for t in magnitudes]


def _assert_matches_reference(params, data, loss, cfg, gradient=None):
    """The flat-vector loop reproduces the blockwise one bit for bit."""
    trained, trace = adam_train(params, data, loss, cfg)
    blocks, want = _reference_adam(params, data, loss, cfg, gradient)
    for got, ref in zip(_blocks(trained), blocks):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
    assert trace == want
    return trace


class TestAdam:
    def test_single_step_matches_hand_formula(self):
        params = init_params(2, 2, 1, seed=0)
        data = generate_dataset(2, 1, 5, seed=1)
        cfg = AdamConfig(iters=1, record_every=1)
        g = risk_gradient(params, data, SquaredLoss())
        trained, _ = adam_train(params, data, config=cfg)
        # zero moments: bias-corrected update is -lr * g / (|g| + eps)
        for got, start, grad in zip(
            (trained.W1, trained.b1, trained.W2, trained.b2),
            (params.W1, params.b1, params.W2, params.b2),
            g,
        ):
            want = start - cfg.lr * grad / (np.abs(grad) + cfg.eps)
            assert np.allclose(got, want, atol=1e-15)

    def test_five_steps_match_reference_implementation(self):
        params = init_params(2, 1, 1, seed=3)
        data = generate_dataset(2, 1, 4, seed=4)
        cfg = AdamConfig(iters=5, record_every=5)
        _assert_matches_reference(params, data, SquaredLoss(), cfg)

    @pytest.mark.parametrize("case", ADAM_CASES)
    def test_matches_reference_exactly(self, case):
        cfg = AdamConfig(iters=300, decay_every=100, record_every=70)
        params, data, loss = _gradient_case(case)
        # at d_h = 4 the unit-major gradient sums in another order than the
        # written-out one, so the update is compared given the same gradient
        trace = _assert_matches_reference(params, data, loss, cfg, gradient=risk_gradient)
        # records every 70 steps, then the final partial segment
        assert [t for t, _ in trace] == [70, 140, 210, 280, 300]

    def test_desk_shape_iterates_match_sample_major_reference(self):
        # at d_h = d_y = 1 the unit-major gradient is bit-identical to the
        # written-out one, so whole trained points of the desk experiment's
        # shape are too
        params = init_params(10, 1, 1, seed=10_000)
        data = generate_dataset(10, 1, 1000, seed=0)
        cfg = AdamConfig(iters=300, decay_every=100, record_every=100)
        _assert_matches_reference(params, data, SquaredLoss(), cfg)

    def test_start_is_not_modified_and_results_own_their_arrays(self):
        params = init_params(3, 2, 1, seed=13)
        data = generate_dataset(3, 1, 20, seed=14)
        start = [b.copy() for b in _blocks(params)]
        cfg = AdamConfig(iters=30, record_every=10)
        first, _ = adam_train(params, data, config=cfg)
        second, _ = adam_train(params, data, config=cfg)
        for block, before in zip(_blocks(params), start):
            assert np.array_equal(block, before)
        arrays = _blocks(first) + _blocks(second) + _blocks(params)
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)
        for a, b in zip(_blocks(first), _blocks(second)):
            assert np.array_equal(a, b)

    def test_zero_gradient_start_is_fixed(self):
        params = NetworkParams(
            np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), np.zeros(1)
        )
        data = Dataset(np.array([[1.0]]), np.array([[1.0]]))  # perfect fit
        trained, _ = adam_train(params, data, config=AdamConfig(iters=50, record_every=50))
        assert np.array_equal(trained.W1, params.W1)
        assert np.array_equal(trained.b1, params.b1)

    def test_risk_decreases_smoke(self):
        params = init_params(3, 2, 1, seed=5)
        data = generate_dataset(3, 1, 40, seed=6)
        _, trace = adam_train(
            params, data, config=AdamConfig(iters=800, decay_every=200, record_every=100)
        )
        assert trace[-1][1] < trace[0][1]

    def test_generic_loss_gradient_path(self):
        from test_network import CoshLoss

        params = init_params(2, 1, 1, seed=7)
        data = generate_dataset(2, 1, 10, seed=8)
        loss = CoshLoss()
        # loop-based gradient agrees with finite differences of the risk
        g_w1, g_b1, g_w2, g_b2 = risk_gradient(params, data, loss)
        h = 1e-6
        w1p = params.W1.copy()
        w1p[0, 0] += h
        bumped = NetworkParams(w1p, params.b1, params.W2, params.b2, params.activation)
        fd = (empirical_risk(bumped, data, loss) - empirical_risk(params, data, loss)) / h
        assert abs(fd - g_w1[0, 0]) <= 1e-5 * max(1.0, abs(fd))
        trained, trace = adam_train(
            params, data, loss, AdamConfig(iters=200, decay_every=100, record_every=100)
        )
        assert trace[-1][1] < empirical_risk(params, data, loss)

    def test_divergent_training_raises(self):
        from sospcheck.errors import NonFiniteError

        params = init_params(2, 1, 1, seed=9)
        data = generate_dataset(2, 1, 5, seed=10)
        cfg = AdamConfig(lr=1e200, iters=50, record_every=50)
        with pytest.raises(NonFiniteError) as want:
            _reference_adam(params, data, SquaredLoss(), cfg)
        # overflow on the way to divergence is expected and must stay silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as got:
                adam_train(params, data, config=cfg)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("training diverged at iteration ")


class TestRiskGradient:
    @pytest.mark.parametrize("case", ADAM_CASES + ["large_m"])
    def test_agrees_with_sample_major_formula_to_rounding(self, case):
        params, data, loss = _gradient_test_point(case)
        got = risk_gradient(params, data, loss)
        want = _sample_major_gradient(_blocks(params), params.activation, data, loss)
        for g, w, bound in zip(got, want, _gradient_error_bound(params, data, loss)):
            assert g.shape == w.shape
            assert (np.abs(g - w) <= bound).all()

    @pytest.mark.parametrize("case", ADAM_CASES + ["large_m"])
    def test_matches_central_differences(self, case):
        params, data, loss = _gradient_test_point(case)
        got = np.concatenate([g.ravel() for g in risk_gradient(params, data, loss)])
        theta = np.concatenate([b.ravel() for b in _blocks(params)])
        ends = np.cumsum([b.size for b in _blocks(params)])

        def risk(vec):
            blocks = [vec[e - b.size : e].reshape(b.shape) for b, e in zip(_blocks(params), ends)]
            return empirical_risk(NetworkParams(*blocks, params.activation), data, loss)

        h = 1e-6
        # no step crosses a kink of the activation
        preact = _reference_forward(_blocks(params), params.activation, data.inputs)[1]
        assert np.abs(preact).min() > h * (1.0 + np.abs(data.inputs).max())
        fd = np.empty_like(theta)
        for j in range(theta.size):
            step = np.zeros_like(theta)
            step[j] = h
            fd[j] = (risk(theta + step) - risk(theta - step)) / (2 * h)
        # off by O(h^2) plus the risk's rounding error divided by h; the
        # cases reach 3.5e-10 of the scale
        scale = 1.0 + np.abs(got).max()
        assert np.abs(fd - got).max() <= 1e-8 * scale

    def test_exact_zero_preactivation_takes_s_plus(self):
        # small integer weights and inputs, dyadic slopes and output weights:
        # every value below is exact in any summation order
        act = ActivationSpec(1.0, 0.25)
        params = NetworkParams(
            np.array([[1.0, -2.0, 3.0], [2.0, 1.0, -1.0]]),
            np.array([-2.0, 1.0]),
            np.array([[1.5, -0.5]]),
            np.array([0.25]),
            act,
        )
        inputs = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        data = Dataset(inputs, np.array([[1.0], [-2.0], [0.0], [3.0]]))
        preact = inputs @ params.W1.T + params.b1
        assert preact[0, 0] == 0.0 and preact[3, 1] == 0.0

        def written_out(slope_at_zero):
            slopes = np.where(preact > 0.0, act.s_plus, act.s_minus)
            slopes[preact == 0.0] = slope_at_zero
            hidden = slopes * preact
            grads = hidden @ params.W2.T + params.b2 - data.labels
            back = (grads @ params.W2) * slopes
            return back.T @ inputs, back.sum(axis=0), grads.T @ hidden, grads.sum(axis=0)

        got = risk_gradient(params, data, SquaredLoss())
        for g, want in zip(got, written_out(act.s_plus)):
            assert np.array_equal(g, want)
        assert not np.array_equal(got[1], written_out(act.s_minus)[1])

    def test_input_width_mismatch_raises(self):
        from sospcheck.errors import ShapeMismatchError

        params = init_params(3, 2, 1, seed=1)
        with pytest.raises(ShapeMismatchError, match="does not match network d_x=3"):
            risk_gradient(params, generate_dataset(4, 1, 5, seed=2), SquaredLoss())

    @pytest.mark.parametrize(
        "entry",
        [
            lambda p, d: risk_gradient(p, d, SquaredLoss()),
            lambda p, d: adam_train(p, d, config=AdamConfig(iters=10, record_every=5)),
            lambda p, d: empirical_risk(p, d, SquaredLoss()),
        ],
        ids=["risk_gradient", "adam_train", "empirical_risk"],
    )
    def test_label_width_mismatch_raises(self, entry):
        # one label column would otherwise broadcast to both outputs
        from sospcheck.errors import ShapeMismatchError

        params = init_params(3, 2, 2, seed=0)
        with pytest.raises(ShapeMismatchError, match="dataset d_y=1 does not match network d_y=2"):
            entry(params, generate_dataset(3, 1, 50, seed=1))

    @pytest.mark.parametrize("d_x", [6, 10])
    @pytest.mark.parametrize("d_y", [1, 2])
    @pytest.mark.parametrize("d_h", [1, 2, 4])
    def test_dot_rounds_like_matmul_on_the_gradient_products(self, d_h, d_y, d_x):
        # the premise of the np.dot products, on this machine's BLAS, with
        # the operand layouts of risk_gradient: X.T and W2.T are strided
        # views, and grads is the transpose of the loss's (m, d_y) gradient
        rng = np.random.default_rng(100 * d_h + 10 * d_y + d_x)
        w1, w2 = rng.standard_normal((d_h, d_x)), rng.standard_normal((d_y, d_h))
        for m in [1, 42, 1000, 11_002]:
            x = rng.standard_normal((m, d_x))
            hidden = rng.standard_normal((d_h, m))
            grads = rng.standard_normal((m, d_y)).T
            back = rng.standard_normal((d_h, m))
            for a, b in [(w1, x.T), (w2, hidden), (w2.T, grads), (back, x), (grads, hidden.T)]:
                want = (a @ b).tobytes()
                assert np.dot(a, b).tobytes() == want
                o = np.empty((a.shape[0], b.shape[1]))
                assert np.dot(a, b, out=o) is o and o.tobytes() == want

    def test_inputs_are_read_through_a_transposed_view(self, monkeypatch):
        # a contiguous copy of X.T sends the forward product to another
        # BLAS kernel, which rounds differently at d_h = 1
        params, data, loss = _gradient_case("large_m")
        operands, dot = [], np.dot

        def spy(a, b, *args, **kwargs):
            operands.extend((a, b))
            return dot(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "dot", spy)
        risk_gradient(params, data, loss)
        monkeypatch.undo()
        reads = [o for o in operands if np.shares_memory(o, data.inputs)]
        assert [o.strides for o in reads] == [data.inputs.T.strides, data.inputs.strides]
        assert not any(o.shape == data.inputs.T.shape and o.flags.c_contiguous for o in operands)

    @pytest.mark.parametrize("case", ADAM_CASES + ["large_m"])
    def test_out_is_written_and_returned_with_the_same_bits(self, case):
        params, data, loss = _gradient_test_point(case)
        want = risk_gradient(params, data, loss)
        blocks = tuple(np.full_like(b, np.nan) for b in _blocks(params))
        got = risk_gradient(params, data, loss, out=blocks)
        assert got is blocks
        for g, b, w in zip(got, blocks, want):
            assert g is b and g.tobytes() == w.tobytes()

    def test_out_of_the_wrong_shape_raises_before_writing(self):
        params, data, loss = _gradient_test_point("cosh_loss_two_outputs")
        before = [b.copy() for b in _blocks(params)]
        blocks = [np.full_like(b, np.nan) for b in _blocks(params)]
        blocks[2] = np.full(params.W2.T.shape, np.nan)  # gW1 and gb1 come first
        with pytest.raises(ValueError, match="out shapes"):
            risk_gradient(params, data, loss, out=tuple(blocks))
        assert all(np.isnan(b).all() for b in blocks)
        for block, start in zip(_blocks(params), before):
            assert np.array_equal(block, start)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("iters", 0),
            ("iters", -3),
            ("record_every", 0),
            ("decay_every", 0),
            ("lr", -1.0),
            ("lr", 0.0),
            ("lr", float("inf")),
            ("lr", float("nan")),
            ("eps", 0.0),
            ("eps", float("nan")),
            ("decay_factor", 0.0),
            ("decay_factor", float("inf")),
            ("beta1", -0.1),
            ("beta1", 1.0),
            ("beta1", float("nan")),
            ("beta2", 1.0),
            ("beta2", -1e-9),
        ],
    )
    def test_adam_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            AdamConfig(**{field: value})

    def test_adam_config_accepts_edges(self):
        AdamConfig()
        AdamConfig(iters=1, record_every=1, decay_every=1, beta1=0.0, beta2=0.0)
        AdamConfig(lr=1e200)  # the divergence test trains with it

    @pytest.mark.parametrize("runs", [0, -1])
    def test_trend_config_rejects_runs(self, runs):
        with pytest.raises(ValueError, match="runs"):
            TrendConfig(runs=runs)
        TrendConfig(runs=1)

    @pytest.mark.parametrize("field", ["boundary", "s_edge", "grad_orth", "qp_objective"])
    @pytest.mark.parametrize("value", [-1e-9, float("nan"), float("inf")])
    def test_stat_thresholds_reject(self, field, value):
        with pytest.raises(ValueError, match=field):
            StatThresholds(**{field: value})
        StatThresholds(**{field: 0.0})  # 0 counts exact boundaries only


class TestBoundaryStatistics:
    def test_generic_point_empty(self):
        params = init_params(3, 2, 1, seed=0)
        data = generate_dataset(3, 1, 30, seed=1)
        rep = boundary_statistics(params, data)
        assert rep.m_hat == 0 and rep.l_hat == 0 and rep.k_hat == 0
        assert rep.qp_objectives == []

    def test_constructed_interior_point(self):
        point = construct_boundary_fosp(3, 2, 1, seed=3, mode="interior")
        rep = boundary_statistics(point.params, point.data)
        assert rep.m_hat == 1
        assert rep.qp_objectives[0] <= 1e-12
        s = rep.per_unit[0]["samples"][0]["s_star"]
        assert 0.1 < s < 0.9
        assert rep.l_hat == 0 and rep.k_hat == 0

    def test_constructed_edge_point_counts(self):
        point = construct_boundary_fosp(3, 1, 1, seed=1, mode="edge")
        rep = boundary_statistics(point.params, point.data)
        assert rep.m_hat == 1
        assert rep.l_hat == 1 and rep.k_hat == 0 and rep.edge_count == 1

    def test_orthogonal_point_counts(self):
        point = construct_boundary_fosp(3, 1, 1, seed=2, mode="orthogonal")
        rep = boundary_statistics(point.params, point.data)
        assert rep.m_hat == 1
        assert rep.k_hat == 1 and rep.l_hat == 1 and rep.edge_count == 0

    def test_report_determinism_modulo_timing(self):
        point = construct_boundary_fosp(3, 2, 1, seed=4, mode="interior")
        a = boundary_statistics(point.params, point.data).as_dict()
        b = boundary_statistics(point.params, point.data).as_dict()
        a.pop("elapsed")
        b.pop("elapsed")
        assert a == b

    def test_full_check_attaches_verdict(self):
        point = construct_boundary_fosp(3, 2, 1, seed=5, mode="interior")
        rep = boundary_statistics(point.params, point.data, full_check=True)
        assert rep.verdict is not None
        assert rep.verdict["kind"] in ("local_minimum", "sosp", "descent", "error")
        rep2 = boundary_statistics(point.params, point.data)
        assert rep2.verdict is None

    def test_general_position_flag(self):
        point = construct_boundary_fosp(4, 1, 1, seed=12, n_boundary=2)
        assert boundary_statistics(point.params, point.data).general_position_ok
        # one unit whose hyperplane is x_1 = 0, with d_x = 2
        params = NetworkParams(
            np.array([[1.0, 0.0]]), np.zeros(1), np.array([[1.0]]), np.zeros(1)
        )
        labels = np.zeros((4, 1))
        repeated = Dataset(np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 2.0], [-1.0, 0.5]]), labels)
        rep = boundary_statistics(params, repeated)
        assert rep.m_hat == 2 and not rep.general_position_ok
        crowded = Dataset(np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [1.0, 0.5]]), labels)
        rep = boundary_statistics(params, crowded)
        assert rep.m_hat == 3 and not rep.general_position_ok

    def test_ordering_invariant(self):
        for seed in range(4):
            params = init_params(4, 2, 1, seed=seed)
            data = generate_dataset(4, 1, 50, seed=seed)
            trained, _ = adam_train(
                params, data, config=AdamConfig(iters=400, decay_every=100, record_every=400)
            )
            rep = boundary_statistics(trained, data)
            assert rep.k_hat <= rep.l_hat <= rep.m_hat


class TestConstructors:
    def test_interior_prescription_holds(self):
        point = construct_boundary_fosp(4, 2, 1, seed=11, mode="interior")
        loss = SquaredLoss()
        bundle = per_sample_derivatives(point.params, point.data, loss)
        boundary = boundary_analysis(point.params, point.data, loss, bundle=bundle)
        assert boundary.total == 1
        res = solve_subdiff_qp(point.unit, point.params, boundary, bundle)
        assert res.objective <= 1e-12
        assert abs(res.s_star[0] - point.s_prescribed[0]) <= 1e-6

    def test_two_boundary_samples_general_position(self):
        point = construct_boundary_fosp(4, 1, 1, seed=12, n_boundary=2)
        loss = SquaredLoss()
        boundary = boundary_analysis(point.params, point.data, loss)
        assert boundary.counts[point.unit] == 2  # Lemma-1 check passed inside

    def test_deterministic_per_seed(self):
        a = construct_boundary_fosp(3, 1, 1, seed=5)
        b = construct_boundary_fosp(3, 1, 1, seed=5)
        assert np.array_equal(a.params.W1, b.params.W1)
        assert np.array_equal(a.data.labels, b.data.labels)

    def test_smooth_fixture_has_no_boundary(self):
        point = construct_boundary_fosp(3, 2, 1, seed=1, n_boundary=0)
        bundle = per_sample_derivatives(point.params, point.data, SquaredLoss())
        assert not bundle.boundary_mask.any()

    def test_verifier_rejects_a_nonstationary_unit_without_boundary_samples(self):
        from sospcheck.harness import _fosp_constraint_matrix, _verify_construction
        from sospcheck.linalg import nullspace_basis

        point = construct_boundary_fosp(4, 2, 1, seed=11, mode="interior")
        params, data, loss = point.params, point.data, SquaredLoss()
        assert point.unit == 0
        pairs = [(0, 0)]
        s_presc = {(0, 0): point.s_prescribed[0]}
        assert _verify_construction(params, data, loss, pairs, s_presc, "interior")
        # shift the labels inside the null space of every stationarity row but unit 1's
        d_x, d_h, d_y = params.dims
        _, _, hidden, slopes = forward_slopes(params, data.inputs)
        phi = _fosp_constraint_matrix(params, data.inputs, hidden, slopes, pairs, s_presc, [])
        start = d_y * (d_h + 1) + (d_x + 1)
        keep = np.ones(len(phi), dtype=bool)
        keep[start : start + d_x + 1] = False
        null = nullspace_basis(phi[keep])
        shift = null @ np.random.default_rng(0).standard_normal(null.shape[1])
        shifted = Dataset(data.inputs, data.labels + 1e-3 * shift.reshape(data.labels.shape))
        bundle = per_sample_derivatives(params, shifted, loss)
        boundary = boundary_analysis(params, shifted, loss, bundle=bundle)
        assert outer_layer_fosp(params, bundle).passed
        res = solve_subdiff_qp(0, params, boundary, bundle)
        assert res.certifies_zero(res.scale)
        assert not increasing_check(0, params, boundary, bundle, res.s_star).descent_found
        assert not inner_layer_fosp_smooth(1, params, boundary).passed
        assert not _verify_construction(params, shifted, loss, pairs, s_presc, "interior")

    def test_smooth_mode_needs_interior(self):
        for mode in ("edge", "orthogonal", "ray_descent", "subdiff_descent"):
            with pytest.raises(ValueError):
                construct_boundary_fosp(3, 2, 1, n_boundary=0, mode=mode)

    def test_attempts_failing_the_margin_are_not_pinned(self, monkeypatch):
        import sospcheck.harness as harness_module

        margins = []
        original = harness_module._pin_sample_to_hyperplane

        def spy(inputs, params, i, k):
            pre = inputs @ params.W1.T + params.b1
            margins.append(float(np.abs(pre[3:]).min()))
            return original(inputs, params, i, k)

        monkeypatch.setattr(harness_module, "_pin_sample_to_hyperplane", spy)
        built = 0
        for seed in range(4):
            try:
                construct_boundary_fosp(
                    6, 2, 1, seed=seed, n_boundary=3, units=[0, 0, 1], mode="orthogonal",
                    max_attempts=10,
                )
                built += 1
            except ConstructionFailedError:
                pass
        assert built >= 1 and len(margins) >= built
        assert min(margins) >= 0.05

    def test_impossible_request_raises(self):
        with pytest.raises(ConstructionFailedError):
            # d_x = 1 cannot host two independent boundary samples on one unit
            construct_boundary_fosp(1, 1, 1, seed=0, n_boundary=2, max_attempts=3)


def _sequential_pin(inputs, params, i, k):
    """The pin with a one-candidate-at-a-time ulp scan, each candidate
    judged by its own full batched product: the oracle of the stacked scan."""
    w = params.W1[k]

    def preact():
        return (inputs @ params.W1.T + params.b1)[i, k]

    def newton_and_scan(j):
        rest = w @ inputs[i] - w[j] * inputs[i, j] + params.b1[k]
        inputs[i, j] = -rest / w[j]
        for _ in range(6):
            val = preact()
            if val == 0.0:
                return True
            step = val / w[j]
            if inputs[i, j] - step == inputs[i, j]:
                break
            inputs[i, j] -= step
        lower = upper = inputs[i, j]
        for _ in range(64):
            lower = np.nextafter(lower, -np.inf)
            upper = np.nextafter(upper, np.inf)
            for cand in (lower, upper):
                inputs[i, j] = cand
                if preact() == 0.0:
                    return True
        return False

    order = [int(j) for j in np.argsort(-np.abs(w)) if w[j] != 0.0]
    for j in order:
        original_row = inputs[i].copy()
        secondary = [j2 for j2 in order if j2 != j]
        for phase in range(4):
            if phase > 0:
                if not secondary:
                    break
                j2 = secondary[(phase - 1) % len(secondary)]
                inputs[i, j2] = np.nextafter(inputs[i, j2], np.inf)
            if newton_and_scan(j):
                return True
        inputs[i] = original_row
    return False


def _pin_case(seed):
    """A random point and sample as the constructor draws them, at shapes
    from d_x = 1 (often unpinnable) to 30."""
    rng = np.random.default_rng(seed)
    d_x = int(rng.choice([1, 2, 3, 5, 10, 20, 30]))
    d_h = int(rng.choice([1, 2, 3, 4, 8]))
    m = int(rng.integers(1, 45))
    w1 = rng.standard_normal((d_h, d_x)) / np.sqrt(d_x)
    w1[rng.random(w1.shape) < 0.05] = 0.0  # zero weights are skipped
    params = NetworkParams(w1, 0.3 * rng.standard_normal(d_h), rng.standard_normal((1, d_h)),
                           np.zeros(1))
    inputs = rng.standard_normal((m, d_x))
    return params, inputs, int(rng.integers(m)), int(rng.integers(d_h))


class TestPinSample:
    def test_stacked_scan_matches_sequential_scan(self):
        outcomes = []
        # the last four scans meet zeros on both sides at the same distance,
        # where only the lower-before-upper order decides the pinned value
        for seed in [*range(200), 439, 487, 506, 769]:
            params, inputs, i, k = _pin_case(seed)
            want_inputs = inputs.copy()
            want = _sequential_pin(want_inputs, params, i, k)
            got = _pin_sample_to_hyperplane(inputs, params, i, k)
            assert got is want, seed
            assert inputs.tobytes() == want_inputs.tobytes(), seed
            if got:
                assert (inputs @ params.W1.T + params.b1)[i, k] == 0.0
            outcomes.append((got, params.dims[1]))
        assert sum(not ok for ok, _ in outcomes) >= 30  # failed pins, rows restored
        assert sum(ok for ok, d_h in outcomes if d_h == 1) >= 15

    @pytest.mark.parametrize("d_h", [1, 2, 4])
    @pytest.mark.parametrize("m", [1, 7, 12, 42, 203])
    def test_stacked_product_rounds_like_each_unstacked_product(self, d_h, m):
        # the premise of the stacked scan, on this machine's BLAS
        rng = np.random.default_rng(100 * m + d_h)
        params = NetworkParams(rng.standard_normal((d_h, 10)) / np.sqrt(10),
                               0.3 * rng.standard_normal(d_h), np.ones((1, d_h)), np.zeros(1))
        stack = np.repeat(rng.standard_normal((1, m, 10)), 128, axis=0)
        stack[:, rng.integers(m), rng.integers(10)] = rng.standard_normal(128)
        stacked = stack @ params.W1.T + params.b1
        for s in range(stack.shape[0]):
            single = stack[s].copy() @ params.W1.T + params.b1
            assert stacked[s].tobytes() == single.tobytes()


class TestJsonRoundTrip:
    def test_params(self):
        params = init_params(3, 2, 2, seed=9)
        back = params_from_dict(params_to_dict(params))
        assert np.array_equal(back.W1, params.W1)
        assert np.array_equal(back.b2, params.b2)
        assert back.activation == params.activation

    def test_dataset(self):
        data = generate_dataset(3, 2, 5, seed=10)
        back = dataset_from_dict(dataset_to_dict(data))
        assert np.array_equal(back.inputs, data.inputs)
        assert np.array_equal(back.labels, data.labels)

    def test_schema_version_present(self):
        assert params_to_dict(init_params(2, 1, 1))["schema_version"] == "1"
        assert dataset_to_dict(generate_dataset(2, 1, 2))["schema_version"] == "1"
