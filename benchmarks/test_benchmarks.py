"""Self-tests of the benchmark's own code: python -m pytest benchmarks"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import measure  # noqa: E402
import sospcheck  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from sospcheck import checker, harness, network, second_order  # noqa: E402
from sospcheck.errors import InternalInconsistencyError, NoDecreaseFoundError  # noqa: E402
from sospcheck.first_order import outer_layer_fosp, solve_subdiff_qp, subdiff_scale  # noqa: E402


@pytest.fixture(scope="module")
def fixture_point():
    return harness.construct_boundary_fosp(
        6, 2, 1, seed=0, n_boundary=2, units=[0, 1], mode="orthogonal"
    )


def _stationarity(params, data):
    loss = network.SquaredLoss()
    bundle = network.per_sample_derivatives(params, data, loss)
    boundary = network.boundary_analysis(params, data, loss, bundle=bundle)
    return bundle, boundary


class TestReplicate:
    def test_first_order_sums_scale_and_stay_stationary(self, fixture_point):
        copies = 7
        data = workloads.replicate(fixture_point, copies)
        params = fixture_point.params
        n_b = len(fixture_point.boundary_samples)
        assert data.m == n_b + copies * (fixture_point.data.m - n_b)

        bundle0, boundary0 = _stationarity(params, fixture_point.data)
        bundle, boundary = _stationarity(params, data)
        assert [list(ix) for ix in boundary.boundary_indices] == [
            list(ix) for ix in boundary0.boundary_indices
        ]
        for c, c0 in zip(boundary.C, boundary0.C):
            np.testing.assert_allclose(c, copies * c0, rtol=1e-9, atol=1e-9)
        assert outer_layer_fosp(params, bundle).passed
        for k in range(params.dims[1]):
            res = solve_subdiff_qp(k, params, boundary, bundle)
            assert res.certifies_zero(subdiff_scale(k, params, boundary, bundle))

    def test_replicated_point_reaches_every_icqp(self, fixture_point):
        data = workloads.replicate(fixture_point, 3)
        inst = workloads.certify_instance("t", fixture_point, data, 2, 10)
        verdict = checker.sosp_check(inst.params, data)
        workloads.guard_certify(verdict, inst.expect)
        assert workloads.output_problems(inst, inst.params, verdict) == []


class TestLargeMFixtures:
    def test_set_up_replicates_only_strict_local_minima(self):
        pool = workloads.setup_large_m_certify(0)
        assert pool.construction_attempts >= workloads.LARGE_M_CANDIDATES
        assert 1 <= len(pool.instances) <= pool.construction_attempts
        m = 2 + workloads.LARGE_M_REPLICAS * 22
        assert all(inst.data.m == m for inst in pool.instances)
        assert workloads.fingerprint(pool) == workloads.fingerprint(
            workloads.setup_large_m_certify(0))

    @pytest.mark.xfail(raises=InternalInconsistencyError, strict=True,
                       reason="empty Pareto spectrum at a replicated SOSP fixture")
    def test_replicated_sosp_fixture_gets_a_verdict(self):
        """The library defect that keeps SOSP fixtures out of large_m_certify.

        Once this passes, ``is_strict_local_minimum`` can go.
        """
        point = harness.construct_boundary_fosp(
            6, 2, 1, seed=344498798000, n_boundary=2, units=[0, 1], mode="orthogonal")
        assert not workloads.is_strict_local_minimum(point)
        checker.sosp_check(point.params, workloads.replicate(point, workloads.LARGE_M_REPLICAS))


def _descent_instance(point):
    """A certify instance whose labels are shifted, so the check finds a
    first-order descent and the construction's M, K, L no longer hold."""
    data = network.Dataset(point.data.inputs, point.data.labels + 0.1)
    return workloads.certify_instance("descent", point, data, 2, 10)


class TestGuard:
    @pytest.mark.parametrize("traced", [False, True])
    def test_run_refuses_a_first_order_descent_point(self, fixture_point, monkeypatch, traced):
        pool = workloads.Pool([_descent_instance(fixture_point)])
        monkeypatch.setitem(workloads.SETUPS, "descent", lambda seed: pool)
        run = measure.Run("descent", 0, 0.01, traced)
        with pytest.raises(workloads.WorkloadGuardError):
            run.execute()
        assert run.steps == 0

    def test_repeats_of_a_wrong_verdict_keep_failing(self, fixture_point):
        inst = _descent_instance(fixture_point)
        run, ref, timings = measure.Run("descent", 0, 1.0, False), {}, []
        for _ in range(3):
            verdict, ok = run.check(inst, inst.params, ref, timings)
            assert verdict.kind == "descent" and not ok
        assert run.failed == 3 and "key" not in ref and timings == []


class TestOutputChecks:
    def test_descent_step_that_raises_the_risk_is_flagged(self, fixture_point):
        data = network.Dataset(fixture_point.data.inputs, fixture_point.data.labels + 0.1)
        verdict = checker.sosp_check(fixture_point.params, data)
        inst = workloads.certify_instance("t", fixture_point, data, 2, 10)
        inst.expect = None
        assert workloads.output_problems(inst, inst.params, verdict) == []
        uphill = checker.Verdict(
            kind="descent", stage=verdict.stage, direction=verdict.direction.scaled(-1.0),
            step=verdict.step, diagnostics=verdict.diagnostics,
        )
        assert any("does not lower" in p for p in workloads.output_problems(inst, inst.params, uphill))

    def test_wrong_boundary_counts_are_flagged(self, fixture_point):
        inst = workloads.certify_instance("t", fixture_point, fixture_point.data, 3, 10)
        verdict = checker.sosp_check(inst.params, inst.data)
        assert any("guarantees 3" in p for p in workloads.output_problems(inst, inst.params, verdict))


class TestTracer:
    def _bindings(self):
        return {
            (ns.__name__, fn): ns.__dict__[fn]
            for ns in (sospcheck, checker, harness, network, second_order)
            for _, fn in tracer.TARGETS
            if fn in ns.__dict__
        }

    def test_attributes_are_restored(self, fixture_point):
        before = self._bindings()
        with tracer.Tracer() as tr:
            assert checker.solve_icqp is not before[("sospcheck.checker", "solve_icqp")]
            assert second_order.pareto_spectrum is not before[
                ("sospcheck.second_order", "pareto_spectrum")]
            assert sospcheck.sosp_check is not before[("sospcheck", "sosp_check")]
            with tr.operation("check"):
                checker.sosp_check(fixture_point.params, fixture_point.data)
        after = self._bindings()
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)

    def test_paused_tracer_records_nothing(self, fixture_point):
        before = self._bindings()
        with tracer.Tracer() as tr:
            with tr.paused():
                assert self._bindings() == before
                network.empirical_risk(
                    fixture_point.params, fixture_point.data, network.SquaredLoss())
            assert checker.sosp_check is not before[("sospcheck.checker", "sosp_check")]
        assert tr.spans == []

    def test_attributes_are_restored_when_the_traced_call_raises(self):
        before = self._bindings()
        with pytest.raises(ZeroDivisionError):
            with tracer.Tracer():
                1 / 0
        assert self._bindings() == before

    def test_self_times_add_up(self, fixture_point):
        with tracer.Tracer() as tr:
            with tr.operation("check"):
                checker.sosp_check(fixture_point.params, fixture_point.data)
        summary = tr.summary("check")
        total = summary["op.check"]["total_s"]
        selfs = tr.self_times()
        assert min(selfs) >= -1e-9
        inner = sum(rec["self_s"] for name, rec in summary.items() if name != "op.check")
        assert inner <= total
        assert sum(rec["self_s"] for rec in summary.values()) == pytest.approx(total, rel=1e-9)
        # calls resolved through module globals are seen too
        assert summary["second_order.pareto_spectrum"]["calls"] == 4
        assert summary["second_order.icqp_reduce"]["calls"] == 4
        assert summary["checker.sosp_check"]["calls"] == 1
        assert summary["second_order.assemble_so_qp"]["calls"] == 5

    def test_spans_carry_their_operation_and_parent(self, fixture_point):
        with tracer.Tracer() as tr:
            for kind in ("train", "check"):
                with tr.operation(kind):
                    network.empirical_risk(
                        fixture_point.params, fixture_point.data, network.SquaredLoss())
        assert [tr.op_kinds[s.op] for s in tr.spans] == ["train", "train", "check", "check"]
        assert tr.spans[1].parent == 0 and tr.spans[3].parent == 2


class TestTrainedPointErrors:
    MESSAGE = "no decrease along the claimed descent direction (risk 1.0e+00)"

    def _raise(self, *args, **kwargs):
        raise NoDecreaseFoundError(self.MESSAGE)

    def test_error_is_a_timed_repeating_outcome_at_a_trained_point(
            self, fixture_point, monkeypatch):
        inst = workloads.certify_instance("t", fixture_point, fixture_point.data, 2, 10)
        inst.trains_point, inst.expect = True, None
        monkeypatch.setattr(checker, "sosp_check", self._raise)
        run, ref, timings = measure.Run("t", 0, 1.0, False), {}, []
        for _ in range(2):
            assert run.check(inst, inst.params, ref, timings) == (None, True)
        assert ref["key"] == workloads.error_key(NoDecreaseFoundError(self.MESSAGE))
        assert len(timings) == 2
        # boundary_statistics resolves sosp_check when called, so it sees the
        # same error and records it as an "error" verdict
        run.cross_check_statistics(inst, inst.params, ref)
        assert run.failed == 0 and run.attempted == 3

    def test_error_is_a_failure_on_a_certify_workload(self, fixture_point, monkeypatch):
        inst = workloads.certify_instance("t", fixture_point, fixture_point.data, 2, 10)
        monkeypatch.setattr(checker, "sosp_check", self._raise)
        run = measure.Run("t", 0, 1.0, False)
        assert run.check(inst, inst.params, {}, []) == (None, False)
        assert run.failed == 1

    def test_certify_check_runs_when_training_fails(self, fixture_point, monkeypatch):
        pool = workloads.Pool([
            workloads.certify_instance("t", fixture_point, fixture_point.data, 2, 10)])
        monkeypatch.setitem(workloads.SETUPS, "t", lambda seed: pool)
        monkeypatch.setattr(harness, "adam_train", self._raise)
        run = measure.Run("t", 0, 0.01, False)
        metrics, _ = run.execute()
        assert metrics == {}  # no training time to report
        assert run.check_s and len(run.check_s) == run.steps
        assert run.failed == run.steps and run.wrong == 0
