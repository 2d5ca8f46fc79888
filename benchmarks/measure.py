"""One benchmark run of one workload: set-up, timed loop, memory pass, metrics.

The loop is closed: one caller issues each operation only after the
previous one returned. One loop step takes the next instance of the pool,
runs Adam on it (the 20k-iteration training that produces the checked
point on ``desk_trained``, a short run from the fixture on the certify
workloads) and checks the resulting point. Untraced runs check a trained
point ``DESK_CHECK_REPEATS`` times; traced runs check every point once with
the tracer recording and once without, for the tracing overhead, and take
the memory peak of a check in a separate untimed pass. Pools hold several
instances; ``check_s`` and the memory peak weigh each instance equally, so
that the figures depend less on which instances a seed drew, and the median
over instances keeps ``check_s`` at the typical instance when a few trained
points take the slow line-search path.

Every training run and check is an operation. An operation fails when it
raises, when its output does not pass ``workloads.output_problems``, or
when its verdict differs from an earlier check of the same point. At a
trained point, a check that ends in one of ``workloads.TRAINED_POINT_ERRORS``
is an outcome, not a failure: it is timed and must repeat like a verdict,
as ``harness.boundary_statistics`` records it.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace

import tracer as tracer_mod
import workloads
from sospcheck import checker, harness

DESK_CHECK_REPEATS = 3
MEMORY_PASS_TRAIN_ITERS = 200
# untraced runs set up at least SETUP_REPEATS times, and go on while less
# than SETUP_SECONDS has been spent on set-ups, up to SETUP_MAX times
SETUP_REPEATS = 2
SETUP_SECONDS = 2.0
SETUP_MAX = 100
MAX_REPORTED_PROBLEMS = 20


class Run:
    """Counts operations and collects timings for one workload run."""

    def __init__(self, name: str, seed: int, seconds: float, traced: bool):
        self.name, self.seed, self.seconds, self.traced = name, seed, seconds, traced
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed operations whose output was wrong, not raised
        self.problems: list[str] = []
        self.check_s_by_instance: dict[int, list[float]] = {}
        self.check_s_untraced: list[float] = []
        self.train_us: list[float] = []
        self.setup_s: list[float] = []
        self.fingerprints: set = set()
        self.peak_bytes: list[int] = []  # one per memory pass (traced runs)
        self.counts: Counter = Counter()
        self.steps = 0
        self.tracer: tracer_mod.Tracer | None = None

    @property
    def check_s(self) -> list[float]:
        """Every timed check of the loop."""
        return [t for times in self.check_s_by_instance.values() for t in times]

    # -- operations ---------------------------------------------------------

    def _note(self, what: str, problem: str) -> None:
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(f"{what}: {problem}")

    def _raised(self, what: str, exc: Exception) -> None:
        self.failed += 1
        self._note(what, f"{type(exc).__name__}: {exc}")

    def _wrong_output(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.wrong += 1
        for p in problems:
            self._note(what, p)

    def _op(self, kind: str | None):
        if self.tracer is None or kind is None:
            return nullcontext()
        return self.tracer.operation(kind)

    def train(self, inst, timings: list, op_kind="train"):
        """One Adam run, timed per iteration; returns the trained parameters."""
        self.attempted += 1
        try:
            with self._op(op_kind):
                t0 = time.perf_counter()
                params, trace = harness.adam_train(inst.params, inst.data, config=inst.adam)
                elapsed = time.perf_counter() - t0
        except Exception as exc:  # a failed operation; the loop keeps running
            self._raised(f"train {inst.label}", exc)
            return None
        if not trace or trace[-1][0] != inst.adam.iters:
            self._wrong_output(f"train {inst.label}", [f"training ended at {trace[-1:]}"])
            return None
        self.counts["adam_iterations"] += inst.adam.iters
        timings.append(elapsed / inst.adam.iters * 1e6)
        return params

    def check(self, inst, point, reference: dict, timings: list, op_kind="check"):
        """One timed sosp_check with its output checked.

        Returns ``(verdict, ok)``; the verdict is None when the check raised
        or, at a trained point, ended in an expected error. Until a verdict
        on the point has passed the full output checks, every verdict goes
        through them; the first that passes becomes ``reference["key"]``
        and later ones must repeat it.
        """
        self.attempted += 1
        verdict = None
        try:
            with self._op(op_kind):
                t0 = time.perf_counter()
                try:
                    verdict = checker.sosp_check(point, inst.data, config=inst.config)
                    key = workloads.verdict_key(verdict)
                except workloads.TRAINED_POINT_ERRORS as exc:
                    if not inst.trains_point:
                        raise
                    key = workloads.error_key(exc)
                    self.counts["error_verdicts"] += 1
                elapsed = time.perf_counter() - t0
        except Exception as exc:  # a failed operation; the loop keeps running
            self._raised(f"check {inst.label}", exc)
            return None, False
        if "key" in reference:
            problems = ([] if key == reference["key"] else
                        [f"verdict {key} differs from the earlier {reference['key']}"])
        else:
            problems = workloads.output_problems(inst, point, verdict) if verdict is not None else []
            if not problems:
                reference["key"] = key
        if problems:
            self._wrong_output(f"check {inst.label}", problems)
            return verdict, False
        timings.append(elapsed)
        return verdict, True

    def cross_check_statistics(self, inst, point, reference: dict) -> None:
        """The harness's own full check of a trained point must agree with ours."""
        self.attempted += 1
        try:
            report = harness.boundary_statistics(point, inst.data, full_check=True)
        except Exception as exc:  # a failed operation; the loop keeps running
            self._raised(f"boundary_statistics {inst.label}", exc)
            return
        expected = workloads.statistics_verdict(reference["key"])
        if report.verdict != expected:
            self._wrong_output(f"boundary_statistics {inst.label}",
                               [f"verdict {report.verdict} differs from {expected}"])

    # -- phases -------------------------------------------------------------

    def setup(self) -> workloads.Pool:
        """Build the instance pool, timed; returns it."""
        with self._op("setup"):
            t0 = time.perf_counter()
            pool = workloads.SETUPS[self.name](self.seed)
            self.setup_s.append(time.perf_counter() - t0)
        self.fingerprints.add(workloads.fingerprint(pool))
        self.counts["construction_attempts"] = pool.construction_attempts
        return pool

    def first_setups(self) -> workloads.Pool:
        """Untraced runs set up several times before the loop; traced runs once."""
        pool = self.setup()
        while not self.traced and len(self.setup_s) < SETUP_MAX and (
                len(self.setup_s) < SETUP_REPEATS or sum(self.setup_s) < SETUP_SECONDS):
            pool = self.setup()
        return pool

    def memory_pass(self, inst, point, reference: dict):
        """Untimed, untraced check -- after a short training run, when the
        workload trains -- under tracemalloc; returns what ``check`` returns."""
        with self.tracer.paused():
            tracemalloc.start()
            try:
                if inst.trains_point:
                    adam = harness.AdamConfig(
                        iters=MEMORY_PASS_TRAIN_ITERS, record_every=MEMORY_PASS_TRAIN_ITERS)
                    self.train(replace(inst, adam=adam), [], op_kind=None)
                outcome = self.check(inst, point, reference, [], op_kind=None)
                self.peak_bytes.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return outcome

    @staticmethod
    def guard(inst, verdict) -> None:
        """Refuse a certify fixture that no longer reaches the cone QPs,
        whether or not its verdict passed the output checks."""
        if not inst.trains_point and verdict is not None:
            workloads.guard_certify(verdict, inst.expect)

    def loop(self, pool: workloads.Pool) -> None:
        references = [{} for _ in pool.instances]
        # certify workloads: untraced runs check the first fixture once,
        # untimed, so that first-call costs stay out of the timings; traced
        # runs take the memory peak of every fixture before the loop
        for inst, ref in zip(pool.instances, references):
            if inst.trains_point:
                continue
            if self.traced:
                verdict, _ = self.memory_pass(inst, inst.params, ref)
            else:
                verdict, _ = self.check(inst, inst.params, ref, [], op_kind=None)
            self.guard(inst, verdict)
            if not self.traced:
                break

        memory_point = None
        deadline = time.perf_counter() + self.seconds
        while True:
            index = self.steps % len(pool.instances)
            inst, ref = pool.instances[index], references[index]
            timings = self.check_s_by_instance.setdefault(index, [])
            self.steps += 1
            trained = self.train(inst, self.train_us)
            # the certify workloads check their fixture, whatever training gave
            point = trained if inst.trains_point else inst.params
            if inst.trains_point:
                ref = {}
            if point is not None and self.traced:
                verdict, ok = self.check(inst, point, ref, timings)
                self.guard(inst, verdict)
                with self.tracer.paused():
                    self.check(inst, point, ref, self.check_s_untraced, op_kind=None)
                if ok and verdict is not None:
                    self.counts.update(workloads.work_counts(verdict, inst.config))
                    self.counts["verdict_checks"] += 1
                if inst.trains_point and "key" in ref:
                    memory_point = memory_point or (inst, point, ref)
            elif point is not None:
                for _ in range(DESK_CHECK_REPEATS if inst.trains_point else 1):
                    verdict, _ = self.check(inst, point, ref, timings)
                    self.guard(inst, verdict)
                if inst.trains_point and "key" in ref:
                    self.cross_check_statistics(inst, point, ref)
            if time.perf_counter() >= deadline:
                break
        if memory_point is not None:
            self.memory_pass(*memory_point)

    def execute(self) -> tuple[dict, list[str]]:
        """Run the workload; returns (metrics, summary lines)."""
        if self.traced:
            with tracer_mod.Tracer() as tr:
                self.tracer = tr
                self.loop(self.first_setups())
        else:
            self.loop(self.first_setups())
        if len(self.fingerprints) != 1:
            self._wrong_output("setup", ["set-ups built different inputs from one seed"])
        if not (self.check_s and self.train_us):
            metrics = {}  # nothing to report a median of; the run is not correct
        else:
            metrics = self.per_layer() if self.traced else self.end_to_end()
        return metrics, self.summary_lines(metrics)

    # -- results ------------------------------------------------------------

    def check_s_per_instance(self) -> float:
        """Median over the checked instances of each one's median check time."""
        return statistics.median(
            statistics.median(t) for t in self.check_s_by_instance.values() if t)

    def end_to_end(self) -> dict:
        return {
            "check_s": {"value": self.check_s_per_instance(), "unit": "s"},
            "train_us_per_iter": {"value": statistics.median(self.train_us), "unit": "us"},
            "setup_s": {"value": statistics.median(self.setup_s), "unit": "s"},
        }

    def per_layer(self) -> dict:
        """Self time and calls per loop step (one training run and one traced
        check), set-up work per set-up, and exact work counters per traced
        check that returned a verdict."""
        n = max(self.counts["verdict_checks"], 1)
        loop: dict = {}
        for kind in ("train", "check"):
            for name, rec in self.tracer.summary(kind).items():
                agg = loop.setdefault(name, {"self_s": 0.0, "calls": 0})
                agg["self_s"] += rec["self_s"]
                agg["calls"] += rec["calls"]
        setup = self.tracer.summary("setup")
        metrics = {}
        for module, fn in tracer_mod.TARGETS:
            name = f"{module}.{fn}"
            if fn == "construct_boundary_fosp":
                metrics[f"{name}.self_s"] = (setup.get(name, {}).get("self_s", 0.0), "s")
                metrics[f"{name}.attempts"] = (self.counts["construction_attempts"], "count")
                continue
            rec = loop.get(name, {"self_s": 0.0, "calls": 0})
            metrics[f"{name}.self_s"] = (rec["self_s"] / self.steps, "s")
            metrics[f"{name}.calls"] = (rec["calls"] / self.steps, "count")
        for metric in workloads.WORK_COUNTERS:
            metrics[metric] = (self.counts[metric] / n, "count")
        metrics["harness.adam_train.iterations"] = (
            self.counts["adam_iterations"] / self.steps, "count")
        metrics["checker.sosp_check.peak_mem_mb"] = (
            statistics.fmean(self.peak_bytes) / 2**20 if self.peak_bytes else 0.0, "MB")
        traced = statistics.median(self.check_s)
        untraced = statistics.median(self.check_s_untraced)
        metrics["tracer.check_s_traced"] = (traced, "s")
        metrics["tracer.check_s_untraced"] = (untraced, "s")
        metrics["tracer.overhead_s"] = (traced - untraced, "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def summary_lines(self, metrics: dict) -> list[str]:
        width = 44
        lines = [f"workload {self.name}  seed {self.seed}  trace {int(self.traced)}"
                 f"  steps {self.steps}  checks {len(self.check_s)}"]
        if not self.traced:
            lines.append(f"  {'fail_ratio':<{width}} {self.failed / self.attempted:.4f} 1 "
                         f"({self.failed} of {self.attempted} operations)")
            lines.append(f"  {'construction_attempts':<{width}} "
                         f"{self.counts['construction_attempts']} count")
            lines.append(f"  {'error_verdicts':<{width}} {self.counts['error_verdicts']} count "
                         f"(checks of trained points that ended in an expected error)")
        for name, rec in metrics.items():
            lines.append(f"  {name:<{width}} {rec['value']:.6g} {rec['unit']}")
        if self.traced:
            lines.extend(self.attribution())
        lines.extend(f"  problem: {p}" for p in self.problems)
        return lines

    def attribution(self) -> list[str]:
        """Where traced time went: self-time shares of the traced checks, of
        the training runs, and of whole loop steps (both together)."""
        summaries = {kind: self.tracer.summary(kind) for kind in ("check", "train")}
        step: dict = {}
        for summ in summaries.values():
            for name, rec in summ.items():
                step[name] = step.get(name, 0.0) + rec["self_s"]
        lines = []
        for label, shares in (
            ("check", {n: r["self_s"] for n, r in summaries["check"].items()}),
            ("train", {n: r["self_s"] for n, r in summaries["train"].items()}),
            ("step", step),
        ):
            total = sum(shares.values())
            if total <= 0:
                continue
            ranked = sorted(((n, v) for n, v in shares.items() if not n.startswith("op.")),
                            key=lambda kv: -kv[1])
            parts = ", ".join(f"{n} {100 * v / total:.1f}%" for n, v in ranked[:6])
            lines.append(f"  {label} self-time shares: {parts}")
        return lines
