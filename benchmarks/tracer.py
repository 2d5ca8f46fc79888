"""Outside-in tracer for the traced benchmark run.

The library carries no tracing of its own, so the tracer replaces chosen
public functions with timing wrappers in every ``sospcheck`` namespace that
binds them: ``checker`` imports its callees by name, and ``solve_icqp`` /
``copositivity_classify`` resolve ``icqp_reduce`` / ``pareto_spectrum``
through the ``second_order`` globals, so wrapping only the defining module
would miss those calls. Every replaced attribute is restored on exit.

Spans are kept in memory as (name, start, end, parent, op) records; ``op`` is
the id of the benchmark operation (one check, one training run, one set-up)
the span belongs to. A function's self time is its duration minus the
durations of its direct children. Calls are strictly nested within a
single thread, so the children never overlap and their durations can be
summed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "sospcheck"

# (module, function) pairs on the certification and training hot paths
TARGETS = (
    ("network", "per_sample_derivatives"),
    ("network", "boundary_analysis"),
    ("network", "empirical_risk"),
    ("network", "expansion_terms"),
    ("first_order", "outer_layer_fosp"),
    ("first_order", "solve_subdiff_qp"),
    ("first_order", "increasing_check"),
    ("second_order", "assemble_so_qp"),
    ("second_order", "solve_ecqp_pgd"),
    ("second_order", "solve_icqp"),
    ("second_order", "icqp_reduce"),
    ("second_order", "classify_psd_block"),
    ("second_order", "copositivity_classify"),
    ("second_order", "pareto_spectrum"),
    ("checker", "sosp_check"),
    ("checker", "validate_descent"),
    ("harness", "adam_train"),
    ("harness", "risk_gradient"),
    ("harness", "construct_boundary_fosp"),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top of an operation
    op: int  # id of the benchmark operation the span belongs to


class Tracer:
    """Installs timing wrappers; use as a context manager.

    ``operation(kind)`` opens a top-level span for one benchmark operation;
    wrapped calls made inside it become its descendants.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op_kinds: dict[int, str] = {-1: "outside"}
        self._stack: list[int] = []
        self._op = -1  # current operation; -1 between operations
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, fn_name in TARGETS:
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for ns in namespaces:
                if ns.__dict__.get(fn_name) is original:
                    self._saved.append((ns, fn_name, original))
                    setattr(ns, fn_name, wrapper)

    def restore(self) -> None:
        for ns, fn_name, original in reversed(self._saved):
            setattr(ns, fn_name, original)
        self._saved.clear()

    @contextmanager
    def paused(self):
        """Run a block with every original function back in place."""
        self.restore()
        try:
            yield
        finally:
            self.install()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)  # reserve the slot so children index after it
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self._op)

        return traced

    # -- operations ---------------------------------------------------------

    @contextmanager
    def operation(self, kind: str):
        """Top-level span for one benchmark operation (check, train, setup)."""
        if self._stack:
            raise RuntimeError("operations cannot nest")
        op = len(self.op_kinds) - 1
        self.op_kinds[op] = kind
        self._op = op
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield op
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(f"op.{kind}", start, end, -1, op)
            self._op = -1

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def summary(self, kind: str) -> dict:
        """Per-name {"self_s", "total_s", "calls"} over operations of ``kind``.

        None of the traced functions calls itself, so summing the durations
        of a name's spans counts no interval twice.
        """
        selfs = self.self_times()
        out: dict = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        for span, self_s in zip(self.spans, selfs):
            if self.op_kinds[span.op] != kind:
                continue
            rec = out[span.name]
            rec["self_s"] += self_s
            rec["total_s"] += span.end - span.start
            rec["calls"] += 1
        return dict(out)
