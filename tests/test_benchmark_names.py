"""Every library name the frozen benchmark under ``benchmarks/`` uses still exists.

``benchmarks/tracer.py`` looks up each of its ``TARGETS`` with ``getattr``
when it installs its wrappers, and the benchmark modules import names from
``sospcheck``, so deleting one of them breaks the benchmark run rather than
a test. The benchmark files are only parsed here, never imported or edited.
"""

import ast
import importlib
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _library_imports(tree):
    """(module, name, bound name) of every ``from sospcheck... import name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sospcheck":
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def test_tracer_targets_resolve():
    (targets,) = [
        ast.literal_eval(node.value)
        for node in _tree("tracer.py").body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    assert targets
    missing = [
        f"{module}.{fn}"
        for module, fn in targets
        if not callable(getattr(importlib.import_module(f"sospcheck.{module}"), fn, None))
    ]
    assert missing == []


def test_benchmark_test_imports_exist():
    imports = list(_library_imports(_tree("test_benchmarks.py")))
    assert imports
    missing = [
        f"{module}.{name}"
        for module, name, _ in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_benchmark_module_attributes_exist():
    # e.g. ``checker.sosp_check`` after ``from sospcheck import checker``
    seen, missing = 0, []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {"sospcheck": importlib.import_module("sospcheck")}
        for module, name, bound in _library_imports(tree):
            value = getattr(importlib.import_module(module), name, None)
            if isinstance(value, types.ModuleType):
                modules[bound] = value
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                seen += 1
                if not hasattr(modules[node.value.id], node.attr):
                    missing.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert seen and missing == []


def _constant(name, file):
    (value,) = [
        ast.literal_eval(node.value)
        for node in _tree(file).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]
    ]
    return value


def test_benchmark_training_settings_stay_valid():
    from sospcheck.harness import AdamConfig

    AdamConfig()  # desk_trained trains on the defaults
    for name, file in [
        ("LARGE_M_TRAIN_ITERS", "workloads.py"),
        ("FLAT_RAYS_TRAIN_ITERS", "workloads.py"),
        ("MEMORY_PASS_TRAIN_ITERS", "measure.py"),
    ]:
        iters = _constant(name, file)
        assert AdamConfig(iters=iters, record_every=iters).iters == iters


def test_one_risk_gradient_call_per_adam_iteration(monkeypatch):
    # the traced benchmark counts harness.risk_gradient calls per training run
    from sospcheck import harness

    calls = []
    original = harness.risk_gradient

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "risk_gradient", counting)
    params = harness.init_params(3, 2, 1, seed=0)
    data = harness.generate_dataset(3, 1, 20, seed=1)
    for iters, record_every in [(1, 1), (37, 10), (50, 200)]:
        calls.clear()
        config = harness.AdamConfig(iters=iters, record_every=record_every)
        harness.adam_train(params, data, config=config)
        assert len(calls) == iters


# the trace keys ``workloads.work_counts`` and ``workloads.guard_certify``
# read, by stage; a missing one crashes ``run.py`` (``--trace 1`` for the
# counters) instead of failing a test
TRACE_READS = {
    "outer_layer": {"stage", "passed"},
    "subdiff_qp": {"stage", "certified", "iterations"},
    "ecqp": {"stage", "iterations", "fallback"},
    "icqp": {"stage", "cp", "constraints"},
}
DIAGNOSTICS_READS = {"trace", "n_icqp", "n_ecqp"}


def test_trace_reads_are_listed():
    read = set()
    for fn in _tree("workloads.py").body:
        if isinstance(fn, ast.FunctionDef) and fn.name in ("work_counts", "guard_certify"):
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Subscript)
                    and isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, str)
                    and not (
                        isinstance(node.value, ast.Name) and node.value.id in ("counts", "expect")
                    )
                ):
                    read.add(node.slice.value)
    listed = set().union(*TRACE_READS.values(), DIAGNOSTICS_READS, {"r"})
    assert read and read <= listed


def test_a_k1_verdict_has_every_key_the_benchmark_reads():
    from sospcheck.checker import sosp_check
    from sospcheck.harness import construct_boundary_fosp

    point = construct_boundary_fosp(
        5, 2, 1, seed=10, n_boundary=3, units=[0, 0, 1], mode="orthogonal"
    )
    verdict = sosp_check(point.params, point.data)
    diag = verdict.diagnostics
    assert diag["K"] >= 1 and DIAGNOSTICS_READS <= set(diag)
    stages = set()
    for entry in diag["trace"]:
        stages.add(entry["stage"])
        assert TRACE_READS.get(entry["stage"], set()) <= set(entry)
    assert set(TRACE_READS) <= stages
    (icqp,) = [entry for entry in diag["trace"] if entry["stage"] == "icqp"]
    assert icqp["cp"] is not None and type(icqp["constraints"]["r"]) is int
