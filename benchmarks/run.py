"""Certification benchmark for sospcheck.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload, or ``all`` of them, against the library in ``src/`` of
the checkout this file sits in; the library is imported from source, so
there is nothing to build. Summary lines come first, every metric with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing installed: ``check_s`` (sosp_check wall time: the median per
checked instance, and the median of those over the instances), ``train_us_per_iter``
(median Adam cost per iteration) and ``setup_s`` (median of several
set-ups). The summary also gives ``fail_ratio``. With ``--trace 1`` the
metrics are per-layer self times, call counts, exact work counters and
``checker.sosp_check.peak_mem_mb`` (tracemalloc peak of one check, plus a
short training run where the workload trains, averaged over the
instances).

``failed`` counts operations that raised or returned a wrong output;
``correct`` is false when some output was wrong, or when no check or no
training run succeeded, so that there is no median to report.
A certify workload whose point no longer reaches the cone QPs is refused:
the run exits with code 3 and prints no result. Exit code 2 means the
library sources are missing.
"""

from __future__ import annotations

import os
import sys

# cap BLAS threads at the processors this process may use, before numpy loads
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _given = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_given), NPROC) if _given.isdigit() and int(_given) > 0 else NPROC)
sys.dont_write_bytecode = True  # leave the checkout as it was

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("desk_trained", "large_m_certify", "flat_rays_k7")


def import_library():
    """Import sospcheck from this checkout's ``src``; None if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "sospcheck", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import sospcheck

    if os.path.dirname(os.path.dirname(os.path.abspath(sospcheck.__file__))) != SRC:
        return None
    return sospcheck


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "loop": "closed, 1 process, 1 caller",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    if import_library() is None:
        print(f"sospcheck sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import measure
    import workloads

    print(json.dumps({"environment": environment()}))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run = measure.Run(name, args.seed, args.seconds, bool(args.trace))
        try:
            metrics, lines = run.execute()
        except workloads.WorkloadGuardError as exc:
            print(f"refusing workload {name}: {exc}", file=sys.stderr)
            return 3
        print("\n".join(lines))
        result["correct"] = result["correct"] and run.wrong == 0 and bool(metrics)
        result["attempted"] += run.attempted
        result["failed"] += run.failed
        prefix = f"{name}." if args.workload == "all" else ""
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
