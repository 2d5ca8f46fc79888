"""Command-line interface.

Subcommands:
  check     load parameters + data, run the full certification, emit a JSON verdict
            (--explain: then each tolerance-gated decision against its threshold)
  train     generate (or load) data, run full-batch Adam, save trained parameters
  stats     multi-seed training runs with boundary statistics, aggregate table
  synth     construct exact-boundary stationary fixtures
  selftest  fast built-in oracle checks

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal inconsistency
(for example a descent direction that fails its own line-search validation).
check draws no random numbers and takes no seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

import numpy as np

from . import harness
from .checker import CheckConfig, sosp_check
from .errors import (
    InternalInconsistencyError,
    NoDecreaseFoundError,
    SospcheckError,
)
from .harness import (
    AdamConfig,
    StatThresholds,
    TrendConfig,
    adam_train,
    construct_boundary_fosp,
    construct_indefinite_fosp,
    dataset_from_dict,
    dataset_to_dict,
    generate_dataset,
    init_params,
    load_json,
    params_from_dict,
    params_to_dict,
    run_boundary_trend,
    save_json,
)
from .network import SquaredLoss
from .second_order import sign_rows


class _InputError(SospcheckError):
    """Input that a command cannot use; ``main`` reports it with exit code 2."""


@contextmanager
def _input(what: str):
    """Turn a failure to read or validate ``what`` into an :class:`_InputError`."""
    try:
        yield
    except (OSError, KeyError, ValueError, SospcheckError) as exc:
        raise _InputError(f"{what}: {exc}") from exc


def _cmd_check(args) -> int:
    with _input("could not load inputs"):
        params = params_from_dict(load_json(args.params))
        data = dataset_from_dict(load_json(args.data))
    with _input("invalid settings"):
        config = CheckConfig(boundary_tol=args.boundary_tol)
    verdict = sosp_check(params, data, SquaredLoss(), config)
    report = {"schema_version": harness.SCHEMA_VERSION, **verdict.as_dict()}
    if args.out:
        save_json(args.out, report)
    else:
        json.dump(report, sys.stdout, indent=1)
        print()
    print(f"verdict: {verdict.kind}" + (f" (stage: {verdict.stage})" if verdict.stage else ""))
    if args.explain:
        print("\n".join(explain(json.loads(json.dumps(report)))))
    return 0


# patterns and witnesses that ``check --explain`` lists, nearest to flipping first
EXPLAIN_CLOSEST = 5


def explain(report: dict) -> list[str]:
    """The tolerance-gated decisions of a check report (as loaded from its
    JSON), value against threshold: the first-order zero tests, the ECQP's
    smallest eigenvalue, the ICQP counts per (verdict, psd, cp, cp_by), the
    ``EXPLAIN_CLOSEST`` patterns whose lambda_min(S) lies nearest to +-tol,
    with their sign rows, and as many witnesses nearest to their limit."""
    lines = []
    for e in report["diagnostics"]["trace"]:
        name = e["stage"] + (f" unit {e['k']}" if "k" in e else "")
        if "value" in e:
            side = "<=" if e["value"] <= e["tol"] else ">"
            lines.append(
                f"{name}: {e['value']:.3e} {side} tol {e['tol']:.3e} (scale {e['scale']:.3e})"
            )
        elif e["stage"] == "ecqp":
            lam = "none (null(A) = {0})" if e["lam_min"] is None else f"{e['lam_min']:.3e}"
            lines.append(f"ecqp: lambda_min {lam} against +-tol {e['tol']:.3e} -> {e['verdict']}")
        elif e["stage"] == "icqp":
            lines += _explain_icqp(e)
    return lines


def _explain_icqp(record: dict) -> list[str]:
    """The lines of :func:`explain` for the ``icqp`` record of a report."""
    n_patterns, pairs = len(record["verdict"]), " ".join(record["pairs"])
    lines = [f"icqp: sign patterns decided {n_patterns}, pairs {pairs}"]
    for c in record["counts"]:
        cp = f" {c['cp']} by {c['cp_by']}" if c["cp"] is not None else ""
        lines.append(f"  {c['n']:>6} x {c['verdict']} {c['psd']}{cp}")
    pinned, free = np.array(record["pinned"]), np.array(record["free"])

    def signs(n: int) -> str:
        return " ".join(f"{s:+d}" for s in sign_rows(pinned, free, n, n + 1)[0].tolist())

    tested = [(n, lam, tol) for n, (lam, tol) in enumerate(zip(record["lam_min_s"], record["tol"]))
              if lam is not None]
    near = sorted(tested, key=lambda t: (min(abs(t[1] - t[2]), abs(t[1] + t[2])) / t[2], t[0]))
    for n, lam, tol in near[:EXPLAIN_CLOSEST]:
        lines.append(f"  pattern {n} [{signs(n)}]: lambda_min(S) {lam:.3e} against +-tol {tol:.3e}"
                     f" -> {record['cp'][n]} by {record['cp_by'][n]}")

    def nearness(w: dict) -> float:  # 1 at the limit
        sizes = sorted([abs(w["curvature"]), abs(w["threshold"])])
        return sizes[0] / sizes[1] if sizes[1] else 1.0

    witnesses = sorted(record["witness"].items(), key=lambda kv: -nearness(kv[1]))
    for n, w in witnesses[:EXPLAIN_CLOSEST]:
        n = int(n)
        lines.append(f"  pattern {n} [{signs(n)}] {record['verdict'][n]} witness: curvature"
                     f" {w['curvature']:.3e} against {w['threshold']:.3e} ({w['by']})")
    return lines


def _cmd_train(args) -> int:
    with _input("invalid settings"):
        cfg = AdamConfig(lr=args.lr, iters=args.iters, decay_every=args.decay_every)
    if args.data:
        with _input("could not load data"):
            data = dataset_from_dict(load_json(args.data))
    else:
        data = generate_dataset(args.dx, args.dy, args.m, seed=args.seed)
    params0 = init_params(data.d_x, args.dh, data.d_y, seed=args.seed + 10_000)
    params, trace = adam_train(params0, data, config=cfg)
    save_json(args.out, params_to_dict(params))
    if args.save_data:
        save_json(args.save_data, dataset_to_dict(data))
    print(f"final risk: {trace[-1][1]:.6e} after {trace[-1][0]} iterations -> {args.out}")
    return 0


def _cmd_stats(args) -> int:
    iters = 200_000 if args.full_budget else args.iters
    decay = 20_000 if args.full_budget else args.decay_every
    runs = 40 if args.full_budget else args.runs
    with _input("invalid settings"):
        cfg = TrendConfig(
            d_x=args.dx,
            d_h=args.dh,
            d_y=args.dy,
            m=args.m,
            runs=runs,
            seed=args.seed,
            adam=AdamConfig(iters=iters, decay_every=decay),
            thresholds=StatThresholds(boundary=args.boundary_tol),
        )
    agg = run_boundary_trend(cfg)
    header = f"({args.dx},{args.dh},{args.m})"
    print(f"{'config':>15} {'runs':>5} {'Sum M (Avg.)':>16} {'Sum L (Avg.)':>16} "
          f"{'Sum K (Avg.)':>16} {'P(L>0)':>8}")
    print(
        f"{header:>15} {agg['runs']:>5} "
        f"{agg['sum_m']:>7} ({agg['avg_m']:.3f}) "
        f"{agg['sum_l']:>7} ({agg['avg_l']:.3f}) "
        f"{agg['sum_k']:>7} ({agg['avg_k']:.3f}) "
        f"{agg['p_l_positive']:>8.3f}"
    )
    if args.out:
        save_json(args.out, {"schema_version": harness.SCHEMA_VERSION, **agg})
    return 0


def _cmd_synth(args) -> int:
    if args.mode == "indefinite":
        point = construct_indefinite_fosp(args.dx, args.dh, args.dy, seed=args.seed)
    else:
        point = construct_boundary_fosp(
            args.dx,
            args.dh,
            args.dy,
            seed=args.seed,
            n_boundary=args.boundary,
            mode=args.mode,
        )
    save_json(args.out_params, params_to_dict(point.params))
    save_json(args.out_data, dataset_to_dict(point.data))
    print(
        f"constructed {point.mode} fixture: unit {point.unit}, "
        f"boundary samples {point.boundary_samples} -> {args.out_params}, {args.out_data}"
    )
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest(verbose=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sospcheck",
        description="Certify local minimality / second-order stationarity of "
        "one-hidden-layer piecewise-linear networks, or produce a verified "
        "descent direction.",
    )
    sub = parser.add_subparsers(dest="command")

    p_check = sub.add_parser("check", help="certify a parameter point")
    p_check.add_argument("--params", required=True)
    p_check.add_argument("--data", required=True)
    p_check.add_argument("--out", default=None)
    p_check.add_argument("--boundary-tol", type=float, default=0.0)
    p_check.add_argument(
        "--explain",
        action="store_true",
        help="after the verdict, print each tolerance-gated decision against its threshold",
    )
    p_check.set_defaults(func=_cmd_check)

    # the problem size and training schedule that train and stats share
    training = argparse.ArgumentParser(add_help=False)
    for flag, default in (("--dx", 10), ("--dh", 1), ("--dy", 1), ("--m", 1000),
                          ("--iters", 20_000), ("--decay-every", 2_000), ("--seed", 0)):
        training.add_argument(flag, type=int, default=default)

    p_train = sub.add_parser("train", help="full-batch Adam training", parents=[training])
    p_train.add_argument("--lr", type=float, default=1e-3)
    p_train.add_argument("--data", default=None, help="load data instead of generating")
    p_train.add_argument("--save-data", default=None)
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(func=_cmd_train)

    p_stats = sub.add_parser("stats", help="multi-seed boundary statistics", parents=[training])
    p_stats.add_argument("--runs", type=int, default=10)
    p_stats.add_argument("--boundary-tol", type=float, default=1e-5)
    p_stats.add_argument("--out", default=None)
    p_stats.add_argument(
        "--full-budget",
        action="store_true",
        help="40 runs x 200k iterations with decay every 20k",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_synth = sub.add_parser("synth", help="construct stationary fixtures")
    p_synth.add_argument("--dx", type=int, default=4)
    p_synth.add_argument("--dh", type=int, default=2)
    p_synth.add_argument("--dy", type=int, default=1)
    p_synth.add_argument("--boundary", type=int, default=1)
    p_synth.add_argument(
        "--mode",
        choices=["interior", "edge", "orthogonal", "ray_descent", "subdiff_descent", "indefinite"],
        default="interior",
    )
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out-params", required=True)
    p_synth.add_argument("--out-data", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_self = sub.add_parser("selftest", help="run the built-in oracle checks")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if not getattr(args, "command", None):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except (InternalInconsistencyError, NoDecreaseFoundError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except SospcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
