"""Command-line interface.

Subcommands:
  approx        one operator -> HODLR file + report summary
  recover       exact recovery of an operator promised to be HODLR(k)
  bench <name>  experiment grids -> CSV (plus a resolved-config stamp)
  check-bounds  executable bound suites; exit code 1 on any failure
"""

import argparse
import sys

import numpy as np

from . import bench, hodlr, linops, peel
from .rng import stream


def _add_operator_args(p):
    p.add_argument(
        "--operator",
        default="dense",
        choices=["dense", "poisson", "kernel", "hard-block", "exp-hard", "random-hodlr"],
        help="operator source",
    )
    p.add_argument("--in", dest="infile", help="dense matrix CSV (operator=dense)")
    p.add_argument("--points", help="x,y,z point cloud CSV (operator=kernel)")
    p.add_argument("--n", type=int, help="dimension for synthetic operators")
    p.add_argument("--eta", type=float, default=1e8, help="hard-instance scale")


def _usage_error(message):
    """Reject invalid arguments the way argparse does: one line, exit code 2."""
    print(f"hodlrpeel: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _build_operator(args, k, seed):
    """The operator the arguments name; a usage error when it has no HODLR(k)
    layout."""
    try:
        op = _make_operator(args, k, seed)
        hodlr.level_count(op.n, k)
    except hodlr.StructureError as exc:
        _usage_error(f"--operator {args.operator}: {exc}")
    return op


def _poisson_side(n):
    """Grid side t of the Poisson operator with n = t^2 unknowns."""
    t = int(round(n**0.5))
    if t * t != n:
        _usage_error(f"poisson dimension must be a square, got {n}")
    return t


def _exp_hard_levels(n):
    """Level count L of the exp-hard instance with n = 2^L."""
    L = int(n).bit_length() - 1
    if 1 << L != n:
        _usage_error(f"exp-hard dimension must be a power of two, got {n}")
    return L


def _make_operator(args, k, seed):
    name = args.operator
    if name == "dense":
        if not args.infile:
            _usage_error("--operator dense needs --in FILE")
        return linops.make_dense_operator(linops.load_dense_csv(args.infile))
    if name == "poisson":
        if not args.n:
            _usage_error("--operator poisson needs --n (a perfect square)")
        return linops.make_poisson_operator(_poisson_side(args.n))
    if name == "kernel":
        if args.points:
            pts = linops.load_points_csv(args.points)
        elif args.n:
            pts = linops.helix_points(args.n, stream(seed, 1))
        else:
            _usage_error("--operator kernel needs --points or --n")
        return linops.make_kernel_operator(pts)
    if name == "hard-block":
        return linops.make_hard_block_instance(k, args.eta)
    if name == "exp-hard":
        if not args.n:
            _usage_error("--operator exp-hard needs --n (a power of two)")
        return linops.make_exp_hard_instance(_exp_hard_levels(args.n), args.eta)
    if not args.n:
        _usage_error("--operator random-hodlr needs --n")
    H = hodlr.random_hodlr(args.n, k, stream(seed, 2))
    return linops.make_dense_operator(H.to_dense())


def _print_report(report, n):
    print(f"variant={report.variant} n={n}")
    for st in report.levels:
        err = "" if st.error is None else f" level_error={st.error:.6g}"
        print(
            f"  level {st.level}: forward={st.forward} transpose={st.transpose}"
            f" time={st.seconds:.3f}s{err}"
        )
    print(
        f"totals: forward={report.forward_total} transpose={report.transpose_total}"
        f" time={report.seconds:.3f}s"
    )
    if report.final_error is not None:
        print(f"final_error={report.final_error:.9g}")


def _cmd_approx(args):
    config = bench.preset_config(args.preset, args.k, args.beta, seed=args.seed)
    if args.variant and args.variant != config.variant:
        _usage_error(f"preset {args.preset} conflicts with --variant {args.variant}")
    op = _build_operator(args, args.k, args.seed)
    H, report = peel.run_peel(
        op,
        config,
        truncate=not args.no_truncate,
        allow_invalid=args.allow_invalid_config,
    )
    if op.n <= linops.DESK_SCALE_LIMIT:
        A = op.materialize()
        report.final_error = float(np.linalg.norm(A - H.to_dense()))
    if args.out:
        hodlr.save(H, args.out)
        print(f"wrote {args.out}")
    _print_report(report, op.n)
    return 0


def _cmd_recover(args):
    op = _build_operator(args, args.k, args.seed)
    try:
        H, report = peel.exact_recover(op, args.k, seed=args.seed)
    except peel.StructureViolationError as exc:
        print(f"structure violation: {exc}", file=sys.stderr)
        return 2
    if args.out:
        hodlr.save(H, args.out)
        print(f"wrote {args.out}")
    _print_report(report, op.n)
    return 0


def _int_list(text):
    return [int(v) for v in text.split(",") if v]


def _float_list(text):
    return [float(v) for v in text.split(",") if v]


def _cmd_bench(args):
    if args.experiment == "bound_checks" and args.trials is not None:
        _usage_error("--trials does not apply to bound_checks: each check has its own count")
    if args.experiment == "hard_block" and args.n:
        _usage_error("--n does not apply to hard_block: the instance fixes n = 8k")
    grid = {}
    if args.n:
        grid["n"] = _int_list(args.n)
        if args.experiment == "poisson":
            grid["t"] = [_poisson_side(n) for n in grid["n"]]
        if args.experiment == "exp_hard":
            for n in grid["n"]:
                _exp_hard_levels(n)
    if args.k:
        grid["k"] = _int_list(args.k)
    if args.experiment == "recovery":
        for n in grid.get("n", bench.RECOVERY_NS):
            for k in grid.get("k", bench.RECOVERY_KS):
                try:
                    hodlr.level_count(n, k)
                except hodlr.StructureError as exc:
                    _usage_error(f"recovery at n={n}, k={k}: {exc}")
    if args.beta:
        grid["beta"] = _float_list(args.beta)
    if args.preset:
        grid["preset"] = args.preset.split(",")
    if args.variant:
        grid["variant"] = args.variant.split(",")
    rows = bench.run_experiment(args.experiment, grid, trials=args.trials, seed=args.seed)
    out = args.out or f"{args.experiment}.csv"
    bench.emit(rows, out, fmt=args.format)
    settings = {"experiment": args.experiment, "trials": args.trials or "default",
                "seed": args.seed, "format": args.format, "out": out}
    settings.update({key: ",".join(map(str, val)) if isinstance(val, list) else val
                     for key, val in grid.items()})
    bench.write_config_stamp(f"{out}.config", args.experiment, settings)
    print(f"wrote {out} ({len(rows)} rows) and {out}.config")
    return 0


def _cmd_check_bounds(args):
    checks = bench.bound_checks(seed=args.seed)
    failed = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name}: measured={c.measured:.6g} limit={c.limit:.6g}"
              f" trials={c.trials} ({c.detail})")
        failed += 0 if c.passed else 1
    if args.out:
        bench.emit(bench.bound_rows(checks, args.seed), args.out, fmt="csv")
        print(f"wrote {args.out}")
    return 1 if failed else 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="hodlrpeel",
        description="HODLR approximation of black-box operators by randomized peeling",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ap = sub.add_parser("approx", help="approximate one operator")
    _add_operator_args(ap)
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--beta", type=float, default=0.5)
    ap.add_argument("--preset", default="GN1", choices=bench.PRESET_NAMES)
    ap.add_argument("--variant", choices=[peel.GENERALIZED_NYSTROM, peel.RSVD])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="write the HODLR container here")
    ap.add_argument("--no-truncate", action="store_true",
                    help="keep full sketch-rank factors (no HODLR(k) certificate)")
    ap.add_argument("--allow-invalid-config", action="store_true")
    ap.set_defaults(fn=_cmd_approx)

    rp = sub.add_parser("recover", help="exactly recover a HODLR(k) operator")
    _add_operator_args(rp)
    rp.add_argument("--k", type=int, required=True)
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument("--out")
    rp.set_defaults(fn=_cmd_recover)

    bp = sub.add_parser("bench", help="run an experiment grid")
    bp.add_argument("experiment", choices=[e for e in bench.EXPERIMENTS])
    bp.add_argument("--n", help="comma list of dimensions")
    bp.add_argument("--k", help="comma list of ranks")
    bp.add_argument("--beta", help="comma list of oversampling parameters")
    bp.add_argument("--preset", help="comma list of preset names")
    bp.add_argument("--variant", help="comma list of variants (recovery)")
    bp.add_argument("--trials", type=int)
    bp.add_argument("--seed", type=int, default=0)
    bp.add_argument("--out")
    bp.add_argument("--format", default="csv", choices=["csv", "plotdata"])
    bp.set_defaults(fn=_cmd_bench)

    cp = sub.add_parser("check-bounds", help="run the executable bound suites")
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--out", help="also dump the checks as CSV")
    cp.set_defaults(fn=_cmd_check_bounds)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
