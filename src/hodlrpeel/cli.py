"""Command-line interface.

Subcommands:
  approx        one operator -> HODLR file + report summary
  recover       exact recovery of an operator promised to be HODLR(k)
  bench <name>  experiment grids -> CSV (plus a resolved-config stamp)
  check-bounds  executable bound suites; exit code 1 on any failure
"""

import argparse
import os
import sys
from contextlib import contextmanager

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


@contextmanager
def _writing(path):
    """An output file that cannot be written is a usage error naming it."""
    try:
        yield
    except OSError as exc:
        _usage_error(f"cannot write {exc.filename or path}: {exc.strerror or exc}")


def _seed(text):
    """A --seed value: a non-negative integer, as the random streams need."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _build_operator(args, k, seed):
    """The operator the arguments name; a usage error when it cannot be built
    or has no HODLR(k) layout."""
    try:
        op = _make_operator(args, k, seed)
        hodlr.level_count(op.n, k)
    except (linops.DimensionError, hodlr.StructureError) as exc:
        _usage_error(f"--operator {args.operator}: {exc}")
    except OSError as exc:  # the --in or --points file cannot be read
        path = args.infile if args.operator == "dense" else args.points
        reason = exc.strerror or "not found"
        _usage_error(f"--operator {args.operator}: cannot read {path}: {reason}")
    return op


def _make_operator(args, k, seed):
    name = args.operator
    if name == "dense":
        if not args.infile:
            _usage_error("--operator dense needs --in FILE")
        return linops.make_dense_operator(linops.load_dense_csv(args.infile))
    if name == "poisson":
        if not args.n:
            _usage_error("--operator poisson needs --n (a perfect square)")
        return bench.poisson_operator(args.n)
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
        return bench.exp_hard_operator(args.n, args.eta)
    if not args.n:
        _usage_error("--operator random-hodlr needs --n")
    if args.n > linops.DESK_SCALE_LIMIT:  # held densely; refused before any draw
        raise linops.DimensionError(
            f"n={args.n} is above DESK_SCALE_LIMIT = {linops.DESK_SCALE_LIMIT}"
        )
    H = hodlr.random_hodlr(args.n, k, stream(seed, 2))
    return linops.make_dense_operator(H.to_dense())


def _print_report(report, n, final_error=None):
    print(f"variant={report.variant} n={n}")
    for st in report.levels:
        print(
            f"  level {st.level}: forward={st.forward} transpose={st.transpose}"
            f" time={st.seconds:.3f}s"
        )
    print(
        f"totals: forward={report.forward_total} transpose={report.transpose_total}"
        f" time={report.seconds:.3f}s"
    )
    if final_error is not None:
        print(f"final_error={final_error:.9g}")


def _cmd_approx(args):
    stated = f"--preset {args.preset} --k {args.k} --beta {args.beta}"
    try:
        config = bench.preset_config(args.preset, args.k, args.beta, seed=args.seed)
    except ValueError as exc:  # ConfigError included
        _usage_error(f"{stated}: {exc}")
    op = _build_operator(args, args.k, args.seed)
    try:
        H, report = peel.run_peel(op, config, truncate=not args.no_truncate,
                                  allow_invalid=args.allow_invalid_config)
    except peel.ConfigError as exc:
        _usage_error(f"{stated} {exc}; pass --allow-invalid-config to run it anyway")
    except linops.NonFiniteOutputError as exc:
        _usage_error(str(exc))
    final_error = (float(np.linalg.norm(op.materialize() - H.to_dense()))
                   if op.n <= linops.DESK_SCALE_LIMIT else None)
    if args.out:
        with _writing(args.out):
            hodlr.save(H, args.out)
        print(f"wrote {args.out}")
    _print_report(report, op.n, final_error)
    return 0


def _cmd_recover(args):
    op = _build_operator(args, args.k, args.seed)
    try:
        H, report = peel.exact_recover(op, args.k, seed=args.seed)
    except peel.StructureViolationError as exc:
        print(f"structure violation: {exc}", file=sys.stderr)
        return 2
    except linops.NonFiniteOutputError as exc:
        _usage_error(str(exc))
    if args.out:
        with _writing(args.out):
            hodlr.save(H, args.out)
        print(f"wrote {args.out}")
    _print_report(report, op.n)
    return 0


def _int_list(text):
    return [int(v) for v in text.split(",") if v]


def _float_list(text):
    return [float(v) for v in text.split(",") if v]


def _str_list(text):
    return text.split(",")


# The `bench` options that set a grid axis, each to a comma list.
_GRID_AXES = ("n", "k", "beta", "preset", "variant")


def _cmd_bench(args):
    grid = {key: getattr(args, key) for key in _GRID_AXES if getattr(args, key)}
    try:
        rows = bench.run_experiment(args.experiment, grid, trials=args.trials, seed=args.seed)
    except bench.GridError as exc:
        _usage_error(str(exc))
    out = args.out or args.experiment + (".csv" if args.format == "csv" else "")
    settings = {"experiment": args.experiment, "trials": args.trials or "default",
                "seed": args.seed, "format": args.format, "out": out}
    settings.update({key: ",".join(map(str, val)) for key, val in grid.items()})
    # Next to the output, also when a plotdata directory is named as "dir/".
    stamp = out.rstrip(os.sep) + ".config"
    with _writing(out):
        bench.emit(rows, out, fmt=args.format)
        bench.write_config_stamp(stamp, args.experiment, settings)
    print(f"wrote {out} ({len(rows)} rows) and {stamp}")
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
        with _writing(args.out):
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
    ap.add_argument("--preset", default="GN1", choices=bench.PRESETS)
    ap.add_argument("--seed", type=_seed, default=0)
    ap.add_argument("--out", help="write the HODLR container here")
    ap.add_argument("--no-truncate", action="store_true",
                    help="keep full sketch-rank factors (no HODLR(k) certificate)")
    ap.add_argument("--allow-invalid-config", action="store_true")
    ap.set_defaults(fn=_cmd_approx)

    rp = sub.add_parser("recover", help="exactly recover a HODLR(k) operator")
    _add_operator_args(rp)
    rp.add_argument("--k", type=int, required=True)
    rp.add_argument("--seed", type=_seed, default=0)
    rp.add_argument("--out")
    rp.set_defaults(fn=_cmd_recover)

    bp = sub.add_parser("bench", help="run an experiment grid")
    bp.add_argument("experiment", choices=bench.EXPERIMENTS)
    bp.add_argument("--n", type=_int_list, help="comma list of dimensions")
    bp.add_argument("--k", type=_int_list, help="comma list of ranks")
    bp.add_argument("--beta", type=_float_list, help="comma list of oversampling parameters")
    bp.add_argument("--preset", type=_str_list, help="comma list of preset names")
    bp.add_argument("--variant", type=_str_list, help="comma list of variants (recovery)")
    bp.add_argument("--trials", type=int)
    bp.add_argument("--seed", type=_seed, default=0)
    bp.add_argument("--out")
    bp.add_argument("--format", default="csv", choices=["csv", "plotdata"])
    bp.set_defaults(fn=_cmd_bench)

    cp = sub.add_parser("check-bounds", help="run the executable bound suites")
    cp.add_argument("--seed", type=_seed, default=0)
    cp.add_argument("--out", help="also dump the checks as CSV")
    cp.set_defaults(fn=_cmd_check_bounds)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
