"""Experiment harness: presets, error metrics, experiment grids, executable
bound checks, and CSV/plot-data output.

Validation of preset configs against the guarantee inequalities is advisory
here by default (several presets deliberately violate them; that is the point
of the failure-mode experiments).  Pass ``strict=True`` to hard-fail instead.
"""

import configparser
import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import hodlr, linops, lowrank, peel
from .rng import seed_sequence, stream

PRESET_NAMES = ("GN1", "GN2", "RSVD1", "RSVD2")

EXPERIMENTS = ("poisson", "kernel", "hard_block", "exp_hard", "recovery", "bound_checks")

RESULT_COLUMNS = (
    "experiment",
    "preset",
    "n",
    "k",
    "beta",
    "trial",
    "relative_error",
    "absolute_error",
    "forward_queries",
    "transpose_queries",
    "seed",
)


def preset_config(name, k, beta, seed=0) -> peel.PeelConfig:
    """Expand a named preset at rank k and oversampling beta.

    Fractional widths are rounded up (sketch widths are integers and ceiling
    preserves the guarantee direction).
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    s_R = math.ceil(k / beta)
    inv = math.ceil(1.0 / beta)
    if name == "GN1":
        return peel.PeelConfig(
            k=k, s_R=s_R, t_R=1, s_L=math.ceil(k / beta**2), t_L=1,
            variant=peel.GENERALIZED_NYSTROM, seed=seed, beta=beta,
        )
    if name == "GN2":
        return peel.PeelConfig(
            k=k, s_R=s_R, t_R=inv, s_L=math.ceil(k / beta**2), t_L=1,
            variant=peel.GENERALIZED_NYSTROM, seed=seed, beta=beta,
        )
    if name == "RSVD1":
        return peel.PeelConfig(
            k=k, s_R=s_R, t_R=1, t_L=1, variant=peel.RSVD, seed=seed, beta=beta,
        )
    return peel.PeelConfig(
        k=k, s_R=s_R, t_R=inv, t_L=inv, variant=peel.RSVD, seed=seed, beta=beta,
    )


def relative_error(err_abs: float, opt_abs: float) -> float:
    """Smallest epsilon for which the approximation is (1+epsilon)-optimal:
    err/opt - 1.  Zero optimum with nonzero error reports infinity."""
    if err_abs < 0 or opt_abs < 0:
        raise ValueError("error norms are nonnegative")
    if opt_abs == 0.0:
        return 0.0 if err_abs == 0.0 else math.inf
    return err_abs / opt_abs - 1.0


@dataclass
class ExperimentRow:
    experiment: str
    preset: str
    n: int
    k: int
    beta: float
    trial: int
    relative_error: float
    absolute_error: float
    forward_queries: int
    transpose_queries: int
    seed: int

    def astuple(self):
        return tuple(getattr(self, c) for c in RESULT_COLUMNS)


@dataclass
class ExperimentResult:
    rows: list = field(default_factory=list)

    def extend(self, rows):
        self.rows.extend(rows)


def _trial_seed(root_seed, *key) -> int:
    return int(seed_sequence(root_seed, *key).generate_state(1)[0])


def _run_cell(op, A, opt, config, experiment, preset_name, trials, root_seed, cell):
    """Run one grid cell for the requested trials and return its rows."""
    rows = []
    for trial in range(trials):
        ts = _trial_seed(root_seed, cell, trial)
        cfg = peel.PeelConfig(
            k=config.k, s_R=config.s_R, t_R=config.t_R, s_L=config.s_L,
            t_L=config.t_L, variant=config.variant, seed=ts, beta=config.beta,
        )
        f0, r0 = op.counter.snapshot()
        H, report = peel.run_peel(op, cfg, allow_invalid=True)
        f1, r1 = op.counter.snapshot()
        err = float(np.linalg.norm(A - H.to_dense()))
        rows.append(
            ExperimentRow(
                experiment=experiment,
                preset=preset_name,
                n=op.n,
                k=config.k,
                beta=config.beta if config.beta is not None else 0.0,
                trial=trial,
                relative_error=relative_error(err, opt),
                absolute_error=err,
                forward_queries=f1 - f0,
                transpose_queries=r1 - r0,
                seed=ts,
            )
        )
    return rows


def _opt_error(A, k) -> float:
    """Frobenius error of the best HODLR(k) approximation of A (the oracle)."""
    return float(np.linalg.norm(A - hodlr.best_hodlr(A, k).to_dense()))


def run_experiment(name, grid=None, trials=None, seed=0) -> ExperimentResult:
    """Run a named experiment over its parameter grid.

    ``grid`` overrides the per-experiment defaults key by key; every cell
    draws its trial seeds from a stream keyed by (seed, cell, trial).
    """
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    grid = dict(grid or {})
    result = ExperimentResult()
    if name == "bound_checks":
        checks = bound_checks(seed=seed, trials=trials)
        result.extend(_bound_rows(checks, seed))
        return result
    runner = {
        "poisson": _poisson_rows,
        "kernel": _kernel_rows,
        "hard_block": _hard_block_rows,
        "exp_hard": _exp_hard_rows,
        "recovery": _recovery_rows,
    }[name]
    result.extend(runner(grid, trials, seed))
    return result


def _poisson_rows(grid, trials, seed):
    trials = trials or 20
    ts = grid.get("t", [32])
    ks = grid.get("k", [8])
    betas = grid.get("beta", [1.0, 0.5, 0.25, 0.125])
    presets = grid.get("preset", ["GN1", "RSVD1"])
    rows, cell = [], 0
    for t in ts:
        op = linops.make_poisson_operator(t)
        A = op.materialize()
        for k in ks:
            opt = _opt_error(A, k)
            for beta in betas:
                for pname in presets:
                    cfg = preset_config(pname, k, beta)
                    rows += _run_cell(op, A, opt, cfg, "poisson", pname, trials, seed, cell)
                    cell += 1
    return rows


def _kernel_rows(grid, trials, seed):
    trials = trials or 5
    ns = grid.get("n", [256])
    ks = grid.get("k", [2, 4, 6, 8])
    betas = grid.get("beta", [0.25])
    presets = grid.get("preset", ["GN1"])
    rows, cell = [], 0
    for n in ns:
        pts = linops.helix_points(n, stream(seed, 10_000 + n))
        op = linops.make_kernel_operator(pts)
        A = op.materialize()
        for k in ks:
            opt = _opt_error(A, k)
            for beta in betas:
                for pname in presets:
                    cfg = preset_config(pname, k, beta)
                    rows += _run_cell(op, A, opt, cfg, "kernel", pname, trials, seed, cell)
                    cell += 1
    return rows


def _hard_block_rows(grid, trials, seed):
    trials = trials or 20
    ks = grid.get("k", [1])
    eta = grid.get("eta", 1e8)
    betas = grid.get("beta", [0.25])
    presets = grid.get("preset", ["RSVD1", "GN1"])
    rows, cell = [], 0
    for k in ks:
        op = linops.make_hard_block_instance(k, eta)
        A = op.materialize()
        opt = _opt_error(A, k)
        for beta in betas:
            for pname in presets:
                cfg = preset_config(pname, k, beta)
                rows += _run_cell(op, A, opt, cfg, "hard_block", pname, trials, seed, cell)
                cell += 1
    return rows


def _exp_hard_rows(grid, trials, seed):
    trials = trials or 20
    ns = grid.get("n", [2**m for m in range(4, 11)])
    eta = grid.get("eta", 1e8)
    betas = grid.get("beta", [0.5])
    presets = grid.get("preset", ["RSVD1", "GN2", "RSVD2"])
    rows, cell = [], 0
    for n in ns:
        L = int(math.log2(n))
        op = linops.make_exp_hard_instance(L, eta)
        A = op.materialize()
        opt = _opt_error(A, 1)
        for beta in betas:
            for pname in presets:
                cfg = preset_config(pname, 1, beta)
                rows += _run_cell(op, A, opt, cfg, "exp_hard", pname, trials, seed, cell)
                cell += 1
    return rows


def _recovery_rows(grid, trials, seed):
    trials = trials or 5
    ns = grid.get("n", [128, 256])
    ks = grid.get("k", [2, 4])
    variants = grid.get("variant", [peel.GENERALIZED_NYSTROM, peel.RSVD])
    rows, cell = [], 0
    for n in ns:
        for k in ks:
            H0 = hodlr.random_hodlr(n, k, stream(seed, 20_000 + n, k))
            A = H0.to_dense()
            op = linops.make_dense_operator(A)
            scale = float(np.linalg.norm(A))
            for variant in variants:
                for trial in range(trials):
                    ts = _trial_seed(seed, cell, trial)
                    cfg_t = peel.exact_config(k, variant, seed=ts)
                    f0, r0 = op.counter.snapshot()
                    H, _ = peel.run_peel(op, cfg_t)
                    f1, r1 = op.counter.snapshot()
                    err = float(np.linalg.norm(A - H.to_dense()))
                    rows.append(
                        ExperimentRow(
                            experiment="recovery",
                            preset=variant,
                            n=n,
                            k=k,
                            beta=0.0,
                            trial=trial,
                            # exact-recovery runs report error relative to the
                            # matrix scale (the optimum is zero)
                            relative_error=err / scale,
                            absolute_error=err,
                            forward_queries=f1 - f0,
                            transpose_queries=r1 - r0,
                            seed=ts,
                        )
                    )
                cell += 1
    return rows


# Executable bound checks ----------------------------------------------------

@dataclass
class BoundCheck:
    name: str
    passed: bool
    measured: float
    limit: float
    trials: int
    detail: str = ""


def check_projection_perturbation(seed=0, trials=200) -> BoundCheck:
    """Pointwise inequality for sketched projection under matvec noise: on
    every random instance the realized error must sit under the evaluated
    right-hand side (deterministic bound, no expectation)."""
    rng = stream(seed, 31)
    worst = -math.inf
    for _ in range(trials):
        m1 = int(rng.integers(6, 31))
        m2 = int(rng.integers(6, 31))
        k = int(rng.integers(1, min(6, m1, m2)))
        s = int(rng.integers(k, min(m1, m2) + 1))
        B = rng.standard_normal((m1, m2))
        Omega = rng.standard_normal((m2, s))
        E1 = 0.5 * rng.standard_normal((m1, s))
        Q = lowrank.orth(B @ Omega + E1)
        E2 = 0.5 * rng.standard_normal((Q.shape[1], m2))
        approx = Q @ lowrank.truncated_svd(Q.T @ B + E2, k).dense()
        lhs = float(np.linalg.norm(B - approx))
        rhs = lowrank.rsvd_perturb_bound_rhs(B, Omega, E1, E2, k)
        worst = max(worst, lhs - rhs)
    return BoundCheck(
        name="projection_perturbation_pointwise",
        passed=worst <= 1e-10,
        measured=worst,
        limit=1e-10,
        trials=trials,
        detail="max over instances of (realized error - bound)",
    )


def check_gn_expected_error(seed=0, trials=1000) -> BoundCheck:
    """Monte-Carlo mean of the squared generalized Nystrom error under the
    structured noise model must sit under the expected-error bound plus
    three standard errors."""
    rng = stream(seed, 32)
    k, s_R, s_L = 2, 8, 24
    m = 20
    U = lowrank.orth(rng.standard_normal((m, m)))
    V = lowrank.orth(rng.standard_normal((m, m)))
    s = 2.0 ** -np.arange(m, dtype=float)
    B = U @ (s[:, None] * V.T)
    noise = lowrank.NoiseModel(
        M=0.1 * rng.standard_normal((m, 5)), N=0.1 * rng.standard_normal((6, m))
    )
    opt2 = float(np.sum(s[k:] ** 2))
    bound = lowrank.gn_error_bound(
        k, s_R, s_L,
        float(np.linalg.norm(noise.M) ** 2),
        float(np.linalg.norm(noise.N) ** 2),
        opt2,
    )
    errs = np.empty(trials)
    for i in range(trials):
        Omega = rng.standard_normal((m, s_R))
        Psi = rng.standard_normal((m, s_L))
        E1, F = noise.draw(rng, s_R, s_L)
        Q = lowrank.orth(B @ Omega + E1)
        X = lowrank.pinv_solve(Psi.T @ Q, Psi.T @ B + F)
        approx = Q @ lowrank.truncated_svd(X, k).dense()
        errs[i] = np.linalg.norm(B - approx) ** 2
    mean = float(errs.mean())
    se = float(errs.std(ddof=1) / math.sqrt(trials))
    return BoundCheck(
        name="gn_expected_error_bound",
        passed=mean <= bound + 3 * se,
        measured=mean,
        limit=bound + 3 * se,
        trials=trials,
        detail=f"bound={bound:.6g}, stderr={se:.3g}",
    )


def check_gaussian_pinv_moment(seed=0, trials=20000) -> BoundCheck:
    """E ||X G H^+||_F^2 = p/(q-p-1) ||X||_F^2 for independent Gaussians
    G (v x q), H (p x q); sample mean must land within 5%."""
    rng = stream(seed, 33)
    p, q = 2, 8
    X = rng.standard_normal((3, 6))
    target = p / (q - p - 1) * float(np.linalg.norm(X) ** 2)
    G = rng.standard_normal((trials, 6, q))
    H = rng.standard_normal((trials, p, q))
    vals = np.linalg.norm(np.matmul(X @ G, np.linalg.pinv(H)), axis=(1, 2)) ** 2
    mean = float(vals.mean())
    return BoundCheck(
        name="gaussian_pinv_second_moment",
        passed=abs(mean - target) <= 0.05 * target,
        measured=mean,
        limit=target,
        trials=trials,
        detail="limit column holds the exact expectation; tolerance 5%",
    )


def bound_checks(seed=0, trials=None) -> list:
    t = trials or {}
    if isinstance(t, int):
        t = {}
    return [
        check_projection_perturbation(seed, t.get("pointwise", 200)),
        check_gn_expected_error(seed, t.get("expectation", 1000)),
        check_gaussian_pinv_moment(seed, t.get("moment", 20000)),
    ]


def _bound_rows(checks, seed):
    rows = []
    for i, c in enumerate(checks):
        rows.append(
            ExperimentRow(
                experiment="bound_checks",
                preset=c.name,
                n=0,
                k=0,
                beta=0.0,
                trial=c.trials,
                relative_error=(c.measured / c.limit) if c.limit else math.inf,
                absolute_error=c.measured,
                forward_queries=0,
                transpose_queries=0,
                seed=seed,
            )
        )
    return rows


# Output ---------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def emit(result: ExperimentResult, path, fmt="csv") -> None:
    """Write results as a flat CSV or as per-curve aggregated series files."""
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(RESULT_COLUMNS)
        for row in result.rows:
            w.writerow([_fmt(v) for v in row.astuple()])
        with open(path, "w", newline="") as fh:
            fh.write(buf.getvalue())
        return
    if fmt != "plotdata":
        raise ValueError(f"unknown format {fmt!r}")
    os.makedirs(path, exist_ok=True)
    curves = {}
    for row in result.rows:
        curves.setdefault((row.experiment, row.preset, row.k), {}).setdefault(
            (row.n, row.beta), []
        ).append(row)
    for (exp, pre, k), series in sorted(curves.items()):
        fname = os.path.join(path, f"{exp}__{pre}__k{k}.csv")
        with open(fname, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["n", "beta", "mean_relative_error", "mean_absolute_error", "trials"])
            for (n, beta), rows in sorted(series.items()):
                rel = float(np.mean([r.relative_error for r in rows]))
                ab = float(np.mean([r.absolute_error for r in rows]))
                w.writerow([_fmt(n), _fmt(beta), _fmt(rel), _fmt(ab), len(rows)])


def write_config_stamp(path, experiment, settings: dict) -> None:
    """Reproducibility stamp: the fully resolved settings of a run, as
    sectioned key-value text next to the output file."""
    cp = configparser.ConfigParser()
    cp[experiment] = {key: _fmt(val) for key, val in sorted(settings.items())}
    with open(path, "w") as fh:
        cp.write(fh)


def load_config(path) -> dict:
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    return {sec: dict(cp[sec]) for sec in cp.sections()}
