"""Experiment harness: presets, error metrics, the experiment table,
executable bound checks, and CSV/plot-data output.

Every experiment is one ``GRID_EXPERIMENTS`` entry (operator factory and
default grid) run by ``run_experiment``; ``bound_checks`` is no grid.  The
peels skip validation of preset configs against the guarantee inequalities:
several presets deliberately violate them; that is the point of the
failure-mode experiments.
"""

import configparser
import csv
import io
import itertools
import math
import numbers
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import hodlr, linops, lowrank, peel
from .rng import seed_sequence, stream

# Preset name -> (variant, whether t_R = ceil(1/beta), whether t_L = ceil(1/beta));
# a repetition count not so set is 1, and ``preset_config`` sets the widths.
PRESETS = {
    "GN1": (peel.GENERALIZED_NYSTROM, False, False),
    "GN2": (peel.GENERALIZED_NYSTROM, True, False),
    "RSVD1": (peel.RSVD, False, False),
    "RSVD2": (peel.RSVD, True, True),
}


def preset_config(name, k, beta, seed=0) -> peel.PeelConfig:
    """Expand a named preset at rank k and oversampling beta: s_R = ceil(k/beta)
    and generalized Nystrom s_L = ceil(k/beta^2) (rsvd inherits s_L = s_R).

    Fractional widths are rounded up (sketch widths are integers and ceiling
    preserves the guarantee direction).
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be a positive finite number, got {beta}")
    try:  # beta**2 underflows to 0, or overflows, at extreme beta
        s_R, s_L, inv = math.ceil(k / beta), math.ceil(k / beta**2), math.ceil(1.0 / beta)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"beta must give finite widths k/beta and k/beta**2, got {beta}") from None
    variant, perforated_R, perforated_L = PRESETS[name]
    return peel.PeelConfig(
        k=k, s_R=s_R, t_R=inv if perforated_R else 1,
        s_L=s_L if variant == peel.GENERALIZED_NYSTROM else None,
        t_L=inv if perforated_L else 1, variant=variant, seed=seed, beta=beta,
    )


def relative_error(err_abs: float, opt_abs: float) -> float:
    """Smallest epsilon for which the approximation is (1+epsilon)-optimal:
    err/opt - 1.  Zero optimum with nonzero error reports infinity."""
    if err_abs < 0 or opt_abs < 0:
        raise ValueError("error norms are nonnegative")
    if opt_abs == 0.0:
        return 0.0 if err_abs == 0.0 else math.inf
    return err_abs / opt_abs - 1.0


class ExperimentRow(NamedTuple):
    """One CSV row; its fields are the columns, in order."""

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


RESULT_COLUMNS = ExperimentRow._fields


def _trial_seed(root_seed, *key) -> int:
    return int(seed_sequence(root_seed, *key).generate_state(1)[0])


class GridError(ValueError):
    """An experiment grid that cannot run: an axis the experiment does not
    have, or a cell with no operator, no HODLR layout or no config, or
    above the dense limit its errors are measured at."""


# Scale of the two hard instances; no grid axis sets it.
HARD_INSTANCE_ETA = 1e8


def poisson_operator(n) -> linops.LinearOperator:
    """The Poisson operator on a t-by-t grid with n = t^2 unknowns."""
    t = math.isqrt(max(n, 0))
    if t * t != n:
        raise linops.DimensionError(f"poisson dimension must be a square, got {n}")
    return linops.make_poisson_operator(t)


def exp_hard_operator(n, eta=HARD_INSTANCE_ETA) -> linops.LinearOperator:
    """The exp-hard instance with n = 2^L."""
    if n < 1 or n & (n - 1):
        raise linops.DimensionError(f"exp-hard dimension must be a power of two, got {n}")
    return linops.make_exp_hard_instance(int(n).bit_length() - 1, eta)


def _kernel_operator(n, k, seed):
    return linops.make_kernel_operator(linops.helix_points(n, stream(seed, 10_000 + n)))


def _recovery_operator(n, k, seed):
    H = hodlr.random_hodlr(n, k, stream(seed, 20_000 + n, k))
    return linops.make_dense_operator(H.to_dense())


class Experiment(NamedTuple):
    """A grid experiment.  ``operator(n, k, seed)`` builds the operator of an
    (n, k) cell; ``grid`` holds the defaults of exactly the axes the
    experiment sweeps, ``fixed`` the value of an operator axis (n or k) it
    does not sweep, and ``trials`` the default trial count per cell."""

    operator: Callable
    grid: dict
    fixed: dict
    trials: int


GRID_EXPERIMENTS = {
    "poisson": Experiment(
        lambda n, k, seed: poisson_operator(n),
        {"n": [1024], "k": [8], "beta": [1.0, 0.5, 0.25, 0.125], "preset": ["GN1", "RSVD1"]},
        {}, 20,
    ),
    "kernel": Experiment(
        _kernel_operator,
        {"n": [256], "k": [2, 4, 6, 8], "beta": [0.25], "preset": ["GN1"]},
        {}, 5,
    ),
    "hard_block": Experiment(
        lambda n, k, seed: linops.make_hard_block_instance(k, HARD_INSTANCE_ETA),
        {"k": [1], "beta": [0.25], "preset": ["RSVD1", "GN1"]},
        {"n": "8k"}, 20,
    ),
    "exp_hard": Experiment(
        lambda n, k, seed: exp_hard_operator(n),
        {"n": [2**m for m in range(4, 11)], "beta": [0.5], "preset": ["RSVD1", "GN2", "RSVD2"]},
        {"k": 1}, 20,
    ),
    "recovery": Experiment(
        _recovery_operator,
        {"n": [128, 256], "k": [2, 4], "variant": [peel.GENERALIZED_NYSTROM, peel.RSVD]},
        {}, 5,
    ),
}

def _cell_configs(cells, k) -> list:
    """(config, preset column) of each cell at rank k, in grid order: the
    preset grids expand every (beta, preset), recovery takes the
    ``exact_config`` of every variant."""
    if "variant" in cells:
        return [(peel.exact_config(k, v), v) for v in cells["variant"]]
    return [(preset_config(p, k, b), p) for b in cells["beta"] for p in cells["preset"]]


def _checked_cells(name, grid, seed) -> dict:
    """Every axis of experiment ``name`` with ``grid`` overriding its
    defaults, after building the configs and, within the dense limit, the
    operator of every (n, k) cell; raises GridError before anything runs."""
    spec = GRID_EXPERIMENTS[name]
    for key in grid:
        if key not in spec.grid:
            why = (f"the instance fixes {key} = {spec.fixed[key]}" if key in spec.fixed
                   else f"its axes are {', '.join(spec.grid)}")
            raise GridError(f"--{key} does not apply to {name}: {why}")
    cells = {**{key: [v] for key, v in spec.fixed.items()}, **spec.grid, **grid}
    for n, k in itertools.product(cells["n"], cells["k"]):
        try:
            # Errors are taken densely, so a cell above the limit is refused.
            size = spec.operator(n, k, seed).n
            linops.refuse_dense(size, f"{name} at n={n}, k={k}")
            hodlr.level_count(size, k)
            _cell_configs(cells, k)
        except linops.DimensionError as exc:  # the size rules name their operator
            raise GridError(str(exc)) from None
        except ValueError as exc:  # no HODLR layout, or no config at rank k
            raise GridError(f"{name} at n={n}, k={k}: {exc}") from None
    return cells


def _run_cell(name, op, A, config, preset, rel_error, trials, root_seed, cell):
    """Run one grid cell for the requested trials and return its rows;
    ``rel_error`` maps a trial's Frobenius error to its relative error."""
    rows = []
    for trial in range(trials):
        ts = _trial_seed(root_seed, cell, trial)
        f0, r0 = op.counter.snapshot()
        H, _ = peel.run_peel(op, replace(config, seed=ts), allow_invalid=True)
        f1, r1 = op.counter.snapshot()
        err = float(np.linalg.norm(A - H.to_dense()))
        rows.append(
            ExperimentRow(
                experiment=name,
                preset=preset,
                n=op.n,
                k=config.k,
                beta=config.beta if config.beta is not None else 0.0,
                trial=trial,
                relative_error=rel_error(err),
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


def run_experiment(name, grid=None, trials=None, seed=0) -> list:
    """Run a named experiment over its parameter grid; returns its
    ExperimentRows.

    ``grid`` overrides the defaults of ``GRID_EXPERIMENTS[name]`` axis by
    axis, and the whole grid is checked before the first peel (GridError).
    Cells are (n, k) x configs in grid order; every cell draws its trial
    seeds from a stream keyed by (seed, cell, trial).  ``trials`` is the
    trial count of every cell, an integer, or None for the experiment's
    default.
    """
    if name not in GRID_EXPERIMENTS:
        raise GridError(f"unknown experiment {name!r}; choose from {', '.join(GRID_EXPERIMENTS)}")
    if trials is not None and not (isinstance(trials, numbers.Integral) and trials >= 1):
        raise GridError(f"--trials must be an integer of at least 1, got {trials!r}")
    spec, cells = GRID_EXPERIMENTS[name], _checked_cells(name, grid or {}, seed)
    trials = spec.trials if trials is None else trials
    rows, cell = [], 0
    for n, k in itertools.product(cells["n"], cells["k"]):
        op = spec.operator(n, k, seed)
        A = op.materialize()
        if "variant" in cells:  # exact recovery: the optimum is zero
            scale = float(np.linalg.norm(A))
            rel_error = lambda err: err / scale
        else:
            rel_error = partial(relative_error, opt_abs=_opt_error(A, k))
        for config, preset in _cell_configs(cells, k):
            rows += _run_cell(name, op, A, config, preset, rel_error, trials, seed, cell)
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
        approx = lowrank.truncate_factor(Q, Q.T @ B + E2, k).dense()
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
        approx = lowrank.gn_from_sketches(B @ Omega + E1, Psi.T @ B + F, Psi, k).dense()
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
    """Run the three bound checks.  ``trials`` optionally maps "pointwise",
    "expectation" and "moment" to a check's trial count; each check has its
    own default, so one count for all of them is rejected."""
    if trials is not None and not isinstance(trials, dict):
        raise ValueError(f"bound_checks takes per-check trial counts as a dict, got {trials!r}")
    t = trials or {}
    return [
        check_projection_perturbation(seed, t.get("pointwise", 200)),
        check_gn_expected_error(seed, t.get("expectation", 1000)),
        check_gaussian_pinv_moment(seed, t.get("moment", 20000)),
    ]


def bound_rows(checks, seed) -> list:
    """Bound checks as ExperimentRows: ``trial`` holds a check's trial count,
    ``relative_error`` measured/limit and ``absolute_error`` the measured
    value."""
    return [
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
        for c in checks
    ]


# Output ---------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def emit(rows, path, fmt="csv") -> None:
    """Write ExperimentRows as a flat CSV or as per-curve aggregated series
    files."""
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(RESULT_COLUMNS)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
        with open(path, "w", newline="") as fh:
            fh.write(buf.getvalue())
        return
    if fmt != "plotdata":
        raise ValueError(f"unknown format {fmt!r}")
    os.makedirs(path, exist_ok=True)
    curves = {}
    for row in rows:
        curves.setdefault((row.experiment, row.preset, row.k), {}).setdefault(
            (row.n, row.beta), []
        ).append(row)
    for (exp, pre, k), series in sorted(curves.items()):
        fname = os.path.join(path, f"{exp}__{pre}__k{k}.csv")
        with open(fname, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["n", "beta", "mean_relative_error", "mean_absolute_error", "trials"])
            for (n, beta), cell in sorted(series.items()):
                rel = float(np.mean([r.relative_error for r in cell]))
                ab = float(np.mean([r.absolute_error for r in cell]))
                w.writerow([_fmt(n), _fmt(beta), _fmt(rel), _fmt(ab), len(cell)])


def write_config_stamp(path, experiment, settings: dict) -> None:
    """Reproducibility stamp: the fully resolved settings of a run, as
    sectioned key-value text next to the output file, read without interpolation."""
    cp = configparser.ConfigParser(interpolation=None)
    cp[experiment] = {key: _fmt(val) for key, val in sorted(settings.items())}
    with open(path, "w") as fh:
        cp.write(fh)
