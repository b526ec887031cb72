import math
import re

import numpy as np
import pytest

from hodlrpeel import bench, linops, peel
from hodlrpeel.bench import (
    emit,
    preset_config,
    relative_error,
    run_experiment,
    write_config_stamp,
)
from hodlrpeel.rng import stream

from helpers import load_config


# relative_error ---------------------------------------------------------------

def test_relative_error_basics():
    assert relative_error(1.0, 1.0) == 0.0
    assert relative_error(2.0, 1.0) == 1.0
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1.0, 0.0) == math.inf
    with pytest.raises(ValueError):
        relative_error(-1.0, 1.0)


def test_relative_error_hard_block_limit_value():
    # truncated-RSVD limit on the adversarial block instance:
    # err = sqrt(8), opt = sqrt(4) -> epsilon = sqrt(2) - 1
    eps = relative_error(math.sqrt(8.0), math.sqrt(4.0))
    assert math.isclose(eps, math.sqrt(2.0) - 1.0, rel_tol=1e-12)


# presets ------------------------------------------------------------------------

def test_preset_expansion_matches_table_rules():
    rng = stream(30, 0)
    for _ in range(20):
        k = int(rng.integers(1, 9))
        beta = float(rng.uniform(0.05, 1.0))
        s_R = math.ceil(k / beta)
        inv = math.ceil(1.0 / beta)
        g1 = preset_config("GN1", k, beta)
        assert (g1.s_R, g1.t_R, g1.s_L, g1.t_L) == (s_R, 1, math.ceil(k / beta**2), 1)
        assert g1.variant == peel.GENERALIZED_NYSTROM
        g2 = preset_config("GN2", k, beta)
        assert (g2.s_R, g2.t_R, g2.s_L, g2.t_L) == (s_R, inv, math.ceil(k / beta**2), 1)
        r1 = preset_config("RSVD1", k, beta)
        assert (r1.s_R, r1.t_R, r1.s_L, r1.t_L) == (s_R, 1, s_R, 1)
        assert r1.variant == peel.RSVD
        r2 = preset_config("RSVD2", k, beta)
        assert (r2.s_R, r2.t_R, r2.s_L, r2.t_L) == (s_R, inv, s_R, inv)


@pytest.mark.parametrize("beta", [1e-300, 1e-160, 1e200])
@pytest.mark.parametrize("name", ["GN1", "GN2", "RSVD1", "RSVD2"])
def test_preset_rejects_beta_with_non_finite_widths(name, beta):
    # beta**2 underflows to 0 (a ZeroDivisionError), makes k / beta**2
    # infinite (an OverflowError from ceil) or overflows itself
    message = f"beta must give finite widths k/beta and k/beta**2, got {beta}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        preset_config(name, 4, beta)


def test_preset_rejects_unknown_name():
    with pytest.raises(ValueError):
        preset_config("GN3", 2, 0.5)


# experiments ----------------------------------------------------------------------

def test_recovery_experiment_rows():
    rows = run_experiment("recovery", {"n": [128], "k": [2]}, trials=3, seed=0)
    assert len(rows) == 6  # two variants x three trials
    for row in rows:
        assert row.experiment == "recovery"
        # minimal forward budget s_R = k; GN regresses against s_L = 2k + 2
        s_L = 6 if row.preset == peel.GENERALIZED_NYSTROM else 2
        cfg = peel.PeelConfig(k=2, s_R=2, s_L=s_L, variant=row.preset)
        assert (row.forward_queries, row.transpose_queries) == peel.expected_queries(
            cfg, 128
        )
        assert row.forward_queries == 2 * 6 * 2
        assert row.relative_error <= 1e-6
        assert row.absolute_error >= 0


def test_hard_block_experiment_counts_and_errors():
    rows = run_experiment(
        "hard_block", {"k": [1], "beta": [0.25], "preset": ["RSVD1"]},
        trials=4, seed=1,
    )
    assert len(rows) == 4
    for row in rows:
        cfg = preset_config("RSVD1", 1, 0.25)
        fwd, tsp = peel.expected_queries(cfg, row.n)
        assert (row.forward_queries, row.transpose_queries) == (fwd, tsp)
        # squared ratio 2 means epsilon = sqrt(2) - 1
        assert abs(row.relative_error - (math.sqrt(2) - 1)) < 0.2


def test_exp_hard_experiment_increases_with_n():
    rows = run_experiment(
        "exp_hard", {"n": [16, 64, 256], "preset": ["RSVD1"]}, trials=4, seed=2
    )
    means = {}
    for row in rows:
        means.setdefault(row.n, []).append(row.relative_error)
    vals = [np.mean(means[n]) for n in (16, 64, 256)]
    assert vals[0] < vals[1] < vals[2]


def test_poisson_experiment_small_grid():
    rows = run_experiment(
        "poisson", {"n": [64], "k": [2], "beta": [0.5], "preset": ["GN1"]},
        trials=2, seed=3,
    )
    assert len(rows) == 2
    for row in rows:
        assert row.n == 64
        assert row.relative_error >= 0.0


def test_kernel_experiment_monotone_in_rank():
    rows = run_experiment(
        "kernel", {"n": [256], "k": [2, 4, 6, 8], "beta": [0.25], "preset": ["GN1"]},
        trials=5, seed=4,
    )
    cells = {}
    for row in rows:
        cells.setdefault(row.k, []).append(row.absolute_error)
    for k in (4, 8):
        hi = np.array(cells[k])
        lo = np.array(cells[k - 2])
        se = math.hypot(hi.std(ddof=1) / math.sqrt(len(hi)),
                        lo.std(ddof=1) / math.sqrt(len(lo)))
        assert hi.mean() <= lo.mean() + 2 * se


def test_bound_checks_experiment_all_pass():
    checks = bench.bound_checks(seed=0, trials={"pointwise": 60, "expectation": 200, "moment": 4000})
    assert all(c.passed for c in checks)
    rows = run_experiment("bound_checks", trials={"pointwise": 30, "expectation": 100, "moment": 2000}, seed=0)
    assert len(rows) == 3
    assert {r.preset for r in rows} == {
        "projection_perturbation_pointwise",
        "gn_expected_error_bound",
        "gaussian_pinv_second_moment",
    }
    assert [r.trial for r in rows] == [30, 100, 2000]


def test_bound_checks_reject_one_trial_count_for_all():
    # each check has its own default count, so one int cannot say which
    with pytest.raises(ValueError):
        run_experiment("bound_checks", trials=5)


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        run_experiment("nope")


@pytest.mark.parametrize("name", sorted(bench.GRID_EXPERIMENTS))
def test_every_default_grid_passes_the_check(name):
    cells = bench._checked_cells(name, {}, seed=0)
    assert set(cells) == set(bench.GRID_EXPERIMENTS[name].grid) | {"n", "k"}


@pytest.mark.parametrize("grid", [
    {"n": [64], "t": [8]},  # an axis poisson does not have
    {"n": [64, 36], "k": [8]},  # a later cell with no HODLR layout
    {"n": [64, 1000]},  # a later cell with no operator
    {"n": [64], "preset": ["GN1", "GN3"]},  # a later cell with no config
])
def test_bad_grid_raises_before_any_peel(monkeypatch, grid):
    def no_peel(*args, **kwargs):
        raise AssertionError("a peel ran before the grid was checked")

    monkeypatch.setattr(peel, "run_peel", no_peel)
    with pytest.raises(bench.GridError):
        run_experiment("poisson", grid, trials=1, seed=0)


def test_hard_block_above_the_dense_limit_is_refused_before_it_is_built(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("the instance was built before its size was checked")

    monkeypatch.setattr(linops, "make_hard_block_instance", no_build)
    with pytest.raises(bench.GridError, match="n=8192 is above DESK_SCALE_LIMIT"):
        bench._checked_cells("hard_block", {"k": [1024]}, 0)


# output --------------------------------------------------------------------------

def sample_rows():
    return [
        bench.ExperimentRow(
            experiment="poisson", preset="GN1", n=64, k=2, beta=0.5, trial=0,
            relative_error=1.0 / 3.0, absolute_error=0.125,
            forward_queries=10, transpose_queries=20, seed=7,
        )
    ]


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit([], path)
    assert path.read_text() == ",".join(bench.RESULT_COLUMNS) + "\n"


def test_emit_csv_roundtrip_lossless(tmp_path):
    import csv

    path = tmp_path / "one.csv"
    emit(sample_rows(), path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["relative_error"]) == 1.0 / 3.0
    assert float(rows[0]["absolute_error"]) == 0.125
    assert int(rows[0]["forward_queries"]) == 10


def test_emit_csv_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    res1 = run_experiment("recovery", {"n": [128], "k": [2]}, trials=2, seed=9)
    res2 = run_experiment("recovery", {"n": [128], "k": [2]}, trials=2, seed=9)
    emit(res1, p1)
    emit(res2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_plotdata_groups_curves(tmp_path):
    outdir = tmp_path / "series"
    rows = run_experiment(
        "exp_hard", {"n": [16, 32], "preset": ["RSVD1", "GN2"]}, trials=2, seed=5
    )
    emit(rows, outdir, fmt="plotdata")
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["exp_hard__GN2__k1.csv", "exp_hard__RSVD1__k1.csv"]
    text = (outdir / files[0]).read_text().splitlines()
    assert text[0] == "n,beta,mean_relative_error,mean_absolute_error,trials"
    assert len(text) == 3  # two n values


def test_config_stamp_roundtrip(tmp_path):
    path = tmp_path / "run.config"
    write_config_stamp(path, "poisson", {"seed": 7, "beta": 0.5, "trials": 20})
    loaded = load_config(path)
    assert loaded["poisson"]["seed"] == "7"
    assert float(loaded["poisson"]["beta"]) == 0.5
