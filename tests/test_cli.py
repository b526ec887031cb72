import subprocess
import sys

import numpy as np
import pytest

from hodlrpeel import hodlr, linops
from hodlrpeel.rng import stream


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "hodlrpeel.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_approx_dense_csv_writes_hodlr_file(tmp_path):
    A = hodlr.random_hodlr(64, 2, stream(50, 0)).to_dense()
    src = tmp_path / "a.csv"
    linops.save_dense_csv(A, src)
    out = tmp_path / "a.hodlr"
    r = run_cli(
        "approx", "--operator", "dense", "--in", str(src), "--k", "2",
        "--preset", "GN1", "--beta", "0.5", "--seed", "3", "--out", str(out),
        "--allow-invalid-config",
    )
    assert r.returncode == 0, r.stderr
    H = hodlr.load(out)
    assert H.n == 64 and H.k == 2
    assert "final_error" in r.stdout


def test_approx_requires_valid_config_by_default(tmp_path):
    A = np.eye(16)
    src = tmp_path / "i.csv"
    linops.save_dense_csv(A, src)
    r = run_cli("approx", "--operator", "dense", "--in", str(src), "--k", "2",
                "--preset", "GN1", "--beta", "0.5")
    assert r.returncode != 0


def test_approx_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "r1.hodlr", tmp_path / "r2.hodlr"
    for out in (out1, out2):
        r = run_cli(
            "approx", "--operator", "poisson", "--n", "64", "--k", "2",
            "--preset", "GN1", "--beta", "0.25", "--seed", "9",
            "--out", str(out), "--allow-invalid-config",
        )
        assert r.returncode == 0, r.stderr
    assert out1.read_bytes() == out2.read_bytes()


def test_recover_accepts_hodlr_and_rejects_dense(tmp_path):
    ok = run_cli("recover", "--operator", "random-hodlr", "--n", "64", "--k", "2",
                 "--seed", "4", "--out", str(tmp_path / "h.hodlr"))
    assert ok.returncode == 0, ok.stderr
    A = stream(50, 1).standard_normal((64, 64))
    src = tmp_path / "g.csv"
    linops.save_dense_csv(A, src)
    bad = run_cli("recover", "--operator", "dense", "--in", str(src), "--k", "2")
    assert bad.returncode == 2
    assert "structure violation" in bad.stderr


def test_approx_random_hodlr_without_n_is_a_usage_error():
    r = run_cli("approx", "--operator", "random-hodlr", "--k", "4")
    assert r.returncode == 2
    assert r.stderr.strip() == "hodlrpeel: error: --operator random-hodlr needs --n"


def test_approx_random_hodlr_without_layout_is_a_usage_error():
    r = run_cli("approx", "--operator", "random-hodlr", "--n", "100", "--k", "4")
    assert r.returncode == 2
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("hodlrpeel: error: --operator random-hodlr: n=100")


def test_bench_writes_csv_and_stamp(tmp_path):
    out = tmp_path / "rec.csv"
    r = run_cli("bench", "recovery", "--n", "128", "--k", "2", "--trials", "2",
                "--seed", "5", "--out", str(out))
    assert r.returncode == 0, r.stderr
    header = out.read_text().splitlines()[0]
    assert header.startswith("experiment,preset,n,k,beta,trial,relative_error")
    stamp = (tmp_path / "rec.csv.config").read_text()
    assert "[recovery]" in stamp and "seed = 5" in stamp


@pytest.mark.parametrize("experiment, message", [
    ("poisson", "poisson dimension must be a square, got 1000"),
    ("exp_hard", "exp-hard dimension must be a power of two, got 1000"),
    ("recovery", "recovery at n=1000, k=2: n=1000 is not n_base * 2^9; no valid HODLR layout"),
    ("hard_block", "--n does not apply to hard_block: the instance fixes n = 8k"),
])
def test_bench_n_without_its_operator_is_a_usage_error(tmp_path, experiment, message):
    # no such operator exists, and a nearby n would not be the n the stamp records
    out = tmp_path / "x.csv"
    r = run_cli("bench", experiment, "--n", "1000", "--trials", "1", "--out", str(out))
    assert r.returncode == 2
    assert r.stderr.strip() == f"hodlrpeel: error: {message}"
    assert not out.exists()


def test_bench_bound_checks_trials_is_a_usage_error(tmp_path):
    # each check has its own trial count, so one count would go unused
    out = tmp_path / "b.csv"
    r = run_cli("bench", "bound_checks", "--trials", "5", "--out", str(out))
    assert r.returncode == 2
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("hodlrpeel: error: --trials")
    assert not out.exists()


def test_bench_csv_byte_identical_reruns(tmp_path):
    outs = []
    for name in ("x1.csv", "x2.csv"):
        out = tmp_path / name
        r = run_cli("bench", "hard_block", "--beta", "0.25", "--preset", "RSVD1",
                    "--trials", "3", "--seed", "11", "--out", str(out))
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_bench_plotdata_format(tmp_path):
    out = tmp_path / "series"
    r = run_cli("bench", "exp_hard", "--n", "16,32", "--preset", "RSVD1",
                "--trials", "2", "--seed", "6", "--out", str(out),
                "--format", "plotdata")
    assert r.returncode == 0, r.stderr
    assert (out / "exp_hard__RSVD1__k1.csv").exists()


def test_check_bounds_exit_code_and_output():
    r = run_cli("check-bounds", "--seed", "0")
    assert r.returncode == 0, r.stdout + r.stderr
    lines = [l for l in r.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 3
    assert all(l.startswith("PASS") for l in lines)
