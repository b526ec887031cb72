import os
import subprocess
import sys

import numpy as np
import pytest

import hodlrpeel
from hodlrpeel import hodlr
from hodlrpeel.rng import stream

from helpers import load_config, save_dense_csv

# The directory holding the package these tests import, so that the CLI runs
# the same code from any working directory.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(hodlrpeel.__file__)))


def run_cli(*args, cwd=None):
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "hodlrpeel.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_approx_dense_csv_writes_hodlr_file(tmp_path):
    A = hodlr.random_hodlr(64, 2, stream(50, 0)).to_dense()
    src = tmp_path / "a.csv"
    save_dense_csv(A, src)
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
    save_dense_csv(A, src)
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
    save_dense_csv(A, src)
    bad = run_cli("recover", "--operator", "dense", "--in", str(src), "--k", "2")
    assert bad.returncode == 2
    assert "structure violation" in bad.stderr


def test_approx_random_hodlr_without_n_is_a_usage_error():
    r = run_cli("approx", "--operator", "random-hodlr", "--k", "4")
    assert r.returncode == 2
    assert r.stderr.strip() == "hodlrpeel: error: --operator random-hodlr needs --n"


def test_approx_random_hodlr_without_layout_is_a_usage_error(tmp_path):
    # the random-hodlr case, then operators that cannot be built or have no
    # HODLR(k) layout at the requested size
    cases = [
        ("random-hodlr", "100", "4", "--operator random-hodlr: n=100"),
        ("kernel", "100", "2", "--operator kernel: n=100 is not"),
        ("poisson", "36", "8", "--operator poisson: n=36 is not"),
        ("kernel", "8192", "8", "--operator kernel: kernel operator is desk scale"),
        ("exp-hard", "2", "1", "--operator exp-hard: exp-hard instance needs at least"),
    ]
    out = tmp_path / "x.hodlr"
    for operator, n, k, message in cases:
        r = run_cli("approx", "--operator", operator, "--n", n, "--k", k, "--out", str(out))
        assert r.returncode == 2
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"hodlrpeel: error: {message}")
        assert not out.exists()


@pytest.mark.parametrize("command", ["approx", "recover"])
def test_hard_block_above_the_dense_limit_is_a_usage_error(tmp_path, command):
    out = tmp_path / "x.hodlr"
    r = run_cli(command, "--operator", "hard-block", "--k", "1024", "--out", str(out))
    assert r.returncode == 2
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("hodlrpeel: error: --operator hard-block: ")
    assert "n=8192 is above DESK_SCALE_LIMIT" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("operator, size", [("hard-block", ()), ("exp-hard", ("--n", "64"))])
@pytest.mark.parametrize("eta", ["nan", "inf"])
def test_non_finite_eta_is_a_usage_error(tmp_path, operator, size, eta):
    out = tmp_path / "x.hodlr"
    r = run_cli("approx", "--operator", operator, *size, "--k", "2", "--eta", eta,
                "--allow-invalid-config", "--out", str(out))
    assert r.returncode == 2
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"hodlrpeel: error: --operator {operator}: eta must be")
    assert not out.exists()


@pytest.mark.parametrize("command", ["approx", "recover"])
@pytest.mark.parametrize("operator, flag", [("dense", "--in"), ("kernel", "--points")])
def test_missing_input_file_is_a_usage_error(tmp_path, command, operator, flag):
    missing, out = tmp_path / "nope.csv", tmp_path / "x.hodlr"
    r = run_cli(command, "--operator", operator, flag, str(missing), "--k", "2",
                "--out", str(out))
    assert r.returncode == 2
    assert r.stderr.strip() == (
        f"hodlrpeel: error: --operator {operator}: cannot read {missing}: not found"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["approx", "recover"])
@pytest.mark.parametrize("operator, flag, text, reason", [
    ("dense", "--in", "1,2\nfoo,3\n", "could not convert string 'foo'"),
    ("kernel", "--points", "0,0,0\n1,1\n", "the number of columns changed from 3 to 2"),
    ("dense", "--in", "", "it holds no rows"),
    ("kernel", "--points", "", "it holds no rows"),
])
def test_malformed_input_file_is_a_usage_error(tmp_path, command, operator, flag, text, reason):
    src, out = tmp_path / "bad.csv", tmp_path / "x.hodlr"
    src.write_text(text)
    r = run_cli(command, "--operator", operator, flag, str(src), "--k", "1",
                "--out", str(out))
    assert r.returncode == 2
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        f"hodlrpeel: error: --operator {operator}: {src} is not a numeric CSV table: "
    )
    assert reason in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("argv", [("approx", "--allow-invalid-config"), ("recover",)])
@pytest.mark.parametrize("nan", [True, False])
def test_non_finite_operator_output_is_a_cli_error(tmp_path, argv, nan):
    # one NaN entry, or finite entries of 1e308 whose first seeded product
    # overflows
    A = np.eye(16)
    if nan:
        A[3, 5] = np.nan
    else:
        A[:] = 1e308
    src, out = tmp_path / "a.csv", tmp_path / "x.hodlr"
    save_dense_csv(A, src)
    r = run_cli(argv[0], "--operator", "dense", "--in", str(src), "--k", "1",
                "--out", str(out), *argv[1:])
    assert r.returncode == 2
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("hodlrpeel: error: dense: forward product of a block of width")
    assert lines[0].endswith(" non-finite entries")
    assert not out.exists()


def test_bench_writes_csv_and_stamp(tmp_path):
    out = tmp_path / "rec.csv"
    r = run_cli("bench", "recovery", "--n", "128", "--k", "2", "--trials", "2",
                "--seed", "5", "--out", str(out))
    assert r.returncode == 0, r.stderr
    header = out.read_text().splitlines()[0]
    assert header.startswith("experiment,preset,n,k,beta,trial,relative_error")
    stamp = (tmp_path / "rec.csv.config").read_text()
    assert "[recovery]" in stamp and "seed = 5" in stamp
    # a % in the output name is written and read back as it is
    out = tmp_path / "run%1.csv"
    r = run_cli("bench", "poisson", "--n", "16", "--k", "8", "--beta", "1", "--preset", "GN1",
                "--trials", "1", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert load_config(tmp_path / "run%1.csv.config")["poisson"]["out"] == str(out)


def _bench_case(argv, message):
    # id "<experiment>-<message>", as pytest names (experiment, message) pairs
    return pytest.param(argv, message, id=f"{argv[0]}-{message}")


@pytest.mark.parametrize("argv, message", [
    # no such operator exists, and a nearby n would not be the n the stamp records
    _bench_case(("poisson", "--n", "1000", "--trials", "1"),
                "poisson dimension must be a square, got 1000"),
    _bench_case(("exp_hard", "--n", "1000", "--trials", "1"),
                "exp-hard dimension must be a power of two, got 1000"),
    _bench_case(("recovery", "--n", "1000", "--trials", "1"),
                "recovery at n=1000, k=2: n=1000 is not n_base * 2^9; no valid HODLR layout"),
    _bench_case(("hard_block", "--n", "1000", "--trials", "1"),
                "--n does not apply to hard_block: the instance fixes n = 8k"),
    # cells with an operator but no HODLR layout, or with no operator
    _bench_case(("kernel", "--n", "100", "--k", "2"),
                "kernel at n=100, k=2: n=100 is not n_base * 2^6; no valid HODLR layout"),
    _bench_case(("poisson", "--n", "36", "--k", "8"),
                "poisson at n=36, k=8: n=36 is not n_base * 2^3; no valid HODLR layout"),
    _bench_case(("kernel", "--n", "8192"), "kernel operator is desk scale: n=8192 > 4096"),
    _bench_case(("exp_hard", "--n", "2"), "exp-hard instance needs at least two levels, got L=1"),
    # operators above the dense limit: the errors are measured on the dense matrix
    _bench_case(("poisson", "--n", "16384", "--trials", "1"),
                "poisson at n=16384, k=8: n=16384 is above DESK_SCALE_LIMIT = 4096"),
    _bench_case(("exp_hard", "--n", "8192"),
                "exp_hard at n=8192, k=1: n=8192 is above DESK_SCALE_LIMIT = 4096"),
    # options the experiment has no axis for
    _bench_case(("exp_hard", "--k", "4"),
                "--k does not apply to exp_hard: the instance fixes k = 1"),
    _bench_case(("recovery", "--beta", "0.5"),
                "--beta does not apply to recovery: its axes are n, k, variant"),
    _bench_case(("poisson", "--n", "64", "--k", "2", "--beta", "0.5,nan"),
                "poisson at n=64, k=2: beta must be a positive finite number, got nan"),
    _bench_case(("poisson", "--n", "64", "--k", "2", "--beta", "inf"),
                "poisson at n=64, k=2: beta must be a positive finite number, got inf"),
    _bench_case(("poisson", "--n", "64", "--k", "2", "--beta", "1e-300"),
                "poisson at n=64, k=2: beta must give finite widths k/beta and k/beta**2,"
                " got 1e-300"),
    _bench_case(("poisson", "--variant", "rsvd"),
                "--variant does not apply to poisson: its axes are n, k, beta, preset"),
    _bench_case(("bound_checks", "--n", "64"),
                "--n does not apply to bound_checks: it has no grid"),
])
def test_bench_n_without_its_operator_is_a_usage_error(tmp_path, argv, message):
    out = tmp_path / "x.csv"
    r = run_cli("bench", *argv, "--out", str(out))
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


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_bench_trials_below_one_is_a_usage_error(tmp_path, trials):
    # 0 used to mean the default count, and -1 wrote a header-only CSV
    out = tmp_path / "r.csv"
    r = run_cli("bench", "recovery", "--n", "128", "--k", "2", "--trials", trials,
                "--out", str(out))
    assert r.returncode == 2
    assert r.stderr.strip() == f"hodlrpeel: error: --trials must be at least 1, got {trials}"
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
    # the stamp lands next to the directory however it is spelled
    for slash in ("", "/"):
        where = tmp_path / ("slash" if slash else "plain")
        out = where / "series"
        r = run_cli("bench", "exp_hard", "--n", "16,32", "--preset", "RSVD1",
                    "--trials", "2", "--seed", "6", "--out", str(out) + slash,
                    "--format", "plotdata")
        assert r.returncode == 0, r.stderr
        assert (out / "exp_hard__RSVD1__k1.csv").exists()
        assert (where / "series.config").exists()
        assert not (out / ".config").exists()
    # without --out: the directory is named after the experiment, and a CSV
    # run of the same experiment still finds its own name free
    r = run_cli("bench", "exp_hard", "--n", "16", "--preset", "RSVD1", "--trials", "1",
                "--format", "plotdata", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "exp_hard" / "exp_hard__RSVD1__k1.csv").exists()
    assert (tmp_path / "exp_hard.config").exists()
    r = run_cli("bench", "exp_hard", "--n", "16", "--preset", "RSVD1", "--trials", "1",
                cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "exp_hard.csv").is_file()


def test_check_bounds_exit_code_and_output():
    r = run_cli("check-bounds", "--seed", "0")
    assert r.returncode == 0, r.stdout + r.stderr
    lines = [l for l in r.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 3
    assert all(l.startswith("PASS") for l in lines)


@pytest.mark.parametrize("argv, message", [
    ((), "--preset GN1 --k 2 --beta 0.5 fails guarantee validation ("),
    (("--k", "0"), "--preset GN1 --k 0 --beta 0.5: all parameters must be >= 1"),
    (("--beta", "0"), "--preset GN1 --k 2 --beta 0.0: beta must be a positive finite number"),
    (("--beta", "2"), "--preset GN1 --k 2 --beta 2.0: s_R=1 below rank k=2"),
    (("--beta", "nan"), "--preset GN1 --k 2 --beta nan: beta must be a positive finite number"),
    (("--beta", "inf"), "--preset GN1 --k 2 --beta inf: beta must be a positive finite number"),
    (("--preset", "GN2", "--k", "4", "--beta", "1e-300"),
     "--preset GN2 --k 4 --beta 1e-300: beta must give finite widths k/beta and k/beta**2"),
    (("--beta", "1e-160"), "--preset GN1 --k 2 --beta 1e-160: beta must give finite widths"),
])
def test_approx_unusable_config_is_a_usage_error(tmp_path, argv, message):
    # the defaults (GN1, beta = 0.5) fail guarantee validation at any k
    out = tmp_path / "x.hodlr"
    args = dict.fromkeys(("--k",), "2")
    args.update(zip(argv[::2], argv[1::2]))
    r = run_cli("approx", "--operator", "poisson", "--n", "64", "--out", str(out),
                *(v for kv in args.items() for v in kv))
    assert r.returncode == 2
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"hodlrpeel: error: {message}")
    if not argv:
        assert lines[0].endswith("pass --allow-invalid-config to run it anyway")
    assert not out.exists()


def test_approx_has_no_variant_option():
    # the preset fixes the variant
    r = run_cli("approx", "--operator", "poisson", "--n", "64", "--k", "2",
                "--variant", "rsvd")
    assert r.returncode == 2
    assert "unrecognized arguments: --variant rsvd" in r.stderr


@pytest.mark.parametrize("argv", [
    ("approx", "--operator", "poisson", "--n", "64", "--k", "2", "--allow-invalid-config"),
    ("recover", "--operator", "random-hodlr", "--n", "64", "--k", "2"),
    ("bench", "recovery", "--n", "64", "--k", "2", "--trials", "1"),
    ("check-bounds",),
])
def test_negative_seed_is_a_usage_error(argv):
    r = run_cli(*argv, "--seed", "-1")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.strip().splitlines()[-1].endswith(
        "error: argument --seed: must be a non-negative integer, got -1"
    )


@pytest.mark.parametrize("argv", [
    ("approx", "--operator", "poisson", "--n", "64", "--k", "2", "--allow-invalid-config"),
    ("recover", "--operator", "random-hodlr", "--n", "64", "--k", "2"),
    ("bench", "recovery", "--n", "128", "--k", "2", "--trials", "1"),
    ("check-bounds",),
], ids=lambda argv: argv[0])
def test_unwritable_out_is_a_usage_error(tmp_path, argv):
    # the run finishes, then its output cannot be written
    out = tmp_path / "missing" / "x.out"
    r = run_cli(*argv, "--out", str(out))
    assert r.returncode == 2
    assert r.stderr.strip() == (
        f"hodlrpeel: error: cannot write {out}: No such file or directory"
    )
