"""Golden SHA-256 digests: refactors of the peeling code must not change a bit.

Each digest pins the serialized output of a fixed, seeded run:

* ``hodlr.to_bytes(H)`` of seed-7 peels through ``run_peel``: the four
  presets on the n = 1024 Poisson operator (k = 4, beta = 0.5) and GN2,
  RSVD1 and RSVD2 on the n = 128 exp-hard instance (k = 1, beta = 0.5),
  each with truncation on and off;
* ``hodlr.to_bytes(H)`` of ``exact_recover`` on a random HODLR(4) matrix
  at n = 256;
* the CSV bytes that ``bench.emit`` writes for a two-trial recovery grid.

The digests were recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas
build, DYNAMIC_ARCH) under Python 3.11.7 on an x86-64 Xeon whose numpy SIMD
dispatch found X86_V3, X86_V4, AVX512_ICL and AVX512_SPR.  Rounding differs
across numpy and BLAS builds and CPU kernels, so the digests are only
compared where that fingerprint matches; elsewhere the tests skip.  The CSV
also changes with the BLAS thread count, so the runs are made in one child
process with BLAS pinned to one thread.  ``python tests/test_golden.py``
prints the digests of the current code as JSON; with ``--dense DIR`` it also
writes each pinned run's ``H.to_dense()`` to ``DIR/<key>.npy``, so that two
trees' outputs can be compared entry by entry when a change moves a digest;
``--compare DIR_A DIR_B`` does that comparison.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import hodlrpeel
from hodlrpeel import bench, hodlr, linops, peel
from hodlrpeel.rng import stream

FINGERPRINT = (
    "2.4.6",
    "scipy-openblas",
    "0.3.31.188.0",
    ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
)

# (operator, preset, truncation) -> digest of hodlr.to_bytes(H)
PEEL_DIGESTS = {
    ("poisson", "GN1", "trunc"): "d8cccafbe6180bbe8052275a3e4c533940be1ca3c58fc1dbc095d80605a115b9",
    ("poisson", "GN1", "full"): "aa306fff46243ec438957b655e3f331491425e612bf7c3e79006555cb27bffd5",
    ("poisson", "GN2", "trunc"): "c0b320fefac3154b4d00c3a7e159d89e45d9d4f484c8bf6cb545ad2043ad6996",
    ("poisson", "GN2", "full"): "df82cc8a2807a40756718a12d2b60a91114f11360a2eb81aeb9d76f619e6bed6",
    ("poisson", "RSVD1", "trunc"): "fdeefc58a3bf0464b5a5e5b1d96bcdf7c23b9f7a029a9d72da156bc32bb4d596",
    ("poisson", "RSVD1", "full"): "7f95eaa65ec2be22ef45f4596e54d44e930339b3cf1382c0af7b72b1a061c889",
    ("poisson", "RSVD2", "trunc"): "0dec552a988f95b3cdc7759460485e9d91a5c499c95c8168be77a31a8ce7fdb6",
    ("poisson", "RSVD2", "full"): "dae006bdcc905d3c8aa26322f855be465f688274f8e533964c8adad2708f4fe2",
    ("exp_hard", "GN2", "trunc"): "561b1c36305b75b0e7b903d1226c51e8960b27a762efe90f93d0d71de9e00c1c",
    ("exp_hard", "GN2", "full"): "47d00335e6e07da498051fcdf2b588371a8f49147df48602eb05297e61daff3b",
    ("exp_hard", "RSVD1", "trunc"): "1fbecbeabd7f1811d769204a251739481118336d19f4ce7421d05f73a95d934d",
    ("exp_hard", "RSVD1", "full"): "982400bba03fbaf67eab3ee24ab4251c8bee329a4131882daf4a8bd6d4dbdb01",
    ("exp_hard", "RSVD2", "trunc"): "8d7990666cfe4ed0c4ed89f74a62fa14649e311f7530b8815cace310241debd4",
    ("exp_hard", "RSVD2", "full"): "99ff09c3114957181c85a5911b5ff1ef8b1bd3940724df8fafc5a2af467679d2",
}
RECOVER_DIGEST = "37d4bcc7cdd94f39ae8c6cca459b5b3fe723cd5ec0a62923bf447ba68ed8c0d7"
RECOVERY_CSV_DIGEST = "ec61a1b838dd8ee14c1e431ddaa1813f2d61f65c6081c819142153c282228e79"


def _fingerprint():
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    simd = tuple(cfg["SIMD Extensions"]["found"])
    return (np.__version__, blas["name"], blas["version"], simd)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(dense_dir=None) -> dict:
    """Digest of every pinned run, keyed as the tables above ('/'-joined).
    With ``dense_dir``, each run's H.to_dense() goes to dense_dir/<key>.npy."""
    out = {}

    def record(key, H):
        out[key] = _sha256(hodlr.to_bytes(H))
        if dense_dir is not None:
            path = os.path.join(dense_dir, key + ".npy")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            np.save(path, H.to_dense())

    operators = {
        "poisson": (linops.make_poisson_operator(32), 4),
        "exp_hard": (linops.make_exp_hard_instance(7, 1e8), 1),
    }
    for name, preset, truncation in PEEL_DIGESTS:
        op, k = operators[name]
        config = bench.preset_config(preset, k, 0.5, seed=7)
        H, report = peel.run_peel(
            op, config, truncate=truncation == "trunc", allow_invalid=True
        )
        counts = (report.forward_total, report.transpose_total)
        assert counts == peel.expected_queries(config, op.n)
        record(f"{name}/{preset}/{truncation}", H)
    H0 = hodlr.random_hodlr(256, 4, stream(3, 1))
    H, _ = peel.exact_recover(linops.make_dense_operator(H0.to_dense()), 4)
    record("exact_recover", H)
    rows = bench.run_experiment("recovery", {"n": [128], "k": [2]}, trials=2, seed=9)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "recovery.csv")
        bench.emit(rows, path)
        with open(path, "rb") as fh:
            out["recovery_csv"] = _sha256(fh.read())
    return out


@pytest.fixture(scope="module")
def measured():
    if _fingerprint() != FINGERPRINT:
        pytest.skip("golden digests are pinned to one numpy/BLAS/CPU fingerprint")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hodlrpeel.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(run.stdout)


@pytest.mark.parametrize("case", sorted(PEEL_DIGESTS), ids="-".join)
def test_peel_digest(measured, case):
    assert measured["/".join(case)] == PEEL_DIGESTS[case]


def test_exact_recover_digest(measured):
    assert measured["exact_recover"] == RECOVER_DIGEST


def test_recovery_csv_digest(measured):
    assert measured["recovery_csv"] == RECOVERY_CSV_DIGEST


# Largest relative Frobenius distance between two trees' H for a change
# that moves digests only through rounding.
DENSE_TOL = 1e-12


def compare(dir_a, dir_b) -> bool:
    """Print ||A - B||_F / ||A||_F for every run that ``--dense`` writes,
    reading A from dir_a and B from dir_b; True if all are present, of one
    shape and within DENSE_TOL."""
    ok = True
    for key in [*map("/".join, PEEL_DIGESTS), "exact_recover"]:
        try:
            A, B = (np.load(os.path.join(d, key + ".npy")) for d in (dir_a, dir_b))
        except OSError as exc:
            print(f"{key}: missing ({exc})")
            ok = False
            continue
        rel = np.linalg.norm(A - B) / np.linalg.norm(A) if A.shape == B.shape else np.inf
        good = rel <= DENSE_TOL  # NaN fails too
        print(f"{key}: {rel:.3g}" + ("" if good else f" above {DENSE_TOL:g}"))
        ok &= good
    return ok


def test_compare_flags_distant_and_missing_runs(tmp_path, capsys):
    keys = [*map("/".join, PEEL_DIGESTS), "exact_recover"]
    for side in "ab":
        for key in keys:
            os.makedirs(tmp_path / side / os.path.dirname(key), exist_ok=True)
            np.save(tmp_path / side / (key + ".npy"), np.eye(4))
    a, b = tmp_path / "a", tmp_path / "b"
    assert compare(a, b)
    np.save(b / "exp_hard/GN2/full.npy", np.eye(4) * (1 + 1e-15))
    assert compare(a, b)
    np.save(b / "exp_hard/GN2/full.npy", np.eye(4) * (1 + 1e-11))
    assert not compare(a, b)
    np.save(b / "exp_hard/GN2/full.npy", np.eye(4))
    os.remove(b / "exact_recover.npy")
    assert not compare(a, b)
    assert "exact_recover: missing" in capsys.readouterr().out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the golden digests as JSON.")
    parser.add_argument("--dense", metavar="DIR",
                        help="also write each run's H.to_dense() to DIR/<key>.npy")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare two --dense outputs instead; exit 1 if any run"
                             f" is missing or differs by more than {DENSE_TOL:g} relative")
    args = parser.parse_args()
    if args.compare:
        sys.exit(0 if compare(*args.compare) else 1)
    print(json.dumps(digests(args.dense), indent=1))
