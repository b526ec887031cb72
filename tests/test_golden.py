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
prints the digests of the current code as JSON.
"""

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
    ("poisson", "GN1", "trunc"): "a94cd08e4350ca7734a7bc20520189c5a33c8509ba39024a819d125ee1d2f0f0",
    ("poisson", "GN1", "full"): "8db7e12bc712cec395d8d43fc7e610f8fd7c1e671b1f3770ac15376594b4021d",
    ("poisson", "GN2", "trunc"): "73500e198c09fcf7cbfe44c0df3b776376cd2a23529ff13308261cb84d4157f9",
    ("poisson", "GN2", "full"): "88b73626193cc09f8147527f53f130ef0385de73b3c6d61562a97f3386c4b44c",
    ("poisson", "RSVD1", "trunc"): "46306dd16b058d3a9d7818f2749447d1fe10fd3d0cc9908506d3b8b0b9cecf61",
    ("poisson", "RSVD1", "full"): "b12c223831387a42d26f0130217f3a78c713965631bd8a5ba1156b864cf7bdff",
    ("poisson", "RSVD2", "trunc"): "8a5f9352dbe9dce945886ef1211841a8645bfc8fa6d3f94adf4be7b10ca13b07",
    ("poisson", "RSVD2", "full"): "74729ea5b21a3775049df826129d5ca061b021ecc83c5cb6e91c9e65aaf09b56",
    ("exp_hard", "GN2", "trunc"): "bb1225df2652c9ffcae8816e2f1e61f1bee60d97ae7f43790fcb858fc4fdfe6c",
    ("exp_hard", "GN2", "full"): "a75bfbde8d2d4aa2197b27ef0d45cfc331a962d12f8245cd5ff3096a6ab66382",
    ("exp_hard", "RSVD1", "trunc"): "0c2a874e4d69c2fbb0010dcd9d4720890c298fa49131a5b42112f6a73dda1a86",
    ("exp_hard", "RSVD1", "full"): "727aa5913cab25fce3c097f88aa166b973612fde555d3022ebea2fd40fab1d58",
    ("exp_hard", "RSVD2", "trunc"): "a8f39159fac57d2c6d016a58c77c5eb1f8118f5272f8df4e4f5ce7988e088e1d",
    ("exp_hard", "RSVD2", "full"): "38967a96ad0549969f91c2e683a410e1bcf005849fe5020fa5f192c5bce5c133",
}
RECOVER_DIGEST = "60dc01898fb9a38cc83674db7677ac857c6f31742df47eef9118d09e718e89da"
RECOVERY_CSV_DIGEST = "67f943ce0117c5a8f68751076d73c21b07de535eccf064b79ece3e821b105cae"


def _fingerprint():
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    simd = tuple(cfg["SIMD Extensions"]["found"])
    return (np.__version__, blas["name"], blas["version"], simd)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests() -> dict:
    """Digest of every pinned run, keyed as the tables above ('/'-joined)."""
    out = {}
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
        out[f"{name}/{preset}/{truncation}"] = _sha256(hodlr.to_bytes(H))
    H0 = hodlr.random_hodlr(256, 4, stream(3, 1))
    H, _ = peel.exact_recover(linops.make_dense_operator(H0.to_dense()), 4)
    out["exact_recover"] = _sha256(hodlr.to_bytes(H))
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


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
