"""The two-core split of the large batched kernels of the peel and of
``hodlr_apply``, and the container checksum on the pool thread: the same bits
as one call at every site, no pool thread for calls below the threshold, no
traced function on the pool thread, and a working pool in a forked child."""

import importlib.util
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from hodlrpeel import bench, halves, hodlr, linops, peel, rng

from helpers import blockwise_container

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def submitted(monkeypatch):
    """Qualified names of the library functions that handed work to the pool
    (the first caller outside ``halves``: ``to_bytes`` for its hasher's
    ``update``, ``apply_contributions`` for its row steps); the split is on
    (two CPUs) until a test turns it off."""
    names = []
    submit = halves._POOL.submit

    def recorded(fn, *args):
        frame = sys._getframe(1)
        while frame.f_code.co_filename == halves.__file__:
            frame = frame.f_back
        names.append(frame.f_code.co_qualname)
        return submit(fn, *args)

    monkeypatch.setattr(halves._POOL, "submit", recorded)
    monkeypatch.setattr(halves, "CPUS", 2)
    return names


def test_split_peel_is_bitwise_the_inline_peel(monkeypatch, submitted):
    op = linops.make_poisson_operator(64)
    config = bench.preset_config("GN1", 8, 0.25, seed=3)
    split = hodlr.to_bytes(peel.run_peel(op, config, allow_invalid=True)[0])
    sites = {name.split(".")[0] for name in submitted}
    # The t = 64 container (about 5 MB) is above HASH_AHEAD, so to_bytes
    # hashes it on the pool.
    assert sites == {"make_poisson_operator", "_svd", "fill_normal_blocks", "apply_contributions",
                     "to_bytes"}
    monkeypatch.setattr(halves, "CPUS", 1)
    count = len(submitted)
    inline = hodlr.to_bytes(peel.run_peel(op, config, allow_invalid=True)[0])
    assert len(submitted) == count
    assert split == inline


def _blocks(layout, w):
    X = rng.stream(7, w).standard_normal((64 * 64, 2 * w))
    return {"C": np.ascontiguousarray(X[:, :w]), "F": np.asfortranarray(X[:, :w]),
            "strided": X[:, ::2]}[layout]


@pytest.mark.parametrize("layout, w", [
    *(("C", w) for w in (0, 1, 2, 3, 129)), ("F", 129), ("strided", 129),
])
def test_poisson_product_split_is_bitwise_the_inline_product(monkeypatch, submitted, layout, w):
    # Split every product of two or more columns, however small.
    monkeypatch.setattr(halves, "SPLIT_ENTRIES", 1)
    op = linops.make_poisson_operator(64)
    X = _blocks(layout, w)
    split = op.apply(X)
    assert len(submitted) == (w >= 2)
    monkeypatch.setattr(halves, "CPUS", 1)
    inline = op.apply(X)
    # Row-major like irfft2's output, which the sketch reads are fast on.
    assert split.shape == X.shape and split.flags["C_CONTIGUOUS"]
    assert split.tobytes() == inline.tobytes()


def test_split_fill_normal_blocks_matches_the_per_block_streams(submitted):
    out = np.empty((6, 4096, 4))
    rng.fill_normal_blocks(out, 11, 4, 1)
    assert submitted == ["fill_normal_blocks"]
    for i, block in enumerate(out):
        assert np.array_equal(block, rng.stream(11, 4, 1, i + 1).standard_normal(block.shape))


@pytest.mark.parametrize("shape", [(1024, 16, 32), (4, 4096, 2)])
def test_fill_of_small_blocks_or_a_small_family_stays_inline(submitted, shape):
    # 2^19 entries in blocks of 512, and 2^15 in blocks of 8192: both are
    # above SPLIT_ENTRIES, and neither ran faster split.
    out = np.empty(shape)
    assert out.size >= halves.SPLIT_ENTRIES
    rng.fill_normal_blocks(out, 11, 4, 1)
    assert submitted == []
    assert np.array_equal(out[-1], rng.stream(11, 4, 1, len(out)).standard_normal(out[-1].shape))


def test_exp_hard_peels_at_n_1024_never_reach_the_pool(monkeypatch):
    # The applies take 64 columns on both sides, as the exphard-1k benchmark
    # times them.
    def refuse(*args, **kwargs):
        raise AssertionError("an n = 1024 exp-hard call was split")

    monkeypatch.setattr(halves._POOL, "submit", refuse)
    monkeypatch.setattr(halves, "CPUS", 2)
    op = bench.exp_hard_operator(1024)
    X = rng.stream(7, 1).standard_normal((1024, 64))
    for preset, beta in (("RSVD1", 0.5), ("GN2", 0.25), ("RSVD2", 0.25)):
        H, _ = peel.run_peel(op, bench.preset_config(preset, 1, beta, seed=0),
                             allow_invalid=True)
        for side in ("forward", "transpose"):
            hodlr.hodlr_apply(H, X, side=side)
        # Their containers (about 110 KB at most) are hashed inline.
        buf = hodlr.to_bytes(H)
        assert len(buf) < hodlr.HASH_AHEAD
        hodlr.from_bytes(buf)


KERNEL = ["apply_contributions"] * 2  # the step loop, then the pass over summed levels


def _split_and_inline(monkeypatch, submitted, call):
    """``call()``'s output split at any size, the names it submitted, and
    its output on one CPU."""
    monkeypatch.setattr(halves, "SPLIT_ENTRIES", 1)
    monkeypatch.setattr(hodlr, "SPLIT_APPLY", 1)
    before = len(submitted)
    split = call()
    names = submitted[before:]
    monkeypatch.setattr(halves, "CPUS", 1)
    inline = call()
    assert len(submitted) == before + len(names)
    return split, names, inline


@pytest.mark.parametrize("side", ["forward", "transpose"])
@pytest.mark.parametrize("c, groups", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_split_kernel_is_bitwise_the_inline_kernel(monkeypatch, submitted, side, c, groups):
    # n = 4096, 32 columns: four row steps per class.  Levels 1 and 2 are
    # larger than a step and summed through W, the deeper ones are done in
    # their step.  c = 2 is level 6's perforated sketch against levels 1-5,
    # c = 1 the leaf sketch against all 9 levels.
    n, s = 4096, 32
    H = hodlr.random_hodlr(n, 8, rng.stream(7, 2))
    ell = 6 if c == 2 else H.L
    d, m = 1 << ell, n >> ell
    blocks = rng.stream(7, 3).standard_normal((n, s))
    cols = np.arange(d) % groups  # several groups use every group
    contribs = H.stacks[: ell - 1] if c == 2 else H.stacks

    def kernel():
        out = np.ones((c, d // c, m, s))
        hodlr.apply_contributions(contribs, blocks, cols, out, side)
        return out.tobytes()

    split, names, inline = _split_and_inline(monkeypatch, submitted, kernel)
    # Several groups take all the rows in one step, which does not split.
    assert names == (KERNEL if groups == 1 else [])
    assert split == inline


@pytest.mark.parametrize("side", ["forward", "transpose"])
@pytest.mark.parametrize("shape, order", [
    ((4096,), "C"), ((4096, 1), "C"), ((4096, 64), "C"), ((4096, 129), "C"), ((4096, 64), "F"),
])
def test_split_hodlr_apply_is_bitwise_the_inline_apply(monkeypatch, submitted, side, shape,
                                                       order):
    H = hodlr.random_hodlr(4096, 8, rng.stream(7, 4))
    X = np.asarray(rng.stream(7, 5).standard_normal(shape), order=order)
    split, names, inline = _split_and_inline(
        monkeypatch, submitted, lambda: hodlr.hodlr_apply(H, X, side=side).tobytes())
    # The dense part, the kernel (one column gives it a single step), the
    # negation.
    assert names == ["hodlr_apply"] + (KERNEL if X.ndim == 2 and X.shape[1] > 1 else []) + [
        "hodlr_apply"]
    assert split == inline


def _traced_paths():
    """``(owner, name)`` of every function the benchmark's span tracer wraps."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    paths = []
    for target in tracing.TARGETS:
        module, _, attrs = target.path.partition(":")
        owner = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        *parents, name = attrs.split(".")
        for part in parents:
            owner = getattr(owner, part)
        paths.append((owner, name))
    return paths


def test_split_peel_and_apply_run_every_traced_function_on_the_main_thread(
        monkeypatch, submitted):
    # The tracer keeps one span stack for all threads, so a traced function
    # on the pool thread would corrupt it.
    def on_main_thread(fn):
        def checked(*args, **kwargs):
            assert threading.current_thread() is threading.main_thread(), fn.__qualname__
            return fn(*args, **kwargs)
        return checked

    for owner, name in _traced_paths():
        monkeypatch.setattr(owner, name, on_main_thread(getattr(owner, name)))
    op = linops.make_poisson_operator(64)
    H, _ = peel.run_peel(op, bench.preset_config("GN1", 8, 0.25, seed=3), allow_invalid=True)
    X = rng.stream(7, 6).standard_normal((op.n, 64))
    for side in ("forward", "transpose"):
        hodlr.hodlr_apply(H, X, side=side)
    buf = hodlr.to_bytes(H)
    assert len(buf) >= hodlr.HASH_AHEAD
    hodlr.from_bytes(buf)
    sites = {name.split(".")[0] for name in submitted}
    assert sites == {"make_poisson_operator", "_svd", "fill_normal_blocks",
                     "apply_contributions", "hodlr_apply", "to_bytes", "from_bytes"}


@pytest.mark.parametrize("cpus", [2, 1])
def test_pooled_and_inline_checksums_give_the_same_containers(monkeypatch, submitted, cpus):
    # n = 2048, k = 8: 8 levels of 256 KB.  With the floor at one byte every
    # level is hashed on the pool, unless the process has a single CPU.
    monkeypatch.setattr(halves, "CPUS", cpus)
    monkeypatch.setattr(hodlr, "HASH_AHEAD", 1)
    H = hodlr.random_hodlr(2048, 8, rng.stream(7, 7))
    buf = hodlr.to_bytes(H)
    assert buf == blockwise_container(H)
    K = hodlr.from_bytes(buf)
    # One update per level and one for the leaves, then the checksum.
    assert submitted == (["to_bytes"] * (H.L + 1) + ["from_bytes"] if cpus == 2 else [])
    for a, b in zip(H.stacks, K.stacks):
        assert a.Q.tobytes() == b.Q.tobytes() and a.X.tobytes() == b.X.tobytes()
        assert np.array_equal(a.ranks, b.ranks)
    assert H.leaves.tobytes() == K.leaves.tobytes()


def test_forked_child_gets_a_working_pool():
    # In a child forked after the pool thread started, the parent's thread is
    # gone; a split call there must still return.  The alarm ends a child that
    # hangs, and the fork runs in a subprocess, not in the test process.
    script = """
import os, signal
from hodlrpeel import halves
halves.CPUS = 2
call = lambda: halves.in_halves(lambda lo, hi: (lo, hi), 4, 1 << 20)
assert call() == [(0, 2), (2, 4)]
pid = os.fork()
if pid == 0:
    signal.alarm(10)
    os._exit(0 if call() == [(0, 2), (2, 4)] else 1)
_, status = os.waitpid(pid, 0)
raise SystemExit(os.waitstatus_to_exitcode(status))
"""
    package_root = os.path.dirname(os.path.dirname(halves.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, (done.returncode, done.stderr)
