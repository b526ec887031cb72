"""The two-core split of the peel's large batched kernels: the same bits as
one call at every site, and no pool thread for calls below the threshold."""

import numpy as np
import pytest

from hodlrpeel import bench, halves, hodlr, linops, peel, rng


@pytest.fixture
def submitted(monkeypatch):
    """Qualified names of the functions handed to the pool; the split is on
    (two CPUs) until a test turns it off."""
    names = []
    submit = halves._POOL.submit

    def recorded(fn, *args):
        names.append(fn.__qualname__)
        return submit(fn, *args)

    monkeypatch.setattr(halves._POOL, "submit", recorded)
    monkeypatch.setattr(halves, "CPUS", 2)
    return names


def test_split_peel_is_bitwise_the_inline_peel(monkeypatch, submitted):
    op = linops.make_poisson_operator(64)
    config = bench.preset_config("GN1", 8, 0.25, seed=3)
    split = hodlr.to_bytes(peel.run_peel(op, config, allow_invalid=True)[0])
    sites = {name.split(".")[0] for name in submitted}
    assert sites == {"make_poisson_operator", "_svd", "fill_normal_blocks"}
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
    assert submitted == ["fill_normal_blocks.<locals>.fill"]
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
    def refuse(*args, **kwargs):
        raise AssertionError("an n = 1024 exp-hard call was split")

    monkeypatch.setattr(halves._POOL, "submit", refuse)
    monkeypatch.setattr(halves, "CPUS", 2)
    op = bench.exp_hard_operator(1024)
    for preset, beta in (("RSVD1", 0.5), ("GN2", 0.25), ("RSVD2", 0.25)):
        peel.run_peel(op, bench.preset_config(preset, 1, beta, seed=0), allow_invalid=True)
