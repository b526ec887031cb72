import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodlrpeel import sketch
from hodlrpeel.rng import seed_sequence, stream

from helpers import assembled


def bullet_bruteforce(X, Y):
    """Entrywise expansion of the block row-wise Kronecker product."""
    p, v = X.shape
    u = Y.shape[0] // p
    t = Y.shape[1]
    out = np.zeros((p * u, v * t))
    for i in range(p):
        for j in range(v):
            out[i * u:(i + 1) * u, j * t:(j + 1) * t] = X[i, j] * Y[i * u:(i + 1) * u]
    return out


def test_bullet_scalar_identity():
    Y = stream(0, 0).standard_normal((4, 3))
    np.testing.assert_array_equal(sketch.bullet(np.ones((1, 1)), Y), Y)


def test_bullet_hand_expansion():
    X = np.eye(2)
    Y = np.array([[2.0], [3.0]])
    np.testing.assert_array_equal(sketch.bullet(X, Y), [[2.0, 0.0], [0.0, 3.0]])


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 6), t=st.integers(1, 4), s=st.integers(1, 4),
       m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_bullet_matches_bruteforce(d, t, s, m, seed):
    # X (d, t) against d stacked (m, s) blocks, as a family assembles them
    rng = stream(seed, 1)
    X = rng.standard_normal((d, t))
    Y = rng.standard_normal((d * m, s))
    np.testing.assert_array_equal(sketch.bullet(X, Y), bullet_bruteforce(X, Y))


def test_bullet_rejects_indivisible():
    with pytest.raises(ValueError):
        sketch.bullet(np.ones((3, 1)), np.ones((4, 1)))


def test_countsketch_single_column_forced():
    sel = sketch.sample_countsketch(5, 1, (1, 0))
    np.testing.assert_array_equal(sel.entries, np.ones((5, 1)))


def test_countsketch_row_sums():
    sel = sketch.sample_countsketch(64, 7, (1, 1))
    np.testing.assert_array_equal(sel.entries.sum(axis=1), np.ones(64))
    assert all(sel.entries[i, sel.cols[i]] == 1.0 for i in range(64))


def test_countsketch_column_frequencies():
    # Monte-Carlo frequency check at t=4 over 1e5 independent rows (~3 sigma
    # band); rows are iid, so one tall draw has the same law as 1e5 d=1 draws
    sel = sketch.sample_countsketch(100000, 4, (2024, 0))
    freq = np.bincount(sel.cols, minlength=4) / 100000
    assert all(0.2475 <= f <= 0.2525 for f in freq)


def test_perf_countsketch_masks():
    plus, minus = sketch.sample_perf_countsketch(2, 1, (2, 0))
    np.testing.assert_array_equal(plus.entries, [[1.0], [0.0]])
    np.testing.assert_array_equal(minus.entries, [[0.0], [1.0]])


@settings(max_examples=60, deadline=None)
@given(half=st.integers(1, 8), t=st.integers(1, 5), s=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_perf_countsketch_pair_structure(half, t, s, seed):
    # plus and minus split one CountSketch draw by row parity, and so do the
    # two sketches of a family built on that draw
    d, m = 2 * half, 2
    key = (seed, 2, 1)
    draw = sketch.sample_countsketch(d, t, key).entries
    plus, minus = sketch.sample_perf_countsketch(d, t, key)
    np.testing.assert_array_equal(plus.entries + minus.entries, draw)
    assert not (plus.entries * minus.entries).any()
    assert not plus.entries[1::2].any() and not minus.entries[0::2].any()
    fam = sketch.sample_rand_perf_gaussian(d * m, d, s, t, key)
    stacked = fam.gaussian_blocks.reshape(d * m, s)
    draw = sketch.sample_countsketch(d, t, (*key, 0)).entries
    np.testing.assert_array_equal(sum(assembled(fam)), bullet_bruteforce(draw, stacked))


def test_perf_countsketch_rejects_odd():
    with pytest.raises(ValueError):
        sketch.sample_perf_countsketch(3, 2, (2, 2))


def test_family_minimal_layout():
    fam = sketch.sample_rand_perf_gaussian(4, 2, 1, 1, (3, 0))
    g, h = fam.gaussian_blocks
    plus, minus = assembled(fam)
    np.testing.assert_array_equal(plus, np.vstack([g, np.zeros((2, 1))]))
    np.testing.assert_array_equal(minus, np.vstack([np.zeros((2, 1)), h]))


@pytest.mark.parametrize("n,d,s,t", [(16, 4, 3, 2), (32, 8, 2, 5), (24, 2, 4, 1)])
def test_family_shapes_and_reconstruction(n, d, s, t):
    fam = sketch.sample_rand_perf_gaussian(n, d, s, t, (3, 1))
    assert fam.gaussian_blocks.shape == (d, n // d, s)
    assert fam.selector_plus.entries.shape == fam.selector_minus.entries.shape == (d, t)
    assert all(a.shape == (n, s * t) for a in assembled(fam))


def test_family_perforation_parity():
    # every block row is zero in exactly one of the two assembled sketches
    n, d, s, t = 32, 8, 2, 3
    fam = sketch.sample_rand_perf_gaussian(n, d, s, t, (3, 2))
    plus, minus = assembled(fam)
    m = n // d
    for i in range(d):
        rows = slice(i * m, (i + 1) * m)
        plus_zero = not plus[rows].any()
        minus_zero = not minus[rows].any()
        assert plus_zero != minus_zero
        assert plus_zero == (i % 2 == 1)  # plus keeps the 1-based odd rows
        # the active sketch is nonzero in exactly one block column
        active = minus if plus_zero else plus
        nonzero_cols = [
            c for c in range(t) if active[rows, c * s:(c + 1) * s].any()
        ]
        assert nonzero_cols == [fam.selector_plus.cols[i]]


def test_family_reseeding_reproduces_bits():
    a = sketch.sample_rand_perf_gaussian(32, 4, 3, 2, (9, 5))
    b = sketch.sample_rand_perf_gaussian(32, 4, 3, 2, (9, 5))
    np.testing.assert_array_equal(assembled(a), assembled(b))
    c = sketch.sample_rand_perf_gaussian(32, 4, 3, 2, (9, 6))
    assert (assembled(a)[0] != assembled(c)[0]).any()


def test_family_draws_from_the_child_streams_of_its_key():
    # selector from (*key, 0), block i from (*key, i + 1): the children
    # SeedSequence.spawn gives seed_sequence(*key), so the bits do not depend
    # on how the key reached the sampler
    key = (9, 5, 1)
    fam = sketch.sample_rand_perf_gaussian(32, 8, 3, 2, key)
    spawned = seed_sequence(*key).spawn(9)
    for i in range(8):
        np.testing.assert_array_equal(
            fam.gaussian_blocks[i], np.random.default_rng(spawned[i + 1]).standard_normal((4, 3))
        )
    cols = np.random.default_rng(spawned[0]).integers(0, 2, size=8)
    np.testing.assert_array_equal(fam.selector_plus.cols, cols)
    np.testing.assert_array_equal(sketch.sample_countsketch(8, 2, (*key, 0)).cols, cols)


def test_family_block_streams_are_disjoint():
    fam = sketch.sample_rand_perf_gaussian(16, 4, 8, 1, (9, 7))
    blocks = fam.gaussian_blocks
    for i in range(4):
        for j in range(i + 1, 4):
            assert (blocks[i] != blocks[j]).any()


def test_gaussian_entry_second_moment():
    # pooled nonzero entries across many small families, ~1e5 values
    vals = []
    for r in range(100):
        fam = sketch.sample_rand_perf_gaussian(40, 4, 25, 1, (10, r))
        vals.append(np.concatenate([b.ravel() for b in fam.gaussian_blocks]))
    vals = np.concatenate(vals)
    assert vals.size == 100000
    assert abs(np.mean(vals**2) - 1.0) <= 0.02


def test_family_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        sketch.sample_rand_perf_gaussian(10, 4, 2, 1, (0,))
    with pytest.raises(ValueError):
        sketch.sample_rand_perf_gaussian(12, 3, 2, 1, (0,))


def test_gaussian_pinv_second_moment_identity():
    # E||X G H^+||_F^2 = p/(q-p-1) ||X||_F^2 for G ~ (6, q), H ~ (p, q)
    rng = stream(11, 0)
    p, q, trials = 2, 8, 20000
    X = rng.standard_normal((3, 6))
    target = p / (q - p - 1) * np.linalg.norm(X) ** 2
    G = rng.standard_normal((trials, 6, q))
    H = rng.standard_normal((trials, p, q))
    vals = np.linalg.norm(np.matmul(X @ G, np.linalg.pinv(H)), axis=(1, 2)) ** 2
    assert abs(vals.mean() - target) <= 0.05 * target
