import dataclasses
import hashlib
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodlrpeel import bench, halves, hodlr, peel, sketch
from hodlrpeel.hodlr import (
    FlopCounter,
    HodlrMatrix,
    SerializationError,
    StructureError,
    apply_contributions,
    assemble,
    best_hodlr,
    block_view,
    fold_depth,
    from_bytes,
    hodlr_apply,
    level_count,
    partner,
    random_hodlr,
    to_bytes,
)
from hodlrpeel.lowrank import LowRankFactors
from hodlrpeel.rng import stream

from helpers import assembled, blockwise_container


def padded_stack(Qs, Xs):
    """Level stack of the blocks Q_j X_j, zero-padded to the largest rank."""
    ranks = np.array([q.shape[1] for q in Qs])
    d, m, r = len(Qs), Qs[0].shape[0], ranks.max()
    Q, X = np.zeros((d, m, r)), np.zeros((d, r, m))
    for j, (q, x) in enumerate(zip(Qs, Xs)):
        Q[j, :, : q.shape[1]] = q
        X[j, : x.shape[0]] = x
    return LowRankFactors(Q, X, ranks)


def empty_stacks(n, k):
    L = level_count(n, k)
    return [
        LowRankFactors(np.zeros((d, n // d, 0)), np.zeros((d, 0, n // d)), np.zeros(d, int))
        for d in (1 << ell for ell in range(1, L + 1))
    ]


def test_level_count_values():
    assert level_count(64, 2) == 5
    assert level_count(8, 1) == 3
    assert level_count(40, 8) == 3  # n_base = 5 in (4, 8]
    assert level_count(48, 8) == 3  # n_base = 6 in (4, 8]


def test_level_count_rejects_bad_pairs():
    with pytest.raises(StructureError):
        level_count(10, 2)  # 10 = 5 * 2, L = ceil(log2 5) = 3, 10 % 8 != 0
    with pytest.raises(StructureError):
        level_count(4, 8)  # n <= k: single dense leaf, no hierarchy


def test_assemble_identity_leaves():
    n, k = 8, 2
    leaves = [np.eye(2) for _ in range(4)]
    H = assemble(empty_stacks(n, k), leaves, n=n, k=k)
    np.testing.assert_array_equal(H.to_dense(), np.eye(8))


def test_assemble_single_factor_placement():
    n, k = 8, 2
    stacks = empty_stacks(n, k)
    u = stream(0, 0).standard_normal((4, 1))
    v = stream(0, 1).standard_normal((1, 4))
    stacks[0] = padded_stack([u / np.linalg.norm(u), np.zeros((4, 0))], [v, np.zeros((0, 4))])
    H = assemble(stacks, [np.zeros((2, 2))] * 4, n=n, k=k)
    D = H.to_dense()
    np.testing.assert_allclose(D[4:, :4], (u / np.linalg.norm(u)) @ v)
    D[4:, :4] = 0.0
    assert not D.any()


def test_assemble_rejects_missing_level():
    n, k = 8, 2
    stacks = empty_stacks(n, k)[:-1]
    with pytest.raises(StructureError):
        assemble(stacks, [np.zeros((2, 2))] * 4, n=n, k=k)


def test_assemble_rejects_excess_rank():
    n, k = 8, 2
    stacks = empty_stacks(n, k)
    Q = np.linalg.qr(stream(0, 2).standard_normal((4, 3)))[0]
    stacks[0] = padded_stack([np.zeros((4, 0)), Q], [np.zeros((0, 4)), np.zeros((3, 4))])
    with pytest.raises(StructureError, match="rank 3 exceeds k=2"):
        assemble(stacks, [np.zeros((2, 2))] * 4, n=n, k=k)
    H = assemble(stacks, [np.zeros((2, 2))] * 4, n=n, k=k, check_rank=False)
    assert H.levels[0][1].rank == 3


def test_assemble_rejects_misfit_stacks():
    n, k = 8, 2
    leaves = np.zeros((4, 2, 2))
    good = empty_stacks(n, k)[0]
    for bad in (
        LowRankFactors(np.zeros((2, 4, 1)), np.zeros((2, 1, 4)), np.array([0, 2])),
        LowRankFactors(np.zeros((2, 4, 1)), np.zeros((2, 1, 4)), np.array([0, -1])),
        LowRankFactors(np.zeros((2, 4, 1)), np.zeros((2, 1, 4)), np.array([0])),
        LowRankFactors(np.zeros((2, 3, 0)), np.zeros((2, 0, 3)), np.array([0, 0])),
        LowRankFactors(np.zeros((2, 4, 1)), np.zeros((2, 2, 4)), np.array([0, 0])),
        LowRankFactors(np.zeros((4, 4, 0)), np.zeros((4, 0, 4)), np.zeros(4, int)),
        LowRankFactors(good.Q, good.X),
        LowRankFactors(np.ones((2, 4, 1)), np.zeros((2, 1, 4)), np.array([1, 0])),
        LowRankFactors(np.zeros((2, 4, 1)), np.ones((2, 1, 4)), np.array([0, 1])),
    ):
        with pytest.raises(StructureError):
            assemble([bad] + empty_stacks(n, k)[1:], leaves, n=n, k=k, check_rank=False)


def test_assemble_stores_ranks_as_an_integer_array():
    # a list of ranks serializes as the int64 original; float ranks are refused
    H = random_hodlr(16, 2, stream(4, 3))

    def with_ranks(convert):
        stacks = [dataclasses.replace(st, ranks=convert(st.ranks)) for st in H.stacks]
        return assemble(stacks, H.leaves, n=H.n, k=H.k)

    assert to_bytes(with_ranks(np.ndarray.tolist)) == to_bytes(H)
    with pytest.raises(StructureError, match="ranks must be integers"):
        with_ranks(lambda r: r.astype(float))


def test_assemble_rejects_wrong_leaf_shapes():
    n, k = 8, 2
    with pytest.raises(StructureError):
        assemble(empty_stacks(n, k), [np.zeros((3, 3))] * 4, n=n, k=k)
    with pytest.raises(StructureError, match="one .* stack"):
        assemble(empty_stacks(n, k), [np.zeros((2, 2))] * 3 + [np.zeros((3, 3))], n=n, k=k)


def test_dense_expansion_is_sum_of_disjoint_levels():
    H = random_hodlr(32, 2, stream(1, 0))
    total = np.zeros((32, 32))
    for ell, factors in enumerate(H.levels, start=1):
        m = 32 >> ell
        lvl = np.zeros((32, 32))
        for j, f in enumerate(factors):
            r = partner(j)
            lvl[r * m:(r + 1) * m, j * m:(j + 1) * m] = f.dense()
        assert not (total * lvl).any()  # disjoint writes
        total += lvl
    for j, leaf in enumerate(H.leaves):
        m = 32 >> H.L
        total[j * m:(j + 1) * m, j * m:(j + 1) * m] = leaf
    np.testing.assert_array_equal(total, H.to_dense())


# hodlr_apply -------------------------------------------------------------------

def test_apply_identity_leaves_only():
    H = assemble(empty_stacks(8, 2), [np.eye(2)] * 4, n=8, k=2)
    X = stream(2, 0).standard_normal((8, 3))
    np.testing.assert_allclose(hodlr_apply(H, X), X)


def test_apply_matches_dense_columns():
    H = random_hodlr(64, 3, stream(2, 1))
    D = H.to_dense()
    for j in (0, 13, 63):
        e = np.eye(64)[:, j]
        np.testing.assert_allclose(hodlr_apply(H, e), D[:, j], atol=1e-11)
    X = stream(2, 2).standard_normal((64, 4))
    for side, ref in (("forward", D @ X), ("transpose", D.T @ X)):
        out = hodlr_apply(H, X, side=side)
        assert np.linalg.norm(out - ref) <= 1e-11 * np.linalg.norm(ref)


def test_apply_linearity():
    H = random_hodlr(32, 2, stream(2, 3))
    X = stream(2, 4).standard_normal((32, 2))
    Y = stream(2, 5).standard_normal((32, 2))
    lhs = hodlr_apply(H, 2.0 * X + 3.0 * Y)
    rhs = 2.0 * hodlr_apply(H, X) + 3.0 * hodlr_apply(H, Y)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_apply_flop_scaling():
    # counted flops grow like n k L: doubling n from 256 to 512 multiplies
    # the count by (2 L'+1)/(L+...) -- measured ratio must sit in [1.8, 2.6]
    counts = {}
    for n in (256, 512):
        H = random_hodlr(n, 4, stream(2, 6, n))
        c = FlopCounter()
        hodlr_apply(H, np.ones((n, 1)), counter=c)
        counts[n] = c.flops
        L = level_count(n, 4)
        assert c.flops <= 6 * n * 4 * (L + 1)
    ratio = counts[512] / counts[256]
    assert 1.8 <= ratio <= 2.6


def blockwise_apply(n, levels, leaves, X, side):
    """H @ X (or H^T @ X) one stored block at a time: the reference for the
    stacked kernel.  ``leaves`` may be empty (levels only)."""
    out = np.zeros_like(X)
    for ell, factors in enumerate(levels, start=1):
        m = n >> ell
        for j, f in enumerate(factors):
            rows = slice(partner(j) * m, (partner(j) + 1) * m)
            cols = slice(j * m, (j + 1) * m)
            if side == "forward":
                out[rows] += f.Q @ (f.X @ X[cols])
            else:
                out[cols] += f.X.T @ (f.Q.T @ X[rows])
    for j, leaf in enumerate(leaves):
        m = leaf.shape[0]
        b = slice(j * m, (j + 1) * m)
        out[b] += (leaf if side == "forward" else leaf.T) @ X[b]
    return out


def random_stack(rng, d, m, ranks):
    """Gaussian level stack with the given block ranks, zero past each."""
    r = max(ranks, default=0)
    ranks = np.array(ranks)
    Q = rng.standard_normal((d, m, r)) * (np.arange(r) < ranks[:, None, None])
    X = rng.standard_normal((d, r, m)) * (np.arange(r)[:, None] < ranks[:, None, None])
    return LowRankFactors(Q, X, ranks)


@st.composite
def mixed_rank_hodlr(draw, k=st.integers(1, 4), L=st.integers(1, 4), w=st.integers(1, 5)):
    """A HODLR layout whose blocks have any rank from 0 to the block size:
    whole rank-0 levels, mixed ranks below the padded width, and untruncated
    ranks above k.  Returns (H, its level stacks, an (n, w) input)."""
    k, L = draw(k), draw(L)
    n = draw(st.integers(k // 2 + 1, k)) << L
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stacks = []
    for ell in range(1, L + 1):
        m, d = n >> ell, 1 << ell
        stacks.append(random_stack(rng, d, m, draw(st.one_of(
            st.just([0] * d), st.lists(st.integers(0, m), min_size=d, max_size=d)
        ))))
    m = n >> L
    leaves = rng.standard_normal((1 << L, m, m))
    X = rng.standard_normal((n, draw(w)))
    return assemble(stacks, leaves, n=n, k=k, check_rank=False), stacks, X


# Any layout, plus two that hodlr_apply folds for sure: in part (k = 1,
# L = 6: the bottom 2 or 3 of 6 levels) and whole (n = 8, k = 2, w >= 2).
apply_cases = st.one_of(
    mixed_rank_hodlr(),
    mixed_rank_hodlr(k=st.just(1), L=st.just(6)),
    mixed_rank_hodlr(k=st.just(2), L=st.just(2), w=st.integers(2, 5)),
)


# Route thresholds that pad every rank-1 product, the default, and none.
ROUTE = {"on": 0, "default": hodlr.PAD_RANK1, "off": 1 << 62}


def digest(a):
    """SHA-256 of an array's bytes: a short message when outputs differ."""
    return hashlib.sha256(a.tobytes()).hexdigest()


def assert_close(out, ref):
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=90, deadline=None)
@given(case=apply_cases, side=st.sampled_from(["forward", "transpose"]),
       step=st.sampled_from([1, 64, hodlr.STEP_ENTRIES]))
def test_stacked_kernel_matches_blockwise_products(case, side, step):
    # STEP_ENTRIES 1 and 64 cut the unfolded levels' rows into several steps,
    # so that the levels larger than a step are summed over the steps.  Every
    # rank-1 product padded to rank 2 (ROUTE "on") gives the bits of none.
    H, _, X = case
    ref = blockwise_apply(H.n, H.levels, H.leaves, X, side)
    with mock.patch.object(hodlr, "STEP_ENTRIES", step):
        outputs = {}
        for route in ("on", "off"):
            with mock.patch.object(hodlr, "PAD_RANK1", ROUTE[route]):
                out = hodlr_apply(H, X, side=side)
                outputs[route] = digest(out), digest(H.to_dense())
        assert outputs["on"] == outputs["off"]
        assert_close(out, ref)
        assert_close(hodlr_apply(from_bytes(to_bytes(H)), X, side=side), ref)


@pytest.mark.parametrize("side", ["forward", "transpose"])
def test_apply_of_a_vector_and_of_no_columns(side):
    # one column folds only level 5 of 5 here: levels 1-4 go through the kernel
    H = random_hodlr(64, 2, stream(2, 9))
    x = stream(2, 10).standard_normal(64)
    out = hodlr_apply(H, x, side=side)
    assert out.shape == (64,)
    assert_close(out, blockwise_apply(64, H.levels, H.leaves, x[:, None], side)[:, 0])
    np.testing.assert_array_equal(out, hodlr_apply(H, x[:, None], side=side)[:, 0])
    assert hodlr_apply(H, np.empty((64, 0)), side=side).shape == (64, 0)


def test_apply_rejects_inputs_of_other_ranks():
    H = random_hodlr(16, 2, stream(2, 11))
    for shape in ((16, 2, 3), (16, 1, 1, 1)):
        with pytest.raises(StructureError, match=r"vector or an \(n, w\) block"):
            hodlr_apply(H, np.ones(shape))


def test_apply_rejects_an_unknown_side():
    # a misspelt side must not fall through to the transpose product
    H = random_hodlr(64, 2, stream(2, 11))
    for side in ("fwd", "Forward", None):
        with pytest.raises(ValueError, match=f"unknown side {side!r}"):
            hodlr_apply(H, np.ones((64, 2)), side=side)


def test_apply_rejects_complex_input():
    # a float cast would drop the imaginary part with only a ComplexWarning
    H = random_hodlr(16, 2, stream(2, 11))
    for X in (np.ones((16, 2)) + 1j, [1j] * 16):
        with pytest.raises(StructureError, match="need a real input, got dtype complex128"):
            hodlr_apply(H, X)


def test_apply_reaches_the_kernel_without_the_peel_entry(monkeypatch):
    # a span tracer wraps hodlr.apply_contributions to time the peel's
    # subtraction, so hodlr_apply must not look that attribute up
    H = random_hodlr(256, 4, stream(2, 12))
    X = stream(2, 13).standard_normal((256, 3))

    def refuse(*args, **kwargs):
        raise AssertionError("hodlr_apply called hodlr.apply_contributions")

    monkeypatch.setattr(hodlr, "apply_contributions", refuse)
    assert fold_depth(256, 4, 3) < level_count(256, 4)
    for side in ("forward", "transpose"):
        assert_close(hodlr_apply(H, X, side=side), blockwise_apply(256, H.levels, H.leaves, X, side))


@settings(max_examples=20, deadline=None)
@given(case=apply_cases, side=st.sampled_from(["forward", "transpose"]))
def test_repeated_apply_is_bit_identical(case, side):
    H, _, X = case
    first = hodlr_apply(H, X, side=side)
    np.testing.assert_array_equal(hodlr_apply(H, X, side=side), first)


@pytest.mark.parametrize("swap", [False, True])
def test_unperforated_operands_are_views_of_the_factors(swap, monkeypatch):
    # c = 1 reads Q, Q pair-swapped and X transposed in place; the c = 2
    # class layout depends on the reading block size m, so it is a copy
    H = random_hodlr(256, 4, stream(2, 14))
    Q, Xt = H.stacks[2].Q, H.stacks[2].X.swapaxes(1, 2)
    e, M, r = Q.shape
    for F in (Q, Xt):
        pairs = F.reshape(e // 2, 2, M, r)
        view = hodlr._row_classes(F, 4, 1, swap, reverse=True)
        assert view.shape == (1, e // 2, 2, M, r) and np.shares_memory(view, F)
        np.testing.assert_array_equal(view[0], pairs[:, ::-1] if swap else pairs)
        copy = hodlr._row_classes(F, 4, 2, swap, reverse=True)
        assert copy.shape == (2, e // 2, 2, M // 2, r) and not np.shares_memory(copy, F)
    # the kernel reads hodlr_apply's input in place, one block per step, and
    # leaves it as it was
    monkeypatch.setattr(hodlr, "STEP_ENTRIES", 1)
    X = stream(2, 15).standard_normal((256, 3))
    X0 = X.copy()
    for side in ("forward", "transpose"):
        assert_close(hodlr_apply(H, X, side=side), blockwise_apply(256, H.levels, H.leaves, X, side))
    np.testing.assert_array_equal(X, X0)


def test_fold_depth_rule():
    # blocks of size m <= min(max(4k, FOLD_ROWS), 2w) are folded: the
    # poisson-16k layout at 64 columns (4k = FOLD_ROWS = 32), the exphard-1k
    # one down to m = 32 although 4k = 4, the fixed layouts of apply_cases,
    # and none for one column at k = 4 (building them would cost more)
    assert hodlr.FOLD_ROWS == 32
    assert fold_depth(16384, 8, 64) == 3
    assert fold_depth(1024, 1, 64) == 6
    assert fold_depth(64, 1, 1) == 2 and fold_depth(64, 1, 2) == 3
    assert fold_depth(8, 2, 2) == 2 == level_count(8, 2)
    assert fold_depth(8, 2, 1) == 1
    assert fold_depth(256, 4, 1) == 0 and fold_depth(256, 4, 8) == 3


@pytest.mark.parametrize("w", [1, 2, 3, 8])
@pytest.mark.parametrize("side", ["forward", "transpose"])
def test_folded_band_with_zero_ragged_and_above_k_ranks(side, w):
    # k = 1, L = 6: levels 4-6 (m = 4, 2, 1) are folded for w = 2, 3 and
    # levels 2-6 for w = 8, level 5 is all rank 0, level 4 has ranks 0 to 4
    # (above k), level 6 is ragged
    rng = stream(2, 7)
    ranks = {1: [1, 0], 2: [1, 1, 0, 1], 3: [0, 1] * 4, 4: [0, 1, 2, 3, 4] * 3 + [2],
             5: [0] * 32, 6: [1, 0] * 32}
    stacks = [random_stack(rng, 1 << ell, 64 >> ell, ranks[ell]) for ell in range(1, 7)]
    H = assemble(stacks, rng.standard_normal((64, 1, 1)), n=64, k=1, check_rank=False)
    X = rng.standard_normal((64, w))
    assert fold_depth(64, 1, w) == {1: 2, 2: 3, 3: 3, 8: 5}[w]
    assert_close(hodlr_apply(H, X, side=side), blockwise_apply(64, H.levels, H.leaves, X, side))


def test_flop_counter_counts_the_fold():
    # top levels 4 n r w each, folded levels 2 n m r each (their dense
    # blocks), and the dense diagonal blocks 2 n D w
    n, k, w = 256, 4, 8
    H = random_hodlr(n, k, stream(2, 8))
    c = FlopCounter()
    hodlr_apply(H, np.ones((n, w)), counter=c)
    L, folded = level_count(n, k), fold_depth(n, k, w)
    top = (L - folded) * 4 * n * k * w
    fold = sum(2 * n * (n >> ell) * k for ell in range(L - folded + 1, L + 1))
    assert c.flops == top + fold + 2 * n * (n >> (L - folded)) * w


# Rank-1 products padded to rank 2 -------------------------------------------------

def awkward(rng, shape):
    """Gaussian entries with exact zeros of both signs, subnormals, and pairs
    whose products underflow to -0.0."""
    F = rng.standard_normal(shape).ravel()
    F[::5] = 0.0
    F[1::5] = -0.0
    F[2::5] = rng.choice([5e-324, -5e-324, 1e-310, -2.2e-308], F[2::5].size)
    F[3::5] = rng.choice([1e-200, -1e-200], F[3::5].size)
    return F.reshape(shape)


@pytest.mark.parametrize("count, k, s", [(3, 4, 5), (1, 8, 1), (6, 2, 64), (2, 64, 16)])
def test_padded_rank1_product_has_the_bytes_of_matmul(count, k, s):
    # (count, k, 1) @ (count, 1, s) below and above PAD_RANK1 output entries
    # per matrix: padded to inner dimension 2 it goes to BLAS, unpadded to
    # numpy's own loop, and each entry is the same rounded product
    rng = stream(2, 16)
    E, P = awkward(rng, (count, k, 1)), awkward(rng, (count, 1, s))
    loop = np.matmul(E, P)
    padded = np.matmul(hodlr._pad_inner(E, left=True), hodlr._pad_inner(P, left=False))
    assert digest(padded) == digest(loop)
    # np.multiply keeps the sign of -0.0 products, which both matmuls give as
    # +0.0: it is no drop-in for the padded product
    negzero = np.signbit(E * P) & (E * P == 0)
    assert negzero.any() and not np.signbit(loop[negzero]).any()
    assert digest(np.multiply(E, P)) != digest(loop)


@pytest.fixture(scope="module")
def rank1_layouts():
    """k = 1 layouts at n = 1024: a random one and a GN2 exp-hard peel."""
    op = bench.exp_hard_operator(1024)
    H, _ = peel.run_peel(op, bench.preset_config("GN2", 1, 0.25, seed=0), allow_invalid=True)
    return {"random": random_hodlr(1024, 1, stream(2, 17)), "exp_hard": H}


@pytest.mark.parametrize("layout", ["random", "exp_hard"])
@pytest.mark.parametrize("side", ["forward", "transpose"])
@pytest.mark.parametrize("w, order", [(1, "C"), (64, "C"), (129, "C"), (64, "F")])
def test_padded_route_gives_the_bits_of_the_loop(rank1_layouts, monkeypatch, layout, side, w,
                                                 order):
    H = rank1_layouts[layout]
    X = np.asarray(stream(2, 18).standard_normal((1024, w)), order=order)
    outputs = {}
    for route, floor in ROUTE.items():
        monkeypatch.setattr(hodlr, "PAD_RANK1", floor)
        outputs[route] = digest(hodlr_apply(H, X, side=side)), digest(H.to_dense())
    assert outputs["on"] == outputs["default"] == outputs["off"]


def test_exp_hard_peel_gives_the_same_container_with_and_without_the_route(monkeypatch):
    op = bench.exp_hard_operator(1024)
    containers = set()
    for floor in ROUTE.values():
        monkeypatch.setattr(hodlr, "PAD_RANK1", floor)
        for preset, beta in (("RSVD1", 0.5), ("GN2", 0.25)):
            H, _ = peel.run_peel(op, bench.preset_config(preset, 1, beta, seed=1),
                                 allow_invalid=True)
            containers.add((preset, hashlib.sha256(to_bytes(H)).hexdigest()))
    assert len(containers) == 2


# The peel's recovered-level correction -------------------------------------------

def dense_levels(n, stacks):
    """The level stacks' blocks as one dense n x n matrix."""
    D = np.zeros((n, n))
    for ell, stack in enumerate(stacks, start=1):
        blocks = block_view(D, ell, 1)
        blocks += stack.dense().reshape(blocks.shape)
    return D


def read_blocks(products, cols, s):
    """The blocks a level reads from its sketch products, one at a time:
    entry i = c a + p, at [p, a], is column group cols[i] of the partner row
    block i ^ 1 of product p (perforated, c = 2) or of row block i of the one
    product (c = 1)."""
    c, d = len(products), len(cols)
    m = products[0].shape[0] // d
    out = np.empty((c, d // c, m, s))
    for i, g in enumerate(cols):
        row = i ^ 1 if c == 2 else i
        out[i % c, i // c] = products[i % c][row * m:(row + 1) * m, g * s:(g + 1) * s]
    return out


def level_sketch(rng, kind, leaf, n, d, s, t):
    """(sketch inputs, (n, s') input blocks, column groups) of a peeling
    level's sketch, as ``peel`` builds them: a perforated Gaussian family or
    zero-padded stacked bases under a perforated count sketch (rsvd); for
    the leaves, the unperforated sum of a Gaussian family or the stacked
    padded identity under a count sketch."""
    key = (int(rng.integers(2**31)), 1)
    m = n // d
    if kind == "gaussian":
        fam = sketch.sample_rand_perf_gaussian(n, d, s, t, key)
        blocks = fam.gaussian_blocks.reshape(n, s)
        inputs = assembled(fam)
        return (sum(inputs),) if leaf else inputs, blocks, fam.selector_plus.cols
    if leaf:
        eye = np.eye(m, max(s, m))
        blocks = np.tile(eye, (d, 1))
        zeta = sketch.sample_countsketch(d, t, key)
        return (sketch.bullet(zeta.entries, blocks),), blocks, zeta.cols
    ranks = rng.integers(0, s + 1, d)
    blocks = (rng.standard_normal((d, m, s)) * (np.arange(s) < ranks[:, None, None]))
    blocks = blocks.reshape(n, s)
    zetas = sketch.sample_perf_countsketch(d, t, key)
    return tuple(sketch.bullet(z.entries, blocks) for z in zetas), blocks, zetas[0].cols


@settings(max_examples=150, deadline=None)
@given(
    case=st.one_of(mixed_rank_hodlr(w=st.just(1)),
                   mixed_rank_hodlr(k=st.just(1), L=st.just(6), w=st.just(1))),
    data=st.data(),
)
def test_correction_matches_dense_subtraction_then_gather(case, data):
    # Level ell = 2..L reads a perforated sketch against levels 1..ell-1;
    # ell = L + 1 stands for the leaves, an unperforated sketch against all
    # L levels.  STEP_ENTRIES 1 forces one block per step, so that every
    # level larger than a block sums over the steps.
    H, stacks, _ = case
    n, L = H.n, H.L
    ell = data.draw(st.integers(2, L + 1), label="ell")
    kind = data.draw(st.sampled_from(["gaussian", "bases"]), label="kind")
    side = data.draw(st.sampled_from(["forward", "transpose"]), label="side")
    t = data.draw(st.sampled_from([1, 2, 4]), label="t")
    s = data.draw(st.integers(1, 5), label="s")
    step = data.draw(st.sampled_from([1, 64, hodlr.STEP_ENTRIES]), label="step")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    inputs, blocks, cols = level_sketch(rng, kind, ell > L, n, 1 << min(ell, L), s, t)
    recovered = stacks[: ell - 1]
    D = dense_levels(n, recovered)
    ref = read_blocks([(D if side == "forward" else D.T) @ x for x in inputs],
                      cols, blocks.shape[1])
    out = np.zeros(ref.shape)
    with mock.patch.object(hodlr, "STEP_ENTRIES", step):
        apply_contributions(recovered, blocks, cols, out, side)
    assert np.linalg.norm(out + ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("step", [1, hodlr.STEP_ENTRIES])
@pytest.mark.parametrize("t", [1, 2, 4])
@pytest.mark.parametrize("side", ["forward", "transpose"])
def test_flop_counter_counts_only_the_read_blocks(side, t, step, monkeypatch):
    # 4 n r s per recovered level for both parities together.  The
    # whole-sketch product it replaces took 4 n r s t per level and
    # assembled sketch: 2t times as much for a perforated pair, t times for
    # the unperforated leaf sketch.  One block per step makes every level
    # larger than a block sum over the steps.
    monkeypatch.setattr(hodlr, "STEP_ENTRIES", step)
    n, k, s = 256, 4, 6
    H = random_hodlr(n, k, stream(2, 9))
    rng = np.random.default_rng(9)
    for ell in range(2, H.L + 2):
        leaf = ell > H.L
        inputs, blocks, cols = level_sketch(rng, "gaussian", leaf, n, 1 << min(ell, H.L), s, t)
        recovered = H.stacks[: ell - 1]
        D = dense_levels(n, recovered)
        ref = read_blocks([(D if side == "forward" else D.T) @ x for x in inputs], cols, s)
        out = np.zeros(ref.shape)
        c = FlopCounter()
        apply_contributions(recovered, blocks, cols, out, side, counter=c)
        assert c.flops == (ell - 1) * 4 * n * k * s
        assert_close(-out, ref)


# best_hodlr ---------------------------------------------------------------------

def test_best_hodlr_exact_on_hodlr_input():
    H = random_hodlr(32, 2, stream(3, 0))
    A = H.to_dense()
    He = best_hodlr(A, 2)
    assert np.linalg.norm(A - He.to_dense()) <= 1e-12 * np.linalg.norm(A)


@pytest.mark.parametrize("shape", [(8,), (8, 4)])
def test_best_hodlr_rejects_non_square_input(shape):
    with pytest.raises(StructureError) as err:
        best_hodlr(np.zeros(shape), 1)
    assert str(err.value) == f"need a square matrix, got {shape}"


def test_best_hodlr_hard_block_value():
    # squared optimum equals 4 ||X||_F^2 = 4k on the adversarial block matrix
    from hodlrpeel import linops

    for k in (1, 2):
        A = linops.make_hard_block_instance(k, 10.0).materialize()
        opt2 = np.linalg.norm(A - best_hodlr(A, k).to_dense()) ** 2
        assert math.isclose(opt2, 4.0 * k, rel_tol=1e-12)


def test_best_hodlr_exp_hard_value():
    # squared optimum equals n/2 - 1
    from hodlrpeel import linops

    A = linops.make_exp_hard_instance(4, 1e8).materialize()
    opt2 = np.linalg.norm(A - best_hodlr(A, 1).to_dense()) ** 2
    assert math.isclose(opt2, 7.0, rel_tol=1e-9)


def test_best_hodlr_block_for_block_against_brute_force():
    rng = stream(3, 1)
    for trial in range(10):
        A = rng.standard_normal((16, 16))
        H = best_hodlr(A, 2)
        for ell, factors in enumerate(H.levels, start=1):
            m = 16 >> ell
            for j, f in enumerate(factors):
                r = partner(j)
                block = A[r * m:(r + 1) * m, j * m:(j + 1) * m]
                s = np.linalg.svd(block, compute_uv=False)
                oracle_err = math.sqrt(np.sum(s[2:] ** 2))
                err = np.linalg.norm(block - f.dense())
                assert abs(err - oracle_err) <= 1e-12


def test_best_hodlr_dominates_perturbed_candidates():
    rng = stream(3, 2)
    for trial in range(50):
        A = rng.standard_normal((16, 16))
        H = best_hodlr(A, 2)
        best = np.linalg.norm(A - H.to_dense())
        for _ in range(10):
            # candidate: re-truncate around a perturbed matrix, still HODLR(2)
            C = best_hodlr(A + 0.3 * rng.standard_normal((16, 16)), 2)
            assert best <= np.linalg.norm(A - C.to_dense()) + 1e-12


# serialization --------------------------------------------------------------------

def test_assemble_full_peel_roundtrip():
    # peeling an exactly-HODLR(2) matrix and reassembling reproduces it
    from hodlrpeel import linops, peel

    H0 = random_hodlr(64, 2, stream(3, 3))
    A = H0.to_dense()
    op = linops.make_dense_operator(A)
    cfg = peel.PeelConfig(k=2, s_R=4, s_L=8, seed=0)
    H, _ = peel.run_peel(op, cfg)
    assert np.linalg.norm(A - H.to_dense()) <= 1e-9 * np.linalg.norm(A)


def test_to_dense_guard():
    # both are above linops.DESK_SCALE_LIMIT (4096), the one dense-size guard
    for H in (HodlrMatrix(n=16384, k=2), random_hodlr(8192, 8, stream(4, 1))):
        with pytest.raises(StructureError):
            H.to_dense()


def test_equality_is_identity_and_does_not_raise():
    # the containers hold arrays, so == compares identity, not contents
    H = random_hodlr(16, 2, stream(1))
    K = from_bytes(to_bytes(H))
    assert H == H and H != K
    assert H != dataclasses.replace(H, leaves=H.leaves.copy())
    assert H.stacks[0] == H.stacks[0] and H.stacks[0] != K.stacks[0]


def test_roundtrip_identity():
    H = assemble(empty_stacks(8, 2), [np.eye(2)] * 4, n=8, k=2)
    K = from_bytes(to_bytes(H))
    np.testing.assert_array_equal(H.to_dense(), K.to_dense())


def test_roundtrip_random_bit_exact():
    H = random_hodlr(64, 3, stream(4, 0))
    K = from_bytes(to_bytes(H))
    assert K.n == H.n and K.k == H.k and K.L == H.L
    for fa, fb in zip(sum(H.levels, []), sum(K.levels, [])):
        np.testing.assert_array_equal(fa.Q, fb.Q)
        np.testing.assert_array_equal(fa.X, fb.X)
    for a, b in zip(H.leaves, K.leaves):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(case=mixed_rank_hodlr())
def test_roundtrip_keeps_padded_stacks(case):
    H, _, _ = case
    buf = to_bytes(H)
    assert buf == blockwise_container(H)
    K = from_bytes(buf)
    for a, b in zip(H.stacks, K.stacks):
        np.testing.assert_array_equal(a.Q, b.Q)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.ranks, b.ranks)
    np.testing.assert_array_equal(H.leaves, K.leaves)
    assert to_bytes(K) == buf


def test_serialize_deterministic_bytes():
    a = to_bytes(random_hodlr(32, 2, stream(4, 1)))
    b = to_bytes(random_hodlr(32, 2, stream(4, 1)))
    assert a == b


def test_corruption_detected():
    buf = bytearray(to_bytes(random_hodlr(16, 2, stream(4, 2))))
    buf[40] ^= 0xFF
    with pytest.raises(SerializationError):
        from_bytes(bytes(buf))
    with pytest.raises(SerializationError):
        from_bytes(b"NOTMAGIC" + bytes(buf[8:]))


def rechecksummed(payload):
    payload = bytes(payload)
    return payload + hashlib.sha256(payload).digest()[:8]


# Header: magic (8 bytes), then version, n, k, L as <IQII at offset 8; the
# first block record <II (index, rank) follows at offset 28.
@pytest.mark.parametrize("fmt, offset, value", [
    ("<I", 32, 10**6),  # first rank far above the block size
    ("<I", 32, 8),      # first rank = block size: the data runs out
    ("<Q", 12, 32),     # n whose layout for k = 2 has 4 levels, not 3
    ("<Q", 12, 100),    # n with no HODLR layout for k = 2
    ("<I", 20, 0),      # k = 0
    ("<I", 24, 9),      # L disagrees with (n, k)
])
def test_tampered_rechecksummed_header_raises_serialization_error(fmt, offset, value):
    payload = bytearray(to_bytes(random_hodlr(16, 2, stream(4, 4)))[:-8])
    struct.pack_into(fmt, payload, offset, value)
    with pytest.raises(SerializationError):
        from_bytes(rechecksummed(payload))


def test_truncated_rechecksummed_payload_raises_serialization_error():
    payload = to_bytes(random_hodlr(16, 2, stream(4, 5)))[:-8]
    for cut in (1, 8, 100, len(payload) - 40):
        with pytest.raises(SerializationError):
            from_bytes(rechecksummed(payload[:-cut]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_rechecksummed_container_raises_only_serialization_error(data):
    payload = bytearray(to_bytes(random_hodlr(16, 2, stream(4, 6)))[:-8])
    for _ in range(data.draw(st.integers(1, 4))):
        payload[data.draw(st.integers(0, len(payload) - 1))] = data.draw(st.integers(0, 255))
    try:
        from_bytes(rechecksummed(payload))
    except SerializationError:
        pass


@pytest.mark.parametrize("cpus, floor", [(2, 1), (1, hodlr.HASH_AHEAD)])
def test_checksum_mismatch_is_reported_before_a_parse_error(monkeypatch, cpus, floor):
    # The pool thread hashes while the parse fails on the first rank; the
    # checksum, not the rank, is reported, pooled or inline.
    monkeypatch.setattr(halves, "CPUS", cpus)
    monkeypatch.setattr(hodlr, "HASH_AHEAD", floor)
    buf = bytearray(to_bytes(random_hodlr(16, 2, stream(4, 4))))
    struct.pack_into("<I", buf, 32, 10**6)  # the first rank, far above the block size
    with pytest.raises(SerializationError, match="checksum mismatch"):
        from_bytes(bytes(buf))
    with pytest.raises(SerializationError, match="rank 1000000 exceeds block size 8"):
        from_bytes(rechecksummed(buf[:-8]))


def lying_container(n, k, ell, lies, data=True, tail=0):
    """A rechecksummed container of the (n, k) layout that ends after level
    ``ell`` and ``tail`` zero bytes.  Every block of levels 1..ell has rank 0
    but block j of level ell for each j in ``lies``, whose record has rank
    ``lies[j]`` and, with ``data``, that rank's Q and X words (zeros)."""
    parts = [hodlr.MAGIC, struct.pack("<IQII", hodlr.FORMAT_VERSION, n, k, level_count(n, k))]
    for level in range(1, ell + 1):
        for j in range(1 << level):
            r = lies.get(j, 0) if level == ell else 0
            parts.append(struct.pack("<II", j, r) + bytes(16 * (n >> level) * r if data else 0))
    return rechecksummed(b"".join(parts) + bytes(tail))


def traced_peak(fn, *args):
    """Peak bytes traced by ``tracemalloc`` while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("rank, size", [(4, 327_700), (1024, 17_039_380)])
def test_lying_deep_level_raises_before_allocating(rank, size):
    # n = 2^24, k = 1 declares 24 levels; these end after level 14, whose
    # block 0 has rank 4 or 1024 (its Q and X present).  Its padded level
    # would take 1 GB or 256 GiB; no level may be allocated before the walk
    # has found the end of the container.
    buf = lying_container(1 << 24, 1, 14, {0: rank})
    assert len(buf) == size

    def read():
        with pytest.raises(SerializationError, match="container ends before level 15 block 0"):
            from_bytes(buf)

    assert traced_peak(read) < 2 * len(buf)


@settings(max_examples=40, deadline=None)
@given(ell=st.integers(8, 12), depth=st.integers(4, 28),
       lies=st.dictionaries(st.integers(0, 255), st.integers(1, 2**32 - 1), min_size=1,
                            max_size=3),
       tail=st.integers(0, 1 << 16))
def test_lying_ranks_at_a_deep_level_raise_before_allocating(ell, depth, lies, tail):
    # Record headers that claim ranks (some above the block size) at level
    # 8 to 12 of a layout of 12 to 40 levels, of blocks of 2^depth rows.  The
    # lying blocks' words are written when they take 128 KB or less, so that
    # the walk may get past the level; otherwise they are missing.
    data = (16 << depth) * max(lies.values()) <= 1 << 17
    buf = lying_container(1 << (ell + depth), 1, ell, lies, data=data, tail=tail)

    def read():
        with pytest.raises(SerializationError):
            from_bytes(buf)

    assert traced_peak(read) < 2 * len(buf)


def test_save_load_file(tmp_path):
    H = random_hodlr(16, 2, stream(4, 3))
    path = tmp_path / "h.hodlr"
    hodlr.save(H, path)
    K = hodlr.load(path)
    np.testing.assert_array_equal(H.to_dense(), K.to_dense())
