import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodlrpeel import hodlr
from hodlrpeel.hodlr import (
    FlopCounter,
    HodlrMatrix,
    SerializationError,
    StructureError,
    apply_contributions,
    assemble,
    best_hodlr,
    from_bytes,
    hodlr_apply,
    level_count,
    partner,
    random_hodlr,
    to_bytes,
)
from hodlrpeel.lowrank import LowRankFactors
from hodlrpeel.rng import stream


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


@st.composite
def mixed_rank_hodlr(draw):
    """A HODLR layout whose blocks have any rank from 0 to the block size:
    whole rank-0 levels, mixed ranks below the padded width, and untruncated
    ranks above k."""
    k = draw(st.integers(1, 4))
    L = draw(st.integers(1, 4))
    n = draw(st.integers(k // 2 + 1, k)) << L
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stacks = []
    for ell in range(1, L + 1):
        m, d = n >> ell, 1 << ell
        ranks = np.array(draw(st.one_of(
            st.just([0] * d), st.lists(st.integers(0, m), min_size=d, max_size=d)
        )))
        # Gaussian factors, zeroed past each block's rank.
        r = ranks.max()
        Q = rng.standard_normal((d, m, r)) * (np.arange(r) < ranks[:, None, None])
        X = rng.standard_normal((d, r, m)) * (np.arange(r)[:, None] < ranks[:, None, None])
        stacks.append(LowRankFactors(Q, X, ranks))
    m = n >> L
    leaves = rng.standard_normal((1 << L, m, m))
    X = rng.standard_normal((n, draw(st.integers(1, 5))))
    return assemble(stacks, leaves, n=n, k=k, check_rank=False), stacks, X


def assert_close(out, ref):
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=60, deadline=None)
@given(case=mixed_rank_hodlr(), side=st.sampled_from(["forward", "transpose"]))
def test_stacked_kernel_matches_blockwise_products(case, side):
    H, contribs, X = case
    assert_close(hodlr_apply(H, X, side=side),
                 blockwise_apply(H.n, H.levels, H.leaves, X, side))
    assert_close(apply_contributions(contribs, X, side=side),
                 blockwise_apply(H.n, H.levels, [], X, side))
    K = from_bytes(to_bytes(H))
    assert_close(hodlr_apply(K, X, side=side),
                 blockwise_apply(H.n, H.levels, H.leaves, X, side))


@settings(max_examples=20, deadline=None)
@given(case=mixed_rank_hodlr(), side=st.sampled_from(["forward", "transpose"]))
def test_second_apply_reuses_cached_tensors_bit_identically(case, side):
    H, contribs, X = case
    first = hodlr_apply(H, X, side=side)
    np.testing.assert_array_equal(hodlr_apply(H, X, side=side), first)
    once = apply_contributions(contribs, X, side=side)
    np.testing.assert_array_equal(apply_contributions(contribs, X, side=side), once)


# best_hodlr ---------------------------------------------------------------------

def test_best_hodlr_exact_on_hodlr_input():
    H = random_hodlr(32, 2, stream(3, 0))
    A = H.to_dense()
    He = best_hodlr(A, 2)
    assert np.linalg.norm(A - He.to_dense()) <= 1e-12 * np.linalg.norm(A)


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
    H = HodlrMatrix(n=16384, k=2)
    with pytest.raises(StructureError):
        H.to_dense()


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


def blockwise_container(H):
    """The container written one block record at a time: the reference for
    the per-level records of ``to_bytes``."""
    parts = [hodlr.MAGIC, struct.pack("<IQII", hodlr.FORMAT_VERSION, H.n, H.k, H.L)]
    for factors in H.levels:
        for j, f in enumerate(factors):
            parts += [struct.pack("<II", j, f.rank), f.Q.astype("<f8").tobytes(),
                      f.X.astype("<f8").tobytes()]
    payload = b"".join(parts + [H.leaves.astype("<f8").tobytes()])
    return payload + hashlib.sha256(payload).digest()[:8]


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


def test_save_load_file(tmp_path):
    H = random_hodlr(16, 2, stream(4, 3))
    path = tmp_path / "h.hodlr"
    hodlr.save(H, path)
    K = hodlr.load(path)
    np.testing.assert_array_equal(H.to_dense(), K.to_dense())
