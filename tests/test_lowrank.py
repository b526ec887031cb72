import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodlrpeel import lowrank
from hodlrpeel.lowrank import (
    NoiseModel,
    RankError,
    gn_error_bound,
    gn_from_sketches,
    orth,
    pinv_solve,
    rsvd_perturb_bound_rhs,
    truncate_factor,
    truncated_svd,
)
from hodlrpeel.rng import stream

from helpers import gnm, rsvd


def decaying_matrix(m, rate, key):
    rng = stream(42, *key)
    U = orth(rng.standard_normal((m, m)))
    V = orth(rng.standard_normal((m, m)))
    s = rate ** np.arange(m, dtype=float)
    return U @ (s[:, None] * V.T), s


# truncated_svd ----------------------------------------------------------------

def test_truncated_svd_exact_when_rank_small():
    f = truncated_svd(np.eye(3), 3)
    np.testing.assert_allclose(f.dense(), np.eye(3), atol=1e-14)


def test_truncated_svd_trailing_value():
    B = np.diag([3.0, 2.0, 1.0])
    f = truncated_svd(B, 2)
    assert math.isclose(np.linalg.norm(B - f.dense()), 1.0, rel_tol=1e-12)


def test_truncated_svd_matches_full_svd_tail():
    B = stream(0, 0).standard_normal((6, 5))
    f = truncated_svd(B, 2)
    s = np.linalg.svd(B, compute_uv=False)
    expected = math.sqrt(np.sum(s[2:] ** 2))
    assert math.isclose(np.linalg.norm(B - f.dense()), expected, rel_tol=1e-12)
    assert f.rank <= 2
    assert np.linalg.norm(f.Q.T @ f.Q - np.eye(f.rank)) <= 1e-12 * math.sqrt(max(f.rank, 1))
    # stacks, one of empty matrices and one with no matrices, go through the
    # same call and agree with the matrices cut one at a time
    for S in (stream(0, 2).standard_normal((3, 6, 5)), np.zeros((2, 0, 4)), np.zeros((0, 6, 5))):
        f = truncated_svd(S, 2)
        r = min(2, *S.shape[-2:])
        assert f.Q.shape == S.shape[:-1] + (r,) and f.X.shape == S.shape[:-2] + (r, S.shape[-1])
        np.testing.assert_array_equal(f.ranks, np.full(S.shape[0], r))
        for i in range(S.shape[0]):
            np.testing.assert_allclose(f.dense()[i], truncated_svd(S[i], 2).dense(),
                                       rtol=0, atol=1e-12)


def test_truncated_svd_dominates_random_rank_k():
    # brute-force optimality check against random rank-k competitors
    rng = stream(0, 1)
    for trial in range(5):
        m = int(rng.integers(3, 13))
        k = int(rng.integers(1, m))
        B = rng.standard_normal((m, m))
        best = np.linalg.norm(B - truncated_svd(B, k).dense())
        for _ in range(100):
            R = rng.standard_normal((m, k)) @ rng.standard_normal((k, m))
            assert best <= np.linalg.norm(B - R) + 1e-12


# orth --------------------------------------------------------------------------

def test_orth_single_vector():
    Q = orth(np.eye(5)[:, [0]])
    assert Q.shape == (5, 1)
    np.testing.assert_allclose(np.abs(Q[:, 0]), np.eye(5)[:, 0], atol=1e-14)


def test_orth_drops_dependent_columns():
    v = stream(1, 0).standard_normal((6, 1))
    Q = orth(np.hstack([v, 2 * v]))
    assert Q.shape == (6, 1)


def test_orth_projector_property():
    Y = stream(1, 1).standard_normal((8, 3))
    Q = orth(Y)
    assert np.linalg.norm(Q @ (Q.T @ Y) - Y) <= 1e-12 * np.linalg.norm(Y)


def test_orth_zero_gives_empty_basis():
    assert orth(np.zeros((4, 2))).shape == (4, 0)


def test_orth_is_stable_under_tiny_perturbation():
    # the sign canonicalization must keep nearly identical inputs on the same
    # basis, including exact-zero versus 1e-300 rows
    Y = np.vstack([stream(1, 2).standard_normal((1, 4)), np.zeros((1, 4))])
    Y2 = Y.copy()
    Y2[1] = 1e-300
    np.testing.assert_allclose(orth(Y), orth(Y2), atol=1e-12)


# stacked input -------------------------------------------------------------------

@st.composite
def ragged_stack(draw):
    """A stack (d, m, s) of exact-rank blocks with ranks drawn per block from
    0..min(m, s), m down to 1, plus a seeded generator for further data."""
    d = draw(st.integers(1, 5))
    m = draw(st.integers(1, 7))
    s = draw(st.integers(1, 6))
    ranks = draw(st.lists(st.integers(0, min(m, s)), min_size=d, max_size=d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Y = np.stack([
        rng.standard_normal((m, r)) @ rng.standard_normal((r, s)) for r in ranks
    ])
    return Y, rng


def assert_close(a, b):
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    assert np.linalg.norm(a - b) <= 1e-12 * scale


def assert_zero_padded(stack):
    """The layout a HODLR level stores: width the largest rank, and exact
    zeros past each block's rank."""
    ranks = stack.ranks.ravel()
    Q = stack.Q.reshape((ranks.size,) + stack.Q.shape[-2:])
    X = stack.X.reshape((ranks.size,) + stack.X.shape[-2:])
    assert stack.rank == ranks.max(initial=0)
    for q, x, r in zip(Q, X, ranks):
        assert not q[:, r:].any() and not x[r:].any()


@settings(max_examples=80, deadline=None)
@given(case=ragged_stack())
def test_stacked_orth_matches_blockwise(case):
    Y, _ = case
    Q = orth(Y)
    ranks = lowrank.column_ranks(Q)
    for i in range(Y.shape[0]):
        Qi = orth(Y[i])
        assert ranks[i] == Qi.shape[1]
        assert_close(Q[i, :, : ranks[i]], Qi)
        assert not Q[i, :, ranks[i]:].any()


@settings(max_examples=80, deadline=None)
@given(case=ragged_stack(), w=st.integers(1, 5))
def test_stacked_pinv_solve_matches_blockwise(case, w):
    A, rng = case
    B = rng.standard_normal((A.shape[0], A.shape[1], w))
    X = pinv_solve(A, B)
    for i in range(A.shape[0]):
        assert_close(X[i], pinv_solve(A[i], B[i]))
    # one matrix broadcast against the whole stack of right-hand sides
    X0 = pinv_solve(A[0], B)
    for i in range(A.shape[0]):
        assert_close(X0[i], pinv_solve(A[0], B[i]))


@settings(max_examples=80, deadline=None)
@given(case=ragged_stack(), w=st.integers(1, 6), k=st.integers(1, 4))
def test_stacked_truncate_factor_matches_blockwise(case, w, k):
    Y, rng = case
    Q = orth(Y)
    # rows past a block's rank meet zero columns of Q and must be ignored
    X = rng.standard_normal((Y.shape[0], Q.shape[2], w))
    ranks = lowrank.column_ranks(Q)
    # k=None keeps every direction: min(rank, w) per block
    for kk, cut in ((k, k), (None, Q.shape[2])):
        stack = truncate_factor(Q, X, kk)
        assert_zero_padded(stack)
        for i, f in enumerate(stack.factors):
            ref = truncate_factor(Q[i, :, : ranks[i]], X[i, : ranks[i]], kk)
            assert f.rank == ref.rank == min(ranks[i], cut, w)
            assert_close(f.dense(), ref.dense())
            assert_close(stack.dense()[i], ref.dense())


@settings(max_examples=60, deadline=None)
@given(case=ragged_stack(), extra=st.integers(0, 3), k=st.integers(1, 4))
def test_stacked_gn_from_sketches_matches_blockwise(case, extra, k):
    Y, rng = case
    d, m, s = Y.shape
    Psi = rng.standard_normal((d, m, s + extra))
    Z = rng.standard_normal((d, s + extra, m))
    for kk in (k, None):
        stack = gn_from_sketches(Y, Z, Psi, kk)
        assert_zero_padded(stack)
        for i, f in enumerate(stack.factors):
            ref = gn_from_sketches(Y[i], Z[i], Psi[i], kk)
            assert f.rank == ref.rank
            assert_close(f.dense(), ref.dense())


def test_padding_is_exact_zeros_whatever_rounding_the_svd_leaves(monkeypatch):
    # LAPACK returns exact zeros in the null directions of a matrix with zero
    # rows, but a stored level's padding must not rest on that: with rounding
    # added to every singular vector, truncation and the untruncated
    # regression still give exact zeros past each block's rank.
    svd = np.linalg.svd

    def rounding_svd(a, *args, **kwargs):
        out = svd(a, *args, **kwargs)
        if not isinstance(out, tuple):
            return out
        U, s, Vt = out
        return U + 1e-17, s, Vt + 1e-17

    monkeypatch.setattr(np.linalg, "svd", rounding_svd)
    rng = stream(42, 9)
    Y = np.stack([rng.standard_normal((6, r)) @ rng.standard_normal((r, 5))
                  for r in (0, 1, 3, 2)])
    Psi = rng.standard_normal((4, 6, 7))
    Z = rng.standard_normal((4, 7, 6))
    for k in (2, None):
        stack = gn_from_sketches(Y, Z, Psi, k)
        np.testing.assert_array_equal(stack.ranks, [0, 1, 3, 2] if k is None else [0, 1, 2, 2])
        assert_zero_padded(stack)


@settings(max_examples=40, deadline=None)
@given(case=ragged_stack(), extra=st.integers(0, 3), k=st.integers(1, 4))
def test_gn_from_sketches_on_pairs_with_a_strided_partner_view(case, extra, k):
    # peeling's layout: (d/2, 2, m, s) sibling pairs, each block regressed on
    # its partner's Gaussian through the copy-free view G[:, ::-1]
    Y, rng = case
    d, m, s = Y.shape
    Y = np.concatenate([Y, Y[::-1]])
    pairs = d
    G = rng.standard_normal((pairs, 2, m, s + extra))
    Z = rng.standard_normal((pairs, 2, s + extra, m))
    Psi = G[:, ::-1]
    assert not Psi.flags.c_contiguous and np.shares_memory(Psi, G)
    stack = gn_from_sketches(Y.reshape(pairs, 2, m, s), Z, Psi, k)
    assert stack.ranks.shape == (pairs, 2)
    blocks = stack.factors
    for j, f in enumerate(blocks):
        a, b = divmod(j, 2)
        ref = gn_from_sketches(Y[j], Z[a, b], G[a, 1 - b].copy(), k)
        assert f.rank == ref.rank == stack.ranks[a, b]
        assert_close(f.dense(), ref.dense())


# pinv_solve ---------------------------------------------------------------------

def test_pinv_solve_identity():
    B = stream(2, 0).standard_normal((3, 4))
    np.testing.assert_allclose(pinv_solve(np.eye(3), B), B)


def test_pinv_solve_hand_least_squares():
    x = pinv_solve(np.array([[1.0], [1.0]]), np.array([[1.0], [3.0]]))
    np.testing.assert_allclose(x, [[2.0]])


def test_pinv_solve_normal_equations():
    rng = stream(2, 1)
    A = rng.standard_normal((10, 4))
    b = rng.standard_normal((10, 2))
    x = pinv_solve(A, b)
    assert np.linalg.norm(A.T @ (A @ x - b)) <= 1e-10


# rsvd / gnm ----------------------------------------------------------------------

def test_rsvd_exact_on_rank_k():
    rng = stream(3, 0)
    B = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 20))
    f = rsvd(B, 4, 4, stream(3, 1))
    assert np.linalg.norm(B - f.dense()) <= 1e-10 * np.linalg.norm(B)


def test_rsvd_zero_matrix():
    f = rsvd(np.zeros((6, 6)), 2, 3, stream(3, 2))
    assert f.rank == 0
    assert not f.dense().any()


def test_rsvd_counts_queries():
    from hodlrpeel import linops

    B = stream(3, 3).standard_normal((12, 12))
    op = linops.make_dense_operator(B)
    rsvd(op, 2, 5, stream(3, 4))
    assert op.counter.forward_count == 5
    # the transpose side pays one query per captured basis column
    assert op.counter.transpose_count == 5


def test_rsvd_rejects_undersized_sketch():
    with pytest.raises(RankError):
        rsvd(np.eye(4), 3, 2, stream(3, 5))


def test_rsvd_mean_error_under_expectation_bound():
    B, s = decaying_matrix(40, 0.5, (0,))
    opt = math.sqrt(np.sum(s[5:] ** 2))
    errs = [
        np.linalg.norm(B - rsvd(B, 5, 15, stream(4, t)).dense()) for t in range(200)
    ]
    # expectation bound: E err^2 <= (1 + k/(s_R-k-1)) opt^2, so mean err
    # stays well under 1.6 opt
    assert np.mean(errs) <= 1.6 * opt


def test_gnm_exact_on_rank_k():
    rng = stream(5, 0)
    B = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 20))
    for trial in range(100):
        f = gnm(B, 3, 3, 3, stream(5, 1, trial))
        assert np.linalg.norm(B - f.dense()) <= 1e-9 * np.linalg.norm(B)


def test_gnm_rank_one_any_sketches():
    u = stream(5, 2).standard_normal(8)
    B = np.outer(u, np.ones(8))
    for s_L in (1, 4, 8):
        f = gnm(B, 1, 1, s_L, stream(5, 3, s_L))
        assert np.linalg.norm(B - f.dense()) <= 1e-10 * np.linalg.norm(B)


def test_gnm_rejects_bad_ordering():
    with pytest.raises(RankError):
        gnm(np.eye(6), 2, 4, 3, stream(5, 4))


def test_gnm_mean_error_within_expected_envelope():
    B, s = decaying_matrix(40, 0.5, (1,))
    opt2 = float(np.sum(s[5:] ** 2))
    errs = [
        np.linalg.norm(B - gnm(B, 5, 15, 45, stream(6, t)).dense()) ** 2
        for t in range(200)
    ]
    assert np.mean(errs) <= gn_error_bound(5, 15, 45, 0.0, 0.0, opt2)


def test_gnm_mean_error_nonincreasing_in_s_L():
    B, s = decaying_matrix(30, 0.9, (2,))
    stats = []
    for s_L in (12, 18, 30, 60):
        errs = [
            np.linalg.norm(B - gnm(B, 5, 10, s_L, stream(7, s_L, t)).dense())
            for t in range(100)
        ]
        stats.append((np.mean(errs), np.std(errs, ddof=1) / 10))
    for (m0, se0), (m1, se1) in zip(stats, stats[1:]):
        assert m1 <= m0 + 2 * math.hypot(se0, se1)


# gn_from_sketches ------------------------------------------------------------------

def test_gn_from_sketches_recovers_rank_k():
    rng = stream(8, 0)
    B = rng.standard_normal((16, 2)) @ rng.standard_normal((2, 16))
    Omega = rng.standard_normal((16, 2))
    Psi = rng.standard_normal((16, 2))
    Y = B @ Omega
    f = gn_from_sketches(Y, Psi.T @ B, Psi, 2)
    assert np.linalg.norm(B - f.dense()) <= 1e-9 * np.linalg.norm(B)


def test_gn_from_sketches_zero_sketch():
    Y = stream(8, 1).standard_normal((6, 2))
    Psi = stream(8, 2).standard_normal((6, 4))
    f = gn_from_sketches(Y, np.zeros((4, 6)), Psi, 2)
    assert not f.dense().any()


def test_gn_from_sketches_rejects_underdetermined():
    Y = stream(8, 3).standard_normal((6, 3))
    with pytest.raises(RankError):
        gn_from_sketches(Y, np.zeros((2, 6)), np.zeros((6, 2)), 2)


def test_gn_noise_injection_stays_under_pointwise_bound():
    # inject E1 = M Omega~, left noise Psi~^T N and compare the realized
    # error against the deterministic bound on the same realization
    rng = stream(8, 4)
    for trial in range(25):
        m, k, s_R, s_L = 14, 2, 6, 13
        B = rng.standard_normal((m, m))
        noise = NoiseModel(
            M=0.3 * rng.standard_normal((m, 3)), N=0.3 * rng.standard_normal((4, m))
        )
        Omega = rng.standard_normal((m, s_R))
        Psi = rng.standard_normal((m, s_L))
        E1, F = noise.draw(rng, s_R, s_L)
        Y = B @ Omega + E1
        Q = orth(Y)
        psi_t_q = Psi.T @ Q
        f = gn_from_sketches(Y, Psi.T @ B + F, Psi, k)
        lhs = np.linalg.norm(B - f.dense())
        # realized regression output X defines the effective projection noise
        X = pinv_solve(psi_t_q, Psi.T @ B + F)
        E2 = X - Q.T @ B
        rhs = rsvd_perturb_bound_rhs(B, Omega, E1, E2, k)
        assert lhs <= rhs + 1e-10


# bound evaluators ------------------------------------------------------------------

def test_perturb_bound_rhs_noise_free_aligned_sketch():
    B = np.diag([5.0, 4.0, 2.0, 1.0])
    split_k = 2
    V_top = np.eye(4)[:, :2]
    rhs = rsvd_perturb_bound_rhs(B, V_top, np.zeros((4, 2)), np.zeros((2, 4)), split_k)
    expected = math.sqrt(2.0**2 + 1.0**2)
    assert math.isclose(rhs, expected, rel_tol=1e-12)


def test_perturb_bound_rhs_linear_in_e2():
    B = stream(9, 0).standard_normal((6, 6))
    Omega = stream(9, 1).standard_normal((6, 3))
    base = rsvd_perturb_bound_rhs(B, Omega, np.zeros((6, 3)), np.zeros((3, 6)), 2)
    bumped = rsvd_perturb_bound_rhs(B, Omega, np.zeros((6, 3)), B[:3], 2)
    assert math.isclose(bumped - base, 2 * np.linalg.norm(B[:3]), rel_tol=1e-12)


def test_perturb_bound_rejects_rank_deficient_top_sketch():
    B = np.diag([3.0, 2.0, 1.0, 0.5])
    Omega = np.zeros((4, 2))
    Omega[3, :] = 1.0  # misses the top-2 right singular space entirely
    with pytest.raises(RankError):
        rsvd_perturb_bound_rhs(B, Omega, np.zeros((4, 2)), np.zeros((2, 4)), 2)


def test_perturb_bound_pointwise_on_random_instances():
    rng = stream(9, 2)
    for trial in range(200):
        m1 = int(rng.integers(6, 31))
        m2 = int(rng.integers(6, 31))
        k = int(rng.integers(1, min(6, m1, m2)))
        s = int(rng.integers(k, min(m1, m2) + 1))
        B = rng.standard_normal((m1, m2))
        Omega = rng.standard_normal((m2, s))
        E1 = 0.5 * rng.standard_normal((m1, s))
        Q = orth(B @ Omega + E1)
        E2 = 0.5 * rng.standard_normal((Q.shape[1], m2))
        lhs = np.linalg.norm(B - Q @ truncated_svd(Q.T @ B + E2, k).dense())
        rhs = rsvd_perturb_bound_rhs(B, Omega, E1, E2, k)
        assert lhs <= rhs + 1e-10


def test_gn_error_bound_zero_inputs():
    assert gn_error_bound(1, 4, 10, 0.0, 0.0, 0.0) == 0.0


def test_gn_error_bound_worked_example():
    # k=1, s_R=4, s_L=10, opt2=1, no noise:
    # E1 = 1 + 1/2 = 1.5, E2 = 32 * 4 / 5 = 25.6, total 27.1 + 2 sqrt(38.4)
    e1 = 1.0 + 1.0 / (4 - 1 - 1)
    e2 = 32.0 * 4 / (10 - 4 - 1)
    expected = e1 + e2 + 2 * math.sqrt(e1 * e2)
    assert math.isclose(expected, 27.1 + 2 * math.sqrt(38.4), rel_tol=1e-12)
    assert math.isclose(gn_error_bound(1, 4, 10, 0.0, 0.0, 1.0), expected, rel_tol=1e-12)


def test_gn_error_bound_rejects_parameter_violations():
    with pytest.raises(RankError):
        gn_error_bound(2, 5, 30, 0.0, 0.0, 1.0)  # s_R = 2k+1 not allowed
    with pytest.raises(RankError):
        gn_error_bound(1, 4, 9, 0.0, 0.0, 1.0)  # s_L = 2 s_R + 1 not allowed


def test_gn_error_bound_monte_carlo():
    # the expected squared error under the structured noise model must sit
    # under the bound (3-standard-error allowance)
    rng = stream(9, 3)
    k, s_R, s_L, m = 2, 8, 24, 20
    B, s = decaying_matrix(m, 0.5, (3,))
    noise = NoiseModel(
        M=0.1 * rng.standard_normal((m, 5)), N=0.1 * rng.standard_normal((6, m))
    )
    opt2 = float(np.sum(s[k:] ** 2))
    bound = gn_error_bound(
        k, s_R, s_L,
        float(np.linalg.norm(noise.M) ** 2),
        float(np.linalg.norm(noise.N) ** 2),
        opt2,
    )
    errs = []
    for _ in range(400):
        Omega = rng.standard_normal((m, s_R))
        Psi = rng.standard_normal((m, s_L))
        E1, F = noise.draw(rng, s_R, s_L)
        Q = orth(B @ Omega + E1)
        X = pinv_solve(Psi.T @ Q, Psi.T @ B + F)
        errs.append(np.linalg.norm(B - Q @ truncated_svd(X, k).dense()) ** 2)
    mean = np.mean(errs)
    se = np.std(errs, ddof=1) / math.sqrt(len(errs))
    assert mean <= bound + 3 * se
