import numpy as np
import pytest

from hodlrpeel import linops
from hodlrpeel.linops import FORWARD, TRANSPOSE
from hodlrpeel.rng import stream

from helpers import save_dense_csv


def dense_from_queries(op):
    """Oracle: reconstruct the dense matrix column by column through apply."""
    cols = [op.apply(np.eye(op.n)[:, [j]], FORWARD)[:, 0] for j in range(op.n)]
    return np.column_stack(cols)


def test_identity_forward():
    op = linops.make_dense_operator(np.eye(2))
    x = np.array([[1.0], [0.0]])
    np.testing.assert_allclose(op.apply(x, FORWARD), x)


def test_hand_transpose():
    op = linops.make_dense_operator([[0.0, 1.0], [2.0, 0.0]])
    out = op.apply(np.array([[1.0], [0.0]]), TRANSPOSE)
    np.testing.assert_allclose(out, [[0.0], [1.0]])


def test_zero_block_counts():
    op = linops.make_dense_operator(stream(0, 1).standard_normal((5, 5)))
    out = op.apply(np.zeros((5, 3)), FORWARD)
    assert not out.any()
    assert op.counter.forward_count == 3
    op.apply(np.zeros((5, 2)), TRANSPOSE)
    assert op.counter.transpose_count == 2


def test_counter_is_monotone_and_exact():
    op = linops.make_dense_operator(np.eye(4))
    for b in (1, 2, 5):
        before = op.counter.forward_count
        op.apply(np.ones((4, b)), FORWARD)
        assert op.counter.forward_count == before + b


def test_dimension_mismatch_rejected():
    op = linops.make_dense_operator(np.eye(3))
    with pytest.raises(linops.DimensionError):
        op.apply(np.ones((4, 1)), FORWARD)


def test_complex_block_rejected_uncounted():
    # a float cast would drop the imaginary part with only a ComplexWarning
    op = linops.make_dense_operator(np.eye(3), name="eye")
    for X in (np.ones((3, 2)) + 1j, [1j, 0, 0]):
        with pytest.raises(linops.DimensionError, match="eye: need a real block, not complex128"):
            op.apply(X, TRANSPOSE)
    assert op.counter.snapshot() == (0, 0)


def test_dense_operator_columns_and_rows():
    M = stream(0, 2).standard_normal((8, 8))
    op = linops.make_dense_operator(M)
    for j in range(8):
        e = np.eye(8)[:, j]
        np.testing.assert_allclose(op.apply(e, FORWARD), M[:, j])
        np.testing.assert_allclose(op.apply(e, TRANSPOSE), M[j, :])


@pytest.mark.parametrize(
    "make",
    [
        lambda: linops.make_dense_operator(stream(1, 0).standard_normal((16, 16))),
        lambda: linops.make_poisson_operator(8),
        lambda: linops.make_kernel_operator(linops.helix_points(64, stream(1, 1))),
        lambda: linops.make_hard_block_instance(2, 10.0),
        lambda: linops.make_exp_hard_instance(5, 7.0),
    ],
)
def test_forward_transpose_consistency(make):
    # apply(e_j) stacked reconstructs M; the transpose side must then act as M^T
    op = make()
    if op.n > 64:
        pytest.skip("oracle is desk scale")
    M = dense_from_queries(op)
    X = stream(1, 2).standard_normal((op.n, 3))
    out = op.apply(X, TRANSPOSE)
    assert np.linalg.norm(out - M.T @ X) <= 1e-10 * max(np.linalg.norm(M.T @ X), 1.0)


@pytest.mark.parametrize(
    "M",
    [
        linops.make_exp_hard_instance(10, 7.0).materialize(),
        stream(1, 3).standard_normal((300, 300)),
    ],
    ids=["exp_hard_1024", "gaussian_300"],
)
def test_dense_transpose_matches_explicit_transpose(M):
    # the transpose side is computed as (X^T M)^T; M is not symmetric here
    n = M.shape[0]
    assert not np.array_equal(M, M.T)
    op = linops.make_dense_operator(M)
    wide = stream(1, 4).standard_normal((n, 2 * 64))
    blocks = [stream(1, 5, w).standard_normal((n, w)) for w in (0, 1, 2, 3, 17, 64)]
    blocks.append(wide[:, ::2])  # a non-contiguous column slice, width 64
    for X in blocks:
        before = op.counter.transpose_count
        out = op.apply(X, TRANSPOSE)
        want = M.T @ X
        assert out.shape == (n, X.shape[1])
        assert np.linalg.norm(out - want) <= 1e-14 * np.linalg.norm(want)
        assert op.counter.transpose_count == before + X.shape[1]
    x = stream(1, 6).standard_normal(n)
    out = op.apply(x, TRANSPOSE)
    assert out.shape == (n,)
    assert np.linalg.norm(out - M.T @ x) <= 1e-14 * np.linalg.norm(M.T @ x)


# Poisson operator ------------------------------------------------------------

def dense_poisson_oracle(t):
    """Independent construction through explicit DFT matrices."""
    n = t * t
    idx = np.arange(t)
    W = np.exp(-2j * np.pi * np.outer(idx, idx) / t)
    F2 = np.kron(W, W)
    kappa = np.where(idx <= t // 2 - 1, idx, idx - t).astype(float)
    denom = kappa[:, None] ** 2 + kappa[None, :] ** 2
    D = np.zeros((t, t))
    D[denom > 0] = -1.0 / denom[denom > 0]
    return np.real(np.linalg.inv(F2) @ np.diag(D.ravel()) @ F2)


def poisson_spectral_laplacian(t):
    """Dense spectral periodic Laplacian, the (pseudo-)inverse of the Poisson
    operator on the mean-zero subspace."""
    n = t * t
    idx = np.arange(t)
    kappa = np.where(idx <= t // 2 - 1, idx, idx - t).astype(float)
    mult = -(kappa[:, None] ** 2 + kappa[None, :] ** 2)
    F = np.fft.fft2(np.eye(n).reshape(-1, t, t))
    return np.fft.ifft2(mult[None, :, :] * F).real.reshape(-1, n).T


def test_poisson_against_dft_oracle_and_symmetry():
    t = 4
    op = linops.make_poisson_operator(t)
    M = dense_from_queries(op)
    np.testing.assert_allclose(M, dense_poisson_oracle(t), atol=1e-12)
    assert np.linalg.norm(M - M.T) <= 1e-12 * np.linalg.norm(M)


def test_poisson_product_leaves_input_and_repeats_bitwise():
    # the half spectrum is scaled in place, which must not reach X
    op = linops.make_poisson_operator(16)
    X = stream(1, 7).standard_normal((op.n, 5))
    X0 = X.copy()
    first = op.apply(X, FORWARD)
    assert np.array_equal(X, X0)
    assert np.array_equal(op.apply(X, FORWARD), first)
    assert np.array_equal(op.apply(X, TRANSPOSE), first)
    assert op.apply(np.zeros((op.n, 0)), FORWARD).shape == (op.n, 0)


def test_poisson_single_mode_eigenvector():
    # a pure (1, 0) harmonic has multiplier -1/(1^2 + 0^2) = -1
    t = 8
    op = linops.make_poisson_operator(t)
    grid_x = np.arange(t)
    f = np.cos(2 * np.pi * grid_x / t)[:, None] * np.ones((1, t))
    f = f.ravel()
    np.testing.assert_allclose(op.apply(f, FORWARD), -f, atol=1e-12)


def test_poisson_kills_constants():
    op = linops.make_poisson_operator(6)
    out = op.apply(np.ones(36), FORWARD)
    assert np.linalg.norm(out) <= 1e-12


def test_poisson_pseudoinverse_of_spectral_laplacian():
    t = 8
    n = t * t
    op = linops.make_poisson_operator(t)
    Lap = poisson_spectral_laplacian(t)
    A = dense_from_queries(op)
    P = np.eye(n) - np.ones((n, n)) / n  # projector onto mean-zero
    assert np.linalg.norm(Lap @ A - P) <= 1e-8 * np.linalg.norm(P)


def test_poisson_rejects_odd_grid():
    with pytest.raises(linops.DimensionError):
        linops.make_poisson_operator(5)


# Kernel operator -------------------------------------------------------------

def test_kernel_two_points():
    pts = [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
    op = linops.make_kernel_operator(pts)
    np.testing.assert_allclose(op.materialize(), [[0.0, 0.5], [0.5, 0.0]])


def test_kernel_zero_diagonal():
    pts = linops.helix_points(32, stream(2, 0))
    M = linops.make_kernel_operator(pts).materialize()
    assert not np.diag(M).any()


def test_kernel_columns_match_direct_assembly():
    pts = linops.helix_points(64, stream(2, 1))
    op = linops.make_kernel_operator(pts)
    # independent dense assembly
    n = len(pts)
    M = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                M[i, j] = 1.0 / np.linalg.norm(pts[i] - pts[j])
    for j in (0, 17, 63):
        np.testing.assert_allclose(op.apply(np.eye(n)[:, j], FORWARD), M[:, j])


def test_kernel_rejects_coincident_points():
    with pytest.raises(linops.DimensionError):
        linops.make_kernel_operator([[0, 0, 0], [0, 0, 0], [1, 1, 1]])


# Hard instances --------------------------------------------------------------

def test_hard_block_layout():
    # k=1, eta=10: the X at block (1,2) puts its 1 at entry (1,3) (1-based),
    # the Y at block (1,3) puts eta at entry (2,6); symmetric overall.
    A = linops.make_hard_block_instance(1, 10.0).materialize()
    assert A.shape == (8, 8)
    assert A[0, 2] == 1.0
    assert A[1, 5] == 10.0
    np.testing.assert_allclose(A, A.T)
    # eight X blocks with k ones each, two Y blocks with k etas each
    assert (A == 1.0).sum() == 8
    assert (A == 10.0).sum() == 2


def test_exp_hard_enumeration():
    # L=3: column 1 has ones at 1-based odd rows {1,3,5,7}; column 2 has eta
    # at rows {2,4,8}
    A = linops.make_exp_hard_instance(3, 5.0).materialize()
    ones_rows = np.flatnonzero(A[:, 0] == 1.0) + 1
    eta_rows = np.flatnonzero(A[:, 1] == 5.0) + 1
    assert list(ones_rows) == [1, 3, 5, 7]
    assert list(eta_rows) == [2, 4, 8]
    assert np.count_nonzero(A) == 4 + 3


def test_exp_hard_eta_zero_degenerates():
    A = linops.make_exp_hard_instance(3, 1e-300).materialize()
    A[np.abs(A) < 1e-100] = 0.0
    assert np.count_nonzero(A[:, 1:]) == 0


@pytest.mark.parametrize("eta", [7.0, 1e8])
def test_exp_hard_products_match_its_dense_matrix(eta):
    # forward copies and scales rows of X, which is what the dense product
    # does when every row has at most one nonzero; the transpose sums rows
    # in another order than the GEMM (a one-column seeded sweep read up to
    # 2.4e-15 relative)
    op = linops.make_exp_hard_instance(10, eta)
    A = op.materialize()
    blocks = [stream(8, w).standard_normal((op.n, w)) for w in (0, 1, 2, 17, 64)]
    blocks.append(stream(8, 100).standard_normal((op.n, 32))[:, ::2])  # non-contiguous
    blocks.append(np.asfortranarray(stream(8, 101).standard_normal((op.n, 5))))
    for X in blocks:
        X0 = X.copy()
        assert np.array_equal(op.apply(X, FORWARD), A @ X)
        out, want = op.apply(X, TRANSPOSE), A.T @ X
        assert out.shape == want.shape
        assert np.linalg.norm(out - want) <= 4e-15 * np.linalg.norm(want)
        assert np.array_equal(X, X0)
    x = stream(8, 102).standard_normal(op.n)
    assert np.array_equal(op.apply(x, FORWARD), A @ x)
    cols = sum(X.shape[1] for X in blocks)
    assert op.counter.snapshot() == (cols + 1, cols)


def test_exp_hard_builds_and_applies_far_above_the_dense_limit():
    # L = 16: a dense matrix would need 32 GB
    L, eta = 16, 3.0
    op = linops.make_exp_hard_instance(L, eta)
    n = op.n
    E = np.zeros((n, 2))
    E[0, 0] = E[1, 1] = 1.0
    cols = op.apply(E, FORWARD)  # columns 1 and 2 of A
    assert list(np.flatnonzero(cols[:, 0]) + 1) == list(range(1, n, 2))
    assert list(np.flatnonzero(cols[:, 1]) + 1) == [2**j for j in range(1, L + 1)]
    assert set(cols[:, 0]) == {0.0, 1.0} and set(cols[:, 1]) == {0.0, eta}
    # the transpose side is the adjoint of the forward side
    X, Y = stream(9, 1).standard_normal((n, 2)), stream(9, 2).standard_normal((n, 2))
    lhs, rhs = op.apply(X, TRANSPOSE).T @ Y, X.T @ op.apply(Y, FORWARD)
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)
    assert op.counter.snapshot() == (4, 2)
    with pytest.raises(linops.DimensionError, match="refusing to materialize"):
        op.materialize()


@pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf])
def test_hard_instances_reject_non_finite_eta(eta):
    with pytest.raises(linops.DimensionError, match="eta"):
        linops.make_hard_block_instance(2, eta)
    with pytest.raises(linops.DimensionError, match="eta"):
        linops.make_exp_hard_instance(3, eta)
    with pytest.raises(linops.DimensionError, match="eta"):
        linops.make_hard_block_instance(2, 1.0)


def test_hard_block_above_the_dense_limit_is_refused_before_it_is_built(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a dense array was built before the size was checked")

    monkeypatch.setattr(np, "block", no_build)
    monkeypatch.setattr(linops, "make_dense_operator", no_build)
    with pytest.raises(linops.DimensionError, match="n=8192 is above DESK_SCALE_LIMIT"):
        linops.make_hard_block_instance(1024, 1e8)


# CSV interchange -------------------------------------------------------------

def test_point_cloud_csv_roundtrip(tmp_path):
    pts = linops.helix_points(10, stream(3, 0))
    path = tmp_path / "pts.csv"
    np.savetxt(path, pts, delimiter=",", fmt="%.17g")
    np.testing.assert_allclose(linops.load_points_csv(path), pts)


def test_dense_csv_roundtrip(tmp_path):
    M = stream(3, 1).standard_normal((6, 6))
    path = tmp_path / "m.csv"
    save_dense_csv(M, path)
    np.testing.assert_allclose(linops.load_dense_csv(path), M)


@pytest.mark.parametrize("side", [FORWARD, TRANSPOSE])
def test_non_finite_output_names_operator_side_and_width(side):
    M = np.eye(4)
    M[2, 1] = np.nan
    op = linops.make_dense_operator(M, name="nan-dense")
    with pytest.raises(
        linops.NonFiniteOutputError,
        match=f"nan-dense: {side} product of a block of width 3 has 3 non-finite",
    ):
        op.apply(np.ones((4, 3)), side)


def test_finite_output_with_overflowing_sum_is_accepted():
    # the entries are finite but their sum overflows to inf
    op = linops.make_dense_operator(np.diag([1e308, 1e308]))
    out = op.apply(np.ones((2, 1)), FORWARD)
    np.testing.assert_array_equal(out, [[1e308], [1e308]])
