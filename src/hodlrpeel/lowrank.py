"""Low-rank approximation primitives and executable error bounds.

Truncated SVD, a deterministic rank-revealing orth, the generalized Nystrom
method in its in-peeling "from sketches" form, and evaluators for the
deterministic projection perturbation bound and the expected-error bound that
certify sketched low-rank approximation.

``truncate_factor`` is the one rank-k truncation of a sketched factor
Q [[X]]_k: both peeling steps and the bound checks cut through it.
``truncated_svd`` is the cut of a plain matrix.  These two, ``orth``,
``pinv_solve`` and ``gn_from_sketches`` take a single matrix or a stack with
leading batch axes, through one code path for both, so that peeling factors
all 2^l blocks of a level with one LAPACK call each; ``orth``, ``pinv_solve``
and ``truncate_factor`` split a large stack's call in two halves on two
cores, with the same bits.  Stacked factors are padded to the largest rank of
the stack (see ``LowRankFactors``); such a stack is also how a HODLR level is
stored.  Stacks may be strided views, such as the partner view of a level's
Gaussian blocks; nothing here copies them.
"""

from dataclasses import dataclass

import numpy as np

from .halves import in_halves

EPS = np.finfo(float).eps


class RankError(ValueError):
    """A rank precondition (full-rank top sketch, overdetermined regression,
    parameter ordering) does not hold."""


@dataclass(eq=False)
class LowRankFactors:
    """Rank factorization Q @ X with Q column-orthonormal.

    A stack of factorizations has Q (..., m, r) and X (..., r, w), with any
    leading batch axes, padded to the largest rank r: block b has rank
    ``ranks[b]``, and the columns of Q[b] and rows of X[b] past it are zero
    padding.  ``factors`` gives the blocks one at a time.
    """

    Q: np.ndarray
    X: np.ndarray
    ranks: np.ndarray = None

    @property
    def rank(self) -> int:
        return self.Q.shape[-1]

    def dense(self) -> np.ndarray:
        return self.Q @ self.X

    @property
    def factors(self) -> list:
        """The blocks of a stack, batch axes flattened in C order, each a
        view into the stack cut to its own rank."""
        ranks = np.ravel(self.ranks).tolist()
        Q = self.Q.reshape((len(ranks),) + self.Q.shape[-2:])
        X = self.X.reshape((len(ranks),) + self.X.shape[-2:])
        return [LowRankFactors(Q=q[:, :r], X=x[:r]) for q, x, r in zip(Q, X, ranks)]


def _t(A) -> np.ndarray:
    """Transpose of each matrix in a stack."""
    return np.swapaxes(A, -1, -2)


def column_ranks(Q) -> np.ndarray:
    """Ranks of an ``orth`` output: its nonzero columns, per block of a stack
    (the kept columns are unit vectors, the padding exact zeros); a 0-d
    array for a single matrix."""
    return np.asarray(np.count_nonzero(np.any(Q != 0.0, axis=-2), axis=-1))


def _svd(A) -> list:
    """Thin SVD (U, s, Vt) of a matrix or a stack.  A large stack is factored
    in two halves of its outermost batch axis longer than 1 (for the peel's
    stacks, the halves of the flattened batch), on two cores and without a
    copy; each matrix is factored alone either way, so the bits are those of
    one call."""
    axis = next((i for i, size in enumerate(A.shape[:-2]) if size > 1), None)
    if axis is None:
        return np.linalg.svd(A, full_matrices=False)
    head = (slice(None),) * axis
    parts = in_halves(lambda lo, hi: np.linalg.svd(A[head + (slice(lo, hi),)], full_matrices=False),
                      A.shape[axis], A.size)
    return [np.concatenate(f, axis) if len(f) > 1 else f[0] for f in zip(*parts)]


def truncated_svd(B, k: int) -> LowRankFactors:
    """Best Frobenius rank-k approximation of B (m1, m2), or of each matrix
    of a stack (..., m1, m2).

    Ties at the cut keep the first k triplets in the order returned by the
    deterministic SVD; the factorization is then implementation-defined but
    the approximation error is not.  Inputs of rank < k come back exact.
    Every block keeps min(k, m1, m2) directions, so a stack has no padding.
    """
    B = np.asarray(B, dtype=float)
    if k < 1:
        raise RankError(f"rank must be >= 1, got {k}")
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    r = min(k, s.shape[-1])
    return LowRankFactors(Q=U[..., :r], X=s[..., :r, None] * Vt[..., :r, :],
                          ranks=np.full(B.shape[:-2], r))


def orth(Y) -> np.ndarray:
    """Orthonormal basis for range(Y) via a thin SVD.

    Keeps the left singular vectors whose singular value exceeds
    eps * max(m, s) * sigma_1 of the (m, s) input.  Each basis column is
    sign-canonicalized (largest-magnitude entry positive) so that nearly
    identical inputs yield nearly identical bases; LAPACK's raw signs flip on
    exact-zero tests, which would make the basis discontinuous in its input.
    Pure function of Y; the zero matrix yields an empty basis.

    A stack (..., m, s) gives a stack (..., m, r) with r the largest rank:
    each block keeps its own rank's columns first and zeros after them,
    which ``column_ranks`` counts.
    """
    Y = np.asarray(Y, dtype=float)
    m, s = Y.shape[-2:]
    if min(m, s) == 0:
        return np.zeros(Y.shape[:-1] + (0,))
    U, sv, _ = _svd(Y)
    keep = sv > EPS * max(m, s) * sv[..., :1]
    r = int(keep.sum(axis=-1).max())
    Q = np.where(keep[..., None, :r], U[..., :r], 0.0)
    lead = np.argmax(np.abs(Q), axis=-2)[..., None, :]
    signs = np.sign(np.take_along_axis(Q, lead, axis=-2))
    signs[signs == 0] = 1.0
    return Q * signs


def pinv_solve(A, B) -> np.ndarray:
    """Minimum-norm least-squares solution of A x = B, from a thin SVD of A
    with cutoff eps * max(shape) * sigma_max (numpy's default rcond).

    Stacks (..., p, q) and (..., p, w) are solved block by block, and a
    single A is broadcast against a stack of right-hand sides.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    p, q = A.shape[-2:]
    if min(p, q) == 0:
        batch = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
        return np.zeros(batch + (q, B.shape[-1]))
    U, s, Vt = _svd(A)
    keep = s > EPS * max(p, q) * s[..., :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    return _t(Vt) @ (inv[..., :, None] * (_t(U) @ B))


def gn_from_sketches(Y, Z, Psi, k=None) -> LowRankFactors:
    """Generalized Nystrom from already-computed (noisy) sketches of B:
    Q = orth(Y) for the right sketch Y ~ B Omega, then Q [[ (Psi^T Q)^+ Z ]]_k
    for the left sketch Z ~ Psi^T B.  ``k=None`` keeps every direction of the
    regression output.

    Shapes are Y (m, s_R), Z (s_L, w) and Psi (m, s_L), or stacks of them
    with the same leading batch axes, which give a padded stack of factors
    (see ``truncate_factor``).
    """
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    Psi = np.asarray(Psi, dtype=float)
    if Psi.shape[-2] != Y.shape[-2] or Psi.shape[-1] != Z.shape[-2]:
        raise RankError(
            f"left sketch {Psi.shape} does not fit Y {Y.shape} and Z {Z.shape}"
        )
    Q = orth(Y)
    if Psi.shape[-1] < Q.shape[-1]:
        raise RankError("underdetermined regression: Psi^T Q has fewer rows than columns")
    X = pinv_solve(_t(Psi) @ Q, Z)
    return truncate_factor(Q, X, k)


def truncate_factor(Q, X, k=None) -> LowRankFactors:
    """Q [[X]]_k, keeping the orthonormal-factor form.

    Q is an ``orth`` output, a stack included; rows of X that meet its zero
    padding are ignored.  Each block keeps min(rank, k, w) directions for X
    of width w, so a block's result does not depend on the rest of its stack.
    ``k=None`` keeps every direction.  The padding of the result is exact
    zeros.
    """
    ranks = column_ranks(Q)
    if k is None:
        k = X.shape[-2]
    if X.shape[-2] > min(k, X.shape[-1]):
        U, s, Vt = _svd(_zero_rows(X, ranks))
        X = s[..., :k, None] * Vt[..., :k, :]
        ranks = np.minimum(ranks, X.shape[-2])
        # The SVD leaves rounding, not zeros, in the columns past a rank.
        Q = _t(_zero_rows(_t(Q @ U[..., :k]), ranks))
    return LowRankFactors(Q=Q, X=_zero_rows(X, ranks), ranks=ranks)


def _zero_rows(X, ranks) -> np.ndarray:
    """X with the rows past each block's rank set to zero."""
    return np.where(np.arange(X.shape[-2])[:, None] < ranks[..., None, None], X, 0.0)


def rsvd_perturb_bound_rhs(B, Omega, E1, E2, k) -> float:
    """Right-hand side of the deterministic perturbation bound for sketched
    projection: with Q = orth(B Omega + E1) and the approximation
    Q [[Q^T B + E2]]_k,

        ||B - Q [[Q^T B + E2]]_k||_F
            <= ||E1 Omega_top^+||_F + 2 ||E2||_F
               + (||sigma_bot||_F^2 + ||Sigma_bot Omega_bot Omega_top^+||_F^2)^(1/2).

    Requires the top sketch Omega_top = V_top^T Omega to have full rank k.
    """
    B = np.asarray(B, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    if not 1 <= k <= min(B.shape):
        raise RankError(f"split rank {k} out of range for shape {B.shape}")
    _, s, Vt = np.linalg.svd(B, full_matrices=False)
    omega_top = Vt[:k] @ Omega
    sv = np.linalg.svd(omega_top, compute_uv=False)
    tol = EPS * max(omega_top.shape) * (sv[0] if sv.size else 0.0)
    if sv.size < k or sv[-1] <= tol:
        raise RankError("top sketch is rank deficient; bound inapplicable")
    pinv_top = np.linalg.pinv(omega_top)
    E1 = np.asarray(E1, dtype=float)
    E2 = np.asarray(E2, dtype=float)
    scaled = s[k:, None] * (Vt[k:] @ Omega @ pinv_top)
    tail = np.sqrt(np.sum(s[k:] ** 2) + np.sum(scaled**2))
    return float(np.linalg.norm(E1 @ pinv_top) + 2.0 * np.linalg.norm(E2) + tail)


def gn_error_bound(k, s_R, s_L, norm_m2, norm_n2, opt2) -> float:
    """Expected squared-error bound E1 + E2 + 2 sqrt(E1 E2) for the
    generalized Nystrom method run with structured Gaussian matvec noise
    M Omega~ on the range sketch and Psi~^T N on the regression sketch:

        E1 = (1 + k/(s_R - k - 1)) * opt2
        E2 = 18 k/(s_R - k - 1) * ||M||_F^2
             + 8 s_R/(s_L - s_R - 1) * ||N||_F^2
             + 32 s_R/(s_L - s_R - 1) * opt2

    valid for s_R > 2k + 1 and s_L > 2 s_R + 1.
    """
    if not s_R > 2 * k + 1:
        raise RankError(f"need s_R > 2k + 1, got s_R={s_R}, k={k}")
    if not s_L > 2 * s_R + 1:
        raise RankError(f"need s_L > 2 s_R + 1, got s_L={s_L}, s_R={s_R}")
    if min(norm_m2, norm_n2, opt2) < 0:
        raise ValueError("squared norms must be nonnegative")
    a = k / (s_R - k - 1)
    b = s_R / (s_L - s_R - 1)
    e1 = (1.0 + a) * opt2
    e2 = 18.0 * a * norm_m2 + 8.0 * b * norm_n2 + 32.0 * b * opt2
    return float(e1 + e2 + 2.0 * np.sqrt(e1 * e2))


@dataclass(frozen=True)
class NoiseModel:
    """Fixed factors of the structured matvec-noise model: fresh Gaussians
    multiply M on the right-sketch side and N on the left-sketch side."""

    M: np.ndarray
    N: np.ndarray

    def draw(self, rng, s_R, s_L) -> tuple[np.ndarray, np.ndarray]:
        """One realization (E1, F) = (M Omega~, Psi~^T N)."""
        E1 = self.M @ rng.standard_normal((self.M.shape[1], s_R))
        F = rng.standard_normal((self.N.shape[0], s_L)).T @ self.N
        return E1, F
