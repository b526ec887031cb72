"""Matrix-free linear operators and the concrete test operators.

An operator is a square black box exposing blocked products with A and A^T;
a thread-safe counter records how many columns have been pushed through each
side, which is the cost model the peeling algorithms are measured against.
"""

import threading

import numpy as np

FORWARD = "forward"
TRANSPOSE = "transpose"

# Dense expansions (kernel assembly, oracle materialization) are desk scale.
DESK_SCALE_LIMIT = 4096


class DimensionError(ValueError):
    """Input block has the wrong number of rows, or an invalid size."""


class NonFiniteOutputError(ValueError):
    """An operator product contains NaN or infinity."""


class QueryCounter:
    """Counts columns pushed through A (forward) and A^T (transpose)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.forward_count = 0
        self.transpose_count = 0

    def add(self, side: str, width: int) -> None:
        with self._lock:
            if side == FORWARD:
                self.forward_count += width
            else:
                self.transpose_count += width

    def snapshot(self) -> tuple[int, int]:
        with self._lock:
            return self.forward_count, self.transpose_count


class LinearOperator:
    """Square operator accessible only through blocked matvec products.

    ``forward`` and ``transpose`` are deterministic callables mapping an
    (n, b) array to an (n, b) array; all randomness lives in the sketches.
    """

    def __init__(self, n, forward, transpose, name="operator"):
        self.n = int(n)
        self._forward = forward
        self._transpose = transpose
        self.name = name
        self.counter = QueryCounter()

    def apply(self, X, side: str = FORWARD) -> np.ndarray:
        if side not in (FORWARD, TRANSPOSE):
            raise ValueError(f"unknown side {side!r}")
        X = np.asarray(X, dtype=float)
        squeeze = X.ndim == 1
        if squeeze:
            X = X[:, None]
        if X.ndim != 2 or X.shape[0] != self.n:
            raise DimensionError(
                f"expected a block with {self.n} rows, got shape {X.shape}"
            )
        fn = self._forward if side == FORWARD else self._transpose
        out = np.asarray(fn(X), dtype=float)
        if out.shape != X.shape:
            raise DimensionError(
                f"operator returned shape {out.shape} for input {X.shape}"
            )
        self.counter.add(side, X.shape[1])
        # A finite sum proves every entry finite; only a NaN, an infinity or
        # an overflowing sum needs the entrywise count.
        with np.errstate(over="ignore"):
            total = out.sum()
        if not np.isfinite(total):
            bad = out.size - np.count_nonzero(np.isfinite(out))
            if bad:
                raise NonFiniteOutputError(
                    f"{self.name}: {side} product of a block of width"
                    f" {X.shape[1]} has {bad} non-finite entries"
                )
        return out[:, 0] if squeeze else out

    def materialize(self) -> np.ndarray:
        """Dense expansion for oracles and debugging; does not touch the counter."""
        if self.n > DESK_SCALE_LIMIT:
            raise DimensionError(
                f"refusing to materialize n={self.n} > {DESK_SCALE_LIMIT}"
            )
        return np.asarray(self._forward(np.eye(self.n)), dtype=float)


def make_dense_operator(M, name="dense") -> LinearOperator:
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"dense operator needs a square matrix, got {M.shape}")
    return LinearOperator(M.shape[0], lambda X: M @ X, lambda X: M.T @ X, name=name)


def make_poisson_operator(t: int) -> LinearOperator:
    """Inverse of the spectral periodic Laplacian on a t-by-t grid (n = t^2).

    Products are computed as IDFT2(D * DFT2(f)) with multipliers
    D[i, j] = -1 / (kappa_i^2 + kappa_j^2), harmonics kappa_i = i for
    i <= t/2 - 1 and i - t otherwise.  The singular (0, 0) multiplier is set
    to 0, i.e. the pseudo-inverse on the mean-zero subspace.  The operator is
    symmetric, so the transpose side reuses the forward product.
    """
    t = int(t)
    if t < 2 or t % 2 != 0:
        raise DimensionError(f"grid side must be even and >= 2, got {t}")
    idx = np.arange(t)
    kappa = np.where(idx <= t // 2 - 1, idx, idx - t).astype(float)
    denom = kappa[:, None] ** 2 + kappa[None, :] ** 2
    D = np.zeros((t, t))
    D[denom > 0] = -1.0 / denom[denom > 0]
    # D is even in both harmonics, so D * DFT2(f) is Hermitian for real f and
    # the half spectrum of a real transform carries the whole product.
    D_half = D[:, : t // 2 + 1]
    n = t * t

    def apply(X):
        # Columns are row-major t x t grids; FFT them as a batch.
        F = np.fft.rfft2(X.T.reshape(-1, t, t))
        out = np.fft.irfft2(D_half * F, s=(t, t))
        return out.reshape(-1, n).T

    return LinearOperator(n, apply, apply, name=f"poisson(t={t})")


def poisson_spectral_laplacian(t: int) -> np.ndarray:
    """Dense spectral periodic Laplacian, the (pseudo-)inverse of the Poisson
    operator on the mean-zero subspace.  Oracle helper, desk scale only."""
    t = int(t)
    n = t * t
    if n > DESK_SCALE_LIMIT:
        raise DimensionError(f"n={n} > {DESK_SCALE_LIMIT}")
    idx = np.arange(t)
    kappa = np.where(idx <= t // 2 - 1, idx, idx - t).astype(float)
    mult = -(kappa[:, None] ** 2 + kappa[None, :] ** 2)

    def apply(X):
        F = np.fft.fft2(X.T.reshape(-1, t, t))
        return np.fft.ifft2(mult[None, :, :] * F).real.reshape(-1, n).T

    return apply(np.eye(n))


def make_kernel_operator(points) -> LinearOperator:
    """Inverse-distance kernel matrix of a 3-d point cloud (zero diagonal).

    Products are direct dense O(n^2) multiplies; see the desk-scale guard.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DimensionError(f"point cloud must be (n, 3), got {pts.shape}")
    n = pts.shape[0]
    if n > DESK_SCALE_LIMIT:
        raise DimensionError(f"n={n} > {DESK_SCALE_LIMIT}")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    off = ~np.eye(n, dtype=bool)
    if np.any(dist[off] == 0.0):
        raise DimensionError("coincident points: kernel is undefined")
    M = np.zeros((n, n))
    M[off] = 1.0 / dist[off]
    return LinearOperator(n, lambda X: M @ X, lambda X: M @ X, name=f"kernel(n={n})")


def helix_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """Perturbed-helix cloud: x uniformly spaced in [-4, 4],
    y = sin(2 pi x) + 0.05 xi, z = cos(2 pi x) + 0.05 zeta."""
    x = np.linspace(-4.0, 4.0, n)
    y = np.sin(2 * np.pi * x) + 0.05 * rng.standard_normal(n)
    z = np.cos(2 * np.pi * x) + 0.05 * rng.standard_normal(n)
    return np.column_stack([x, y, z])


def make_hard_block_instance(k: int, eta: float) -> LinearOperator:
    """4x4 block matrix (blocks of size 2k, n = 8k) whose rank-k peeling
    forces all first-level truncation error into the second level:

        [0 X Y X]
        [X 0 X 0]      X = diag(I_k, 0),  Y = eta * diag(0, I_k).
        [Y X 0 X]
        [X 0 X 0]
    """
    k = int(k)
    if k < 1:
        raise DimensionError("rank must be >= 1")
    if eta <= 1:
        raise DimensionError("eta must exceed 1")
    X = np.zeros((2 * k, 2 * k))
    X[:k, :k] = np.eye(k)
    Y = np.zeros((2 * k, 2 * k))
    Y[k:, k:] = eta * np.eye(k)
    Z = np.zeros((2 * k, 2 * k))
    A = np.block([[Z, X, Y, X], [X, Z, X, Z], [Y, X, Z, X], [X, Z, X, Z]])
    return make_dense_operator(A, name=f"hard_block(k={k})")


def make_exp_hard_instance(L: int, eta: float) -> LinearOperator:
    """n = 2^L instance on which truncated RSVD peeling doubles its error at
    every level: ones in column 1 at odd rows, eta in column 2 at rows
    2, 4, 8, ..., 2^L (1-based throughout)."""
    L = int(L)
    if L < 2:
        raise DimensionError("need at least two levels")
    n = 2**L
    A = np.zeros((n, n))
    A[0::2, 0] = 1.0  # 1-based odd rows
    A[2 ** np.arange(1, L + 1) - 1, 1] = eta
    return make_dense_operator(A, name=f"exp_hard(n={n})")


# CSV interchange for point clouds and small dense matrices.

def load_points_csv(path) -> np.ndarray:
    pts = np.loadtxt(path, delimiter=",", ndmin=2)
    if pts.shape[1] != 3:
        raise DimensionError(f"expected x,y,z rows in {path}, got {pts.shape[1]} cols")
    return pts


def save_dense_csv(M, path) -> None:
    np.savetxt(path, np.asarray(M, dtype=float), delimiter=",", fmt="%.17g")


def load_dense_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)
