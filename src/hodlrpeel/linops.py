"""Matrix-free linear operators and the concrete test operators.

An operator is a square black box exposing blocked products with A and A^T;
a thread-safe counter records how many columns have been pushed through each
side, which is the cost model the peeling algorithms are measured against.
"""

import threading
import warnings

import numpy as np

from .halves import in_halves

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
        if np.iscomplexobj(X):
            raise DimensionError(f"{self.name}: need a real block, not {np.asarray(X).dtype}")
        X = np.asarray(X, dtype=float)
        squeeze = X.ndim == 1
        if squeeze:
            X = X[:, None]
        if X.ndim != 2 or X.shape[0] != self.n:
            raise DimensionError(
                f"expected a block with {self.n} rows, got shape {X.shape}"
            )
        fn = self._forward if side == FORWARD else self._transpose
        # An overflowing product raises NonFiniteOutputError below, not warnings.
        with np.errstate(over="ignore", invalid="ignore"):
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
    """Operator of an explicit square matrix M, held as a float copy.

    The transpose side is computed as (X^T M)^T, which reads a row-major M
    in its stored order: M^T X runs the GEMM on a transposed operand, about
    1.6 times as slow for 2 columns at n = 1024 on OpenBLAS, and for two or
    more columns both forms give the same bits.  The forward side stays M X,
    since (X^T M^T)^T rounds differently from it at n <= 256 with a few
    columns.
    """
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"dense operator needs a square matrix, got {M.shape}")
    return LinearOperator(M.shape[0], lambda X: M @ X, lambda X: (X.T @ M).T, name=name)


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
        raise DimensionError(f"poisson grid side must be even and >= 2, got {t}")
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
        # Columns are row-major t x t grids; FFT them as a batch, in two
        # halves of columns on two cores.  The output is a row-major n x w
        # block, the layout irfft2 gives and the sketch reads expect.
        out = np.empty(X.shape)
        grids = out.T.reshape(-1, t, t)  # a view: grids[j] is column j

        def columns(lo, hi):
            F = np.fft.rfft2(X[:, lo:hi].T.reshape(-1, t, t))
            F *= D_half  # in place: F is the transform's own output, not X
            # irfft2's own steps, written into the output: irfft2(out=) is
            # not honoured on numpy 2.4 (a fresh array comes back).
            np.fft.irfft(np.fft.ifft(F, axis=-2), n=t, axis=-1, out=grids[lo:hi])

        in_halves(columns, X.shape[1], X.size)
        return out

    return LinearOperator(n, apply, apply, name=f"poisson(t={t})")


def make_kernel_operator(points) -> LinearOperator:
    """Inverse-distance kernel matrix of a 3-d point cloud (zero diagonal).

    Products are direct dense O(n^2) multiplies; see the desk-scale guard.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DimensionError(f"point cloud must be (n, 3), got {pts.shape}")
    n = pts.shape[0]
    if n > DESK_SCALE_LIMIT:
        raise DimensionError(f"kernel operator is desk scale: n={n} > {DESK_SCALE_LIMIT}")
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
        raise DimensionError(f"hard-block instance needs rank k >= 1, got {k}")
    if not eta > 1 or not np.isfinite(eta):
        raise DimensionError(f"eta must be a finite number above 1, got {eta}")
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
    2, 4, 8, ..., 2^L (1-based throughout).

    Matrix-free, O(n w) per product of w columns.  No row has two nonzeros,
    so the forward side equals the dense product bit for bit; the transpose
    side's two column sums round in their own order."""
    L = int(L)
    if L < 2:
        raise DimensionError(f"exp-hard instance needs at least two levels, got L={L}")
    if not np.isfinite(eta):
        raise DimensionError(f"eta must be finite, got {eta}")
    n = 2**L
    spikes = 2 ** np.arange(1, L + 1) - 1  # 0-based rows of column 2's etas

    def forward(X):
        out = np.zeros(X.shape)
        out[0::2] = X[0]
        out[spikes] = eta * X[1]
        return out

    def transpose(X):
        out = np.zeros(X.shape)
        out[0] = X[0::2].sum(axis=0)
        out[1] = eta * X[spikes].sum(axis=0)
        return out

    return LinearOperator(n, forward, transpose, name=f"exp_hard(n={n})")


# CSV input of point clouds and small dense matrices.

def load_points_csv(path) -> np.ndarray:
    pts = load_dense_csv(path)
    if pts.shape[1] != 3:
        raise DimensionError(f"expected x,y,z rows in {path}, got {pts.shape[1]} cols")
    return pts


def load_dense_csv(path) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy's "input contained no data"
        try:
            table = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:  # a cell that is not a number, or ragged rows
            raise DimensionError(f"{path} is not a numeric CSV table: {exc}") from None
    if table.size == 0:
        raise DimensionError(f"{path} is not a numeric CSV table: it holds no rows")
    return table
