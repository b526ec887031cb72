"""The HODLR(k) data structure.

A HodlrMatrix stores, per level l = 1..L, the 2^l off-diagonal low-rank
factors of the 2^l x 2^l block partition (factor j lives in block
(partner(j), j), sub-diagonal for odd j and super-diagonal for even j,
1-based) as one stack, plus the 2^L dense leaf diagonal blocks as one
(2^L, m, m) array.  Level placements are disjoint, so the dense expansion is
the plain sum of the level matrices.

The stack of level l is a ``LowRankFactors`` with Q (2^l, n/2^l, r),
X (2^l, r, n/2^l) and ranks (2^l,): r is the largest rank of the level, and
Q and X are exact zeros past each block's rank.  Peeling recovers a level in
this form, and the fast product, dense expansion and serialization use it as
is.
"""

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .lowrank import LowRankFactors, orth

DENSE_GUARD = 8192

MAGIC = b"HODLRPK1"
FORMAT_VERSION = 1


class StructureError(ValueError):
    """Invalid (n, k) pair, or blocks that do not fit the HODLR layout."""


class SerializationError(ValueError):
    """Magic, version, or checksum mismatch while reading a HODLR file."""


def partner(j: int) -> int:
    """Row block paired with column block j (0-based: j+1 for even j,
    j-1 for odd j, matching 1-based j+-1)."""
    return j + 1 if j % 2 == 0 else j - 1


def level_count(n: int, k: int) -> int:
    """L = ceil(log2(n/k)); leaf blocks then have at most k rows.

    Requires n = n_base * 2^L with k/2 < n_base <= k; anything else is
    rejected rather than padded, since padding would change the optimum.
    """
    if k < 1 or n < 1:
        raise StructureError(f"need n, k >= 1, got n={n}, k={k}")
    if n <= k:
        raise StructureError(f"n={n} <= k={k}: the matrix is a single dense leaf")
    L = math.ceil(math.log2(n / k))
    if n % (1 << L) != 0:
        raise StructureError(f"n={n} is not n_base * 2^{L}; no valid HODLR layout")
    n_base = n >> L
    if not (k / 2 < n_base <= k):
        raise StructureError(
            f"leaf size {n_base} outside (k/2, k] for k={k}; no valid HODLR layout"
        )
    return L


def block_grid(A, level, flip):
    """A as its 2^level x 2^level grid of blocks, and the index that picks
    blocks (j ^ flip, j) of the grid as a (2^level, m, m) stack: the
    level's off-diagonal blocks for flip = 1, the diagonal for flip = 0."""
    d = 1 << level
    j = np.arange(d)
    grid = A.reshape(d, A.shape[0] // d, d, A.shape[1] // d)
    return grid, (j ^ flip, slice(None), j, slice(None))


@dataclass
class HodlrMatrix:
    """A HODLR(k) matrix: ``stacks[l-1]`` is the stack of level l and
    ``leaves`` the (2^L, m, m) leaf diagonal blocks."""

    n: int
    k: int
    stacks: list = field(default_factory=list)
    leaves: np.ndarray = None

    @property
    def L(self) -> int:
        return len(self.stacks)

    @property
    def levels(self) -> list:
        """levels[l-1][j]: block j of level l, a view into its stack."""
        return [stack.factors for stack in self.stacks]

    def to_dense(self) -> np.ndarray:
        if self.n > DENSE_GUARD:
            raise StructureError(f"refusing dense expansion at n={self.n} > {DENSE_GUARD}")
        A = np.zeros((self.n, self.n))
        for ell, stack in enumerate(self.stacks, start=1):
            grid, index = block_grid(A, ell, 1)
            grid[index] = stack.dense()
        grid, index = block_grid(A, self.L, 0)
        grid[index] = self.leaves
        return A


def assemble(stacks, leaves, *, n=None, k=None, check_rank=True) -> HodlrMatrix:
    """Assemble level stacks and leaf diagonals into a HodlrMatrix.

    ``stacks[l-1]`` must be the stack of level l (see the module docstring),
    for exactly the levels 1..L, and ``leaves`` the (2^L, m, m) leaf blocks.
    ``check_rank=False`` admits ranks above k (untruncated peeling output,
    which carries no HODLR(k) certificate).
    """
    try:
        leaves = np.ascontiguousarray(leaves, dtype=float)
    except ValueError as exc:  # a list of blocks of different shapes
        raise StructureError(f"leaf blocks do not form one (2^L, m, m) stack: {exc}") from None
    if leaves.ndim != 3 or not leaves.size or leaves.shape[1] != leaves.shape[2]:
        raise StructureError(f"need a (2^L, m, m) stack of leaf blocks, got {leaves.shape}")
    n_leaves, n_base = leaves.shape[:2]
    if n_leaves & (n_leaves - 1):
        raise StructureError(f"leaf count {n_leaves} is not a power of two")
    L = n_leaves.bit_length() - 1
    inferred_n = n_base * n_leaves
    if n is None:
        n = inferred_n
    if k is None:
        raise StructureError("assemble needs the rank parameter k")
    if inferred_n != n:
        raise StructureError(f"leaves imply n={inferred_n}, expected {n}")
    if level_count(n, k) != L:
        raise StructureError(f"{L} levels inconsistent with (n={n}, k={k})")
    if len(stacks) != L:
        raise StructureError(f"need exactly one stack per level 1..{L}, got {len(stacks)}")
    for ell, stack in enumerate(stacks, start=1):
        d, m, r = 1 << ell, n >> ell, stack.rank
        ranks = np.asarray(stack.ranks)
        if stack.Q.shape != (d, m, r) or stack.X.shape != (d, r, m) or ranks.shape != (d,):
            raise StructureError(
                f"level {ell}: stack shapes {stack.Q.shape} x {stack.X.shape} with"
                f" ranks {ranks.shape} do not fit {d} blocks of size {m}"
            )
        if np.any((ranks < 0) | (ranks > r)):
            raise StructureError(f"level {ell}: ranks outside [0, {r}], the stack width")
        pad = np.arange(r) >= ranks[:, None]
        if pad.any() and (np.where(pad[:, None, :], stack.Q, 0.0).any()
                          or np.where(pad[:, :, None], stack.X, 0.0).any()):
            raise StructureError(f"level {ell}: nonzero padding past a block's rank")
        if check_rank and np.any(ranks > k):
            j = int(np.argmax(ranks > k))
            raise StructureError(f"level {ell} block {j}: rank {ranks[j]} exceeds k={k}")
    return HodlrMatrix(n=n, k=k, stacks=list(stacks), leaves=leaves)


class FlopCounter:
    """Counts multiply-add flops of the matmuls performed (2*a*b*c each)."""

    def __init__(self):
        self.flops = 0

    def add(self, a: int, b: int, c: int) -> None:
        self.flops += 2 * a * b * c


def _apply_levels(stacks, X, out, side, counter):
    """Add the product of each level stack with the (n, w) block X into
    ``out`` in place.  X and ``out`` must be C-contiguous, so that their
    per-level (d, m, w) reshapes are views.

    Forward, factor j maps column block j into row block partner(j) = j ^ 1;
    transpose, it maps row block j ^ 1 back into column block j.
    """
    w = X.shape[1]
    for stack in stacks:
        Qs, Xs = stack.Q, stack.X
        d, m, r = Qs.shape
        if r == 0:
            continue
        Xb = X.reshape(d, m, w)
        acc = out.reshape(d, m, w)
        if side == "forward":
            res = Qs @ (Xs @ Xb)
            acc[0::2] += res[1::2]
            acc[1::2] += res[0::2]
        else:
            perm = np.arange(d) ^ 1
            acc += Xs.transpose(0, 2, 1) @ (Qs.transpose(0, 2, 1) @ Xb[perm])
        if counter is not None:
            counter.add(d * r, m, w)
            counter.add(d * m, r, w)


def apply_contributions(contribs, X, side="forward", counter=None) -> np.ndarray:
    """Product of the recovered level stacks ``contribs`` with an (n, b) block."""
    X = np.ascontiguousarray(X, dtype=float)
    out = np.zeros_like(X)
    _apply_levels(contribs, X, out, side, counter)
    return out


def hodlr_apply(H: HodlrMatrix, X, side="forward", counter=None) -> np.ndarray:
    """Fast product H @ X (or H^T @ X); O(n k L b) arithmetic."""
    X = np.ascontiguousarray(X, dtype=float)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[:, None]
    if X.shape[0] != H.n:
        raise StructureError(f"expected {H.n} rows, got {X.shape[0]}")
    leaves = H.leaves
    d, m, _ = leaves.shape
    w = X.shape[1]
    Xb = X.reshape(d, m, w)
    out = leaves @ Xb if side == "forward" else leaves.transpose(0, 2, 1) @ Xb
    out = out.reshape(H.n, w)
    if counter is not None:
        counter.add(d * m, m, w)
    _apply_levels(H.stacks, X, out, side, counter)
    return out[:, 0] if squeeze else out


def best_hodlr(A, k: int) -> HodlrMatrix:
    """Frobenius-optimal HODLR(k) approximation of a dense matrix: truncated
    SVDs of every off-diagonal block, one stacked SVD per level, and exact
    leaf diagonals."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise StructureError(f"need a square matrix, got {A.shape}")
    L = level_count(n, k)
    stacks = []
    for ell in range(1, L + 1):
        grid, index = block_grid(A, ell, 1)
        U, s, Vt = np.linalg.svd(grid[index], full_matrices=False)
        r = min(k, s.shape[-1])
        Q = np.ascontiguousarray(U[..., :r])
        stacks.append(LowRankFactors(Q=Q, X=s[..., :r, None] * Vt[..., :r, :],
                                     ranks=np.full(1 << ell, r)))
    grid, index = block_grid(A, L, 0)
    return assemble(stacks, grid[index], n=n, k=k)


def random_hodlr(n, k, rng, leaf_scale=1.0) -> HodlrMatrix:
    """Random matrix that is exactly HODLR(k): Gaussian rank-k factors at
    every off-diagonal block and Gaussian dense leaves.  Each block draws its
    raw Q, then its X, in block order."""
    L = level_count(n, k)
    stacks = []
    for ell in range(1, L + 1):
        d, m = 1 << ell, n >> ell
        r = min(k, m)
        draw = rng.standard_normal((d, 2 * m * r))
        stacks.append(LowRankFactors(
            Q=orth(draw[:, : m * r].reshape(d, m, r)),
            X=np.ascontiguousarray(draw[:, m * r:].reshape(d, r, m)),
            ranks=np.full(d, r),
        ))
    m = n >> L
    return assemble(stacks, leaf_scale * rng.standard_normal((1 << L, m, m)), n=n, k=k)


# Serialization: fixed header, per-block (index, rank, Q, X) records in level
# order, leaf blocks, then a trailing 64-bit checksum (first 8 bytes of the
# SHA-256 of everything before it, little-endian).  A record's (index, rank)
# header is 8 bytes, like each entry of Q and X, so a level's records are a
# run of 8-byte words.

def _kept_words(ranks, m, r):
    """Mask of the words a container keeps from a level's records padded to
    (d, 1 + 2 m r) words: each block's (index, rank) header, and its Q and X
    cut to its own rank."""
    kept = np.arange(r) < np.asarray(ranks)[:, None]
    ones = np.ones((len(kept), 1), dtype=bool)
    return np.concatenate([ones, np.tile(kept, m), np.repeat(kept, m, axis=1)], axis=1)


def to_bytes(H: HodlrMatrix) -> bytes:
    # Each level's records are one padded array of words, cut to the kept
    # words (all of them, with no copy, when the level's ranks are equal) and
    # hashed whole: one hash update per level, not per (possibly tiny) block.
    chunks = [MAGIC + struct.pack("<IQII", FORMAT_VERSION, H.n, H.k, H.L)]
    for stack in H.stacks:
        d, m, r = stack.Q.shape
        words = np.empty((d, 1 + 2 * m * r), dtype="<f8")
        words.view("<u4")[:, :2] = np.stack([np.arange(d), stack.ranks], axis=1)
        words[:, 1 : 1 + m * r] = stack.Q.reshape(d, m * r)
        words[:, 1 + m * r :] = stack.X.reshape(d, r * m)
        if np.any(stack.ranks < r):
            words = words[_kept_words(stack.ranks, m, r)]
        chunks.append(words)
    chunks.append(np.ascontiguousarray(H.leaves, dtype="<f8"))
    checksum = hashlib.sha256()
    for chunk in chunks:
        checksum.update(chunk)
    return b"".join(chunks + [checksum.digest()[:8]])


def from_bytes(buf: bytes) -> HodlrMatrix:
    """Read a container written by ``to_bytes``.

    Every header field is checked against the layout before it is used, and
    every read against the bytes left, so a damaged or lying container raises
    only SerializationError.  Once a level's record headers are checked, its
    records are copied from the buffer in one step into a zero-padded array
    of words, and the level's Q and X are views into that array.
    """
    if len(buf) < len(MAGIC) + 20 + 8:
        raise SerializationError("truncated HODLR container")
    payload, checksum = buf[:-8], buf[-8:]
    if hashlib.sha256(payload).digest()[:8] != checksum:
        raise SerializationError("checksum mismatch")
    if payload[: len(MAGIC)] != MAGIC:
        raise SerializationError("bad magic")
    off = len(MAGIC)
    version, n, k, L = struct.unpack_from("<IQII", payload, off)
    off += struct.calcsize("<IQII")
    if version != FORMAT_VERSION:
        raise SerializationError(f"unsupported format version {version}")
    try:
        expected_L = level_count(n, k)
    except StructureError as exc:
        raise SerializationError(f"header (n={n}, k={k}): {exc}") from None
    if expected_L != L:
        raise SerializationError(f"header has L={L}, but (n={n}, k={k}) needs {expected_L}")

    def words(start, *shape):
        return np.frombuffer(
            payload, dtype="<f8", count=math.prod(shape), offset=start
        ).reshape(shape)

    size = len(payload)
    stacks = []
    for ell in range(1, L + 1):
        d, m = 1 << ell, n >> ell
        start, ranks = off, []
        for j in range(d):
            if off + 8 > size:
                raise SerializationError(f"container ends before level {ell} block {j}")
            idx, r = struct.unpack_from("<II", payload, off)
            off += 8
            if idx != j:
                raise SerializationError(f"block index {idx} out of order at level {ell}")
            if r > m:
                raise SerializationError(
                    f"level {ell} block {j}: rank {r} exceeds block size {m}"
                )
            if off + 16 * m * r > size:
                raise SerializationError(f"container ends inside level {ell} block {j}")
            ranks.append(r)
            off += 16 * m * r
        ranks = np.array(ranks)
        r = ranks.max()
        padded = np.zeros((d, 1 + 2 * m * r))
        padded[_kept_words(ranks, m, r)] = words(start, (off - start) // 8)
        stacks.append(LowRankFactors(
            Q=padded[:, 1 : 1 + m * r].reshape(d, m, r),
            X=padded[:, 1 + m * r :].reshape(d, r, m),
            ranks=ranks,
        ))
    m = n >> L
    if off + 8 * n * m > size:
        raise SerializationError("container ends inside the leaf blocks")
    leaves = words(off, 1 << L, m, m).astype(float)
    if off + 8 * n * m != size:
        raise SerializationError("trailing bytes in HODLR container")
    return HodlrMatrix(n=n, k=k, stacks=stacks, leaves=leaves)


def save(H: HodlrMatrix, path) -> None:
    with open(path, "wb") as fh:
        fh.write(to_bytes(H))


def load(path) -> HodlrMatrix:
    with open(path, "rb") as fh:
        return from_bytes(fh.read())
