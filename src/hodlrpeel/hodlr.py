"""The HODLR(k) data structure.

A HodlrMatrix stores, per level l = 1..L, the 2^l off-diagonal low-rank
factors of the 2^l x 2^l block partition (factor j lives in block
(partner(j), j), sub-diagonal for odd j and super-diagonal for even j,
1-based), plus 2^L dense leaf diagonal blocks.  Level placements are disjoint,
so the dense expansion is the plain sum of the level matrices.
"""

import hashlib
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lowrank import LowRankFactors

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


@dataclass
class LevelContribution:
    """Factors recovered for one level: factors[j] targets block
    (partner(j), j) of the 2^level partition (0-based j)."""

    level: int
    factors: list

    @cached_property
    def stacked(self):
        """Padded level tensors for ``apply_contributions``, built on first
        use; the factors must not change after that."""
        return _stack_level(self.factors)


@dataclass
class HodlrMatrix:
    """A HODLR(k) matrix.  Treated as immutable once built by ``assemble`` or
    ``from_bytes``, because ``hodlr_apply`` caches its stacked tensors."""

    n: int
    k: int
    levels: list = field(default_factory=list)   # levels[l-1] = list of LowRankFactors
    leaves: list = field(default_factory=list)   # 2^L dense blocks

    @property
    def L(self) -> int:
        return len(self.levels)

    @cached_property
    def stacked(self):
        """(per-level ``_stack_level`` tensors, leaves stacked (2^L, m, m)),
        built on the first ``hodlr_apply``.  Not a dataclass field, so
        ``==``, ``repr`` and ``to_bytes`` ignore it."""
        return [_stack_level(f) for f in self.levels], np.stack(self.leaves)

    def block_size(self, level: int) -> int:
        return self.n >> level

    def to_dense(self) -> np.ndarray:
        if self.n > DENSE_GUARD:
            raise StructureError(f"refusing dense expansion at n={self.n} > {DENSE_GUARD}")
        A = np.zeros((self.n, self.n))
        for ell, factors in enumerate(self.levels, start=1):
            m = self.block_size(ell)
            for j, f in enumerate(factors):
                r = partner(j)
                A[r * m:(r + 1) * m, j * m:(j + 1) * m] = f.dense()
        m = self.n >> self.L
        for j, leaf in enumerate(self.leaves):
            A[j * m:(j + 1) * m, j * m:(j + 1) * m] = leaf
        return A


def assemble(contribs, leaves, *, n=None, k=None, check_rank=True) -> HodlrMatrix:
    """Assemble level contributions and leaf diagonals into a HodlrMatrix.

    Exactly one contribution per level 1..L is required, with 2^l factors of
    the right shapes.  ``check_rank=False`` admits factors above rank k
    (untruncated peeling output, which carries no HODLR(k) certificate).
    """
    contribs = sorted(contribs, key=lambda c: c.level)
    if not leaves:
        raise StructureError("need leaf diagonal blocks")
    leaves = [np.asarray(b, dtype=float) for b in leaves]
    n_leaves = len(leaves)
    if n_leaves & (n_leaves - 1):
        raise StructureError(f"leaf count {n_leaves} is not a power of two")
    L = n_leaves.bit_length() - 1
    n_base = leaves[0].shape[0]
    inferred_n = n_base * n_leaves
    if n is None:
        n = inferred_n
    if k is None:
        raise StructureError("assemble needs the rank parameter k")
    if inferred_n != n:
        raise StructureError(f"leaves imply n={inferred_n}, expected {n}")
    if level_count(n, k) != L:
        raise StructureError(f"{L} levels inconsistent with (n={n}, k={k})")
    if [c.level for c in contribs] != list(range(1, L + 1)):
        raise StructureError("need exactly one contribution per level 1..L")
    levels = []
    for c in contribs:
        m = n >> c.level
        if len(c.factors) != (1 << c.level):
            raise StructureError(
                f"level {c.level} needs {1 << c.level} factors, got {len(c.factors)}"
            )
        for j, f in enumerate(c.factors):
            if f.Q.shape[0] != m or f.X.shape[1] != m or f.Q.shape[1] != f.X.shape[0]:
                raise StructureError(
                    f"level {c.level} block {j}: factor shapes {f.Q.shape} x {f.X.shape}"
                    f" do not fit block size {m}"
                )
            if check_rank and f.rank > k:
                raise StructureError(
                    f"level {c.level} block {j}: rank {f.rank} exceeds k={k}"
                )
        levels.append(list(c.factors))
    for j, b in enumerate(leaves):
        if b.shape != (n_base, n_base):
            raise StructureError(f"leaf {j} has shape {b.shape}, expected {(n_base, n_base)}")
    return HodlrMatrix(n=n, k=k, levels=levels, leaves=leaves)


class FlopCounter:
    """Counts multiply-add flops of the matmuls performed (2*a*b*c each)."""

    def __init__(self):
        self.flops = 0

    def add(self, a: int, b: int, c: int) -> None:
        self.flops += 2 * a * b * c


def _stack_level(factors):
    """Zero-padded stacked factors of one level: Q tensors (d, m, r) and X
    tensors (d, r, m), r the largest rank; None when every rank is zero."""
    d = len(factors)
    m = factors[0].Q.shape[0]
    r = max(f.rank for f in factors)
    if r == 0:
        return None
    Qs = np.zeros((d, m, r))
    Xs = np.zeros((d, r, m))
    for j, f in enumerate(factors):
        Qs[j, :, : f.rank] = f.Q
        Xs[j, : f.rank, :] = f.X
    return Qs, Xs


def _apply_levels(stacks, X, out, side, counter):
    """Add the product of each stacked level (``_stack_level`` output) with
    the (n, w) block X into ``out`` in place.  Both must be C-contiguous, so
    that their per-level (d, m, w) reshapes are views.

    Forward, factor j maps column block j into row block partner(j) = j ^ 1;
    transpose, it maps row block j ^ 1 back into column block j.
    """
    w = X.shape[1]
    for stack in stacks:
        if stack is None:
            continue
        Qs, Xs = stack
        d, m, r = Qs.shape
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
    """Product of the recovered levels in ``contribs`` with an (n, b) block."""
    X = np.ascontiguousarray(X, dtype=float)
    out = np.zeros_like(X)
    _apply_levels([c.stacked for c in contribs], X, out, side, counter)
    return out


def hodlr_apply(H: HodlrMatrix, X, side="forward", counter=None) -> np.ndarray:
    """Fast product H @ X (or H^T @ X); O(n k L b) arithmetic."""
    X = np.ascontiguousarray(X, dtype=float)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[:, None]
    if X.shape[0] != H.n:
        raise StructureError(f"expected {H.n} rows, got {X.shape[0]}")
    stacks, leaves = H.stacked
    d, m, _ = leaves.shape
    w = X.shape[1]
    Xb = X.reshape(d, m, w)
    out = leaves @ Xb if side == "forward" else leaves.transpose(0, 2, 1) @ Xb
    out = out.reshape(H.n, w)
    if counter is not None:
        counter.add(d * m, m, w)
    _apply_levels(stacks, X, out, side, counter)
    return out[:, 0] if squeeze else out


def best_hodlr(A, k: int) -> HodlrMatrix:
    """Frobenius-optimal HODLR(k) approximation of a dense matrix: per-block
    truncated SVDs at every level and exact leaf diagonals."""
    from .lowrank import truncated_svd

    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise StructureError(f"need a square matrix, got {A.shape}")
    L = level_count(n, k)
    contribs = []
    for ell in range(1, L + 1):
        m = n >> ell
        factors = []
        for j in range(1 << ell):
            r = partner(j)
            block = A[r * m:(r + 1) * m, j * m:(j + 1) * m]
            factors.append(truncated_svd(block, k))
        contribs.append(LevelContribution(level=ell, factors=factors))
    m = n >> L
    leaves = [A[j * m:(j + 1) * m, j * m:(j + 1) * m].copy() for j in range(1 << L)]
    return assemble(contribs, leaves, n=n, k=k)


def random_hodlr(n, k, rng, leaf_scale=1.0) -> HodlrMatrix:
    """Random matrix that is exactly HODLR(k): Gaussian rank-k factors at
    every off-diagonal block and Gaussian dense leaves."""
    from .lowrank import orth as _orth

    L = level_count(n, k)
    contribs = []
    for ell in range(1, L + 1):
        m = n >> ell
        r = min(k, m)
        factors = [
            LowRankFactors(
                Q=_orth(rng.standard_normal((m, r))),
                X=rng.standard_normal((r, m)),
            )
            for _ in range(1 << ell)
        ]
        contribs.append(LevelContribution(level=ell, factors=factors))
    m = n >> L
    leaves = [leaf_scale * rng.standard_normal((m, m)) for _ in range(1 << L)]
    return assemble(contribs, leaves, n=n, k=k)


# Serialization: fixed header, per-block (index, rank, Q, X) records in level
# order, leaf blocks, then a trailing 64-bit checksum (first 8 bytes of the
# SHA-256 of everything before it, little-endian).

def to_bytes(H: HodlrMatrix) -> bytes:
    parts = [MAGIC, struct.pack("<IQII", FORMAT_VERSION, H.n, H.k, H.L)]
    for factors in H.levels:
        for j, f in enumerate(factors):
            parts.append(struct.pack("<II", j, f.rank))
            parts.append(np.ascontiguousarray(f.Q, dtype="<f8").tobytes())
            parts.append(np.ascontiguousarray(f.X, dtype="<f8").tobytes())
    for leaf in H.leaves:
        parts.append(np.ascontiguousarray(leaf, dtype="<f8").tobytes())
    payload = b"".join(parts)
    checksum = hashlib.sha256(payload).digest()[:8]
    return payload + checksum


def from_bytes(buf: bytes) -> HodlrMatrix:
    """Read a container written by ``to_bytes``.

    Every header field is checked against the layout before it is used, and
    every read against the bytes left, so a damaged or lying container raises
    only SerializationError.
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

    def take(count):
        nonlocal off
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=off)
        off += 8 * count
        return arr.astype(float)

    size = len(payload)
    levels = []
    for ell in range(1, L + 1):
        m = n >> ell
        factors = []
        for j in range(1 << ell):
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
            Q = take(m * r).reshape(m, r)
            X = take(r * m).reshape(r, m)
            factors.append(LowRankFactors(Q=Q, X=X))
        levels.append(factors)
    m = n >> L
    if off + 8 * n * m > size:
        raise SerializationError("container ends inside the leaf blocks")
    leaves = [take(m * m).reshape(m, m) for _ in range(1 << L)]
    if off != size:
        raise SerializationError("trailing bytes in HODLR container")
    return HodlrMatrix(n=n, k=k, levels=levels, leaves=leaves)


def save(H: HodlrMatrix, path) -> None:
    with open(path, "wb") as fh:
        fh.write(to_bytes(H))


def load(path) -> HodlrMatrix:
    with open(path, "rb") as fh:
        return from_bytes(fh.read())
