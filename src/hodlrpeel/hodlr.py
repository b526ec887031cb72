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

from . import linops
from .halves import in_halves
from .lowrank import LowRankFactors, orth, truncated_svd

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


def block_view(A, level, flip):
    """Writeable view of the blocks (j ^ flip, j) of A cut into a
    2^level x 2^level grid of m x m blocks: the level's off-diagonal blocks
    for flip = 1, the diagonal blocks for flip = 0.

    A may also be a (g, N, N) stack of the diagonal blocks of a larger
    matrix, each cut the same way; block j then lies in diagonal block
    j // 2^level.  The view is (g, 2^level, m, m) for flip = 0 and
    (g, 2^level / 2, 2, m, m), by sibling pair, for flip = 1: either way its
    leading axes, flattened in C order, count the blocks j.
    """
    e = 1 << level
    m = A.shape[-1] >> level
    if flip == 0:
        return np.einsum("gimin->gimn", A.reshape(-1, e, m, e, m))
    pairs = np.einsum("gapmaqn->gapqmn", A.reshape(-1, e // 2, 2, m, e // 2, 2, m))
    return np.einsum("gaqqmn->gaqmn", pairs[:, :, ::-1])


@dataclass(eq=False)
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
        if self.n > linops.DESK_SCALE_LIMIT:
            raise StructureError(
                f"refusing dense expansion at n={self.n} > {linops.DESK_SCALE_LIMIT}"
            )
        return fold(self, self.L)[0]


def fold(H, c, lo=0, hi=None) -> np.ndarray:
    """The leaves and the bottom c levels of H as its n/D dense D x D
    diagonal blocks, D = leaf size * 2^c: a (n/D, D, D) stack, or its blocks
    lo..hi-1.  Each level block Q_j X_j is written straight into its place
    (j ^ 1, j); c = L gives the whole dense matrix as one block."""
    top = H.L - c
    D = H.n >> top
    hi = (1 << top) if hi is None else hi
    S = np.zeros((hi - lo, D, D))
    leaves = block_view(S, c, 0)
    leaves[...] = H.leaves[lo << c : hi << c].reshape(leaves.shape)
    for ell, stack in enumerate(H.stacks[top:], start=top + 1):
        m, r = stack.Q.shape[1:]
        if r == 0:
            continue
        blocks = block_view(S, ell - top, 1)
        batch = blocks.shape[:-2]
        J = slice(lo << (ell - top), hi << (ell - top))  # the level blocks in S
        np.matmul(stack.Q[J].reshape(*batch, m, r), stack.X[J].reshape(*batch, r, m), out=blocks)
    return S


def assemble(stacks, leaves, *, n, k, check_rank=True) -> HodlrMatrix:
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
    if n_base * n_leaves != n:
        raise StructureError(f"leaves imply n={n_base * n_leaves}, expected {n}")
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
        if not np.issubdtype(ranks.dtype, np.integer):
            raise StructureError(f"level {ell}: ranks must be integers, got dtype {ranks.dtype}")
        if np.any((ranks < 0) | (ranks > r)):
            raise StructureError(f"level {ell}: ranks outside [0, {r}], the stack width")
        pad = np.arange(r) >= ranks[:, None]
        if pad.any() and (np.where(pad[:, None, :], stack.Q, 0.0).any()
                          or np.where(pad[:, :, None], stack.X, 0.0).any()):
            raise StructureError(f"level {ell}: nonzero padding past a block's rank")
        if check_rank and np.any(ranks > k):
            j = int(np.argmax(ranks > k))
            raise StructureError(f"level {ell} block {j}: rank {ranks[j]} exceeds k={k}")
    # Serialization reads the ranks as an array, whatever sequence was passed.
    stacks = [LowRankFactors(st.Q, st.X, np.asarray(st.ranks)) for st in stacks]
    return HodlrMatrix(n=n, k=k, stacks=stacks, leaves=leaves)


class FlopCounter:
    """Counts multiply-add flops of the matmuls performed (2*a*b*c each)."""

    def __init__(self):
        self.flops = 0

    def add(self, a: int, b: int, c: int) -> None:
        self.flops += 2 * a * b * c


# Input and output entries, over the classes, that ``apply_contributions``
# takes per step: 2^16 (512 KiB), so that a step's rows stay in cache
# across the levels.
STEP_ENTRIES = 1 << 16
FOLD_ROWS = 32  # block rows that ``fold_depth`` folds whatever the rank
# The kernel splits its row steps, and ``hodlr_apply`` its dense diagonal
# blocks, across two cores (``halves.in_halves``) from this many entries of
# the array the call builds: the kernel's output (n x s), the apply's folded
# blocks (n x D).  Timed split against inline on two cores with BLAS on one
# thread, three runs each: every kernel call of a GN1 Poisson peel at
# n = 1024 to 16384 from 2^17 entries ran at 0.58 to 0.89 of the inline time
# but the smallest (one level, 0.35 ms: 1.16); at 2^15 and 2^16 entries
# (n = 1024, 32 columns; applies of 1024 x 64 to 16384 x 4) none ran faster
# (0.91 to 1.08).  The dense part of an apply at n = 1024, D = 64 (2^16
# entries) ran 1.44 times as long split, from 2^17 entries 0.53 to 1.04.  So
# no call of an n = 1024 exp-hard peel or apply splits.
SPLIT_APPLY = 1 << 17


def _row_classes(F, m, c, swap, reverse):
    """A (e, M, r) stack of factors as (c, e/2, 2, M/c, r), by sibling pair:
    each factor's m-row sub-blocks q, q + c, q + 2c, ... in class q.  ``swap``
    takes factor J ^ 1 for J and ``reverse`` reverses the classes.  A view of
    F for c = 1 (Q, Q pair-swapped or X transposed); for c = 2 a copy, as
    its layout depends on m."""
    e, M, r = F.shape
    F = F.reshape(e // 2, 2, M // (c * m), c, m, r)
    if swap:
        F = F[:, ::-1]
    if reverse:
        F = F[:, :, :, ::-1]
    return F.transpose(3, 0, 1, 2, 4, 5).reshape(c, e // 2, 2, M // c, r)


def apply_contributions(contribs, blocks, cols, out, side="forward", counter=None):
    """Subtract from ``out``, in place, the level stacks' product with the
    input blocks at the entries ``out`` holds: the sketch blocks a peeling
    level reads, or all of ``hodlr_apply``'s product with its unfolded levels.

    ``out`` cuts n rows into d blocks of m rows, m no larger than any level's
    blocks.  Input block i is row block i of ``blocks`` (n, s), placed in
    column group ``cols[i]`` of its sketch.  ``out`` is a C-contiguous
    (c, d/c, m, s) stack, one entry per input block i = c a + p, at
    ``out[p, a]``:

    * c = 2, perforated: the sketch of parity p holds the blocks i of parity
      p, and ``out[p, a]`` is the partner row block i ^ 1, column group
      ``cols[i]``, of the levels' product with it;
    * c = 1, unperforated: one sketch holds every block, and ``out[0, i]`` is
      row block i, column group ``cols[i]``.  With every ``cols[i]`` zero
      this is the full n x s product: the peel's leaf sketch, and
      ``hodlr_apply``, which negates ``out`` before and after the call.

    Only the blocks that feed those entries are multiplied.  In each class a
    factor J of a level contracts its side of the product (X_J forward,
    Q_J^T transpose) with the input blocks under it, summed per column
    group: one r x s matrix per group, and one deep matmul when a single
    group is in use.  Its other side maps the sums onto the rows of the
    partner block J ^ 1 that ``out`` holds, each entry taking its own
    group's sum.  That is 4 n r s flops per level for both classes together.

    The rows of each class go in steps of ``STEP_ENTRIES`` entries, which
    every level visits in turn while they are in cache.  A level whose
    factors fit in a step is done there.  A larger one sums its contractions
    over the steps and maps them in a second pass; that needs a single
    group, so with several groups one step takes all the rows.  Steps read
    the factors by class and sibling pair (``_row_classes``), and the input
    blocks by class: in place for c = 1, copied on every call for c = 2.

    From ``SPLIT_APPLY`` output entries each pass runs in two halves of the
    steps, the second on the pool thread (``halves.in_halves``), each half
    with its own result buffer.  Every output row gets the same matmuls in
    the same order as in one pass, so the bits do not depend on the split.
    """
    c, _, m, s = out.shape
    n = blocks.shape[0]
    rows = n // c  # per class
    fwd = side == "forward"
    groups = cols.reshape(-1, c).T
    one_group = not np.any(cols)  # t = 1, or every block drawn into group 0
    step = m
    while 2 * step <= rows and (2 * step * c * s <= STEP_ENTRIES or not one_group):
        step *= 2
    levels = []
    for stack in contribs:
        Q, X = stack.Q, stack.X
        e, M, r = Q.shape
        if r == 0:
            continue
        # Slot J of C contracts the input blocks under J, and slot I of E maps
        # onto the rows of I: each holds K rows of a factor per class.
        Xt = X.swapaxes(1, 2)
        C = _row_classes(Xt if fwd else Q, m, c, swap=not fwd, reverse=False)
        E = _row_classes(Q if fwd else Xt, m, c, swap=fwd, reverse=True)
        K = M // c
        W = np.zeros((c, rows // K, r, s)) if K >= step else None
        levels.append((r, K, C, E, W))
        if counter is not None:
            counter.add(r, n, s)
            counter.add(n, r, s)
    if not levels:
        return
    summed = [(K, E, W) for r, K, C, E, W in levels if W is not None]
    acc = np.reshape(out, (c, rows, s), copy=False)
    classes = blocks.reshape(rows // m, c, m, s).swapaxes(0, 1)

    def contract_and_map(lo, hi):  # row steps lo..hi-1
        res = np.empty((c, step, s))
        for x0 in range(lo * step, hi * step, step):
            x1 = x0 + step
            g = classes[:, x0 // m : x1 // m].reshape(c, step, s)  # a view if c = 1
            for r, K, C, E, W in levels:
                if W is not None:
                    J, off = divmod(x0, K)
                    W[:, J ^ 1] += C[:, J >> 1, J & 1, off : off + step].swapaxes(-1, -2) @ g
                    continue
                # The step holds whole partner pairs of slots, cut into u pieces
                # of k rows each: one piece per slot, or one per input block.
                u = 1 if one_group else K // m
                k = K // u
                pairs = slice(x0 // (2 * K), x1 // (2 * K))
                shape = (c, step // (2 * K), 2, u, k)
                P = C[:, pairs].reshape(shape + (r,)).swapaxes(-1, -2) @ g.reshape(shape + (s,))
                P = P[:, :, ::-1]
                if not one_group:
                    P = _group_sums(P, groups[:, x0 // m : x1 // m].reshape(shape[:-1]))
                np.matmul(E[:, pairs].reshape(shape + (r,)), P, out=res.reshape(shape + (s,)))
                acc[:, x0:x1] -= res

    def map_sums(lo, hi):  # row steps lo..hi-1
        res = np.empty((c, step, s))
        for x0 in range(lo * step, hi * step, step):
            for K, E, W in summed:
                J, off = divmod(x0, K)
                np.matmul(E[:, J >> 1, J & 1, off : off + step], W[:, J], out=res)
                acc[:, x0 : x0 + step] -= res

    # The halves of the steps meet at rows / 2, a multiple of every K: the
    # rows of a slot J, and so all the sums into W[:, J ^ 1], fall in one
    # half.  The second pass starts once the first has returned.
    size = out.size if out.size >= SPLIT_APPLY else 0
    in_halves(contract_and_map, rows // step, size)
    if summed:
        in_halves(map_sums, rows // step, size)


# hodlr_apply's name for the kernel: a wrapper installed on
# ``apply_contributions`` (the span tracer's) sees only the peel's calls.
_subtract_levels = apply_contributions


def _group_sums(P, grp):
    """Contractions P (c, a, 2, u, r, s) of single input blocks, each already
    in the slot of the partner pair that reads it, summed per column group
    of the input blocks; output block (c, a, 2, u) of a slot takes the sum
    of its own group ``grp``."""
    t = int(grp.max()) + 1
    slots = t * np.arange(grp.size // grp.shape[-1]).reshape(grp.shape[:-1] + (1,))
    width = P.shape[-2] * P.shape[-1]
    bins = (slots + grp[:, :, ::-1])[..., None] * width + np.arange(width)
    sums = np.bincount(bins.ravel(), weights=P.ravel(), minlength=slots.size * t * width)
    return sums.reshape((-1,) + P.shape[-2:])[slots + grp]


def fold_depth(n: int, k: int, w: int) -> int:
    """How many bottom levels of an (n, k) layout ``hodlr_apply`` folds into
    dense diagonal blocks for a product with w columns: every level whose
    block size m is at most max(4k, ``FOLD_ROWS``), where the low-rank form
    saves little arithmetic or costs more in per-block calls, and at most 2w,
    where building a level's dense blocks (2 n m r flops) costs no more than
    applying its factors (4 n r w)."""
    limit = min(max(4 * k, FOLD_ROWS), 2 * w)
    return sum((n >> ell) <= limit for ell in range(1, level_count(n, k) + 1))


def hodlr_apply(H: HodlrMatrix, X, side="forward", counter=None) -> np.ndarray:
    """Fast product H @ X (or H^T @ X); O(n k L b) arithmetic for b columns.

    The leaves and the bottom c = ``fold_depth`` levels are folded, per call,
    into dense D x D diagonal blocks and applied with one stacked matmul.  The
    top L - c levels are applied from their factors by the peel's subtraction
    kernel (``apply_contributions``) in its unperforated form, with the
    D-row blocks of the folded product as its output blocks.  From
    ``SPLIT_APPLY`` folded entries the fold, the product and the negations
    around the kernel run in two halves of the diagonal blocks, and the
    kernel splits its own rows; each block gets the same calls either way.
    """
    if side not in ("forward", "transpose"):
        raise ValueError(f"unknown side {side!r}")
    if np.iscomplexobj(X):
        raise StructureError(f"need a real input, got dtype {np.asarray(X).dtype}")
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim not in (1, 2):
        raise StructureError(f"need a vector or an (n, w) block, got shape {X.shape}")
    squeeze = X.ndim == 1
    if squeeze:
        X = X[:, None]
    if X.shape[0] != H.n:
        raise StructureError(f"expected {H.n} rows, got {X.shape[0]}")
    w = X.shape[1]
    c = fold_depth(H.n, H.k, w)
    top = H.L - c
    g, D = 1 << top, H.n >> top
    Xb = X.reshape(g, D, w)
    out = np.empty((g, D, w))

    def dense(lo, hi):  # diagonal blocks lo..hi-1
        S = fold(H, c, lo, hi)
        np.matmul(S if side == "forward" else S.transpose(0, 2, 1), Xb[lo:hi], out=out[lo:hi])
        # The kernel subtracts: run it on -out rather than on a copy -X.
        np.negative(out[lo:hi], out=out[lo:hi])

    size = H.n * D if H.n * D >= SPLIT_APPLY else 0
    in_halves(dense, g, size)
    if counter is not None:
        for stack in H.stacks[top:]:
            d, m, r = stack.Q.shape
            counter.add(d * m, r, m)
        counter.add(g * D, D, w)
    _subtract_levels(H.stacks[:top], X, np.zeros(g, int), out.reshape(1, g, D, w),
                     side, counter)
    in_halves(lambda lo, hi: np.negative(out[lo:hi], out=out[lo:hi]), g, size)
    out = out.reshape(H.n, w)
    return out[:, 0] if squeeze else out


def best_hodlr(A, k: int) -> HodlrMatrix:
    """Frobenius-optimal HODLR(k) approximation of a dense matrix: truncated
    SVDs of every off-diagonal block, one stacked ``truncated_svd`` per
    level, and exact leaf diagonals."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise StructureError(f"need a square matrix, got {A.shape}")
    L = level_count(n, k)
    stacks = []
    for ell in range(1, L + 1):
        f = truncated_svd(block_view(A, ell, 1).reshape(-1, n >> ell, n >> ell), k)
        stacks.append(LowRankFactors(Q=np.ascontiguousarray(f.Q), X=f.X, ranks=f.ranks))
    return assemble(stacks, block_view(A, L, 0)[0], n=n, k=k)


def random_hodlr(n, k, rng) -> HodlrMatrix:
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
    return assemble(stacks, rng.standard_normal((1 << L, m, m)), n=n, k=k)


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


def to_bytes(H: HodlrMatrix) -> bytearray:
    # Written in place into one buffer and hashed once.  A level's blocks of rank
    # rho write Q and X, cut to rho, as rows of a view whose rows start at every word.
    head = MAGIC + struct.pack("<IQII", FORMAT_VERSION, H.n, H.k, H.L)
    widths = [1 + 2 * stack.Q.shape[1] * stack.ranks for stack in H.stacks]
    ends = np.cumsum([0] + [int(w.sum()) for w in widths])
    buf = bytearray(len(head) + 8 * (ends[-1] + H.leaves.size) + 8)
    buf[: len(head)] = head
    words = np.frombuffer(buf, "<f8", count=ends[-1] + H.leaves.size, offset=len(head))
    for stack, w, start, end in zip(H.stacks, widths, ends, ends[1:]):
        d, m = stack.Q.shape[:2]
        level = words[start:end]
        first = w.cumsum() - w
        level.view("<u8")[first] = np.arange(d, dtype="<u8") | stack.ranks.astype("<u8") << 32
        for rho in np.flatnonzero(np.bincount(stack.ranks)[1:]) + 1:  # the nonzero ranks
            J = np.flatnonzero(stack.ranks == rho)
            at, J = first[J] + 1, (J if len(J) < d else slice(None))  # every block: views
            rows = np.ndarray((len(level) - m * rho + 1, m * rho), "<f8", level, strides=(8, 8))
            rows[at] = stack.Q[J, :, :rho].reshape(len(at), -1)
            rows[at + m * rho] = stack.X[J, :rho].reshape(len(at), -1)
    words[ends[-1] :] = H.leaves.reshape(-1)
    buf[-8:] = hashlib.sha256(memoryview(buf)[:-8]).digest()[:8]
    return buf


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
    payload, checksum = memoryview(buf)[:-8], buf[-8:]
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
