"""Test-only reference code: matrix-free randomized SVD and generalized
Nystrom on a whole operator, a sketch family's assembled sketches, the
dense-reference checks of a finished peel, a record-by-record container
writer, a dense CSV writer, the reader of ``bench``'s config stamps and a
``tracemalloc`` peak."""

import configparser
import hashlib
import struct
import tracemalloc

import numpy as np

from hodlrpeel import hodlr, linops, peel, sketch
from hodlrpeel.lowrank import LowRankFactors, RankError, gn_from_sketches, orth, truncate_factor
from hodlrpeel.rng import ROLE_RIGHT


def empty_factors(m1: int, m2: int) -> LowRankFactors:
    return LowRankFactors(Q=np.zeros((m1, 0)), X=np.zeros((0, m2)))


def _as_operator(op):
    if isinstance(op, linops.LinearOperator):
        return op
    return linops.make_dense_operator(op)


def rsvd(op, k, s_R, rng) -> LowRankFactors:
    """Randomized SVD: Q = orth(B Omega), then the best rank-k approximation
    of B inside range(Q).  Uses s_R forward and rank(Q) transpose queries."""
    if s_R < k:
        raise RankError(f"sketch width {s_R} below target rank {k}")
    op = _as_operator(op)
    Omega = rng.standard_normal((op.n, s_R))
    Q = orth(op.apply(Omega, linops.FORWARD))
    if Q.shape[1] == 0:
        return empty_factors(op.n, op.n)
    X = op.apply(Q, linops.TRANSPOSE).T  # Q^T B via transpose products
    return truncate_factor(Q, X, k)


def gnm(op, k, s_R, s_L, rng) -> LowRankFactors:
    """Generalized Nystrom: range from a right sketch, then the sketched
    regression argmin_Z ||Psi^T B - Psi^T Q Z||_F solved by pseudoinverse."""
    if not (s_L >= s_R >= k >= 1):
        raise RankError(f"need s_L >= s_R >= k >= 1, got ({k}, {s_R}, {s_L})")
    op = _as_operator(op)
    Omega = rng.standard_normal((op.n, s_R))
    Psi = rng.standard_normal((op.n, s_L))
    Y = op.apply(Omega, linops.FORWARD)
    if not np.any(Y):
        return empty_factors(op.n, op.n)
    return gn_from_sketches(Y, op.apply(Psi, linops.TRANSPOSE).T, Psi, k)


def assembled(fam) -> tuple:
    """The (plus, minus) n x (s*t) sketches of a perforated family, each
    ``bullet(selector.entries, stacked)`` as ``peel.residual_sketch`` builds
    it, with ``stacked`` the Gaussian blocks on top of each other."""
    stacked = np.concatenate(fam.gaussian_blocks)
    return tuple(
        sketch.bullet(sel.entries, stacked) for sel in (fam.selector_plus, fam.selector_minus)
    )


NOISE_REL_TOL = 1e-10


def dense_reference_errors(op, A, H, config) -> list:
    """Per-level Frobenius recovery errors of a peel's result H, checked
    against A, a dense copy of ``op``, after the peel.

    For each level l it draws the peel's right family again, under the key
    (seed, l, ROLE_RIGHT), and rebuilds the level's range sketches Y with
    ``peel.residual_sketch`` from the levels of H above l.  Block j's sketch
    must equal the dense residual's A_{j^1,j} Omega_j plus the structured
    noise E_j = sum of A_{j^1,i} Omega_i over the other blocks i of j's
    parity and column group; an AssertionError names the first block where
    it does not.  Then H's level l is subtracted from the residual, and the
    Frobenius norm of what is left of the level's blocks is its error.
    Reads 2 s_R t_R more forward columns of ``op`` per level."""
    n, s = op.n, config.s_R
    residual = np.array(A, dtype=float)
    errors = []
    for ell in range(1, H.L + 1):
        d, m = 1 << ell, n >> ell
        right = sketch.sample_rand_perf_gaussian(
            n, d, s, config.t_R, (config.seed, ell, ROLE_RIGHT)
        )
        Y = peel.residual_sketch(
            op, H.stacks[: ell - 1], (right.selector_plus, right.selector_minus),
            right.gaussian_blocks.reshape(n, s), linops.FORWARD,
        ).reshape(d, m, s)
        cols = right.selector_plus.cols
        for j in range(d):
            p = hodlr.partner(j)
            rows = residual[p * m:(p + 1) * m]
            noise = np.zeros((m, s))
            for i in range(j % 2, d, 2):
                if i != j and cols[i] == cols[j]:
                    noise += rows[:, i * m:(i + 1) * m] @ right.gaussian_blocks[i]
            measured = Y[j] - rows[:, j * m:(j + 1) * m] @ right.gaussian_blocks[j]
            # At the scale of the sketch itself: where the true noise is zero,
            # both sides are rounding dirt from different summation orders.
            scale = max(np.linalg.norm(Y[j]), np.linalg.norm(noise), 1e-300)
            if np.linalg.norm(measured - noise) > NOISE_REL_TOL * scale:
                raise AssertionError(
                    f"level {ell} block {j}: sketch noise is not the structured form E_j"
                )
        blocks = hodlr.block_view(residual, ell, 1)
        blocks -= H.stacks[ell - 1].dense().reshape(blocks.shape)
        errors.append(float(np.linalg.norm(blocks)))
    return errors


def blockwise_container(H) -> bytes:
    """The container written one block record at a time: the reference for
    the per-level records of ``hodlr.to_bytes``."""
    parts = [hodlr.MAGIC, struct.pack("<IQII", hodlr.FORMAT_VERSION, H.n, H.k, H.L)]
    for factors in H.levels:
        for j, f in enumerate(factors):
            parts += [struct.pack("<II", j, f.rank), f.Q.astype("<f8").tobytes(),
                      f.X.astype("<f8").tobytes()]
    payload = b"".join(parts + [H.leaves.astype("<f8").tobytes()])
    return payload + hashlib.sha256(payload).digest()[:8]


def save_dense_csv(M, path) -> None:
    np.savetxt(path, np.asarray(M, dtype=float), delimiter=",", fmt="%.17g")


def load_config(path) -> dict:
    cp = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        cp.read_file(fh)
    return {sec: dict(cp[sec]) for sec in cp.sections()}


def traced_peak(fn, *args):
    """Peak bytes traced by ``tracemalloc`` while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak
