"""Test-only reference code: matrix-free randomized SVD and generalized
Nystrom on a whole operator, and the reader of ``bench``'s config stamps."""

import configparser

import numpy as np

from hodlrpeel import linops
from hodlrpeel.lowrank import LowRankFactors, RankError, gn_from_sketches, orth, truncate_factor


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




def load_config(path) -> dict:
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    return {sec: dict(cp[sec]) for sec in cp.sections()}
