"""Perforated block sketching.

Builds the structured random sketching matrices the peeling algorithms push
through the operator: a block row-wise Kronecker product ("bullet"), a 0/1
selector with one nonzero per row (CountSketch), its parity-masked pair, and
the randomly perforated Gaussian family, which is that pair and its Gaussian
blocks.  A sketch is kept in that form; ``bullet`` assembles it into the
n x (s*t) operator input only where it is queried (``peel.residual_sketch``).

The samplers take their randomness as a stream key (seed, *key), the key
under which ``rng.stream`` names a stream, and draw from its child streams
themselves; a family's Gaussian blocks are seeded in one batch.  A key is an
immutable value, so sampling twice from the same key draws the same bits.

Block indices are 0-based in code; a block row is "odd" in the 1-based sense
of the sketch layout exactly when its 0-based index is even.  The plus family
keeps those rows and zeroes the rest; the minus family does the opposite.
"""

from dataclasses import dataclass

import numpy as np

from .rng import fill_normal_blocks, stream


def bullet(X, Y) -> np.ndarray:
    """Block row-wise Kronecker product.

    For X (p, v) and Y (p*u, t) viewed as p stacked u-row blocks Y_i, the
    result is (p*u, v*t) with block (i, j) equal to X[i, j] * Y_i.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2:
        raise ValueError("bullet needs two matrices")
    p, v = X.shape
    pu, t = Y.shape
    if pu % p != 0:
        raise ValueError(f"row count {pu} not divisible by {p}")
    u = pu // p
    out = X[:, None, :, None] * Y.reshape(p, u, 1, t)
    return out.reshape(pu, v * t)


@dataclass(frozen=True)
class BlockSelector:
    """d x t binary selector; ``cols[i]`` is the column holding row i's
    nonzero in the underlying CountSketch draw (rows masked off by a
    perforation keep their assignment but have an all-zero row)."""

    entries: np.ndarray
    cols: np.ndarray


def sample_countsketch(d: int, t: int, key: tuple) -> BlockSelector:
    """Each row has a single 1 in a uniformly random column, drawn from the
    stream ``key``."""
    if d < 1 or t < 1:
        raise ValueError("selector dimensions must be >= 1")
    cols = stream(*key).integers(0, t, size=d)
    entries = np.zeros((d, t))
    entries[np.arange(d), cols] = 1.0
    return BlockSelector(entries=entries, cols=cols)


def sample_perf_countsketch(d, t, key) -> tuple[BlockSelector, BlockSelector]:
    """One CountSketch draw masked into a (plus, minus) pair: plus zeroes the
    1-based even rows, minus the odd ones, and plus + minus restores the draw."""
    if d % 2 != 0:
        raise ValueError(f"perforated selector needs even d, got {d}")
    base = sample_countsketch(d, t, key)
    odd_mask = (np.arange(d) % 2 == 0).astype(float)[:, None]
    plus = BlockSelector(entries=base.entries * odd_mask, cols=base.cols)
    minus = BlockSelector(entries=base.entries * (1.0 - odd_mask), cols=base.cols)
    return plus, minus


@dataclass(frozen=True)
class SketchFamily:
    """One level's perforated sketch: a CountSketch draw masked into its
    (plus, minus) selectors, and the (d, n/d, s) ``gaussian_blocks`` both
    share.  The sketch of a parity is ``bullet(selector.entries, stacked)``,
    with ``stacked`` the blocks on top of each other."""

    selector_plus: BlockSelector
    selector_minus: BlockSelector
    gaussian_blocks: np.ndarray


def sample_rand_perf_gaussian(n, d, s, t, key) -> SketchFamily:
    """Randomly perforated Gaussian family from the stream key ``key``.

    The selector draws from the child stream (*key, 0) and Gaussian block i
    from (*key, i + 1), so a family is reproducible without replaying
    anything else.  These are the streams ``SeedSequence.spawn`` would give
    the children of ``rng.seed_sequence(*key)``.
    """
    if n % d != 0:
        raise ValueError(f"{d} block rows do not divide n={n}")
    if d % 2 != 0:
        raise ValueError(f"perforation needs an even block count, got {d}")
    if s < 1 or t < 1:
        raise ValueError("sketch width and column count must be >= 1")
    plus, minus = sample_perf_countsketch(d, t, (*key, 0))
    blocks = fill_normal_blocks(np.empty((d, n // d, s)), *key)
    return SketchFamily(selector_plus=plus, selector_minus=minus, gaussian_blocks=blocks)
