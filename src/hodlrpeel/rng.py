"""Seeded, splittable random streams.

Every random draw in the library flows through a named stream keyed by
(seed, *key). Disjoint keys give statistically independent streams, and any
stream (a level, a block, a trial) can be reproduced in isolation without
replaying the draws that preceded it.
"""

import numpy as np

from .halves import in_halves

# Role tags used to key sketch streams inside the peeling algorithms.
ROLE_RIGHT = 0
ROLE_LEFT = 1
ROLE_DIAG = 2
ROLE_CHECK = 3

_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # O'Neill's 128-bit LCG multiplier

# Reseeding a block holds the GIL, so two threads filling small blocks mostly
# wait for each other.  Timed on two cores, a family split gained only with
# blocks of at least 4096 entries and 2^16 entries in all (it took twice as
# long with 1024 blocks of 512); smaller ones are filled inline.
_SPLIT_BLOCK, _SPLIT_FAMILY = 4096, 1 << 16


def seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(int(seed), spawn_key=tuple(map(int, key)))


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for stream ``key`` under ``seed``.

    Gaussian variates come from numpy's standard-normal (ziggurat) transform.
    An outside reimplementation need only match the distribution, but the
    batched ``fill_normal_blocks`` matches these bits: it redoes numpy's
    SeedSequence hash (its documentation) and PCG64 seeding (O'Neill 2014).
    """
    return np.random.default_rng(seed_sequence(seed, *key))


def fill_normal_blocks(out: np.ndarray, seed: int, *key: int) -> np.ndarray:
    """Fill each ``out[i]`` with ``stream(seed, *key, i + 1)``'s normals, bit
    for bit, reseeding one generator.  The children's entropy differs only in
    its last word, which SeedSequence mixes last: the pool of (seed, *key) is
    each child's pool before it, and the rest of the hash runs on uint32
    arrays over all children at once.  PCG64 is seeded as ``srandom`` does.
    A family of large blocks is filled in two halves on two cores."""
    d = len(out)
    pool = seed_sequence(seed, *key).pool
    # A spawned sequence pads its seed to the 4-word pool; 4 hash steps a word.
    words = [max(1, -(-int(x).bit_length() // 32)) for x in (seed, *key)]
    skip = 4 * (max(4, words[0]) + sum(words[1:]))
    # Step t of a hash xors with c[t] and multiplies by c[t + 1].
    c_mix = [0x43B0D7E5 * pow(0x931E8875, t, 1 << 32) & _MASK32 for t in range(skip, skip + 5)]
    c_out = [0x8B51F9DD * pow(0x58F38DED, t, 1 << 32) & _MASK32 for t in range(9)]
    c_mix, c_out = np.array(c_mix, np.uint32)[:, None], np.array(c_out, np.uint32)[:, None]
    mixed, tmp = np.empty((4, d), np.uint32), np.empty((8, d), np.uint32)
    # hashmix(i + 1) once per pool word, then mix(pool word, that) into it
    np.bitwise_xor(np.arange(1, d + 1, dtype=np.uint32), c_mix[:4], out=mixed)
    mixed *= c_mix[1:]
    mixed ^= np.right_shift(mixed, 16, out=tmp[:4])
    mixed *= -0x4973F715 & _MASK32
    mixed += (pool * np.uint32(0xCA01F9DD))[:, None]
    mixed ^= np.right_shift(mixed, 16, out=tmp[:4])
    # generate_state: 8 uint32 words, little-endian pairs of 4 uint64 ones
    state = np.empty((d, 8), "<u4")
    hashed = np.bitwise_xor(np.tile(mixed, (2, 1)), c_out[:8], out=state.T)
    hashed *= c_out[1:]
    hashed ^= np.right_shift(hashed, 16, out=tmp)
    states = state.view("<u8").tolist()

    def fill(lo, hi):  # one generator per half of the blocks
        gen = np.random.default_rng(0)
        for block, (s_hi, s_lo, i_hi, i_lo) in zip(out[lo:hi], states[lo:hi]):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) % (1 << 128)
            pcg = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) % (1 << 128)
            gen.bit_generator.state = {"bit_generator": "PCG64",
                                       "state": {"state": pcg, "inc": inc},
                                       "has_uint32": 0, "uinteger": 0}
            gen.standard_normal(out=block)

    large = out.size >= _SPLIT_FAMILY and out[0].size >= _SPLIT_BLOCK
    in_halves(fill, d, out.size if large else 0)
    return out
