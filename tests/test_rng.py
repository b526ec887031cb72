import numpy as np
import pytest

from hodlrpeel.rng import fill_normal_blocks, stream


def per_block_streams(out, seed, *key):
    """Reference: one generator per block, block i from (seed, *key, i + 1)."""
    for i in range(len(out)):
        stream(seed, *key, i + 1).standard_normal(out=out[i])
    return out


# Seeds of one, two and five uint32 words; keys empty, with zeros, and with an
# entry of two words.  d = 2^11 is the block count of a poisson-16k level.
@pytest.mark.parametrize(
    "seed, key, shape",
    [
        (0, (), (1, 1, 1)),
        (0, (0,), (3, 1, 4)),
        (0, (0, 0, 2), (64, 2, 1)),
        (2**32, (5, 1), (8, 3, 2)),
        (2**40 + 5, (11, 0), (2**11, 1, 3)),
        (2**130 + 7, (3,), (5, 2, 3)),
        (7, (2**32, 0), (16, 1, 1)),
        (1, (2**64 + 3, 2, 0), (2**11, 8, 1)),
        (123, (9, 1, 0, 0, 0), (4, 1, 5)),
    ],
)
def test_fill_normal_blocks_matches_the_per_block_streams(seed, key, shape):
    got = fill_normal_blocks(np.empty(shape), seed, *key)
    np.testing.assert_array_equal(got, per_block_streams(np.empty(shape), seed, *key))


def test_fill_normal_blocks_fills_in_place():
    out = np.empty((4, 2, 3))
    assert fill_normal_blocks(out, 5, 1) is out
