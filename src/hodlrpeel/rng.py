"""Seeded, splittable random streams.

Every random draw in the library flows through a named stream keyed by
(seed, *key). Disjoint keys give statistically independent streams, and any
stream (a level, a block, a trial) can be reproduced in isolation without
replaying the draws that preceded it.
"""

import numpy as np

# Role tags used to key sketch streams inside the peeling algorithms.
ROLE_RIGHT = 0
ROLE_LEFT = 1
ROLE_DIAG = 2
ROLE_CHECK = 3


def seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(int(seed), spawn_key=tuple(map(int, key)))


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for stream ``key`` under ``seed``.

    Gaussian variates come from numpy's standard-normal (ziggurat) transform;
    reimplementations need only match the distribution, not the bit stream.
    """
    return np.random.default_rng(seed_sequence(seed, *key))
