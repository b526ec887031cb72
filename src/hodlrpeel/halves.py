"""Two-core split of the large batched kernels of the peel and of the apply.

``in_halves(fn, count, entries)`` runs ``fn(lo, hi)`` over [0, count) as two
halves: the caller takes the first and one pool thread the second.  Each half
runs the same numpy code on its own slice of independent pieces (transform
columns, stacked matrices, Gaussian blocks, row steps of the level
subtraction, diagonal blocks of ``hodlr_apply``), so the output has the bits
of ``fn(0, count)``.  A call of fewer than ``SPLIT_ENTRIES`` array entries,
or a process allowed a single CPU, runs ``fn(0, count)`` inline.

``fn`` runs numpy only: the pool thread must not enter a library function that
a caller may have wrapped.
"""

import os
from concurrent.futures import ThreadPoolExecutor

# Smaller calls run inline.  No call of an n = 1024, k = 1 exp-hard peel
# reaches it (its largest array is 1024 x 16); Poisson and kernel peels at
# n = 256 to 4096 do split.  Timed split against inline on two cores, every
# Poisson product and stacked SVD those peels make between 2^15 and 2^18
# entries ran faster split, in each of two runs (0.48 to 0.98 of the inline
# time).  Gaussian fills (rng.py), the level subtraction and hodlr_apply
# (hodlr.py) set their own, larger floors.
SPLIT_ENTRIES = 1 << 15

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Threads start on the first submit, so a process that never splits has none.
_POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hodlrpeel-half")


def in_halves(fn, count: int, entries: int) -> list:
    """Results of ``fn`` over [0, count): ``[fn(0, mid), fn(mid, count)]``
    when split, else ``[fn(0, count)]``."""
    if count < 2 or entries < SPLIT_ENTRIES or CPUS < 2:
        return [fn(0, count)]
    mid = count // 2
    second = _POOL.submit(fn, mid, count)
    try:
        first = fn(0, mid)
    finally:
        rest = second.result()
    return [first, rest]
