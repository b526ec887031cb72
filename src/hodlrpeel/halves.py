"""Two-core split of the large batched kernels of the peel and of the apply,
and the checksum of large HODLR containers.

``in_halves(fn, count, entries)`` runs ``fn(lo, hi)`` over [0, count) as two
halves: the caller takes the first and one pool thread the second.  Each half
runs the same numpy code on its own slice of independent pieces (transform
columns, stacked matrices, Gaussian blocks, row steps of the level
subtraction, diagonal blocks of ``hodlr_apply``), so the output has the bits
of ``fn(0, count)``.  A call of fewer than ``SPLIT_ENTRIES`` array entries,
or a process allowed a single CPU, runs ``fn(0, count)`` inline.

``start(fn, *args, pool=...)`` begins one call on the same pool thread and
returns a function that waits for its result; ``hodlr.to_bytes`` and
``hodlr.from_bytes`` hash large containers there while the caller writes or
parses them.  The pool has one thread, so calls run one at a time in the
order they were started: ``to_bytes`` relies on it when it hands over its
byte ranges as separate ``update`` calls of one hash.

``fn`` runs numpy or ``hashlib`` only: the pool thread must not enter a
library function that a caller may have wrapped.

A forked child gets a new pool (the parent's thread does not exist there),
whose thread, as in any process, starts on the first call it is given.
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


def _new_pool():
    # Threads start on the first submit, so a process that never splits has none.
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hodlrpeel-half")


_new_pool()
if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_new_pool)


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


def start(fn, *args, pool: bool):
    """A function that returns ``fn(*args)``: the call begins now on the
    pool thread, or, when ``pool`` is false or the process is allowed a
    single CPU, runs now on the caller's."""
    if not pool or CPUS < 2:
        result = fn(*args)
        return lambda: result
    return _POOL.submit(fn, *args).result
