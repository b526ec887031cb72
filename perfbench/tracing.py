"""Outside-in span tracing of the hodlrpeel layers.

The tracer replaces named functions of the package with wrappers that record
a span (layer, duration, time covered by child spans) while a phase is open,
keeps every span in memory and sums self time per layer afterwards.  Nothing
inside ``src/`` is changed: the wrappers are installed on the module and class
attributes the package itself looks up at call time, and removed again when
the ``installed()`` block ends.

A target the package no longer has is reported in ``Tracer.absent`` and its
layer reads zero; the run goes on.
"""

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "hodlrpeel"


def _columns(args, kwargs, result):
    """Columns pushed through one side by ``LinearOperator.apply(self, X, side)``."""
    X = args[1] if len(args) > 1 else kwargs["X"]
    side = args[2] if len(args) > 2 else kwargs.get("side", "forward")
    width = X.shape[1] if X.ndim == 2 else 1
    return {"linops.fwd_cols" if side == "forward" else "linops.tsp_cols": width}


def _sketch_bytes(args, kwargs, result):
    """Bytes of the sketch matrices a sampling or bullet call returns."""
    if hasattr(result, "assembled_plus"):
        arrays = [result.assembled_plus, result.assembled_minus, *result.gaussian_blocks]
    elif hasattr(result, "entries"):
        arrays = [result.entries]
    elif isinstance(result, tuple):
        arrays = [sel.entries for sel in result]
    else:
        arrays = [result]
    return {"sketch.bytes": sum(a.nbytes for a in arrays)}


def _subtract_flops(args, kwargs, result):
    """Multiply-add flops of applying the recovered factors, 4 r m w per
    block, from the ranks actually stored (no padding counted)."""
    contribs = args[0] if args else kwargs["contribs"]
    X = args[1] if len(args) > 1 else kwargs["X"]
    w = X.shape[1]
    flops = sum(4 * f.Q.shape[1] * f.Q.shape[0] * w for c in contribs for f in c.factors)
    return {"hodlr.subtract_flops": flops}


@dataclass(frozen=True)
class Target:
    """One wrapped function.

    ``path`` is ``module:attribute[.attribute]`` inside the package.  Calls
    and ``measure`` counts are taken only for spans that are outermost in
    their ``group`` (a sampling routine calling ``bullet`` is one sketch).
    """

    layer: str
    path: str
    group: Optional[str] = None
    calls: bool = True
    measure: Optional[Callable] = None

    @property
    def group_key(self) -> str:
        return self.group or self.layer


TARGETS = (
    Target("linops.apply", "linops:LinearOperator.apply", measure=_columns),
    Target("sketch.sample", "sketch:sample_rand_perf_gaussian", group="sketch",
           measure=_sketch_bytes),
    Target("sketch.sample", "sketch:sample_perf_countsketch", group="sketch",
           measure=_sketch_bytes),
    Target("sketch.sample", "sketch:sample_countsketch", group="sketch",
           measure=_sketch_bytes),
    Target("sketch.bullet", "sketch:bullet", group="sketch", calls=False,
           measure=_sketch_bytes),
    # The residual sketch's own work is the array subtraction; the factor
    # products it calls are counted once, on apply_contributions.
    Target("hodlr.subtract", "peel:residual_sketch", group="peel.residual", calls=False),
    Target("hodlr.subtract", "hodlr:apply_contributions", measure=_subtract_flops),
    Target("lowrank.orth", "lowrank:orth"),
    Target("lowrank.pinv_solve", "lowrank:pinv_solve"),
    Target("lowrank.truncate", "lowrank:truncate_factor"),
    Target("lowrank.truncate", "peel:_project_truncate"),
    Target("hodlr.assemble", "hodlr:assemble"),
    Target("peel.self", "peel:run_peel"),
    Target("hodlr.apply", "hodlr:hodlr_apply"),
    Target("hodlr.to_bytes", "hodlr:to_bytes",
           measure=lambda a, kw, r: {"hodlr.container_bytes": len(r)}),
    Target("hodlr.from_bytes", "hodlr:from_bytes"),
)


@dataclass
class _Span:
    layer: str
    group: str
    phase: str
    parent: Optional["_Span"]
    start: float
    duration: float = 0.0
    children: float = 0.0


class Tracer:
    """Records spans of the wrapped targets while a phase is open."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.absent = []
        self.spans = []
        self.counts = {}
        self._stack = []

    def _resolve(self, target):
        module_name, _, attr_path = target.path.partition(":")
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return None
        *parents, name = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, name, None)):
            return None
        return owner, name

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        patches = []
        try:
            for target in self.targets:
                found = self._resolve(target)
                if found is None:
                    self.absent.append(f"{PACKAGE}.{target.path.replace(':', '.')}")
                    continue
                owner, name = found
                own = name in vars(owner)
                original = getattr(owner, name)
                setattr(owner, name, self._wrap(target, original))
                patches.append((owner, name, original, own))
            yield self
        finally:
            for owner, name, original, own in reversed(patches):
                if own:
                    setattr(owner, name, original)
                else:
                    delattr(owner, name)

    @contextmanager
    def phase(self, name):
        """Open a root span; wrapped calls are recorded only inside one."""
        span = self._open(f"phase.{name}", f"phase.{name}", name)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, layer, group, phase=None):
        parent = self._stack[-1] if self._stack else None
        span = _Span(layer, group, phase or parent.phase, parent, time.perf_counter())
        self._stack.append(span)
        return span

    def _close(self, span):
        span.duration = time.perf_counter() - span.start
        self._stack.pop()
        if span.parent is not None:
            span.parent.children += span.duration
        self.spans.append(span)

    def _wrap(self, target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            span = tracer._open(target.layer, target.group_key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if span.parent.group != span.group:
                tracer._count(target, args, kwargs, result)
            return result

        return wrapper

    def _count(self, target, args, kwargs, result):
        if target.calls:
            key = f"{target.layer}_calls"
            self.counts[key] = self.counts.get(key, 0) + 1
        if target.measure is None:
            return
        try:
            extra = target.measure(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            return  # an argument layout this tracer does not know: count nothing
        for key, value in extra.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def totals(self) -> dict:
        """Per-layer ``<layer>_s`` self seconds plus the call and size counts."""
        out = dict(self.counts)
        for span in self.spans:
            if span.parent is not None:
                key = f"{span.layer}_s"
                out[key] = out.get(key, 0.0) + span.duration - span.children
        return out

    def attributed(self, phase) -> float:
        """Self seconds of all layer spans (roots excluded) inside ``phase``."""
        return sum(
            s.duration - s.children
            for s in self.spans
            if s.parent is not None and s.phase == phase
        )

    def span_count(self, phase) -> int:
        """Layer spans (roots excluded) recorded inside ``phase``."""
        return sum(1 for s in self.spans if s.parent is not None and s.phase == phase)


def span_cost() -> float:
    """Seconds one traced call adds to the same call untraced.

    Times 20000 calls of a wrapped no-op, with a call count and one measured
    size, against the bare no-op inside an open phase; the median of 5 trials.
    """
    calls, trials = 20000, 5

    def noop():
        return None

    target = Target("trace.noop", "trace:noop", measure=lambda a, kw, r: {"trace.noop_size": 1})
    costs = []
    for _ in range(trials):
        tracer = Tracer(())
        wrapped = tracer._wrap(target, noop)
        with tracer.phase("cost"):
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            traced = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - start
        costs.append((traced - bare) / calls)
    return statistics.median(costs)
