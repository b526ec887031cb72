"""Workloads, timed phases and correctness checks of the hodlrpeel benchmark.

A workload's set-up builds a ``Case``: the operator, the list of peels, the
inputs of the apply phase and the reference for the error.  One repetition
runs three timed phases on it:

* ``peel``: every configuration through ``peel.run_peel``;
* ``apply``: each recovered H applied to every input, forward and transpose;
* ``serialize``/``deserialize``: each H round-tripped through its container.

Every output is checked outside the timed regions, and each peel, apply or
round trip that raises or misses a check is one failed operation.
"""

import gc
import inspect
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from hodlrpeel import bench, hodlr, linops, peel

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# (name, unit) in the order they are printed, as BENCHMARK.json lists them.
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

PHASES = ("peel", "apply", "serialize", "deserialize")
SIDES = (linops.FORWARD, linops.TRANSPOSE)

APPLY_RTOL = 1e-10
# Share of the traced peel time that may fall outside every wrapped layer
# (the benchmark's own loop between peels).
UNATTRIBUTED_RTOL = 0.01
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median


@dataclass
class Case:
    """What one repetition needs; built by a workload's set-up."""

    op: linops.LinearOperator
    configs: list
    inputs: list
    roundtrips: int  # per recovered H in one round of the round-trip list
    rounds: int  # timed rounds of the apply and round-trip lists per repetition
    error: Callable  # recovered H -> relative error of that peel
    seeds: list
    # Largest share of the traced peel that peel.self_s may take before the
    # run warns that time is going to a function no target wraps: twice the
    # share measured at the commit that set it (see README.md).
    self_share: float


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _peel_seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _warm_pipeline(op, config, X):
    """Untimed first pass through every timed code path."""
    H, _ = peel.run_peel(op, config, allow_invalid=True)
    for side in SIDES:
        hodlr.hodlr_apply(H, X, side=side)
    hodlr.from_bytes(hodlr.to_bytes(H))


def poisson_case(seed, t=128) -> Case:
    """One GN1 peel (k = 8, beta = 1/4) of the FFT inverse Laplacian on a
    t x t grid.

    The error is ||(A - H) G||_F / ||A G||_F over 128 Gaussian probes G whose
    products are taken in set-up, outside the counted peel.
    """
    k, preset, beta, probes, width, rounds, roundtrips = 8, "GN1", 0.25, 128, 64, 10, 3
    op = linops.make_poisson_operator(t)
    n = op.n
    rng = _rng(seed, 1)
    G = rng.standard_normal((n, probes))
    AG = op.apply(G)
    ag_norm = np.linalg.norm(AG)
    inputs = [rng.standard_normal((n, width))]
    seeds = _peel_seeds(seed, 2)
    config = bench.preset_config(preset, k, beta, seed=seeds[0])
    # Warm-up: the whole pipeline on a quarter-side grid, then one full-size
    # operator product and an apply/round trip of a full-size HODLR matrix,
    # so the timed phases meet no first-call or first-allocation cost.
    small = linops.make_poisson_operator(t // 4)
    _warm_pipeline(small, bench.preset_config(preset, k, beta, seed=seeds[1]),
                   rng.standard_normal((small.n, width)))
    op.apply(rng.standard_normal((n, config.s_L * config.t_L)), linops.TRANSPOSE)
    H_warm = hodlr.random_hodlr(n, k, rng)
    for side in SIDES:
        hodlr.hodlr_apply(H_warm, inputs[0], side=side)
    hodlr.from_bytes(hodlr.to_bytes(H_warm))

    def error(H):
        return float(np.linalg.norm(AG - hodlr.hodlr_apply(H, G)) / ag_norm)

    return Case(op=op, configs=[config], inputs=inputs, roundtrips=roundtrips,
                rounds=rounds, error=error, seeds=seeds[:1], self_share=0.02)


EXPHARD_PRESETS = (("RSVD1", 0.5), ("GN2", 0.25), ("RSVD2", 0.25))


def exphard_case(seed, L=10) -> Case:
    """The criterion-7 presets on the adversarial column instance, k = 1.

    The error of a peel is ||A - H||_F / ||A - best_hodlr(A)||_F.
    """
    width, rounds, roundtrips, n_inputs, seeds_per_preset = 64, 3, 1, 2, 4
    op = linops.make_exp_hard_instance(L, 1e8)
    A = op.materialize()
    opt = float(np.linalg.norm(A - hodlr.best_hodlr(A, 1).to_dense()))
    rng = _rng(seed, 2)
    inputs = [rng.standard_normal((op.n, width)) for _ in range(n_inputs)]
    seeds = _peel_seeds(seed, seeds_per_preset + 1)
    configs = [
        bench.preset_config(name, 1, beta, seed=s)
        for name, beta in EXPHARD_PRESETS
        for s in seeds[:seeds_per_preset]
    ]
    for name, beta in EXPHARD_PRESETS:
        _warm_pipeline(op, bench.preset_config(name, 1, beta, seed=seeds[-1]), inputs[0])

    def error(H):
        return float(np.linalg.norm(A - H.to_dense()) / opt)

    return Case(op=op, configs=configs, inputs=inputs, roundtrips=roundtrips,
                rounds=rounds, error=error, seeds=seeds[:seeds_per_preset],
                self_share=0.14)


# Set-up of each workload BENCHMARK.json names: seed -> Case.
WORKLOADS = {"poisson-16k": poisson_case, "exphard-1k": exphard_case}


def reference_apply(H, X, side):
    """H @ X (or H^T @ X) block by block from the stored factors."""
    out = np.zeros_like(X)
    for ell, factors in enumerate(H.levels, start=1):
        m = H.n >> ell
        for j, f in enumerate(factors):
            rows = slice((j ^ 1) * m, ((j ^ 1) + 1) * m)  # row block paired with column block j
            cols = slice(j * m, (j + 1) * m)
            if side == linops.FORWARD:
                out[rows] += f.Q @ (f.X @ X[cols])
            else:
                out[cols] += f.X.T @ (f.Q.T @ X[rows])
    m = H.n >> H.L
    for j, leaf in enumerate(H.leaves):
        b = slice(j * m, (j + 1) * m)
        out[b] += (leaf if side == linops.FORWARD else leaf.T) @ X[b]
    return out


class Checks:
    """Attempted and failed operations; the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def crashed(self, what):
        self.record(False, f"{what}: {traceback.format_exc()}")

    @contextmanager
    def timing(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - start


class Timings:
    """Seconds of every timed operation, keyed by phase and list item."""

    def __init__(self):
        self.items = {p: {} for p in PHASES}
        self.total = 0.0

    @contextmanager
    def timed(self, phase, item, tracer=None):
        ctx = tracer.phase(phase) if tracer is not None else nullcontext()
        start = time.perf_counter()
        with ctx:
            yield
        elapsed = time.perf_counter() - start
        self.items[phase].setdefault(item, []).append(elapsed)
        self.total += elapsed

    def list_seconds(self, phase):
        """One pass over the phase's list: the sum over its items of each
        item's median time, so a stall during one sample counts once at most."""
        return math.fsum(statistics.median(v) for v in self.items[phase].values())


@dataclass
class Rep:
    forward: int = 0
    transpose: int = 0
    errors: list = field(default_factory=list)


def _accepts_counter():
    return hasattr(hodlr, "FlopCounter") and (
        "counter" in inspect.signature(hodlr.hodlr_apply).parameters
    )


def repetition(case, checks, expected_queries, timings, rounds=None, tracer=None,
               flops=None) -> Rep:
    """Each peel of the list, followed by ``rounds`` (default ``case.rounds``)
    rounds of applying and round-tripping the H it recovered.

    Using each H right after its peel spreads every phase's samples over the
    whole run, so a phase's time does not hinge on the machine's speed
    during one short burst.
    """
    rounds = case.rounds if rounds is None else rounds
    rep = Rep()
    gc.collect()
    for c, config in enumerate(case.configs):
        what = f"peel {config.variant} seed={config.seed}"
        try:
            f0, r0 = case.op.counter.snapshot()
            with timings.timed("peel", c, tracer):
                H, _ = peel.run_peel(case.op, config, allow_invalid=True)
            f1, r1 = case.op.counter.snapshot()
            rep.forward += f1 - f0
            rep.transpose += r1 - r0
            with checks.timing():
                err = case.error(H)
                want = tuple(expected_queries(config, case.op.n))
                ok = (f1 - f0, r1 - r0) == want and math.isfinite(err)
            checks.record(ok, f"{what}: queries {(f1 - f0, r1 - r0)} vs {want}, error {err}")
            rep.errors.append(err)
        except Exception:
            checks.crashed(what)
            continue
        references = {}
        for _ in range(rounds):
            _apply_list(case, c, H, references, checks, timings, tracer, flops)
            _roundtrip_list(case, c, H, checks, timings, tracer)
    return rep


def _apply_list(case, c, H, references, checks, timings, tracer, flops):
    kw = {"counter": flops} if flops is not None else {}
    for i, X in enumerate(case.inputs):
        for side in SIDES:
            key = (c, i, side)
            try:
                with timings.timed("apply", key, tracer):
                    out = hodlr.hodlr_apply(H, X, side=side, **kw)
                with checks.timing():
                    if key not in references:
                        references[key] = reference_apply(H, X, side)
                    ref = references[key]
                    scale = max(np.linalg.norm(ref), np.linalg.norm(out), 1e-300)
                    ok = bool(np.linalg.norm(out - ref) <= APPLY_RTOL * scale)
                checks.record(ok, f"hodlr_apply {key}: differs from the blockwise reference")
            except Exception:
                checks.crashed(f"hodlr_apply {key}")


def _roundtrip_list(case, c, H, checks, timings, tracer):
    for r in range(case.roundtrips):
        try:
            with timings.timed("serialize", (c, r), tracer):
                buf = hodlr.to_bytes(H)
            with timings.timed("deserialize", (c, r), tracer):
                H2 = hodlr.from_bytes(buf)
            with checks.timing():
                ok = hodlr.to_bytes(H2) == buf
            checks.record(ok, f"round trip {c}: re-serialized bytes differ")
        except Exception:
            checks.crashed(f"round trip {c}")


def run(setup, seed, seconds, trace=False, expected_queries=None,
        targets=tracing.TARGETS) -> dict:
    """Set up SETUP_REPEATS times, repeat the timed lists for ``seconds``, and
    with ``trace`` add one traced repetition with one round of each list.

    Returns ``{"correct", "attempted", "failed", "metrics", "end_to_end",
    "seeds", "absent", "warnings"}``; ``metrics`` maps every END_TO_END name
    (or, traced, every PER_LAYER name) to ``{"value", "unit"}``.
    """
    expected_queries = expected_queries or peel.expected_queries
    setup_times = []
    for _ in range(SETUP_REPEATS):
        case = None  # free the previous case before building the next
        gc.collect()
        start = time.perf_counter()
        case = setup(seed)
        setup_times.append(time.perf_counter() - start)

    checks = Checks()
    timings = Timings()
    reps = []
    last = 0.0
    # Whole repetitions until the timed total is nearest to ``seconds``.
    while not reps or timings.total + last / 2 < seconds:
        before = timings.total
        reps.append(repetition(case, checks, expected_queries, timings))
        last = timings.total - before

    values = {f"{p}_s": timings.list_seconds(p) for p in PHASES}
    values["setup_s"] = statistics.median(setup_times)
    values["fwd_queries"] = statistics.median_low([r.forward for r in reps])
    values["tsp_queries"] = statistics.median_low([r.transpose for r in reps])
    means = [statistics.fmean(r.errors) for r in reps if r.errors]
    values["rel_error"] = statistics.median(means) if means else math.nan
    absent = []
    warnings = []
    layers = {}
    if trace:
        tracer = tracing.Tracer(targets)
        flops = hodlr.FlopCounter() if _accepts_counter() else None
        if flops is None:
            absent.append("hodlr.FlopCounter")
        check_before = checks.seconds
        traced = Timings()
        with tracer.installed():
            repetition(case, checks, expected_queries, traced, 1, tracer, flops)
        absent += tracer.absent
        layers = tracer.totals()
        layers["hodlr.apply_flops"] = flops.flops if flops is not None else 0
        layers["check.error_s"] = checks.seconds - check_before
        traced_peel = traced.list_seconds("peel")
        layers["trace.overhead_s"] = tracer.span_count("peel") * tracing.span_cost()
        # Bookkeeping check: run_peel is wrapped, so the layers cover the
        # traced peel unless that root target is gone.
        gap = traced_peel - tracer.attributed("peel")
        checks.record(
            abs(gap) <= UNATTRIBUTED_RTOL * traced_peel + 1e-3,
            f"trace: {gap:.6f} s of the traced peel_s is outside every layer",
        )
        # Coverage: time in a function no target wraps lands in peel.self_s.
        share = layers.get("peel.self_s", 0.0) / traced_peel
        if share > case.self_share:
            warnings.append(
                f"peel.self_s is {share:.1%} of the traced peel, above the "
                f"{case.self_share:.0%} ceiling: time may be going to a "
                "function no tracing target wraps"
            )
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["pass_frac"] = 1.0 - checks.failed / checks.attempted

    names = PER_LAYER if trace else END_TO_END
    source = layers if trace else values
    metrics = {}
    for name, unit in names:
        v = source.get(name, 0)
        metrics[name] = {"value": v if math.isfinite(v) else None, "unit": unit}
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
        "end_to_end": values,
        "seeds": case.seeds,
        "absent": absent,
        "warnings": warnings,
    }
