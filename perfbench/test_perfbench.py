"""Tests of the benchmark itself, on tiny instances of its workloads.

Run from the repository root:  python -m pytest perfbench
"""

import math
import os
import subprocess
import sys
from functools import partial

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
from hodlrpeel import peel  # noqa: E402

TINY = {
    "poisson": partial(harness.poisson_case, t=32),
    "exphard": partial(harness.exphard_case, L=5),
}


def _run(name, **kw):
    return harness.run(TINY[name], seed=3, seconds=0, **kw)


def test_every_workload_has_a_setup():
    assert [w["name"] for w in harness.SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_unit(name, trace):
    result = _run(name, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = harness.PER_LAYER if trace else harness.END_TO_END
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == list(want)
    for k, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), k
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_counted_queries_match_the_cost_model(name):
    case = TINY[name](3)
    result = _run(name)
    fwd = sum(peel.expected_queries(c, case.op.n)[0] for c in case.configs)
    tsp = sum(peel.expected_queries(c, case.op.n)[1] for c in case.configs)
    assert result["metrics"]["fwd_queries"]["value"] == fwd
    assert result["metrics"]["tsp_queries"]["value"] == tsp


def test_wrong_expected_query_count_is_a_failure():
    def off_by_one(config, n):
        fwd, tsp = peel.expected_queries(config, n)
        return fwd + 1, tsp

    result = _run("exphard", expected_queries=off_by_one)
    assert not result["correct"]
    assert result["failed"] == len(TINY["exphard"](3).configs)
    assert result["metrics"]["pass_frac"]["value"] < 1.0


def test_absent_span_is_reported_not_fatal():
    targets = tracing.TARGETS + (tracing.Target("gone.layer", "peel:no_such_function"),)
    original = peel.run_peel
    result = _run("poisson", trace=True, targets=targets)
    assert result["correct"]
    assert "hodlrpeel.peel.no_such_function" in result["absent"]
    assert result["metrics"]["peel.self_s"]["value"] > 0
    assert peel.run_peel is original


def test_unwrapped_layer_raises_the_coverage_warning():
    only_root = tuple(t for t in tracing.TARGETS if t.layer == "peel.self")
    result = _run("exphard", trace=True, targets=only_root)
    assert result["correct"]
    assert any("no tracing target wraps" in w for w in result["warnings"])
    assert _run("exphard", trace=True)["warnings"] == []


def test_span_cost_is_positive_and_small():
    cost = tracing.span_cost()
    assert 0 < cost < 1e-3


def test_self_times_add_up_to_the_traced_phase():
    tracer = tracing.Tracer()
    case = TINY["poisson"](3)
    timings = harness.Timings()
    with tracer.installed():
        harness.repetition(case, harness.Checks(), peel.expected_queries, timings, 1, tracer)
    assert tracer.absent == []
    assert tracer.attributed("peel") == pytest.approx(timings.list_seconds("peel"), rel=0.01)
    totals = tracer.totals()
    layer_sum = sum(v for k, v in totals.items() if k.endswith("_s")
                    and not k.startswith(("hodlr.apply", "hodlr.to_bytes", "hodlr.from_bytes")))
    assert layer_sum == pytest.approx(tracer.attributed("peel"))


def test_run_refuses_a_directory_without_sources():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "poisson-16k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
