"""The benchmark's own tests, on inputs small enough to run in seconds."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.algorithms.bsrbk import BottomKDetector

from perfbench import inputs, oneshot, run
from perfbench.harness import REPO_ROOT, Tracer

TINY = {
    "oneshot-50k": dict(nodes=1_500),
    "live-stream": dict(nodes=1_500),
    "query-battery": dict(nodes=400, worlds=64),
}


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload: str, trace: bool):
    tracer = Tracer(trace)
    outcome = run.WORKLOADS[workload](5, 0.2, tracer, **TINY[workload])
    return outcome, tracer


def test_inputs_are_identical_per_seed():
    first, second = inputs.powerlaw_arrays(800), inputs.powerlaw_arrays(800)
    for name in ("self_risks", "edge_src", "edge_dst", "edge_probs"):
        assert np.array_equal(getattr(first, name), getattr(second, name))
    assert inputs.request_seeds(3, "oneshot", 50) == inputs.request_seeds(
        3, "oneshot", 50
    )
    assert inputs.request_seeds(3, "oneshot", 50) != inputs.request_seeds(
        4, "oneshot", 50
    )
    graph = first.build()
    assert inputs.drift_events(graph, 40, 9) == inputs.drift_events(
        graph, 40, 9
    )
    assert inputs.drift_events(graph, 40, 9) != inputs.drift_events(
        graph, 40, 10
    )


@pytest.mark.parametrize("seed", [0, 17, 123])
@pytest.mark.parametrize("k", [3, 10])
def test_recomposition_equals_detect(seed, k):
    graph = inputs.powerlaw_arrays(2_000).build()
    off = Tracer(False)
    bsr = oneshot.compose_bsr(graph, k, seed, off).result
    assert bsr.same_answer(
        BoundedSampleReverseDetector(seed=seed).detect(graph, k)
    )
    bsrbk = oneshot.compose_bsrbk(graph, k, seed, off).result
    assert bsrbk.same_answer(BottomKDetector(seed=seed).detect(graph, k))


def test_declared_workloads_match_the_code(declared):
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(TINY))
def test_every_emitted_metric_is_declared(workload, declared):
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    outcome, _ = _run(workload, trace=False)
    assert outcome.attempted > 0 and outcome.failed == 0
    assert outcome.checked > 0 and outcome.matched == outcome.checked
    assert not outcome.problems
    metrics = run.end_to_end(outcome)
    assert set(metrics) == end_to_end
    assert all(value > 0 for value in metrics.values())
    outcome, tracer = _run(workload, trace=True)
    assert not outcome.problems
    # per_layer raises on any layer metric the workload emits undeclared.
    assert set(run.per_layer(outcome, tracer, [1.0])) == per_layer


# Wall-clock bound: slow, so that a loaded host cannot fail the fast suite.
@pytest.mark.slow
@pytest.mark.parametrize("workload", list(TINY))
def test_layer_self_times_sum_to_each_op(workload):
    _, tracer = _run(workload, trace=True)
    walls = tracer.op_seconds()
    assert walls
    for index, layers in tracer.ops().items():
        root = tracer.spans[index].name
        assert set(layers) - {root}, f"{root} has no layer span"
        # What no layer accounts for is the benchmark's glue plus the
        # tracer's own cost.
        unattributed = layers[root]
        assert unattributed <= max(0.05 * walls[index], 0.002), (root, layers)


def test_runs_fail_without_the_program(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        REPO_ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-battery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
