"""Workload ``oneshot-50k``: the paper's own task, one-shot detection.

One operation is a detection round on the fixed 50k-node graph: BSR,
then BSRBK, each with a fresh detector seed shared by the pair, k = 10.
``answer_ms`` is the round's wall time; the per-method times go on the
informational line as ``bsr_ms`` and ``bsrbk_ms``.

The reference for ``exact_share`` is the layer-by-layer recomposition
below: the same public calls ``BSR.detect`` / ``BSRBK.detect`` make,
issued one at a time by the benchmark.  A traced run times every
recomposed layer; an untraced run recomposes only its first round,
outside the timed loop.  That round's sampled probabilities are also
checked against a directly realised :class:`WorldView`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import DetectionResult
from repro.algorithms.bsr import BoundedSampleReverseDetector, assemble_answer
from repro.algorithms.bsrbk import BottomKDetector
from repro.bounds.candidates import CandidateReduction, reduce_candidates
from repro.bounds.iterative import bound_pair
from repro.core.graph import UncertainGraph
from repro.sampling.indexed import IndexedReverseSampler
from repro.sampling.sample_size import reduced_sample_size
from repro.sampling.worldstate import WorldView
from repro.sketch.bottom_k import bottom_k_scan

from perfbench import inputs
from perfbench.harness import (
    SETUP_REPEATS,
    Outcome,
    Tracer,
    peak_rss_mb,
    run_until,
)

K = 10
#: Rounds a run makes even when they take longer than its time.
MIN_ROUNDS = 3
#: The detectors' defaults, restated so the recomposition uses the same.
EPSILON, DELTA, ORDER, BK = 0.3, 0.1, 2, 16


@dataclass
class Composed:
    """A recomposed detection plus the counts the traced run reports."""

    result: DetectionResult
    reduction: CandidateReduction
    budget: int
    explored: int
    nodes_touched: int
    edges_touched: int
    sampler: IndexedReverseSampler | None
    probabilities: np.ndarray | None


def _bounds(graph: UncertainGraph, k: int, tracer: Tracer):
    with tracer.span("bounds.bound_pair"):
        lower, upper = bound_pair(graph, ORDER, ORDER)
    with tracer.span("bounds.reduce_candidates"):
        reduction = reduce_candidates(graph, lower, upper, k)
    budget = 0
    if reduction.k_remaining > 0:
        budget = reduced_sample_size(
            reduction.candidate_size, k, reduction.k_verified, EPSILON, DELTA
        )
    return lower, reduction, budget


def _compose(method, graph, k, reduction, lower, probabilities, samples,
             tracer) -> DetectionResult:
    with tracer.span("algorithms.assemble_answer"):
        nodes, scores = assemble_answer(
            graph, reduction, lower, probabilities, k
        )
    return DetectionResult(
        method=method,
        k=k,
        nodes=nodes,
        scores=scores,
        samples_used=samples,
        candidate_size=reduction.candidate_size,
        k_verified=reduction.k_verified,
        elapsed_seconds=0.0,
    )


def compose_bsr(
    graph: UncertainGraph, k: int, seed: int, tracer: Tracer
) -> Composed:
    """BSR as its layers: bounds, reduction, budget, sampling, assembly."""
    lower, reduction, budget = _bounds(graph, k, tracer)
    sampler = probabilities = None
    if budget:
        with tracer.span("sampling.run"):
            sampler = IndexedReverseSampler(
                graph, reduction.candidates, seed=seed
            )
            probabilities = sampler.run(budget).probabilities
    result = _compose(
        "BSR", graph, k, reduction, lower, probabilities, budget, tracer
    )
    return Composed(
        result,
        reduction,
        budget,
        budget,
        sampler.nodes_touched if sampler else 0,
        sampler.edges_touched if sampler else 0,
        sampler,
        probabilities,
    )


def compose_bsrbk(
    graph: UncertainGraph, k: int, seed: int, tracer: Tracer
) -> Composed:
    """BSRBK as its layers: BSR's front half, then hash-ordered worlds
    in doubling chunks until the bottom-k scan stops."""
    lower, reduction, budget = _bounds(graph, k, tracer)
    probabilities = None
    processed = evaluated = nodes_touched = edges_touched = 0
    if budget:
        sampler = IndexedReverseSampler(graph, reduction.candidates, seed=seed)
        with tracer.span("sampling.world_hashes"):
            hashes = sampler.world_hashes(np.arange(budget, dtype=np.int64))
        order = np.argsort(hashes, kind="stable")
        sorted_hashes = hashes[order]
        outcomes, node_draws, edge_draws = [], [], []
        chunk = max(64, sampler.world_batch)
        while evaluated < budget:
            take = min(chunk, budget - evaluated)
            chunk *= 2
            with tracer.span("sampling.outcomes_for_worlds"):
                block = sampler.outcomes_for_worlds(
                    order[evaluated : evaluated + take]
                )
            outcomes.append(block.outcomes)
            node_draws.append(block.node_draws)
            edge_draws.append(block.edge_draws)
            evaluated += take
            with tracer.span("sketch.bottom_k_scan"):
                scan = bottom_k_scan(
                    np.concatenate(outcomes),
                    sorted_hashes[:evaluated],
                    BK,
                    reduction.k_remaining,
                    budget,
                )
            if scan.stopped_early:
                break
        processed = scan.processed
        nodes_touched = int(np.concatenate(node_draws)[:processed].sum())
        edges_touched = int(np.concatenate(edge_draws)[:processed].sum())
        probabilities = np.clip(scan.estimates, 0.0, 1.0)
    result = _compose(
        "BSRBK", graph, k, reduction, lower, probabilities, processed, tracer
    )
    return Composed(
        result,
        reduction,
        budget,
        evaluated,
        nodes_touched,
        edges_touched,
        None,
        probabilities,
    )


def _detect_round(graph, k, seed):
    """One untraced round through the public detectors; returns both
    results and both wall times (ms)."""
    started = time.perf_counter()
    bsr = BoundedSampleReverseDetector(seed=seed).detect(graph, k)
    middle = time.perf_counter()
    bsrbk = BottomKDetector(bk=BK, seed=seed).detect(graph, k)
    done = time.perf_counter()
    return (bsr, bsrbk), ((middle - started) * 1e3, (done - middle) * 1e3)


def _compose_round(graph, k, seed, tracer: Tracer):
    with tracer.span("op.bsr"):
        bsr = compose_bsr(graph, k, seed, tracer)
    with tracer.span("op.bsrbk"):
        bsrbk = compose_bsrbk(graph, k, seed, tracer)
    return bsr, bsrbk


def _check_round(outcome, detected, composed, seed) -> None:
    for fresh, layered in zip(detected, composed):
        outcome.check(
            fresh.same_answer(layered.result),
            f"{fresh.method} seed {seed}: detect() vs recomposition",
        )


def run(
    seed: int,
    seconds: float,
    tracer: Tracer,
    *,
    nodes: int = 50_000,
) -> Outcome:
    arrays = inputs.powerlaw_arrays(nodes)
    seeds = inputs.request_seeds(seed, "oneshot", 100_000)
    outcome = Outcome()
    for _ in range(SETUP_REPEATS):
        graph = outcome.time_setup(arrays.build)

    # Untimed first round: fills lazy caches, and is the checked round
    # of an untraced run (a traced run checks every round below).
    check_seed = seeds[-1]
    detected, _ = _detect_round(graph, K, check_seed)
    checked = _compose_round(graph, K, check_seed, Tracer(False))
    _check_round(outcome, detected, checked, check_seed)
    for index in run_until(seconds, MIN_ROUNDS):
        round_seed = seeds[index]
        outcome.attempted += 2
        try:
            detected, (bsr_ms, bsrbk_ms) = _detect_round(graph, K, round_seed)
        except Exception as error:  # noqa: BLE001 - counted, run goes on
            outcome.failed += 2
            outcome.problems.append(f"round {index}: {error!r}")
            continue
        outcome.answer_ms.append(bsr_ms + bsrbk_ms)
        outcome.detail("bsr_ms", bsr_ms)
        outcome.detail("bsrbk_ms", bsrbk_ms)
        # Set-up is re-timed between rounds, so that its median samples
        # the host over the whole run and not only over its first second.
        outcome.time_setup(arrays.build)
        if not tracer.enabled:
            continue
        started = time.perf_counter()
        composed = _compose_round(graph, K, round_seed, tracer)
        outcome.traced_ms.append((time.perf_counter() - started) * 1e3)
        _check_round(outcome, detected, composed, round_seed)
    outcome.peak_rss_mb = peak_rss_mb()

    bsr = checked[0]
    if bsr.sampler is not None:
        view = WorldView(
            graph,
            np.arange(bsr.budget, dtype=np.int64),
            stream_key=bsr.sampler.stream_key,
        )
        realised = view.defaulted()[:, bsr.reduction.candidates].mean(axis=0)
        outcome.check(
            np.array_equal(realised, bsr.probabilities),
            "BSR probabilities vs WorldView realisation",
        )

    if tracer.enabled:
        outcome.layers.update(_layers(tracer, checked))
    return outcome


def _layers(tracer, checked) -> dict[str, float]:
    """Layer self times from the traced rounds; counts from the checked
    round, so that they depend on the seed alone."""
    bsr, bsrbk = checked
    layers = {
        f"{name}_ms": value for name, value in tracer.layer_ms().items()
    }
    layers.update(
        {
            "sampling.samples": bsr.budget + bsrbk.explored,
            "sampling.nodes_touched": bsr.nodes_touched
            + bsrbk.nodes_touched,
            "sampling.edges_touched": bsr.edges_touched
            + bsrbk.edges_touched,
            "bounds.candidates": bsr.reduction.candidate_size,
            "bounds.k_verified": bsr.reduction.k_verified,
            "sketch.early_stop_share": bsrbk.explored / max(bsrbk.budget, 1),
        }
    )
    return layers
