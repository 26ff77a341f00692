"""Workload ``query-battery``: the query kernels on one shared world set.

One operation asks the 16-query battery (topk, skyline, kcore,
reliability) of a fresh :class:`WorldView` + :class:`QueryEngine` over
the fixed 5k-node graph, with a fresh world key per battery.  The view
is realised up front (``defaulted()``), so that its cost is one layer
rather than hidden inside whichever query runs first.  ``answer_ms`` is
the battery's wall time.

The reference for ``exact_share``: the first battery's shared-engine
answers equal those of a fresh engine per query, computed outside the
timed loop.
"""

from __future__ import annotations

import time

import numpy as np

from repro.queries import QueryEngine
from repro.sampling.worldstate import WorldView

from perfbench import inputs
from perfbench.harness import (
    SETUP_REPEATS,
    Outcome,
    Tracer,
    peak_rss_mb,
    run_until,
)

#: Batteries a run asks even when they take longer than its time.
MIN_BATTERIES = 3


def ask_battery(graph, world_ids, key_seed, battery, tracer: Tracer):
    """One battery on a fresh view and engine; returns the answers."""
    with tracer.span("op.battery"):
        with tracer.span("sampling.worldview"):
            view = WorldView(graph, world_ids, seed=key_seed)
            view.defaulted()
        engine = QueryEngine(view)
        answers = []
        for family, params in battery:
            with tracer.span(f"queries.{family}"):
                answers.append(engine.run(family, **params))
    return answers


def run(
    seed: int,
    seconds: float,
    tracer: Tracer,
    *,
    nodes: int = 5_000,
    worlds: int = 512,
) -> Outcome:
    arrays = inputs.powerlaw_arrays(nodes)
    battery = inputs.query_battery(nodes)
    seeds = inputs.request_seeds(seed, "query-battery", 100_000)
    world_ids = np.arange(worlds, dtype=np.int64)
    outcome = Outcome()
    for _ in range(SETUP_REPEATS):
        graph = outcome.time_setup(arrays.build)

    untraced = Tracer(False)
    reference = None
    for index in run_until(seconds, MIN_BATTERIES):
        # A traced run traces every other battery, so that it also
        # measures the untraced wall time its overhead is taken against.
        trace = tracer if tracer.enabled and index % 2 else untraced
        outcome.attempted += 1
        try:
            started = time.perf_counter()
            answers = ask_battery(graph, world_ids, seeds[index], battery, trace)
            elapsed_ms = (time.perf_counter() - started) * 1e3
        except Exception as error:  # noqa: BLE001 - counted, run goes on
            outcome.failed += 1
            outcome.problems.append(f"battery {index}: {error!r}")
            continue
        (outcome.traced_ms if trace is tracer else outcome.answer_ms).append(
            elapsed_ms
        )
        outcome.detail("battery_ms", elapsed_ms)
        # Set-up is re-timed between batteries, so that its median samples
        # the host over the whole run and not only over its first moments.
        outcome.time_setup(arrays.build)
        if reference is None:
            reference = (seeds[index], answers)
    outcome.peak_rss_mb = peak_rss_mb()

    key_seed, answers = reference or (None, [])
    for (family, params), shared in zip(battery, answers):
        fresh = QueryEngine(WorldView(graph, world_ids, seed=key_seed)).run(
            family, **params
        )
        outcome.check(
            shared.same_answer(fresh), f"{family} {params}: shared vs fresh"
        )
    if tracer.enabled:
        outcome.layers.update(
            {f"{name}_ms": v for name, v in tracer.layer_ms().items()}
        )
    return outcome
