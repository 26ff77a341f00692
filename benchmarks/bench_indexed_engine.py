"""Benchmark: streaming repair and memory of the packed world state.

Two measurements back the bit-packed touched-entity state the streaming
monitor keeps per cached world:

1. **Streaming repair** — a drift-patch stream against
   :class:`~repro.streaming.monitor.TopKMonitor` with the bit-packed
   world state vs a monitor that keeps no touched state
   (``world_state_budget=0``), which invalidates on uniform crossings
   alone and repairs ~|Δp|·samples worlds per patch; the packed state
   repairs only the worlds that actually drew the patched entity.
   Every flush is verified ``same_answer`` against the other monitor
   before timing counts.
2. **World-state memory** — actual bytes of the packed state (masks +
   inverted index) vs the ``samples * (n + m)`` bytes boolean touched
   masks would need for the same worlds.

Results land in ``BENCH_indexed.json`` at the repo root.

Usage
-----
::

    python -m benchmarks.bench_indexed_engine            # full (50k nodes)
    python -m benchmarks.bench_indexed_engine --quick    # CI smoke (seconds)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent

try:  # pragma: no cover - import plumbing
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(_REPO_ROOT / "src"))

import numpy as np

from repro.core.graph import UncertainGraph
from repro.datasets.guarantee import guarantee_graph
from repro.datasets.probabilities import assign_financial
from repro.streaming.monitor import TopKMonitor
from repro.streaming.replay import random_patch_stream

DEFAULT_OUTPUT = _REPO_ROOT / "BENCH_indexed.json"

#: ~3 edges per node matches the sparsity of the paper's Table-2 graphs.
EDGE_FACTOR = 3


def build_guarantee_network(n: int, seed: int) -> UncertainGraph:
    """The deployment workload: a guarantee network with the paper's
    feature-driven (financial) probability protocol — what the §5
    monitoring system actually watches."""
    rng = np.random.default_rng(seed)
    graph = guarantee_graph(n, EDGE_FACTOR * n, seed=rng)
    assign_financial(graph, seed=rng)
    return graph


#: Sampling modes that mean "the monitor served the flush from cached
#: worlds" (repairing/reusing them) rather than rebuilding the candidate
#: set's sampling state.
_REPAIR_MODES = frozenset({"repaired", "reused", "skipped"})


def bench_streaming_repair(
    n: int, k: int, events: int, drift: float, seed: int, flush: int = 10
) -> dict:
    """Drift-patch stream: packed world state vs crossing-only repair.

    The graph is the paper's deployment workload — a guarantee network
    under the financial probability protocol, whose contagion closures
    touch a few percent of the graph per world, so the touched-entity
    filter discards most uniform crossings.  Updates arrive in
    *flush*-sized batches, the shape the serving layer's coalescing
    ingestion queue delivers to its monitors.  The packed monitor runs
    under a world-state budget of a quarter of the boolean
    ``(samples, n+m)`` masks' bytes, which its packed state fits; the
    comparator keeps no touched state at all.  Every flush's answers are
    cross-checked before the timing is reported.

    Flushes are split into two buckets by what the sampling stage did:

    * **repair-path** — both monitors served the flush from cached
      worlds (``repaired`` / ``reused``).  This is where the packed
      touched-entity filter acts, and
      ``repair_speedup_vs_crossing_only`` — the headline
      streaming-repair metric — is measured over exactly these
      flushes.  They dominate the stream (candidate churn is rare).
    * **churn** — an Algorithm-4 candidate-set / Theorem-5 budget move
      forced a rebuild (``resampled``, or ``columned`` when the packed
      monitor could absorb it incrementally).  Both monitors pay the
      same exploration here by construction, so these flushes carry no
      information about touched-entity filtering; they are timed and
      reported separately (``end_to_end_speedup_vs_crossing_only``
      includes them).
    """
    graph_packed = build_guarantee_network(n, seed)
    graph_crossing = build_guarantee_network(n, seed)
    probe = TopKMonitor(graph_packed, k, seed=seed)
    samples = probe.top_k().samples_used
    mask_bytes = samples * (n + graph_packed.num_edges)
    budget = max(1, mask_bytes // 4)
    monitors = {
        "packed": TopKMonitor(
            graph_packed, k, seed=seed, world_state_budget=budget
        ),
        "crossing_only": TopKMonitor(
            graph_crossing, k, seed=seed, world_state_budget=0
        ),
    }
    for monitor in monitors.values():
        monitor.top_k()
    packed_bytes = monitors["packed"].world_state_nbytes
    elapsed = {
        "repair": {name: 0.0 for name in monitors},
        "churn": {name: 0.0 for name in monitors},
    }
    counts = {"repair": 0, "churn": 0}
    repaired = {name: 0 for name in monitors}
    mismatches = 0
    events_list = list(
        random_patch_stream(graph_packed, events, seed=seed + 1, drift=drift)
    )
    results = {}
    for start in range(0, len(events_list), flush):
        batch = events_list[start : start + flush]
        flush_elapsed = {}
        modes = {}
        for name, monitor in monitors.items():
            monitor.apply(batch)
            started = time.perf_counter()
            results[name] = monitor.top_k()
            flush_elapsed[name] = time.perf_counter() - started
            modes[name] = monitor.last_report.sampling
            repaired[name] += monitor.last_report.worlds_repaired
        kind = (
            "repair"
            if all(mode in _REPAIR_MODES for mode in modes.values())
            else "churn"
        )
        counts[kind] += 1
        for name, seconds in flush_elapsed.items():
            elapsed[kind][name] += seconds
        if not results["packed"].same_answer(results["crossing_only"]):
            mismatches += 1
    if mismatches:
        raise AssertionError(
            f"{mismatches} flushes saw packed answers diverge from the "
            "crossing-only monitor — the speedup would be meaningless"
        )
    repair_speedup = elapsed["repair"]["crossing_only"] / max(
        elapsed["repair"]["packed"], 1e-12
    )
    total = {
        name: elapsed["repair"][name] + elapsed["churn"][name]
        for name in monitors
    }
    end_to_end = total["crossing_only"] / max(total["packed"], 1e-12)
    memory_reduction = mask_bytes / max(packed_bytes, 1)
    row = {
        "nodes": n,
        "edges": graph_packed.num_edges,
        "k": k,
        "events": events,
        "flush": flush,
        "repair_flushes": counts["repair"],
        "churn_flushes": counts["churn"],
        "drift": drift,
        "samples": samples,
        "world_state_budget": budget,
        "repair_packed_seconds": round(elapsed["repair"]["packed"], 6),
        "repair_crossing_only_seconds": round(
            elapsed["repair"]["crossing_only"], 6
        ),
        "repair_speedup_vs_crossing_only": round(repair_speedup, 2),
        "total_packed_seconds": round(total["packed"], 6),
        "total_crossing_only_seconds": round(total["crossing_only"], 6),
        "end_to_end_speedup_vs_crossing_only": round(end_to_end, 2),
        "worlds_repaired_packed": repaired["packed"],
        "worlds_repaired_crossing_only": repaired["crossing_only"],
        "packed_state_bytes": packed_bytes,
        "boolean_mask_bytes": mask_bytes,
        "memory_reduction": round(memory_reduction, 2),
    }
    print(
        f"streaming n={n:>7} seed={seed}  repair "
        f"{elapsed['repair']['crossing_only']:.3f}s -> "
        f"{elapsed['repair']['packed']:.3f}s ({repair_speedup:.1f}x, "
        f"{counts['repair']}/{counts['repair'] + counts['churn']} flushes)  "
        f"end-to-end {end_to_end:.1f}x  "
        f"memory {mask_bytes / 1e6:.1f}MB -> "
        f"{packed_bytes / 1e6:.2f}MB ({memory_reduction:.1f}x)"
    )
    return row


def run(args: argparse.Namespace) -> dict:
    if args.quick:
        stream_n, stream_events = 5000, 80
        stream_seeds = [args.seed]
        mode = "quick"
    else:
        stream_n, stream_events = 50_000, 240
        stream_seeds = [args.seed, args.seed + 4, args.seed + 10]
        mode = "full"
    if args.stream_nodes:
        stream_n = args.stream_nodes
    if args.events:
        stream_events = args.events
    streaming = [
        bench_streaming_repair(
            stream_n, args.k, stream_events, args.drift, stream_seed
        )
        for stream_seed in stream_seeds
    ]
    def ratio(numerator: str, denominator: str, floor: float) -> float:
        return round(
            sum(row[numerator] for row in streaming)
            / max(sum(row[denominator] for row in streaming), floor),
            2,
        )

    aggregate = {
        "repair_speedup_vs_crossing_only": ratio(
            "repair_crossing_only_seconds", "repair_packed_seconds", 1e-12
        ),
        "end_to_end_speedup_vs_crossing_only": ratio(
            "total_crossing_only_seconds", "total_packed_seconds", 1e-12
        ),
        "memory_reduction": ratio(
            "boolean_mask_bytes", "packed_state_bytes", 1
        ),
    }
    print(
        f"aggregate over {len(streaming)} streams: "
        f"repair {aggregate['repair_speedup_vs_crossing_only']}x, "
        f"end-to-end {aggregate['end_to_end_speedup_vs_crossing_only']}x, "
        f"memory {aggregate['memory_reduction']}x"
    )
    report = {
        "benchmark": "indexed_engine_scaleout",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": mode,
        "seed": args.seed,
        "edge_factor": EDGE_FACTOR,
        "streaming_repair": streaming,
        "streaming_aggregate": aggregate,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small graphs / few events so CI can smoke-test in seconds",
    )
    parser.add_argument(
        "--stream-nodes", type=int, default=None,
        help="streaming-repair graph size (default: 50000 full / 5000 quick)",
    )
    parser.add_argument("--k", type=int, default=10, help="answer size")
    parser.add_argument(
        "--events", type=int, default=None, help="patches to replay"
    )
    parser.add_argument(
        "--drift", type=float, default=0.1,
        help="std-dev of the per-patch probability drift",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"JSON report path (default: {DEFAULT_OUTPUT})",
    )
    run(parser.parse_args(argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
