"""Input generation.  Everything here runs outside every timed region.

Graphs are the power-law guarantee graphs of the repository's streaming
and query benchmarks (``benchmarks/bench_streaming.build_powerlaw_graph``:
~3 edges per node, Beta(2, 4) edge strengths, self-risks in [0, 0.2)),
drawn the same way.  They are restated here, as is the query battery,
for two reasons: set-up time must cover graph construction but not
array generation, which that helper fuses; and the workloads must not
change when other benchmark scripts do.

The graph topology seed is fixed, so that every ``--seed`` measures the
same network; the seed varies the requests: detector seeds, update
streams and world keys.  The program only ever receives the arrays and
events made here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import UncertainGraph
from repro.datasets.powerlaw import directed_powerlaw_edges
from repro.streaming.replay import random_patch_stream

#: Edges per node, as in the repository's streaming benchmark.
EDGE_FACTOR = 3
#: Topology seed of every benchmark graph.
GRAPH_SEED = 20220501


@dataclass(frozen=True)
class GraphArrays:
    """The arrays a graph is built from (what set-up is timed on)."""

    self_risks: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_probs: np.ndarray

    def build(self) -> UncertainGraph:
        """The program's graph construction, the timed part of set-up."""
        graph = UncertainGraph.from_arrays(
            self_risks=self.self_risks,
            edge_src=self.edge_src,
            edge_dst=self.edge_dst,
            edge_probs=self.edge_probs,
        )
        graph.in_csr()
        graph.out_csr()
        return graph


def powerlaw_arrays(n: int, seed: int = GRAPH_SEED) -> GraphArrays:
    """Power-law topology with guarantee-style Beta(2, 4) edge strengths."""
    rng = np.random.default_rng(seed)
    src, dst = directed_powerlaw_edges(n, EDGE_FACTOR * n, seed=rng)
    return GraphArrays(
        self_risks=rng.random(n) * 0.2,
        edge_src=src,
        edge_dst=dst,
        edge_probs=np.clip(rng.beta(2.0, 4.0, src.size), 0.01, 0.95),
    )


def request_seeds(seed: int, workload: str, count: int) -> list[int]:
    """*count* per-operation seeds drawn from the workload seed."""
    tag = sum(ord(char) for char in workload)
    rng = np.random.default_rng([int(seed), tag])
    return [int(value) for value in rng.integers(0, 2**31 - 1, size=count)]


def drift_events(graph: UncertainGraph, count: int, seed: int) -> list:
    """*count* drift-0.1 monitoring patches against the base graph."""
    return list(random_patch_stream(graph, count, seed=seed, drift=0.1))


def query_battery(n: int) -> list[tuple[str, dict]]:
    """The 16-query battery over all four query families.

    The same battery as ``benchmarks/bench_queries.query_battery``:
    several parameterisations per family, so that shared products (one
    propagation for topk/skyline, one labelling for reliability, one
    peel per core order) are reused across questions.
    """
    return [
        ("topk", {"k": 5}),
        ("topk", {"k": 10}),
        ("topk", {"k": 25}),
        ("topk", {"k": 50}),
        ("skyline", {}),
        ("kcore", {"k": 2}),
        ("kcore", {"k": 2, "top": 10}),
        ("kcore", {"k": 3}),
        ("kcore", {"k": 3, "top": 10}),
        ("reliability", {"pairs": [[0, n // 2], [1, n - 1]]}),
        ("reliability", {"pairs": [[2, n // 3], [3, n // 4], [4, n // 5]]}),
        ("reliability", {"pairs": [[5, n - 2]]}),
        ("reliability", {"pairs": [[6, n // 2 + 1], [7, n - 3]]}),
        ("reliability", {"cluster": list(range(8))}),
        ("reliability", {"cluster": list(range(10, 16))}),
        ("reliability", {"pairs": [[8, n - 4], [9, n - 5]]}),
    ]
