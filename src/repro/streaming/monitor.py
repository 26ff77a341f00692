"""TopKMonitor — incremental top-k detection over a live uncertain graph.

One monitor owns one continuous query: "the top-``k`` of this graph,
kept current as probabilities drift".  Its contract is *exact
equivalence*: after any sequence of updates, :meth:`TopKMonitor.top_k`
returns the same answer — nodes, scores, sample count, candidate set,
verified count, work counters — as constructing a fresh detector
(:class:`~repro.algorithms.bsr.BoundedSampleReverseDetector`, or
:class:`~repro.algorithms.bsrbk.BottomKDetector` when
``algorithm="bsrbk"``) with the same parameters and seed and calling
``detect`` on the patched graph.  All reuse below is therefore
*provable* reuse, never approximation.

The pipeline has three stages, each invalidated independently:

1. **Bounds** (Algorithms 2/3) — maintained by
   :class:`~repro.bounds.incremental.IncrementalBoundPair`: only nodes
   within ``z`` out-hops of a changed entity are re-evaluated, with
   arithmetic bit-identical to a fresh :func:`bound_pair`.
2. **Candidate reduction** (Algorithm 4) — every rule of the reduction
   is inert for bound values strictly below ``Tl`` (the k-th largest
   lower bound), so the cached reduction is reused verbatim unless some
   refreshed bound value crosses ``Tl``; crossing triggers one cheap
   O(n) re-run.
3. **Sampling** — per-world outcomes are pure functions of ``(seed,
   world, graph)`` (:class:`~repro.sampling.indexed.IndexedReverseSampler`),
   so the monitor stores the per-world outcome matrix plus bit-packed
   per-world touched-entity state
   (:class:`~repro.sampling.worldstate.PackedWorldState`).  A patched
   entity invalidates exactly the worlds where its fixed uniform crosses
   the old→new probability (expected fraction ``|Δp|``) *and* the
   entity was actually drawn; only those worlds are re-explored and
   spliced back in.  When Algorithm 4's candidate set or Theorem 5's
   budget move, added candidates are *columned in* (their closures
   explored against the cached worlds and OR-ed into the touched state,
   with draw counters advanced by the exact popcount deltas) and the
   world prefix grown or truncated, instead of resampling everything.

   With ``algorithm="bsrbk"`` the sampling stage runs BSRBK's bottom-k
   early stop instead of the full-budget estimate: worlds carry fixed
   PRF sample hashes, are materialised in ascending hash order, and the
   stopping rule is re-run as a pure scan over the cached prefix
   (:func:`~repro.sketch.bottom_k.bottom_k_scan`) after every repair —
   extending the evaluated prefix on demand when a repair pushes the
   stopping point later.

When the dirty region exceeds ``full_rebuild_fraction`` of the graph —
e.g. a bulk monthly re-scoring that moves everything — the monitor falls
back to a full recomputation, which is the same code path as fresh
detection and therefore trivially exact (the oracle tests cover both
routes).

**Topology growth.**  ``NodeAdd`` / ``EdgeAdd`` events (or the
:meth:`TopKMonitor.add_node` / :meth:`TopKMonitor.add_edge` intake)
grow the graph append-only.  Each world owns a fixed 2^33-counter lane
(nodes at ``w·2^33 + v``, edges at ``w·2^33 + 2^32 + e``), so growth
never moves an existing counter and the monitor ingests topology
*incrementally*:

* cached world masks are extended by zero bits for the new entities
  (a cached closure can only reach a new entity through a new edge);
* the bound iterates extend with the new nodes and refresh with the
  attachment boundary (new nodes + new edges' heads) as the dirty seed;
* a cached world must be re-explored **iff** some new edge's head was
  *expanded* there — reverse exploration draws a node's in-edges only
  when the node is expanded, so a world whose expanded set misses every
  new head replays its exploration verbatim on the grown graph;
* everything else (candidate columning, world-prefix resizing, BSRBK's
  hash-order rescan) reuses the probability-path machinery.

The result is bit-identical to fresh detection on the grown graph — the
crawl-while-monitoring oracle tests pin this after every crawl step.
Direct mutations of the live graph that bypass the monitor's intake are
still caught by shape and handled by the full fallback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.algorithms.base import DetectionResult
from repro.algorithms.bsr import assemble_answer
from repro.bounds.candidates import CandidateReduction, reduce_candidates
from repro.bounds.incremental import BoundDelta, IncrementalBoundPair
from repro.bounds.iterative import (
    bound_pair,
    bounds_only_topk,
    certified_topk_mask,
)
from repro.core.errors import GraphError, SamplingError
from repro.core.graph import NodeLabel, UncertainGraph
from repro.core.topk import validate_k
from repro.sampling.indexed import (
    COUNTER_STRIDE,
    EDGE_COUNTER_BASE,
    IndexedReverseSampler,
)
from repro.sampling.rng import SeedLike, hashed_uniform_tile, hashed_uniforms
from repro.sampling.sample_size import reduced_sample_size, validate_epsilon_delta
from repro.sampling.worldstate import PackedWorldState, WorldView
from repro.sketch.bottom_k import bottom_k_scan
from repro.streaming.events import (
    BulkEdgeProbabilityUpdate,
    BulkSelfRiskUpdate,
    EdgeAdd,
    EdgeProbabilityUpdate,
    NodeAdd,
    SelfRiskUpdate,
    UpdateEvent,
    validate_events,
)

__all__ = ["RefreshReport", "TopKMonitor"]

_U64 = np.uint64
#: Cells hashed per chunk when crossing-testing without touched state.
_TILE_CHUNK = 1 << 22
#: Format stamp of a pickled monitor.  Cached worlds are valid only under
#: the counter layout that drew them, so blobs without this stamp —
#: written before the single counter layout, whatever layout or engine
#: they used — are refused on restore instead of being repaired under
#: different counters and drifting from fresh detection.
_BLOB_FORMAT = 2


@dataclass(frozen=True)
class RefreshReport:
    """Telemetry of one :meth:`TopKMonitor.refresh` call.

    Attributes
    ----------
    mode:
        ``"initial"`` (first evaluation), ``"clean"`` (nothing pending),
        ``"incremental"`` (dirty-frontier path) or ``"full"`` (fallback).
    reason:
        Why this mode was taken (threshold exceeded, topology change, …).
    dirty_nodes, dirty_edges:
        Entities whose probability actually changed since last refresh.
    bounds_recomputed:
        Node evaluations spent refreshing the bound iterates.
    reduction_reused:
        Whether the cached Algorithm-4 reduction survived untouched.
    sampling:
        ``"reused"`` (cached estimates provably fresh), ``"repaired"``
        (only the invalidated worlds were re-explored), ``"columned"``
        (candidate/budget change absorbed by columning added candidates
        into the cached worlds and/or resizing the world prefix),
        ``"resampled"`` (whole candidate set re-estimated) or
        ``"skipped"`` (``k' = k``, nothing to sample).
    worlds_repaired:
        Worlds re-evaluated this refresh (equals ``samples`` on a full
        resample, 0 on reuse).
    samples:
        The refresh's Theorem-5 sample budget.
    elapsed_seconds:
        Wall-clock cost of the refresh.
    """

    mode: str
    reason: str
    dirty_nodes: int
    dirty_edges: int
    bounds_recomputed: int
    reduction_reused: bool
    sampling: str
    worlds_repaired: int
    samples: int
    elapsed_seconds: float


class TopKMonitor:
    """Maintain the top-``k`` of a live graph under streaming updates.

    Parameters
    ----------
    graph:
        The live graph.  The monitor *shares* it (no copy): updates go
        through the monitor's setters (or :meth:`apply`), which patch
        the graph and record the dirty entities.
    k:
        Continuous answer size.
    epsilon, delta, lower_order, upper_order, seed:
        Exactly the parameters of
        :class:`~repro.algorithms.bsr.BoundedSampleReverseDetector`;
        the equivalence oracle is a fresh detector built with the same
        values.  Reproducible seeds (ints / SeedSequences) are required
        for the bit-identity guarantee to be observable.
    algorithm:
        ``"bsr"`` (default) maintains the full-budget BSR estimate;
        ``"bsrbk"`` maintains BSRBK's bottom-k early-stopped estimate,
        with *bk* as the counter threshold.  The equivalence oracle is
        then a fresh :class:`~repro.algorithms.bsrbk.BottomKDetector`.
    bk:
        Bottom-k counter threshold when ``algorithm="bsrbk"``.
    full_rebuild_fraction:
        Dirty-region threshold (fraction of ``n``) above which refresh
        falls back to full recomputation.
    world_state_budget:
        Cap (in bytes) on the bit-packed touched-entity state (two
        ``n``-bit masks per world plus an entity→worlds inverted
        index).  Above it the monitor keeps only outcome rows and
        invalidates on uniform crossings alone — still exact,
        marginally more re-exploration.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        k: int,
        *,
        epsilon: float = 0.3,
        delta: float = 0.1,
        lower_order: int = 2,
        upper_order: int = 2,
        seed: SeedLike = 0,
        algorithm: str = "bsr",
        bk: int = 16,
        full_rebuild_fraction: float = 0.25,
        world_state_budget: int = 32_000_000,
    ) -> None:
        self._graph = graph
        self._k = validate_k(k, graph.num_nodes)
        self._epsilon, self._delta = validate_epsilon_delta(epsilon, delta)
        self._lower_order = int(lower_order)
        self._upper_order = int(upper_order)
        self._seed = seed
        if algorithm not in ("bsr", "bsrbk"):
            raise GraphError(
                f"algorithm must be 'bsr' or 'bsrbk', got {algorithm!r}"
            )
        if bk < 2:
            raise SamplingError(f"bk must be >= 2, got {bk}")
        self._algorithm = algorithm
        self._bk = int(bk)
        if not 0.0 < full_rebuild_fraction <= 1.0:
            raise GraphError(
                "full_rebuild_fraction must be in (0, 1], got "
                f"{full_rebuild_fraction}"
            )
        self._full_fraction = float(full_rebuild_fraction)
        self._world_state_budget = int(world_state_budget)
        # Pending dirt: entity -> probability at the last refresh.
        self._dirty_node_old: dict[int, float] = {}
        self._dirty_edge_old: dict[int, float] = {}
        # Tracked append-only growth since the last refresh: new node
        # indices / edge ids accepted through the monitor's own intake.
        # Growth that bypasses the intake desynchronises these from the
        # live shape and is caught by _topology_consistent.
        self._added_nodes: list[int] = []
        self._added_edges: list[int] = []
        # Monotone count of accepted probability mutations — the cache
        # key for the read-only bounds-only answer (see bounds_topk).
        self._mutations = 0
        self._bounds_only_cache: (
            tuple[tuple[int, tuple[int, int]], DetectionResult] | None
        ) = None
        # Query-engine dispatch over the repaired worlds: one memoising
        # engine per (mutation-state, shape); retired wholesale when the
        # underlying worlds change (see world_view / query).
        self._query_engine = None
        self._query_engine_key: tuple[int, tuple[int, int]] | None = None
        # Cached pipeline state (filled by the first refresh).
        self._shape = (graph.num_nodes, graph.num_edges)
        self._bounds: IncrementalBoundPair | None = None
        self._reduction: CandidateReduction | None = None
        self._samples = 0
        self._probs: np.ndarray | None = None
        self._sampling_candidates: np.ndarray | None = None
        self._nodes_touched = 0
        self._edges_touched = 0
        # Per-world sampling state.
        self._sampler: IndexedReverseSampler | None = None
        self._counts: np.ndarray | None = None
        self._world_outcomes: np.ndarray | None = None
        self._world_node_draws: np.ndarray | None = None
        self._world_edge_draws: np.ndarray | None = None
        self._world_state: PackedWorldState | None = None
        self._world_ids: np.ndarray | None = None
        # BSRBK bookkeeping (hash order over the budgeted worlds).
        self._bk_order: np.ndarray | None = None
        self._bk_hashes: np.ndarray | None = None
        self._stop_after = 0
        self._processed = 0
        self._stopped_early = False
        self._result: DetectionResult | None = None
        self._last_report: RefreshReport | None = None
        #: Row positions repaired by the most recent refresh (testing /
        #: introspection hook for the repair-set bit-identity suite).
        self.last_repaired_rows: np.ndarray = np.empty(0, dtype=np.int64)
        self.stats: dict[str, int] = {
            "refreshes": 0,
            "full": 0,
            "incremental": 0,
            "clean": 0,
            "topology": 0,
            "worlds_repaired": 0,
            "worlds_resampled": 0,
            "worlds_columned": 0,
        }

    def __getstate__(self) -> dict:
        # Monitors ride inside worker dumps and on-disk snapshots.
        return {**self.__dict__, "_blob_format": _BLOB_FORMAT}

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        found = state.pop("_blob_format", None)
        if found != _BLOB_FORMAT:
            # Imported lazily: the persistence layer imports streaming.
            from repro.persistence.codec import PersistenceError

            raise PersistenceError(
                f"monitor blob has format {found!r}, expected "
                f"{_BLOB_FORMAT}: it was written under another counter "
                "layout or engine, and its cached worlds cannot be "
                "repaired exactly; rebuild the tenant instead"
            )
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> UncertainGraph:
        """The live graph this monitor serves."""
        return self._graph

    @property
    def k(self) -> int:
        """The continuous answer size."""
        return self._k

    @property
    def algorithm(self) -> str:
        """The maintained detection algorithm (``"bsr"`` / ``"bsrbk"``)."""
        return self._algorithm

    @property
    def world_state_nbytes(self) -> int:
        """Actual bytes the touched-entity state currently holds."""
        return 0 if self._world_state is None else self._world_state.nbytes

    @property
    def last_report(self) -> RefreshReport | None:
        """Telemetry of the most recent refresh, if any."""
        return self._last_report

    @property
    def pending_updates(self) -> int:
        """Entities patched since the last refresh."""
        return len(self._dirty_node_old) + len(self._dirty_edge_old)

    # ------------------------------------------------------------------
    # Update intake
    # ------------------------------------------------------------------
    def set_self_risk(self, label: NodeLabel, value: float) -> None:
        """Patch one node's self-risk and mark it dirty."""
        index = self._graph.index(label)
        old = self._graph.self_risk(label)
        self._graph.set_self_risk(label, value)
        if self._graph.self_risk(label) != old:
            self._dirty_node_old.setdefault(index, old)
            self._mutations += 1

    def set_edge_probability(
        self, src: NodeLabel, dst: NodeLabel, value: float
    ) -> None:
        """Patch one edge's diffusion probability and mark it dirty."""
        edge_id = self._graph.edge_id(src, dst)
        old = self._graph.edge_probability(src, dst)
        self._graph.set_edge_probability(src, dst, value)
        if self._graph.edge_probability(src, dst) != old:
            self._dirty_edge_old.setdefault(edge_id, old)
            self._mutations += 1

    def set_all_self_risks(self, values: Sequence[float] | np.ndarray) -> None:
        """Bulk-patch self-risks; only entries that moved become dirty."""
        old = self._graph.self_risk_array
        self._graph.set_all_self_risks(values)
        new = self._graph.self_risk_array
        for index in np.flatnonzero(new != old):
            self._dirty_node_old.setdefault(int(index), float(old[index]))
            self._mutations += 1

    def set_all_edge_probabilities(
        self, values: Sequence[float] | np.ndarray
    ) -> None:
        """Bulk-patch edge probabilities; only moved entries become dirty."""
        _, _, old = self._graph.edge_array
        self._graph.set_all_edge_probabilities(values)
        _, _, new = self._graph.edge_array
        for edge in np.flatnonzero(new != old):
            self._dirty_edge_old.setdefault(int(edge), float(old[edge]))
            self._mutations += 1

    def add_node(self, label: NodeLabel, self_risk: float = 0.0) -> int:
        """Append a node to the live graph and track it for ingestion.

        Returns the new node's index.  The next refresh folds the growth
        in incrementally.
        """
        index = self._graph.add_node(label, self_risk)
        self._added_nodes.append(int(index))
        self._mutations += 1
        return int(index)

    def add_edge(
        self, src: NodeLabel, dst: NodeLabel, probability: float
    ) -> int:
        """Append an edge to the live graph and track it for ingestion.

        Returns the new edge's id.  See :meth:`add_node` for how the
        next refresh absorbs the growth.
        """
        edge_id = self._graph.add_edge(src, dst, probability)
        self._added_edges.append(int(edge_id))
        self._mutations += 1
        return int(edge_id)

    def apply(self, events: Iterable[UpdateEvent]) -> int:
        """Apply a batch of update events in order; returns the count.

        Transactional: the whole batch is validated against the graph
        before any mutation, so a bad event (unknown entity, NaN or
        out-of-range probability, shape mismatch) raises with the graph
        and the monitor's dirty bookkeeping untouched.  Within a valid
        batch, events apply in order and the last write per entity wins.
        """
        events = validate_events(self._graph, events)
        count = 0
        for event in events:
            if isinstance(event, SelfRiskUpdate):
                self.set_self_risk(event.label, event.value)
            elif isinstance(event, EdgeProbabilityUpdate):
                self.set_edge_probability(event.src, event.dst, event.value)
            elif isinstance(event, BulkSelfRiskUpdate):
                self.set_all_self_risks(event.values)
            elif isinstance(event, BulkEdgeProbabilityUpdate):
                self.set_all_edge_probabilities(event.values)
            elif isinstance(event, NodeAdd):
                self.add_node(event.label, event.self_risk)
            elif isinstance(event, EdgeAdd):
                self.add_edge(event.src, event.dst, event.probability)
            else:
                raise GraphError(f"unknown update event: {event!r}")
            count += 1
        return count

    # ------------------------------------------------------------------
    # Query surface
    # ------------------------------------------------------------------
    def top_k(self) -> DetectionResult:
        """The current answer, refreshing first if updates are pending.

        Pending updates include direct topology mutations on the live
        graph (detected by shape), not just events routed through the
        monitor's setters — a stale cached answer is never served.
        """
        graph = self._graph
        stale = (
            self._result is None
            or self.pending_updates
            or (graph.num_nodes, graph.num_edges) != self._shape
        )
        if stale:
            self.refresh()
        assert self._result is not None
        return self._result

    def bounds_topk(self) -> DetectionResult:
        """A *degraded*, bounds-only answer — cheap, current, read-only.

        Ranks every node by the Eq-(1) iterates alone
        (:func:`~repro.bounds.iterative.bounds_only_topk`): no candidate
        reduction, no sampling, no possible-world repair.  This is what
        the SLO-enforced front end serves when the caller's latency
        budget rules out a full refresh.

        Unlike :meth:`top_k`, this method **never mutates** the
        monitor's pipeline state: the incremental bound iterates, dirty
        bookkeeping, cached reduction and world state are all left
        exactly as they were, so the next :meth:`refresh` repairs the
        same frontier it would have without this call.  When the cached
        bound pair is warm (no pending updates, topology unchanged) it
        is reused; otherwise a throwaway :func:`bound_pair` is evaluated
        over the current graph — always-warm in the sense that its cost
        is ``O((n + m) · z)``, independent of the pending repair size.

        The answer is flagged ``degraded=True`` and is bounds-consistent
        by construction: every reported node's upper bound reaches
        ``details["threshold_lower"]`` (the k-th largest lower bound).
        Repeated calls between mutations hit a one-slot cache.
        """
        graph = self._graph
        shape = (graph.num_nodes, graph.num_edges)
        key = (self._mutations, shape)
        cached = self._bounds_only_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        started = time.perf_counter()
        warm = (
            self._bounds is not None
            and not self._dirty_node_old
            and not self._dirty_edge_old
            and shape == self._shape
        )
        if warm:
            lower, upper = self._bounds.pair()
        else:
            lower, upper = bound_pair(
                graph, self._lower_order, self._upper_order
            )
        top, threshold = bounds_only_topk(lower, upper, self._k)
        nodes = [graph.label(int(index)) for index in top]
        scores = {
            label: float(lower[index]) for label, index in zip(nodes, top)
        }
        # Certified partial answer: a reported node whose floor beats
        # every possible k-th competitor is an exact winner even while
        # the sampling pipeline is degraded/mid-repair.
        certified = certified_topk_mask(lower, upper, self._k)
        result = DetectionResult(
            method="BOUNDS",
            k=self._k,
            nodes=nodes,
            scores=scores,
            samples_used=0,
            candidate_size=graph.num_nodes,
            k_verified=0,
            elapsed_seconds=time.perf_counter() - started,
            details={
                "lower_order": self._lower_order,
                "upper_order": self._upper_order,
                "threshold_lower": float(threshold),
                "bounds_lower": [float(lower[index]) for index in top],
                "bounds_upper": [float(upper[index]) for index in top],
                "bounds_reused": warm,
                "bounds_only": True,
                "certified": [bool(certified[index]) for index in top],
                "certified_count": int(np.count_nonzero(certified[top])),
            },
            degraded=True,
        )
        self._bounds_only_cache = (key, result)
        return result

    def world_view(self, min_worlds: int = 256) -> WorldView:
        """A read-only :class:`WorldView` over the repaired worlds.

        Refreshes first when updates are pending (the dirty-propagation
        contract: a view is never handed out over stale worlds), then
        returns a view realising exactly the world indices the monitor
        currently keeps repaired, under the sampler's own stream key —
        so ``view.defaulted()[:, candidates]`` is bit-identical to the
        cached outcome matrix, and every registered query family
        integrates over the *same* worlds the top-k answer does.

        When the sampling stage holds no worlds (``k' = 0``) the view
        falls back to worlds ``0 .. min_worlds-1`` under a key derived
        from the monitor's seed — still deterministic, still repairable
        on the next call.

        Views are cached per mutation-state: repeated calls between
        accepted updates return the same object (and therefore share
        every derived per-world product); any accepted probability
        change or topology change retires the view wholesale.
        """
        self._ensure_query_engine(min_worlds)
        return self._query_engine.view

    def query(self, family: str, **params):
        """Run a registered query family over the repaired worlds.

        Dispatches through :mod:`repro.queries`: ``family`` names a
        registered :class:`~repro.queries.base.WorldQuery` (``"topk"``,
        ``"kcore"``, ``"reliability"``, ``"skyline"``, …) and *params*
        are its keyword parameters.  Results are memoised per
        ``(family, params)`` until the next accepted update, and all
        families share one :meth:`world_view` — one set of realised
        worlds, one propagation fixpoint, one component labelling,
        amortised across everything asked of this monitor.

        Returns a :class:`~repro.queries.base.QueryResult`.
        """
        self._ensure_query_engine()
        return self._query_engine.run(family, **params)

    def _ensure_query_engine(self, min_worlds: int = 256) -> None:
        """(Re)build the memoising engine when the worlds moved."""
        graph = self._graph
        stale = (
            self._result is None
            or self.pending_updates
            or (graph.num_nodes, graph.num_edges) != self._shape
        )
        if stale:
            self.refresh()
        key = (self._mutations, self._shape)
        if self._query_engine is not None and self._query_engine_key == key:
            return
        # Imported lazily: repro.queries depends on the sampling layer,
        # and the streaming layer must stay importable without it.
        from repro.queries import QueryEngine

        if (
            self._sampler is not None
            and self._world_ids is not None
            and self._world_ids.size
        ):
            view = WorldView(
                graph,
                self._world_ids,
                stream_key=self._sampler.stream_key,
            )
        else:
            view = WorldView(
                graph,
                np.arange(max(1, int(min_worlds)), dtype=np.int64),
                seed=self._seed,
            )
        self._query_engine = QueryEngine(view)
        self._query_engine_key = key

    def refresh(self) -> RefreshReport:
        """Fold all pending updates into the cached answer."""
        started = time.perf_counter()
        graph = self._graph
        shape = (graph.num_nodes, graph.num_edges)
        dirt = self._effective_dirt()
        nodes_idx, nodes_old, edges_idx, edges_old, heads = dirt
        self.last_repaired_rows = np.empty(0, dtype=np.int64)
        if self._result is None:
            report = self._full_refresh(
                started, "initial", "first evaluation", dirt
            )
        elif shape != self._shape:
            report = None
            if self._can_ingest_topology():
                report = self._topology_refresh(started, dirt)
            if report is None:
                report = self._full_refresh(
                    started, "full", "graph topology changed", dirt
                )
        elif nodes_idx.size == 0 and edges_idx.size == 0:
            report = RefreshReport(
                mode="clean",
                reason="no pending probability changes",
                dirty_nodes=0,
                dirty_edges=0,
                bounds_recomputed=0,
                reduction_reused=True,
                sampling="reused",
                worlds_repaired=0,
                samples=self._samples,
                elapsed_seconds=time.perf_counter() - started,
            )
        else:
            limit = max(1, int(self._full_fraction * graph.num_nodes))
            if nodes_idx.size + heads.size > limit:
                report = self._full_refresh(
                    started, "full", "dirty region above threshold", dirt
                )
            else:
                assert self._bounds is not None
                delta = self._bounds.refresh(nodes_idx, heads, limit=limit)
                if delta is None:
                    report = self._full_refresh(
                        started, "full", "bound frontier above threshold", dirt
                    )
                else:
                    report = self._incremental_refresh(started, delta, dirt)
        self._dirty_node_old.clear()
        self._dirty_edge_old.clear()
        self._added_nodes.clear()
        self._added_edges.clear()
        self._shape = shape
        self._last_report = report
        self.stats["refreshes"] += 1
        mode_key = "full" if report.mode == "initial" else report.mode
        self.stats[mode_key] = self.stats.get(mode_key, 0) + 1
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _effective_dirt(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pending entities whose probability actually differs now.

        Returns ``(node_idx, node_old, edge_idx, edge_old, head_idx)``;
        entities patched back to their pre-refresh value drop out.

        Entity arrays come back sorted by index, *not* in ingestion
        order: the dirty dicts are keyed by entity (first-old wins, last
        value is whatever the graph holds now), so any two event
        sequences that leave the same graph state — e.g. a coalesced
        last-write-wins batch vs. its serial original — must hand the
        refresh pipeline exactly the same arrays.
        """
        graph = self._graph
        node_idx = np.fromiter(
            self._dirty_node_old.keys(), dtype=np.int64,
            count=len(self._dirty_node_old),
        )
        node_old = np.fromiter(
            self._dirty_node_old.values(), dtype=np.float64,
            count=len(self._dirty_node_old),
        )
        edge_idx = np.fromiter(
            self._dirty_edge_old.keys(), dtype=np.int64,
            count=len(self._dirty_edge_old),
        )
        edge_old = np.fromiter(
            self._dirty_edge_old.values(), dtype=np.float64,
            count=len(self._dirty_edge_old),
        )
        if node_idx.size:
            order = np.argsort(node_idx)
            node_idx, node_old = node_idx[order], node_old[order]
        if edge_idx.size:
            order = np.argsort(edge_idx)
            edge_idx, edge_old = edge_idx[order], edge_old[order]
        # Tracked append-only growth keeps every pre-existing index
        # valid (append-stable numbering), so the dirty entities filter
        # exactly as on a static graph.  Untracked topology change is
        # opaque; the full fallback ignores dirt entirely, so the stale
        # indices are never dereferenced.
        if (graph.num_nodes, graph.num_edges) != self._shape:
            if not self._topology_consistent():
                return node_idx, node_old, edge_idx, edge_old, edge_idx[:0]
        if node_idx.size:
            keep = graph.self_risk_array[node_idx] != node_old
            node_idx, node_old = node_idx[keep], node_old[keep]
        heads = edge_idx[:0]
        if edge_idx.size:
            _, dst, probs = graph.edge_array
            keep = probs[edge_idx] != edge_old
            edge_idx, edge_old = edge_idx[keep], edge_old[keep]
            heads = np.unique(dst[edge_idx])
        return node_idx, node_old, edge_idx, edge_old, heads

    def _topology_consistent(self) -> bool:
        """Whether the live shape is exactly the tracked append set."""
        n, m = self._shape
        return (
            self._graph.num_nodes == n + len(self._added_nodes)
            and self._graph.num_edges == m + len(self._added_edges)
        )

    def _can_ingest_topology(self) -> bool:
        """Whether the pending shape change qualifies for the
        incremental topology path (warm pipeline, and growth fully
        explained by the monitor's own intake)."""
        return (
            self._bounds is not None
            and self._reduction is not None
            and self._topology_consistent()
        )

    def _topology_refresh(self, started: float, dirt) -> RefreshReport | None:
        """Fold tracked append-only growth in without a full rebuild.

        Returns ``None`` to fall back to the full path (dirty region or
        bound frontier above threshold).  Stage by stage:

        * **Bounds** extend with NaN placeholders for the new nodes and
          refresh with the attachment boundary — new nodes plus every
          new edge's head — unioned into the probability dirt as the
          seed (:meth:`IncrementalBoundPair.extend_topology`).
        * **Reduction** always re-runs: the bound delta's old-value
          telemetry is NaN for new nodes, so the Tl-crossing shortcut
          has nothing sound to compare against; Algorithm 4 itself is
          O(n) and cheap next to sampling.
        * **Sampling** extends the cached world masks with zero bits
          for the new entities (a cached closure cannot contain them),
          rebuilds the sampler over the grown CSR — same stream key,
          same counters — and re-explores exactly the worlds
          whose expanded set contains a new edge's head (reverse
          exploration draws a node's in-edges only once the node is
          expanded, so every other world replays verbatim) plus the
          usual probability-crossing rows.  Candidate/budget drift
          reuses the columning machinery; BSRBK re-runs its stopping
          scan over the repaired prefix.
        """
        graph = self._graph
        nodes_idx, nodes_old, edges_idx, edges_old, heads = dirt
        assert self._bounds is not None and self._reduction is not None
        new_nodes = np.asarray(sorted(self._added_nodes), dtype=np.int64)
        new_edges = np.asarray(sorted(self._added_edges), dtype=np.int64)
        _, dst, _ = graph.edge_array
        new_heads = (
            np.unique(dst[new_edges]) if new_edges.size else new_edges
        )
        limit = max(1, int(self._full_fraction * graph.num_nodes))
        bound_nodes = np.union1d(nodes_idx, new_nodes)
        bound_heads = np.union1d(heads, new_heads)
        if bound_nodes.size + bound_heads.size > limit:
            return None
        delta = self._bounds.extend_topology(
            bound_nodes, bound_heads, limit=limit
        )
        if delta is None:
            return None
        lower, upper = self._bounds.pair()
        reduction = reduce_candidates(graph, lower, upper, self._k)
        worlds_repaired = 0
        if reduction.k_remaining == 0:
            sampling = "skipped"
            self._clear_sampling_state()
        else:
            samples = reduced_sample_size(
                reduction.candidate_size,
                self._k,
                reduction.k_verified,
                self._epsilon,
                self._delta,
            )
            state = self._world_state
            over_budget = (
                state is not None
                and PackedWorldState.bytes_needed(
                    self._samples, graph.num_nodes, graph.num_edges
                )
                > self._world_state_budget
            )
            if (
                self._sampler is None
                or self._world_outcomes is None
                or state is None
                or over_budget
            ):
                # Nothing extendable is cached (previous refresh skipped
                # sampling, or touched state is absent / would blow the
                # budget after growth).  Re-estimating afresh is still
                # exact — and bit-identical to the fresh oracle, which
                # takes this same path.
                self._resample(reduction, samples)
                sampling = "resampled"
                worlds_repaired = (
                    self._processed
                    if self._algorithm == "bsrbk"
                    else samples
                )
                self.stats["worlds_resampled"] += worlds_repaired
            else:
                # Extend first: old bits are preserved, new entities'
                # columns start zero, so the pre-growth invalidation
                # queries below read exactly the pre-growth masks.
                state.extend(
                    graph.num_nodes,
                    graph.num_edges,
                    heads=dst,
                    in_degrees=np.diff(graph.in_csr().indptr),
                )
                # The cached sampler's CSR and candidate frontier
                # predate the growth; fixed counter lanes make the
                # rebuild draw-compatible with every cached world.
                self._sampler = self._make_indexed_sampler(
                    self._sampling_candidates
                )
                prob_affected = self._affected_rows(
                    nodes_idx, nodes_old, edges_idx, edges_old
                )
                if new_edges.size:
                    hit_rows, _ = state.edge_pairs(new_edges, dst[new_edges])
                    topo_affected = np.unique(hit_rows)
                else:
                    topo_affected = new_edges
                affected = np.union1d(prob_affected, topo_affected).astype(
                    np.int64
                )
                inputs_unchanged = (
                    samples == self._samples
                    and np.array_equal(
                        reduction.candidates, self._sampling_candidates
                    )
                )
                if inputs_unchanged or self._can_column(reduction, samples):
                    if not inputs_unchanged:
                        appended = self._column_repair(reduction, samples)
                        affected = affected[affected < self._samples]
                        sampling = "columned"
                        worlds_repaired = int(affected.size) + appended
                        self.stats["worlds_columned"] += appended
                    elif affected.size:
                        sampling = "repaired"
                        worlds_repaired = int(affected.size)
                    else:
                        sampling = "reused"
                    if affected.size:
                        self._repair_rows(affected)
                        self.stats["worlds_repaired"] += int(affected.size)
                    if self._algorithm == "bsrbk":
                        stop_changed = (
                            int(reduction.k_remaining) != self._stop_after
                        )
                        self._stop_after = int(reduction.k_remaining)
                        if affected.size or stop_changed:
                            extended = self._bk_rescan()
                            worlds_repaired += extended
                            self.stats["worlds_repaired"] += extended
                            if extended and sampling == "reused":
                                sampling = "repaired"
                    self.last_repaired_rows = affected
                else:
                    self._resample(reduction, samples)
                    sampling = "resampled"
                    worlds_repaired = (
                        self._processed
                        if self._algorithm == "bsrbk"
                        else samples
                    )
                    self.stats["worlds_resampled"] += worlds_repaired
        self._reduction = reduction
        self._assemble(started)
        self.stats["topology"] += 1
        return RefreshReport(
            mode="incremental",
            reason="incremental topology ingestion",
            dirty_nodes=int(nodes_idx.size),
            dirty_edges=int(edges_idx.size),
            bounds_recomputed=delta.nodes_recomputed,
            reduction_reused=False,
            sampling=sampling,
            worlds_repaired=worlds_repaired,
            samples=self._samples,
            elapsed_seconds=time.perf_counter() - started,
        )

    def _full_refresh(
        self, started: float, mode: str, reason: str, dirt
    ) -> RefreshReport:
        """Recompute every stage — the same pipeline as fresh detection."""
        graph = self._graph
        self._bounds = IncrementalBoundPair(
            graph, self._lower_order, self._upper_order
        )
        lower, upper = self._bounds.pair()
        reduction = reduce_candidates(graph, lower, upper, self._k)
        if reduction.k_remaining > 0:
            samples = reduced_sample_size(
                reduction.candidate_size,
                self._k,
                reduction.k_verified,
                self._epsilon,
                self._delta,
            )
            self._resample(reduction, samples)
        else:
            self._clear_sampling_state()
        self._reduction = reduction
        self._assemble(started)
        nodes_idx, _, edges_idx, _, _ = dirt
        worlds = (
            self._processed if self._algorithm == "bsrbk" else self._samples
        )
        self.stats["worlds_resampled"] += worlds
        return RefreshReport(
            mode=mode,
            reason=reason,
            dirty_nodes=int(nodes_idx.size),
            dirty_edges=int(edges_idx.size),
            bounds_recomputed=graph.num_nodes
            * (self._lower_order + self._upper_order),
            reduction_reused=False,
            sampling="resampled" if worlds else "skipped",
            worlds_repaired=worlds,
            samples=self._samples,
            elapsed_seconds=time.perf_counter() - started,
        )

    def _incremental_refresh(
        self, started: float, delta: BoundDelta, dirt
    ) -> RefreshReport:
        """The dirty-frontier path: provable reuse stage by stage."""
        graph = self._graph
        nodes_idx, nodes_old, edges_idx, edges_old, heads = dirt
        assert self._bounds is not None and self._reduction is not None
        # Stage 2: Algorithm 4 is untouched unless a changed bound value
        # reaches Tl — below Tl both thresholds and both membership rules
        # are provably inert.
        crossed = (
            delta.max_changed_value >= self._reduction.threshold_lower
        )
        reduction = self._reduction
        if crossed:
            lower, upper = self._bounds.pair()
            reduction = reduce_candidates(graph, lower, upper, self._k)
        # Stage 3: sampling.
        worlds_repaired = 0
        if reduction.k_remaining == 0:
            sampling = "skipped"
            self._clear_sampling_state()
        else:
            samples = reduced_sample_size(
                reduction.candidate_size,
                self._k,
                reduction.k_verified,
                self._epsilon,
                self._delta,
            )
            inputs_unchanged = (
                self._sampling_candidates is not None
                and samples == self._samples
                and np.array_equal(reduction.candidates, self._sampling_candidates)
            )
            if inputs_unchanged or self._can_column(reduction, samples):
                # Invalidation runs against the pre-change world rows;
                # rows the columning step appends are explored against
                # the already-patched graph and need no repair.
                affected = self._affected_rows(
                    nodes_idx, nodes_old, edges_idx, edges_old
                )
                if not inputs_unchanged:
                    appended = self._column_repair(reduction, samples)
                    affected = affected[affected < self._samples]
                    sampling = "columned"
                    worlds_repaired = int(affected.size) + appended
                    self.stats["worlds_columned"] += appended
                elif affected.size:
                    sampling = "repaired"
                    worlds_repaired = int(affected.size)
                else:
                    sampling = "reused"
                if affected.size:
                    self._repair_rows(affected)
                    self.stats["worlds_repaired"] += int(affected.size)
                if self._algorithm == "bsrbk":
                    # The stopping rule also depends on k_remaining,
                    # which can move (k_verified drift) while the
                    # candidate set and Theorem-5 budget stay equal —
                    # the scan must always run against the fresh value.
                    stop_changed = (
                        int(reduction.k_remaining) != self._stop_after
                    )
                    self._stop_after = int(reduction.k_remaining)
                    if affected.size or stop_changed:
                        # A later stopping point can pull new worlds
                        # into the evaluated prefix; they are work done
                        # this refresh, so they count as repaired.
                        extended = self._bk_rescan()
                        worlds_repaired += extended
                        self.stats["worlds_repaired"] += extended
                        if extended and sampling == "reused":
                            sampling = "repaired"
                self.last_repaired_rows = affected
            else:
                self._resample(reduction, samples)
                sampling = "resampled"
                worlds_repaired = (
                    self._processed
                    if self._algorithm == "bsrbk"
                    else samples
                )
                self.stats["worlds_resampled"] += worlds_repaired
        self._reduction = reduction
        self._assemble(started)
        return RefreshReport(
            mode="incremental",
            reason="dirty-frontier refresh",
            dirty_nodes=int(nodes_idx.size),
            dirty_edges=int(edges_idx.size),
            bounds_recomputed=delta.nodes_recomputed,
            reduction_reused=not crossed,
            sampling=sampling,
            worlds_repaired=worlds_repaired,
            samples=self._samples,
            elapsed_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # Per-world repair machinery
    # ------------------------------------------------------------------
    def _affected_rows(
        self,
        nodes_idx: np.ndarray,
        nodes_old: np.ndarray,
        edges_idx: np.ndarray,
        edges_old: np.ndarray,
    ) -> np.ndarray:
        """Row positions whose cached outcome a dirty entity can change.

        World ``w`` is invalidated by entity ``x`` only if ``x``'s fixed
        uniform in ``w`` crosses the old→new probability (its realisation
        flips) — expected fraction ``|Δp|`` of worlds — and, when touched
        state is kept, only if ``w`` actually drew ``x``.  All candidate
        ``(world, entity)`` pairs are hashed in bulk: one tile per chunk
        without touched state, one ragged gather through the
        entity→worlds index with it.
        """
        assert self._sampler is not None and self._world_ids is not None
        graph = self._graph
        rows = self._world_ids.size
        key = self._sampler.stream_key
        bases = self._world_ids.astype(_U64) * COUNTER_STRIDE
        state = self._world_state
        affected = np.zeros(rows, dtype=bool)
        # edge_array copies all three m-length columns per access; pull
        # them once for the whole invalidation scan.
        if edges_idx.size:
            _, edge_heads, edge_probs = graph.edge_array
        else:
            edge_heads = edge_probs = None

        def crossing_pairs(entities, lows, highs, offset, is_edge):
            counters = entities.astype(_U64) + offset
            if state is None:
                # No touched state: test every (world, entity) pair,
                # tiled so one numpy call hashes a whole chunk.
                per_chunk = max(1, _TILE_CHUNK // max(entities.size, 1))
                for start in range(0, rows, per_chunk):
                    stop = min(start + per_chunk, rows)
                    tile = hashed_uniform_tile(
                        key, bases[start:stop], counters
                    )
                    hit = (tile > lows[None, :]) & (tile <= highs[None, :])
                    affected[start:stop] |= hit.any(axis=1)
                return
            if is_edge:
                pair_rows, positions = state.edge_pairs(
                    entities, edge_heads[entities]
                )
            else:
                pair_rows, positions = state.node_pairs(entities)
            if pair_rows.size == 0:
                return
            draws = hashed_uniforms(
                key, bases[pair_rows] + counters[positions]
            )
            crossed = (draws > lows[positions]) & (draws <= highs[positions])
            affected[pair_rows[crossed]] = True

        if nodes_idx.size:
            new_risks = self._graph.self_risk_array[nodes_idx]
            lows = np.minimum(nodes_old, new_risks)
            highs = np.maximum(nodes_old, new_risks)
            crossing_pairs(nodes_idx, lows, highs, _U64(0), is_edge=False)
        if edges_idx.size:
            new_probs = edge_probs[edges_idx]
            lows = np.minimum(edges_old, new_probs)
            highs = np.maximum(edges_old, new_probs)
            crossing_pairs(
                edges_idx,
                lows,
                highs,
                EDGE_COUNTER_BASE,
                is_edge=True,
            )
        return np.flatnonzero(affected)

    def _make_indexed_sampler(
        self, candidates: np.ndarray
    ) -> IndexedReverseSampler:
        """The monitor's canonical indexed-sampler construction.

        Every rebuild must thread the same seed — another seed would
        re-key the per-world uniforms and silently break the repair-set
        bit-identity guarantee.
        """
        return IndexedReverseSampler(self._graph, candidates, seed=self._seed)

    def _repair_rows(self, rows: np.ndarray) -> None:
        """Re-explore only the invalidated world rows and splice them in.

        Running totals (candidate counts, work counters) are updated by
        the repaired rows' delta — all integer arithmetic, so the state
        is exactly what a full re-summation would produce, at
        O(repaired) instead of O(samples) cost.
        """
        assert self._sampler is not None and self._world_outcomes is not None
        state = self._world_state
        world_ids = self._world_ids[rows]
        for positions, block in self._sampler.iter_world_blocks(
            world_ids, collect_touched=state is not None
        ):
            target = rows[positions]
            if self._counts is not None:  # BSRBK rescans instead
                old_rows = self._world_outcomes[target]
                self._counts += block.outcomes.sum(axis=0) - old_rows.sum(axis=0)
            self._nodes_touched += int(
                block.node_draws.sum() - self._world_node_draws[target].sum()
            )
            self._edges_touched += int(
                block.edge_draws.sum() - self._world_edge_draws[target].sum()
            )
            self._world_outcomes[target] = block.outcomes
            self._world_node_draws[target] = block.node_draws
            self._world_edge_draws[target] = block.edge_draws
            if state is not None:
                state.store_block(target, block)
        if self._algorithm == "bsr":
            self._probs = self._counts / float(self._samples)

    def _can_column(
        self, reduction: CandidateReduction, samples: int
    ) -> bool:
        """Whether a candidate/budget change is absorbable incrementally.

        Requires the BSR pipeline with touched state (the
        popcount bookkeeping is what keeps the union draw counters
        exact), candidates that only *grew* (a removed candidate shrinks
        every world's closure in ways only a re-exploration can
        reproduce), and the resized state still within budget.  BSRBK's
        budget defines the hash order itself, so any change there
        resamples.
        """
        if (
            self._algorithm != "bsr"
            or self._world_state is None
            or self._sampling_candidates is None
            or self._sampler is None
        ):
            return False
        if not np.isin(
            self._sampling_candidates, reduction.candidates
        ).all():
            return False
        graph = self._graph
        return (
            PackedWorldState.bytes_needed(
                samples, graph.num_nodes, graph.num_edges
            )
            <= self._world_state_budget
        )

    def _column_repair(
        self, reduction: CandidateReduction, samples: int
    ) -> int:
        """Absorb a candidate/budget change without resampling.

        Three exact moves, in order: truncate or grow the world prefix
        (indexed worlds are order-independent, so the first ``samples``
        worlds of a fresh run are exactly worlds ``0..samples-1``);
        explore only the *added* candidates over the kept worlds and OR
        their closures into the touched state (closures of a candidate
        union are unions of closures, so the merged masks — and the
        popcount/in-degree draw-count deltas — equal a from-scratch
        union run's); explore appended worlds with the full new set.
        Returns the number of appended worlds.
        """
        assert self._world_state is not None
        state = self._world_state
        graph = self._graph
        old_candidates = self._sampling_candidates
        new_candidates = reduction.candidates
        old_samples = self._samples
        keep = min(old_samples, samples)
        # 1. Truncate surplus worlds (recompute totals from survivors).
        if samples < old_samples:
            self._world_outcomes = self._world_outcomes[:samples].copy()
            self._world_node_draws = self._world_node_draws[:samples].copy()
            self._world_edge_draws = self._world_edge_draws[:samples].copy()
            state.resize(samples)
        # 2. Column added candidates into the kept worlds.
        added = np.setdiff1d(new_candidates, old_candidates)
        outcomes = np.zeros(
            (samples, new_candidates.size), dtype=bool
        )
        old_positions = np.searchsorted(new_candidates, old_candidates)
        outcomes[:keep, old_positions] = self._world_outcomes[:keep]
        if samples > old_samples:
            grow_nodes = np.zeros(samples, dtype=np.int64)
            grow_edges = np.zeros(samples, dtype=np.int64)
            grow_nodes[:keep] = self._world_node_draws
            grow_edges[:keep] = self._world_edge_draws
            self._world_node_draws = grow_nodes
            self._world_edge_draws = grow_edges
            state.resize(samples)
        self._world_outcomes = outcomes
        if added.size:
            added_positions = np.searchsorted(new_candidates, added)
            added_sampler = self._make_indexed_sampler(added)
            for positions, block in added_sampler.iter_world_blocks(
                np.arange(keep, dtype=np.int64), collect_touched=True
            ):
                outcomes[np.ix_(positions, added_positions)] = block.outcomes
                node_delta, edge_delta = state.merge_block(positions, block)
                self._world_node_draws[positions] += node_delta
                self._world_edge_draws[positions] += edge_delta
        # 3. The monitor's sampler now serves the new candidate set.
        sampler = self._make_indexed_sampler(new_candidates)
        self._sampler = sampler
        appended = samples - keep
        if appended > 0:
            for positions, block in sampler.iter_world_blocks(
                np.arange(keep, samples, dtype=np.int64), collect_touched=True
            ):
                target = positions + keep
                outcomes[target] = block.outcomes
                self._world_node_draws[target] = block.node_draws
                self._world_edge_draws[target] = block.edge_draws
                state.store_block(target, block)
        self._counts = outcomes.sum(axis=0)
        self._probs = self._counts / float(samples)
        self._nodes_touched = int(self._world_node_draws.sum())
        self._edges_touched = int(self._world_edge_draws.sum())
        self._samples = int(samples)
        self._world_ids = np.arange(samples, dtype=np.int64)
        self._sampling_candidates = new_candidates.copy()
        return appended

    # ------------------------------------------------------------------
    # (Re)sampling
    # ------------------------------------------------------------------
    def _tracked_state(
        self, samples: int, rows: int | None = None
    ) -> PackedWorldState | None:
        """Fresh touched-entity state, or ``None`` when over budget.

        The budget is judged against *samples* worlds (the most the run
        can ever hold); *rows* lets BSRBK start with an empty state that
        grows with the evaluated prefix.
        """
        graph = self._graph
        n, m = graph.num_nodes, graph.num_edges
        if PackedWorldState.bytes_needed(samples, n, m) > self._world_state_budget:
            return None
        rows = samples if rows is None else rows
        in_csr = graph.in_csr()
        return PackedWorldState(
            rows,
            n,
            m,
            heads=graph.edge_array[1],
            in_degrees=np.diff(in_csr.indptr),
        )

    def _resample(self, reduction: CandidateReduction, samples: int) -> None:
        """Estimate the whole candidate set afresh (as fresh detection)."""
        sampler = self._make_indexed_sampler(reduction.candidates)
        self._sampler = sampler
        if self._algorithm == "bsrbk":
            self._bk_resample(reduction, samples)
        else:
            state = self._tracked_state(samples)
            outcomes = np.zeros((samples, reduction.candidates.size), dtype=bool)
            node_draws = np.zeros(samples, dtype=np.int64)
            edge_draws = np.zeros(samples, dtype=np.int64)
            for rows, block in sampler.iter_world_blocks(
                np.arange(samples, dtype=np.int64),
                collect_touched=state is not None,
            ):
                outcomes[rows] = block.outcomes
                node_draws[rows] = block.node_draws
                edge_draws[rows] = block.edge_draws
                if state is not None:
                    state.store_block(rows, block)
            self._world_outcomes = outcomes
            self._world_node_draws = node_draws
            self._world_edge_draws = edge_draws
            self._world_state = state
            self._world_ids = np.arange(samples, dtype=np.int64)
            self._counts = outcomes.sum(axis=0)
            self._probs = self._counts / float(samples)
            self._nodes_touched = int(node_draws.sum())
            self._edges_touched = int(edge_draws.sum())
            self._bk_order = self._bk_hashes = None
            self._processed = 0
        self._samples = int(samples)
        self._sampling_candidates = reduction.candidates.copy()
        self._stop_after = int(reduction.k_remaining)

    # ------------------------------------------------------------------
    # BSRBK (bottom-k early stop over hash-ordered indexed worlds)
    # ------------------------------------------------------------------
    def _bk_resample(self, reduction: CandidateReduction, samples: int) -> None:
        """Fresh BSRBK evaluation: hash-order worlds, evaluate until the
        stopping rule fires, keep everything evaluated for later repair."""
        sampler = self._sampler
        hashes = sampler.world_hashes(np.arange(samples, dtype=np.int64))
        order = np.argsort(hashes, kind="stable")
        self._bk_order = order
        self._bk_hashes = hashes[order]
        self._world_outcomes = np.zeros(
            (0, reduction.candidates.size), dtype=bool
        )
        self._world_node_draws = np.zeros(0, dtype=np.int64)
        self._world_edge_draws = np.zeros(0, dtype=np.int64)
        self._world_state = self._tracked_state(samples, rows=0)
        self._world_ids = order[:0]
        self._samples = int(samples)
        self._stop_after = int(reduction.k_remaining)
        self._bk_extend_and_scan()

    def _bk_extend_and_scan(self) -> int:
        """Evaluate hash-ordered worlds until the bottom-k rule stops.

        Re-runs the pure stopping scan over the evaluated prefix after
        every extension; because a longer prefix only appends later
        finishes, the stopping point is independent of the chunk
        schedule — the property that makes the monitor's incremental
        result bit-identical to a fresh run's.  Returns how many worlds
        the evaluated prefix grew by (work telemetry).
        """
        assert self._sampler is not None and self._bk_order is not None
        budget = self._samples
        initial = evaluated = self._world_ids.size
        chunk = max(64, self._sampler.world_batch, evaluated)
        scan = None
        state = self._world_state
        while True:
            if evaluated:
                scan = bottom_k_scan(
                    self._world_outcomes,
                    self._bk_hashes[:evaluated],
                    self._bk,
                    self._stop_after,
                    budget,
                )
                if scan.stopped_early or evaluated >= budget:
                    break
            take = min(chunk, budget - evaluated)
            chunk *= 2
            world_ids = self._bk_order[evaluated : evaluated + take]
            grown = evaluated + take
            outcomes = np.zeros(
                (grown, self._world_outcomes.shape[1]), dtype=bool
            )
            outcomes[:evaluated] = self._world_outcomes
            node_draws = np.zeros(grown, dtype=np.int64)
            edge_draws = np.zeros(grown, dtype=np.int64)
            node_draws[:evaluated] = self._world_node_draws
            edge_draws[:evaluated] = self._world_edge_draws
            if state is not None:
                state.resize(grown)
            for positions, block in self._sampler.iter_world_blocks(
                world_ids, collect_touched=state is not None
            ):
                target = positions + evaluated
                outcomes[target] = block.outcomes
                node_draws[target] = block.node_draws
                edge_draws[target] = block.edge_draws
                if state is not None:
                    state.store_block(target, block)
            self._world_outcomes = outcomes
            self._world_node_draws = node_draws
            self._world_edge_draws = edge_draws
            evaluated = grown
            self._world_ids = self._bk_order[:evaluated]
        self._processed = scan.processed
        self._stopped_early = scan.stopped_early
        self._probs = np.clip(scan.estimates, 0.0, 1.0)
        self._counts = None
        self._nodes_touched = int(
            self._world_node_draws[: scan.processed].sum()
        )
        self._edges_touched = int(
            self._world_edge_draws[: scan.processed].sum()
        )
        return evaluated - initial

    def _bk_rescan(self) -> int:
        """Re-run the stopping scan after repairs (extending on demand);
        returns the number of newly evaluated worlds."""
        return self._bk_extend_and_scan()

    def _clear_sampling_state(self) -> None:
        self._samples = 0
        self._probs = None
        self._sampling_candidates = None
        self._nodes_touched = 0
        self._edges_touched = 0
        self._sampler = None
        self._counts = None
        self._world_outcomes = None
        self._world_node_draws = self._world_edge_draws = None
        self._world_state = None
        self._world_ids = None
        self._bk_order = self._bk_hashes = None
        self._processed = 0
        self._stopped_early = False

    def _assemble(self, started: float) -> None:
        """Build the DetectionResult exactly as the fresh detector does."""
        assert self._bounds is not None and self._reduction is not None
        reduction = self._reduction
        nodes, scores = assemble_answer(
            self._graph, reduction, self._bounds.lower, self._probs, self._k
        )
        if self._algorithm == "bsrbk":
            samples_used = self._processed if self._probs is not None else 0
            details = {
                "bk": self._bk,
                "epsilon": self._epsilon,
                "delta": self._delta,
                "lower_order": self._lower_order,
                "upper_order": self._upper_order,
                "stopped_early": self._stopped_early
                if self._probs is not None
                else False,
                **reduction.summary(),
                "nodes_touched": self._nodes_touched,
                "edges_touched": self._edges_touched,
            }
            method = "BSRBK"
        else:
            samples_used = self._samples
            details = {
                "epsilon": self._epsilon,
                "delta": self._delta,
                "lower_order": self._lower_order,
                "upper_order": self._upper_order,
                **reduction.summary(),
                "nodes_touched": self._nodes_touched,
                "edges_touched": self._edges_touched,
            }
            method = "BSR"
        self._result = DetectionResult(
            method=method,
            k=self._k,
            nodes=nodes,
            scores=scores,
            samples_used=samples_used,
            candidate_size=reduction.candidate_size,
            k_verified=reduction.k_verified,
            elapsed_seconds=time.perf_counter() - started,
            details=details,
        )
