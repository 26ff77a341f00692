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

Every refresh runs one staged pipeline; the stages differ only in what
they may reuse from the previous refresh:

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

When the dirty region or a bound frontier exceeds a quarter of the
graph — e.g. a bulk monthly re-scoring that moves everything — the
bounds stage rebuilds from scratch and nothing cached is reused: the
same code path as fresh detection and therefore trivially exact (the
oracle tests cover both routes).

**Topology growth.**  ``NodeAdd`` / ``EdgeAdd`` events (or the
:meth:`TopKMonitor.add_node` / :meth:`TopKMonitor.add_edge` intake)
grow the graph append-only.  Each world owns a fixed 2^33-counter lane
(nodes at ``w·2^33 + v``, edges at ``w·2^33 + 2^32 + e``), so growth
never moves an existing counter and runs through the same pipeline as
probability patches, with two additions:

* the bounds stage extends its iterates with the new nodes and seeds
  the refresh with the attachment boundary (new nodes + new edges'
  heads) on top of the probability dirt;
* the sampling stage extends the cached world masks by zero bits for
  the new entities (a cached closure can only reach a new entity
  through a new edge) and adds one invalidation set: the worlds whose
  *expanded* set holds a new edge's head.  Reverse exploration draws a
  node's in-edges only when the node is expanded, so every other world
  replays its exploration verbatim on the grown graph.  Reusing cached
  worlds under growth therefore needs touched state within budget;
  without it the sampling stage resamples.

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
#: Share of the graph's nodes a dirty region or bound frontier may reach
#: before the bounds stage rebuilds from scratch (the full fallback).
_FULL_REBUILD_FRACTION = 0.25
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
        ``"incremental"`` (the stages reused their caches, under
        probability patches or tracked growth) or ``"full"`` (fallback:
        bounds rebuilt, nothing reused).
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
    world_state_budget:
        Cap (in bytes) on the bit-packed touched-entity state (two
        ``n``-bit masks per world plus an entity→worlds inverted
        index).  Above it the monitor keeps only outcome rows and
        invalidates on uniform crossings alone — still exact,
        marginally more re-exploration.  Topology growth then
        resamples: only touched state shows which worlds a new edge
        reaches.
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
        """Fold all pending updates into the cached answer.

        One staged pipeline serves every route: the bounds stage, then
        Algorithm 4's candidate reduction, then the sampling stage (see
        the module docstring).  The routes differ only in what each
        stage may reuse — nothing on the first evaluation or the
        ``"full"`` fallback, the dirty frontier under probability
        patches, and the frontier widened by the attachment boundary
        under tracked growth.  With nothing pending the refresh is
        ``"clean"`` and runs no stage at all.
        """
        started = time.perf_counter()
        graph = self._graph
        shape = (graph.num_nodes, graph.num_edges)
        growth = shape != self._shape
        dirt = self._effective_dirt()
        nodes_idx, _, edges_idx, _, _ = dirt
        self.last_repaired_rows = np.empty(0, dtype=np.int64)
        if self._result is not None and not (
            growth or nodes_idx.size or edges_idx.size
        ):
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
            initial = self._result is None
            delta, reason = self._bounds_stage(dirt, growth)
            # Algorithm 4 is untouched unless a changed bound value
            # reaches Tl — below Tl both thresholds and both membership
            # rules are provably inert.  Growth always re-runs it: the
            # delta's old values are NaN for new nodes, so the crossing
            # test has nothing sound to compare against (and Algorithm 4
            # is O(n), cheap next to sampling).
            reduction = self._reduction
            reduction_reused = (
                delta is not None
                and not growth
                and delta.max_changed_value < reduction.threshold_lower
            )
            if not reduction_reused:
                lower, upper = self._bounds.pair()
                reduction = reduce_candidates(graph, lower, upper, self._k)
            sampling, worlds = self._sampling_stage(
                reduction, dirt, growth, reusable=delta is not None
            )
            self._reduction = reduction
            self._assemble(started)
            if delta is None:
                mode = "initial" if initial else "full"
                bounds_recomputed = graph.num_nodes * (
                    self._lower_order + self._upper_order
                )
            else:
                mode, bounds_recomputed = "incremental", delta.nodes_recomputed
                if growth:
                    self.stats["topology"] += 1
            report = RefreshReport(
                mode=mode,
                reason=reason,
                dirty_nodes=int(nodes_idx.size),
                dirty_edges=int(edges_idx.size),
                bounds_recomputed=bounds_recomputed,
                reduction_reused=reduction_reused,
                sampling=sampling,
                worlds_repaired=worlds,
                samples=self._samples,
                elapsed_seconds=time.perf_counter() - started,
            )
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

    def _bounds_stage(
        self, dirt, growth: bool
    ) -> tuple[BoundDelta | None, str]:
        """Stage 1: refresh the bound iterates over the dirty frontier.

        Tracked growth only widens the seed: the new nodes and every new
        edge's head join the probability dirt, and the cached iterates
        extend with placeholders for the new nodes
        (:meth:`IncrementalBoundPair.extend_topology`, a plain refresh
        when nothing grew).  Returns the
        delta with the report's reason, or ``None`` with the fallback's
        reason after rebuilding the bounds from scratch — on the first
        evaluation, on topology change the intake did not track, or when
        the dirty region or a frontier exceeds ``_FULL_REBUILD_FRACTION``
        of the graph.
        """
        graph = self._graph
        nodes_idx, _, _, _, heads = dirt
        if self._result is None:
            reason = "first evaluation"
        elif growth and not self._topology_consistent():
            reason = "graph topology changed"
        else:
            if growth:
                _, dst, _ = graph.edge_array
                new_nodes = np.asarray(self._added_nodes, dtype=np.int64)
                new_edges = np.asarray(self._added_edges, dtype=np.int64)
                nodes_idx = np.union1d(nodes_idx, new_nodes)
                heads = np.union1d(heads, dst[new_edges])
            limit = max(1, int(_FULL_REBUILD_FRACTION * graph.num_nodes))
            seeded = nodes_idx.size + heads.size
            delta = None
            if seeded <= limit:
                delta = self._bounds.extend_topology(
                    nodes_idx, heads, limit=limit
                )
            if delta is not None:
                if growth:
                    return delta, "incremental topology ingestion"
                return delta, "dirty-frontier refresh"
            if growth:
                reason = "graph topology changed"
            elif seeded > limit:
                reason = "dirty region above threshold"
            else:
                reason = "bound frontier above threshold"
        self._bounds = IncrementalBoundPair(
            graph, self._lower_order, self._upper_order
        )
        return None, reason

    def _sampling_stage(
        self,
        reduction: CandidateReduction,
        dirt,
        growth: bool,
        reusable: bool,
    ) -> tuple[str, int]:
        """Stage 3: repair, column in or resample the cached worlds.

        Returns the report's ``(sampling, worlds_repaired)``.  Cached
        worlds are reusable when the bounds stage kept its cache
        (*reusable*) and a sampler survives; growth also needs touched
        state within budget, since only the expanded sets tell which
        worlds a new edge reaches.  Reused worlds are invalidated by the
        dirty entities' uniform crossings and, under growth, wherever a
        new edge's head was *expanded* — reverse exploration draws a
        node's in-edges only once the node is expanded, so every other
        world replays verbatim on the grown graph.  Only those rows are
        re-explored; a candidate or budget change is columned in when
        :meth:`_can_column` allows.  Anything else resamples, exactly as
        fresh detection does.
        """
        if reduction.k_remaining == 0:
            self._clear_sampling_state()
            return "skipped", 0
        graph = self._graph
        samples = reduced_sample_size(
            reduction.candidate_size,
            self._k,
            reduction.k_verified,
            self._epsilon,
            self._delta,
        )
        state = self._world_state
        reusable = reusable and self._sampler is not None
        if growth and reusable:
            reusable = (
                state is not None
                and PackedWorldState.bytes_needed(
                    self._samples, graph.num_nodes, graph.num_edges
                )
                <= self._world_state_budget
            )
        inputs_unchanged = (
            reusable
            and samples == self._samples
            and np.array_equal(reduction.candidates, self._sampling_candidates)
        )
        if not (
            inputs_unchanged
            or (reusable and self._can_column(reduction, samples))
        ):
            self._resample(reduction, samples)
            worlds = self._processed if self._algorithm == "bsrbk" else samples
            self.stats["worlds_resampled"] += worlds
            return "resampled", worlds
        nodes_idx, nodes_old, edges_idx, edges_old, _ = dirt
        if growth:
            # Extend first: old bits are kept and new entities' columns
            # start clear, so the invalidation below reads exactly the
            # pre-growth masks.  Fixed counter lanes make the sampler
            # rebuilt over the grown CSR draw-compatible with every
            # cached world.
            _, dst, _ = graph.edge_array
            state.extend(
                graph.num_nodes,
                graph.num_edges,
                heads=dst,
                in_degrees=np.diff(graph.in_csr().indptr),
            )
            self._sampler = self._make_indexed_sampler(
                self._sampling_candidates
            )
        affected = self._affected_rows(
            nodes_idx, nodes_old, edges_idx, edges_old
        )
        if growth and self._added_edges:
            new_edges = np.asarray(self._added_edges, dtype=np.int64)
            hit_rows, _ = state.edge_pairs(new_edges, dst[new_edges])
            affected = np.union1d(affected, hit_rows).astype(np.int64)
        if inputs_unchanged:
            sampling = "repaired" if affected.size else "reused"
            worlds = int(affected.size)
        else:
            # Invalidation ran against the pre-change rows; rows the
            # columning step appends are explored against the patched
            # graph and need no repair.
            appended = self._column_repair(reduction, samples)
            affected = affected[affected < self._samples]
            sampling = "columned"
            worlds = int(affected.size) + appended
            self.stats["worlds_columned"] += appended
        if affected.size:
            self._repair_rows(affected)
            self.stats["worlds_repaired"] += int(affected.size)
        if self._algorithm == "bsrbk":
            # The stopping rule also depends on k_remaining, which can
            # move (k_verified drift) while the candidate set and budget
            # stay equal — the scan must always run against the fresh
            # value.  A later stopping point can pull new worlds into
            # the evaluated prefix; they count as repaired.
            stop_changed = int(reduction.k_remaining) != self._stop_after
            self._stop_after = int(reduction.k_remaining)
            if affected.size or stop_changed:
                extended = self._bk_extend_and_scan()
                worlds += extended
                self.stats["worlds_repaired"] += extended
                if extended and sampling == "reused":
                    sampling = "repaired"
        self.last_repaired_rows = affected
        return sampling, worlds

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

    def _explore_rows(
        self,
        sampler: IndexedReverseSampler,
        world_ids: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        """Explore *world_ids* with *sampler* and store them at *rows*.

        The one path by which explored worlds enter the cache: outcome
        rows, per-world draw counters and, when kept, touched state.
        """
        if world_ids.size == 0:
            return
        state = self._world_state
        for positions, block in sampler.iter_world_blocks(
            world_ids, collect_touched=state is not None
        ):
            target = rows[positions]
            self._world_outcomes[target] = block.outcomes
            self._world_node_draws[target] = block.node_draws
            self._world_edge_draws[target] = block.edge_draws
            if state is not None:
                state.store_block(target, block)

    def _resize_rows(self, rows: int) -> None:
        """Truncate or zero-pad the cached per-world rows to *rows*."""
        kept = min(rows, self._world_node_draws.size)

        def fit(array: np.ndarray) -> np.ndarray:
            out = np.zeros((rows,) + array.shape[1:], dtype=array.dtype)
            out[:kept] = array[:kept]
            return out

        self._world_outcomes = fit(self._world_outcomes)
        self._world_node_draws = fit(self._world_node_draws)
        self._world_edge_draws = fit(self._world_edge_draws)
        if self._world_state is not None:
            self._world_state.resize(rows)

    def _repair_rows(self, rows: np.ndarray) -> None:
        """Re-explore only the invalidated world rows, in place.

        Running totals (candidate counts, work counters) move by the
        repaired rows' delta — all integer arithmetic, so the state is
        exactly what a full re-summation would produce, at O(repaired)
        instead of O(samples) cost.  BSRBK keeps no counts: its rescan
        recomputes the estimate from the repaired prefix.
        """
        assert self._sampler is not None and self._world_outcomes is not None
        counts = self._counts
        if counts is not None:
            counts -= self._world_outcomes[rows].sum(axis=0)
        self._nodes_touched -= int(self._world_node_draws[rows].sum())
        self._edges_touched -= int(self._world_edge_draws[rows].sum())
        self._explore_rows(self._sampler, self._world_ids[rows], rows)
        if counts is not None:
            counts += self._world_outcomes[rows].sum(axis=0)
            self._probs = counts / float(self._samples)
        self._nodes_touched += int(self._world_node_draws[rows].sum())
        self._edges_touched += int(self._world_edge_draws[rows].sum())

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
        old_candidates = self._sampling_candidates
        new_candidates = reduction.candidates
        keep = min(self._samples, samples)
        # 1. Truncate or grow the world prefix.
        kept_outcomes = self._world_outcomes[:keep]
        self._resize_rows(samples)
        # 2. Column added candidates into the kept worlds.
        outcomes = np.zeros((samples, new_candidates.size), dtype=bool)
        old_positions = np.searchsorted(new_candidates, old_candidates)
        outcomes[:keep, old_positions] = kept_outcomes
        self._world_outcomes = outcomes
        added = np.setdiff1d(new_candidates, old_candidates)
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
        self._sampler = self._make_indexed_sampler(new_candidates)
        appended = np.arange(keep, samples, dtype=np.int64)
        self._explore_rows(self._sampler, appended, appended)
        self._counts = outcomes.sum(axis=0)
        self._probs = self._counts / float(samples)
        self._nodes_touched = int(self._world_node_draws.sum())
        self._edges_touched = int(self._world_edge_draws.sum())
        self._samples = int(samples)
        self._world_ids = np.arange(samples, dtype=np.int64)
        self._sampling_candidates = new_candidates.copy()
        return int(appended.size)

    # ------------------------------------------------------------------
    # (Re)sampling
    # ------------------------------------------------------------------
    def _tracked_state(
        self, samples: int, rows: int
    ) -> PackedWorldState | None:
        """Fresh touched-entity state of *rows* worlds, or ``None`` when
        *samples* worlds (the most the run can ever hold) would exceed
        the budget."""
        graph = self._graph
        n, m = graph.num_nodes, graph.num_edges
        if PackedWorldState.bytes_needed(samples, n, m) > self._world_state_budget:
            return None
        in_csr = graph.in_csr()
        return PackedWorldState(
            rows,
            n,
            m,
            heads=graph.edge_array[1],
            in_degrees=np.diff(in_csr.indptr),
        )

    def _resample(self, reduction: CandidateReduction, samples: int) -> None:
        """Estimate the whole candidate set afresh (as fresh detection).

        BSR explores all *samples* worlds.  BSRBK orders them by their
        fixed PRF hashes and starts from an empty prefix that its
        stopping scan grows (:meth:`_bk_extend_and_scan`); everything
        evaluated stays cached for later repair.
        """
        self._sampler = self._make_indexed_sampler(reduction.candidates)
        self._samples = int(samples)
        self._sampling_candidates = reduction.candidates.copy()
        self._stop_after = int(reduction.k_remaining)
        world_ids = np.arange(samples, dtype=np.int64)
        rows = 0 if self._algorithm == "bsrbk" else samples
        self._world_outcomes = np.zeros(
            (rows, reduction.candidates.size), dtype=bool
        )
        self._world_node_draws = np.zeros(rows, dtype=np.int64)
        self._world_edge_draws = np.zeros(rows, dtype=np.int64)
        self._world_state = self._tracked_state(samples, rows)
        if self._algorithm == "bsrbk":
            hashes = self._sampler.world_hashes(world_ids)
            order = np.argsort(hashes, kind="stable")
            self._bk_order = order
            self._bk_hashes = hashes[order]
            self._world_ids = order[:0]
            self._bk_extend_and_scan()
            return
        self._world_ids = world_ids
        self._explore_rows(self._sampler, world_ids, world_ids)
        self._counts = self._world_outcomes.sum(axis=0)
        self._probs = self._counts / float(samples)
        self._nodes_touched = int(self._world_node_draws.sum())
        self._edges_touched = int(self._world_edge_draws.sum())
        self._bk_order = self._bk_hashes = None
        self._processed = 0

    # ------------------------------------------------------------------
    # BSRBK (bottom-k early stop over hash-ordered indexed worlds)
    # ------------------------------------------------------------------
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
            self._resize_rows(evaluated + take)
            rows = np.arange(evaluated, evaluated + take, dtype=np.int64)
            self._explore_rows(self._sampler, self._bk_order[rows], rows)
            evaluated += take
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
