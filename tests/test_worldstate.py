"""Bit-packed world state: packing primitives, state queries checked
against raw boolean masks, and the packed monitor's bit-identity with a
stateless monitor and fresh detection.

The contract under test is strict: the packed representation (two
``n``-bit masks per world plus an entity→worlds inverted index) must
answer every query exactly as ``np.nonzero`` / ``sum`` over the
sampler's raw ``(W, n)`` masks would, and a monitor keeping it must be
*indistinguishable* from one that keeps no touched state at all —
top-k answers and draw counters — on the Figure-6 workload datasets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.core.graph import UncertainGraph
from repro.datasets.powerlaw import directed_powerlaw_edges
from repro.datasets.registry import load_dataset
from repro.sampling.indexed import IndexedReverseSampler
from repro.sampling.worldstate import (
    PackedWorldState,
    pack_bool_rows,
    popcount,
    unpack_bool_rows,
)
from repro.streaming.monitor import TopKMonitor
from repro.streaming.replay import random_patch_stream


def powerlaw_graph(n: int, seed: int) -> UncertainGraph:
    rng = np.random.default_rng(seed)
    src, dst = directed_powerlaw_edges(n, 3 * n, seed=rng)
    return UncertainGraph.from_arrays(
        self_risks=rng.random(n) * 0.3,
        edge_src=src,
        edge_dst=dst,
        edge_probs=np.clip(rng.beta(2.0, 4.0, src.size), 0.01, 0.95),
    )


class TestPackingPrimitives:
    @pytest.mark.parametrize("cols", [1, 7, 63, 64, 65, 200])
    def test_pack_unpack_roundtrip(self, cols):
        rng = np.random.default_rng(cols)
        dense = rng.random((9, cols)) < 0.3
        words = pack_bool_rows(dense)
        assert words.shape == (9, (cols + 63) // 64)
        assert np.array_equal(unpack_bool_rows(words, cols), dense)

    def test_popcount_matches_dense_sums(self):
        rng = np.random.default_rng(5)
        dense = rng.random((11, 130)) < 0.4
        words = pack_bool_rows(dense)
        assert np.array_equal(
            popcount(words).sum(axis=1), dense.sum(axis=1)
        )

    def test_packed_is_eight_times_smaller(self):
        dense = np.zeros((64, 6400), dtype=bool)
        assert pack_bool_rows(dense).nbytes * 8 == dense.nbytes


def _random_block(rng, worlds, n, density=0.3):
    """An ExploredWorlds-shaped namespace with consistent masks."""

    class Block:
        pass

    block = Block()
    block.touched_nodes = rng.random((worlds, n)) < density
    # Expanded ⊆ touched, as the sampler guarantees.
    block.expanded_nodes = block.touched_nodes & (
        rng.random((worlds, n)) < 0.7
    )
    return block


def _pair_set(rows, positions):
    return set(zip(rows.tolist(), positions.tolist()))


class TestStateEquivalence:
    """The packed state answers every query exactly as the raw
    ``(W, n)`` masks do: a node is drawn where it is touched, an edge
    where its head is expanded."""

    def _state(self, worlds, n, heads, in_degrees):
        return PackedWorldState(
            worlds, n, heads.size, heads=heads, in_degrees=in_degrees
        )

    def _assert_matches(self, packed, touched, expanded, heads, nodes, edges):
        assert _pair_set(*packed.node_pairs(nodes)) == _pair_set(
            *np.nonzero(touched[:, nodes])
        )
        assert _pair_set(*packed.edge_pairs(edges, heads[edges])) == _pair_set(
            *np.nonzero(expanded[:, heads[edges]])
        )
        assert np.array_equal(packed.node_draws(), touched.sum(axis=1))
        assert np.array_equal(
            packed.edge_draws(), expanded[:, heads].sum(axis=1)
        )

    def test_pairs_and_draws_agree(self):
        rng = np.random.default_rng(7)
        n, worlds = 90, 40
        heads = rng.integers(0, n, size=220).astype(np.int64)
        in_degrees = np.bincount(heads, minlength=n).astype(np.int64)
        packed = self._state(worlds, n, heads, in_degrees)
        block = _random_block(rng, worlds, n)
        packed.store_block(np.arange(worlds), block)
        self._assert_matches(
            packed,
            block.touched_nodes,
            block.expanded_nodes,
            heads,
            np.array([0, 3, 55, 89]),
            np.array([0, 17, 219]),
        )

    def test_pairs_agree_after_repairs_with_stale_index(self, monkeypatch):
        # The index only builds above INDEX_MIN_WORLDS rows in
        # production (column scans win below); drop the floor so this
        # test exercises the indexed path at unit-test scale.
        monkeypatch.setattr(PackedWorldState, "INDEX_MIN_WORLDS", 1)
        rng = np.random.default_rng(11)
        n, worlds = 600, 30
        heads = rng.integers(0, n, size=1800).astype(np.int64)
        in_degrees = np.bincount(heads, minlength=n).astype(np.int64)
        packed = self._state(worlds, n, heads, in_degrees)
        block = _random_block(rng, worlds, n, density=0.01)
        touched = block.touched_nodes.copy()
        expanded = block.expanded_nodes.copy()
        packed.store_block(np.arange(worlds), block)
        nodes = np.arange(n)
        packed.node_pairs(nodes[:5])  # force the index build
        assert packed.has_index
        # Repair a few rows with different masks; index rows go stale.
        repair = np.array([2, 9, 21])
        patch = _random_block(rng, repair.size, n, density=0.01)
        packed.store_block(repair, patch)
        touched[repair] = patch.touched_nodes
        expanded[repair] = patch.expanded_nodes
        assert _pair_set(*packed.node_pairs(nodes)) == _pair_set(
            *np.nonzero(touched)
        )
        self._assert_matches(
            packed, touched, expanded, heads, nodes[:40], np.arange(50)
        )

    def test_dense_index_disabled_pairs_still_exact(self, monkeypatch):
        """High touch density disables the index; the column bit-scan
        fallback must stay exact."""
        monkeypatch.setattr(PackedWorldState, "INDEX_MIN_WORLDS", 1)
        rng = np.random.default_rng(19)
        n, worlds = 70, 30
        heads = rng.integers(0, n, size=180).astype(np.int64)
        in_degrees = np.bincount(heads, minlength=n).astype(np.int64)
        packed = self._state(worlds, n, heads, in_degrees)
        block = _random_block(rng, worlds, n, density=0.5)
        packed.store_block(np.arange(worlds), block)
        nodes = np.arange(n)
        pairs = packed.node_pairs(nodes)
        assert not packed.has_index
        assert _pair_set(*pairs) == _pair_set(
            *np.nonzero(block.touched_nodes)
        )

    def test_merge_block_deltas_are_exact(self):
        rng = np.random.default_rng(13)
        n, worlds = 60, 25
        heads = rng.integers(0, n, size=150).astype(np.int64)
        in_degrees = np.bincount(heads, minlength=n).astype(np.int64)
        packed = self._state(worlds, n, heads, in_degrees)
        base = _random_block(rng, worlds, n)
        packed.store_block(np.arange(worlds), base)
        extra = _random_block(rng, worlds, n)
        node_delta, edge_delta = packed.merge_block(np.arange(worlds), extra)
        # Deltas are the newly set node bits and newly drawn edges.
        assert np.array_equal(
            node_delta,
            (extra.touched_nodes & ~base.touched_nodes).sum(axis=1),
        )
        assert np.array_equal(
            edge_delta,
            (
                extra.expanded_nodes[:, heads]
                & ~base.expanded_nodes[:, heads]
            ).sum(axis=1),
        )
        self._assert_matches(
            packed,
            base.touched_nodes | extra.touched_nodes,
            base.expanded_nodes | extra.expanded_nodes,
            heads,
            np.arange(n),
            np.arange(heads.size),
        )

    def test_resize_grow_and_truncate(self):
        rng = np.random.default_rng(17)
        n = 40
        heads = rng.integers(0, n, size=90).astype(np.int64)
        in_degrees = np.bincount(heads, minlength=n).astype(np.int64)
        packed = PackedWorldState(
            10, n, heads.size, heads=heads, in_degrees=in_degrees
        )
        block = _random_block(rng, 10, n)
        packed.store_block(np.arange(10), block)
        draws = packed.node_draws()
        packed.resize(16)
        assert packed.worlds == 16
        assert np.array_equal(packed.node_draws()[:10], draws)
        assert (packed.node_draws()[10:] == 0).all()
        packed.resize(4)
        assert np.array_equal(packed.node_draws(), draws[:4])


class TestSamplerDrawCountIdentities:
    """The identities the packed representation is built on."""

    def test_draw_counts_equal_popcounts_of_masks(self):
        graph = powerlaw_graph(150, seed=4)
        candidates = np.arange(0, 150, 3)
        sampler = IndexedReverseSampler(graph, candidates, seed=9)
        block = sampler.outcomes_for_worlds(
            np.arange(25), collect_touched=True
        )
        # node draws == touched popcount
        assert np.array_equal(
            block.node_draws, block.touched_nodes.sum(axis=1)
        )
        # edge draws == in-degree mass of the expanded nodes
        in_degrees = np.diff(graph.in_csr().indptr)
        assert np.array_equal(
            block.edge_draws, block.expanded_nodes @ in_degrees
        )
        # expanded ⊆ touched: only drawn nodes can be expanded
        assert not (block.expanded_nodes & ~block.touched_nodes).any()


#: One Figure-6 configuration per dataset family, small enough for CI.
FIG6_WORKLOAD = [("guarantee", 2.0), ("citation", 4.0), ("p2p", 2.0)]


class TestPackedVsDenseBitIdentity:
    """A monitor keeping packed touched state, driven in lockstep with
    one that keeps none (``world_state_budget=0``: invalidation on
    uniform crossings alone — the path the dense-mask monitor fell back
    to above its budget), over the Figure-6 workload: both agree on
    answers and draw counters with each other and with fresh
    detection, and the packed repair set is the touched-filtered subset
    of the crossing-only one."""

    @pytest.mark.parametrize("dataset,percent", FIG6_WORKLOAD)
    def test_fig6_stream_lockstep(self, dataset, percent):
        loaded_a = load_dataset(dataset, scale=0.02, seed=11)
        loaded_b = load_dataset(dataset, scale=0.02, seed=11)
        k = loaded_a.k_for_percent(percent)
        packed = TopKMonitor(loaded_a.graph, k, seed=5)
        stateless = TopKMonitor(
            loaded_b.graph, k, seed=5, world_state_budget=0
        )
        assert packed.top_k().same_answer(stateless.top_k())
        assert packed.world_state_nbytes > 0
        assert stateless.world_state_nbytes == 0
        events = list(
            random_patch_stream(loaded_a.graph, 12, seed=2, drift=0.15)
        )
        for event in events:
            packed.apply([event])
            stateless.apply([event])
            result_packed = packed.top_k()
            result_stateless = stateless.top_k()
            fresh = BoundedSampleReverseDetector(seed=5).detect(
                loaded_a.graph, k
            )
            # Answers and work telemetry, three ways.
            assert result_packed.same_answer(result_stateless)
            assert result_packed.same_answer(fresh)
            for key in ("nodes_touched", "edges_touched"):
                assert (
                    result_packed.details[key]
                    == result_stateless.details[key]
                    == fresh.details[key]
                )
            # Per-world repair sets: touched filtering only drops rows.
            modes = {
                packed.last_report.sampling,
                stateless.last_report.sampling,
            }
            if modes <= {"repaired", "reused"}:
                assert set(packed.last_repaired_rows.tolist()) <= set(
                    stateless.last_repaired_rows.tolist()
                )

    def test_packed_state_is_at_least_four_times_smaller(self):
        """On the sparse workload graphs the packed masks are ~8× (and
        with the m-bit collapse typically >8×) below the
        ``samples * (n + m)`` bytes of boolean touched masks."""
        graph = powerlaw_graph(800, seed=6)
        packed = TopKMonitor(graph, 8, seed=3)
        result = packed.top_k()
        boolean_bytes = result.samples_used * (
            graph.num_nodes + graph.num_edges
        )
        assert packed.world_state_nbytes > 0
        assert boolean_bytes >= 4 * packed.world_state_nbytes
