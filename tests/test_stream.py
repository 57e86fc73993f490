"""Unit tests for the streaming subsystem (log, overlay, delta, engine)."""

import numpy as np
import pytest

from repro.core.config import ExecutionConfig
from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.core.params import AlgorithmParameters
from repro.graphs.cliques import count_cliques, enumerate_cliques
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import complete_graph, erdos_renyi
from repro.graphs.graph import Graph
from repro.graphs.overlay import CSROverlay
from repro.stream import (
    QueryEngine,
    StreamEngine,
    UpdateBatch,
    available_stream_workloads,
    touched_clique_table,
)
from repro.stream.delta import _touched_sorted
from repro.workloads import create_workload

STREAM_FAMILIES = ("stream_window", "stream_growth", "stream_churn")


# ----------------------------------------------------------------------
# UpdateBatch
# ----------------------------------------------------------------------
class TestUpdateBatch:
    def test_canonicalizes_endpoints(self):
        b = UpdateBatch([5, 1], [2, 7], [1, -1])
        assert b.u.tolist() == [2, 1] and b.v.tolist() == [5, 7]

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            UpdateBatch([3], [3], [1])

    def test_rejects_bad_ops(self):
        with pytest.raises(ValueError, match="op column"):
            UpdateBatch([0], [1], [2])

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="lengths differ"):
            UpdateBatch([0, 1], [1], [1])

    def test_from_edges_and_concat(self):
        b = UpdateBatch.concat(
            [UpdateBatch.inserts([(0, 1), (2, 1)]), UpdateBatch.deletes([(3, 0)])]
        )
        assert len(b) == b.num_updates == 3
        assert b.edges().tolist() == [[0, 1], [1, 2], [0, 3]]
        assert b.op.tolist() == [1, 1, -1]
        assert len(UpdateBatch.empty()) == 0
        assert len(UpdateBatch.concat([])) == 0

    def test_net_insert_of_present_edge_is_noop(self):
        g = Graph(4, [(0, 1)])
        ins, dels = UpdateBatch.inserts([(0, 1), (1, 2)]).net_against(g.has_edge)
        assert ins.tolist() == [[1, 2]] and dels.shape == (0, 2)

    def test_net_delete_of_absent_edge_is_noop(self):
        g = Graph(4, [(0, 1)])
        ins, dels = UpdateBatch.deletes([(0, 1), (2, 3)]).net_against(g.has_edge)
        assert dels.tolist() == [[0, 1]] and ins.shape == (0, 2)

    def test_net_last_op_wins(self):
        g = Graph(4, [(0, 1)])
        batch = UpdateBatch.concat(
            [
                UpdateBatch.deletes([(0, 1)]),
                UpdateBatch.inserts([(0, 1)]),  # net no-op: ends present
                UpdateBatch.inserts([(2, 3)]),
                UpdateBatch.deletes([(2, 3)]),  # net no-op: ends absent
            ]
        )
        ins, dels = batch.net_against(g.has_edge)
        assert ins.shape == (0, 2) and dels.shape == (0, 2)


# ----------------------------------------------------------------------
# CSROverlay
# ----------------------------------------------------------------------
class TestCSROverlay:
    def _pair(self, n=16, density=0.3, seed=2):
        g = erdos_renyi(n, density, seed=seed)
        return g, CSROverlay(g.to_csr())

    def test_clean_overlay_mirrors_base(self):
        g, ov = self._pair()
        assert ov.num_edges == g.num_edges and ov.delta_size == 0
        for v in g.nodes():
            assert ov.neighbors(v).tolist() == sorted(g.neighbors(v))
        assert ov.compact() is ov.base

    def test_apply_and_accessors_track_mutations(self):
        g, ov = self._pair()
        present = sorted(g.edge_set())[:3]
        absent = sorted(set((u, v) for u in range(16) for v in range(u + 1, 16))
                        - g.edge_set())[:3]
        ov.apply(np.asarray(absent), np.asarray(present))
        g.remove_edges(present)
        g.add_edges(absent)
        assert ov.num_edges == g.num_edges and ov.delta_size == 6
        for v in g.nodes():
            assert ov.neighbors(v).tolist() == sorted(g.neighbors(v)), v
            assert ov.degree(v) == g.degree(v)
        for u, v in present + absent:
            assert ov.has_edge(u, v) == g.has_edge(u, v)
        assert ov.to_graph() == g

    def test_revert_cancels_delta(self):
        g, ov = self._pair()
        edge = np.asarray([sorted(g.edge_set())[0]])
        none = np.empty((0, 2), dtype=np.int64)
        ov.apply(none, edge)
        assert ov.delta_size == 1
        ov.apply(edge, none)
        assert ov.delta_size == 0
        assert ov.compact() is ov.base

    def test_bits_match_fresh_pack(self):
        g, ov = self._pair()
        present = sorted(g.edge_set())[:4]
        ov.apply(np.empty((0, 2), dtype=np.int64), np.asarray(present))
        g.remove_edges(present)
        fresh = g.to_csr().adjacency_bits()
        assert (ov.adjacency_bits() == fresh).all()

    def test_compact_equals_fresh_snapshot(self):
        g, ov = self._pair()
        present = sorted(g.edge_set())[:5]
        ov.apply(np.empty((0, 2), dtype=np.int64), np.asarray(present))
        g.remove_edges(present)
        compacted = ov.compact()
        fresh = CSRGraph.from_graph(g)
        assert (compacted.indptr == fresh.indptr).all()
        assert (compacted.indices == fresh.indices).all()


# ----------------------------------------------------------------------
# Delta kernels
# ----------------------------------------------------------------------
def _brute_touched(graph, edges, p):
    edge_set = {tuple(e) for e in edges}
    return {
        c
        for c in enumerate_cliques(graph, p, backend="python")
        if any(tuple(sorted(pair)) in edge_set
               for pair in __import__("itertools").combinations(sorted(c), 2))
    }


class TestTouchedCliqueTable:
    @pytest.mark.parametrize("p", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, p, seed):
        g = erdos_renyi(18, 0.45, seed=seed)
        edges = sorted(g.edge_set())[::3]
        ov = CSROverlay(g.to_csr())
        table = touched_clique_table(ov, np.asarray(edges), p)
        got = {frozenset(row) for row in table.tolist()}
        assert got == _brute_touched(g, edges, p)
        assert table.shape[0] == len(got)  # rows are unique

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_sorted_fallback_agrees_with_bitset(self, p):
        g = erdos_renyi(20, 0.5, seed=7)
        edges = np.asarray(sorted(g.edge_set())[::2])
        ov = CSROverlay(g.to_csr())
        bitset = touched_clique_table(ov, edges, p)
        raw = _touched_sorted(ov, edges, p)
        fallback = (
            np.unique(np.sort(raw, axis=1), axis=0) if raw.shape[0] else raw
        )
        assert bitset.shape == fallback.shape and (bitset == fallback).all()

    def test_empty_edges_and_p_validation(self):
        ov = CSROverlay(complete_graph(5).to_csr())
        assert touched_clique_table(ov, np.empty((0, 2)), 4).shape == (0, 4)
        with pytest.raises(ValueError, match="p >= 3"):
            touched_clique_table(ov, np.asarray([[0, 1]]), 2)


# ----------------------------------------------------------------------
# StreamEngine
# ----------------------------------------------------------------------
class TestStreamEngine:
    def test_counts_and_listings_track_random_churn(self):
        g = erdos_renyi(24, 0.4, seed=4)
        engine = StreamEngine(g, compact_every=30)
        engine.track(3, listing=True)
        engine.track(4)
        rng = np.random.default_rng(0)
        for step in range(8):
            edges = sorted(engine.graph().edge_set())
            drop = [edges[i] for i in rng.choice(len(edges), 5, replace=False)]
            add = [(int(a), int(b)) for a, b in rng.integers(0, 24, (5, 2)) if a != b]
            result = engine.apply(
                UpdateBatch.concat(
                    [UpdateBatch.deletes(drop), UpdateBatch.inserts(add)]
                )
            )
            final = engine.graph()
            assert engine.count(3) == count_cliques(final, 3, backend="python"), step
            assert engine.count(4) == count_cliques(final, 4, backend="python"), step
            assert engine.cliques(3) == enumerate_cliques(final, 3, backend="python")
            for p, delta in result.deltas.items():
                # removed/added tables are disjoint by the set identity
                removed = {frozenset(r) for r in delta.removed.tolist()}
                added = {frozenset(r) for r in delta.added.tolist()}
                assert not (removed & added), (step, p)
        assert engine.stats["compactions"] >= 1

    def test_track_on_demand_and_trivial_ps(self):
        g = complete_graph(6)
        engine = StreamEngine(g)
        assert engine.count(1) == 6
        assert engine.count(2) == 15
        assert engine.count(3) == 20  # starts tracking
        assert engine.tracked_ps() == {3}
        assert engine.cliques(2) == {frozenset(e) for e in g.edges()}
        with pytest.raises(ValueError):
            engine.track(2)
        with pytest.raises(ValueError):
            StreamEngine(g, compact_every=0)

    def test_compaction_preserves_state(self):
        g = erdos_renyi(16, 0.4, seed=9)
        engine = StreamEngine(g, compact_every=1)  # compact on every batch
        engine.track(3, listing=True)
        edges = sorted(g.edge_set())
        result = engine.apply(UpdateBatch.deletes(edges[:4]))
        assert result.compacted
        assert engine.overlay.delta_size == 0
        final = engine.graph()
        assert engine.cliques(3) == enumerate_cliques(final, 3, backend="python")

    def test_accepts_csr_snapshot_input(self):
        csr = erdos_renyi(12, 0.5, seed=1).to_csr()
        engine = StreamEngine(csr)
        assert engine.snapshot is csr
        assert engine.count(3) == count_cliques(csr.to_graph(), 3, backend="python")


# ----------------------------------------------------------------------
# QueryEngine
# ----------------------------------------------------------------------
class TestQueryEngine:
    def _engine(self):
        g = erdos_renyi(20, 0.4, seed=11)
        return QueryEngine(StreamEngine(g, compact_every=10**9))

    def test_caches_until_a_delta_touches_p(self):
        qe = self._engine()
        first = qe.cliques(3)
        assert qe.cliques(3) is first and qe.hits == 1
        qe.apply(UpdateBatch.empty())  # no-op batch: cache survives
        assert qe.cliques(3) is first
        # Find an edge whose removal destroys at least one triangle.
        tri = sorted(next(iter(first)))
        qe.apply(UpdateBatch.deletes([(tri[0], tri[1])]))
        assert qe.invalidations >= 1
        updated = qe.cliques(3)
        assert updated is not first
        assert updated == frozenset(
            enumerate_cliques(qe.engine.graph(), 3, backend="python")
        )

    def test_count_cache(self):
        qe = self._engine()
        value = qe.count(4)
        assert qe.count(4) == value and qe.hits == 1

    def test_listing_result_served_from_table(self):
        qe = self._engine()
        result = qe.listing_result(3, seed=0)
        reference = list_cliques_congested_clique(qe.engine.graph(), 3, seed=0)
        assert result.cliques == reference.cliques
        assert result.per_node == reference.per_node
        assert [(ph.name, ph.rounds) for ph in result.ledger.phases()] == [
            (ph.name, ph.rounds) for ph in reference.ledger.phases()
        ]
        assert result.stats["precomputed_table"] == 1.0
        assert qe.listing_result(3, seed=0) is result  # cached
        tri = sorted(next(iter(qe.cliques(3))))
        qe.apply(UpdateBatch.deletes([(tri[0], tri[1])]))
        assert qe.listing_result(3, seed=0) is not result  # dropped

    def test_listing_result_stales_on_delta_empty_structural_change(self):
        """A structural change whose K_p delta is empty keeps the clique
        caches but must still drop cached listing runs: their ledger
        charges depend on m and the measured loads, not just the
        cliques."""
        g = Graph(6, [(0, 1), (1, 2), (0, 2)])  # one triangle + isolates
        qe = QueryEngine(StreamEngine(g, compact_every=10**9))
        cached_cliques = qe.cliques(3)
        result = qe.listing_result(3, seed=0)
        outcome = qe.apply(UpdateBatch.inserts([(3, 4)]))  # no new triangle
        assert not outcome.deltas[3].touched
        assert qe.cliques(3) is cached_cliques  # precise per-p cache holds
        fresh = qe.listing_result(3, seed=0)
        assert fresh is not result  # but the run itself was recomputed
        assert fresh.cliques == result.cliques
        reference = list_cliques_congested_clique(qe.engine.graph(), 3, seed=0)
        assert [(ph.name, ph.rounds) for ph in fresh.ledger.phases()] == [
            (ph.name, ph.rounds) for ph in reference.ledger.phases()
        ]


# ----------------------------------------------------------------------
# Regression: reads must not mutate engine state (ISSUE-7 bug A)
# ----------------------------------------------------------------------
class TestPureReadsLeaveStateAlone:
    def test_cliques_p2_is_a_pure_read(self):
        """``cliques(2)`` used to route through ``_compacted()``, so a
        pure edge-set read compacted the overlay: it reset the pending
        counter, bumped ``stats["compactions"]`` and — with
        ``recount_on_compact`` — ran recounts as a query side effect."""
        g = erdos_renyi(18, 0.4, seed=3)
        engine = StreamEngine(g, compact_every=10**9, recount_on_compact=True)
        engine.track(3)
        edges = sorted(g.edge_set())
        engine.apply(UpdateBatch.deletes(edges[:3]))
        snapshot = engine.snapshot
        overlay = engine.overlay
        delta = overlay.delta_size
        pending = engine._pending
        stats_before = dict(engine.stats)
        assert delta > 0  # the read below really has a delta to tempt

        live_edges = engine.cliques(2)

        assert live_edges == {frozenset(e) for e in engine.graph().edges()}
        assert engine.snapshot is snapshot  # no compaction happened
        assert engine.overlay is overlay and overlay.delta_size == delta
        assert engine._pending == pending
        assert engine.stats == stats_before
        assert engine.stats["compactions"] == 0
        assert engine.stats["recounts"] == 0

    def test_cliques_p2_reflects_pending_delta(self):
        g = Graph(5, [(0, 1), (1, 2)])
        engine = StreamEngine(g, compact_every=10**9)
        engine.apply(
            UpdateBatch.concat(
                [UpdateBatch.inserts([(3, 4)]), UpdateBatch.deletes([(0, 1)])]
            )
        )
        assert engine.cliques(2) == {frozenset((1, 2)), frozenset((3, 4))}


# ----------------------------------------------------------------------
# Regression: plane-normalized listing cache keys (ISSUE-7 bug B)
# ----------------------------------------------------------------------
class TestListingCachePlaneKeys:
    def _engine(self):
        g = erdos_renyi(20, 0.4, seed=11)
        return QueryEngine(StreamEngine(g, compact_every=10**9))

    def test_default_and_explicit_plane_share_one_entry(self):
        """``plane=None`` and ``plane="batch"`` are the same run (the
        listing driver resolves None to the batch plane), but the cache
        used to key them separately — duplicate entries, missed hits,
        double invalidations."""
        qe = self._engine()
        r1 = qe.listing_result(3, seed=0, plane=None)
        assert qe.misses == 1 and qe.hits == 0
        r2 = qe.listing_result(3, seed=0, plane="batch")
        assert r2 is r1
        assert qe.hits == 1 and qe.misses == 1
        assert len(qe._results) == 1

    def test_distinct_planes_are_distinct_entries(self):
        qe = self._engine()
        r_batch = qe.listing_result(3, seed=0)
        r_object = qe.listing_result(3, seed=0, plane="object")
        assert r_object is not r_batch
        assert r_object.cliques == r_batch.cliques
        assert qe.misses == 2 and len(qe._results) == 2

    def test_invalidation_counts_one_entry_per_normalized_key(self):
        qe = self._engine()
        qe.listing_result(3, seed=0, plane=None)
        qe.listing_result(3, seed=0, plane="batch")  # hit, not a new entry
        qe.apply(UpdateBatch.inserts([(0, 19)]))
        # Exactly one listing entry dropped (plus any p-precise drops,
        # counted separately by _invalidate).
        assert not qe._results
        fresh = qe.listing_result(3, seed=0, plane="batch")
        assert qe.listing_result(3, seed=0, plane=None) is fresh

    def test_unknown_plane_is_rejected_before_keying(self):
        qe = self._engine()
        with pytest.raises(ValueError, match="unknown routing plane"):
            qe.listing_result(3, seed=0, plane="fpga")
        assert not qe._results

    def test_requested_plane_resolves_its_executor(self, executor_resolutions):
        """The plane a run routes on and the executor it resolves come
        from one ExecutionConfig: a plane names the representation only,
        so the retired ``"parallel"`` spelling is rejected, and
        ``plane="object"`` resolves no executor."""
        qe = self._engine()
        with pytest.raises(ValueError, match="workers=N"):
            qe.listing_result(3, seed=0, plane="parallel")
        result = qe.listing_result(3, seed=0, plane="object")
        assert ("object", None) in executor_resolutions
        assert all(executor is None for _, executor in executor_resolutions)
        assert result.cliques == qe.listing_result(3, seed=0).cliques


# ----------------------------------------------------------------------
# Precomputed-table listing entry point (core/)
# ----------------------------------------------------------------------
class TestPrecomputedTableEntryPoint:
    @pytest.mark.parametrize("plane", ["batch", "object"])
    @pytest.mark.parametrize("p", [3, 4])
    def test_identical_to_local_listing(self, plane, p):
        g = create_workload("planted").instance(36, seed=2)
        table = StreamEngine(g).clique_table(p)
        params = AlgorithmParameters(p=p, execution=ExecutionConfig(plane=plane))
        reference = list_cliques_congested_clique(g, p, params=params, seed=1)
        served = list_cliques_congested_clique(
            g, p, params=params, seed=1, precomputed_table=table
        )
        assert served.cliques == reference.cliques
        assert served.per_node == reference.per_node
        assert [(ph.name, ph.rounds) for ph in served.ledger.phases()] == [
            (ph.name, ph.rounds) for ph in reference.ledger.phases()
        ]

    def test_rejects_bad_table_shape(self):
        g = complete_graph(8)
        with pytest.raises(ValueError, match="precomputed_table"):
            list_cliques_congested_clique(
                g, 3, precomputed_table=np.zeros((2, 4), dtype=np.int64)
            )


# ----------------------------------------------------------------------
# Stream workload families
# ----------------------------------------------------------------------
class TestStreamFamilies:
    def test_registered(self):
        assert set(available_stream_workloads()) == set(STREAM_FAMILIES)

    @pytest.mark.parametrize("name", STREAM_FAMILIES)
    def test_stream_is_reproducible(self, name):
        w = create_workload(name)
        a, b = w.stream(32, seed=5), w.stream(32, seed=5)
        assert len(a.batches) == len(b.batches)
        assert a.base == b.base
        for x, y in zip(a.batches, b.batches):
            assert (x.u == y.u).all() and (x.v == y.v).all() and (x.op == y.op).all()

    @pytest.mark.parametrize("name", STREAM_FAMILIES)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_instance_is_defined_by_replay(self, name, seed):
        w = create_workload(name)
        assert w.instance(40, seed=seed) == w.stream(40, seed=seed).final_graph()

    @pytest.mark.parametrize("name", STREAM_FAMILIES)
    def test_exact_node_count_down_to_tiny(self, name):
        w = create_workload(name)
        for n in (4, 7, 33):
            assert w.instance(n, seed=0).num_nodes == n

    def test_growth_stream_is_insert_only(self):
        inst = create_workload("stream_growth").stream(48, seed=1)
        for batch in inst.batches:
            assert (batch.op == UpdateBatch.INSERT).all()
        # every node ends up attached
        final = inst.final_graph()
        assert all(final.degree(v) > 0 for v in final.nodes())

    def test_churn_stream_touches_the_core(self):
        inst = create_workload("stream_churn").stream(49, seed=2)
        core = 7  # isqrt(49)
        for batch in inst.batches[1:]:
            if len(batch):
                assert (np.minimum(batch.u, batch.v) < core).any()
