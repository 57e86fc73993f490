"""Edge-key arrays: the set algebra, the kernels that read them, and the
ARB-LIST state that carries them.

- the key helpers of :mod:`repro.graphs.edge_keys` against Python set
  algebra on random edge sets;
- snapshots built from keys against snapshots built from a
  :class:`Graph`;
- the learned-subgraph kernel: every path (bitset rows, sorted arrays,
  a 2-worker shard executor) returns ascending rows and the same
  cliques as :func:`~repro.graphs.cliques.clique_table`;
- the ARB-LIST invariant: after each call Ês, Êr and the goal edges are
  sorted, unique, pairwise disjoint, and together the call's input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.ledger import RoundLedger
from repro.core.arb_list import ArbListState, arb_list
from repro.core.params import AlgorithmParameters
from repro.graphs import csr as csr_mod
from repro.graphs.cliques import clique_table
from repro.graphs.csr import CSRGraph, _expand_members, clique_table_from_edge_array
from repro.graphs.edge_keys import (
    arc_edge_keys,
    edge_keys,
    key_edges,
    key_member,
    key_pairs,
    key_union,
    max_out_degree,
    merge_arcs,
    restrict_arcs,
)
from repro.graphs.generators import clustered_graph, erdos_renyi
from repro.graphs.graph import Graph
from repro.graphs.orientation import Orientation, degeneracy_orientation
from repro.parallel import executor as executor_mod
from repro.parallel import get_executor


@st.composite
def edge_sets(draw, max_nodes=20):
    """``(n, set of canonical edges)`` on a random node count."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda e: e[0] != e[1]),
            max_size=60,
        )
    )
    return n, {(min(u, v), max(u, v)) for u, v in pairs}


def sorted_unique(keys):
    return keys.ndim == 1 and bool(np.all(np.diff(keys) > 0))


class TestKeyHelpers:
    @given(edge_sets())
    def test_round_trip(self, case):
        n, edges = case
        keys = edge_keys(edges, n)
        assert keys.dtype == np.int64 and sorted_unique(keys)
        assert key_edges(keys, n) == edges
        assert [tuple(row) for row in key_pairs(keys, n).tolist()] == sorted(edges)

    @given(edge_sets())
    def test_either_orientation_and_repeats_collapse(self, case):
        n, edges = case
        flipped = [(v, u) for u, v in edges] + list(edges)
        assert np.array_equal(edge_keys(flipped, n), edge_keys(edges, n))

    @given(edge_sets(), st.data())
    def test_set_algebra_matches_python_sets(self, case, data):
        n, edges = case
        other = data.draw(st.sets(st.sampled_from(sorted(edges)))) if edges else set()
        extra = data.draw(edge_sets(max_nodes=n))[1] if n >= 2 else set()
        extra = {e for e in extra if e[1] < n}
        a, b = edge_keys(edges, n), edge_keys(other | extra, n)
        assert key_edges(key_union(a, b), n) == edges | other | extra
        difference = np.setdiff1d(a, b, assume_unique=True)
        assert key_edges(difference, n) == edges - (other | extra)
        assert sorted_unique(key_union(a, b))
        query = edge_keys(other | extra, n)
        member = key_member(a, query)
        assert {e for e, hit in zip(sorted(other | extra), member) if hit} == (
            (other | extra) & edges
        )

    @given(edge_sets(), st.data())
    def test_arc_helpers_match_orientation_sets(self, case, data):
        n, edges = case
        flips = data.draw(
            st.lists(st.booleans(), min_size=len(edges), max_size=len(edges))
        )
        arcs_py = {(v, u) if f else (u, v) for (u, v), f in zip(sorted(edges), flips)}
        arcs = np.sort(np.asarray([u * n + v for u, v in arcs_py], dtype=np.int64))
        assert key_edges(np.sort(arc_edge_keys(arcs, n)), n) == edges
        out = {}
        for u, _v in arcs_py:
            out[u] = out.get(u, 0) + 1
        assert max_out_degree(arcs, n) == max(out.values(), default=0)
        keep = {e for i, e in enumerate(sorted(edges)) if i % 2 == 0}
        kept = restrict_arcs(arcs, edge_keys(keep, n), n)
        assert set(map(tuple, key_pairs(kept, n).tolist())) == {
            (u, v) for u, v in arcs_py if (min(u, v), max(u, v)) in keep
        }
        dropped = np.setdiff1d(
            edge_keys(edges, n), edge_keys(keep, n), assume_unique=True
        )
        rest = restrict_arcs(arcs, dropped, n)
        assert np.array_equal(merge_arcs(kept, rest, n), arcs)
        if kept.size:
            with pytest.raises(ValueError):
                merge_arcs(kept, kept, n)

    @given(edge_sets())
    def test_key_backed_orientation_matches_set_backed(self, case):
        n, edges = case
        graph = Graph(n, edges)
        built = degeneracy_orientation(graph, backend="python")
        keyed = Orientation(n, built.encoded_oriented())
        assert keyed.max_out_degree == built.max_out_degree
        assert keyed.num_edges() == built.num_edges()
        assert sorted(keyed.oriented_edges()) == sorted(built.oriented_edges())
        for u, v in edges:
            assert keyed.direction(u, v) == built.direction(u, v)


class TestSnapshotsFromKeys:
    @given(edge_sets())
    def test_from_edge_keys_matches_from_graph(self, case):
        n, edges = case
        graph = Graph(n, edges)
        keyed = CSRGraph.from_edge_keys(edge_keys(edges, n), n)
        built = CSRGraph.from_graph(graph)
        assert np.array_equal(keyed.indptr, built.indptr)
        assert np.array_equal(keyed.indices, built.indices)
        assert np.array_equal(keyed.edge_keys(), edge_keys(edges, n))

    @given(edge_sets())
    def test_to_graph_round_trip_keeps_snapshot(self, case):
        n, edges = case
        snapshot = CSRGraph.from_edge_keys(edge_keys(edges, n), n)
        graph = snapshot.to_graph()
        assert graph == Graph(n, edges)
        assert graph.to_csr() is snapshot
        assert snapshot.to_csr() is snapshot
        if edges:
            graph.remove_edge(*next(iter(edges)))
            assert graph.to_csr() is not snapshot


@st.composite
def edge_arrays(draw):
    """A ``(k, 2)`` edge array with repeats and either orientation."""
    n = draw(st.integers(min_value=3, max_value=18))
    density = draw(st.floats(min_value=0.2, max_value=0.9))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    rows = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    rows += rows[: len(rows) // 3]  # duplicates collapse
    edges = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    flip = rng.random(edges.shape[0]) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    offset = draw(st.integers(min_value=0, max_value=40))  # sparse vertex ids
    return edges + offset, n + offset


def reference_rows(edges, n, p):
    graph = Graph(n, map(tuple, edges.tolist()))
    return sorted(map(tuple, clique_table(graph, p).rows.tolist()))


def check_table(table, edges, n, p):
    assert table.shape[1] == p
    assert bool(np.all(np.diff(table, axis=1) > 0)), "rows must ascend"
    assert sorted(map(tuple, table.tolist())) == reference_rows(edges, n, p)


class TestLearnedSubgraphKernel:
    @settings(max_examples=40, deadline=None)
    @given(edge_arrays(), st.integers(min_value=3, max_value=5))
    def test_bitset_path(self, case, p):
        edges, n = case
        check_table(clique_table_from_edge_array(edges, p), edges, n, p)

    @settings(max_examples=40, deadline=None)
    @given(edge_arrays(), st.integers(min_value=3, max_value=5))
    def test_sorted_array_path(self, case, p):
        edges, n = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(csr_mod, "BITSET_MAX_NODES", 0)
            table = clique_table_from_edge_array(edges, p)
        check_table(table, edges, n, p)

    @settings(max_examples=15, deadline=None)
    @given(edge_arrays(), st.integers(min_value=3, max_value=4))
    def test_two_worker_executor(self, case, p):
        edges, n = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(executor_mod, "MIN_PARALLEL_ITEMS", 0)
            table = get_executor(2).clique_table(edges, p)
        check_table(table, edges, n, p)

    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_word_expansion_matches_byte_expansion(self, rows, width, seed):
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2**63, size=(rows, width), dtype=np.uint64)
        words &= rng.integers(0, 2**63, size=(rows, width), dtype=np.uint64)
        words[rng.random((rows, width)) < 0.5] = 0
        by_word = _expand_members(words)
        by_byte = _expand_members(words.view(np.uint8))
        assert np.array_equal(by_word[0], by_byte[0])
        assert np.array_equal(by_word[1], by_byte[1])


class TestArbListKeyInvariants:
    @pytest.mark.parametrize(
        "graph, threshold, params",
        [
            (erdos_renyi(60, 0.4, seed=10), 6, AlgorithmParameters(p=4)),
            (
                clustered_graph(2, 20, intra_p=0.9, inter_edges_per_pair=30, seed=16),
                5,
                AlgorithmParameters(p=4, bad_scale=1e-6, heavy_scale=100.0),
            ),
            (
                clustered_graph(4, 18, intra_p=0.8, inter_edges_per_pair=6, seed=3),
                4,
                AlgorithmParameters(p=3),
            ),
        ],
    )
    def test_partition_after_each_call(self, graph, threshold, params):
        orientation = degeneracy_orientation(graph)
        state = ArbListState.start(
            graph, orientation, max(1, orientation.max_out_degree), threshold
        )
        n = graph.num_nodes
        rng = np.random.default_rng(0)
        for _ in range(6):
            if not state.er_keys.size:
                break
            before = state.current_keys()
            outcome = arb_list(state, params, rng, RoundLedger())
            parts = (state.es_keys, state.er_keys, outcome.goal_keys, outcome.bad_keys)
            for keys in parts:
                assert keys.dtype == np.int64
                assert keys.size <= 1 or sorted_unique(keys)
            es, er, goal = (key_edges(keys, n) for keys in parts[:3])
            assert not (es & er) and not (es & goal) and not (er & goal)
            assert es | er | goal == key_edges(before, n)
            assert key_edges(outcome.bad_keys, n) <= er
            covered = key_edges(np.sort(arc_edge_keys(state.arcs, n)), n)
            assert covered == es | er
