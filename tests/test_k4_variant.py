"""Tests specific to the K4 variant (§3, Theorem 1.2)."""

import pytest

from repro import list_cliques
from repro.analysis.verification import verify_listing
from repro.congest.ledger import RoundLedger
from repro.core.k4 import light_node_k4_listing, sequential_light_phase
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.generators import complete_graph, erdos_renyi
from repro.graphs.graph import Graph


def k4_with_two_outside():
    """Cluster K4 {0..3}; outside nodes 4, 5 complete a K4 with members 0, 1."""
    g = Graph(6, complete_graph(4).edge_set())
    for outside in (4, 5):
        g.add_edge(outside, 0)
        g.add_edge(outside, 1)
    g.add_edge(4, 5)
    return g


class TestLightNodeListing:
    def test_lists_cross_k4(self):
        g = k4_with_two_outside()
        outcome = light_node_k4_listing(g, frozenset(range(4)), frozenset({4, 5}))
        expected = frozenset({0, 1, 4, 5})
        assert expected in outcome.cliques_of(4) | outcome.cliques_of(5)

    def test_rounds_track_cluster_degree(self):
        g = k4_with_two_outside()
        outcome = light_node_k4_listing(g, frozenset(range(4)), frozenset({4, 5}))
        assert outcome.rounds == 4.0  # 2 · g_{v,C} with g = 2

    def test_no_light_nodes_is_free(self):
        g = complete_graph(4)
        outcome = light_node_k4_listing(g, frozenset(range(4)), frozenset())
        assert outcome.rounds == 0 and not outcome.listed

    def test_light_node_with_single_cluster_neighbor_lists_nothing(self):
        g = Graph(5, complete_graph(4).edge_set())
        g.add_edge(4, 0)
        outcome = light_node_k4_listing(g, frozenset(range(4)), frozenset({4}))
        assert not outcome.listed

    def test_all_listed_are_real_k4(self):
        g = erdos_renyi(30, 0.4, seed=3)
        cluster = frozenset(range(10))
        light = frozenset(
            v for v in range(10, 30) if any(u in cluster for u in g.neighbors(v))
        )
        outcome = light_node_k4_listing(g, cluster, light)
        truth = enumerate_cliques(g, 4)
        for node in outcome.listed:
            assert outcome.cliques_of(node) <= truth


class TestSequentialPhase:
    def test_rounds_sum_across_clusters(self):
        g = k4_with_two_outside()
        ledger = RoundLedger()
        clusters = [
            (frozenset(range(4)), frozenset({4, 5})),
            (frozenset(range(4)), frozenset({4, 5})),
        ]
        sequential_light_phase(g, clusters, ledger, "light")
        assert ledger.total_rounds == 8.0  # 4 + 4, sequential

    def test_union_of_outputs(self):
        g = k4_with_two_outside()
        ledger = RoundLedger()
        listed = sequential_light_phase(
            g, [(frozenset(range(4)), frozenset({4, 5}))], ledger, "light"
        )
        assert frozenset({0, 1, 4, 5}) in listed.cliques


class TestEndToEndK4:
    @pytest.mark.parametrize("density", [0.3, 0.5])
    def test_correct_on_er(self, density):
        g = erdos_renyi(80, density, seed=17)
        result = list_cliques(g, p=4, variant="k4", seed=17)
        verify_listing(g, result).raise_if_failed()

    def test_light_phase_charged_when_pipeline_engages(self):
        g = erdos_renyi(90, 0.5, seed=18)
        result = list_cliques(g, p=4, variant="k4", seed=18)
        verify_listing(g, result).raise_if_failed()
        if result.stats["outer_iterations"] >= 1:
            assert any("light_listing" in p.name for p in result.ledger.phases())

    def test_no_bad_edges_in_k4_mode(self):
        g = erdos_renyi(90, 0.5, seed=19)
        # Even with an absurdly low bad threshold, K4 mode never demotes.
        from repro.core.params import AlgorithmParameters
        from repro.core.listing import list_cliques_congest

        params = AlgorithmParameters(p=4, variant="k4", bad_scale=1e-9)
        result = list_cliques_congest(g, 4, params=params, seed=19)
        verify_listing(g, result).raise_if_failed()

    def test_k4_stop_threshold_lower_than_generic(self):
        from repro.core.params import AlgorithmParameters

        generic = AlgorithmParameters(p=4, variant="generic")
        k4 = AlgorithmParameters(p=4, variant="k4")
        n = 512
        assert k4.stop_arboricity(n) < generic.stop_arboricity(n)
