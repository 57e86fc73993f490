"""Tests for the baseline algorithms and the bounds catalogue."""

import math

import pytest

from repro.analysis.verification import verify_listing
from repro.baselines import bounds
from repro.baselines.broadcast import broadcast_listing, neighborhood_broadcast_listing
from repro.baselines.brute_force import brute_force_listing
from repro.baselines.cc_general import general_congested_clique_listing
from repro.baselines.chang_triangle import chang_style_triangle_listing
from repro.baselines.eden import eden_k4_listing
from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.core.partition import responsible_new_id
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.generators import (
    bounded_arboricity_graph,
    complete_graph,
    erdos_renyi,
    gnm_random_graph,
)


class TestBruteForce:
    def test_matches_truth(self, planted):
        result = brute_force_listing(planted, 4)
        verify_listing(planted, result).raise_if_failed()

    def test_zero_rounds(self, planted):
        assert brute_force_listing(planted, 4).rounds == 0.0


class TestBroadcast:
    def test_orientation_broadcast_correct(self, planted):
        result = broadcast_listing(planted, 4)
        verify_listing(planted, result).raise_if_failed()

    def test_orientation_broadcast_rounds(self):
        g = complete_graph(10)  # degeneracy 9
        assert broadcast_listing(g, 3).rounds == 18.0

    def test_neighborhood_broadcast_correct(self, planted):
        result = neighborhood_broadcast_listing(planted, 4)
        verify_listing(planted, result).raise_if_failed()

    def test_neighborhood_rounds_are_max_degree(self):
        g = complete_graph(10)
        assert neighborhood_broadcast_listing(g, 3).rounds == 9.0

    def test_orientation_beats_neighborhood_on_sparse(self):
        g = bounded_arboricity_graph(150, 2, seed=1)
        oriented = broadcast_listing(g, 3)
        neighborhood = neighborhood_broadcast_listing(g, 3)
        assert oriented.rounds <= neighborhood.rounds


class TestEdenK4:
    def test_correct(self):
        g = erdos_renyi(70, 0.45, seed=2)
        result = eden_k4_listing(g, seed=2)
        verify_listing(g, result).raise_if_failed()

    def test_rounds_positive_on_dense(self):
        g = erdos_renyi(70, 0.45, seed=3)
        assert eden_k4_listing(g, seed=3).rounds > 0

    def test_correct_on_planted(self, planted):
        result = eden_k4_listing(planted, seed=4)
        verify_listing(planted, result).raise_if_failed()


class TestChangTriangle:
    def test_correct(self):
        g = erdos_renyi(70, 0.4, seed=5)
        result = chang_style_triangle_listing(g, seed=5)
        verify_listing(g, result).raise_if_failed()
        assert result.model == "chang-triangle"


class TestCcGeneral:
    def test_correct(self):
        g = erdos_renyi(60, 0.3, seed=6)
        result = general_congested_clique_listing(g, 4)
        verify_listing(g, result).raise_if_failed()

    def test_rounds_independent_of_density(self):
        sparse = gnm_random_graph(64, 64, seed=7)
        dense = gnm_random_graph(64, 1500, seed=7)
        assert (
            general_congested_clique_listing(sparse, 4).rounds
            == general_congested_clique_listing(dense, 4).rounds
        )

    def test_sparsity_aware_beats_general_on_sparse(self):
        g = gnm_random_graph(128, 128, seed=8)
        ours = list_cliques_congested_clique(g, 4, seed=8)
        general = general_congested_clique_listing(g, 4)
        assert ours.rounds < general.rounds

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            general_congested_clique_listing(complete_graph(5), 2)


class TestPerNodeAttribution:
    """Which node outputs each clique: every baseline's assignment rule."""

    @pytest.fixture(params=["planted", "er30"])
    def graph(self, request):
        if request.param == "planted":
            return request.getfixturevalue("planted")
        return erdos_renyi(30, 0.5, seed=0)

    def test_each_baseline_follows_its_rule(self, graph):
        p = 4
        n = graph.num_nodes
        truth = enumerate_cliques(graph, p)
        assert truth
        # cc_general's contiguous blocks, recomputed as its docstring states.
        s = max(1, int(math.floor(n ** (1.0 / p))))
        while (s + 1) ** p <= n:
            s += 1
        block = math.ceil(n / s)

        def cc_owner(clique):
            parts = [min(s - 1, v // block) for v in sorted(clique)]
            return [responsible_new_id(parts, s, p) - 1]

        def minimum(clique):
            return [min(clique)]

        rules = [
            (brute_force_listing(graph, p), minimum),
            (broadcast_listing(graph, p), minimum),
            (eden_k4_listing(graph, seed=0), minimum),
            (neighborhood_broadcast_listing(graph, p), sorted),
            (general_congested_clique_listing(graph, p), cc_owner),
        ]
        for result, owners_of in rules:
            expected = {}
            for clique in truth:
                for node in owners_of(clique):
                    expected.setdefault(node, set()).add(clique)
            assert result.per_node == expected, result.model


class TestBounds:
    def test_theorem_1_1_formula(self):
        assert bounds.this_paper_congest(256, 6) == pytest.approx(2 * 256**0.75)

    def test_p_term_dominates_for_large_p(self):
        n = 4096
        assert bounds.this_paper_congest(n, 10) > 2 * n**0.75

    def test_theorem_1_1_rejects_p3(self):
        with pytest.raises(ValueError):
            bounds.this_paper_congest(100, 3)

    def test_k4_below_generic(self):
        n = 1024
        assert bounds.this_paper_k4(n) < bounds.this_paper_congest(n, 4)

    def test_ours_below_eden(self):
        n = 1024
        assert bounds.this_paper_k4(n) < bounds.eden_k4(n)
        assert bounds.this_paper_congest(n, 5) < bounds.eden_k5(n)

    def test_congested_clique_sparse_is_constant(self):
        assert bounds.this_paper_congested_clique(1000, 4, 1000) == pytest.approx(
            1.0, abs=0.05
        )

    def test_lower_bound_below_upper(self):
        for p in (4, 5, 6, 8):
            n = 2048
            assert bounds.fischer_listing_lower_bound(n, p) <= bounds.this_paper_congest(
                n, p
            )

    def test_gap_shrinks_with_p(self):
        assert bounds.optimality_gap(2048, 10) < bounds.optimality_gap(2048, 6) or (
            bounds.optimality_gap(10, 10) <= bounds.optimality_gap(6, 6)
        )
        gaps = [bounds.optimality_gap(0, p) for p in (6, 8, 12, 20)]
        assert gaps == sorted(gaps, reverse=True)

    def test_detection_lower_bound_regimes(self):
        assert bounds.czumaj_konrad_detection_lower_bound(10000, 4) == 100.0
        assert bounds.czumaj_konrad_detection_lower_bound(10000, 200) == 50.0

    def test_triangle_ladder(self):
        # Compare pure exponents (polylog=0); with polylog factors the
        # ladder only separates at astronomically large n.
        n = 4096
        assert (
            bounds.chang_saranurak_triangle(n, polylog=0.0)
            < bounds.chang_pettie_zhang_triangle(n, polylog=0.0)
            < bounds.izumi_legall_triangle(n, polylog=0.0)
            < bounds.trivial_broadcast(n)
        )

    def test_eden_generic_subgraph_monotone_in_p(self):
        n = 1024
        assert bounds.eden_generic_subgraph(n, 4) < bounds.eden_generic_subgraph(n, 6)

    def test_cc_listing_lower_bound_matches_upper_shape(self):
        n, p, m = 512, 4, 100_000
        upper = bounds.this_paper_congested_clique(n, p, m)
        lower = bounds.congested_clique_listing_lower_bound(n, p, m)
        assert lower <= upper <= lower + 1.0
