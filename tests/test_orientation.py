"""Unit tests for repro.graphs.orientation."""

import pytest

from repro.graphs.edge_keys import edge_keys, merge_arcs, restrict_arcs
from repro.graphs.generators import complete_graph, erdos_renyi, path_graph
from repro.graphs.graph import Graph
from repro.graphs.orientation import (
    Orientation,
    degeneracy_orientation,
    orientation_from_order,
    validate_orientation,
)


class TestOrientation:
    def test_orient_and_direction(self):
        o = Orientation(3)
        o.orient(0, 1)
        assert o.direction(0, 1) == (0, 1)
        assert o.direction(1, 0) == (0, 1)

    def test_double_orientation_rejected(self):
        o = Orientation(3)
        o.orient(0, 1)
        with pytest.raises(ValueError, match="already oriented"):
            o.orient(1, 0)

    def test_self_loop_rejected(self):
        o = Orientation(3)
        with pytest.raises(ValueError):
            o.orient(2, 2)

    def test_missing_direction_raises(self):
        o = Orientation(3)
        with pytest.raises(KeyError):
            o.direction(0, 2)

    def test_covers(self):
        o = Orientation(3)
        o.orient(0, 1)
        assert o.covers(1, 0)
        assert not o.covers(0, 2)

    def test_max_out_degree(self):
        o = Orientation(4)
        o.orient(0, 1)
        o.orient(0, 2)
        o.orient(3, 0)
        assert o.max_out_degree == 2

    def test_empty_orientation(self):
        assert Orientation(0).max_out_degree == 0

    def test_edges_canonical(self):
        o = Orientation(3)
        o.orient(2, 1)
        assert list(o.edges()) == [(1, 2)]

    def test_num_edges(self):
        o = Orientation(4)
        o.orient(0, 1)
        o.orient(2, 3)
        assert o.num_edges() == 2


class TestRestrictMerge:
    """Restriction and merge act on arc-key arrays (``src·n + dst``)."""

    def test_restricted_to_subset(self):
        o = Orientation(4)
        o.orient(0, 1)
        o.orient(2, 3)
        arcs = restrict_arcs(o.encoded_oriented(), edge_keys([(0, 1)], 4), 4)
        sub = Orientation(4, arcs)
        assert sub.covers(0, 1)
        assert not sub.covers(2, 3)

    def test_restriction_preserves_direction(self):
        o = Orientation(3)
        o.orient(2, 0)
        arcs = restrict_arcs(o.encoded_oriented(), edge_keys([(0, 2)], 3), 3)
        sub = Orientation(3, arcs)
        assert sub.direction(0, 2) == (2, 0)

    def test_merge_disjoint(self):
        a = Orientation(4)
        a.orient(0, 1)
        b = Orientation(4)
        b.orient(2, 3)
        merged = Orientation(
            4, merge_arcs(a.encoded_oriented(), b.encoded_oriented(), 4)
        )
        assert merged.num_edges() == 2

    def test_merge_overlapping_rejected(self):
        a = Orientation(3)
        a.orient(0, 1)
        b = Orientation(3)
        b.orient(1, 0)
        with pytest.raises(ValueError):
            merge_arcs(a.encoded_oriented(), b.encoded_oriented(), 3)

    def test_merge_out_degrees_add(self):
        a = Orientation(4)
        a.orient(0, 1)
        b = Orientation(4)
        b.orient(0, 2)
        merged = Orientation(
            4, merge_arcs(a.encoded_oriented(), b.encoded_oriented(), 4)
        )
        assert merged.out_degree(0) == 2


class TestDegeneracyOrientation:
    def test_path_out_degree_one(self):
        o = degeneracy_orientation(path_graph(10))
        assert o.max_out_degree == 1

    def test_complete_graph_out_degree(self):
        o = degeneracy_orientation(complete_graph(6))
        assert o.max_out_degree == 5  # degeneracy of K6 is 5

    def test_covers_all_edges(self):
        g = erdos_renyi(40, 0.2, seed=5)
        o = degeneracy_orientation(g)
        validate_orientation(g, o)

    def test_empty_graph(self):
        o = degeneracy_orientation(Graph(5))
        assert o.max_out_degree == 0

    def test_out_degree_bounded_by_max_degree(self):
        g = erdos_renyi(50, 0.3, seed=6)
        o = degeneracy_orientation(g)
        max_deg = max(g.degree(v) for v in g.nodes())
        assert o.max_out_degree <= max_deg

    def test_star_graph_low_out_degree(self):
        from repro.graphs.generators import star_graph

        o = degeneracy_orientation(star_graph(20))
        # Leaves (degree 1) are peeled first and orient toward the hub.
        assert o.max_out_degree == 1


class TestOrientationFromOrder:
    def test_orders_forward(self):
        g = Graph(3, [(0, 1), (1, 2)])
        o = orientation_from_order(g, [2, 1, 0])
        assert o.direction(1, 2) == (2, 1)
        assert o.direction(0, 1) == (1, 0)

    def test_non_permutation_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            orientation_from_order(g, [0, 1])


class TestValidateOrientation:
    def test_detects_missing_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        o = Orientation(3)
        o.orient(0, 1)
        with pytest.raises(ValueError, match="misses"):
            validate_orientation(g, o)

    def test_detects_extra_edge(self):
        g = Graph(3, [(0, 1)])
        o = Orientation(3)
        o.orient(0, 1)
        o.orient(1, 2)
        with pytest.raises(ValueError, match="non-edges"):
            validate_orientation(g, o)
