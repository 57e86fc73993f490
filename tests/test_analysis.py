"""Tests for the analysis utilities (verification, complexity fitting)."""

import math

import pytest

from repro.analysis.complexity import crossover_size, fit_exponent, theory_comparison
from repro.analysis.verification import (
    verify_listing,
    verify_partition_bound,
    verify_per_node_consistency,
)
from repro.core.result import ListingResult
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.generators import complete_graph


class TestFitExponent:
    def test_exact_power_law(self):
        sizes = [64, 128, 256, 512]
        values = [3 * s**0.75 for s in sizes]
        fit = fit_exponent(sizes, values)
        assert fit.slope == pytest.approx(0.75, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_predict(self):
        fit = fit_exponent([10, 100], [10, 100])
        assert fit.predict(1000) == pytest.approx(1000)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_exponent([10], [5])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_exponent([10, 20], [0, 5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_exponent([1, 2], [1])

    def test_noisy_fit_reasonable(self):
        sizes = [64, 128, 256, 512, 1024]
        values = [s**0.5 * (1.1 if i % 2 else 0.9) for i, s in enumerate(sizes)]
        fit = fit_exponent(sizes, values)
        assert abs(fit.slope - 0.5) < 0.1


class TestTheoryComparison:
    def test_matching_shapes_have_flat_ratio(self):
        sizes = [64, 128, 256]
        measured = [5 * s**0.6 for s in sizes]
        comparison = theory_comparison(sizes, measured, lambda s: s**0.6)
        assert comparison["slope_gap"] == pytest.approx(0.0, abs=1e-9)
        assert comparison["ratio_spread"] == pytest.approx(1.0, abs=1e-9)

    def test_mismatched_shapes_detected(self):
        sizes = [64, 128, 256]
        measured = [s**1.0 for s in sizes]
        comparison = theory_comparison(sizes, measured, lambda s: s**0.5)
        assert comparison["slope_gap"] == pytest.approx(0.5, abs=1e-9)


class TestCrossover:
    def test_finds_first_win(self):
        sizes = [10, 20, 30]
        ours = [15, 18, 20]
        theirs = [12, 19, 40]
        assert crossover_size(sizes, ours, theirs) == 20

    def test_never_wins(self):
        assert crossover_size([1, 2], [5, 5], [1, 1]) == math.inf


class TestVerification:
    def test_complete_and_sound(self):
        g = complete_graph(6)
        result = ListingResult(p=3, model="test", cliques=enumerate_cliques(g, 3))
        report = verify_listing(g, result)
        assert report.ok

    def test_missing_detected(self):
        g = complete_graph(6)
        truth = enumerate_cliques(g, 3)
        partial = set(list(truth)[:-1])
        result = ListingResult(p=3, model="test", cliques=partial)
        report = verify_listing(g, result)
        assert not report.complete
        with pytest.raises(AssertionError, match="incomplete"):
            report.raise_if_failed()

    def test_spurious_detected(self):
        g = complete_graph(6)
        g.remove_edge(0, 1)
        truth = enumerate_cliques(g, 3)
        bogus = truth | {frozenset({0, 1, 2})}
        result = ListingResult(p=3, model="test", cliques=bogus)
        report = verify_listing(g, result)
        assert not report.sound
        with pytest.raises(AssertionError, match="unsound"):
            report.raise_if_failed()

    def test_truth_bug_flagged_loudly(self):
        g = complete_graph(5)
        result = ListingResult(p=3, model="test", cliques=enumerate_cliques(g, 3))
        with pytest.raises(AssertionError, match="truth enumeration"):
            verify_listing(g, result, truth=set())  # corrupted truth

    def test_per_node_consistency(self):
        result = ListingResult(p=3, model="test", cliques=set())
        result.attribute(0, frozenset({0, 1, 2}))
        assert verify_per_node_consistency(result)
        result.cliques.add(frozenset({3, 4, 5}))  # not attributed to a node
        assert not verify_per_node_consistency(result)


class TestPartitionBound:
    def test_balanced_ok(self):
        assert verify_partition_bound(num_edges=1000, num_parts=4, max_pair_load=70)

    def test_unbalanced_fails(self):
        assert not verify_partition_bound(
            num_edges=1000, num_parts=10, max_pair_load=900
        )


class TestListingResult:
    def test_repr(self):
        r = ListingResult(p=4, model="congest", cliques=set())
        assert "p=4" in repr(r)
