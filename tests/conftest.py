"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ExecutionConfig
from repro.graphs.generators import (
    clustered_graph,
    complete_graph,
    erdos_renyi,
    planted_cliques,
)
from repro.graphs.graph import Graph


@pytest.fixture
def executor_resolutions(monkeypatch):
    """Spy on :meth:`ExecutionConfig.resolve_executor`: the live list of
    ``(plane, executor)`` pairs it resolved during the test."""
    seen = []
    resolve = ExecutionConfig.resolve_executor

    def spy(config):
        executor = resolve(config)
        seen.append((config.plane, executor))
        return executor

    monkeypatch.setattr(ExecutionConfig, "resolve_executor", spy)
    return seen


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def triangle():
    """K3."""
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def k5():
    return complete_graph(5)


@pytest.fixture
def square():
    """C4 — contains no triangle."""
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def small_er():
    """A fixed small random graph used across modules."""
    return erdos_renyi(40, 0.3, seed=7)


@pytest.fixture
def medium_er():
    return erdos_renyi(80, 0.35, seed=21)


@pytest.fixture
def planted():
    """Sparse background + planted K6, K5, K4 — non-trivial listing output."""
    return planted_cliques(60, [6, 5, 4], background_p=0.08, seed=3)


@pytest.fixture
def caveman():
    """Four dense blocks with sparse interconnects."""
    return clustered_graph(4, 20, intra_p=0.8, inter_edges_per_pair=2, seed=5)
