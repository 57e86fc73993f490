"""Golden regression fixtures: frozen ground-truth clique lists.

The JSON files under ``tests/fixtures/`` were generated by an
*independent* brute force (``itertools.combinations`` over the edge set,
see each file's ``note``) and checked in.  Future edits to either
enumeration backend diff against this frozen truth — a kernel bug cannot
hide by breaking both backends the same way.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.graphs.cliques import count_cliques, enumerate_cliques
from repro.graphs.graph import Graph

FIXTURE_DIR = Path(__file__).parent / "fixtures"
#: Fixtures that pin something other than ground-truth clique lists
#: (``test_congest_attribution.py`` owns its own file).
OTHER_FIXTURES = {"congest_attribution"}
FIXTURE_NAMES = sorted(
    path.stem for path in FIXTURE_DIR.glob("*.json") if path.stem not in OTHER_FIXTURES
)


def load_fixture(name: str):
    payload = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
    graph = Graph(payload["n"], [tuple(e) for e in payload["edges"]])
    truth = {
        int(p): {frozenset(c) for c in cliques}
        for p, cliques in payload["cliques"].items()
    }
    return graph, truth


def test_fixture_suite_is_present():
    """The checked-in suite; deleting a fixture must fail loudly."""
    assert set(FIXTURE_NAMES) >= {"petersen", "complete_k7", "er_n16", "planted_n18"}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_loads_consistently(name):
    graph, truth = load_fixture(name)
    assert graph.num_nodes >= 1
    assert set(truth) == {3, 4, 5}
    # every frozen clique really is one, on the loaded graph
    for p, cliques in truth.items():
        for clique in cliques:
            assert len(clique) == p
            members = sorted(clique)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    assert graph.has_edge(u, v), (name, p, members)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("backend", ["python", "csr"])
def test_backends_match_frozen_truth(name, backend):
    graph, truth = load_fixture(name)
    for p, expected in truth.items():
        got = enumerate_cliques(graph, p, backend=backend)
        assert got == expected, f"{name} p={p} backend={backend}"
        assert count_cliques(graph, p, backend=backend) == len(expected)


def test_petersen_has_no_triangles():
    graph, truth = load_fixture("petersen")
    assert truth[3] == set()
    assert enumerate_cliques(graph, 3, backend="csr") == set()
