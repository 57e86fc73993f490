"""Golden attribution pin for the Theorem 1.1/1.2 driver.

Every other CONGEST differential (batch vs object, parallel, dist,
faults) compares planes that share ``list_once``, ``arb_list`` and
``listing.py``, so a plumbing bug common to all planes passes them all.
This suite diffs both reference planes against a frozen fixture instead:
a sha256 of the sorted ``(node, sorted clique)`` attribution pairs, the
ledger rows ``(name, rounds)`` and the outer iteration count, per
instance.

The fixture was generated before the columnar outcome refactor of the
pipeline, from the dict-of-sets implementation.  Regenerate it only for
an intended output change::

    PYTHONPATH=src python tests/test_congest_attribution.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import ExecutionConfig
from repro.core.listing import default_parameters, list_cliques_congest
from repro.workloads import create_workload

FIXTURE = Path(__file__).parent / "fixtures" / "congest_attribution.json"

#: (family, n) instances that engage the cluster pipeline at p = 4.
INSTANCES = (("er", 40), ("caveman", 40), ("er", 128))
SEEDS = (1, 2, 3)
VARIANTS = ("k4", "generic")
P = 4


def attribution_digest(result) -> str:
    """sha256 over the sorted ``(node, *sorted(clique))`` pairs."""
    pairs = sorted(
        (node, *sorted(clique))
        for node, cliques in result.per_node.items()
        for clique in cliques
    )
    text = "\n".join(" ".join(map(str, pair)) for pair in pairs)
    return hashlib.sha256(text.encode()).hexdigest()


def ledger_rows(result):
    return [[phase.name, phase.rounds] for phase in result.ledger.phases()]


def run(family: str, n: int, seed: int, variant: str, plane: str):
    graph = create_workload(family).instance(n, seed=seed)
    params = default_parameters(P, variant).with_(
        execution=ExecutionConfig(plane=plane)
    )
    return list_cliques_congest(graph, P, params=params, seed=seed)


def summarize(result):
    return {
        "outer_iterations": int(result.stats["outer_iterations"]),
        "pairs": sum(len(c) for c in result.per_node.values()),
        "sha256": attribution_digest(result),
        "ledger": ledger_rows(result),
    }


def entry_key(family: str, n: int, seed: int, variant: str) -> str:
    return f"{family}-n{n}-s{seed}-{variant}"


def load_entries():
    return json.loads(FIXTURE.read_text())["entries"]


CASES = [
    (family, n, seed, variant)
    for family, n in INSTANCES
    for seed in SEEDS
    for variant in VARIANTS
]


def test_fixture_covers_every_case():
    assert set(load_entries()) == {entry_key(*case) for case in CASES}


def test_fixture_engages_the_pipeline():
    """The pin is only worth something where LIST actually runs."""
    entries = load_entries()
    engaged = {
        (family, variant)
        for family, n, seed, variant in CASES
        if entries[entry_key(family, n, seed, variant)]["outer_iterations"] >= 1
    }
    assert engaged >= {("er", "k4"), ("er", "generic"), ("caveman", "k4")}
    for seed in SEEDS:
        for variant in VARIANTS:
            assert entries[entry_key("er", 128, seed, variant)]["outer_iterations"] >= 1


@pytest.mark.parametrize("plane", ["batch", "object"])
@pytest.mark.parametrize("family,n,seed,variant", CASES)
def test_attribution_matches_golden(family, n, seed, variant, plane):
    expected = load_entries()[entry_key(family, n, seed, variant)]
    result = run(family, n, seed, variant, plane)
    if expected["outer_iterations"] >= 1:
        assert result.stats["outer_iterations"] >= 1
    assert summarize(result) == expected


def regenerate() -> None:
    entries = {
        entry_key(*case): summarize(run(*case, plane="object")) for case in CASES
    }
    payload = {
        "note": (
            "list_cliques_congest(p=4) per-node attribution and ledger rows; "
            "regenerate with: PYTHONPATH=src python tests/test_congest_attribution.py"
        ),
        "entries": entries,
    }
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
