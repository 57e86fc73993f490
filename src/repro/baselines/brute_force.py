"""Sequential brute-force listing (ground truth / sanity baseline).

Not a distributed algorithm: it enumerates cliques centrally and reports
zero rounds.  Benchmarks use it as the correctness oracle and as the
"infinite bandwidth" reference point.
"""

from __future__ import annotations

from repro.core.result import ListingResult
from repro.graphs.cliques import clique_table
from repro.graphs.graph import Graph


def brute_force_listing(graph: Graph, p: int) -> ListingResult:
    """Enumerate all Kp centrally; attribute each to its minimum member."""
    result = ListingResult(p=p, model="brute-force")
    table = clique_table(graph, p)
    result.attribute_table(table.owners(), table.rows)
    result.ledger.charge("sequential_enumeration", 0.0, cliques=result.num_cliques)
    return result
