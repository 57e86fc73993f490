"""Trivial broadcast baselines for CONGEST Kp listing.

Two classic upper bounds, both of which the paper's algorithm must beat
on dense graphs:

- **neighborhood broadcast** — every node sends its full adjacency list
  along every incident edge; Δ rounds of pipelining.  Afterwards every
  node knows the full 2-neighborhood edge set and lists every clique it
  belongs to.  This is the Θ̃(n)-round folklore algorithm referenced in
  Remark 2.6.
- **orientation broadcast** — every node sends only its *out-edges* under
  a degeneracy orientation; 2·A rounds.  Every clique member receives the
  out-edges of all other members, and every clique edge is oriented away
  from one of its two endpoints (both clique members), so the minimum
  member lists the clique.  This matches the final stage of Theorem 1.1
  and is the strong baseline on sparse graphs.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import ListingResult
from repro.graphs.cliques import clique_table
from repro.graphs.graph import Graph
from repro.graphs.orientation import degeneracy_orientation
from repro.graphs.properties import max_degree


def neighborhood_broadcast_listing(graph: Graph, p: int) -> ListingResult:
    """Full-adjacency broadcast: Δ rounds; every member lists its cliques."""
    result = ListingResult(p=p, model="broadcast-neighborhood")
    delta = max_degree(graph)
    result.ledger.charge("broadcast_adjacency", float(delta), max_degree=delta)
    rows = clique_table(graph, p).rows
    # Row i of the repeat is clique i // p, listed by its member i % p.
    result.attribute_table(rows.ravel(), np.repeat(rows, p, axis=0))
    return result


def broadcast_listing(graph: Graph, p: int) -> ListingResult:
    """Oriented out-edge broadcast: 2·degeneracy rounds.

    The out-edge lists of a node's neighbors contain every edge among
    those neighbors (each such edge leaves one of its endpoints), so every
    node reconstructs all cliques through itself; the minimum member
    outputs each.
    """
    result = ListingResult(p=p, model="broadcast-orientation")
    orientation = degeneracy_orientation(graph)
    out_degree = orientation.max_out_degree
    result.ledger.charge(
        "broadcast_out_edges", 2.0 * max(1, out_degree), out_degree=out_degree
    )
    table = clique_table(graph, p)
    result.attribute_table(table.owners(), table.rows)
    return result
