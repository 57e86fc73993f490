"""Algorithm LIST (Theorem 2.8): halve the arboricity, listing as you go.

LIST repeatedly invokes ARB-LIST on the same node set with a geometrically
shrinking Êr: starting from (Es, Er) = (∅, E), each invocation guarantees
|Êr| ≤ |Er|/4 — 1/6 from the expander decomposition plus at most 1/25 in
demoted bad edges — so after O(log n) invocations Êr is empty and
E = Ẽm ∪ Ẽs with arboricity(Ẽs) ≤ (#iterations)·n^δ ≤ A/2.  Every Kp
with an edge in Ẽm has been listed.

A degenerate-progress fallback keeps the implementation total: if an
invocation neither lists goal edges nor shrinks Êr (possible only at tiny
scales where every component peels away), the remaining Êr obligations
are discharged by a direct neighborhood broadcast, charged at its true
CONGEST cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.congest.ledger import RoundLedger
from repro.congest.topology import makespan_for_rounds
from repro.core.arb_list import ArbListState, arb_list
from repro.core.params import AlgorithmParameters
from repro.core.result import Attribution
from repro.graphs.cliques import clique_table, rows_touching_edges
from repro.graphs.edge_keys import EMPTY, max_out_degree, restrict_arcs
from repro.graphs.graph import Graph
from repro.graphs.orientation import Orientation


@dataclass
class ListOutcome(Attribution):
    """Result of one LIST call (Theorem 2.8).

    ``es_keys`` (sorted edge keys) / ``es_orientation`` (backed by its
    arc keys) are the Ẽs the caller recurses on; every Kp of the input
    graph with an edge outside Ẽs is a row of ``rows``, attributed to
    ``owners``.
    """

    es_keys: np.ndarray
    es_orientation: Orientation
    iterations: int
    stats: Dict[str, float] = field(default_factory=dict)


def list_once(
    graph: Graph,
    orientation: Orientation,
    arboricity: int,
    params: AlgorithmParameters,
    rng: np.random.Generator,
    ledger: RoundLedger,
    phase_prefix: str = "list",
) -> ListOutcome:
    """Run Algorithm LIST on ``graph`` with witness ``orientation``.

    Parameters
    ----------
    graph:
        Current graph G = (V, E) (a :class:`Graph` or a CSR snapshot).
    orientation:
        Witness orientation of E with max out-degree ≤ ``arboricity``.
    arboricity:
        The A = n^d of Theorem 2.8.
    """
    n = graph.num_nodes
    threshold = params.peel_threshold(n, arboricity)
    state = ArbListState.start(graph, orientation, arboricity, threshold)
    listed: List[Attribution] = []
    budget = params.arb_iteration_budget(n)
    iterations = 0
    er_trace = [state.er_keys.size]

    while state.er_keys.size and iterations < budget:
        er_before = state.er_keys.size
        outcome = arb_list(
            state, params, rng, ledger, phase_prefix=f"{phase_prefix}/arb[{iterations}]"
        )
        listed.append(outcome)
        iterations += 1
        er_trace.append(state.er_keys.size)
        progressed = state.er_keys.size < er_before or outcome.goal_keys.size
        if not progressed:
            break

    if state.er_keys.size:
        listed.append(
            _fallback_broadcast(state, params, ledger, f"{phase_prefix}/fallback")
        )

    return ListOutcome.joined(
        listed,
        params.p,
        es_keys=state.es_keys,
        es_orientation=Orientation(n, state.es_arcs),
        iterations=iterations,
        stats={
            "iterations": float(iterations),
            "threshold": float(threshold),
            "er_trace_first": float(er_trace[0]),
            "er_trace_last": float(er_trace[-1]),
            "es_out_degree": float(max_out_degree(state.es_arcs, n)),
        },
    )


def _fallback_broadcast(
    state: ArbListState,
    params: AlgorithmParameters,
    ledger: RoundLedger,
    phase: str,
) -> Attribution:
    """Discharge leftover Êr obligations by direct neighborhood broadcast.

    Every node broadcasts its remaining out-edges to all neighbors; each
    node then knows every edge of every Kp it belongs to (each such edge
    is oriented away from one of its two endpoints, both neighbors of any
    clique member), so the minimum member can list it.  Cost: 2·(max
    out-degree) words per link, the exact pipelined CONGEST cost.
    """
    rounds = 2.0 * max(1, max_out_degree(state.arcs, state.n))
    ledger.charge(
        phase,
        rounds,
        makespan=makespan_for_rounds(params.execution.topology, rounds),
        er_edges=int(state.er_keys.size),
    )
    current = state.current_graph().to_graph()
    table = clique_table(current, params.p, backend="auto").rows
    rows = table[rows_touching_edges(table, state.er_keys, state.n)]
    # All Êr obligations fulfilled; those edges retire from the graph.
    state.er_keys = EMPTY
    state.arcs = restrict_arcs(state.arcs, state.es_keys, state.n)
    # Rows ascend, so column 0 is each clique's minimum member: its lister.
    return Attribution(owners=rows[:, 0], rows=rows)
