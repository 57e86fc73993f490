"""K4-variant machinery (§3, Theorem 1.2).

In the K4 variant, clusters never import light-incident outside edges —
instead every C-light node lists, itself, all K4 instances consisting of
two of its cluster neighbors and one further common neighbor.  Combined
with the heavy push (which covers heavy-sourced outside edges) this
removes the Õ(n^{3/4}) light-gather term and yields Õ(n^{2/3}) rounds.

The protocol (per cluster, clusters handled *sequentially* because a
light node's broadcasts occupy all of its incident edges): light node v
announces each of its g_{v,C} cluster neighbors to every neighbor; each
neighbor answers one adjacency bit per announced ID.  v then locally sees
every K4 = {u, w, v, v'} with u, w ∈ C and lists those it observes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.congest.ledger import RoundLedger
from repro.congest.topology import Topology, makespan_for_rounds
from repro.core.result import Attribution
from repro.graphs.graph import Graph


@dataclass
class LightListingOutcome(Attribution):
    """Output of the light-node K4 listing for one cluster: each row a
    K4 and its owner the light node that lists it."""

    rounds: float


def light_node_k4_listing(
    graph: Graph,
    cluster_nodes: FrozenSet[int],
    light: FrozenSet[int],
) -> LightListingOutcome:
    """C-light nodes list every K4 they share two cluster nodes with.

    For light node v and cluster neighbors u, w (adjacent to each other),
    any common neighbor v' of {u, w, v} outside the cluster closes a K4.
    v learns the needed adjacencies from the announce/answer protocol:
    each of its neighbors answers one bit per announced cluster-neighbor
    ID, so v knows {u,w} (w answers about u), {u,v'} and {w,v'} (v'
    answers about both).

    Rounds = 2 · max over C-light v of g_{v,C} (announcements plus the
    answer bits, every edge of v working in parallel).  ``graph`` is a
    :class:`Graph` or a CSR snapshot; the adjacency tests are sorted-row
    intersections.
    """
    csr = graph.to_csr()
    in_cluster = np.zeros(csr.num_nodes, dtype=bool)
    in_cluster[list(cluster_nodes)] = True
    owners: List[np.ndarray] = []
    rows: List[np.ndarray] = []
    worst_g = 0
    for v in sorted(light):
        nbrs = csr.neighbors(v)
        cluster_neighbors = nbrs[in_cluster[nbrs]]
        worst_g = max(worst_g, int(cluster_neighbors.size))
        if cluster_neighbors.size < 2:
            continue
        outside_neighbors = nbrs[~in_cluster[nbrs]]
        for i, u in enumerate(cluster_neighbors.tolist()):
            u_adjacency = csr.neighbors(u)
            ws = np.intersect1d(
                cluster_neighbors[i + 1 :], u_adjacency, assume_unique=True
            )
            if not ws.size:
                continue
            v_primes = np.intersect1d(
                outside_neighbors, u_adjacency, assume_unique=True
            )
            for w in ws.tolist():
                closing = np.intersect1d(v_primes, csr.neighbors(w), assume_unique=True)
                if closing.size:
                    block = np.empty((closing.size, 4), dtype=np.int64)
                    block[:, :3] = (u, w, v)
                    block[:, 3] = closing
                    owners.append(np.full(closing.size, v, dtype=np.int64))
                    rows.append(np.sort(block, axis=1))
    return LightListingOutcome(
        owners=np.concatenate(owners) if owners else np.empty(0, dtype=np.int64),
        rows=np.concatenate(rows) if rows else np.empty((0, 4), dtype=np.int64),
        rounds=2.0 * worst_g,
    )


def sequential_light_phase(
    graph: Graph,
    clusters: List[Tuple[FrozenSet[int], FrozenSet[int]]],
    ledger: RoundLedger,
    phase: str,
    topology: Optional[Topology] = None,
) -> Attribution:
    """Run the light-node listing cluster by cluster (sequentially).

    ``clusters`` is a list of (cluster_nodes, light) pairs.  The per-
    cluster costs *sum* — unlike the in-cluster phases, a light node's
    broadcast occupies every edge incident to it, which may serve other
    clusters too, so the paper schedules clusters one after another
    (O(n^{1−δ}) of them, each O(n^{d−1/3}) rounds).
    """
    outcomes = [
        light_node_k4_listing(graph, cluster_nodes, light)
        for cluster_nodes, light in clusters
    ]
    listed = Attribution.joined(outcomes, 4)
    rounds = sum((outcome.rounds for outcome in outcomes), 0.0)
    ledger.charge(
        phase,
        rounds,
        makespan=makespan_for_rounds(topology, rounds),
        clusters=len(clusters),
        cliques_found=len(listed.owners),
    )
    return listed
