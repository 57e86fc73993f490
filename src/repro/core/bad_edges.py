"""Bad nodes and bad edges (§2.4.1) — deferring overloaded cluster edges.

A cluster node ``u`` with too many C-light neighbors (more than
100·√n·log n) cannot afford the light-edge learning phase; such nodes are
*bad*.  Every cluster edge joining two bad nodes is a *bad edge*: it stops
being a goal edge of this iteration and is demoted to Êr, to be handled by
a future ARB-LIST invocation.  Crucially the demoted edges remain part of
the cluster for *communication* (the expander guarantees rely on them) —
only the listing obligation moves.

The paper proves at most |E'm|/25 edges are demoted; the benchmark E6
measures this fraction, and :func:`bad_edge_fraction_bound` provides the
paper's inequality for the assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

import numpy as np

from repro.graphs.edge_keys import key_pairs
from repro.graphs.graph import Graph


@dataclass(frozen=True, eq=False)
class BadEdgeSplit:
    """Outcome of the bad-node analysis for one cluster.

    Attributes
    ----------
    bad_nodes:
        Cluster members with more than ``bad_threshold`` C-light neighbors.
    bad_keys:
        Cluster edges joining two bad nodes (demoted to Êr), as sorted
        edge keys (:mod:`repro.graphs.edge_keys`).
    goal_keys:
        Cluster edges the iteration *will* list all Kp for (sorted keys).
    light_degree:
        u_light per cluster member (how many C-light neighbors it has).
    """

    bad_nodes: FrozenSet[int]
    bad_keys: np.ndarray
    goal_keys: np.ndarray
    light_degree: Dict[int, int]


def split_bad_edges(
    graph: Graph,
    cluster_nodes: Set[int],
    cluster_keys: np.ndarray,
    light: FrozenSet[int],
    bad_threshold: int,
) -> BadEdgeSplit:
    """Identify bad nodes/edges of a cluster (§2.4.1).

    Parameters
    ----------
    graph:
        Current full graph (for the light-neighbor counts) — a
        :class:`Graph` or a CSR snapshot.
    cluster_nodes / cluster_keys:
        The cluster's members and its Em edges (sorted edge keys).
    light:
        The C-light outside neighbors (from ``heavy_light``).
    bad_threshold:
        u_light strictly above this marks u bad.
    """
    if bad_threshold < 1:
        raise ValueError(f"bad threshold must be >= 1, got {bad_threshold}")
    csr = graph.to_csr()
    n = csr.num_nodes
    members = np.asarray(sorted(cluster_nodes), dtype=np.int64)
    in_light = np.zeros(n, dtype=bool)
    in_light[np.fromiter(light, dtype=np.int64, count=len(light))] = True
    owner, nbrs = csr.rows_of(members)
    light_count = np.bincount(owner[in_light[nbrs]], minlength=members.size)
    is_bad = np.zeros(n, dtype=bool)
    is_bad[members[light_count > bad_threshold]] = True
    pairs = key_pairs(cluster_keys, n)
    demoted = is_bad[pairs[:, 0]] & is_bad[pairs[:, 1]]
    return BadEdgeSplit(
        bad_nodes=frozenset(members[light_count > bad_threshold].tolist()),
        bad_keys=cluster_keys[demoted],
        goal_keys=cluster_keys[~demoted],
        light_degree=dict(zip(members.tolist(), light_count.tolist())),
    )


def bad_edge_fraction_bound() -> float:
    """The paper's bound on the demoted fraction of cluster edges (1/25)."""
    return 1.0 / 25.0
