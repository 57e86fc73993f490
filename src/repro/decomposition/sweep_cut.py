"""Sweep cuts: turn a Fiedler vector into a low-conductance vertex cut.

Classic Cheeger rounding: sort vertices by the (degree-normalized) second
eigenvector, sweep all prefixes, and return the prefix with minimum
conductance.  Guaranteed to find a cut of conductance ≤ √(2 λ₂), so when
a component is *not* an expander the decomposition can split it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Set

import numpy as np
import scipy.sparse as sp

from repro.decomposition.spectral import (
    adjacency_matrix,
    normalized_laplacian_second_eigenpair,
)
from repro.graphs.graph import Graph


@dataclass(frozen=True)
class SweepCutResult:
    """Outcome of a sweep over one component.

    Attributes
    ----------
    side:
        The smaller-volume side of the best cut (global node IDs).
    conductance:
        Conductance of the best cut (cut edges / min side volume).
    lambda2:
        λ₂ of the component's normalized Laplacian.
    """

    side: Set[int]
    conductance: float
    lambda2: float


def sweep_cut(
    graph: Graph, nodes: Sequence[int], adj: Optional[sp.csr_matrix] = None
) -> Optional[SweepCutResult]:
    """Best sweep cut of the induced subgraph on ``nodes``.

    ``adj`` is the induced adjacency matrix when the caller already has
    it (the decomposition builds one per component and shares it with
    the mixing estimate); otherwise it is read from ``graph``.

    Returns ``None`` for components too small to cut (< 4 nodes) — the
    decomposition handles those by other means (peeling or leftover).
    """
    ordered = sorted(nodes)
    if len(ordered) < 4:
        return None
    if adj is None:
        adj = adjacency_matrix(graph, ordered)
    degrees = np.asarray(adj.sum(axis=1)).flatten()
    if np.any(degrees == 0):
        raise ValueError("sweep cut requires a component with no isolated vertices")
    lambda2, fiedler = normalized_laplacian_second_eigenpair(adj)
    # Degree-normalize: the Cheeger sweep orders by D^{-1/2} v2.
    scores = fiedler / np.sqrt(degrees)
    order = np.argsort(scores)

    # Prefix i holds order[:i+1].  An edge lies inside a prefix from the
    # step its later endpoint joins, so the cut of every prefix is its
    # volume minus twice its inside edges — all integers, exact in
    # float64.  The last prefix (the whole component) is not a cut.
    position = np.empty(len(ordered), dtype=np.int64)
    position[order] = np.arange(len(ordered))
    upper = sp.triu(adj, k=1).tocoo()
    joins = np.maximum(position[upper.row], position[upper.col])
    inside = np.cumsum(np.bincount(joins, minlength=len(ordered)))[:-1]
    prefix_volume = np.cumsum(degrees[order])[:-1]
    cut_edges = prefix_volume - 2.0 * inside
    total_volume = float(degrees.sum())
    denom = np.minimum(prefix_volume, total_volume - prefix_volume)
    conductance = np.full(denom.size, np.inf)
    valid = denom > 0
    conductance[valid] = cut_edges[valid] / denom[valid]
    best = int(np.argmin(conductance))  # first minimum, as the scan kept
    best_conductance = conductance[best]
    if not np.isfinite(best_conductance):
        return None
    side_local = order[: best + 1]
    side = {ordered[i] for i in side_local}
    # Report the smaller-volume side for downstream balance heuristics.
    side_volume = float(degrees[side_local].sum())
    if side_volume > total_volume / 2:
        side = set(ordered) - side
    return SweepCutResult(side=side, conductance=float(best_conductance), lambda2=lambda2)
