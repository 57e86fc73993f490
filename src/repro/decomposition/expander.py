"""δ-expander decomposition (Definition 2.2 / Theorem 2.3).

Construction (sequential, same output object as [Chang et al. SODA'19]):

1. **Peel** vertices of degree < ``threshold`` (= n^δ); peeled edges go to
   ``Es`` with the witness orientation.
2. For each surviving connected component, compute a **sweep cut**.
   - If its conductance ≥ φ, the component is an expander: it becomes a
     *cluster* (its edges are ``Em``) — its mixing time is certified
     polylog via the Cheeger bound t_mix = Õ(1/φ²).
   - Otherwise **split** along the cut.  Cut edges go to ``Er``.  Both
     sides are re-peeled and recursed on.
3. Components too small to ever satisfy the cluster degree bound dump
   their edges to ``Er``.

|Er| control: every cut charges its (low-conductance) cut edges against
the smaller side's volume, giving the standard φ·m·log m total; with the
default φ = 1/(c·log² n) this is ≤ |E|/6.  Because finite-n constants can
bite, :func:`expander_decomposition` *verifies* the bound and retries
with a halved φ when it fails (bounded retries), so the returned object
always satisfies Definition 2.2 — which is all the listing algorithm
assumes.

The CONGEST round cost of the distributed construction is charged per
Theorem 2.3: Õ(n^{1−δ}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.congest.ledger import RoundLedger
from repro.decomposition.arboricity import peel_low_degree
from repro.decomposition.cluster import Cluster, cluster_membership
from repro.decomposition.mixing import estimate_mixing_time, polylog_mixing_budget
from repro.decomposition.spectral import adjacency_matrix
from repro.decomposition.sweep_cut import sweep_cut
from repro.graphs.edge_keys import EMPTY, arc_edge_keys, key_pairs
from repro.graphs.graph import Graph
from repro.graphs.orientation import Orientation


@dataclass(frozen=True)
class DecompositionParams:
    """Tunables of the decomposition.

    Attributes
    ----------
    threshold:
        The n^δ degree bound: peeling threshold, cluster min-degree target
        and Es arboricity bound.
    phi:
        Conductance target; components at or above it become clusters.
        ``None`` → 1/(2·log₂²(n)).
    max_recursion:
        Safety bound on the cut recursion depth.
    er_fraction:
        The Definition 2.2 requirement |Er| ≤ er_fraction·|E| (1/6).
    max_retries:
        How many times to halve φ when the |Er| bound fails.
    """

    threshold: int
    phi: Optional[float] = None
    max_recursion: int = 64
    er_fraction: float = 1.0 / 6.0
    max_retries: int = 4

    def resolved_phi(self, n: int) -> float:
        if self.phi is not None:
            return self.phi
        log_n = math.log2(max(4, n))
        return 1.0 / (2.0 * log_n * log_n)


@dataclass(eq=False)
class Decomposition:
    """The output object of Definition 2.2, edge sets as sorted key arrays
    (:mod:`repro.graphs.edge_keys`).

    ``em_keys`` = union of the cluster edges; ``es_orientation`` is the
    arboricity witness for ``es_keys`` (backed by its arc keys);
    ``er_keys`` is the leftover.
    """

    n: int
    threshold: int
    phi: float
    clusters: List[Cluster]
    es_keys: np.ndarray
    es_orientation: Orientation
    er_keys: np.ndarray

    @property
    def em_keys(self) -> np.ndarray:
        if not self.clusters:
            return EMPTY
        return np.sort(np.concatenate([c.edge_keys for c in self.clusters]))

    @property
    def delta_exponent(self) -> float:
        """The effective δ with threshold = n^δ."""
        if self.n < 2 or self.threshold <= 1:
            return 0.0
        return math.log(self.threshold) / math.log(self.n)

    def membership(self) -> Dict[int, int]:
        """node -> cluster_id for clustered nodes."""
        return cluster_membership(self.clusters)

    def stats(self) -> Dict[str, float]:
        """Summary quantities used by benchmarks and EXPERIMENTS.md."""
        em = sum(c.num_edges for c in self.clusters)
        total = em + self.es_keys.size + self.er_keys.size
        return {
            "num_clusters": len(self.clusters),
            "em_edges": em,
            "es_edges": self.es_keys.size,
            "er_edges": self.er_keys.size,
            "er_fraction": (self.er_keys.size / total) if total else 0.0,
            "es_out_degree": self.es_orientation.max_out_degree,
            "min_cluster_degree": min(
                (c.min_internal_degree for c in self.clusters), default=0
            ),
        }


def expander_decomposition(
    graph: Graph,
    threshold: int,
    phi: Optional[float] = None,
    ledger: Optional[RoundLedger] = None,
    params: Optional[DecompositionParams] = None,
) -> Decomposition:
    """Construct a δ-expander decomposition of ``graph``.

    Parameters
    ----------
    graph:
        Input graph — a :class:`Graph` or a
        :class:`~repro.graphs.csr.CSRGraph` snapshot; only its edges are
        read.
    threshold:
        The n^δ value (cluster degree bound / Es arboricity).
    phi:
        Conductance target (overrides params/default).
    ledger:
        Charged Õ(n^{1−δ}) rounds (Theorem 2.3) when provided.
    params:
        Full parameter object; built from the arguments when omitted.

    Returns
    -------
    A :class:`Decomposition` satisfying Definition 2.2 (checked for the
    |Er| bound with φ-halving retries; the remaining properties hold by
    construction and are assertable via :func:`validate_decomposition`).
    """
    if params is None:
        params = DecompositionParams(threshold=threshold, phi=phi)
    n = graph.num_nodes
    current_phi = params.resolved_phi(n)

    best: Optional[Decomposition] = None
    for _attempt in range(params.max_retries + 1):
        decomposition = _decompose_once(graph, params, current_phi)
        if best is None or decomposition.er_keys.size < best.er_keys.size:
            best = decomposition
        if decomposition.er_keys.size <= params.er_fraction * max(1, graph.num_edges):
            break
        current_phi /= 2.0
    assert best is not None

    if ledger is not None:
        # Theorem 2.3: Õ(n^{1−δ}) rounds for the distributed construction.
        delta = best.delta_exponent
        rounds = (n ** (1.0 - delta)) * math.log2(max(2, n))
        ledger.charge(
            "expander_decomposition",
            rounds,
            threshold=best.threshold,
            delta=round(delta, 4),
            clusters=len(best.clusters),
            er_edges=int(best.er_keys.size),
        )
    return best


def _decompose_once(
    graph: Graph, params: DecompositionParams, phi: float
) -> Decomposition:
    n = graph.num_nodes
    es_arcs: List[np.ndarray] = []
    er_parts: List[np.ndarray] = []
    clusters: List[Cluster] = []

    def absorb_peeling(work: Graph) -> Graph:
        remainder, orientation, _peeled = peel_low_degree(work, params.threshold)
        es_arcs.append(orientation.encoded_oriented())
        return remainder

    def process(work: Graph, depth: int) -> None:
        if work.num_edges == 0:
            return
        if depth > params.max_recursion:
            er_parts.append(work.to_csr().edge_keys())
            return
        for component in work.connected_components():
            active_set = {v for v in component if work.degree(v) > 0}
            if len(active_set) < 2:
                continue
            active = sorted(active_set)
            # One induced adjacency per component serves the edge keys,
            # the sweep cut, the cut edges and the mixing estimate.
            adj = adjacency_matrix(work, active)
            ordered = np.asarray(active, dtype=np.int64)
            upper = sp.triu(adj, k=1).tocoo()
            # Local order follows node order, so these keys come sorted.
            comp_keys = ordered[upper.row] * n + ordered[upper.col]
            cut = sweep_cut(work, active, adj)
            if cut is None or cut.conductance >= phi:
                cluster = _make_cluster(
                    work, active, comp_keys, len(clusters), cut, adj
                )
                if cluster is not None:
                    clusters.append(cluster)
                else:
                    er_parts.append(comp_keys)
                continue
            # Low-conductance component: split along the sweep cut.
            side = cut.side
            on_side = np.isin(ordered, list(side))
            crossing = comp_keys[on_side[upper.row] != on_side[upper.col]]
            er_parts.append(crossing)
            sub = work.subgraph_nodes(side | (active_set - side))
            sub.remove_edges(key_pairs(crossing, n).tolist())
            sub = absorb_peeling(sub)
            process(sub, depth + 1)

    # A Graph is copied, so its neighbor sets keep the iteration order the
    # peel's queue follows; a snapshot builds its work graph in bulk.
    csr = graph.to_csr()
    remainder = absorb_peeling(csr.to_graph() if graph is csr else graph.copy())
    process(remainder, 0)
    arcs = np.sort(np.concatenate(es_arcs))
    return Decomposition(
        n=n,
        threshold=params.threshold,
        phi=phi,
        clusters=clusters,
        es_keys=np.sort(arc_edge_keys(arcs, n)),
        es_orientation=Orientation(n, arcs),
        er_keys=np.sort(np.concatenate(er_parts)) if er_parts else EMPTY,
    )


def _make_cluster(
    work: Graph,
    nodes: List[int],
    edge_keys: np.ndarray,
    cluster_id: int,
    cut,
    adj: sp.csr_matrix,
) -> Optional[Cluster]:
    """Build a Cluster for an expander component; None if degenerate."""
    if len(nodes) < 2:
        return None
    min_degree = int(np.diff(adj.indptr).min())
    if min_degree < 1:
        return None
    return Cluster(
        cluster_id=cluster_id,
        nodes=frozenset(nodes),
        edge_keys=edge_keys,
        n=work.num_nodes,
        min_internal_degree=min_degree,
        mixing_time=estimate_mixing_time(work, nodes, adj),
        conductance=None if cut is None else cut.conductance,
    )


def validate_decomposition(
    graph: Graph, decomposition: Decomposition, strict_mixing: bool = False
) -> None:
    """Check Definition 2.2 on a decomposition; raise ``ValueError`` if broken.

    Checks performed:

    1. {Em, Es, Er} partitions E(G).
    2. Clusters are vertex-disjoint; each member's internal degree ≥
       threshold (the Ω(n^δ) bound, with the paper's constant taken as 1).
    3. Es orientation covers exactly Es with out-degree < threshold.
    4. |Er| ≤ |E|/6.
    5. (optional) cluster mixing times within the polylog budget.
    """
    em = decomposition.em_keys
    es = decomposition.es_keys
    er = decomposition.er_keys
    parts = np.concatenate([em, es, er])
    union = np.unique(parts)
    if not np.array_equal(union, graph.to_csr().edge_keys()):
        raise ValueError("decomposition parts do not cover the edge set")
    if union.size != parts.size:
        raise ValueError("decomposition parts are not disjoint")

    cluster_membership(decomposition.clusters)  # raises on overlap
    for cluster in decomposition.clusters:
        members = np.fromiter(cluster.nodes, dtype=np.int64)
        ends = key_pairs(cluster.edge_keys, decomposition.n).ravel()
        worst = int(np.bincount(ends, minlength=decomposition.n)[members].min())
        if worst < decomposition.threshold:
            raise ValueError(
                f"cluster {cluster.cluster_id} has internal degree {worst} "
                f"< threshold {decomposition.threshold}"
            )

    arcs = decomposition.es_orientation.encoded_oriented()
    if not np.array_equal(np.sort(arc_edge_keys(arcs, decomposition.n)), es):
        raise ValueError("Es orientation does not cover exactly Es")
    if decomposition.threshold > 0 and (
        decomposition.es_orientation.max_out_degree > decomposition.threshold
    ):
        raise ValueError(
            f"Es witness out-degree {decomposition.es_orientation.max_out_degree} "
            f"exceeds threshold {decomposition.threshold}"
        )

    if er.size > max(1, graph.num_edges) / 6.0:
        raise ValueError(
            f"|Er| = {er.size} exceeds |E|/6 = {graph.num_edges / 6:.1f}"
        )

    if strict_mixing:
        budget = polylog_mixing_budget(graph.num_nodes)
        for cluster in decomposition.clusters:
            if cluster.mixing_time is not None and cluster.mixing_time > budget:
                raise ValueError(
                    f"cluster {cluster.cluster_id} mixing time "
                    f"{cluster.mixing_time:.1f} exceeds budget {budget:.1f}"
                )
