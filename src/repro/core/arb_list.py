"""Algorithm ARB-LIST (Theorem 2.9).

One invocation:

1. run the δ-expander decomposition on G' = (V, Er), producing
   E'm / E's / E'r with |E'r| ≤ |Er|/6;
2. fold E's into Ês (arboricity witness grows by one peel threshold);
3. process every cluster of E'm in parallel (heavy/light, bad edges,
   gather, reshuffle, sparsity-aware listing) — per-phase round charges
   are the maxima over clusters;
4. goal edges Êm = E'm − bad edges are *listed* (every Kp touching them
   is output) and leave the graph; bad edges and E'r form Êr for the next
   iteration.

Postconditions (checked by tests): arboricity(Ês) grows by ≤ threshold
per invocation, |Êr| ≤ |Er|/6 + (bad edges) ≤ |Er|/4, and every Kp of the
current graph with an edge in Êm appears in the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.congest.ledger import RoundLedger
from repro.congest.topology import makespan_for_rounds
from repro.core.cluster_task import process_cluster
from repro.core.k4 import sequential_light_phase
from repro.core.params import AlgorithmParameters, K4_VARIANT
from repro.core.result import Attribution
from repro.decomposition.expander import DecompositionParams, expander_decomposition
from repro.graphs.csr import CSRGraph
from repro.graphs.edge_keys import EMPTY, key_union, merge_arcs, restrict_arcs
from repro.graphs.graph import Graph
from repro.graphs.orientation import Orientation


@dataclass(eq=False)
class ArbListState:
    """The evolving edge partition threaded through ARB-LIST iterations.

    Every edge set is a sorted key array (:mod:`repro.graphs.edge_keys`):
    edges as ``u·n + v`` (u < v), orientations as their arcs
    ``src·n + dst``.

    Attributes
    ----------
    n:
        Node count (constant).
    es_keys / es_arcs:
        The accumulated Ês with its arboricity witness.
    er_keys:
        The remaining Êr (the next invocation decomposes exactly this).
    arcs:
        Global witness orientation of *all* current edges (Ês ∪ Êr),
        max out-degree ≤ ``arboricity``.
    arboricity:
        The witness A = n^d of the current graph.
    threshold:
        The peel threshold n^δ of this LIST call.
    """

    n: int
    es_keys: np.ndarray
    es_arcs: np.ndarray
    er_keys: np.ndarray
    arcs: np.ndarray
    arboricity: int
    threshold: int

    @classmethod
    def start(
        cls, graph: Graph, orientation: Orientation, arboricity: int, threshold: int
    ) -> "ArbListState":
        """The state a LIST call starts from: (Ês, Êr) = (∅, E).

        ``graph`` is a :class:`Graph` or a CSR snapshot, ``orientation``
        a witness of its edges.
        """
        return cls(
            n=graph.num_nodes,
            es_keys=EMPTY,
            es_arcs=EMPTY,
            er_keys=graph.to_csr().edge_keys(),
            arcs=orientation.encoded_oriented(),
            arboricity=arboricity,
            threshold=threshold,
        )

    def current_keys(self) -> np.ndarray:
        return key_union(self.es_keys, self.er_keys)

    def current_graph(self) -> CSRGraph:
        """CSR snapshot of the current graph (Ês ∪ Êr)."""
        return CSRGraph.from_edge_keys(self.current_keys(), self.n)


@dataclass
class ArbListOutcome(Attribution):
    """Result of one ARB-LIST invocation: every cluster's listing, then
    the K4 variant's light-node listing, concatenated.  ``goal_keys`` /
    ``bad_keys`` are sorted edge keys."""

    goal_keys: np.ndarray
    bad_keys: np.ndarray
    num_clusters: int
    stats: Dict[str, float] = field(default_factory=dict)


def arb_list(
    state: ArbListState,
    params: AlgorithmParameters,
    rng: np.random.Generator,
    ledger: RoundLedger,
    phase_prefix: str = "arb",
) -> ArbListOutcome:
    """Run one ARB-LIST invocation, mutating ``state`` for the next one.

    After the call, ``state.er_keys`` is the new Êr, ``state.es_keys`` /
    ``state.es_arcs`` include the new E's, the listed goal edges Êm are
    removed from the graph, and ``state.arcs`` is restricted to the
    surviving edges.
    """
    n = state.n
    decomposition = expander_decomposition(
        CSRGraph.from_edge_keys(state.er_keys, n),
        threshold=state.threshold,
        phi=params.phi,
        ledger=ledger,
        params=DecompositionParams(threshold=state.threshold, phi=params.phi),
    )
    # Rename the decomposition charge under this invocation's prefix and
    # price it on the topology.
    topology = params.execution.topology
    last = ledger.phases()[-1]
    last.name = f"{phase_prefix}/expander_decomposition"
    last.makespan = makespan_for_rounds(topology, last.rounds)

    # Fold E's into Ês.
    state.es_keys = key_union(state.es_keys, decomposition.es_keys)
    state.es_arcs = merge_arcs(
        state.es_arcs, decomposition.es_orientation.encoded_oriented(), n
    )

    current = state.current_graph()
    if params.execution.plane == "object":
        # The object plane reads dict-of-sets adjacency; build it once
        # for all clusters (it keeps the snapshot as its CSR view).
        current = current.to_graph()
    orientation = Orientation(n, state.arcs)
    listed: List[Attribution] = []
    goal_parts: List[np.ndarray] = [EMPTY]
    bad_parts: List[np.ndarray] = [EMPTY]
    phase_max: Dict[str, Tuple[float, float]] = {}
    stats: Dict[str, float] = {
        "clusters": float(len(decomposition.clusters)),
        "er_in": float(state.er_keys.size),
    }

    cluster_outcomes = []
    stat_max: Dict[str, float] = {}
    for cluster in decomposition.clusters:
        outcome = process_cluster(
            current, orientation, cluster, state.arboricity, params, rng
        )
        cluster_outcomes.append((cluster, outcome))
        listed.append(outcome)
        goal_parts.append(outcome.goal_keys)
        bad_parts.append(outcome.bad_keys)
        for phase, (rounds, makespan) in outcome.phase_costs.items():
            worst = phase_max.get(phase, (0.0, 0.0))
            phase_max[phase] = (max(worst[0], rounds), max(worst[1], makespan))
        for key, value in outcome.stats.items():
            stat_max[key] = max(stat_max.get(key, 0.0), float(value))

    # Per-phase charges carry the worst-over-clusters measured loads that
    # justify them (the benchmarks read these back for the E8 checks).
    _PHASE_STATS = {
        "gather_heavy": ("heavy_nodes", "heavy_worst_chunk_words", "received_max_per_node"),
        "gather_light": ("light_nodes", "light_worst_link_words", "received_max_per_node"),
        "reshuffle": ("max_owned_edges", "total_owned_edges"),
        "learn_edges": (
            "sparsity_max_recv_words",
            "sparsity_max_send_words",
            "sparsity_known_edges",
            "cluster_size",
        ),
        "partition": ("sparsity_parts", "cluster_size"),
    }
    for phase, (rounds, makespan) in phase_max.items():
        attached = {
            key.replace("sparsity_", ""): stat_max[key]
            for key in _PHASE_STATS.get(phase, ())
            if key in stat_max
        }
        if phase == "fault_recovery":
            # Healing overhead (max over parallel clusters, like every
            # other phase) is honest cost, charged under the recovery
            # tag so delivery rows stay comparable to fault-free runs.
            ledger.charge_recovery(
                f"{phase_prefix}/{phase}",
                rounds,
                makespan=makespan,
                retries=stat_max.get("fault_retries", 0.0),
            )
        else:
            ledger.charge(
                f"{phase_prefix}/{phase}", rounds, makespan=makespan, **attached
            )

    # K4 variant (§3): light-incident outside edges were never gathered;
    # C-light nodes list those K4 themselves, clusters one after another.
    if params.variant == K4_VARIANT and cluster_outcomes:
        listed.append(
            sequential_light_phase(
                current,
                [(cluster.nodes, outcome.light) for cluster, outcome in cluster_outcomes],
                ledger,
                f"{phase_prefix}/light_listing",
                topology=topology,
            )
        )

    # Clusters are vertex-disjoint, so their edge keys never collide.
    goal_keys = np.sort(np.concatenate(goal_parts))
    bad_keys = np.sort(np.concatenate(bad_parts))
    # New Êr: leftover of the decomposition plus the demoted bad edges.
    state.er_keys = key_union(decomposition.er_keys, bad_keys)
    # Êm (the listed goal edges) leaves the graph.
    state.arcs = restrict_arcs(state.arcs, state.current_keys(), n)

    stats["goal_edges"] = float(goal_keys.size)
    stats["bad_edges"] = float(bad_keys.size)
    stats["er_out"] = float(state.er_keys.size)
    return ArbListOutcome.joined(
        listed,
        params.p,
        goal_keys=goal_keys,
        bad_keys=bad_keys,
        num_clusters=len(decomposition.clusters),
        stats=stats,
    )
