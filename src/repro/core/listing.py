"""Top-level CONGEST Kp listing (Theorems 1.1 and 1.2).

The driver from the proof of Theorem 1.1: repeatedly call Algorithm LIST
(Theorem 2.8) on graphs with (at least) halving arboricity witness.  Each
call lists every Kp with an edge in the removed set Ẽm and hands back Ẽs
with a fresh witness orientation.  Once the witness drops to
Õ(n^{max(3/4, p/(p+2))}) — Õ(n^{2/3}) for the K4 variant — every node
broadcasts its remaining out-edges to its neighbors (2·A rounds) and the
leftover Kp are listed locally.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.congest.errors import CorruptionDetectedError
from repro.congest.ledger import RoundLedger
from repro.congest.topology import makespan_for_rounds
from repro.core.list_iteration import list_once
from repro.core.params import AlgorithmParameters, GENERIC_VARIANT, K4_VARIANT
from repro.core.result import ListingResult
from repro.graphs.cliques import clique_table
from repro.graphs.graph import Graph
from repro.graphs.orientation import degeneracy_orientation


def default_parameters(p: int, variant: Optional[str] = None) -> AlgorithmParameters:
    """Paper-default parameters for a clique size.

    ``variant=None`` selects the paper's best algorithm for the size:
    the K4-specific variant for p = 4 (Theorem 1.2), generic otherwise.
    """
    if variant is None:
        variant = K4_VARIANT if p == 4 else GENERIC_VARIANT
    return AlgorithmParameters(p=p, variant=variant)


def list_cliques_congest(
    graph: Graph,
    p: int,
    params: Optional[AlgorithmParameters] = None,
    variant: Optional[str] = None,
    seed: Optional[int] = None,
) -> ListingResult:
    """List all Kp of ``graph`` in the (simulated) CONGEST model.

    Parameters
    ----------
    graph:
        Input graph = communication graph.
    p:
        Clique size (≥ 3; p = 3 exercises the pipeline as an expander-
        decomposition triangle-listing algorithm à la Chang et al.).
    params:
        Full parameter object; overrides ``p``/``variant`` when given.
        ``params.execution`` selects the routing plane of the cluster
        pipeline (gather / reshuffle / sparsity-aware listing) —
        ``"batch"`` or ``"object"`` — and its ``workers``/``hosts`` the
        shard executor behind the batch plane.  Rounds and outputs are
        identical either way.
    variant:
        ``"generic"`` or ``"k4"`` (defaults per :func:`default_parameters`).
    seed:
        Overrides ``params.seed`` for the random partitions.

    Returns
    -------
    :class:`~repro.core.result.ListingResult` whose ``cliques`` equal the
    ground-truth Kp set and whose ledger decomposes the round cost by
    phase.
    """
    if params is None:
        params = default_parameters(p, variant)
    elif params.p != p:
        raise ValueError(f"params.p={params.p} does not match p={p}")
    rng = np.random.default_rng(params.seed if seed is None else seed)

    n = graph.num_nodes
    result = ListingResult(p=p, model="congest", cliques=set())
    ledger = result.ledger
    if n == 0 or p > n or graph.num_edges == 0:
        return result

    current = graph.copy()
    orientation = degeneracy_orientation(current)
    # Computing a low-out-degree orientation distributedly costs O(log n)
    # rounds (H-partition à la Barenboim–Elkin).
    orient_rounds = math.log2(max(2, n))
    ledger.charge(
        "orient",
        orient_rounds,
        makespan=makespan_for_rounds(params.execution.topology, orient_rounds),
        out_degree=orientation.max_out_degree,
    )
    arboricity = max(1, orientation.max_out_degree)

    stop = params.stop_arboricity(n)
    budget = params.list_iteration_budget(n)
    outer = 0
    while arboricity > stop and outer < budget and current.num_edges > 0:
        outcome = list_once(
            current,
            orientation,
            arboricity,
            params,
            rng,
            ledger,
            phase_prefix=f"outer[{outer}]",
        )
        result.attribute_table(outcome.owners, outcome.rows)
        current = Graph(n, outcome.es_edges)
        orientation = outcome.es_orientation
        new_arboricity = max(1, orientation.max_out_degree)
        outer += 1
        if new_arboricity >= arboricity:
            break
        arboricity = new_arboricity

    # Final stage: broadcast remaining out-edges; each node then knows
    # every edge among its neighbors' out-edges, so the minimum member of
    # each remaining clique lists it.
    final_rounds = 2.0 * max(1, orientation.max_out_degree)
    ledger.charge(
        "final_broadcast",
        final_rounds,
        makespan=makespan_for_rounds(params.execution.topology, final_rounds),
        remaining_edges=current.num_edges,
        out_degree=orientation.max_out_degree,
    )
    # The local tail is a pure sequential enumeration — let the backend
    # seam route it to the CSR kernels when the leftover graph is large.
    # Attributed columnar: rows ascend within the canonical table, so
    # column 0 is each clique's minimum member (its lister).
    tail = clique_table(current, p, backend="auto")
    result.attribute_table(tail.owners(), tail.rows)

    result.stats.update(
        {
            "outer_iterations": float(outer),
            "stop_arboricity": float(stop),
            "initial_arboricity": float(
                max(1, degeneracy_orientation(graph).max_out_degree)
            ),
            "n": float(n),
        }
    )
    faults = params.execution.faults
    if faults is not None and faults.active:
        # End-of-run recount self-check (docs/faults.md): the healing
        # protocol restores every checksummed copy, but silent corruption
        # survives it — verify against a trusted local enumeration and
        # abort loudly on any drift rather than return wrong counts.
        result.stats["fault_recovery_rounds"] = ledger.recovery_rounds
        truth = clique_table(graph, p, backend="auto")
        if result.table() != truth:
            raise CorruptionDetectedError(
                "recount self-check failed after faulted run",
                phase="recount",
                expected=len(truth),
                actual=result.num_cliques,
            )
    return result
