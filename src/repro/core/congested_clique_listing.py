"""Sparsity-aware Kp listing in the CONGESTED CLIQUE (Theorem 1.3).

The §2.4.3 machinery run on the whole clique of n nodes:

1. every node computes/learns a low-out-degree orientation of its edges
   (degeneracy orientation; O(log n)-round H-partition charge);
2. the n nodes partition into s = ⌊n^{1/p}⌋ parts uniformly at random;
   one round announces everyone's part;
3. node with ID i takes the p parts spelled by the base-s digits of i and
   must learn every edge between them; owners send each of their out-
   edges to the O(p²·n^{1−2/p}) responsible nodes — one Lenzen routing
   step whose measured load is O(p²·m/n^{2/p}) w.h.p. (Lemma 2.7), i.e.
   Θ̃(1 + m/n^{1+2/p}) rounds;
4. each responsible node reconstructs the subgraph it learned and lists
   the Kp it sees; every Kp's part multiset is some node's digit
   sequence, so the union is complete.

Step 3 runs on the routing plane named by ``params.execution.plane``
(``docs/architecture.md`` § routing planes):

- ``"batch"`` (default) — the charge is computed from aggregate loads.
  Lemma 2.7's charge depends on per-node word loads only, and those
  follow from the per-pair edge counts: a node sends each out-edge once
  per recipient of the edge's part pair and receives every edge of
  every pair its digits cover (:func:`~repro.congest.batch.
  fanout_loads_by_pair`, charged through
  :meth:`CongestedClique.charge_loads`).  Step 4 then lists the graph
  once — one global table, each row attributed to the responsible node
  of its part multiset, which is exactly the node whose learned
  subgraph would have produced it.  The (edge, recipient) messages are
  materialized only where the pattern itself matters: under an active
  fault seam (healing retries pending message subsets, and silent
  corruption must reach the listing through the delivered mailboxes)
  and on an overlay topology (per-link pricing needs every message's
  endpoints);
- ``"object"`` — every (edge, recipient) pair becomes one Python
  tuple through :meth:`CongestedClique.route` dict mailboxes and each
  learned subgraph is rebuilt set-by-set.  This is the executed,
  message-level reference semantics the differential tests pin the
  batch plane against.

Both planes charge **identical** ledger rounds: the charge is a function
of the measured per-node word loads, and the loads are the same numbers
whether counted by ``Counter`` loop over the executed messages or by
bincounts over the per-pair edge counts.

If m is so small that Lemma 2.7's conditions fail, the paper pads with
*fake edges* until m/n^{1/p} = 20·n·log n — the round count is Õ(1)
there anyway.  ``pad_fake_edges=True`` reproduces that accounting: fake
words inflate the charged loads on both planes identically but are never
routed and never listed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.congest.batch import fanout_edges_by_pair, fanout_loads_by_pair
from repro.congest.congested_clique import CongestedClique
from repro.congest.errors import CorruptionDetectedError
from repro.congest.ledger import RoundLedger
from repro.congest.topology import makespan_for_rounds
from repro.core.params import AlgorithmParameters
from repro.core.partition import (
    pair_index_array,
    pair_recipient_count,
    pair_recipient_lists,
    radix_digit_table,
    random_partition,
    responsible_index_array,
    responsible_new_id,
)
from repro.core.result import ListingResult
from repro.graphs.cliques import clique_table, enumerate_cliques
from repro.graphs.csr import grouped_clique_tables
from repro.graphs.table import CliqueTable
from repro.graphs.graph import Graph
from repro.graphs.orientation import degeneracy_orientation


def num_parts_for_clique(n: int, p: int) -> int:
    """s = ⌊n^{1/p}⌋ with float-undershoot correction."""
    s = int(math.floor(n ** (1.0 / p)))
    while (s + 1) ** p <= n:
        s += 1
    return max(1, s)


def _fake_edge_loads(
    n: int, s: int, p: int, fake_total: int
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Accounting-only load inflation of the fake-edge padding (§4).

    Fake edges are spread uniformly over sources and part pairs; they are
    charged, never routed.  Returns per-node (send, recv) word arrays —
    the same numbers the tuple-era accounting accumulated per message.
    """
    if not fake_total:
        return None, None
    num_pairs = s * (s + 1) // 2
    per_pair = math.ceil(fake_total / max(1, num_pairs))
    per_source = math.ceil(fake_total / n)
    pairs = [(a, b) for a in range(s) for b in range(a, s)]
    mid_pair = pairs[len(pairs) // 2]
    extra_send = np.full(
        n, 2 * per_source * pair_recipient_count(s, p, *mid_pair), dtype=np.int64
    )
    # Node with new ID i+1 receives 2·per_pair fake words for every
    # unordered pair of its distinct parts: t(t+1)/2 pairs for t parts.
    digits = np.sort(radix_digit_table(s, p), axis=1)
    distinct = (np.diff(digits, axis=1) != 0).sum(axis=1) + 1
    extra_recv = np.zeros(n, dtype=np.int64)
    extra_recv[: s**p] = per_pair * distinct * (distinct + 1)
    return extra_send, extra_recv


def list_cliques_congested_clique(
    graph: Graph,
    p: int,
    params: Optional[AlgorithmParameters] = None,
    seed: Optional[int] = None,
    pad_fake_edges: bool = False,
    precomputed_table: Optional[np.ndarray] = None,
) -> ListingResult:
    """List all Kp of ``graph`` in the (simulated) CONGESTED CLIQUE.

    Round complexity: Θ̃(1 + m/n^{1+2/p}) (Theorem 1.3); the ledger holds
    the per-phase breakdown with the measured loads.  The routing plane
    and its shard executor come from ``params.execution`` (default: the
    single-core ``"batch"`` plane); every plane produces identical
    results and identical ledger charges.

    ``precomputed_table`` is the streaming entry point: a ``(count, p)``
    table of *all* Kp of ``graph`` (e.g. a
    :meth:`~repro.stream.engine.StreamEngine.clique_table` maintained
    incrementally).  Step 3 still charges identically on either plane,
    but step 4's listing is served from the table — each known clique is
    attributed directly to the node responsible for its part multiset,
    which is exactly the row the per-node learned-subgraph enumeration
    would have produced.
    """
    if params is None:
        params = AlgorithmParameters(p=p)
    elif params.p != p:
        raise ValueError(f"params.p={params.p} does not match p={p}")
    execution = params.execution
    executor = execution.resolve_executor()
    rng = np.random.default_rng(params.seed if seed is None else seed)

    n = graph.num_nodes
    result = ListingResult(p=p, model="congested-clique")
    ledger = result.ledger
    if n == 0 or p > n:
        return result

    # One injector per run: the fault seam perturbs every routed pattern
    # and the router heals around it (docs/faults.md); None = unchanged.
    faults = execution.faults
    injector = faults.injector() if faults is not None else None
    clique_net = CongestedClique(
        n, cost_model=execution.cost_model, faults=injector,
        topology=execution.topology,
    )

    # -- Step 1: orientation.  The batch plane reads the CSR forward
    # adjacency (the same deterministic degeneracy orientation, as
    # arrays); the object plane materializes the per-node out-sets.
    if execution.plane == "batch":
        csr = graph.to_csr()
        fptr, findices = csr.forward()
        out_degree = int(np.diff(fptr).max(initial=0))
        orientation = None
    else:
        orientation = degeneracy_orientation(graph)
        out_degree = orientation.max_out_degree
    orient_rounds = math.log2(max(2, n))
    ledger.charge(
        "orient",
        orient_rounds,
        makespan=makespan_for_rounds(execution.topology, orient_rounds),
        out_degree=out_degree,
    )

    s = num_parts_for_clique(n, p)
    partition = random_partition(n, s, rng)
    # One word from every part owner to everyone: the uniform broadcast
    # pattern, priced on the configured overlay.
    ledger.charge(
        "announce_parts",
        1.0,
        makespan=clique_net.broadcast_makespan(1),
        parts=s,
    )

    # Fake-edge padding (paper §4): ensure Lemma 2.7's conditions by
    # topping the edge count up to 20·n^{1+1/p}·log n.  The fake words
    # only inflate the charged loads; they are never routed or listed.
    m = graph.num_edges
    fake_total = 0
    if pad_fake_edges:
        target = math.ceil(20.0 * (n ** (1.0 + 1.0 / p)) * math.log2(max(2, n)))
        fake_total = max(0, target - m)
    extra_send, extra_recv = _fake_edge_loads(n, s, p, fake_total)

    # -- Step 3: every oriented edge fans out to all responsible nodes;
    # -- Step 4: each responsible node lists its learned subgraph.
    if precomputed_table is not None:
        if isinstance(precomputed_table, CliqueTable):
            precomputed_table = precomputed_table.rows
        precomputed_table = np.asarray(precomputed_table)
        if not np.issubdtype(precomputed_table.dtype, np.integer):
            precomputed_table = precomputed_table.astype(np.int64)
        if precomputed_table.ndim != 2 or precomputed_table.shape[1] != p:
            raise ValueError(
                f"precomputed_table must be a (count, {p}) array, got shape "
                f"{precomputed_table.shape}"
            )
    if execution.plane == "batch":
        _route_and_list_arrays(
            result, clique_net, fptr, findices, partition.part_array(), s, p,
            extra_send, extra_recv, fake_total, precomputed_table,
            executor=executor,
        )
    else:
        _route_and_list_object(
            result, clique_net, graph, orientation, partition.part_of, s, p,
            extra_send, extra_recv, fake_total, precomputed_table,
        )
    if precomputed_table is not None:
        result.stats["precomputed_table"] = 1.0

    result.stats.update(
        {
            "n": float(n),
            "m": float(m),
            "parts": float(s),
            "fake_edges": float(fake_total),
            "theory_rounds": 1.0 + m / (n ** (1.0 + 2.0 / p)),
        }
    )
    if injector is not None and injector.active:
        result.stats["fault_recovery_rounds"] = ledger.recovery_rounds
        _recount_self_check(result, graph, p)
    return result


def _recount_self_check(result: ListingResult, graph: Graph, p: int) -> None:
    """End-of-run verification under an active fault seam.

    The healing protocol guarantees delivery of every checksummed copy,
    but *silent* (checksum-evading) corruption survives it by design.
    A trusted local recount — the same pattern as
    :meth:`repro.stream.engine.StreamEngine.recount` — catches whatever
    damage got through: any mismatch between the listed cliques and a
    fault-free enumeration aborts the run with a typed error instead of
    returning wrong counts.
    """
    truth = clique_table(graph, p, backend="auto")
    if result.table() != truth:
        raise CorruptionDetectedError(
            "recount self-check failed after faulted run",
            phase="recount",
            expected=len(truth),
            actual=result.num_cliques,
        )


def _attribute_by_parts(
    result: ListingResult, table: np.ndarray, part_arr: np.ndarray, s: int
) -> None:
    """Attribute every row of a global Kp table to the responsible node
    of its part multiset — the one node whose learned subgraph holds
    all of the row's edges and whose digit sequence the row spells, so
    outputs and per-node attribution equal the per-node listing's."""
    if table.shape[0] == 0:
        return
    result.attribute_table(responsible_index_array(part_arr[table], s), table)


def _route_and_list_arrays(
    result: ListingResult,
    clique_net: CongestedClique,
    fptr: np.ndarray,
    findices: np.ndarray,
    part_arr: np.ndarray,
    s: int,
    p: int,
    extra_send: Optional[np.ndarray],
    extra_recv: Optional[np.ndarray],
    fake_total: int,
    precomputed_table: Optional[np.ndarray] = None,
    executor=None,
) -> None:
    """Columnar step 3 (charge) and step 4 (listing), zero Python sets.

    - No active fault seam, clique topology: ``learn_edges`` is charged
      from the aggregate loads and nothing is routed;
    - overlay topology: the fan-out batch is materialized for its
      per-link pricing (:meth:`CongestedClique.charge_batch`) but not
      delivered;
    - active fault seam: the batch is routed and healed
      (:meth:`CongestedClique.route_batch`) and, unless a table is
      precomputed, every delivered mailbox is listed (sharded across
      ``executor`` when there is one) and the responsible-node filter
      keeps the rows whose part multiset is the lister's own digit
      sequence — so silent corruption reaches the listing and the
      end-of-run recount.

    Otherwise step 4 is one global table — ``precomputed_table`` or one
    :func:`grouped_clique_tables` group holding the whole oriented edge
    set — attributed by :func:`_attribute_by_parts`.
    """
    n = part_arr.size
    edge_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(fptr))
    pair_of_edge = pair_index_array(part_arr[edge_src], part_arr[findices], s)
    recipients = pair_recipient_lists(s, p)
    charge_kwargs = dict(
        extra_send_words=extra_send,
        extra_recv_words=extra_recv,
        fake_edges=fake_total,
        parts=s,
    )
    faulted = clique_net.faults is not None and clique_net.faults.active
    topology = clique_net.topology
    if not faulted and (topology is None or topology.is_clique):
        send, recv, messages = fanout_loads_by_pair(
            edge_src, pair_of_edge, recipients, n
        )
        clique_net.charge_loads(
            result.ledger, "learn_edges", send, recv, messages, **charge_kwargs
        )
    else:
        batch = fanout_edges_by_pair(edge_src, findices, pair_of_edge, recipients)
        if not faulted:
            clique_net.charge_batch(
                batch, result.ledger, "learn_edges", **charge_kwargs
            )
        else:
            delivered = clique_net.route_batch(
                batch, result.ledger, "learn_edges", **charge_kwargs
            )
            if precomputed_table is None:
                lister = (
                    grouped_clique_tables if executor is None
                    else executor.grouped_tables
                )
                owners, table = lister(
                    delivered.indptr, delivered.payload, p, assume_unique=True
                )
                mine = responsible_index_array(part_arr[table], s) == owners
                result.attribute_table(owners[mine], table[mine])
                return
    table = precomputed_table
    if table is None:
        _, table = grouped_clique_tables(
            np.array([0, findices.size]),
            np.column_stack((edge_src, findices)),
            p,
            assume_unique=True,
        )
    _attribute_by_parts(result, table, part_arr, s)


def _route_and_list_object(
    result: ListingResult,
    clique_net: CongestedClique,
    graph: Graph,
    orientation,
    part_of: Tuple[int, ...],
    s: int,
    p: int,
    extra_send: Optional[np.ndarray],
    extra_recv: Optional[np.ndarray],
    fake_total: int,
    precomputed_table: Optional[np.ndarray] = None,
) -> None:
    """Tuple-plane reference: one Python tuple per (edge, recipient)."""
    recipients = [r.tolist() for r in pair_recipient_lists(s, p)]
    messages: Dict[int, List[Tuple[int, Tuple[int, int]]]] = {}
    for v in graph.nodes():
        out = orientation.out_neighbors(v)
        if not out:
            continue
        batch: List[Tuple[int, Tuple[int, int]]] = []
        for w in out:
            a, b = part_of[v], part_of[w]
            if a > b:
                a, b = b, a
            for dst in recipients[a * s - (a * (a - 1)) // 2 + (b - a)]:
                batch.append((dst, (v, w)))
        messages[v] = batch
    delivered = clique_net.route(
        messages,
        result.ledger,
        "learn_edges",
        words_per_message=2,
        extra_send_words=extra_send,
        extra_recv_words=extra_recv,
        fake_edges=fake_total,
        parts=s,
    )
    if precomputed_table is not None:
        _attribute_by_parts(
            result, precomputed_table, np.asarray(part_of, dtype=np.int64), s
        )
        return
    # One (node, members) pair per listed clique; the rows stay in pair
    # order (never canonicalized), so row i remains node owners[i]'s.
    owners: List[int] = []
    rows: List[List[int]] = []
    for node, payloads in delivered.items():
        if not payloads:
            continue
        learned = Graph(graph.num_nodes, payloads)
        for clique in enumerate_cliques(learned, p, backend="python"):
            members = sorted(clique)
            if responsible_new_id([part_of[u] for u in members], s, p) - 1 == node:
                owners.append(node)
                rows.append(members)
    result.attribute_table(
        np.asarray(owners, dtype=np.int64),
        np.asarray(rows, dtype=np.int64).reshape(-1, p),
    )
