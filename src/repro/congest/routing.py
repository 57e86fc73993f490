"""Charged communication primitives for the CONGEST algorithms.

The paper invokes two black-box communication results:

- **Theorem 2.4 (intra-cluster routing)** — inside an n^δ-cluster, if
  every node sends and receives at most O(n^δ) messages, all of them can
  be routed in Õ(1) rounds (using only cluster edges, so clusters route in
  parallel).  More generally a load of L per node costs ⌈L/n^δ⌉·Õ(1).
- **neighbor broadcast** — a node with M messages for its neighbors needs
  max-per-edge-congestion rounds; this is elementary pipelining.

:class:`ClusterRouter` *performs* such routing steps (moving payloads
between per-node mailboxes) and charges the theorem's cost using the
measured loads.  The polylog slack of the theorem is represented by
:class:`CostModel`, which is explicit and configurable so the benchmarks
can report both "pure" (slack = 1) and "with polylog" charges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.congest.batch import DeliveredBatch, MessageBatch, bincount_loads, deliver
from repro.congest.ledger import RoundLedger
from repro.congest.topology import Topology, makespan_charge, makespan_for_rounds
from repro.faults.heal import heal_pattern
from repro.faults.model import FaultInjector, corrupt_batch, mangle_payload


@dataclass(frozen=True)
class CostModel:
    """Round-cost parameters for the charged primitives.

    Attributes
    ----------
    routing_slack:
        Multiplier standing in for the Õ(1)/2^{O(√log n)} factor of
        Theorem 2.4.  ``None`` (default) uses ``log2(n)``; a callable maps
        n to a factor; a number is used verbatim.
    lenzen_slack:
        Constant factor for Lenzen routing in the CONGESTED CLIQUE
        (2 covers the two phases of Lenzen's scheme).
    """

    routing_slack: Optional[Any] = None
    lenzen_slack: float = 2.0

    def __post_init__(self) -> None:
        slack = self.routing_slack
        if slack is not None and not callable(slack):
            if isinstance(slack, bool) or not isinstance(slack, (int, float)):
                raise TypeError(
                    f"routing_slack must be None (log2(n) default), a callable "
                    f"n -> factor, or a number; got {type(slack).__name__} "
                    f"{slack!r}"
                )
            if not math.isfinite(slack) or slack <= 0:
                raise ValueError(
                    f"routing_slack must be a positive finite factor, got {slack!r}"
                )
        if (
            isinstance(self.lenzen_slack, bool)
            or not isinstance(self.lenzen_slack, (int, float))
            or not math.isfinite(self.lenzen_slack)
            or self.lenzen_slack <= 0
        ):
            raise ValueError(
                f"lenzen_slack must be a positive finite number, "
                f"got {self.lenzen_slack!r}"
            )

    def routing_factor(self, n: int) -> float:
        """The Õ(1) slack used for intra-cluster routing charges."""
        if self.routing_slack is None:
            return max(1.0, math.log2(max(2, n)))
        if callable(self.routing_slack):
            return float(self.routing_slack(n))
        return float(self.routing_slack)


DEFAULT_COST_MODEL = CostModel()


def broadcast_rounds(per_edge_words: Mapping[Tuple[int, int], int]) -> int:
    """Rounds to clear the given per-directed-edge word loads by pipelining.

    This is the elementary CONGEST fact: a directed edge carries one word
    per round, so a phase where edge (u, v) must carry ``w`` words costs
    ``max w`` rounds (all edges work in parallel).
    """
    if not per_edge_words:
        return 0
    worst = max(per_edge_words.values())
    if worst < 0:
        raise ValueError("negative edge load")
    return int(worst)


class ClusterRouter:
    """Executes and charges intra-cluster routing (Theorem 2.4).

    Parameters
    ----------
    cluster_nodes:
        The nodes of the cluster C.
    capacity:
        The per-node per-Õ(1)-rounds throughput, i.e. the n^δ of the
        cluster guarantee.  The expander decomposition supplies the actual
        minimum cluster degree here, which is the real bandwidth the
        routing theorem exploits.
    n:
        Global number of nodes (for the polylog factor).
    cost_model:
        Slack configuration.
    topology:
        Overlay network the cluster's traffic is routed over (see
        ``repro.congest.topology``).  ``None`` or the default clique
        leaves every charge byte-identical to the uniform model; other
        overlays additionally report a per-link ``makespan`` on each
        charged phase.

    The router is also the bookkeeping point for the *mailboxes*: each
    cluster node has a dict-like knowledge store that routing phases
    append to.
    """

    def __init__(
        self,
        cluster_nodes: Iterable[int],
        capacity: int,
        n: int,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        faults: Optional[Any] = None,
        topology: Optional[Topology] = None,
    ) -> None:
        self.nodes: List[int] = sorted(cluster_nodes)
        if not self.nodes:
            raise ValueError("cluster must contain at least one node")
        if capacity < 1:
            raise ValueError(f"cluster capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.n = n
        self.cost_model = cost_model
        self.topology = topology
        self._node_set = set(self.nodes)
        # Optional fault seam: a FaultInjector (or FaultModel) that
        # perturbs routed patterns; the router heals via ack-and-retry,
        # charging recovery-tagged rows.  None = fault-free, unchanged.
        if faults is not None and not isinstance(faults, FaultInjector):
            faults = faults.injector()
        self.faults: Optional[FaultInjector] = faults

    def route(
        self,
        messages: Mapping[int, Sequence[Tuple[int, Any]]],
        ledger: RoundLedger,
        phase: str,
        words_per_message: int = 1,
    ) -> Dict[int, List[Any]]:
        """Deliver ``messages`` inside the cluster and charge rounds.

        Parameters
        ----------
        messages:
            ``{src: [(dst, payload), ...]}``; both endpoints must be
            cluster members (Theorem 2.4 only uses cluster edges).
        ledger / phase:
            Where to charge.
        words_per_message:
            Uniform message size in words (an edge payload is 2).

        Returns
        -------
        ``{dst: [payloads in arrival order]}``.
        """
        send_load: Dict[int, int] = {v: 0 for v in self.nodes}
        recv_load: Dict[int, int] = {v: 0 for v in self.nodes}
        flat_src: List[int] = []
        flat_dst: List[int] = []
        flat_payload: List[Any] = []
        for src, batch in messages.items():
            if src not in self._node_set:
                raise ValueError(f"source {src} is not a member of the cluster")
            for dst, payload in batch:
                if dst not in self._node_set:
                    raise ValueError(f"destination {dst} is not in the cluster")
                send_load[src] += words_per_message
                recv_load[dst] += words_per_message
                flat_src.append(src)
                flat_dst.append(dst)
                flat_payload.append(payload)
        rounds = self.rounds_for_load(send_load, recv_load)
        makespan, overlay_stats = makespan_charge(
            self.topology,
            self.n,
            np.asarray(flat_src, dtype=np.int64),
            np.asarray(flat_dst, dtype=np.int64),
            words_per_message,
            rounds,
        )
        ledger.charge(
            phase,
            rounds,
            makespan=makespan,
            cluster_size=len(self.nodes),
            capacity=self.capacity,
            messages=len(flat_payload),
            max_send_words=max(send_load.values(), default=0),
            max_recv_words=max(recv_load.values(), default=0),
            **overlay_stats,
        )
        silent = self._heal(ledger, phase, flat_src, flat_dst, words_per_message)
        delivered: Dict[int, List[Any]] = {v: [] for v in self.nodes}
        for i, (dst, payload) in enumerate(zip(flat_dst, flat_payload)):
            if silent is not None and silent[i]:
                payload = mangle_payload(payload, self.n)
            delivered[dst].append(payload)
        return delivered

    def route_batch(
        self, batch: MessageBatch, ledger: RoundLedger, phase: str
    ) -> DeliveredBatch:
        """Columnar twin of :meth:`route` (Theorem 2.4, batch plane).

        Membership checks, load accounting and delivery are all array
        operations; the ledger charge (rounds *and* stats) is bit-
        identical to what :meth:`route` records for the same pattern.
        Mailboxes of non-members stay empty by construction, so the
        returned :class:`DeliveredBatch` is indexed by global node id
        exactly like the tuple plane's ``{dst: payloads}`` dict.
        """
        silent = self._charge_and_heal(batch, ledger, phase)
        if silent is not None and silent.any():
            batch = corrupt_batch(batch, silent, self.n)
        return deliver(batch, self._member_space())

    def charge_batch(
        self, batch: MessageBatch, ledger: RoundLedger, phase: str
    ) -> None:
        """Validate and charge a batch pattern without central delivery —
        the Theorem 2.4 twin of
        :meth:`~repro.congest.congested_clique.CongestedClique.charge_batch`,
        for phases whose mailbox fill is sharded worker-side by a shard
        executor.  Rounds and stats are bit-identical to
        :meth:`route_batch` for the same pattern.
        """
        self._charge_and_heal(batch, ledger, phase)

    def _charge_and_heal(
        self, batch: MessageBatch, ledger: RoundLedger, phase: str
    ) -> Optional[np.ndarray]:
        """Validate + charge a batch, then run the healing loop.

        The primary charge always reflects the intended pattern; the
        fault seam only appends recovery-tagged rows after it.  Returns
        the silent-corruption mask (None without a seam).
        """
        members = np.asarray(self.nodes, dtype=np.int64)
        if len(batch):
            if not bool(np.isin(batch.src, members).all()):
                raise ValueError("a batch source is not a member of the cluster")
            if not bool(np.isin(batch.dst, members).all()):
                raise ValueError("a batch destination is not in the cluster")
        send_load, recv_load = bincount_loads(
            batch.src, batch.dst, self._member_space(), batch.words_per_message
        )
        max_send = int(send_load.max(initial=0))
        max_recv = int(recv_load.max(initial=0))
        rounds = self.rounds_for_load({0: max_send}, {0: max_recv})
        makespan, overlay_stats = makespan_charge(
            self.topology,
            self.n,
            batch.src,
            batch.dst,
            batch.words_per_message,
            rounds,
        )
        ledger.charge(
            phase,
            rounds,
            makespan=makespan,
            cluster_size=len(self.nodes),
            capacity=self.capacity,
            messages=len(batch),
            max_send_words=max_send,
            max_recv_words=max_recv,
            **overlay_stats,
        )
        return self._heal(
            ledger, phase, batch.src, batch.dst, batch.words_per_message
        )

    def _heal(
        self,
        ledger: RoundLedger,
        phase: str,
        src: Any,
        dst: Any,
        words_per_message: int,
    ) -> Optional[np.ndarray]:
        """Ack-and-retry loop for one routed pattern (no-op sans seam)."""
        if self.faults is None or not self.faults.active:
            return None
        return heal_pattern(
            self.faults,
            ledger,
            phase,
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            space=self._member_space(),
            n=self.n,
            words_per_message=words_per_message,
            retry_rounds=lambda ms, mr: self.rounds_for_load({0: ms}, {0: mr}),
        )

    def _member_space(self) -> int:
        """Delivery index space: mailboxes are indexed by global id."""
        return self.nodes[-1] + 1 if self.nodes else 1

    def rounds_for_load(
        self, send_load: Mapping[int, int], recv_load: Mapping[int, int]
    ) -> float:
        """Theorem 2.4 charge for measured per-node word loads.

        ⌈L / capacity⌉ · slack(n), where L is the max over nodes of
        send/receive words.  Zero load costs zero rounds.
        """
        worst = 0
        if send_load:
            worst = max(worst, max(send_load.values()))
        if recv_load:
            worst = max(worst, max(recv_load.values()))
        if worst == 0:
            return 0.0
        batches = math.ceil(worst / self.capacity)
        return batches * self.cost_model.routing_factor(self.n)

    def charge_for_word_load(
        self, ledger: RoundLedger, phase: str, max_words: int, **stats: Any
    ) -> float:
        """Charge for a routing step whose max per-node load is known.

        Convenience for phases that compute loads themselves (e.g. the
        final "learn edges between my parts" step, where the receive load
        is the number of edges between assigned parts).
        """
        rounds = self.rounds_for_load({0: max_words}, {})
        # No per-message pattern is available here: the caller only
        # reports an aggregate load, so the makespan is the uniform
        # charge rescaled by the topology's link costs.
        makespan = makespan_for_rounds(self.topology, rounds)
        ledger.charge(
            phase,
            rounds,
            makespan=makespan,
            cluster_size=len(self.nodes),
            capacity=self.capacity,
            max_words=max_words,
            **stats,
        )
        return rounds
