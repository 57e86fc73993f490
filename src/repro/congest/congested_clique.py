"""CONGESTED CLIQUE model: all-to-all communication with word accounting.

In the CONGESTED CLIQUE, every pair of the n nodes (not just graph
neighbors) exchanges one O(log n)-bit word per round.  Two primitives
cover everything Theorem 1.3 needs:

- **uniform broadcast** — every node sends the same ≤ n-word vector to
  everyone: ``ceil(words / 1)`` rounds, since each of the n-1 links out of
  a node carries a dedicated copy (classic pipelining, 1 word per link per
  round means a w-word vector to all takes w rounds).
- **Lenzen routing** — an arbitrary multicommodity pattern where every
  node sends at most n·w and receives at most n·w words completes in
  O(w) rounds.  We charge ``lenzen_slack · ceil(max_load / n)``.

The class *performs* the data movement (mailboxes) and charges a ledger,
mirroring :class:`~repro.congest.routing.ClusterRouter`.  Every charge
goes through :meth:`CongestedClique.charge_loads`, a function of the
per-node word loads alone, so a pattern whose loads are known in
aggregate can be charged without being executed.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.congest.batch import DeliveredBatch, MessageBatch, bincount_loads, deliver
from repro.congest.ledger import RoundLedger
from repro.congest.routing import CostModel, DEFAULT_COST_MODEL
from repro.congest.topology import Topology, makespan_charge, makespan_for_rounds
from repro.faults.heal import heal_pattern
from repro.faults.model import FaultInjector, corrupt_batch, mangle_payload


class CongestedClique:
    """An n-node congested clique with charged primitives.

    ``faults`` optionally attaches the fault-injection seam: a
    :class:`~repro.faults.model.FaultInjector` (or a
    :class:`~repro.faults.model.FaultModel`, instantiated on the spot)
    that perturbs every routed pattern.  The router then self-heals via
    the checksummed ack-and-retry protocol of :mod:`repro.faults.heal`,
    charging recovery rounds as tagged ledger rows; with ``faults=None``
    (the default) every code path is byte-identical to the fault-free
    router.

    ``topology`` optionally routes the same traffic over a non-clique
    overlay (:mod:`repro.congest.topology`): the uniform Lenzen rounds
    stay the headline charge on every phase, and a topology-aware
    ``makespan`` (bottleneck-link words ÷ bandwidth + hop latency) is
    recorded next to them.  ``None`` or the default clique keeps every
    ledger row byte-identical to the uniform model.
    """

    def __init__(
        self,
        n: int,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        faults: Optional[Any] = None,
        topology: Optional[Topology] = None,
    ) -> None:
        if n < 1:
            raise ValueError(f"need at least one node, got {n}")
        self.n = n
        self.cost_model = cost_model
        self.topology = topology
        if faults is not None and not isinstance(faults, FaultInjector):
            faults = faults.injector()
        self.faults: Optional[FaultInjector] = faults

    # ------------------------------------------------------------------
    def route(
        self,
        messages: Mapping[int, Sequence[Tuple[int, Any]]],
        ledger: RoundLedger,
        phase: str,
        words_per_message: int = 1,
        extra_send_words: Optional[np.ndarray] = None,
        extra_recv_words: Optional[np.ndarray] = None,
        **stats: Any,
    ) -> Dict[int, List[Any]]:
        """Lenzen-route an arbitrary message pattern; charge the ledger.

        ``{src: [(dst, payload), ...]}`` with any src/dst in ``range(n)``.
        Cost: ``lenzen_slack * ceil(max(max_send, max_recv) / n)`` rounds.
        ``extra_send_words`` / ``extra_recv_words`` are optional length-n
        accounting-only loads added on top of the measured ones (the
        fake-edge padding of Theorem 1.3's proof — words that are charged
        but carry no payload); ``stats`` is merged into the phase charge.
        """
        send_load = [0] * self.n
        recv_load = [0] * self.n
        flat_src: List[int] = []
        flat_dst: List[int] = []
        flat_payload: List[Any] = []
        for src, batch in messages.items():
            self._check_node(src)
            for dst, payload in batch:
                self._check_node(dst)
                send_load[src] += words_per_message
                recv_load[dst] += words_per_message
                flat_src.append(src)
                flat_dst.append(dst)
                flat_payload.append(payload)
        self.charge_loads(
            ledger, phase, np.asarray(send_load), np.asarray(recv_load),
            len(flat_payload), extra_send_words, extra_recv_words,
            src=np.asarray(flat_src, dtype=np.int64),
            dst=np.asarray(flat_dst, dtype=np.int64),
            words_per_message=words_per_message,
            **stats,
        )
        silent = self._heal(
            ledger, phase, flat_src, flat_dst, words_per_message
        )
        delivered: Dict[int, List[Any]] = {v: [] for v in range(self.n)}
        for i, (dst, payload) in enumerate(zip(flat_dst, flat_payload)):
            if silent is not None and silent[i]:
                payload = mangle_payload(payload, self.n)
            delivered[dst].append(payload)
        return delivered

    def route_batch(
        self,
        batch: MessageBatch,
        ledger: RoundLedger,
        phase: str,
        extra_send_words: Optional[np.ndarray] = None,
        extra_recv_words: Optional[np.ndarray] = None,
        **stats: Any,
    ) -> DeliveredBatch:
        """Columnar twin of :meth:`route`: same ledger charge, zero
        per-payload Python objects.

        Loads come from one ``np.bincount`` per direction and delivery is
        an argsort-group on ``dst`` (:func:`repro.congest.batch.deliver`).
        The charged rounds and stats are bit-identical to what
        :meth:`route` charges for the same message pattern.
        """
        silent = self._charge_and_heal(
            batch, ledger, phase, extra_send_words, extra_recv_words, stats
        )
        if silent is not None and silent.any():
            batch = corrupt_batch(batch, silent, self.n)
        return deliver(batch, self.n)

    def charge_batch(
        self,
        batch: MessageBatch,
        ledger: RoundLedger,
        phase: str,
        extra_send_words: Optional[np.ndarray] = None,
        extra_recv_words: Optional[np.ndarray] = None,
        **stats: Any,
    ) -> None:
        """Validate and charge a batch pattern without delivering it.

        For callers that need the executed pattern's per-link pricing
        on an overlay topology but not its mailboxes: the ledger rounds
        and stats are exactly :meth:`route_batch`'s (same validation,
        same bincount loads, same :meth:`charge_loads`).  With a fault
        seam attached the healing loop runs here too, but nothing is
        delivered, so silent corruption has nowhere to land — faulted
        callers that list what they learn use :meth:`route_batch`.
        """
        self._charge_and_heal(
            batch, ledger, phase, extra_send_words, extra_recv_words, stats
        )

    def _charge_and_heal(
        self,
        batch: MessageBatch,
        ledger: RoundLedger,
        phase: str,
        extra_send_words: Optional[np.ndarray],
        extra_recv_words: Optional[np.ndarray],
        stats: Dict[str, Any],
    ) -> Optional[np.ndarray]:
        """Validate + charge a batch pattern, then run the healing loop.

        Returns the silent-corruption mask (None without a fault seam).
        The primary charge is always computed on the intended pattern —
        faults only ever *add* tagged recovery rows after it.
        """
        if len(batch):
            lo = int(min(batch.src.min(), batch.dst.min()))
            hi = int(max(batch.src.max(), batch.dst.max()))
            if lo < 0 or hi >= self.n:
                raise ValueError(
                    f"message endpoints outside clique of size {self.n}"
                )
        send_load, recv_load = bincount_loads(
            batch.src, batch.dst, self.n, batch.words_per_message
        )
        self.charge_loads(
            ledger, phase, send_load, recv_load, len(batch),
            extra_send_words, extra_recv_words,
            src=batch.src, dst=batch.dst,
            words_per_message=batch.words_per_message,
            **stats,
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
            space=self.n,
            n=self.n,
            words_per_message=words_per_message,
            retry_rounds=self.rounds_for_load,
        )

    def charge_loads(
        self,
        ledger: RoundLedger,
        phase: str,
        send_load: np.ndarray,
        recv_load: np.ndarray,
        messages: int,
        extra_send_words: Optional[np.ndarray] = None,
        extra_recv_words: Optional[np.ndarray] = None,
        src: Optional[np.ndarray] = None,
        dst: Optional[np.ndarray] = None,
        words_per_message: int = 1,
        **stats: Any,
    ) -> float:
        """Charge one routing step from its per-node word loads.

        The single charging path: :meth:`route`, :meth:`route_batch` and
        :meth:`charge_batch` land here with the loads they measured, and
        a driver that knows its loads in aggregate (Theorem 1.3's
        fan-out, :func:`repro.congest.batch.fanout_loads_by_pair`) calls
        it directly — the row is the same either way, because it depends
        on the loads and the message count only.  ``src``/``dst`` (the
        executed pattern) are needed only to price a non-clique overlay
        per link; without them the makespan is the uniform charge
        rescaled.  Returns the charged rounds.
        """
        if extra_send_words is not None:
            send_load = send_load + np.asarray(extra_send_words, dtype=np.int64)
        if extra_recv_words is not None:
            recv_load = recv_load + np.asarray(extra_recv_words, dtype=np.int64)
        max_send = int(send_load.max(initial=0))
        max_recv = int(recv_load.max(initial=0))
        rounds = self.rounds_for_load(max_send, max_recv)
        if src is None or dst is None:
            makespan = makespan_for_rounds(self.topology, rounds)
            overlay_stats: Dict[str, Any] = {}
        else:
            makespan, overlay_stats = makespan_charge(
                self.topology, self.n, src, dst, words_per_message, rounds
            )
        ledger.charge(
            phase,
            rounds,
            makespan=makespan,
            n=self.n,
            messages=int(messages),
            max_send_words=max_send,
            max_recv_words=max_recv,
            **stats,
            **overlay_stats,
        )
        return rounds

    def rounds_for_load(self, max_send_words: int, max_recv_words: int) -> float:
        """Lenzen charge for measured loads (0 rounds for no traffic)."""
        worst = max(max_send_words, max_recv_words)
        if worst == 0:
            return 0.0
        return self.cost_model.lenzen_slack * math.ceil(worst / self.n)

    def charge_for_word_load(
        self, ledger: RoundLedger, phase: str, max_words: int, **stats: Any
    ) -> float:
        """Charge a routing step with a precomputed max per-node load."""
        rounds = self.rounds_for_load(max_words, max_words)
        # Aggregate-only charge: no per-message pattern to route over the
        # overlay, so the makespan is the uniform charge rescaled.
        makespan = makespan_for_rounds(self.topology, rounds)
        ledger.charge(
            phase, rounds, makespan=makespan, n=self.n, max_words=max_words, **stats
        )
        return rounds

    def broadcast_rounds(self, words_per_node: int) -> float:
        """Rounds for every node to send the same w words to all others."""
        if words_per_node <= 0:
            return 0.0
        return float(words_per_node)

    def broadcast_makespan(self, words_per_node: int) -> float:
        """Topology-aware completion time of the uniform all-to-all
        broadcast: every node ships ``words_per_node`` words to every
        other node along its overlay route.  On the (default) clique
        this equals :meth:`broadcast_rounds` rescaled by link costs —
        and exactly equals it at unit bandwidth / zero latency."""
        rounds = self.broadcast_rounds(words_per_node)
        if self.topology is None or self.topology.is_clique:
            return makespan_for_rounds(self.topology, rounds)
        compiled = self.topology.compile(self.n)
        return compiled.broadcast_charge(int(words_per_node)).makespan

    def charge_broadcast(
        self, ledger: RoundLedger, phase: str, words_per_node: int, **stats: Any
    ) -> float:
        """Charge the uniform all-to-all broadcast with both cost views."""
        rounds = self.broadcast_rounds(words_per_node)
        ledger.charge(
            phase,
            rounds,
            makespan=self.broadcast_makespan(words_per_node),
            n=self.n,
            words_per_node=int(words_per_node),
            **stats,
        )
        return rounds

    # ------------------------------------------------------------------
    def _check_node(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"node {v} outside clique of size {self.n}")
