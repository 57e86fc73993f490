"""The always-on clique query service.

:class:`CliqueService` turns the streaming engine into a served system:
a single writer ingests update batches while a pool of query workers
answers concurrent reads — per-p counts, clique listings, per-node
learned subgraphs — with **snapshot isolation**:

- after every applied batch the writer *publishes* a fresh
  :class:`~repro.serve.epoch.EpochSnapshot` (immutable base CSR +
  frozen overlay view + frozen counts/tables);
- a read *pins* the newest published epoch for its whole execution, so
  it can never observe a half-applied batch — reads that start before a
  batch commits answer from the pre-batch epoch, reads that start after
  answer from the post-batch one, and nothing in between exists;
- an epoch is garbage-collected the moment its last reader releases it
  and a newer epoch has been published (the current epoch is always
  retained as the target of the next pin).

Reads never touch the live engine at all — the structural guarantee
behind the "reads must not mutate" bugfixes in
:mod:`repro.stream.engine` — and the writer never waits for readers.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Union

from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.serve.epoch import EpochSnapshot
from repro.serve.traffic import Request
from repro.stream.engine import StreamEngine
from repro.stream.log import UpdateBatch


@dataclass(frozen=True)
class Response:
    """One answered read: the value plus the epoch that produced it."""

    request: Request
    value: object
    epoch: int


@dataclass
class ServeStats:
    """Observable service counters (all monotone except ``live_epochs``)."""

    published: int = 0
    retired: int = 0
    max_live: int = 0
    reads: int = 0
    ingests: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)


class CliqueService:
    """Concurrent read front end + serialized ingest over a
    :class:`~repro.stream.engine.StreamEngine`.

    Parameters
    ----------
    graph:
        Initial state — a :class:`Graph` / :class:`CSRGraph`, or an
        existing :class:`StreamEngine` to front.
    ps:
        Clique sizes to serve (each tracked with full listings, so
        counts, clique sets and listing runs are all answerable).
    compact_every / workers / recount_on_compact:
        Forwarded to the engine when ``graph`` is not already one.
    query_threads:
        Worker threads answering reads; ingest always runs on the
        caller's thread under the writer lock.
    materialize:
        When ``True`` (default, the legacy behavior) ``cliques`` reads
        answer with a ``frozenset`` of frozensets.  When ``False`` they
        answer with the epoch's frozen
        :class:`~repro.graphs.table.CliqueTable` directly — zero
        python-object materialization on the read path (``repro.cli
        serve`` defaults to this).
    """

    def __init__(
        self,
        graph: Union[Graph, CSRGraph, StreamEngine],
        ps: Sequence[int] = (3,),
        compact_every: int = 256,
        workers: int = 1,
        recount_on_compact: bool = False,
        query_threads: int = 4,
        materialize: bool = True,
    ) -> None:
        if query_threads < 1:
            raise ValueError(f"query_threads must be >= 1, got {query_threads}")
        if isinstance(graph, StreamEngine):
            self.engine = graph
        else:
            self.engine = StreamEngine(
                graph,
                compact_every=compact_every,
                workers=workers,
                recount_on_compact=recount_on_compact,
            )
        ps = sorted({int(p) for p in ps})
        if not ps:
            raise ValueError("the service needs at least one clique size to serve")
        for p in ps:
            self.engine.track(p, listing=True)
        self.query_threads = int(query_threads)
        self.materialize = bool(materialize)
        self.stats = ServeStats()
        self._write_lock = threading.Lock()
        self._reg_lock = threading.Lock()
        self._pins: Dict[int, int] = {}  # epoch -> active reader count
        self._epochs: Dict[int, EpochSnapshot] = {}
        self._pool: Optional[ThreadPoolExecutor] = None
        self._current = self._build_snapshot()
        self._epochs[self._current.epoch] = self._current
        self._pins[self._current.epoch] = 0
        self.stats.published = 1
        self.stats.max_live = 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.engine.num_nodes

    def tracked_ps(self):
        return self.engine.tracked_ps()

    @property
    def current_epoch(self) -> int:
        with self._reg_lock:
            return self._current.epoch

    def live_epochs(self) -> int:
        """How many epochs are currently retained (pinned or current)."""
        with self._reg_lock:
            return len(self._epochs)

    def __repr__(self) -> str:
        return (
            f"CliqueService(n={self.num_nodes}, ps={sorted(self.tracked_ps())}, "
            f"epoch={self.current_epoch}, live={self.live_epochs()})"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "CliqueService":
        """Spin up the query worker pool (idempotent) and prewarm the
        shard executor when the engine is configured with workers."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.query_threads, thread_name_prefix="serve-query"
            )
        from repro.core.config import ExecutionConfig

        executor = ExecutionConfig(workers=self.engine.workers).resolve_executor()
        if executor is not None:
            executor.prewarm()
        return self

    def stop(self) -> None:
        """Drain and shut down the query pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "CliqueService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Ingest (single writer)
    # ------------------------------------------------------------------
    def ingest(self, batch: UpdateBatch):
        """Apply one update batch and publish the next epoch.

        Serialized under the writer lock; in-flight reads keep answering
        from the epochs they pinned and are never blocked by this.
        """
        with self._write_lock:
            result = self.engine.apply(batch)
            snapshot = self._build_snapshot()
            with self._reg_lock:
                previous = self._current
                self._current = snapshot
                self._epochs[snapshot.epoch] = snapshot
                self._pins.setdefault(snapshot.epoch, 0)
                self.stats.published += 1
                self.stats.ingests += 1
                self.stats.max_live = max(self.stats.max_live, len(self._epochs))
                self._maybe_retire(previous.epoch)
            return result

    def _build_snapshot(self) -> EpochSnapshot:
        engine = self.engine
        # The engine's maintained CliqueTable objects ride into the
        # epoch as-is (immutable, replaced-not-mutated on change), so
        # consecutive epochs with an unchanged K_p share one table and
        # one lazily materialized frozenset.
        return EpochSnapshot(
            epoch=engine.epoch,
            view=engine.frozen_view(),
            counts=engine.counts(),
            tables={p: engine.clique_result(p) for p in sorted(engine.listed_ps())},
        )

    # ------------------------------------------------------------------
    # Epoch pinning
    # ------------------------------------------------------------------
    def pin(self) -> EpochSnapshot:
        """Pin and return the newest published epoch.  The caller must
        :meth:`release` it (or use :meth:`read`)."""
        with self._reg_lock:
            snapshot = self._current
            self._pins[snapshot.epoch] += 1
            return snapshot

    def release(self, snapshot: EpochSnapshot) -> None:
        """Drop one pin; a fully released non-current epoch is retired."""
        with self._reg_lock:
            count = self._pins.get(snapshot.epoch)
            if count is None or count < 1:
                raise ValueError(
                    f"epoch {snapshot.epoch} is not pinned (double release?)"
                )
            self._pins[snapshot.epoch] = count - 1
            self._maybe_retire(snapshot.epoch)

    def _maybe_retire(self, epoch: int) -> None:
        # Caller holds _reg_lock.  The current epoch is always retained.
        if epoch != self._current.epoch and self._pins.get(epoch, 0) == 0:
            self._epochs.pop(epoch, None)
            self._pins.pop(epoch, None)
            self.stats.retired += 1

    @contextmanager
    def read(self) -> Iterator[EpochSnapshot]:
        """``with service.read() as epoch:`` — pin for the block."""
        snapshot = self.pin()
        try:
            yield snapshot
        finally:
            self.release(snapshot)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Response:
        """Answer one read synchronously on the calling thread.

        The epoch is pinned when execution *starts* (not when the
        request was scheduled), exactly like a request picked off a
        server's accept queue.
        """
        with self.read() as epoch:
            if request.kind == "count":
                value = epoch.count(request.p)
            elif request.kind == "cliques":
                value = (
                    epoch.cliques(request.p)
                    if self.materialize
                    else epoch.table(request.p)
                )
            elif request.kind == "learned":
                value = epoch.learned(request.node, request.p, seed=request.seed)
            else:
                raise ValueError(f"unknown request kind {request.kind!r}")
            with self._reg_lock:
                self.stats.reads += 1
                self.stats.by_kind[request.kind] = (
                    self.stats.by_kind.get(request.kind, 0) + 1
                )
            return Response(request=request, value=value, epoch=epoch.epoch)

    def submit(self, request: Request) -> "Future[Response]":
        """Queue one read on the worker pool; returns a future."""
        if self._pool is None:
            raise RuntimeError(
                "the service is not started; use `with CliqueService(...)`"
                " or call start()"
            )
        return self._pool.submit(self.handle, request)
