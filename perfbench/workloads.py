"""The four benchmark workloads: inputs, timed window and output checks.

Every workload has the same three steps:

- ``generate(seed, seconds)`` draws the inputs (an edge list, update
  batches, a request schedule) from the seed.  Nothing the library
  computes is part of the inputs;
- ``measure(inputs, seconds, tracer)`` sets the system up several times
  and runs the timed window.  Outputs are kept for the checks, which run
  after the window so that they cost no measured time;
- ``check(inputs, window)`` compares the outputs with references computed
  from scratch and returns one message per failed check.

``end_to_end(window)`` then names the user-visible numbers, and
``layer_extras(window, tracer)`` adds the per-layer numbers a workload
reads off its own objects (ledgers, service counters, queue waits).
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import wait as wait_futures
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

import repro
from repro.graphs.cliques import clique_table
from repro.graphs.graph import Graph
from repro.serve.driver import percentile, run_open_loop
from repro.serve.service import CliqueService
from repro.serve.traffic import create_traffic
from repro.stream import QueryEngine, StreamEngine, UpdateBatch
from repro.workloads import create_workload

from perfbench import layers
from perfbench.tracer import SETUP, Tracer


#: The sampler's program: every ``period`` seconds it reads the anonymous
#: resident pages of process ``pid`` (resident minus file-backed, from
#: ``/proc/<pid>/statm``) into a running maximum.  Each line on its stdin
#: asks for the maximum since the previous line, in MB, and restarts it;
#: end of input stops it.
_SAMPLER = r"""
import os, select, sys
fd = os.open(f"/proc/{sys.argv[1]}/statm", os.O_RDONLY)
period, mb = float(sys.argv[2]), os.sysconf("SC_PAGE_SIZE") / 2**20
def anon():
    fields = os.pread(fd, 256, 0).split()
    return int(fields[1]) - int(fields[2])
peak = anon()
print("ready", flush=True)
while True:
    peak = max(peak, anon())
    if select.select([0], [], [], period)[0]:
        if not os.read(0, 64):
            break
        print(max(peak, anon()) * mb, flush=True)
        peak = anon()
"""


class PeakRSS:
    """Peak anonymous resident memory of this process, sampled by a
    child process every millisecond.

    The kernel's own high-water mark (``ru_maxrss``) counts the pages of
    mapped files too (Python, numpy, BLAS: about 30 MB), which the host
    reclaims under memory pressure from other processes; the heap is
    what the program controls.  The sampler is a process, not a thread,
    so it also sees peaks inside calls that hold the GIL.  ``lap()``
    returns the peak since the previous lap (or since the start).
    Without ``/proc`` every lap is ``ru_maxrss``.
    """

    def __init__(self, period: float = 0.001) -> None:
        self.period = period
        self._child: Optional[subprocess.Popen] = None

    def __enter__(self) -> "PeakRSS":
        if os.path.exists(f"/proc/{os.getpid()}/statm"):
            self._child = subprocess.Popen(
                [sys.executable, "-c", _SAMPLER, str(os.getpid()), str(self.period)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            try:
                if self._child.stdout.readline().strip() != "ready":
                    raise RuntimeError("perfbench: the memory sampler did not start")
            except BaseException:
                self._stop()
                raise
        return self

    def lap(self) -> float:
        if self._child is None:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        return float(self._child.stdout.readline())

    def _stop(self) -> None:
        child, self._child = self._child, None
        try:
            child.stdin.close()
            child.wait(timeout=10)
        except BaseException:
            child.kill()
            child.wait()
        finally:
            child.stdout.close()

    def __exit__(self, *exc) -> None:
        if self._child is not None:
            self._stop()


def er_edges(n: int, density: float, seed: int) -> np.ndarray:
    """The edge list of the repo's ``er`` workload instance, as a
    ``(m, 2)`` array — the only form in which a graph reaches a run."""
    graph = create_workload("er", density=density).instance(n, seed=seed)
    return np.asarray(sorted(graph.edges()), dtype=np.int64).reshape(-1, 2)


def build_graph(n: int, edges: np.ndarray) -> Graph:
    return Graph(n, map(tuple, edges.tolist()))


def churn_batches(
    edges: np.ndarray, churn: int, count: int, rng: np.random.Generator
) -> List[UpdateBatch]:
    """Batches that each delete ``churn`` live edges and re-insert the
    previous batch's deletions, so the edge count stays level."""
    alive = [tuple(e) for e in edges.tolist()]
    previous: List[tuple] = []
    batches = []
    for _ in range(count):
        picked = sorted(rng.choice(len(alive), size=churn, replace=False).tolist(), reverse=True)
        dropped = []
        for i in picked:  # swap-remove, highest index first
            dropped.append(alive[i])
            alive[i] = alive[-1]
            alive.pop()
        batches.append(
            UpdateBatch.concat([UpdateBatch.deletes(dropped), UpdateBatch.inserts(previous)])
            if previous else UpdateBatch.deletes(dropped)
        )
        alive.extend(previous)
        previous = dropped
    return batches


def replay(n: int, edges: np.ndarray, batches: List[UpdateBatch]) -> Graph:
    """The graph after applying ``batches`` to ``edges`` from scratch."""
    graph = build_graph(n, edges)
    for batch in batches:
        apply_to_graph(graph, batch)
    return graph


def apply_to_graph(graph: Graph, batch: UpdateBatch) -> None:
    ins, dels = batch.net_against(graph.has_edge)
    graph.remove_edges(map(tuple, dels.tolist()))
    graph.add_edges(map(tuple, ins.tolist()))


@contextmanager
def traced_op(tracer: Optional[Tracer], op_id: Any):
    """Tag the block's spans with ``op_id`` and record it as one span."""
    if tracer is None:
        yield
        return
    with tracer.op(op_id), tracer.span("bench.setup" if op_id == SETUP else "bench.op"):
        yield


def _more(window: "Window", deadline: float, min_ops: int, ops: Optional[int]) -> bool:
    """Whether a closed loop times another operation: a fixed ``ops`` if
    given, else until the deadline has passed and ``min_ops`` are done."""
    if ops is not None:
        return window.ops < ops
    return time.perf_counter() < deadline or window.ops < min_ops


def set_up(window: "Window", count: int, build, tracer: Optional[Tracer],
           discard=lambda built: None):
    """Time ``count`` set-ups into ``window.setup_s``; keep the last one.

    Each set-up starts from a collected heap, so none of them pays for
    collecting the garbage of the one before.
    """
    built = None
    for _ in range(count):
        if built is not None:
            discard(built)
        gc.collect()
        with traced_op(tracer, SETUP):
            start = time.perf_counter()
            built = build()
            window.setup_s.append(time.perf_counter() - start)
    return built


def fingerprint(result) -> tuple:
    """Clique count, rounds and an order-free hash of the listed cliques:
    equal for two runs that list the same set and charge the same."""
    cliques = result.cliques
    return len(cliques), result.rounds, sum(map(hash, cliques)) & (2**64 - 1)


@dataclass
class Window:
    """What one timed window leaves for the metrics and the checks."""

    setup_s: List[float]
    latency_s: List[float] = field(default_factory=list)
    work: float = 0.0            # edges listed, updates applied, reads answered
    busy_s: float = 0.0          # the time ``work`` took
    rounds: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0     # peak heap in the timed window, see PeakRSS
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    state: Dict[str, Any] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.latency_s)


class Workload:
    """Shared shape; see the module docstring."""

    name = ""
    #: Nearest-rank percentile reported as ``latency_ms_tail``.
    tail_q = 90.0
    setups = 9

    def end_to_end(self, window: Window) -> Dict[str, float]:
        lat = window.latency_s
        return {
            "setup_s": statistics.median(window.setup_s),
            "latency_ms_p50": 1e3 * statistics.median(lat),
            "latency_ms_tail": 1e3 * percentile(lat, self.tail_q),
            "throughput_per_s": window.work / window.busy_s,
            "charged_rounds": statistics.median(window.rounds),
            "peak_rss_mb": window.peak_rss_mb,
        }

    def prepare(self, inputs) -> Optional[Window]:
        """Checks that must pass before anything is timed."""
        return None

    def same_output(self, a: Window, b: Window) -> List[str]:
        """Problems if two windows over the same inputs disagree."""
        if a.rounds != b.rounds:
            return [f"{self.name}: charged rounds {a.rounds[:1]!r} != {b.rounds[:1]!r}"]
        return []

    def layer_extras(self, window: Window, tracer: Tracer) -> Dict[str, float]:
        """Ledger phases of the run ``charged_rounds`` comes from."""
        return layers.ledger_rounds(window.state["ledger"])


# ----------------------------------------------------------------------
# Theorem drivers: closed loop, one caller
# ----------------------------------------------------------------------
class DriverWorkload(Workload):
    """One caller lists every K_p of one ER graph, call after call.

    Each call gets a freshly built :class:`Graph` (the graph caches its
    CSR snapshot, so reusing one would skip the CSR build after the
    first call); building it is the set-up.
    """

    def __init__(self, name: str, model: str, n: int, density: float,
                 p: int = 4, min_ops: int = 3) -> None:
        self.name, self.model, self.n, self.density = name, model, n, density
        self.p, self.min_ops = p, min_ops

    def generate(self, seed: int, seconds: float) -> Dict[str, Any]:
        return {"edges": er_edges(self.n, self.density, seed)}

    def measure(self, inputs, seconds: float, tracer: Optional[Tracer] = None,
                ops: Optional[int] = None) -> Window:
        edges = inputs["edges"]
        window = Window(setup_s=[])
        set_up(window, self.setups, lambda: build_graph(self.n, edges), tracer)
        # The untimed first call warms code paths and the allocator; its
        # listing is the one check() compares with clique_table, and every
        # timed call must reproduce it exactly.
        with traced_op(tracer, SETUP):
            first = repro.list_cliques(build_graph(self.n, edges), self.p, model=self.model)
        window.attempted += 1
        window.state.update(table=first.table(), ledger=first.ledger)
        expected = fingerprint(first)
        del first
        with PeakRSS() as rss:
            peaks = self._timed_calls(window, edges, expected, seconds, tracer, ops, rss)
        # The median call, so that no single call's outlier sets the figure.
        window.peak_rss_mb = statistics.median(peaks) if peaks else 0.0
        return window

    def _timed_calls(self, window: Window, edges: np.ndarray, expected: tuple,
                     seconds: float, tracer: Optional[Tracer], ops: Optional[int],
                     rss: PeakRSS) -> List[float]:
        """Run the timed calls; return the peak heap of each."""
        peaks = []
        deadline = time.perf_counter() + seconds
        while _more(window, deadline, self.min_ops, ops):
            i = window.ops
            # Untimed: no call collects the garbage of the call before it,
            # and none runs while the previous graph is still alive, so
            # the peak resident set is that of one call, not of two.
            graph = None
            gc.collect()
            graph = build_graph(self.n, edges)
            window.attempted += 1
            rss.lap()
            try:
                with traced_op(tracer, i):
                    start = time.perf_counter()
                    result = repro.list_cliques(graph, self.p, model=self.model)
                    elapsed = time.perf_counter() - start
            except Exception as exc:  # counted as failed; the run stops
                window.failed += 1
                window.problems.append(f"{self.name}: call {i} raised {exc!r}")
                break
            peaks.append(rss.lap())
            window.latency_s.append(elapsed)
            window.busy_s += elapsed
            window.work += graph.num_edges
            window.rounds.append(result.rounds)
            if fingerprint(result) != expected:
                window.failed += 1
                window.problems.append(f"{self.name}: call {i} differs from the first call")
            del result
        return peaks

    def check(self, inputs, window: Window) -> List[str]:
        reference = inputs.get("reference")
        if reference is None:
            reference = inputs["reference"] = clique_table(
                build_graph(self.n, inputs["edges"]), self.p
            )
        if window.state["table"] != reference:
            # Every timed call reproduced the first, so all are wrong.
            window.failed = window.attempted
            return [
                f"{self.name}: listing has {len(window.state['table'])} cliques, "
                f"clique_table has {len(reference)}"
            ]
        return []

    def same_output(self, a: Window, b: Window) -> List[str]:
        problems = super().same_output(a, b)
        if a.state["table"] != b.state["table"]:
            problems.append(f"{self.name}: traced and untraced listings differ")
        return problems


# ----------------------------------------------------------------------
# Stream churn: closed-loop replay through the caching query engine
# ----------------------------------------------------------------------
class StreamChurn(Workload):
    """Batches of deletes and re-inserts through :class:`QueryEngine`,
    with reads of ``count(3)``, ``count(4)`` and ``clique_table(3)``
    after each batch.  K3 is maintained with its listing, K4 as a count.
    """

    name = "stream-churn"

    def __init__(self, n: int = 1500, density: float = 0.05, churn: int = 48,
                 min_ops: int = 100, max_ops: int = 1000, warmup: int = 10) -> None:
        self.n, self.density, self.churn = n, density, churn
        self.min_ops, self.max_ops, self.warmup = min_ops, max_ops, warmup

    def generate(self, seed: int, seconds: float) -> Dict[str, Any]:
        edges = er_edges(self.n, self.density, seed)
        rng = np.random.default_rng([seed, 1])
        return {"edges": edges, "batches": churn_batches(edges, self.churn, self.max_ops, rng)}

    def _setup(self, edges: np.ndarray) -> QueryEngine:
        engine = StreamEngine(build_graph(self.n, edges))
        engine.track(3, listing=True)
        engine.track(4)
        return QueryEngine(engine)

    def measure(self, inputs, seconds: float, tracer: Optional[Tracer] = None,
                ops: Optional[int] = None) -> Window:
        window = Window(setup_s=[])
        queries = set_up(window, self.setups, lambda: self._setup(inputs["edges"]), tracer)
        batches = inputs["batches"]
        with traced_op(tracer, SETUP):
            # Untimed batches first, so allocator and caches are warm.
            for batch in batches[: self.warmup]:
                queries.apply(batch)
                queries.clique_table(3)
        window.attempted = self.warmup
        hits, misses = queries.hits, queries.misses
        gc.collect()  # the timed batches do not collect the set-up's garbage
        with PeakRSS() as rss:
            deadline = time.perf_counter() + seconds
            while _more(window, deadline, self.min_ops, ops) and window.attempted < len(batches):
                i, batch = window.ops, batches[window.attempted]
                window.attempted += 1
                with traced_op(tracer, i):
                    start = time.perf_counter()
                    queries.apply(batch)
                    k3 = queries.count(3)
                    queries.count(4)
                    rows = queries.clique_table(3)
                    elapsed = time.perf_counter() - start
                window.latency_s.append(elapsed)
                window.busy_s += elapsed
                window.work += len(batch)
                if k3 != rows.shape[0]:
                    window.failed += 1
                    window.problems.append(f"{self.name}: batch {i}: count(3) {k3} != {rows.shape[0]} rows")
            window.peak_rss_mb = rss.lap()
        hits, misses = queries.hits - hits, queries.misses - misses
        window.state.update(queries=queries, hit_frac=layers.ratio(hits, hits + misses))
        return window

    def check(self, inputs, window: Window) -> List[str]:
        """The maintained K3 listing and K3/K4 counts against a recount
        of the final graph, rebuilt from the input edges and batches."""
        queries = window.state["queries"]
        final = replay(self.n, inputs["edges"], inputs["batches"][: window.attempted])
        truth3 = clique_table(final, 3)
        truth4 = len(clique_table(final, 4))
        problems = []
        if queries.clique_result(3) != truth3 or queries.count(3) != len(truth3):
            problems.append(f"{self.name}: K3 listing drifted from a recount")
        if queries.count(4) != truth4:
            problems.append(f"{self.name}: K4 count {queries.count(4)} != recount {truth4}")
        if problems:
            window.failed = window.attempted
        # The paper's cost of listing the final graph: the Theorem 1.3
        # run the stream plane answers ``listing_result`` with.
        result = queries.listing_result(3)
        window.rounds.append(result.rounds)
        window.state.update(ledger=result.ledger, table=truth3)
        return problems

    def same_output(self, a: Window, b: Window) -> List[str]:
        problems = super().same_output(a, b)
        if a.state["queries"].clique_result(3) != b.state["queries"].clique_result(3):
            problems.append(f"{self.name}: traced and untraced K3 listings differ")
        return problems

    def layer_extras(self, window: Window, tracer: Tracer) -> Dict[str, float]:
        return {
            **super().layer_extras(window, tracer),
            "stream.query.hit_frac": window.state["hit_frac"],
        }


# ----------------------------------------------------------------------
# Serve: open loop against the always-on service
# ----------------------------------------------------------------------
READ_MIX = {"count": 0.5, "cliques": 0.35, "learned": 0.15}


class ServeOpen(Workload):
    """Zipfian reads on a fixed schedule (open loop) against
    :class:`CliqueService` while one thread ingests churn batches.

    Latency runs from each request's scheduled send time, so a stall also
    charges the requests queued behind it.
    """

    name = "serve-open"
    tail_q = 99.0
    #: The service-level limit on ``latency_ms_tail`` at ``rate``.
    latency_limit_ms = 100.0

    def __init__(self, n: int = 600, density: float = 0.02, churn: int = 48,
                 rate: float = 200.0, ingest_rate: float = 4.0,
                 min_reads: int = 1000, verify_reads: int = 400,
                 drain_s: float = 30.0) -> None:
        self.n, self.density, self.churn = n, density, churn
        self.rate, self.ingest_rate = rate, ingest_rate
        self.min_reads, self.verify_reads, self.drain_s = min_reads, verify_reads, drain_s

    def generate(self, seed: int, seconds: float) -> Dict[str, Any]:
        edges = er_edges(self.n, self.density, seed)
        reads = max(self.min_reads, int(self.rate * seconds))
        rng = np.random.default_rng([seed, 2])
        batches = churn_batches(
            edges, self.churn, max(1, int(reads / self.rate * self.ingest_rate)), rng
        )
        schedule = create_traffic("zipfian").schedule(
            reads, self.rate, self.n, [3], read_mix=READ_MIX, seed=seed
        )
        return {"edges": edges, "batches": batches, "schedule": schedule, "seed": seed}

    def _service(self, edges: np.ndarray) -> CliqueService:
        return CliqueService(
            build_graph(self.n, edges), ps=(3,), query_threads=2, materialize=False
        )

    def prepare(self, inputs) -> Window:
        """One ``run_open_loop(verify=True)`` replay: every response is
        checked against a recount for the epoch it pinned."""
        window = Window(setup_s=[])
        with self._service(inputs["edges"]) as service:
            report = run_open_loop(
                service, create_traffic("zipfian"), requests=self.verify_reads,
                rate=self.rate, read_mix=READ_MIX, seed=inputs["seed"],
                ingest=inputs["batches"][: max(1, self.verify_reads // 20)], verify=True,
            )
        window.attempted = report.requests
        window.failed = report.requests - report.completed + len(report.mismatches)
        window.problems = [f"{self.name}: verify replay: {m}" for m in report.mismatches[:5]]
        if report.completed < report.requests:
            window.problems.append(
                f"{self.name}: verify replay completed {report.completed}/{report.requests}"
            )
        return window

    def measure(self, inputs, seconds: float, tracer: Optional[Tracer] = None,
                ops: Optional[int] = None) -> Window:
        window = Window(setup_s=[])
        service = set_up(
            window, self.setups, lambda: self._service(inputs["edges"]).start(), tracer,
            discard=CliqueService.stop,
        )
        published = service.stats.published
        gc.collect()  # the timed reads do not collect the set-up's garbage
        try:
            with PeakRSS() as rss:
                self._open_loop(service, inputs, window, tracer)
                window.peak_rss_mb = rss.lap()
        finally:
            service.stop()
        window.state.update(
            service=service,
            published=service.stats.published - published,
            max_live=service.stats.max_live,
        )
        return window

    def _open_loop(self, service: CliqueService, inputs, window: Window,
                   tracer: Optional[Tracer]) -> None:
        schedule, batches = inputs["schedule"], inputs["batches"]
        span = schedule[-1].at
        origin = time.perf_counter() + 0.05
        done_at: Dict[int, float] = {}
        ingest_errors: List[BaseException] = []

        def ingest() -> None:
            with traced_op(tracer, "ingest"):
                for i, batch in enumerate(batches):
                    delay = origin + span * (i + 1) / (len(batches) + 1) - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    try:
                        service.ingest(batch)
                    except Exception as exc:  # reported as a failed check
                        ingest_errors.append(exc)
                        return

        ingester = threading.Thread(target=ingest, name="perfbench-ingest")
        ingester.start()
        submitted: Dict[int, float] = {}
        futures = []
        for request in schedule:
            delay = origin + request.at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            submitted[request.index] = time.perf_counter()
            future = service.submit(request)
            future.add_done_callback(
                lambda f, i=request.index: done_at.__setitem__(i, time.perf_counter())
            )
            futures.append(future)
        wait_futures(futures, timeout=self.drain_s)
        ingester.join(timeout=self.drain_s)
        responses = []
        for request, future in zip(schedule, futures):
            window.attempted += 1
            if request.index not in done_at:
                window.failed += 1
                window.problems.append(f"{self.name}: read {request.index} did not complete")
                continue
            exc = future.exception()
            if exc is not None:
                window.failed += 1
                window.problems.append(f"{self.name}: read {request.index} raised {exc!r}")
                continue
            responses.append(future.result())
            window.latency_s.append(done_at[request.index] - (origin + request.at))
        if ingester.is_alive() or ingest_errors:
            window.failed += 1
            window.problems.append(f"{self.name}: ingest did not finish: {ingest_errors!r}")
        window.work = len(responses)
        window.busy_s = max(max(done_at.values(), default=0.0) - origin, span)
        window.state.update(
            responses=responses,
            applied=service.engine.epoch,
            submitted=submitted,
            late_s=[submitted[r.index] - (origin + r.at) for r in schedule],
        )

    def check(self, inputs, window: Window) -> List[str]:
        """Each timed response against a from-scratch recount of the
        epoch it pinned (epoch ``e`` = the input after ``e`` batches)."""
        graph = build_graph(self.n, inputs["edges"])
        truths = [clique_table(graph, 3)]
        for batch in inputs["batches"][: window.state["applied"]]:
            apply_to_graph(graph, batch)
            truths.append(clique_table(graph, 3))
        bad = []
        for response in window.state["responses"]:
            request, value = response.request, response.value
            if response.epoch >= len(truths):
                bad.append(f"read {request.index} pinned unknown epoch {response.epoch}")
                continue
            truth = truths[response.epoch]
            if request.kind == "count":
                ok = value == len(truth)
            elif request.kind == "cliques":
                ok = value == truth
            else:
                ok = value <= truth.as_frozenset()
            if not ok:
                bad.append(f"{request.kind} read {request.index} wrong at epoch {response.epoch}")
        window.failed += len(bad)
        # The paper's cost of the newest epoch's listing run, the run its
        # ``learned`` reads share.
        with window.state["service"].read() as epoch:
            result = epoch.listing_result(3, seed=inputs["seed"])
        window.rounds.append(result.rounds)
        window.state["ledger"] = result.ledger
        return [f"{self.name}: {b}" for b in bad[:5]]

    def layer_extras(self, window: Window, tracer: Tracer) -> Dict[str, float]:
        starts = layers.span_starts(tracer, "serve.handle.")
        submitted = window.state["submitted"]
        waits = [1e3 * (starts[i] - submitted[i]) for i in starts if i in submitted]
        return {
            **super().layer_extras(window, tracer),
            "serve.queue_wait_ms_p50": statistics.median(waits) if waits else 0.0,
            "serve.queue_wait_ms_p99": percentile(waits, 99.0) if waits else 0.0,
            "serve.epochs.published": window.state["published"] / max(1, window.ops),
            "serve.epochs.max_live": float(window.state["max_live"]),
            "serve.generator_late_ms_p99": 1e3 * percentile(window.state["late_s"], 99.0),
        }


WORKLOADS = {
    "congest-k4": DriverWorkload("congest-k4", "congest", n=384, density=0.3),
    "cc-sparse": DriverWorkload("cc-sparse", "congested-clique", n=1000, density=0.03),
    "stream-churn": StreamChurn(),
    "serve-open": ServeOpen(),
}
