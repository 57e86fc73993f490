"""Tests for the serve plane: epochs, service, traffic, driver."""

import threading
import time

import numpy as np
import pytest

from repro.graphs.cliques import enumerate_cliques
from repro.graphs.generators import complete_graph, erdos_renyi
from repro.graphs.graph import Graph
from repro.serve import (
    CliqueService,
    DEFAULT_READ_MIX,
    EpochSnapshot,
    OpenLoopTraffic,
    Request,
    UntrackedSizeError,
    available_patterns,
    create_traffic,
    percentile,
    register_pattern,
    run_open_loop,
)
from repro.serve.traffic import TrafficPattern
from repro.stream import StreamEngine, UpdateBatch
from repro.workloads import create_workload

PATTERNS = ("uniform", "zipfian", "hotspot", "bursty")


def _service(n=20, seed=11, **kwargs):
    kwargs.setdefault("compact_every", 16)
    return CliqueService(erdos_renyi(n, 0.4, seed=seed), ps=(3,), **kwargs)


# ----------------------------------------------------------------------
# percentile
# ----------------------------------------------------------------------
class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile([7.0], 99) == 7.0

    def test_order_independent(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)
        with pytest.raises(ValueError, match="in \\[0, 100\\]"):
            percentile([1.0], 101)


# ----------------------------------------------------------------------
# EpochSnapshot
# ----------------------------------------------------------------------
class TestEpochSnapshot:
    def _snap(self, n=18, seed=5):
        engine = StreamEngine(erdos_renyi(n, 0.4, seed=seed))
        engine.track(3, listing=True)
        return engine, EpochSnapshot(
            epoch=engine.epoch,
            view=engine.frozen_view(),
            counts=engine.counts(),
            tables={3: engine.clique_table(3)},
        )

    def test_counts_and_tables(self):
        engine, snap = self._snap()
        assert snap.count(1) == engine.num_nodes
        assert snap.count(2) == engine.num_edges
        assert snap.count(3) == engine.count(3)
        assert snap.cliques(3) == frozenset(engine.cliques(3))
        assert snap.cliques(2) == frozenset(
            frozenset(e) for e in engine.graph().edges()
        )
        table = snap.clique_table(2)
        assert table.shape == (engine.num_edges, 2)

    def test_untracked_sizes_raise(self):
        _, snap = self._snap()
        with pytest.raises(UntrackedSizeError, match="p=4"):
            snap.count(4)
        with pytest.raises(UntrackedSizeError):
            snap.clique_table(5)
        with pytest.raises(ValueError, match=">= 1"):
            snap.count(0)

    def test_isolated_from_later_ingest(self):
        """The frozen view must not see batches applied after publish —
        the snapshot-isolation contract at the data layer."""
        engine, snap = self._snap()
        m = snap.count(2)
        triangles = snap.cliques(3)
        edges = sorted(engine.graph().edge_set())
        engine.apply(UpdateBatch.deletes(edges[:4]))
        assert snap.count(2) == m
        assert snap.cliques(3) == triangles
        assert engine.num_edges == m - 4

    def test_listing_result_normalizes_plane(self):
        _, snap = self._snap()
        r1 = snap.listing_result(3, seed=0, plane=None)
        r2 = snap.listing_result(3, seed=0, plane="batch")
        assert r2 is r1  # one cache entry for both spellings
        with pytest.raises(ValueError, match="unknown routing plane"):
            snap.listing_result(3, plane="fpga")

    def test_listing_result_resolves_the_requested_plane(self, executor_resolutions):
        """The retired ``plane="parallel"`` spelling is rejected;
        ``plane="object"`` routes on the object plane and resolves no
        executor."""
        _, snap = self._snap()
        with pytest.raises(ValueError, match="workers=N"):
            snap.listing_result(3, seed=0, plane="parallel")
        result = snap.listing_result(3, seed=0, plane="object")
        assert ("object", None) in executor_resolutions
        assert all(executor is None for _, executor in executor_resolutions)
        assert result.cliques == snap.listing_result(3, seed=0).cliques

    def test_learned_is_attributed_subset(self):
        engine, snap = self._snap()
        all_cliques = snap.cliques(3)
        union = set()
        for v in range(snap.num_nodes):
            learned = snap.learned(v, 3)
            assert learned <= all_cliques
            union |= learned
        assert union == all_cliques
        with pytest.raises(ValueError, match="out of range"):
            snap.learned(snap.num_nodes, 3)


# ----------------------------------------------------------------------
# CliqueService: pinning and epoch GC
# ----------------------------------------------------------------------
class TestServiceEpochs:
    def test_pin_survives_later_ingest(self):
        service = _service()
        pinned = service.pin()
        m = pinned.count(2)
        edges = sorted(service.engine.graph().edge_set())
        service.ingest(UpdateBatch.deletes(edges[:3]))
        assert service.current_epoch == pinned.epoch + 1
        assert service.live_epochs() == 2  # pinned + current
        assert pinned.count(2) == m  # still answers from its epoch
        service.release(pinned)
        assert service.live_epochs() == 1
        assert service.stats.retired == 1

    def test_unpinned_epoch_retires_on_publish(self):
        service = _service()
        for i in range(3):
            service.ingest(UpdateBatch.inserts([(0, 10 + i)]))
        assert service.live_epochs() == 1
        assert service.stats.published == 4  # initial + 3 ingests
        assert service.stats.retired == 3

    def test_read_context_pins_and_releases(self):
        service = _service()
        with service.read() as epoch:
            assert epoch.epoch == service.current_epoch
            assert service._pins[epoch.epoch] == 1
        assert service._pins[epoch.epoch] == 0

    def test_double_release_raises(self):
        service = _service()
        pinned = service.pin()
        service.release(pinned)
        with pytest.raises(ValueError, match="double release"):
            service.release(pinned)

    def test_submit_requires_start(self):
        service = _service()
        request = Request(index=0, at=0.0, kind="count", p=3)
        with pytest.raises(RuntimeError, match="not started"):
            service.submit(request)
        with service:
            assert service.submit(request).result().value == service.engine.count(3)

    def test_handle_kinds_and_stats(self):
        service = _service()
        count = service.handle(Request(index=0, at=0.0, kind="count", p=3))
        cliques = service.handle(Request(index=1, at=0.0, kind="cliques", p=3))
        learned = service.handle(
            Request(index=2, at=0.0, kind="learned", p=3, node=0)
        )
        assert count.value == len(cliques.value)
        assert learned.value <= cliques.value
        assert service.stats.reads == 3
        assert service.stats.by_kind == {"count": 1, "cliques": 1, "learned": 1}
        with pytest.raises(ValueError, match="unknown request kind"):
            service.handle(Request(index=3, at=0.0, kind="drop", p=3))

    def test_accepts_existing_engine(self):
        engine = StreamEngine(complete_graph(6))
        service = CliqueService(engine, ps=(3, 4))
        assert service.engine is engine
        assert service.tracked_ps() == {3, 4}
        assert service.handle(
            Request(index=0, at=0.0, kind="count", p=4)
        ).value == 15

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one clique size"):
            CliqueService(complete_graph(5), ps=())
        with pytest.raises(ValueError, match="query_threads"):
            CliqueService(complete_graph(5), query_threads=0)


# ----------------------------------------------------------------------
# Concurrent correctness: no torn reads under interleaved ingest
# ----------------------------------------------------------------------
class TestConcurrentCorrectness:
    def test_every_response_matches_its_pinned_epoch(self):
        """The ISSUE-7 stress test: interleaved ingest + concurrent reads
        through the serve front end, every response equal to the
        fault-free differential answer for the epoch it pinned."""
        instance = create_workload("stream_churn").stream(48, seed=3)
        service = CliqueService(
            instance.base, ps=(3,), compact_every=32, query_threads=4
        )
        with service:
            report = run_open_loop(
                service,
                create_traffic("zipfian"),
                requests=160,
                rate=800.0,
                read_mix={"count": 0.5, "cliques": 0.35, "learned": 0.15},
                seed=1,
                ingest=instance.batches,
                verify=True,
            )
        assert report.completed == 160 and report.errors == 0
        assert report.verified and report.mismatches == []
        assert report.epochs_published == len(instance.batches) + 1
        assert report.epochs_observed[1] >= report.epochs_observed[0]
        assert report.max_live_epochs >= 1
        assert report.by_kind and sum(report.by_kind.values()) == 160
        assert "verified: every response matched" in report.summary()

    def test_reader_threads_pin_consistent_epochs(self):
        """Hammer reads from several threads while the main thread
        ingests: each response's (count, cliques) pair must be
        internally consistent for some single epoch."""
        service = _service(n=24, seed=7)
        truth = {}  # epoch -> triangle set, recorded before publish
        graph = service.engine.graph()
        truth[service.current_epoch] = frozenset(
            enumerate_cliques(graph, 3, backend="csr")
        )
        stop = threading.Event()
        problems = []

        def reader():
            while not stop.is_set():
                with service.read() as epoch:
                    got = epoch.cliques(3)
                    count = epoch.count(3)
                expected = truth.get(epoch.epoch)
                if count != len(got) or (expected is not None and got != expected):
                    problems.append(epoch.epoch)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        rng = np.random.default_rng(0)
        for _ in range(12):
            edges = sorted(graph.edge_set())
            drop = [edges[i] for i in rng.choice(len(edges), 2, replace=False)]
            batch = UpdateBatch.deletes(drop)
            graph.remove_edges(drop)
            truth[service.current_epoch + 1] = frozenset(
                enumerate_cliques(graph, 3, backend="csr")
            )
            service.ingest(batch)
            time.sleep(0.002)
        stop.set()
        for t in threads:
            t.join()
        assert problems == []


# ----------------------------------------------------------------------
# Traffic patterns
# ----------------------------------------------------------------------
class TestTrafficPatterns:
    def test_registry(self):
        assert set(available_patterns()) >= set(PATTERNS)
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            create_traffic("tsunami")
        with pytest.raises(TypeError, match="unknown parameter"):
            create_traffic("uniform", theta=2.0)

    def test_register_rejects_duplicates_and_anonymous(self):
        class Unnamed(TrafficPattern):
            def _keys(self, count, n, rng):  # pragma: no cover
                return np.zeros(count, dtype=int)

        with pytest.raises(ValueError, match="non-empty"):
            register_pattern(Unnamed)

        class Imposter(TrafficPattern):
            name = "uniform"

            def _keys(self, count, n, rng):  # pragma: no cover
                return np.zeros(count, dtype=int)

        with pytest.raises(ValueError, match="already registered"):
            register_pattern(Imposter)

    @pytest.mark.parametrize("name", PATTERNS)
    def test_schedule_shape_and_reproducibility(self, name):
        pattern = create_traffic(name)
        a = pattern.schedule(64, 100.0, 32, [3], seed=4)
        b = pattern.schedule(64, 100.0, 32, [3], seed=4)
        assert a == b
        assert [r.index for r in a] == list(range(64))
        assert all(0 <= r.node < 32 for r in a)
        assert all(r.p == 3 for r in a)
        ats = [r.at for r in a]
        assert ats == sorted(ats) and ats[0] >= 0
        # offered rate is respected in the long run (Poisson: generous slack)
        assert 64 / (3.0 * 100.0) < ats[-1] < 3.0 * 64 / 100.0
        assert pattern.schedule(64, 100.0, 32, [3], seed=5) != a

    def test_kind_mix_and_p_cycling(self):
        schedule = create_traffic("uniform").schedule(
            300, 1000.0, 16, [3, 4], read_mix={"count": 1.0}, seed=0
        )
        assert {r.kind for r in schedule} == {"count"}
        assert [r.p for r in schedule[:4]] == [3, 4, 3, 4]

    def test_zipfian_is_skewed_uniform_is_not(self):
        n, count = 64, 4000
        zipf = create_traffic("zipfian", theta=1.2).schedule(
            count, 1000.0, n, [3], seed=0
        )
        uni = create_traffic("uniform").schedule(count, 1000.0, n, [3], seed=0)

        def top_share(schedule):
            _, freq = np.unique([r.node for r in schedule], return_counts=True)
            return np.sort(freq)[-n // 10 :].sum() / len(schedule)

        assert top_share(zipf) > 0.5 > top_share(uni)

    def test_hotspot_concentration(self):
        n = 50
        schedule = create_traffic(
            "hotspot", hot_fraction=0.1, hot_weight=0.9
        ).schedule(3000, 1000.0, n, [3], seed=1)
        _, freq = np.unique([r.node for r in schedule], return_counts=True)
        hot_size = n // 10
        assert np.sort(freq)[-hot_size:].sum() / len(schedule) > 0.8

    def test_bursty_preserves_long_run_rate(self):
        rate, count = 500.0, 640
        schedule = create_traffic("bursty", burst=16).schedule(
            count, rate, 32, [3], seed=2
        )
        gaps = np.diff([0.0] + [r.at for r in schedule])
        # clustered: many tiny intra-burst gaps, a few long quiet ones
        assert np.percentile(gaps, 75) < np.mean(gaps) / 2
        assert gaps.max() > 4 * np.mean(gaps)
        span = schedule[-1].at
        assert count / (3.0 * rate) < span < 3.0 * count / rate

    def test_schedule_validation(self):
        pattern = create_traffic("uniform")
        with pytest.raises(ValueError, match="count >= 1"):
            pattern.schedule(0, 100.0, 8, [3])
        with pytest.raises(ValueError, match="rate must be > 0"):
            pattern.schedule(8, 0.0, 8, [3])
        with pytest.raises(ValueError, match="clique size"):
            pattern.schedule(8, 100.0, 8, [])
        with pytest.raises(ValueError, match="unknown request kind"):
            pattern.schedule(8, 100.0, 8, [3], read_mix={"delete": 1.0})
        with pytest.raises(ValueError, match="sum to > 0"):
            pattern.schedule(8, 100.0, 8, [3], read_mix={"count": 0.0})
        with pytest.raises(ValueError, match="theta"):
            create_traffic("zipfian", theta=-1.0).schedule(8, 100.0, 8, [3])
        with pytest.raises(ValueError, match="hot_fraction"):
            create_traffic("hotspot", hot_fraction=0.0).schedule(8, 100.0, 8, [3])
        with pytest.raises(ValueError, match="spread"):
            create_traffic("bursty", spread=1.0).schedule(8, 100.0, 8, [3])

    def test_describe(self):
        assert create_traffic("zipfian").describe() == {
            "pattern": "zipfian",
            "theta": 1.1,
        }


# ----------------------------------------------------------------------
# OpenLoopTraffic manager
# ----------------------------------------------------------------------
class TestOpenLoopTraffic:
    def test_start_collect_recent_stop(self):
        service = _service(n=16, seed=2)
        manager = OpenLoopTraffic(
            service, create_traffic("uniform"), rate=400.0,
            read_mix=DEFAULT_READ_MIX, seed=0, chunk=32,
        )
        with service:
            before = time.time()
            manager.start()
            manager.start()  # idempotent
            entries = manager.collect(number=50, start_time=before)
            assert len(entries) >= 50
            recent = manager.recent_entries(duration=60.0)
            assert len(recent) >= len(entries)
            manager.stop()
            settled = len(manager.recent_entries(duration=60.0))
            time.sleep(0.05)
            assert len(manager.recent_entries(duration=60.0)) == settled
        assert all(e.ok for e in entries)
        assert all(e.latency_s >= 0 and e.epoch >= 0 for e in entries)
        assert {e.kind for e in entries} <= {"count", "cliques", "learned"}
        assert manager.recent_entries(duration=0.0) == []

    def test_collect_times_out_when_not_started(self):
        service = _service(n=16, seed=2)
        manager = OpenLoopTraffic(
            service, create_traffic("uniform"), rate=10000.0
        )
        with pytest.raises(TimeoutError, match="is the generator started"):
            manager.collect(number=10)

    def test_validation(self):
        service = _service(n=16, seed=2)
        with pytest.raises(ValueError, match="rate"):
            OpenLoopTraffic(service, create_traffic("uniform"), rate=0.0)
        with pytest.raises(ValueError, match="chunk"):
            OpenLoopTraffic(
                service, create_traffic("uniform"), rate=1.0, chunk=0
            )


# ----------------------------------------------------------------------
# Driver report plumbing
# ----------------------------------------------------------------------
class TestRunOpenLoop:
    def test_report_fields_without_verify(self):
        service = _service(n=16, seed=2)
        with service:
            report = run_open_loop(
                service,
                create_traffic("uniform"),
                requests=40,
                rate=2000.0,
                seed=0,
            )
        assert report.requests == report.completed == 40
        assert report.errors == 0 and not report.verified
        assert report.sustained_qps > 0
        assert 0 <= report.p50_ms <= report.p99_ms <= report.max_ms
        assert report.pattern == {"pattern": "uniform"}
        assert "latency: p50" in report.summary()
        assert "verified" not in report.summary()
