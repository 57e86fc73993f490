"""Theorem 1.3 on the batch plane: aggregate charge, one global listing.

Without an active fault seam and on the clique topology, the batch
plane charges ``learn_edges`` from per-pair edge counts and never
materializes the (edge, recipient) fan-out.  These tests pin that
shortcut to the executed pattern it replaces:

- the aggregate ``(send, recv, messages)`` equals ``bincount_loads`` of
  the materialized :func:`fanout_edges_by_pair` batch, and the driver's
  ``learn_edges`` row equals the row :meth:`CongestedClique.route_batch`
  charges for that batch, fake-edge padding on and off;
- every listed Kp's C(p,2) edges are all delivered to the node the row
  is attributed to (the correctness obligation of the global listing);
- an unfaulted clique-topology run never builds the fan-out, with or
  without a shard executor, while faulted and overlay runs still do.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.congest.batch import (
    bincount_loads,
    fanout_edges_by_pair,
    fanout_loads_by_pair,
)
from repro.congest.congested_clique import CongestedClique
from repro.congest.ledger import RoundLedger
from repro.congest.topology import parse_topology
from repro.core import congested_clique_listing as cc
from repro.core.config import ExecutionConfig
from repro.core.params import AlgorithmParameters
from repro.core.partition import (
    pair_index_array,
    pair_recipient_lists,
    random_partition,
)
from repro.faults import FaultModel
from repro.workloads import create_workload

STATIC_FAMILIES = ("adversarial", "caveman", "er", "planted", "sparse", "zipfian")
SEEDS = (0, 1, 2)
N = 40


def driver_inputs(graph, p, seed):
    """The driver's oriented edge columns and part labels for ``seed``
    (its only rng draw is the partition)."""
    n = graph.num_nodes
    fptr, findices = graph.to_csr().forward()
    edge_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(fptr))
    s = cc.num_parts_for_clique(n, p)
    part = random_partition(n, s, np.random.default_rng(seed)).part_array()
    return edge_src, findices, part, s


def phase_row(ledger, name):
    (phase,) = [ph for ph in ledger.phases() if ph.name == name]
    return phase.name, phase.rounds, phase.makespan, phase.stats


class TestAggregateLoads:
    @pytest.mark.parametrize("family", STATIC_FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_loads_equal_materialized_fanout(self, family, seed, p):
        g = create_workload(family).instance(N, seed=seed)
        edge_src, edge_dst, part, s = driver_inputs(g, p, seed)
        pairs = pair_index_array(part[edge_src], part[edge_dst], s)
        recipients = pair_recipient_lists(s, p)
        batch = fanout_edges_by_pair(edge_src, edge_dst, pairs, recipients)
        send, recv, messages = fanout_loads_by_pair(
            edge_src, pairs, recipients, g.num_nodes
        )
        ref_send, ref_recv = bincount_loads(
            batch.src, batch.dst, g.num_nodes, batch.words_per_message
        )
        assert messages == len(batch)
        assert send.dtype == recv.dtype == np.int64
        np.testing.assert_array_equal(send, ref_send)
        np.testing.assert_array_equal(recv, ref_recv)

    @pytest.mark.parametrize("family", STATIC_FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("p", [3, 4, 5])
    @pytest.mark.parametrize("pad", [False, True])
    def test_driver_row_equals_routed_batch_row(self, family, seed, p, pad):
        g = create_workload(family).instance(N, seed=seed)
        result = cc.list_cliques_congested_clique(
            g, p, seed=seed, pad_fake_edges=pad
        )
        edge_src, edge_dst, part, s = driver_inputs(g, p, seed)
        batch = fanout_edges_by_pair(
            edge_src, edge_dst,
            pair_index_array(part[edge_src], part[edge_dst], s),
            pair_recipient_lists(s, p),
        )
        fake_total = int(result.stats["fake_edges"])
        assert (fake_total > 0) == pad
        extra_send, extra_recv = cc._fake_edge_loads(g.num_nodes, s, p, fake_total)
        routed = RoundLedger()
        CongestedClique(g.num_nodes).route_batch(
            batch, routed, "learn_edges",
            extra_send_words=extra_send, extra_recv_words=extra_recv,
            fake_edges=fake_total, parts=s,
        )
        assert phase_row(result.ledger, "learn_edges") == phase_row(
            routed, "learn_edges"
        )

    def test_empty_edge_set(self):
        recipients = pair_recipient_lists(2, 3)
        send, recv, messages = fanout_loads_by_pair(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), recipients, 9
        )
        assert messages == 0
        assert send.tolist() == recv.tolist() == [0] * 9

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            fanout_loads_by_pair(
                np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64),
                pair_recipient_lists(2, 3), 9,
            )


class TestDeliveryCoverage:
    @pytest.mark.parametrize("family", STATIC_FAMILIES)
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_owner_receives_every_edge_of_its_rows(self, family, p):
        seed = 1
        g = create_workload(family).instance(N, seed=seed)
        result = cc.list_cliques_congested_clique(g, p, seed=seed)
        _, _, part, s = driver_inputs(g, p, seed)
        per_node = result.per_node
        owners = np.repeat(
            np.fromiter(per_node, dtype=np.int64),
            [len(cliques) for cliques in per_node.values()],
        )
        rows = np.asarray(
            [sorted(c) for cliques in per_node.values() for c in cliques],
            dtype=np.int64,
        ).reshape(-1, p)
        assert rows.shape[0] == result.num_cliques  # each Kp listed once
        recipients = pair_recipient_lists(s, p)
        delivered_to = np.zeros((len(recipients), g.num_nodes), dtype=bool)
        for pair, nodes in enumerate(recipients):
            delivered_to[pair, nodes] = True
        for i, j in itertools.combinations(range(p), 2):
            pair = pair_index_array(part[rows[:, i]], part[rows[:, j]], s)
            assert delivered_to[pair, owners].all()


class TestFanoutNotMaterialized:
    @pytest.fixture
    def fanout_calls(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return fanout_edges_by_pair(*args, **kwargs)

        monkeypatch.setattr(cc, "fanout_edges_by_pair", spy)
        return calls

    @pytest.mark.parametrize(
        "execution",
        [
            ExecutionConfig(),
            ExecutionConfig(workers=2),
            ExecutionConfig(topology=parse_topology("clique")),
            ExecutionConfig(faults=FaultModel(seed=9)),  # attached, inactive
        ],
        ids=["one-core", "workers", "explicit-clique", "inactive-faults"],
    )
    def test_unfaulted_clique_run_skips_fanout(self, fanout_calls, execution):
        g = create_workload("er").instance(N, seed=0)
        params = AlgorithmParameters(p=4, execution=execution)
        result = cc.list_cliques_congested_clique(g, 4, params=params, seed=0)
        assert fanout_calls == []
        assert result.ledger.phases()[-1].stats["messages"] > 0

    @pytest.mark.parametrize(
        "execution",
        [
            ExecutionConfig(faults=FaultModel(seed=7, drop_rate=0.05)),
            ExecutionConfig(topology=parse_topology("ring")),
        ],
        ids=["active-faults", "overlay"],
    )
    def test_faulted_and_overlay_runs_build_fanout(self, fanout_calls, execution):
        g = create_workload("er").instance(N, seed=0)
        params = AlgorithmParameters(p=3, execution=execution)
        result = cc.list_cliques_congested_clique(g, 3, params=params, seed=0)
        assert fanout_calls == [1]
        assert result.cliques == cc.list_cliques_congested_clique(g, 3, seed=0).cliques
