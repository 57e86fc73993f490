"""Which library functions the traced run wraps, and the per-layer
metrics it derives from the spans.

Each function is wrapped where its caller looks the name up (for
example ``repro.core.arb_list.expander_decomposition``, not
``repro.decomposition.expander``), and each method on its class.  The
wrapped set covers the six layers ``graphs``, ``decomposition``,
``core``, ``congest``, ``stream`` and ``serve``.
"""

from __future__ import annotations

import importlib
from typing import Dict

from perfbench.tracer import Tracer

#: Ledger phases reported one by one, by the last component of the
#: phase name (``outer[0]/arb[0]/learn_edges`` counts as ``learn_edges``).
LEDGER_PHASES = (
    "orient", "expander_decomposition", "reshuffle", "partition",
    "learn_edges", "final_broadcast",
)


def _count_goal(tracer: Tracer, outcome, *args, **kwargs) -> None:
    tracer.count("core.arb_list.goal_edges", outcome.stats.get("goal_edges", 0.0))
    tracer.count("core.arb_list.er_in", outcome.stats.get("er_in", 0.0))


def _count_clusters(tracer: Tracer, decomposition, *args, **kwargs) -> None:
    tracer.count("decomposition.expander.clusters", len(decomposition.clusters))


def _count_sparsity_cliques(tracer: Tracer, outcome, *args, **kwargs) -> None:
    tracer.count(
        "core.sparsity_aware.cliques",
        sum(len(cliques) for cliques in outcome.listed.values()),
    )


def _count_attribute_rows(tracer: Tracer, _, result, owners, rows) -> None:
    tracer.count("core.result.attribute.rows", len(rows))


def _count_grouped_rows(tracer: Tracer, owners_table, *args, **kwargs) -> None:
    tracer.count("graphs.csr.grouped.rows", owners_table[1].shape[0])


def _count_messages(tracer: Tracer, batch, *args, **kwargs) -> None:
    tracer.count("congest.batch.fanout.messages", len(batch))


def _count_words(tracer: Tracer, _, clique_net, batch, *args, **kwargs) -> None:
    tracer.count("congest.congested_clique.route.words", len(batch) * batch.words_per_message)


def _count_delta_rows(tracer: Tracer, table, *args, **kwargs) -> None:
    tracer.count("stream.delta.rows", table.shape[0])


def _count_fold_rows(tracer: Tracer, _, table, other) -> None:
    tracer.count("graphs.table.fold.rows_in", len(table) + len(other))


def _count_listing_run(tracer: Tracer, *args, **kwargs) -> None:
    tracer.count("serve.epoch.listing.runs")


def install(tracer: Tracer) -> None:
    """Wrap every traced function; undo with ``tracer.restore()``."""
    mod = importlib.import_module
    from repro.congest.congested_clique import CongestedClique
    from repro.core.result import ListingResult
    from repro.graphs.csr import CSRGraph
    from repro.graphs.overlay import CSROverlay
    from repro.graphs.table import CliqueTable
    from repro.serve.service import CliqueService
    from repro.stream.engine import QueryEngine, StreamEngine

    # core / decomposition / graphs: the Theorem 1.1/1.2 pipeline.
    listing = mod("repro.core.listing")
    arb = mod("repro.core.arb_list")
    cluster_task = mod("repro.core.cluster_task")
    tracer.wrap(mod("repro.core.list_iteration"), "arb_list", "core.arb_list", _count_goal)
    tracer.wrap(arb, "expander_decomposition", "decomposition.expander", _count_clusters)
    tracer.wrap(arb, "process_cluster", "core.cluster_task")
    tracer.wrap(arb, "sequential_light_phase", "core.k4")
    tracer.wrap(cluster_task, "gather_outside_edges", "core.gather")
    tracer.wrap(cluster_task, "reshuffle_edges", "core.reshuffle")
    tracer.wrap(
        cluster_task, "sparsity_aware_listing", "core.sparsity_aware",
        _count_sparsity_cliques,
    )
    tracer.wrap(listing, "degeneracy_orientation", "graphs.orientation")
    tracer.wrap(listing, "clique_table", "graphs.cliques")
    tracer.wrap(ListingResult, "attribute", "core.result.attribute", leaf=True)
    tracer.wrap(
        ListingResult, "attribute_table", "core.result.attribute", _count_attribute_rows
    )

    # graphs.csr / congest: the Theorem 1.3 pipeline.
    cc = mod("repro.core.congested_clique_listing")
    tracer.wrap(CSRGraph, "from_graph", "graphs.csr.build")
    tracer.wrap(cc, "grouped_clique_tables", "graphs.csr.grouped", _count_grouped_rows)
    tracer.wrap(cc, "fanout_edges_by_pair", "congest.batch.fanout", _count_messages)
    tracer.wrap(CongestedClique, "route_batch", "congest.congested_clique.route", _count_words)

    # stream: incremental maintenance and the caching query front end.
    tracer.wrap(StreamEngine, "apply", "stream.engine.apply")
    tracer.wrap(StreamEngine, "track", "stream.engine.track")
    tracer.wrap(mod("repro.stream.engine"), "touched_clique_table", "stream.delta", _count_delta_rows)
    tracer.wrap(CliqueTable, "union", "graphs.table.fold", _count_fold_rows)
    tracer.wrap(CliqueTable, "difference", "graphs.table.fold", _count_fold_rows)
    tracer.wrap(CSROverlay, "apply", "graphs.overlay.apply")
    tracer.wrap(CSROverlay, "compact", "graphs.overlay.compact")
    tracer.wrap(QueryEngine, "count", "stream.query")
    tracer.wrap(QueryEngine, "clique_result", "stream.query")

    # serve: reads on the query pool, ingest on its own thread, and the
    # Theorem 1.3 run an epoch's first ``learned`` read pays (the epoch
    # imports the driver from its module at call time).
    tracer.wrap(
        CliqueService, "handle",
        lambda service, request: f"serve.handle.{request.kind}",
        op=lambda service, request: request.index,
    )
    tracer.wrap(CliqueService, "ingest", "serve.ingest")
    tracer.wrap(
        cc, "list_cliques_congested_clique", "serve.epoch.listing", _count_listing_run
    )


def ledger_rounds(ledger) -> Dict[str, float]:
    """``congest.ledger.<phase>_rounds`` for one run's ledger."""
    totals = {phase: 0.0 for phase in LEDGER_PHASES}
    for phase in ledger.phases():
        key = phase.name.rsplit("/", 1)[-1]
        if key in totals:
            totals[key] += phase.rounds
    return {f"congest.ledger.{k}_rounds": v for k, v in totals.items()}


#: Span names whose self time is reported per timed operation.
SELF_TIMED = (
    "core.sparsity_aware", "core.result.attribute", "decomposition.expander",
    "core.cluster_task", "core.gather", "core.reshuffle", "core.k4",
    "graphs.orientation", "graphs.cliques", "graphs.csr.build",
    "graphs.csr.grouped", "congest.batch.fanout", "congest.congested_clique.route",
    "stream.engine.apply", "stream.delta", "graphs.table.fold",
    "graphs.overlay.apply", "graphs.overlay.compact", "stream.query",
    "serve.handle.count", "serve.handle.cliques", "serve.handle.learned",
    "serve.ingest", "serve.epoch.listing",
)


def layer_metrics(tracer: Tracer, ops: int, setups: int) -> Dict[str, float]:
    """Per-layer numbers from one traced window of ``ops`` operations.

    Self times and work counts are per timed operation; ratios are taken
    over the whole window; ``stream.engine.track.self_s`` is per set-up,
    the only place the benchmark tracks a clique size.
    """
    per_op = 1.0 / max(1, ops)
    out: Dict[str, float] = {
        f"{name}.self_s": tracer.self_seconds(name) * per_op for name in SELF_TIMED
    }
    out["stream.engine.track.self_s"] = (
        tracer.self_seconds("stream.engine.track", setup=True) / max(1, setups)
    )
    out["core.result.attribute.calls"] = tracer.calls("core.result.attribute") * per_op
    out["stream.engine.apply.calls"] = tracer.calls("stream.engine.apply") * per_op
    out["graphs.overlay.compact.calls"] = tracer.calls("graphs.overlay.compact") * per_op
    out["serve.ingest.calls"] = tracer.calls("serve.ingest") * per_op
    for counter in (
        "core.sparsity_aware.cliques", "decomposition.expander.clusters",
        "graphs.csr.grouped.rows", "congest.batch.fanout.messages",
        "congest.congested_clique.route.words", "stream.delta.rows",
        "graphs.table.fold.rows_in",
    ):
        out[counter] = tracer.counter(counter) * per_op
    runs = tracer.counter("serve.epoch.listing.runs")
    out["serve.epoch.listing.calls"] = runs * per_op
    out["core.arb_list.goal_frac"] = ratio(
        tracer.counter("core.arb_list.goal_edges"), tracer.counter("core.arb_list.er_in")
    )
    out["graphs.csr.grouped.useful_frac"] = ratio(
        tracer.counter("core.result.attribute.rows"), tracer.counter("graphs.csr.grouped.rows")
    )
    out["serve.epoch.listing.share"] = ratio(
        tracer.calls("serve.handle.learned"), runs
    )
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_starts(tracer: Tracer, name: str) -> Dict[object, float]:
    """Start time of the first span named ``name`` for every op id."""
    starts: Dict[object, float] = {}
    for span in tracer.spans():
        if span.name.startswith(name) and span.op not in starts:
            starts[span.op] = span.start
    return starts

