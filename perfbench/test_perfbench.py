"""Tests of the benchmark itself, on instances small enough for the
tier-1 suite (every workload at n <= 64, a fraction of a second each)."""

from __future__ import annotations

import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import layers
from perfbench.run import ROOT, run
from perfbench.tracer import SETUP, Tracer
from perfbench.workloads import DriverWorkload, PeakRSS, ServeOpen, StreamChurn

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tiny_workloads():
    return [
        DriverWorkload("congest-k4", "congest", n=48, density=0.3, min_ops=2),
        DriverWorkload("cc-sparse", "congested-clique", n=64, density=0.2, min_ops=2),
        StreamChurn(n=60, density=0.2, churn=4, min_ops=5, max_ops=10, warmup=2),
        ServeOpen(n=40, density=0.2, churn=2, rate=400.0, ingest_rate=40.0,
                  min_reads=60, verify_reads=40, drain_s=10.0),
    ]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", tiny_workloads(), ids=lambda w: w.name)
def test_emitted_names_are_declared(workload):
    declared = spec()
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert all(NAME.fullmatch(name) for name in end_to_end | per_layer)
    assert {w["name"] for w in declared["workloads"]} == {w.name for w in tiny_workloads()}

    metrics, attempted, failed, problems = run(workload, seed=1, seconds=0.01, trace=False)
    assert (failed, problems) == (0, [])
    assert end_to_end <= set(metrics) <= end_to_end | per_layer
    assert all(value > 0 for value in metrics.values())

    metrics, attempted, failed, problems = run(workload, seed=1, seconds=0.01, trace=True)
    assert (failed, problems) == (0, [])
    assert set(metrics) <= per_layer


def test_self_time_subtracts_children_on_a_nested_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.op(7):
        with tracer.span("root"):            # 0 .. 10
            with tracer.span("a"):           # 1 .. 4
                with tracer.span("g"):       # 2 .. 3
                    pass
            with tracer.span("b"):           # 5 .. 9
                tracer.leaf("hot", 1.5)      # inside b, not stored as a span
    assert tracer.self_seconds("root") == pytest.approx(10 - 3 - 4)
    assert tracer.self_seconds("a") == pytest.approx(3 - 1)
    assert tracer.self_seconds("g") == pytest.approx(1)
    assert tracer.self_seconds("b") == pytest.approx(4 - 1.5)
    assert tracer.self_seconds("hot") == pytest.approx(1.5)
    spans = {s.name: s for s in tracer.spans()}
    assert set(spans) == {"root", "a", "g", "b"}
    assert spans["g"].parent == spans["a"].id and spans["a"].parent == spans["root"].id
    assert spans["root"].parent is None
    assert {s.op for s in spans.values()} == {7}


def test_setup_spans_and_counts_are_kept_apart():
    tracer = Tracer(clock=iter([0.0, 2.0, 3.0, 4.0]).__next__)
    with tracer.op(SETUP), tracer.span("x"):
        tracer.count("rows", 5)
    with tracer.op(0), tracer.span("x"):
        tracer.count("rows", 2)
    assert tracer.self_seconds("x", setup=True) == 2.0
    assert tracer.self_seconds("x") == 1.0
    assert tracer.counter("rows") == 2


def test_traced_run_restores_every_patched_attribute(tmp_path):
    probe = Tracer()
    layers.install(probe)
    targets = list(probe._patches)
    wrapped = [inspect.getattr_static(owner, attr) for owner, attr, _ in targets]
    probe.restore()
    assert len(targets) > 20
    assert all(w is not raw for w, (_, _, raw) in zip(wrapped, targets))

    run(tiny_workloads()[1], seed=2, seconds=0.01, trace=True,
        trace_path=str(tmp_path / "trace.json"))
    for owner, attr, raw in targets:
        assert inspect.getattr_static(owner, attr) is raw, f"{owner}.{attr} still wrapped"
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert {"graphs.csr.grouped", "bench.op"} <= {e["name"] for e in events}


@pytest.mark.parametrize("workload", tiny_workloads()[:2], ids=lambda w: w.name)
def test_traced_and_untraced_runs_agree(workload):
    inputs = workload.generate(3, 0.01)
    plain = workload.measure(inputs, 0.01)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = workload.measure(inputs, 0.01, tracer, ops=plain.ops)
    finally:
        tracer.restore()

    def rows(ledger):
        return [(ph.name, ph.rounds, ph.makespan, ph.stats) for ph in ledger.phases()]

    assert rows(plain.state["ledger"]) == rows(traced.state["ledger"])
    assert plain.state["table"] == traced.state["table"]
    assert plain.rounds == traced.rounds
    assert workload.same_output(plain, traced) == []
    assert workload.check(inputs, plain) == workload.check(inputs, traced) == []


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cc-sparse", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
def test_peak_rss_sees_a_freed_block_and_stops_its_sampler():
    with PeakRSS() as rss:
        sampler = rss._child
        rss.lap()
        block = np.ones(2**23)  # 64 MB, touched, freed before the lap
        time.sleep(0.02)
        del block
        peak, after = rss.lap(), rss.lap()
    assert peak - after > 48
    assert sampler.poll() == 0
