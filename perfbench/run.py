"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload congest-k4 --seed 0 --seconds 15 --trace 0

``--trace 0`` times the workload untraced and reports every end-to-end
metric of ``BENCHMARK.json``; it prints the ungated latencies too.
``--trace 1`` splits the time between an untraced window and a traced
window of the same operations, reports every per-layer metric (with the
tracing overhead, traced minus untraced) and writes the spans to
``.perfbench/trace-<workload>-s<seed>.json`` as Chrome trace-event JSON.
Outputs are checked either way.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A seed kept out of tuning: a later performance claim is re-checked
#: on it (``--held-out``), so the claim cannot rest on tuned seeds.
HELD_OUT_SEED = 7919


#: glibc's ``M_MMAP_THRESHOLD`` parameter and its default value.
M_MMAP_THRESHOLD, MMAP_THRESHOLD = -3, 128 * 1024


def pin_malloc() -> bool:
    """Fix glibc's mmap threshold at its default, 128 KiB.

    Left alone, glibc raises the threshold to the size of the largest
    mmapped block freed so far (up to 32 MiB), after which such blocks
    come from the heap and stay resident when freed.  When that happens
    depends on the history of the process, and it moved the peak heap of
    a congest-k4 call between two levels 30 MB apart from call to call.
    Setting the threshold once turns that adjustment off.  Returns
    whether the C library took the setting (only glibc has it).
    """
    try:
        return bool(ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD))
    except (OSError, AttributeError):
        return False


def environment(seed: int, malloc_pinned: bool) -> dict:
    import numpy

    affinity = len(os.sched_getaffinity(0))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "held_out": seed == HELD_OUT_SEED,
        "fewer_than_4_cpus": affinity < 4,
        "malloc_mmap_threshold_pinned": malloc_pinned,
    }


def declared() -> tuple:
    """``({metric: unit}, {metric: unit})``: the end-to-end and the
    per-layer metrics of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def run(workload, seed: int, seconds: float, trace: bool, trace_path: str = ""):
    """Measure, check and return ``(metrics, attempted, failed, problems)``."""
    from perfbench import layers
    from perfbench.tracer import Tracer

    if trace:
        seconds /= 2  # the untraced and the traced window share the run
    inputs = workload.generate(seed, seconds)
    windows = []
    pre = workload.prepare(inputs)
    if pre is not None:
        windows.append(pre)
    base = workload.measure(inputs, seconds)
    windows.append(base)
    problems = list(workload.check(inputs, base))
    if trace:
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = workload.measure(inputs, seconds, tracer, ops=base.ops)
        finally:
            tracer.restore()
        windows.append(traced)
        problems += workload.check(inputs, traced)
        problems += workload.same_output(base, traced)
    for window in windows:
        problems += window.problems
    attempted = sum(w.attempted for w in windows)
    failed = min(attempted, sum(w.failed for w in windows) + (1 if problems else 0))
    if trace:
        untraced_e2e, traced_e2e = workload.end_to_end(base), workload.end_to_end(traced)
        metrics = {
            **layers.layer_metrics(tracer, traced.ops, len(traced.setup_s)),
            **workload.layer_extras(traced, tracer),
            # Latencies are reported here, ungated: see README.md.
            "latency_ms_p50": untraced_e2e["latency_ms_p50"],
            "latency_ms_tail": untraced_e2e["latency_ms_tail"],
            "trace.overhead.latency_ms_p50":
                traced_e2e["latency_ms_p50"] - untraced_e2e["latency_ms_p50"],
            "trace.overhead.throughput_per_s":
                traced_e2e["throughput_per_s"] - untraced_e2e["throughput_per_s"],
        }
        if trace_path:
            tracer.write_chrome(trace_path, {"workload": workload.name})
    else:
        metrics = workload.end_to_end(base)
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    malloc_pinned = pin_malloc()  # before anything of note is allocated
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--held-out", action="store_true",
                        help=f"use the held-out seed {HELD_OUT_SEED} instead of --seed")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = HELD_OUT_SEED if args.held_out else args.seed

    # The program under test is the checkout's own src/, never an
    # installed copy.
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, source]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    end_to_end, per_layer = declared()
    units = per_layer if args.trace else end_to_end
    env = environment(seed, malloc_pinned)
    print(f"perfbench {args.workload} trace={args.trace} env {json.dumps(env)}")
    if env["fewer_than_4_cpus"]:
        print(f"perfbench: measured on a box with {env['affinity_cpus']} usable CPUs (fewer than 4)")

    trace_path = os.path.join(ROOT, ".perfbench", f"trace-{args.workload}-s{seed}.json")
    metrics, attempted, failed, problems = run(
        workload, seed, args.seconds, bool(args.trace), trace_path
    )
    if args.trace:
        # A layer the workload never reaches did no work in it.
        metrics = {**{name: 0.0 for name in units}, **metrics}
    every_unit = {**end_to_end, **per_layer}
    missing, undeclared = set(units) - set(metrics), set(metrics) - set(every_unit)
    if missing or undeclared:
        raise RuntimeError(
            f"emitted metrics differ from BENCHMARK.json: "
            f"missing {sorted(missing)}, undeclared {sorted(undeclared)}"
        )
    for problem in problems[:20]:
        print(f"FAILED CHECK: {problem}")
    for name in sorted(metrics):
        note = "" if name in units else "  (reported with --trace 1, not gated)"
        print(f"  {name:<44} {metrics[name]:>16.6f} {every_unit[name]}{note}")
    print(f"  {'failed_frac':<44} {failed / attempted:>16.6f} ratio ({failed} of {attempted})")
    limit = getattr(workload, "latency_limit_ms", None)
    if limit is not None and "latency_ms_tail" in metrics:
        met = "met" if metrics["latency_ms_tail"] <= limit else "MISSED"
        print(f"perfbench: latency limit latency_ms_tail <= {limit:g} ms at "
              f"{workload.rate:g} req/s: {met}")
    if args.trace:
        print(f"perfbench: spans written to {os.path.relpath(trace_path, ROOT)}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in sorted(units.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
