"""Lifecycle benchmark of the factor-windows runtime.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload dashboards --seed 1 --seconds 12 --trace 0

One run is one fresh process.  It generates the workload's inputs from
``--seed``, then repeats whole lifecycles (construct, register, ingest,
finish, close) of the program built from this checkout's ``src/`` until
``--seconds`` have passed, compares every query's results with a serial
1-shard oracle run, and prints a report whose last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
taken from lifecycles with spans around every public call (untraced
lifecycles alternate with them to measure the tracing overhead).

Exit codes: 0 after a completed run (``correct`` says whether the
outputs held), 2 when the program's sources are not in this checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fewest lifecycles a run measures, however short ``--seconds`` is:
#: setup time is reported as a median over them.
MIN_LIFECYCLES = 5
#: Per-lifecycle figures are reported at the value that this share of a
#: run's untraced lifecycles meets or beats.  On a shared host the CPU
#: speeds up for seconds at a time when its neighbours idle; a median
#: snaps between the two speeds from run to run, the slow end does not
#: (NOTES.md, "Host and steadiness").
SUSTAINED = 0.9


def _load_program() -> None:
    """Put this checkout's ``src/`` first on the path and make sure the
    program really comes from there (an installed copy must not stand
    in for a missing one)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: repro imported from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _sustained(values, higher_is_better: bool) -> float:
    """The value that :data:`SUSTAINED` of ``values`` meet or beat."""
    ordered = sorted(values, reverse=higher_is_better)
    return ordered[max(0, math.ceil(SUSTAINED * len(ordered)) - 1)]


def host_stamp() -> dict:
    import numpy
    from repro import _kernels

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_compiled": _kernels.available(),
        "REPRO_KERNELS": os.environ.get("REPRO_KERNELS"),
    }


def _cpu_ticks() -> "tuple[int, int]":
    """Host-wide (steal, total) CPU ticks from ``/proc/stat``."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split()[1:9]]
    return fields[7], sum(fields)


def measure(workload, seconds: float, trace: bool, work_dir: Path) -> list:
    """Run lifecycles until ``seconds`` have passed (at least
    :data:`MIN_LIFECYCLES`); with ``trace`` every other one is traced."""
    import lifecycle
    from spans import NullTracer, Tracer

    if workload.kind == "session":
        compiled = workload.streams[0][1]
        plan = lifecycle.steps(compiled, workload.batch, workload.snapshot_every)
        rows = lifecycle.rows_of(compiled)
    else:
        plan = lifecycle.service_plan(workload)
        rows = {t: lifecycle.rows_of(c) for t, c in workload.streams}
    deadline = time.perf_counter() + seconds
    lives = []
    while len(lives) < MIN_LIFECYCLES or time.perf_counter() < deadline:
        traced = trace and len(lives) % 2 == 0
        tracer = Tracer(run=len(lives)) if traced else NullTracer()
        if workload.kind == "session":
            life = lifecycle.run_session(
                workload, workload.make_session, plan, rows, tracer, work_dir
            )
        else:
            life = lifecycle.run_service(
                workload, plan, rows, ROOT, tracer, work_dir
            )
        life.traced = traced
        life.spans = tracer.spans if traced else []
        lives.append(life)
    return lives


def end_to_end(lives, peak_rss_kb: int) -> "tuple[dict, dict]":
    """End-to-end metrics; timings come from untraced lifecycles only."""
    attempted = sum(sum(life.ops.attempted.values()) for life in lives)
    failed = sum(sum(life.ops.failed.values()) for life in lives)
    lives = [life for life in lives if not life.traced]
    metrics = {
        "throughput_eps": _sustained((l.events / l.wall_s for l in lives), True),
        "setup_s": statistics.median(l.setup_s for l in lives),
        "batch_p50_ms": _sustained(
            (_percentile(l.batch_ms, 0.50) for l in lives), False
        ),
        "batch_p95_ms": _sustained(
            (_percentile(l.batch_ms, 0.95) for l in lives), False
        ),
        "ok_ops_frac": 1.0 - failed / attempted,
        "peak_rss_mb": (peak_rss_kb + max(l.children_hwm_kb for l in lives))
        / 1024.0,
        "cpu_us_per_event": _sustained(
            (l.cpu_s / l.events * 1e6 for l in lives), False
        ),
    }
    context = {
        "lifecycles": len(lives),
        "batch_samples": sum(len(l.batch_ms) for l in lives),
        "failed_ops_frac": failed / attempted,
        "backlog_s": statistics.median(l.backlog_s for l in lives),
    }
    return metrics, context


#: Per-layer self-time metrics: metric name → span name.
SELF_MS = {
    "runtime.construct_ms": "runtime.construct",
    "runtime.close_ms": "runtime.close",
    "core.register_ms": "core.register",
    "core.deregister_ms": "core.deregister",
    "runtime.push_ms": "runtime.push",
    "runtime.results.drain_ms": "runtime.results.drain",
    "runtime.results.finish_ms": "runtime.results.finish",
    "runtime.sharding.rebalance_ms": "runtime.sharding.rebalance",
    "runtime.checkpoint.snapshot_ms": "runtime.checkpoint.snapshot",
}
#: Per-call medians: metric name → span name.
P50_MS = {
    "core.register_p50_ms": "core.register",
    "runtime.push_p50_ms": "runtime.push",
    "runtime.results.drain_p50_ms": "runtime.results.drain",
    "service.ingest_rpc_p50_ms": "service.ingest_rpc",
    "service.results_rpc_p50_ms": "service.results_rpc",
}
#: Counters read once per traced lifecycle; they must repeat exactly.
COUNTERS = (
    "core.control_ops",
    "core.plan_switches",
    "core.logical_pairs",
    "engine.physical_touches",
    "runtime.reorder_accepted",
    "runtime.late_dropped",
    "runtime.sharding.slots_moved",
    "runtime.shm_ring.bytes_copied_per_event",
    "runtime.shm_ring.copies_elided",
    "runtime.checkpoint.snapshot_bytes",
    "runtime.retained_state",
    "service.shed",
    "service.rpc_failed",
    "bench.failed_ops",
)


def per_layer(lives) -> "tuple[dict, dict]":
    from spans import closure, durations_ms, self_times_ms

    traced = [l for l in lives if l.traced]
    plain = [l for l in lives if not l.traced]
    totals: "dict[str, list[float]]" = {}
    closures = []
    for life in traced:
        life.counters["bench.failed_ops"] = sum(life.ops.failed.values())
        for name, values in self_times_ms(life.spans).items():
            totals.setdefault(name, []).append(sum(values))
        closures.append(closure(life.spans, life.start_ns, life.end_ns))

    def median_total(span: str) -> float:
        values = totals.get(span, [])
        # A span absent from a lifecycle contributed 0 ms to it.
        values = values + [0.0] * (len(traced) - len(values))
        return statistics.median(values)

    metrics = {name: median_total(span) for name, span in SELF_MS.items()}
    for name, span in P50_MS.items():
        calls = [ms for l in traced for ms in durations_ms(l.spans, span)]
        metrics[name] = statistics.median(calls) if calls else 0.0
    first = traced[0].counters
    for name in COUNTERS:
        metrics[name] = first.get(name, 0)
    metrics["service.backlog_s"] = statistics.median(l.backlog_s for l in traced)
    metrics["bench.unspanned_ms"] = statistics.median(
        c["unspanned_ms"] for c in closures
    )
    traced_eps = statistics.median(l.events / l.wall_s for l in traced)
    plain_eps = statistics.median(l.events / l.wall_s for l in plain)
    metrics["bench.tracing_overhead_eps"] = traced_eps - plain_eps
    repeat = all(
        all(l.counters.get(n, 0) == first.get(n, 0) for n in COUNTERS)
        for l in traced
    )
    context = {
        "closures": closures,
        "closes": all(c["closes"] for c in closures),
        "counters_repeat": repeat,
        "self_ms": {n: median_total(n) for n in sorted(totals)},
    }
    return metrics, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    declared = _declared()
    sys.path.insert(0, str(HERE))
    import lifecycle

    if args.workload not in lifecycle.BUILDERS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"expected one of {sorted(lifecycle.BUILDERS)}"
        )

    work_dir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    # Where the kernel probe of the host stamp may build its cache.
    os.environ["REPRO_KERNELS_CACHE"] = str(ROOT / ".perfbench" / "kernels")
    try:
        workload = lifecycle.build(args.workload, args.seed)
        steal0, total0 = _cpu_ticks()
        lives = measure(workload, args.seconds, bool(args.trace), work_dir)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        oracle, oracle_failed, oracle_wall = lifecycle.oracle_run(
            workload, work_dir
        )
        wrong = sum(lifecycle.check(l, oracle, oracle_failed) for l in lives)
        e2e, context = end_to_end(lives, peak_rss_kb)
        if args.trace:
            metrics, layer_context = per_layer(lives)
        else:
            metrics, layer_context = e2e, {}
        steal1, total1 = _cpu_ticks()
        host = host_stamp()
        host["steal_frac"] = round((steal1 - steal0) / max(1, total1 - total0), 4)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(sum(l.ops.attempted.values()) for l in lives)
    failed = sum(sum(l.ops.failed.values()) for l in lives)
    errors = Counter()
    for life in lives:
        errors.update(life.ops.errors)
    correct = wrong == 0 and layer_context.get("closes", True) and (
        layer_context.get("counters_repeat", True)
    )

    print(f"workload {workload.name}: {workload.why}")
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(
        f"{len(lives)} lifecycles of {workload.events} events, "
        f"{context['lifecycles']} untraced; "
        f"{context['batch_samples']} batch latency samples"
    )
    print(f"  times are those {SUSTAINED:.0%} of untraced lifecycles meet "
          f"or beat (batch latency per lifecycle), setup_s their median")
    print("  lifecycle throughputs (1/s): " + " ".join(
        f"{l.events / l.wall_s:.0f}{'*' if l.traced else ''}" for l in lives))
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {declared[0][name]}")
    print(f"  failed_ops_frac = {context['failed_ops_frac']:.6g} "
          f"({failed} of {attempted} operations)")
    if workload.kind == "service":
        print(f"  backlog_s = {context['backlog_s']:.6g} s "
              f"(offered {workload.offered_eps:g} events/s per tenant)")
    print(f"  oracle (serial 1 shard) lifecycle: "
          f"{workload.events / oracle_wall:.6g} events/s, ungated context")
    for message, count in errors.most_common():
        print(f"  failure x{count}: {message}")
    if args.trace:
        for name, value in layer_context["self_ms"].items():
            print(f"  self time {name} = {value:.6g} ms per lifecycle")
        for closure in layer_context["closures"]:
            print(
                f"  closure: wall {closure['wall_ms']:.3f} ms = spans "
                f"{closure['spanned_ms']:.3f} + unspanned "
                f"{closure['unspanned_ms']:.3f} (closes: {closure['closes']})"
            )
        print(f"  counters repeat across traced lifecycles: "
              f"{layer_context['counters_repeat']}")
    declared_units = declared[args.trace]
    if set(metrics) != set(declared_units):
        raise SystemExit(
            f"metric set differs from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(declared_units))}"
        )
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in declared_units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
