"""The benchmark's own tests (not collected by the repository's suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

Each benchmark run starts in a fresh process, as in a real measurement.
The ``xfail(strict=True)`` tests pin the known defects of NOTES.md:
they fail while a defect is present and turn into an error once it is
fixed, which is the signal to declare the workload in BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402

#: Counters that must repeat exactly for one seed.
DETERMINISTIC = (
    "core.logical_pairs",
    "engine.physical_touches",
    "runtime.sharding.slots_moved",
    "runtime.checkpoint.snapshot_bytes",
    "runtime.late_dropped",
    "bench.failed_ops",
)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    """One benchmark run (the shortest one: ``--seconds 0`` still
    measures the minimum number of lifecycles)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result(proc) -> "tuple[dict, str]":
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["dashboards", "skewed_shm", "churn_replan"])
def test_counters_repeat_for_a_seed_and_move_with_it(workload):
    first, _ = result(bench(workload, 3, 1))
    again, _ = result(bench(workload, 3, 1))
    other, _ = result(bench(workload, 4, 1))
    values = lambda res: {n: res["metrics"][n]["value"] for n in DETERMINISTIC}
    assert values(first) == values(again)
    assert first["failed"] == again["failed"]
    assert values(other) != values(first)


@pytest.mark.parametrize("workload", [w["name"] for w in declared()["workloads"]])
def test_declared_workload_meets_the_output_format(workload):
    spec = declared()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        res, text = result(bench(workload, 1, trace))
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True
        assert res["attempted"] >= 1 and res["failed"] == 0
        assert {n: m["unit"] for n, m in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[group]
        }
        if trace:
            assert "closes: False" not in text
        else:
            assert all(res["metrics"][m["name"]]["value"] != 0 for m in spec[group])


def test_closure_catches_an_unspanned_call():
    ms = 1_000_000
    tracer = spans.Tracer()
    start = spans.clock_ns()
    with tracer.span("runtime.push"):
        pass
    top = tracer.spans[0]
    top.start, top.end = start, start + 10 * ms
    child = spans.Span("runtime.results.drain", start + ms, 0, 0)
    child.end = start + 3 * ms
    tracer.spans.append(child)
    closed = spans.closure(tracer.spans, start, start + 10 * ms + ms // 2)
    assert closed["closes"] and abs(closed["unspanned_ms"] - 0.5) < 1e-9
    assert spans.self_times_ms(tracer.spans)["runtime.push"] == [8.0]
    # A 5 ms call no span covers: the split no longer closes.
    assert not spans.closure(tracer.spans, start, start + 15 * ms)["closes"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("dashboards", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="NOTES.md known defect 1: live re-planning",
)
def test_churn_with_break_before_make_swaps_has_no_failed_ops():
    res, text = result(bench("churn_replan", 1, 0))
    assert "reads from dropped window" not in text
    assert res["failed"] == 0


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="NOTES.md known defect 2: NaN in service results",
)
def test_tenants_results_polls_succeed():
    res, text = result(bench("tenants", 1, 0))
    assert "service closed the connection (op='results')" not in text
    assert res["failed"] == 0


@pytest.mark.xfail(
    strict=True, raises=TypeError,
    reason="NOTES.md known defect 3: float timestamps",
)
def test_float_timestamps_then_mid_stream_register():
    from repro import QuerySession

    session = QuerySession(num_keys=2)
    session.register("SELECT MIN(v) FROM s GROUP BY WINDOWS(TUMBLING(second, 10))")
    for t in range(100):
        session.push(float(t), 0, 1.0)
    session.register("SELECT SUM(v) FROM s GROUP BY WINDOWS(HOPPING(second, 20, 10))")
    for t in range(100, 200):
        session.push(float(t), 1, 1.0)
    session.finish()
