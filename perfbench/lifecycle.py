"""The four workloads and the lifecycle that drives each one.

Inputs come from ``repro.scenarios.compile_scenario`` (seeded stream,
out-of-order scramble, op schedule pinned to arrival index); the
program only ever receives the generated events and calls.  One
lifecycle is construct → register → ingest (batches, control calls,
result drains) → finish → close, timed from the constructor call to
``close()`` returning.  Every call that raises is counted as a failed
operation, never skipped, and every query's collected results are
compared with a serial 1-shard ``ShardedSession`` fed the same stream
and op schedule (the oracle).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import QuerySession, ShardedSession
from repro.aggregates.registry import get_aggregate
from repro.core.multiquery import Query
from repro.runtime.results import WindowResults
from repro.scenarios import (
    QuerySpec,
    compile_scenario,
    load_scenario,
    results_digest,
)
from repro.service.client import ServiceClient
from repro.service.protocol import Overloaded

from spans import clock_ns

#: Op application order at one arrival index (the scenario runner's
#: order, with the benchmark's snapshots last).
_PRIORITY = {"register": 0, "deregister": 1, "rebalance": 2, "snapshot": 3}


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
@dataclass
class Workload:
    """One named workload, fully generated from the seed."""

    name: str
    why: str
    kind: str  # "session" or "service"
    num_keys: int
    max_lateness: int
    #: session workloads: one stream; service workloads: one per tenant
    streams: "list[tuple[str, object]]"
    batch: int
    #: session workloads: 0 for a QuerySession, else a ShardedSession
    shards: int = 0
    backend: str = "serial"
    snapshot_every: int = 0
    #: service workloads: SQL registrations, poll cadence, offered rate
    sql: "tuple[tuple[str, str], ...]" = ()
    poll_every: int = 0
    offered_eps: float = 0.0

    @property
    def events(self) -> int:
        return sum(c.num_events for _, c in self.streams)

    def make_session(self):
        if not self.shards:
            return QuerySession(
                num_keys=self.num_keys, max_lateness=self.max_lateness
            )
        return ShardedSession(
            num_keys=self.num_keys,
            num_shards=self.shards,
            backend=self.backend,
            max_lateness=self.max_lateness,
        )

    def make_oracle(self):
        return ShardedSession(
            num_keys=self.num_keys,
            num_shards=1,
            backend="serial",
            max_lateness=self.max_lateness,
        )


def _compile(stream: dict, queries: list, runtime: "dict | None" = None):
    return compile_scenario(
        load_scenario(
            {
                "name": "perfbench",
                "stream": stream,
                "workload": {"queries": queries},
                "runtime": runtime or {},
            }
        )
    )


def _dashboards(seed: int) -> Workload:
    # 64 IoT sensors at a constant 8 events/tick, displaced by up to 16
    # ticks; the reorder bound of 14 ticks drops the worst stragglers.
    # Values are whole numbers (the scenario default), so SUM merges
    # are exact and results compare bit for bit (DESIGN.md invariant 9).
    compiled = _compile(
        {
            "events": 96_000,
            "keys": 64,
            "seed": seed,
            "rate": 8,
            "out_of_order": {"lateness": 16, "seed": seed + 1},
        },
        [
            {"name": "temp_floor", "aggregate": "min",
             "windows": ["20", "40", "60/20", "120/20"]},
            {"name": "temp_peak", "aggregate": "max",
             "windows": ["30/10", "60/10", "90/30", "180/30"]},
            {"name": "energy", "aggregate": "sum",
             "windows": ["20", "60", "120/40", "240/40"]},
        ],
        {"lateness": 14},
    )
    return Workload(
        name="dashboards",
        why=WHY["dashboards"],
        kind="session",
        num_keys=64,
        max_lateness=compiled.max_lateness,
        streams=[("", compiled)],
        batch=400,
    )


#: The churn pool: 16 query shapes over MIN/MAX/SUM/COUNT with
#: overlapping window sets.  Shapes 0, 1 and 8 are the live
#: re-planning sequence of NOTES.md (MIN [10,15] and [15,90] live, the
#: first leaves, then MIN [10] joins), which the first swap plays.
CHURN_POOL = (
    ("min", ["10", "15"]),
    ("min", ["15", "90"]),
    ("max", ["30/10", "60/10"]),
    ("sum", ["60/10", "120/10"]),
    ("count", ["20", "40"]),
    ("max", ["60/20", "120/20"]),
    ("sum", ["30", "90"]),
    ("count", ["40/20", "80/20"]),
    ("min", ["10"]),
    ("max", ["40", "120"]),
    ("sum", ["120/40", "240/40"]),
    ("count", ["100"]),
    ("min", ["20", "60"]),
    ("max", ["90/30"]),
    ("sum", ["60"]),
    ("count", ["50/10", "100/10"]),
)
CHURN_LIVE = 8
CHURN_RATE = 4  # events per tick
CHURN_BATCH = 200
CHURN_SWAP_BATCHES = 8


def _churn(seed: int, break_first: bool = False) -> Workload:
    """Every few batches the oldest live query is swapped for the next
    pool shape.  By default the successor joins at the same arrival
    index as the departure, which the compiled schedule applies
    register-first (make before break).  ``break_first`` retires the
    old query one tick before its successor joins."""
    events = 48_000
    batches = events // CHURN_BATCH
    swap_ticks = CHURN_SWAP_BATCHES * CHURN_BATCH // CHURN_RATE
    queries = []
    live: "list[tuple[int, str]]" = []  # (shape, name), oldest first
    incarnation = Counter()

    def join(shape: int, at: int) -> None:
        incarnation[shape] += 1
        name = f"p{shape:02d}_{incarnation[shape]}"
        aggregate, windows = CHURN_POOL[shape]
        queries.append(
            {"name": name, "aggregate": aggregate, "windows": windows,
             "register_at": at}
        )
        live.append((shape, name))

    for shape in range(CHURN_LIVE):
        join(shape, 0)
    for swap in range(1, batches // CHURN_SWAP_BATCHES):
        at = swap * swap_ticks
        shape, name = live.pop(0)
        for spec in queries:
            if spec["name"] == name:
                spec["deregister_at"] = at
        join((shape + CHURN_LIVE) % len(CHURN_POOL), at + int(break_first))
    compiled = _compile(
        {
            "events": events,
            "keys": 32,
            "seed": seed,
            "rate": CHURN_RATE,
            "out_of_order": {"lateness": 4, "seed": seed + 1},
        },
        queries,
    )
    name = "churn_replan" if break_first else "churn"
    return Workload(
        name=name,
        why=WHY[name],
        kind="session",
        num_keys=32,
        max_lateness=compiled.max_lateness,
        streams=[("", compiled)],
        batch=CHURN_BATCH,
        shards=4,
    )


def _skewed(seed: int, backend: str = "serial") -> Workload:
    # The largest window range (480 ticks) sets the flush chunk: 3,840
    # events, so one batch in 12 carries a flush and batch p95 lies
    # inside the flush mode.  Near one flush in 20 batches, p95 would
    # sit on the edge between cheap and flush batches and jump between
    # runs.
    events = 80_000
    batch = 320
    compiled = _compile(
        {
            "events": events,
            "keys": 256,
            "seed": seed,
            "rate": 8,
            "skew": 1.2,
            "values": {"distribution": "uniform", "low": 0, "high": 1000},
            "out_of_order": {"lateness": 16, "seed": seed + 1},
        },
        [
            {"name": "device_load", "aggregate": "sum",
             "windows": ["240/40", "480/40"]},
            {"name": "device_peak", "aggregate": "max",
             "windows": ["120/40", "480/120"]},
            {"name": "fleet_floor", "aggregate": "min",
             "windows": ["240", "480"], "scope": "global"},
        ],
        {"lateness": 14, "rebalance_every": 25 * batch},
    )
    return Workload(
        name="skewed_shm" if backend == "shm" else "skewed",
        why=WHY["skewed_shm" if backend == "shm" else "skewed"],
        kind="session",
        num_keys=256,
        max_lateness=compiled.max_lateness,
        streams=[("", compiled)],
        batch=batch,
        shards=2,
        backend=backend,
        snapshot_every=50 * batch,
    )


TENANT_SQL = (
    ("floor",
     "SELECT MIN(v) FROM s GROUP BY WINDOWS(TUMBLING(second, 20), "
     "TUMBLING(second, 40), HOPPING(second, 60, 20))"),
    ("load",
     "SELECT SUM(v) FROM s GROUP BY WINDOWS(HOPPING(second, 30, 10), "
     "HOPPING(second, 60, 10))"),
)


def _tenants(seed: int) -> Workload:
    streams = []
    for index, tenant in enumerate(("alice", "bob")):
        compiled = _compile(
            {
                "events": 4_800,
                "keys": 64,
                "seed": seed * 2 + index,
                "rate": 4,
                "values": {"distribution": "uniform", "low": 0,
                           "high": 100},
            },
            [{"name": "unused"}],
        )
        streams.append((tenant, compiled))
    return Workload(
        name="tenants",
        why=WHY["tenants"],
        kind="service",
        num_keys=64,
        max_lateness=0,
        streams=streams,
        batch=40,
        sql=TENANT_SQL,
        poll_every=8,
        # Per tenant; the default tenant quota is 10k events/s.
        offered_eps=3_000.0,
    )


WHY = {
    "dashboards": "one QuerySession; ingest (reorder and flush in engine) "
    "does nearly all the work while the optimizer and worker data plane "
    "stay idle",
    "churn": "4 serial shards with a register and a deregister every few "
    "batches; core planning and group rebuild on every shard core "
    "dominate, ingest is light",
    "churn_replan": "churn with each departure one tick before its "
    "successor joins: replays the live re-planning defect of NOTES.md",
    "skewed": "2 serial shards on a Zipf(1.2) stream with rebalance and "
    "snapshot: routing, merge and scatter, result drains, migration and "
    "checkpoint writes, all in one process",
    "skewed_shm": "2 shm shards on a Zipf(1.2) stream with rebalance and "
    "snapshot: routing, waiting on workers, merge, result drains, "
    "migration and checkpoint writes",
    "tenants": "the JSON-lines service in its own process, two tenants "
    "driven open-loop under quota: codec, admission, per-event apply, "
    "result serialization",
}

BUILDERS = {
    "dashboards": _dashboards,
    "churn": _churn,
    "churn_replan": lambda seed: _churn(seed, break_first=True),
    "skewed": _skewed,
    "skewed_shm": lambda seed: _skewed(seed, backend="shm"),
    "tenants": _tenants,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


# ----------------------------------------------------------------------
# Op accounting and result collection
# ----------------------------------------------------------------------
class Ops:
    """Attempted and failed operations, by category, with the distinct
    error messages seen."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: Counter = Counter()

    def call(self, kind: str, fn, *args, **kwargs):
        """Run one operation; returns ``(ok, value)``.  A raising call
        is a failure of the program under test, recorded and survived
        (the boundary of the load generator must keep running)."""
        self.attempted[kind] += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted, not hidden
            self.fail(kind, exc)
            return False, None

    def fail(self, kind: str, exc: BaseException) -> None:
        self.failed[kind] += 1
        detail = str(exc).splitlines()[0][:140] if str(exc) else ""
        self.errors[f"{kind}: {type(exc).__name__}: {detail}"] += 1

    def check(self, ok: bool, detail: str) -> None:
        self.attempted["check"] += 1
        if not ok:
            self.failed["check"] += 1
            self.errors[f"check: {detail}"] += 1


class Collector:
    """Result blocks per (query, window), in the order they arrived."""

    def __init__(self):
        self.blocks: "dict[tuple[str, object], list]" = {}

    def add(self, results) -> None:
        for name, by_window in results.items():
            for window, block in by_window.items():
                self.blocks.setdefault((name, window), []).append(
                    (block.start_instance, block.frontier, block.values)
                )

    def digests(self) -> "dict[str, str]":
        """Per query, ``results_digest`` over its windows' blocks joined
        end to end; ``"gap"`` when the blocks do not tile."""
        merged: "dict[str, dict]" = {}
        gaps = set()
        for (name, window), blocks in self.blocks.items():
            blocks = [b for b in blocks if b[1] > b[0]]
            if not blocks:
                continue
            if any(b[0] != a[1] for a, b in zip(blocks, blocks[1:])):
                gaps.add(name)
                continue
            merged.setdefault(name, {})[window] = WindowResults(
                query=name,
                window=window,
                start_instance=blocks[0][0],
                frontier=blocks[-1][1],
                values=np.concatenate([b[2] for b in blocks], axis=1),
            )
        out = {name: results_digest({name: w}) for name, w in merged.items()}
        out.update(dict.fromkeys(gaps, "gap"))
        return out


@dataclass
class Lifecycle:
    """One lifecycle's measurements."""

    events: int
    wall_s: float
    setup_s: float
    cpu_s: float
    batch_ms: "list[float]"
    children_hwm_kb: int
    ops: Ops
    digests: "dict[str, str]"
    expected: "tuple[str, ...]"
    start_ns: int = 0
    end_ns: int = 0
    counters: dict = field(default_factory=dict)
    backlog_s: float = 0.0
    #: queries whose own register or deregister call raised, or whose
    #: results a failed read lost
    failed_queries: set = field(default_factory=set)
    traced: bool = False
    spans: list = field(default_factory=list)


# ----------------------------------------------------------------------
# Process-tree accounting (from outside: /proc and getrusage)
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _child_pids(pid: int) -> "list[int]":
    pids = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return pids
    for task in tasks:
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        pids.extend(int(p) for p in text.split())
    return pids


def _hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def children_hwm_kb() -> int:
    """Summed peak resident memory of every live descendant."""
    total = 0
    stack = _child_pids(os.getpid())
    while stack:
        pid = stack.pop()
        total += _hwm_kb(pid)
        stack.extend(_child_pids(pid))
    return total


# ----------------------------------------------------------------------
# In-process lifecycle
# ----------------------------------------------------------------------
def _query(payload: dict) -> "tuple[Query, str]":
    spec = QuerySpec(**payload)
    return (
        Query(
            name=spec.name,
            windows=spec.window_set(),
            aggregate=get_aggregate(spec.aggregate),
        ),
        spec.scope,
    )


def steps(compiled, batch: int, snapshot_every: int = 0) -> list:
    """The compiled op schedule interleaved with batch cuts: a batch
    never straddles an op's arrival index."""
    n = compiled.num_events
    ops = list(compiled.ops)
    if snapshot_every:
        ops += [(i, "snapshot", None) for i in range(snapshot_every, n, snapshot_every)]
    ops.sort(key=lambda op: (op[0], _PRIORITY[op[1]]))
    cuts = sorted(
        set(range(0, n, batch)) | {min(i, n) for i, _, _ in ops} | {n}
    )
    out = []
    pending = iter(ops)
    op = next(pending, None)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        while op is not None and op[0] <= lo:
            out.append(_step(op))
            op = next(pending, None)
        out.append(("batch", lo, hi))
    while op is not None:
        out.append(_step(op))
        op = next(pending, None)
    return out


def _step(op) -> tuple:
    _, kind, payload = op
    if kind == "register":
        return ("register", *_query(payload))
    return (kind, payload)


def rows_of(compiled) -> np.ndarray:
    return np.column_stack(
        (
            compiled.timestamps.astype(np.float64),
            compiled.keys.astype(np.float64),
            compiled.values.astype(np.float64),
        )
    )


def run_session(
    workload: Workload,
    make_session,
    plan: list,
    rows: np.ndarray,
    tracer,
    work_dir: Path,
) -> Lifecycle:
    """One in-process lifecycle of ``make_session()`` over ``plan``."""
    compiled = workload.streams[0][1]
    ops = Ops()
    got = Collector()
    batch_ms: "list[float]" = []
    snapshot_bytes = 0
    slots_moved = 0
    snap_dir = work_dir / "snapshots"
    counters: dict = {}
    expected = tuple(step[1].name for step in plan if step[0] == "register")
    failed_queries = set()
    cpu0 = cpu_seconds()
    start = clock_ns()
    with tracer.span("runtime.construct"):
        session = make_session()
    setup_end = None
    hwm = 0
    try:
        for step in plan:
            kind = step[0]
            if kind == "batch":
                if setup_end is None:
                    setup_end = clock_ns()
                with tracer.span("bench.batch"):
                    t0 = clock_ns()
                    with tracer.span("runtime.push"):
                        ops.call("batch", session.push_many, rows[step[1]:step[2]])
                    with tracer.span("runtime.results.drain"):
                        ok, drained = ops.call("read", session.drain_results)
                    batch_ms.append((clock_ns() - t0) / 1e6)
                    if ok:
                        got.add(drained)
                    else:
                        failed_queries.update(expected)
            elif kind == "register":
                with tracer.span("core.register"):
                    ok, _ = ops.call(
                        "control", session.register, step[1], scope=step[2]
                    )
                if not ok:
                    failed_queries.add(step[1].name)
            elif kind == "deregister":
                with tracer.span("core.deregister"):
                    ok, _ = ops.call("control", session.deregister, step[1])
                if not ok:
                    failed_queries.add(step[1])
            elif kind == "rebalance":
                with tracer.span("runtime.sharding.rebalance"):
                    ok, moved = ops.call("control", session.rebalance)
                slots_moved += moved if ok else 0
            elif kind == "snapshot":
                path = snap_dir / f"snap-{ops.attempted['control']:04d}.rckpt"
                with tracer.span("runtime.checkpoint.snapshot"):
                    ok, _ = ops.call("control", session.snapshot, path=path)
                if ok:
                    snapshot_bytes += path.stat().st_size
        with tracer.span("runtime.results.finish"):
            ok, final = ops.call("read", session.finish, horizon=compiled.horizon)
        if ok:
            got.add(final)
        else:
            failed_queries.update(expected)
        if tracer.enabled:
            with tracer.span("bench.inspect"):
                counters = _inspect(session)
        with tracer.span("bench.probe"):
            hwm = children_hwm_kb()
    finally:
        with tracer.span("runtime.close"):
            ops.call("control", session.close)
    end = clock_ns()
    cpu = cpu_seconds() - cpu0
    shutil.rmtree(snap_dir, ignore_errors=True)
    counters.update(
        {
            "runtime.sharding.slots_moved": slots_moved,
            "runtime.checkpoint.snapshot_bytes": snapshot_bytes,
            "core.control_ops": ops.attempted["control"],
        }
    )
    return Lifecycle(
        events=compiled.num_events,
        wall_s=(end - start) / 1e9,
        setup_s=((setup_end or end) - start) / 1e9,
        cpu_s=cpu,
        batch_ms=batch_ms,
        children_hwm_kb=hwm,
        ops=ops,
        digests=got.digests(),
        expected=expected,
        start_ns=start,
        end_ns=end,
        counters=counters,
        failed_queries=failed_queries,
    )


def _inspect(session) -> dict:
    """Deterministic counters, read through public accessors after
    ``finish``; an accessor that raises reports -1."""

    def read(fn):
        try:
            return fn()
        except Exception:  # noqa: BLE001 - reported as -1
            return -1

    stats = read(session.stats)
    reorder = session.reorder_stats

    def stat(fn):
        return -1 if stats == -1 else fn(stats)

    return {
        "core.logical_pairs": stat(lambda s: s.total_pairs),
        "engine.physical_touches": stat(lambda s: s.total_physical),
        "runtime.shm_ring.bytes_copied_per_event": stat(
            lambda s: s.bytes_copied / max(1, reorder.accepted)
        ),
        "runtime.shm_ring.copies_elided": stat(lambda s: s.copies_elided),
        "runtime.reorder_accepted": reorder.accepted,
        "runtime.late_dropped": reorder.late_dropped,
        "core.plan_switches": read(lambda: len(session.switches)),
        "runtime.retained_state": read(session.max_retained_state),
    }


# ----------------------------------------------------------------------
# Service lifecycle (factor-windows serve in its own process)
# ----------------------------------------------------------------------
SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 30.0


def start_server(root: Path, work_dir: Path) -> "tuple[subprocess.Popen, int]":
    """Launch ``factor-windows serve`` on an ephemeral port, with its
    checkpoints inside ``work_dir``; returns the process and port."""
    import selectors

    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    log = open(work_dir / "server.log", "ab")
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.bench.cli", "serve", "--port", "0",
             "--checkpoint-dir", str(work_dir / "service-ckpt")],
            stdout=subprocess.PIPE,
            stderr=log,
            env=env,
            cwd=root,
        )
    finally:
        log.close()
    deadline = time.monotonic() + SERVER_START_TIMEOUT
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    try:
        while time.monotonic() < deadline:
            if not selector.select(timeout=deadline - time.monotonic()):
                break
            line = proc.stdout.readline().decode(errors="replace")
            if not line:
                break
            if "listening on" in line:
                return proc, int(line.rsplit(":", 1)[1])
    finally:
        selector.close()
    stop_process(proc)
    raise RuntimeError("service did not report its port")


def stop_process(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=SERVER_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def service_plan(workload: Workload) -> list:
    """The merged open-loop send schedule of all tenants:
    ``(due_offset_s, tenant, lo, hi, poll)`` sorted by due time, each
    tenant's batches evenly spaced at the offered rate and the tenants
    staggered by half a period."""
    period = workload.batch / workload.offered_eps
    plan = []
    for index, (tenant, compiled) in enumerate(workload.streams):
        offset = period * index / len(workload.streams)
        n = compiled.num_events
        for number, lo in enumerate(range(0, n, workload.batch)):
            hi = min(n, lo + workload.batch)
            poll = (number + 1) % workload.poll_every == 0
            plan.append((offset + number * period, tenant, lo, hi, poll))
    plan.sort(key=lambda item: item[0])
    return plan


def run_service(
    workload: Workload,
    plan: list,
    rows: "dict[str, np.ndarray]",
    root: Path,
    tracer,
    work_dir: Path,
) -> Lifecycle:
    """One lifecycle of the service: start, open and register both
    tenants, drive the open-loop schedule, read the final results,
    shut down."""
    ops = Ops()
    got = Collector()
    batch_ms: "list[float]" = []
    shed = 0
    clients: "dict[str, ServiceClient]" = {}
    tenants = [tenant for tenant, _ in workload.streams]
    names = {tenant: [f"{tenant}.{name}" for name, _ in workload.sql] for tenant in tenants}
    cpu0 = cpu_seconds()
    start = clock_ns()
    with tracer.span("runtime.construct"):
        proc, port = start_server(root, work_dir)
    hwm = 0
    backlog = 0.0
    failed_queries = set()

    def client_for(tenant: str) -> ServiceClient:
        if tenant not in clients:
            with tracer.span("service.connect"):
                clients[tenant] = ServiceClient(port=port)
        return clients[tenant]

    def lost(tenant: str) -> None:
        # The server closes the connection on a failed reply; the
        # next call to this tenant reconnects.
        client = clients.pop(tenant, None)
        if client is not None:
            client.close()

    def poll(tenant: str) -> None:
        with tracer.span("service.results_rpc"):
            ok, res = ops.call("read", client_for(tenant).results, tenant)
        if ok:
            got.add(res)
        else:
            failed_queries.update(names[tenant])
            lost(tenant)

    try:
        for tenant in tenants:
            with tracer.span("service.open"):
                ok, _ = ops.call(
                    "control", client_for(tenant).open, tenant,
                    {"num_keys": workload.num_keys},
                )
            if not ok:
                lost(tenant)
            for (name, sql), full in zip(workload.sql, names[tenant]):
                with tracer.span("core.register"):
                    ok, _ = ops.call(
                        "control", client_for(tenant).register, tenant, sql,
                        name=full,
                    )
                if not ok:
                    failed_queries.add(full)
                    lost(tenant)
        setup_end = clock_ns()
        base = time.perf_counter()
        last_late = 0.0
        for due, tenant, lo, hi, do_poll in plan:
            due_at = base + due
            wait = due_at - time.perf_counter()
            if wait > 0:
                with tracer.span("bench.pace"):
                    time.sleep(wait)
            last_late = max(0.0, time.perf_counter() - due_at)
            with tracer.span("service.ingest_rpc"):
                ops.attempted["batch"] += 1
                try:
                    client_for(tenant).ingest(tenant, rows[tenant][lo:hi])
                except Overloaded as exc:
                    shed += 1
                    ops.fail("batch", exc)
                except Exception as exc:  # noqa: BLE001 - counted
                    ops.fail("batch", exc)
                    lost(tenant)
            batch_ms.append((time.perf_counter() - due_at) * 1e3)
            if do_poll:
                poll(tenant)
        backlog = last_late
        for tenant in tenants:
            poll(tenant)
        with tracer.span("bench.probe"):
            hwm = children_hwm_kb()
    finally:
        with tracer.span("runtime.close"):
            ops.call("control", _shutdown, proc, port)
            for tenant in list(clients):
                lost(tenant)
    end = clock_ns()
    cpu = cpu_seconds() - cpu0
    shutil.rmtree(work_dir / "service-ckpt", ignore_errors=True)
    counters = {
        "service.shed": shed,
        "service.rpc_failed": sum(ops.failed.values()) - shed,
        "core.control_ops": ops.attempted["control"],
    }
    return Lifecycle(
        events=workload.events,
        wall_s=(end - start) / 1e9,
        setup_s=(setup_end - start) / 1e9,
        cpu_s=cpu,
        batch_ms=batch_ms,
        children_hwm_kb=hwm,
        ops=ops,
        digests=got.digests(),
        expected=tuple(n for t in tenants for n in names[t]),
        start_ns=start,
        end_ns=end,
        counters=counters,
        backlog_s=backlog,
        failed_queries=failed_queries,
    )


def _shutdown(proc: subprocess.Popen, port: int) -> None:
    try:
        with ServiceClient(port=port, timeout=SERVER_STOP_TIMEOUT) as client:
            client.shutdown()
        proc.wait(timeout=SERVER_STOP_TIMEOUT)
    finally:
        stop_process(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"service exited with code {proc.returncode}")


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def oracle_run(workload: Workload, work_dir: Path) -> "tuple[dict, set, float]":
    """The serial 1-shard oracle over the same stream and op schedule:
    per-query digests, the queries whose own calls raised there too,
    and its lifecycle wall time."""
    from spans import NullTracer

    if workload.kind == "session":
        compiled = workload.streams[0][1]
        plan = steps(compiled, workload.batch, workload.snapshot_every)
        life = run_session(
            workload, workload.make_oracle, plan, rows_of(compiled),
            NullTracer(), work_dir,
        )
        return life.digests, life.failed_queries, life.wall_s
    # Service: each tenant's stream into its own oracle session, with
    # the same registrations and the same drain points.
    digests = {}
    started = time.perf_counter()
    for tenant, compiled in workload.streams:
        got = Collector()
        session = workload.make_oracle()
        try:
            for name, sql in workload.sql:
                session.register(sql, name=f"{tenant}.{name}")
            rows = rows_of(compiled)
            for number, lo in enumerate(range(0, compiled.num_events, workload.batch)):
                session.push_many(rows[lo:lo + workload.batch])
                if (number + 1) % workload.poll_every == 0:
                    got.add(session.drain_results())
            got.add(session.drain_results())
        finally:
            session.close()
        digests.update(got.digests())
    return digests, set(), time.perf_counter() - started


def check(life: Lifecycle, oracle: dict, oracle_failed: set) -> int:
    """Per-query result check against the oracle, counted as ops.
    Returns how many queries got silently wrong results: results that
    differ from the oracle's although every call on the query
    succeeded in both runs."""
    wrong = 0
    for name in life.expected:
        if name not in oracle:
            life.ops.check(False, "query absent from the oracle run")
        elif name not in life.digests:
            life.ops.check(False, "query results missing")
        elif life.digests[name] == oracle[name]:
            life.ops.check(True, "")
        elif name in life.failed_queries or name in oracle_failed:
            life.ops.check(False, "query results differ after a failed call")
        else:
            wrong += 1
            life.ops.check(False, "query results differ from the oracle")
    return wrong
