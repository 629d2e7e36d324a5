""":class:`QuerySession` — the single-shard live session.

A session ingests one unbounded, possibly out-of-order event stream
and serves a *changing* set of registered window-aggregate queries:
events enter through a bounded-lateness reorder buffer, queries
register and deregister at any watermark (only the affected
(aggregate, semantics) group is re-optimized), and a rate controller
re-prices the plans when the live event rate drifts.  Plan switches
are watermark-safe (DESIGN.md §6, invariant 9): results are
bit-identical to a cold run of the final workload.

All of that is :class:`~repro.runtime.sharding.ShardedSession`'s
coordinator; ``QuerySession`` is that coordinator over exactly one
in-process shard core (``num_shards=1, backend="serial"``), kept as a
name for the common single-core case.  Its checkpoints are ordinary
``kind="sharded"`` snapshots, and :meth:`QuerySession.restore` also
reads the ``kind="query"`` checkpoints of earlier releases.
"""

from __future__ import annotations

from .checkpoint import CheckpointStore
from .core import DEFAULT_RETIRED_RESULT_CAP
from .ingest import DEFAULT_INGEST_HIGH_WATERMARK
from .results import PlanSwitchRecord, WindowResults
from .sharding import ShardedSession

__all__ = ["PlanSwitchRecord", "QuerySession", "WindowResults"]


class QuerySession(ShardedSession):
    """A long-lived runtime over one unbounded, out-of-order stream:
    a :class:`~repro.runtime.sharding.ShardedSession` with one serial
    shard.

    Parameters
    ----------
    num_keys:
        Dense key-id space of the stream (fixed per session).
    max_lateness:
        Reorder-buffer bound: an event may trail the maximum seen
        timestamp by up to this many ticks; later ones are dropped
        (and counted — see :attr:`reorder_stats`).
    chunk_ticks:
        Watermark-block width.  Default: the largest registered window
        range, recomputed at every switch.
    event_rate / hysteresis / alpha:
        Initial cost-model rate and the live re-planning policy
        (:class:`~repro.core.adaptive.RateController`).  ``hysteresis=
        None`` disables rate-driven re-planning.
    max_retired_results:
        Retention cap on deregistered queries' archived results
        (``None`` = unbounded); evictions are counted exactly.
    async_ingest / ingest_high_watermark / ingest_low_watermark:
        A bounded queue and background pump thread in front of the
        session (:mod:`repro.runtime.ingest`, DESIGN.md §8); results
        are bit-identical to sync mode (invariant 11).
    auto_checkpoint / checkpoint_meta / on_checkpoint:
        In-session checkpoint cadence (DESIGN.md §9): a
        :class:`~repro.runtime.checkpoint.CheckpointStore` built with
        ``every=<ticks>``, an optional ``meta`` provider, and an
        optional ``(snapshot, path)`` callback fired after each save.
    """

    def __init__(
        self,
        num_keys: int = 1,
        max_lateness: int = 0,
        chunk_ticks: "int | None" = None,
        event_rate: int = 1,
        hysteresis: "float | None" = 0.25,
        alpha: float = 0.3,
        enable_factor_windows: bool = True,
        max_retired_results: "int | None" = DEFAULT_RETIRED_RESULT_CAP,
        async_ingest: bool = False,
        ingest_high_watermark: int = DEFAULT_INGEST_HIGH_WATERMARK,
        ingest_low_watermark: "int | None" = None,
        auto_checkpoint: "CheckpointStore | None" = None,
        checkpoint_meta=None,
        on_checkpoint=None,
    ):
        super().__init__(
            num_keys=num_keys,
            num_shards=1,
            backend="serial",
            max_lateness=max_lateness,
            chunk_ticks=chunk_ticks,
            event_rate=event_rate,
            hysteresis=hysteresis,
            alpha=alpha,
            enable_factor_windows=enable_factor_windows,
            max_retired_results=max_retired_results,
            async_ingest=async_ingest,
            ingest_high_watermark=ingest_high_watermark,
            ingest_low_watermark=ingest_low_watermark,
            auto_checkpoint=auto_checkpoint,
            checkpoint_meta=checkpoint_meta,
            on_checkpoint=on_checkpoint,
        )
