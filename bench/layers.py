"""Per-layer metrics: spans and counter deltas of the traced segment.

Every name below is listed in ``BENCHMARK.json`` ``per_layer`` and is
emitted on every workload (0.0 where the layer is not exercised, which is
itself the prediction: e.g. ``serve.*`` on the task workloads).

* ``api.*`` — driver side: p50 over ops of the time the generator thread
  spent in that call during the op, so on a closed loop they add up to
  ``latency_ms_p50``.
* other ``*.ms`` — p50 of one call; ``*.self_ms`` — p50 of one call minus
  the time its traced children cover.
* ``*_per_op`` / ``*_share`` — exact deltas of ``runtime.metrics.to_dict()``,
  ``runtime.wait_stats.snapshot()`` and ``handle.stats()`` over the segment.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence, Tuple

from bench import spans

# (metric, span name) for the plain "p50 of one call" metrics; all are in ms.
_CALL_P50: Tuple[Tuple[str, str], ...] = (
    ("runtime.fetch_to_node.ms", "runtime.fetch_to_node"),
    ("gcs.add_task.ms", "gcs.add_task"),
    ("gcs.add_tasks.ms", "gcs.add_tasks"),
    ("gcs.set_task_states.ms", "gcs.set_task_states"),
    ("gcs.finish_task.ms", "gcs.finish_task"),
    ("global_scheduler.schedule.ms", "global_scheduler.schedule"),
    ("worker.execute_task.ms", "worker.execute_task"),
    ("worker.resolve_args.ms", "worker.resolve_args"),
    ("worker.store_outputs.ms", "worker.store_outputs"),
    ("actor.submit_method.ms", "actor.submit_method"),
    ("object_store.put.ms", "object_store.put"),
    ("object_store.get.ms", "object_store.get"),
    ("object_store.load_value.ms", "object_store.load_value"),
    ("serialization.serialize.ms", "serialization.serialize"),
    ("serialization.deserialize.ms", "serialization.deserialize"),
    ("transfer.ensure_local.ms", "transfer.ensure_local"),
    ("gc.free_objects.ms", "gc.free_objects"),
    ("serve.router.submit.call_ms", "serve.router.submit"),
    ("serve.replica.handle_batch.ms", "serve.replica.handle_batch"),
)
_SELF_P50: Tuple[Tuple[str, str], ...] = (
    ("runtime.submit_task.self_ms", "runtime.submit_task"),
    ("runtime.submit_many.self_ms", "runtime.submit_many"),
    ("runtime.submit_actor_method.self_ms", "runtime.submit_actor_method"),
    ("local_scheduler.submit.self_ms", "local_scheduler.submit"),
    ("local_scheduler.submit_many.self_ms", "local_scheduler.submit_many"),
)
_API: Tuple[Tuple[str, str], ...] = (
    ("api.remote.call_ms", "api.remote"),
    ("api.submit_many.call_ms", "api.submit_many"),
    ("api.actor_method.call_ms", "api.actor_method"),
    ("api.put.call_ms", "api.put"),
    ("api.get.wait_ms", "api.get"),
    ("api.free.call_ms", "api.free"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    *((name, "ms") for name, _ in _API),
    *((name, "ms") for name, _ in _SELF_P50),
    *((name, "ms") for name, _ in _CALL_P50),
    ("gcs.ops_per_op", "count"),
    ("gcs.batch_writes_per_op", "count"),
    ("gcs.shard_calls_per_op", "count"),
    ("gcs.chain_calls_per_op", "count"),
    ("gcs.driver_blocked_ms_per_op", "ms"),
    ("local_scheduler.fastpath_share", "share"),
    ("local_scheduler.spillbacks_per_op", "count"),
    ("global_scheduler.decisions_per_op", "count"),
    ("object_store.value_cache_hit_share", "share"),
    ("object_store.seal_bytes_per_op", "bytes"),
    ("transfer.bytes_per_op", "bytes"),
    ("transfer.objects_per_op", "count"),
    ("events.wait_backstops", "count"),
    ("serve.router.queue_wait_ms", "ms"),
    ("serve.router.batch_size_mean", "count"),
    ("serve.router.shed_share", "share"),
    ("serve.router.retries", "count"),
    ("serve.reply_ms", "ms"),
    ("proc.cpu_ms_per_op", "ms"),
    ("proc.rss_growth_kb_per_op", "KB"),
    ("proc.gc_pause_ms_total", "ms"),
    ("proc.gc_gen2_collections", "count"),
    ("bench.generator_late_ms_p99", "ms"),
    ("bench.trace_overhead_share", "share"),
    ("bench.trace_latency_p50_ratio", "ratio"),
    ("bench.spans_per_op", "count"),
)

# Counter families of ``runtime.metrics.to_dict()`` the deltas are read from.
COUNTER_FAMILIES = (
    "gcs_ops_total",
    "gcs_batch_writes_total",
    "tasks_submitted_total",
    "scheduler_fastpath_total",
    "scheduler_spillbacks_total",
    "global_scheduler_decisions_total",
    "value_cache_hits_total",
    "value_cache_misses_total",
    "object_store_seal_bytes_total",
    "transfer_bytes_total",
    "transfer_objects_total",
)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples (a layer not exercised)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(p / 100 * len(ordered)) - 1))
    return ordered[rank]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    tracer: spans.Tracer,
    driver_thread: int,
    ops: int,
    delta: Dict[str, float],
    extras: Dict[str, float],
    observed_at: Dict[Any, float],
) -> Dict[str, float]:
    """All ``PER_LAYER`` values for one traced segment of ``ops`` operations.

    ``delta`` holds counter deltas, ``extras`` the values only the load
    generator knows (lateness, overhead, GC pauses), ``observed_at`` the
    instant the collector saw each request payload's reply (open loops).
    """
    by_name = tracer.by_name()
    self_s = tracer.self_times()
    out: Dict[str, float] = {}

    for metric, span in _API:
        per_op: Dict[int, float] = {}
        for r in by_name[span]:
            if r[spans.THREAD] == driver_thread:
                per_op[r[spans.OP]] = per_op.get(r[spans.OP], 0.0) + (
                    r[spans.END] - r[spans.START]
                )
        out[metric] = percentile([v * 1e3 for v in per_op.values()], 50)
    for metric, span in _SELF_P50:
        out[metric] = percentile(
            [self_s[r[spans.ID]] * 1e3 for r in by_name[span]], 50
        )
    for metric, span in _CALL_P50:
        out[metric] = percentile(spans.durations_ms(by_name[span]), 50)

    chain_calls = sum(
        len(records) for name, records in by_name.items() if name.startswith("gcs.chain.")
    )
    shard_calls = [
        r
        for name, records in by_name.items()
        if name.startswith("gcs.shard.")
        for r in records
    ]
    driver_gcs_s = sum(
        r[spans.END] - r[spans.START]
        for r in shard_calls
        if r[spans.THREAD] == driver_thread
    )
    out["gcs.ops_per_op"] = _ratio(delta["gcs_ops_total"], ops)
    out["gcs.batch_writes_per_op"] = _ratio(delta["gcs_batch_writes_total"], ops)
    out["gcs.shard_calls_per_op"] = _ratio(len(shard_calls), ops)
    out["gcs.chain_calls_per_op"] = _ratio(chain_calls, ops)
    out["gcs.driver_blocked_ms_per_op"] = _ratio(driver_gcs_s * 1e3, ops)
    out["local_scheduler.fastpath_share"] = _ratio(
        delta["scheduler_fastpath_total"], delta["tasks_submitted_total"]
    )
    out["local_scheduler.spillbacks_per_op"] = _ratio(
        delta["scheduler_spillbacks_total"], ops
    )
    out["global_scheduler.decisions_per_op"] = _ratio(
        delta["global_scheduler_decisions_total"], ops
    )
    out["object_store.value_cache_hit_share"] = _ratio(
        delta["value_cache_hits_total"],
        delta["value_cache_hits_total"] + delta["value_cache_misses_total"],
    )
    out["object_store.seal_bytes_per_op"] = _ratio(
        delta["object_store_seal_bytes_total"], ops
    )
    out["transfer.bytes_per_op"] = _ratio(delta["transfer_bytes_total"], ops)
    out["transfer.objects_per_op"] = _ratio(delta["transfer_objects_total"], ops)
    out["events.wait_backstops"] = delta["backstop_timeouts"]

    # Serve: match router submit -> replica batch -> observed reply by payload.
    submit_at = {r[spans.TAG]: r[spans.START] for r in by_name["serve.router.submit"]}
    queue_wait: List[float] = []
    reply: List[float] = []
    for r in by_name["serve.replica.handle_batch"]:
        for payload in r[spans.TAG]:
            if payload in submit_at:
                queue_wait.append((r[spans.START] - submit_at[payload]) * 1e3)
            if payload in observed_at:
                reply.append((observed_at[payload] - r[spans.END]) * 1e3)
    out["serve.router.queue_wait_ms"] = percentile(queue_wait, 50)
    out["serve.reply_ms"] = percentile(reply, 50)
    out["serve.router.batch_size_mean"] = _ratio(
        delta.get("serve.completed", 0.0), delta.get("serve.batches", 0.0)
    )
    out["serve.router.shed_share"] = _ratio(
        delta.get("serve.shed", 0.0),
        delta.get("serve.shed", 0.0) + delta.get("serve.submitted", 0.0),
    )
    out["serve.router.retries"] = delta.get("serve.retries", 0.0)

    out["proc.cpu_ms_per_op"] = _ratio(delta["cpu_s"] * 1e3, ops)
    out["bench.spans_per_op"] = _ratio(len(tracer.records), ops)
    out.update(extras)

    missing = [name for name, _ in PER_LAYER if name not in out]
    if missing or len(out) != len(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {missing}")
    return out
