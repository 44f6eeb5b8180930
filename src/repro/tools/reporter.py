"""Per-node reporters: the sampling half of the ops plane.

Each :class:`NodeReporter` is attached to one :class:`~repro.core.runtime.Node`
and periodically snapshots that node's local state — scheduler queue depth
and backlog, worker busy/idle counts, object-store bytes and eviction/spill
pressure, and in-flight transfer count — into a versioned row in the GCS
node-report table (``gcs.publish_node_report``).

This preserves the paper's Figure 5 property: *tools ride on the GCS*.
The dashboard head (:mod:`repro.tools.dashboard_head`) and the autoscaler
(:mod:`repro.tools.autoscaler`) never touch node internals; they read only
the reporter rows.  When a node dies its last row survives as a tombstone
(``alive=False``) so operators can see the final state of a lost node.

Reporters default *off* (``RuntimeConfig.reporters_enabled``); disabled
mode costs one attribute check on the node-lifecycle paths, mirroring the
``NULL_FAULTS`` / ``NULL_REGISTRY`` pattern.
"""

from __future__ import annotations

import itertools
import time
from typing import TYPE_CHECKING, Any, Dict

from repro.common.lockwatch import Ticker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import Node, Runtime

__all__ = ["NodeReporter", "sample_node"]


def sample_node(runtime: "Runtime", node: "Node") -> Dict[str, Any]:
    """One reporter snapshot of ``node``'s local state, as a plain dict.

    Every value is JSON-safe (str/int/float/bool); the row is published
    verbatim into the GCS and served verbatim by the dashboard head.
    Sampling takes each component's own lock briefly (via its accessor)
    but never holds any lock across components.
    """
    scheduler = node.local_scheduler
    store = node.store
    running = len(scheduler.running_tasks())
    total_cpu = float(node.resources.total.get("CPU", 0.0))
    capacity = store.capacity_bytes
    used = store.used_bytes
    return {
        "node_id": node.node_id.hex(),
        "alive": node.alive,
        # Scheduler pressure: the autoscaler's primary signal.
        "queue_length": scheduler.queue_length(),
        "backlog": scheduler.backlog(),
        "running_tasks": running,
        # Worker occupancy, derived from running count vs CPU slots.
        "workers_total": total_cpu,
        "workers_busy": float(running),
        "workers_idle": max(0.0, total_cpu - running),
        # Object-store pressure.
        "store_used_bytes": used,
        "store_num_objects": store.num_objects(),
        "store_capacity_bytes": capacity,
        "store_utilization": (used / capacity) if capacity else 0.0,
        "store_evictions": store.eviction_count,
        "store_spills": store.spill_count,
        "store_restores": store.restore_count,
        # Transfer plane: fetches currently in flight toward this node.
        "transfers_inflight": runtime.fetcher.inflight_count(node.node_id),
        "resources_total": dict(node.resources.total),
        "resources_available": dict(node.resources.available()),
    }


class NodeReporter:
    """Samples one node on an interval and publishes rows to the GCS.

    The sampling logic is the synchronous :meth:`report_once` so tests can
    drive it deterministically; :meth:`start` runs it on a
    :class:`~repro.common.lockwatch.Ticker`.  ``stop`` is idempotent and
    joins the thread; ``stop(tombstone=True)`` additionally rewrites the
    node's row as a tombstone (the ``kill_node`` path).
    """

    def __init__(self, runtime: "Runtime", node: "Node",
                 interval: float = 0.25):
        self._runtime = runtime
        self._node = node
        self._row_seq = itertools.count(1)
        self.ticker = Ticker(
            f"reporter-{node.node_id.hex()[:8]}", interval, self.report_once
        )

    @property
    def node_hex(self) -> str:
        return self._node.node_id.hex()

    def report_once(self) -> Dict[str, Any]:
        """Take one snapshot and publish it; returns the published row."""
        row = sample_node(self._runtime, self._node)
        row["seq"] = next(self._row_seq)
        row["ts"] = time.time()
        self._runtime.gcs.publish_node_report(self.node_hex, row)
        return row

    # -- interval thread ---------------------------------------------------

    def start(self) -> None:
        self.ticker.start()

    def stop(self, tombstone: bool = False) -> None:
        """Stop the interval thread (idempotent); optionally tombstone the
        node's last-seen row (node-death path)."""
        self.ticker.stop()
        if tombstone:
            self._runtime.gcs.tombstone_node_report(self.node_hex)
