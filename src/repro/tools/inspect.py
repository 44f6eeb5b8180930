"""Cluster state inspection — everything read straight from the GCS.

No component is asked anything: tasks come from the task table, objects
from the object table, actors from the actor table, and the only node-side
reads are the public utilization counters.  This is the paper's argument
for the GCS ("it enabled us to query the entire system state while
debugging Ray itself") made executable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from repro.gcs.tables import TaskStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Runtime


@dataclass
class ClusterSnapshot:
    """A point-in-time summary of the whole cluster."""

    num_nodes: int
    live_nodes: int
    tasks_by_status: Dict[str, int]
    num_objects: int
    total_object_bytes: int
    actors_alive: int
    actors_dead: int
    node_utilization: Dict[str, float] = field(default_factory=dict)
    store_used_bytes: Dict[str, int] = field(default_factory=dict)
    # Notification-layer counters (blocking-path health): see
    # repro.common.events.WaitStats.
    wait_stats: Dict[str, int] = field(default_factory=dict)

    def format(self) -> str:
        lines = [
            f"nodes: {self.live_nodes}/{self.num_nodes} alive",
            "tasks: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.tasks_by_status.items())),
            f"objects: {self.num_objects} ({self.total_object_bytes:,} bytes registered)",
            f"actors: {self.actors_alive} alive, {self.actors_dead} dead",
        ]
        if self.wait_stats:
            lines.append(
                "waits: "
                + ", ".join(f"{k}={v}" for k, v in sorted(self.wait_stats.items()))
            )
        for node, utilization in sorted(self.node_utilization.items()):
            used = self.store_used_bytes.get(node, 0)
            lines.append(
                f"  node {node}: cpu {utilization * 100:.0f}%  store {used:,} B"
            )
        return "\n".join(lines)


class ClusterInspector:
    """Read-only views over a runtime's GCS."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime
        self.gcs = runtime.gcs

    # -- table scans --------------------------------------------------------

    def tasks_by_status(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for entry in self.runtime.landed_gcs().tasks():
            counts[entry.status.value] = counts.get(entry.status.value, 0) + 1
        return counts

    def pending_tasks(self) -> List:
        """Tasks not yet finished — the first place to look when stuck."""
        return self.runtime.landed_gcs().tasks_with_status(TaskStatus.SCHEDULED)

    def object_stats(self):
        count = 0
        total_bytes = 0
        for _object_id, (size, _task) in self.runtime.landed_gcs().objects():
            count += 1
            total_bytes += size
        return count, total_bytes

    def objects_without_live_copies(self) -> List:
        """Registered objects every copy of which is gone (lost or evicted
        — retrievable only through reconstruction)."""
        out = []
        for object_id, _meta in self.runtime.landed_gcs().objects():
            if not self.runtime.transfer.live_locations(object_id):
                out.append(object_id)
        return out

    def wait_path_stats(self) -> Dict[str, int]:
        """Notification-layer counters plus live GCS subscription count.

        ``backstop_recoveries`` > 0 means a wakeup was missed somewhere and
        the guard caught it — the first place to look for latency bugs.
        """
        stats = dict(self.runtime.wait_stats.snapshot())
        stats["gcs_subscriptions"] = self.gcs.num_subscriptions()
        return stats

    def critical_path(self):
        """The job's critical path (see :mod:`repro.tools.critical_path`)."""
        from repro.tools.critical_path import CriticalPath

        return CriticalPath(self.runtime).analyze()

    def actor_summary(self):
        alive = dead = 0
        for entry in self.runtime.landed_gcs().actors():
            if entry.alive:
                alive += 1
            else:
                dead += 1
        return alive, dead

    # -- the one-call overview --------------------------------------------------

    def snapshot(self) -> ClusterSnapshot:
        nodes = self.runtime.nodes()
        count, total_bytes = self.object_stats()
        alive, dead = self.actor_summary()
        return ClusterSnapshot(
            num_nodes=len(nodes),
            live_nodes=sum(1 for n in nodes if n.alive),
            tasks_by_status=self.tasks_by_status(),
            num_objects=count,
            total_object_bytes=total_bytes,
            actors_alive=alive,
            actors_dead=dead,
            node_utilization={
                n.node_id.hex()[:8]: n.resources.utilization("CPU")
                for n in nodes
                if n.alive
            },
            store_used_bytes={
                n.node_id.hex()[:8]: n.store.used_bytes for n in nodes if n.alive
            },
            wait_stats=self.wait_path_stats(),
        )
