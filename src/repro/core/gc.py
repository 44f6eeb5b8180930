"""Lineage garbage collection.

The paper lists this as its active limitation (Section 7): "storing
lineage for each task requires the implementation of garbage collection
policies to bound storage costs in the GCS, a feature we are actively
developing."  This module implements that feature:

* :func:`Runtime.free`-style explicit deletion of objects (and optionally
  their lineage) — for data the application knows it will never need;
* :class:`LineageGarbageCollector` — given the set of object refs the
  application still holds, retains exactly the lineage needed to
  reconstruct them (their ancestor closure in the task graph) and deletes
  every other finished task record from the GCS.

Safety property: an object remains reconstructible iff it is in the live
set's ancestor closure.  Tests assert both directions.  Lineage has one
home, the GCS task table, so once it is deleted here nothing else in the
process still holds the specs or their by-value arguments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Set

from repro.common.ids import ObjectID, TaskID
from repro.gcs.tables import TaskStatus, TaskTableEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Runtime


def free_objects(
    runtime: "Runtime",
    object_ids: Iterable[ObjectID],
    delete_lineage: bool = False,
) -> int:
    """Drop every copy of the given objects from every store.

    With ``delete_lineage`` the producing tasks' records are removed too,
    so the objects become permanently unrecoverable and a ``get`` of one
    raises ``ObjectLostError`` at once (and their rows, with the specs'
    arguments, stop consuming memory).  Returns the number of store
    copies dropped.  Every copy's location retraction goes out in one GCS
    write, after the store deletes and before the one lineage delete
    batch.  A lineage delete first lets every queued finish land, so no
    finish writes a freed object's rows back.
    """
    object_ids = list(object_ids)
    if delete_lineage:
        runtime.flush_finishes()
    nodes = runtime.nodes()
    retractions = [
        (object_id, node.node_id)
        for object_id in object_ids
        for node in nodes
        if node.store.delete(object_id)
    ]
    runtime.gcs.remove_object_locations(retractions)
    if delete_lineage:
        runtime.gcs.delete_lineage(object_ids)
    return len(retractions)


class LineageGarbageCollector:
    """Bound GCS lineage to what live references can still need."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime
        self.collected_tasks = 0
        self.collected_objects = 0

    def live_task_closure(self, live_objects: Iterable[ObjectID]) -> Set[TaskID]:
        """Every task in the ancestor closure of the live objects."""
        graph = self.runtime.graph
        keep: Set[TaskID] = set()
        for object_id in live_objects:
            keep |= graph.ancestors(object_id)
        return keep

    def collect(self, live_objects: Iterable[ObjectID]) -> int:
        """Delete finished-task lineage not needed by ``live_objects``.

        Actor tasks are never collected here: their chain is the actor's
        recovery state for as long as the actor lives.  Returns the number
        of task records removed.  Queued finishes land first, so every
        task that has run is collectable.
        """
        self.runtime.flush_finishes()
        keep = self.live_task_closure(live_objects)
        gcs = self.runtime.gcs

        def collectable(entry: TaskTableEntry) -> bool:
            # In-flight lineage is always retained.
            return (
                entry.task_id not in keep
                and entry.status in (TaskStatus.FINISHED, TaskStatus.FAILED)
                and getattr(entry.spec, "actor_id", None) is None
            )

        removed = {entry.task_id for entry in gcs.pop_tasks(collectable)}
        # Their outputs can no longer be reconstructed: metadata with no
        # copy left is dead weight, and a copy's row becomes a root.
        self.collected_objects += gcs.orphan_objects(
            removed, self.runtime.transfer.live_locations
        )
        self.collected_tasks += len(removed)
        return len(removed)
