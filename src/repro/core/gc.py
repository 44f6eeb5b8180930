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
set's ancestor closure.  Tests assert both directions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Set

from repro.common.ids import ObjectID, TaskID
from repro.gcs.client import _OBJ, _OBJ_LOC, _TASK
from repro.gcs.tables import TaskStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Runtime


def free_objects(
    runtime: "Runtime",
    object_ids: Iterable[ObjectID],
    delete_lineage: bool = False,
) -> int:
    """Drop every copy of the given objects from every store.

    With ``delete_lineage`` the producing tasks' records are removed too,
    so the objects become permanently unrecoverable (and their GCS rows
    stop consuming memory).  Returns the number of store copies dropped.
    Every copy's location retraction goes out in one GCS write, after the
    store deletes and before any lineage delete.
    """
    object_ids = list(object_ids)
    nodes = runtime.nodes()
    retractions = [
        (object_id, node.node_id)
        for object_id in object_ids
        for node in nodes
        if node.store.delete(object_id)
    ]
    runtime.gcs.remove_object_locations(retractions)
    if delete_lineage:
        for object_id in object_ids:
            task_id = runtime.gcs.creating_task(object_id)
            runtime.gcs.kv.delete((_OBJ, object_id))
            runtime.gcs.kv.delete((_OBJ_LOC, object_id))
            if task_id is not None:
                runtime.gcs.kv.delete((_TASK, task_id))
    return len(retractions)


class LineageGarbageCollector:
    """Bound GCS lineage to what live references can still need."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime
        self.collected_tasks = 0
        self.collected_objects = 0

    def live_task_closure(self, live_objects: Iterable[ObjectID]) -> Set[TaskID]:
        """Every task in the ancestor closure of the live objects."""
        keep: Set[TaskID] = set()
        for object_id in live_objects:
            keep |= self.runtime.graph.ancestors(object_id)
        return keep

    def collect(self, live_objects: Iterable[ObjectID]) -> int:
        """Delete finished-task lineage not needed by ``live_objects``.

        Actor tasks are never collected here: their chain is the actor's
        recovery state for as long as the actor lives.  Returns the number
        of task records removed.
        """
        live_objects = list(live_objects)
        keep = self.live_task_closure(live_objects)
        gcs = self.runtime.gcs
        removed = 0
        removed_tasks: List[TaskID] = []
        for key in gcs.kv.keys():
            if not (isinstance(key, tuple) and key[0] == _TASK):
                continue
            entry = gcs.kv.get(key)
            if entry is None or entry.task_id in keep:
                continue
            if entry.status not in (TaskStatus.FINISHED, TaskStatus.FAILED):
                continue  # in-flight lineage is always retained
            spec = entry.spec
            if spec is not None and getattr(spec, "actor_id", None) is not None:
                continue
            gcs.kv.delete(key)
            removed_tasks.append(entry.task_id)
            removed += 1
        # Object metadata whose producer was collected is dead weight too
        # (the objects can no longer be reconstructed once evicted).
        removed_set = set(removed_tasks)
        for key in gcs.kv.keys():
            if not (isinstance(key, tuple) and key[0] == _OBJ):
                continue
            meta = gcs.kv.get(key)
            if meta is None:
                continue
            _size, task_id = meta
            if task_id in removed_set:
                object_id = key[1]
                if not self.runtime.transfer.live_locations(object_id):
                    gcs.kv.delete(key)
                    gcs.kv.delete((_OBJ_LOC, object_id))
                    self.collected_objects += 1
        self.collected_tasks += removed
        return removed
