"""Lineage-based reconstruction of lost objects.

When a needed object has no live copy — its node died, or it was evicted
under memory pressure — Ray recovers it by replaying its lineage: the task
that produced it (recorded durably in the GCS task table) is resubmitted,
and its own missing inputs are recovered recursively through the same path
(paper Section 4.2.3, Figure 11a).

For objects produced by actor methods, reconstruction goes through the
stateful-edge chain instead: the actor is rebuilt from its last checkpoint
and the subsequent methods are replayed (Figure 11b).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Set

from repro.common.lockwatch import make_lock
from repro.common.ids import ObjectID, TaskID
from repro.gcs.tables import TaskStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Runtime


class ReconstructionManager:
    """Decides when and how to re-execute lineage."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime
        self._lock = make_lock("ReconstructionManager._lock")
        self._inflight: Set[TaskID] = set()
        self.reconstructed_tasks = 0
        self.reconstructed_objects = 0
        self._m_tasks = runtime.metrics.counter(
            "reconstruction_tasks_total", "Tasks re-executed to recover objects"
        )
        self._m_objects = runtime.metrics.counter(
            "reconstruction_objects_total",
            "Objects recovered through lineage replay",
        )

    def task_finished(self, task_id: TaskID) -> None:
        with self._lock:
            self._inflight.discard(task_id)

    def in_flight(self, task_id: TaskID) -> bool:
        """Is ``task_id`` being re-placed by reconstruction?  True from the
        decision until the replay finishes — including the window before
        its placement write rewrites the row."""
        with self._lock:
            return task_id in self._inflight

    def maybe_reconstruct(self, object_id: ObjectID) -> None:
        """Reconstruct ``object_id`` if it is lost and has lineage.

        No-op when the object is still being produced, already has a live
        copy, or reconstruction is already in flight.
        """
        runtime = self.runtime
        entry = runtime.gcs.get_object_entry(object_id)
        if entry is None:
            return  # never created yet — the producing task is still ahead
        if runtime.transfer.live_locations(object_id):
            return  # a copy exists; the fetch path will pick it up
        task_id = entry.task_id
        if task_id is None:
            return  # a ``put`` root with no lineage; get() raises ObjectLost
        # lookup_task falls back to flushed on-disk lineage (Fig 10b's
        # snapshot), so collected records remain replayable.
        task_entry = runtime.lookup_task(task_id)
        if task_entry is None:
            return
        spec = task_entry.spec
        if spec.actor_id is not None:
            # Stateful lineage: rebuild the actor and replay its chain.  A
            # permanently dead actor fails the method instead; the claim
            # holds until that FAILED finish lands, so concurrent readers
            # of the lost output write it once.
            with self._lock:
                if task_id in self._inflight:
                    return
                self._inflight.add(task_id)
            if not runtime.actors.reconstruct_for_object(spec):
                self.task_finished(task_id)
            return
        with self._lock:
            # A SCHEDULED row is in flight: should its node die, the kill's
            # sweep re-places it.
            if task_id in self._inflight or task_entry.status is TaskStatus.SCHEDULED:
                return
            self._inflight.add(task_id)
            self.reconstructed_tasks += 1
            self.reconstructed_objects += spec.num_returns
        self._m_tasks.inc()
        self._m_objects.inc(spec.num_returns)
        runtime.gcs.record_event(
            "task_reconstructed",
            task=task_id.hex()[:8],
            name=spec.function_name,
        )
        # The replayed execution may re-submit children that already have
        # task rows: flag it so its submissions take the checked path.
        runtime.mark_replay(task_id)
        # Route through the global scheduler: the original node may be gone,
        # and placement will recursively pull (and if needed reconstruct)
        # the task's own inputs.
        runtime.route_and_place(spec)
