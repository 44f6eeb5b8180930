"""Periodic flushing of GCS contents to disk.

Lineage for every task accumulates in the GCS forever; without bounding it
the store eventually exhausts memory and the workload stalls (paper Figure
10b).  Ray therefore flushes cold entries — finished tasks, object
metadata for finished lineage, and event records — to disk, capping the
in-memory footprint at a user-configurable level while keeping a durable
snapshot of the lineage for long-running applications.

The flusher moves entries for *finished* tasks out of the KV store into an
append-only pickle file.  Entries can be re-read (``restore_tasks``) which
is how a recovered component would consult flushed lineage.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import Any, Iterator, List, Optional, Tuple

from repro.common.lockwatch import make_lock
from repro.gcs.client import GlobalControlStore
from repro.gcs.tables import TaskStatus, TaskTableEntry

# Record tags in the flush file: ``(tag, entity, value)``.
TASK_RECORD = "task"
EVENT_RECORD = "event"


class GcsFlusher:
    """Flush finished-task lineage and event logs from the GCS to disk."""

    def __init__(
        self,
        gcs: GlobalControlStore,
        path: str,
        max_entries_in_memory: int = 10_000,
    ):
        self.gcs = gcs
        self.path = path
        self.max_entries_in_memory = max_entries_in_memory
        self.flushed_entries = 0
        self._closed = False
        self._flushing = False
        self._lock = make_lock("GcsFlusher._lock")
        # Truncate any previous flush file.
        with open(self.path, "wb"):
            pass

    # -- policy --------------------------------------------------------------

    def should_flush(self) -> bool:
        return self.gcs.num_entries() > self.max_entries_in_memory

    def maybe_flush(self) -> int:
        """Flush if over the memory cap.  Returns entries flushed."""
        with self._lock:
            if self._closed:
                return 0
        if self.should_flush():
            return self.flush()
        return 0

    # -- mechanics -------------------------------------------------------------

    def flush(self) -> int:
        """Move all finished/failed task rows, then all event logs, to
        disk.  Returns the number of entries flushed.

        The client's pop scans delete each row with a one-op chain write
        right after reading it.  One flush runs at a time, enforced by a
        non-blocking in-progress flag rather than by holding ``_lock``
        across the scan: a flush issues two GCS RPCs per flushed key
        (seconds on a replicated chain with hop delays), and blocking every
        concurrent ``maybe_flush`` caller — the runtime's task-finish path
        — for that long would stall the data plane.  A caller that loses
        the race returns 0; the winner is already doing the work.
        """
        with self._lock:
            if self._closed or self._flushing:
                return 0
            self._flushing = True
        flushed = 0
        try:
            records: List[Tuple[str, Any, Any]] = []
            for entry in self.gcs.pop_tasks(
                lambda entry: entry.status in (TaskStatus.FINISHED, TaskStatus.FAILED)
            ):
                records.append((TASK_RECORD, entry.task_id, entry))
                flushed += 1
            for category, log in self.gcs.pop_event_logs():
                records.append((EVENT_RECORD, category, log))
                flushed += len(log)
            if records:
                with open(self.path, "ab") as f:
                    for record in records:
                        pickle.dump(record, f)
        finally:
            with self._lock:
                self._flushing = False
                self.flushed_entries += flushed
        return flushed

    def iter_flushed(self) -> Iterator[Tuple[str, Any, Any]]:
        """Iterate over all records previously flushed to disk."""
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as f:
            while True:
                try:
                    yield pickle.load(f)
                except EOFError:
                    return

    def restore_task(self, task_id) -> Optional[TaskTableEntry]:
        """Look up a flushed task record (consulting durable lineage)."""
        for table, entity, value in self.iter_flushed():
            if table == TASK_RECORD and entity == task_id:
                return value
        return None

    def flushed_task_count(self) -> int:
        return sum(1 for table, _e, _v in self.iter_flushed() if table == TASK_RECORD)

    def close(self) -> None:
        """Quiesce the flusher at runtime shutdown.

        Performs one final flush if the store is over its cap so the disk
        snapshot is as complete as possible, then refuses further flushes
        (restore/iteration stays available for post-mortem inspection)."""
        with self._lock:
            if self._closed:
                return
        self.maybe_flush()
        with self._lock:
            self._closed = True
