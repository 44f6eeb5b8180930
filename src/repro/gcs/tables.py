"""Typed table entries stored in the GCS.

The GCS holds four tables (paper Figure 5): the **object table** (object →
locations, size, creating task), the **task table** (task spec and status —
the durable lineage), the **function table** (registered remote functions),
and the **event log** (profiling / debugging events).  This module defines
the row types; :mod:`repro.gcs.client` implements the operations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.common.ids import ActorID, NodeID, ObjectID, TaskID


class TaskStatus(enum.Enum):
    """Lifecycle of a task as recorded in the task table.

    Two writes produce a row: a placement (SCHEDULED on the node that holds
    the task) and a finish (one of the terminal states).  A row is born by
    its first placement; a task re-placed after a loss is simply placed
    again.  Nothing records that a task started: readers only ask whether
    a SCHEDULED row's node is alive."""

    SCHEDULED = "scheduled"  # placed on a node: queued, in its mailbox, or running
    FINISHED = "finished"
    FAILED = "failed"  # application exception
    CANCELLED = "cancelled"  # dequeued or cooperatively stopped via cancel()


@dataclass(frozen=True, slots=True)
class ObjectTableEntry:
    """Metadata for one immutable object.

    ``locations`` is the set of nodes currently holding a copy; it is
    derived by folding the per-object location log (adds and removals),
    which keeps every GCS write a single-key operation.
    """

    object_id: ObjectID
    size: int
    task_id: Optional[TaskID]  # producing task (lineage pointer)
    locations: FrozenSet[NodeID] = frozenset()


@dataclass(frozen=True, slots=True)
class TaskTableEntry:
    """A task's durable record: its spec (lineage) and current status."""

    task_id: TaskID
    spec: Any  # TaskSpec; kept opaque here to avoid a core<->gcs cycle
    status: TaskStatus
    node_id: Optional[NodeID] = None


@dataclass(frozen=True, slots=True)
class ActorTableEntry:
    """An actor's durable liveness record: where its current incarnation
    runs and whether it is alive.

    Progress lives in rows of its own, written blind by each method's
    finish batch: ``(incarnation, methods executed)``
    (``GlobalControlStore.get_actor_progress``) and, every
    ``checkpoint_interval`` methods, ``(counter, blob)``
    (``get_actor_checkpoint``).  A restart replays from the checkpoint's
    counter through the actor's method log
    (``GlobalControlStore.actor_method_log``): every logged spec at or past
    that counter (paper Figure 11b).
    """

    actor_id: ActorID
    class_name: str
    node_id: Optional[NodeID]
    alive: bool = True


# One shared key tuple per payload shape: the event log holds many records
# of few shapes, so each record stores only its values.
_SHAPES: Dict[Tuple[str, ...], Tuple[str, ...]] = {}


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One entry of the GCS event log.

    The payload is stored as ``keys`` (sorted, one tuple shared by every
    record of that shape) and ``values``; :attr:`payload` rebuilds the
    sorted ``(key, value)`` pairs.

    ``seq`` is a cluster-wide monotonically increasing sequence number
    stamped by the GCS client at record time; it gives the merged event
    *timeline* (dashboard ``/events``) a total order and a pagination
    cursor across categories.  ``ts`` is the wall-clock record time.
    Both default to zero so rows written by older code (or constructed
    directly in tests) remain valid.
    """

    category: str
    keys: Tuple[str, ...]
    values: Tuple[Any, ...]
    seq: int = 0
    ts: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", _SHAPES.setdefault(self.keys, self.keys))

    def __reduce__(self):
        # Through the constructor, so an unpickled record shares its shape.
        return (EventRecord, (self.category, self.keys, self.values, self.seq, self.ts))

    @classmethod
    def make(cls, category: str, **payload: Any) -> "EventRecord":
        keys = tuple(sorted(payload))
        return cls(category, keys, tuple(payload[key] for key in keys))

    @property
    def payload(self) -> Tuple[Tuple[str, Any], ...]:
        return tuple(zip(self.keys, self.values))

    def stamp(self, seq: int, ts: float) -> "EventRecord":
        """A copy of this record carrying a timeline sequence number."""
        return EventRecord(self.category, self.keys, self.values, seq, ts)

    def as_dict(self) -> Dict[str, Any]:
        return dict(zip(self.keys, self.values))

    def as_timeline_dict(self) -> Dict[str, Any]:
        """Payload plus the timeline envelope (seq, ts, category)."""
        out: Dict[str, Any] = {"seq": self.seq, "ts": self.ts, "category": self.category}
        out.update(zip(self.keys, self.values))
        return out


@dataclass
class EventLog:
    """In-memory view over event records (the GCS stores the raw log)."""

    records: list = field(default_factory=list)

    def add(self, record: EventRecord) -> None:
        self.records.append(record)

    def by_category(self, category: str) -> list:
        return [r for r in self.records if r.category == category]
