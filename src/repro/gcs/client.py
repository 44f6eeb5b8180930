"""The Global Control Store facade.

Every stateless component (local schedulers, global schedulers, object
stores, workers) shares system state exclusively through this interface:
object locations, task lineage, function definitions, actor liveness, and
the event log.  All operations are single-key against the sharded,
chain-replicated KV store, mirroring the paper's Redis usage.  This module
is the only one that builds a key: everything else reads and writes typed
rows through :class:`GlobalControlStore`.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Set,
    Tuple,
)

from repro.common.lockwatch import make_rlock
from repro.common.ids import ActorID, FunctionID, NodeID, ObjectID, TaskID
from repro.gcs.shard import Guarded, ShardedKV
from repro.gcs.tables import (
    ActorTableEntry,
    EventRecord,
    ObjectTableEntry,
    TaskStatus,
    TaskTableEntry,
)

_OBJ = "object"  # object metadata (size, producing task)
_OBJ_LOC = "object_loc"  # per-object location log
_TASK = "task"  # task table (lineage)
_FUNC = "function"  # function table
_ACTOR = "actor"  # actor table
_ACTOR_NAME = "actor_name"  # user-visible name -> actor id
_ACTOR_LOG = "actor_log"  # per-actor method specs, in submission order
_ACTOR_CKPT = "actor_ckpt"  # per-actor latest checkpoint: (counter, blob)
_ACTOR_PROGRESS = "actor_progress"  # per-actor (incarnation, methods executed)
_EVENT = "event"  # event log
_NODE_REPORT = "node_report"  # per-node reporter snapshot rows
_DEPLOYMENT = "deployment"  # serve: current row per deployment name
_DEPLOYMENT_LOG = "deployment_log"  # serve: append-only version history
_SERVE_REPORT = "serve_report"  # serve: per-deployment router metrics row


class Finish(NamedTuple):
    """Every GCS write of one task finish (see
    :meth:`GlobalControlStore.finish_tasks`)."""

    task_id: TaskID
    status: TaskStatus
    node_id: NodeID
    #: ``(object_id, size, task_id, node_id_or_None)`` per output.
    entries: List[Tuple[ObjectID, int, Optional[TaskID], Optional[NodeID]]]
    events: Optional[List[Tuple[str, Dict[str, Any]]]]
    spec: Any
    progress: Optional[Tuple[int, int]] = None
    checkpoint: Any = None


class GlobalControlStore:
    """Typed tables over :class:`ShardedKV` (the system's only state)."""

    def __init__(
        self,
        num_shards: int = 1,
        num_replicas: int = 2,
        hop_delay: float = 0.0,
        metrics: Any = None,
        faults: Any = None,
    ):
        self.kv = ShardedKV(
            num_shards=num_shards,
            num_replicas=num_replicas,
            hop_delay=hop_delay,
            metrics=metrics,
            faults=faults,
        )
        self._lock = make_rlock("GlobalControlStore._lock")
        # Cluster-wide event sequence: itertools.count() is C-implemented,
        # so next() is atomic — every recorded event gets a unique,
        # monotonically increasing timeline position without a lock.
        self._event_seq = itertools.count(1)
        # Write-through function cache: registration flows through this
        # client, and function rows are immutable for a given FunctionID,
        # so workers can skip the remote read that would otherwise tax
        # every single task execution with a chain hop.
        self._function_cache: Dict[FunctionID, Any] = {}
        # In-flight producers: each return ID of a placed task maps to that
        # task from its placement write (:meth:`set_task_states`,
        # :meth:`add_tasks`) until its finish batch has landed or
        # :meth:`delete_lineage` drops it, so it holds one entry per
        # placed-but-unfinished return (:meth:`pop_tasks` callers take
        # terminal rows only).  Every placement and finish flows through
        # this client, so the lookup answers "is this object still being
        # produced?" without a shard call.  GIL-atomic dict ops; no lock.
        self._in_flight: Dict[ObjectID, TaskID] = {}
        # Location-publication hints: every location append flows through
        # this client, so an ID absent from this map has had no location
        # published since its lineage was last deleted.  A fetcher whose
        # object has an in-flight producer uses this to skip the
        # authoritative (remote) location read and wait on the pub-sub
        # subscription alone.  Each hint keeps the producer the object's
        # row names (None for a put, or when a transfer published it
        # first): a finished output's lineage is known here until
        # :meth:`delete_lineage` or :meth:`orphan_objects` drops the hint
        # with the row's producer.  A retracted location keeps its hint,
        # which only forces the full (checked) path.
        self._published_locations: Dict[ObjectID, Optional[TaskID]] = {}
        # Publications in flight: an object is here from just before a
        # write carrying its location ``add`` until that write returns.  A
        # concurrent publication of the same object may clear the mark
        # early, which only costs a fetch its reconstruction probe.
        self._publishing: Set[ObjectID] = set()

    # ------------------------------------------------------------------
    # Function table
    # ------------------------------------------------------------------

    def register_function(self, function_id: FunctionID, function: Any) -> None:
        """Publish a remote function to all workers.

        In the paper the pickled function is broadcast to every node; in our
        single-process cluster the function table *is* the distribution
        mechanism — workers look functions up here by ID.
        """
        self.kv.put((_FUNC, function_id), function)
        self._function_cache[function_id] = function

    def get_function(self, function_id: FunctionID) -> Any:
        fn = self._function_cache.get(function_id)
        if fn is None:
            fn = self.kv.get((_FUNC, function_id))
            if fn is None:
                raise KeyError(f"function {function_id!r} not registered")
            self._function_cache[function_id] = fn
        return fn

    # ------------------------------------------------------------------
    # Object table
    # ------------------------------------------------------------------

    def add_object(
        self, object_id: ObjectID, size: int, task_id: Optional[TaskID]
    ) -> None:
        """Record object metadata (idempotent across reconstruction)."""
        self.kv.put((_OBJ, object_id), (size, task_id))

    def _write(
        self,
        ops: List[tuple],
        published: Optional[Dict[ObjectID, Optional[TaskID]]] = None,
        batched: bool = True,
    ) -> None:
        """Send ``ops`` in one :meth:`ShardedKV.batch`, or op by op with
        ``batched=False`` (the reference a batch is tested against).
        ``published`` maps the objects whose location ``add`` the ops carry
        to the producer their rows name (None: no row is written, or it
        names none): hinted before the write — a reader that subscribes
        and *then* misses the hint is guaranteed the publication has not
        happened yet — and marked in flight until it returns."""
        published = published or {}
        hints = self._published_locations
        for object_id, producer in published.items():
            # ``setdefault`` is atomic: a concurrent copy's publication
            # never erases the producer an output's publication names.
            if producer is None:
                hints.setdefault(object_id, None)
            else:
                hints[object_id] = producer
        self._publishing.update(published)
        try:
            if batched:
                self.kv.batch(ops)
            else:
                for op, key, value in ops:
                    getattr(self.kv, op)(key, value)
        finally:
            for object_id in published:
                self._publishing.discard(object_id)

    @staticmethod
    def _output_ops(
        entries: List[tuple],
    ) -> Tuple[List[tuple], Dict[ObjectID, Optional[TaskID]]]:
        """The per-output rows of ``entries`` (see :meth:`add_task_outputs`)
        — location append before metadata put, per object — and the
        objects given a location, with their producers."""
        ops, published = [], {}
        for object_id, size, task_id, node_id in entries:
            if node_id is not None:
                published[object_id] = task_id
                ops.append(("append", (_OBJ_LOC, object_id), ("add", node_id)))
            ops.append(("put", (_OBJ, object_id), (size, task_id)))
        return ops, published

    def add_object_location(self, object_id: ObjectID, node_id: NodeID) -> None:
        add = ("append", (_OBJ_LOC, object_id), ("add", node_id))
        self._write([add], {object_id: None}, batched=False)

    def remove_object_location(self, object_id: ObjectID, node_id: NodeID) -> None:
        self.kv.append((_OBJ_LOC, object_id), ("remove", node_id))

    def remove_object_locations(
        self, retractions: List[Tuple[ObjectID, NodeID]]
    ) -> None:
        """Retract many ``(object_id, node_id)`` copies in one coalesced
        shard write (subscribers see each ``remove`` as from
        :meth:`remove_object_location`)."""
        if retractions:
            self.kv.batch([
                ("append", (_OBJ_LOC, object_id), ("remove", node_id))
                for object_id, node_id in retractions
            ])

    def add_task_outputs(
        self,
        entries: List[Tuple[ObjectID, int, Optional[TaskID], Optional[NodeID]]],
        batched: bool = True,
    ) -> None:
        """Publish all outputs of one task finish in coalesced shard writes.

        Each entry is ``(object_id, size, task_id, node_id_or_None)``; a
        ``None`` node means the store put failed and no location is
        published.  Per object the location append precedes the metadata
        put (a reader that sees metadata with no locations may legitimately
        trigger reconstruction), and both keys of one object shard
        together, so the batch is one chain round-trip per shard instead
        of two per output.  ``batched=False`` falls back to per-op writes
        (the reference the batch is tested against).
        """
        ops, published = self._output_ops(entries)
        if ops:
            self._write(ops, published, batched)

    def finish_task(
        self,
        task_id: TaskID,
        status: TaskStatus,
        node_id: NodeID,
        entries: List[Tuple[ObjectID, int, Optional[TaskID], Optional[NodeID]]],
        events: Optional[List[Tuple[str, Dict[str, Any]]]] = None,
        batched: bool = True,
        *,
        spec: Any,
        progress: Optional[Tuple[int, int]] = None,
        checkpoint: Any = None,
    ) -> None:
        """One task's finish: :meth:`finish_tasks` of one."""
        self.finish_tasks(
            [Finish(task_id, status, node_id, entries, events, spec, progress, checkpoint)],
            batched,
        )

    def finish_tasks(
        self, finishes: List["Finish"], batched: bool = True, guard: Any = None
    ) -> None:
        """Coalesce *every* GCS write of many task finishes into one
        :meth:`ShardedKV.batch` (a node's finish drain commits its queue
        this way): per finish, the per-output rows (as in
        :meth:`add_task_outputs`), the terminal task row, and the
        ``events`` (``task_finished`` last), in queue order.  Output rows
        precede their task row, so a reader that observes ``FINISHED`` can
        already see the outputs' metadata.  Each row is rebuilt from the
        finisher's ``spec``, so a finish reads nothing.

        An actor method's finish also carries its actor's ``progress`` row,
        ``(incarnation, methods executed)``: a blind put, because only the
        live loop writes it.  With a ``checkpoint`` blob taken at that
        counter, the checkpoint row rides along too (Figure 11b restores
        from it).  ``batched=False`` issues the same writes per-op (the
        test reference).  A ``guard`` (see :class:`Guarded`) makes the
        batch raise ``NodeFencedError``, unwritten, once its node incarnation
        is fenced.  Once the write has landed, the tasks' returns leave the
        in-flight producer index."""
        ops: List[tuple] = [] if guard is None else Guarded(guard)
        published: Dict[ObjectID, Optional[TaskID]] = {}
        for finish in finishes:
            output_ops, output_published = self._output_ops(finish.entries)
            ops.extend(output_ops)
            published.update(output_published)
            spec = finish.spec
            ops.append((
                "put",
                (_TASK, finish.task_id),
                TaskTableEntry(
                    task_id=finish.task_id,
                    spec=spec,
                    status=finish.status,
                    node_id=finish.node_id,
                ),
            ))
            if finish.progress is not None:
                ops.append(("put", (_ACTOR_PROGRESS, spec.actor_id), finish.progress))
                if finish.checkpoint is not None:
                    ckpt = (finish.progress[1], finish.checkpoint)
                    ops.append(("put", (_ACTOR_CKPT, spec.actor_id), ckpt))
            ops.extend(self._event_ops(finish.events))
        self._write(ops, published, batched)
        for finish in finishes:
            for object_id, _size, _task_id, _node_id in finish.entries:
                self._in_flight.pop(object_id, None)

    def location_in_flight(self, object_id: ObjectID) -> bool:
        """Is a write carrying a location ``add`` for ``object_id`` in
        flight in this client?  Meaningful after a location read made
        *after* subscribing came back empty: that ``add`` then lands after
        the read, so the subscription delivers it."""
        return object_id in self._publishing

    def has_location_hint(self, object_id: ObjectID) -> bool:
        """Has a location for ``object_id`` been published through this
        client since its lineage was last deleted?  ``False`` with an
        in-flight producer means no copy exists yet — an in-process
        invariant, because all location appends flow through this client.
        A cheap local pre-check only: when ``True``, callers still need
        the authoritative :meth:`get_object_locations` read."""
        return object_id in self._published_locations

    def in_flight_producer(self, object_id: ObjectID) -> Optional[TaskID]:
        """The placed task whose finish batch, which publishes
        ``object_id``, has not landed yet; None if there is none.  A local
        lookup, no shard call."""
        return self._in_flight.get(object_id)

    def known_producer(self, object_id: ObjectID) -> Optional[TaskID]:
        """The task that produces ``object_id`` when this client knows its
        lineage is kept: in flight, or finished and published with no
        lineage delete since.  None leaves the question to the object row.
        Local lookups, no shard call; the in-flight index is read first,
        because a finish hints its outputs before its write and leaves
        the index after it."""
        return self._in_flight.get(object_id) or self._published_locations.get(
            object_id
        )

    def get_object_locations(self, object_id: ObjectID) -> Set[NodeID]:
        locations: Set[NodeID] = set()
        for op, node_id in self.kv.log((_OBJ_LOC, object_id)):
            if op == "add":
                locations.add(node_id)
            else:
                locations.discard(node_id)
        return locations

    def get_object_entry(self, object_id: ObjectID) -> Optional[ObjectTableEntry]:
        meta = self.kv.get((_OBJ, object_id))
        if meta is None:
            return None
        size, task_id = meta
        return ObjectTableEntry(
            object_id=object_id,
            size=size,
            task_id=task_id,
            locations=frozenset(self.get_object_locations(object_id)),
        )

    def subscribe_object_locations(
        self, object_id: ObjectID, callback: Callable[[str, NodeID], None]
    ) -> Callable[[], None]:
        """Fire ``callback(op, node_id)`` whenever a location is added or
        removed — the Figure 7b step-2 registration."""

        def on_publish(_key: Any, entry: Any) -> None:
            op, node_id = entry
            callback(op, node_id)

        return self.kv.subscribe((_OBJ_LOC, object_id), on_publish)

    def creating_task(self, object_id: ObjectID) -> Optional[TaskID]:
        """Lineage lookup: which task produces this object?"""
        meta = self.kv.get((_OBJ, object_id))
        return None if meta is None else meta[1]

    def objects(self) -> Iterator[Tuple[ObjectID, Tuple[int, Optional[TaskID]]]]:
        """Every object row as ``(object_id, (size, producing task))``."""
        return self._rows(_OBJ)

    def orphan_objects(
        self, task_ids: Set[TaskID], has_copy: Callable[[ObjectID], Any]
    ) -> int:
        """The rows of ``task_ids`` are gone: their outputs lose their
        lineage.  An output with no copy (``has_copy`` is falsy) loses its
        metadata row and location log (one shard, one batch) right after
        the row is read; one with a copy keeps them, re-rooted to name no
        producer, like a put's, so freeing it later makes it lost.  Either
        way its hint goes.  Returns the number of rows deleted."""
        deleted = 0
        for object_id, (size, task_id) in self._rows(_OBJ):
            if task_id not in task_ids:
                continue
            self._published_locations.pop(object_id, None)
            if has_copy(object_id):
                self.kv.put((_OBJ, object_id), (size, None))
            else:
                self.kv.batch([
                    ("delete", (_OBJ, object_id), None),
                    ("delete", (_OBJ_LOC, object_id), None),
                ])
                deleted += 1
        return deleted

    def delete_lineage(self, object_ids: Iterable[ObjectID]) -> None:
        """Drop the objects' metadata, location logs and producing task
        rows in one delete batch: the objects become unrecoverable.  One
        ``creating_task`` read per object finds its producer.

        The producer's other returns lose their lineage with it.  They are
        found locally, as ``ObjectID.for_task_return(producer, i)`` whose
        hint names that producer, and each loses its hint and its row in
        the same batch but keeps its location log: like a put with no
        row, it is readable while a copy lives and lost once freed."""
        freed = list(object_ids)
        gone = set(freed)
        hints = self._published_locations
        ops: List[tuple] = []
        producers: List[TaskID] = []
        for object_id in freed:
            self._in_flight.pop(object_id, None)
            hints.pop(object_id, None)
            task_id = self.creating_task(object_id)
            ops.append(("delete", (_OBJ, object_id), None))
            ops.append(("delete", (_OBJ_LOC, object_id), None))
            if task_id is not None:
                producers.append(task_id)
                ops.append(("delete", (_TASK, task_id), None))
        for task_id in producers:
            for index in itertools.count():
                sibling = ObjectID.for_task_return(task_id, index)
                if sibling in gone:
                    continue
                if task_id not in (hints.get(sibling), self._in_flight.get(sibling)):
                    break
                gone.add(sibling)
                hints.pop(sibling, None)
                self._in_flight.pop(sibling, None)
                ops.append(("delete", (_OBJ, sibling), None))
        if ops:
            self.kv.batch(ops)

    # ------------------------------------------------------------------
    # Task table (durable lineage)
    # ------------------------------------------------------------------

    def add_task(self, entry: TaskTableEntry) -> TaskTableEntry:
        """Re-admit a task row restored from flushed lineage unless the
        table already holds one, and return whichever row it holds: a
        re-placement that landed first keeps its row.  Every other row is
        written blind, by a placement (:meth:`set_task_states`,
        :meth:`add_tasks`) or a finish (:meth:`finish_tasks`)."""
        existing = self.kv.get((_TASK, entry.task_id))
        if existing is not None:
            return existing
        self.kv.put((_TASK, entry.task_id), entry)
        return entry

    def add_tasks(
        self,
        specs: List[Any],
        node_id: Optional[NodeID],
        events: Optional[List[Tuple[str, Dict[str, Any]]]] = None,
        batched: bool = True,
    ) -> None:
        """Place many first submissions on ``node_id`` — rows SCHEDULED
        there, plus their ``task_submitted`` trace events — in coalesced
        shard writes: the actor-method submit write, whose node is its
        actor's and whose queue is the actor's mailbox (a stateless task's
        first row is written by its placement, :meth:`set_task_states`).

        The submit-side mirror of :meth:`finish_tasks`: one
        :meth:`ShardedKV.batch` call groups every row into one chain write
        per shard instead of one round-trip per task, and the submit events
        ride in the same batch.  Events are seq-stamped here in submission
        order, so the cluster timeline ordering invariant holds exactly as
        it does for per-op writes.  All specs must be first submissions (a
        fresh deterministic task ID that cannot already be in the table —
        no existence read is made); ``batched=False`` issues the same
        writes per-op (the reference the batch is tested against).

        An actor-method spec is also appended to its actor's method log, in
        the same batch: the log shards by ``ActorID`` and the row by
        ``TaskID``, and shard groups flush concurrently, so a method
        submission is still one round-trip.  As with
        :meth:`set_task_states`, the specs' returns enter the in-flight
        producer index before the write.
        """
        ops: List[tuple] = []
        for spec in specs:
            for object_id in spec.return_ids:
                self._in_flight[object_id] = spec.task_id
            ops.append((
                "put",
                (_TASK, spec.task_id),
                TaskTableEntry(
                    task_id=spec.task_id,
                    spec=spec,
                    status=TaskStatus.SCHEDULED,
                    node_id=node_id,
                ),
            ))
            if spec.is_actor_method:
                ops.append(("append", (_ACTOR_LOG, spec.actor_id), spec))
        ops.extend(self._event_ops(events))
        if ops:
            self._write(ops, batched=batched)

    def set_task_states(
        self,
        placements: List[Tuple[Any, Optional[NodeID]]],
        events: Optional[List[Tuple[str, Dict[str, Any]]]] = None,
        guard: Any = None,
    ) -> None:
        """Write the placement rows ``[(spec, node_id), ...]`` — each
        SCHEDULED on the node that now holds the task — plus trace events
        in one coalesced shard write.

        The scheduler-side mirror of :meth:`finish_tasks`: a placement
        already holds the specs, so the rows are rebuilt directly — no
        per-row read-modify-write round-trip — and every row plus the
        batch's ``task_scheduled``/``task_inputs_ready`` events collapse
        into one chain write per shard.  A row's next write is its finish:
        nothing records that a task started.  For a first submission this
        is the row's first write, and its ``task_submitted`` event leads
        ``events``.  Events are seq-stamped in list order so timeline
        ordering holds.  Each placed spec's returns enter the in-flight
        producer index before the write (:meth:`in_flight_producer`).  A
        ``guard`` fences the batch as in :meth:`finish_tasks`.
        """
        ops: List[tuple] = [] if guard is None else Guarded(guard)
        for spec, node_id in placements:
            for object_id in spec.return_ids:
                self._in_flight[object_id] = spec.task_id
            ops.append((
                "put",
                (_TASK, spec.task_id),
                TaskTableEntry(
                    task_id=spec.task_id,
                    spec=spec,
                    status=TaskStatus.SCHEDULED,
                    node_id=node_id,
                ),
            ))
        ops.extend(self._event_ops(events))
        if ops:
            self.kv.batch(ops)

    def get_task(self, task_id: TaskID) -> Optional[TaskTableEntry]:
        return self.kv.get((_TASK, task_id))

    def num_tasks(self) -> int:
        return sum(1 for _row in self._rows(_TASK))

    def tasks(self) -> Iterator[TaskTableEntry]:
        """Every task row (a full-table scan)."""
        return (entry for _task_id, entry in self._rows(_TASK))

    def pop_tasks(
        self, take: Callable[[TaskTableEntry], bool]
    ) -> Iterator[TaskTableEntry]:
        """Yield every task row ``take`` accepts, deleting each right after
        it is read (the flusher's and the lineage collector's scan)."""
        for task_id, entry in self._rows(_TASK):
            if take(entry):
                self.kv.batch([("delete", (_TASK, task_id), None)])
                yield entry

    # ------------------------------------------------------------------
    # Actor table
    # ------------------------------------------------------------------

    def register_actor(
        self, actor_id: ActorID, class_name: str, node_id: Optional[NodeID]
    ) -> None:
        self.kv.put(
            (_ACTOR, actor_id),
            ActorTableEntry(actor_id=actor_id, class_name=class_name, node_id=node_id),
        )

    def update_actor(self, actor_id: ActorID, **changes: Any) -> ActorTableEntry:
        """Rewrite the actor row's ``node_id`` / ``alive``: a read-modify-
        write, because restart and kill paths write them from different
        threads (an incarnation's start, a restart's ``alive=False``)."""
        entry = self.kv.get((_ACTOR, actor_id))
        if entry is None:
            raise KeyError(f"actor {actor_id!r} not registered")
        updated = ActorTableEntry(
            actor_id=entry.actor_id,
            class_name=entry.class_name,
            node_id=changes.get("node_id", entry.node_id),
            alive=changes.get("alive", entry.alive),
        )
        self.kv.put((_ACTOR, actor_id), updated)
        return updated

    def get_actor(self, actor_id: ActorID) -> Optional[ActorTableEntry]:
        return self.kv.get((_ACTOR, actor_id))

    def actors(self) -> Iterator[ActorTableEntry]:
        """Every actor row (a full-table scan)."""
        return (entry for _actor_id, entry in self._rows(_ACTOR))

    def actor_method_log(self, actor_id: ActorID) -> List[Any]:
        """Every method spec submitted to ``actor_id``, in submission order
        (appended by :meth:`add_tasks`)."""
        return self.kv.log((_ACTOR_LOG, actor_id))

    def get_actor_checkpoint(self, actor_id: ActorID) -> Optional[Tuple[int, Any]]:
        """``(counter, blob)`` of the latest checkpoint — written by the
        finish of the method that reached ``counter`` — or None.  A restart
        restores ``blob`` and replays the method log from ``counter``."""
        return self.kv.get((_ACTOR_CKPT, actor_id))

    def get_actor_progress(self, actor_id: ActorID) -> Optional[Tuple[int, int]]:
        """``(incarnation, methods executed)`` as of the actor's last
        finished method (see :meth:`finish_tasks`), or None before it."""
        return self.kv.get((_ACTOR_PROGRESS, actor_id))

    # ------------------------------------------------------------------
    # Actor names (the ``.options(name=...)`` / ``get_actor`` registry)
    # ------------------------------------------------------------------

    def register_actor_name(self, name: str, actor_id: ActorID) -> None:
        """Claim ``name`` for ``actor_id``; duplicate names are rejected.

        Check-then-put under the client lock: all name claims in this
        process serialize here, so two concurrent registrations of the
        same name cannot both win.  (Baselined RT-BLOCKING-UNDER-LOCK:
        the lock exists to make these two RPCs atomic.)
        """
        with self._lock:
            existing = self.kv.get((_ACTOR_NAME, name))
            if existing is not None:
                raise ValueError(f"actor name {name!r} is already taken")
            self.kv.put((_ACTOR_NAME, name), actor_id)

    def lookup_actor_name(self, name: str) -> Optional[ActorID]:
        return self.kv.get((_ACTOR_NAME, name))

    def release_actor_name(self, name: str, actor_id: Optional[ActorID] = None) -> None:
        """Free ``name`` (idempotent) with a one-op delete batch.  With
        ``actor_id`` given, only the current owner's registration is
        released.  (Baselined RT-BLOCKING-UNDER-LOCK: get+delete must be
        atomic against concurrent claims.)"""
        with self._lock:
            if actor_id is not None:
                owner = self.kv.get((_ACTOR_NAME, name))
                if owner is not None and owner != actor_id:
                    return
            self.kv.batch([("delete", (_ACTOR_NAME, name), None)])

    # ------------------------------------------------------------------
    # Event log
    # ------------------------------------------------------------------

    def _stamped_event(self, category: str, payload: Dict[str, Any]) -> EventRecord:
        return EventRecord.make(category, **payload).stamp(
            next(self._event_seq), time.time()
        )

    def _event_ops(
        self, events: Optional[List[Tuple[str, Dict[str, Any]]]]
    ) -> List[tuple]:
        """Batch ops appending ``events``, seq-stamped in list order."""
        return [
            ("append", (_EVENT, category), self._stamped_event(category, payload))
            for category, payload in events or ()
        ]

    def record_event(self, category: str, **payload: Any) -> None:
        self.kv.append((_EVENT, category), self._stamped_event(category, payload))

    def events(self, category: str) -> List[EventRecord]:
        return self.kv.log((_EVENT, category))

    def event_categories(self) -> List[str]:
        """All event categories with at least one recorded entry."""
        return sorted(category for category, _log in self._rows(_EVENT))

    def pop_event_logs(self) -> Iterator[Tuple[str, List[EventRecord]]]:
        """Yield every ``(category, log)``, deleting each log right after
        it is read (the flusher's scan)."""
        for category, log in self._rows(_EVENT):
            self.kv.batch([("delete", (_EVENT, category), None)])
            yield category, log

    def events_since(
        self,
        cursor: int = 0,
        categories: Optional[List[str]] = None,
        limit: Optional[int] = None,
    ) -> Tuple[List[EventRecord], int]:
        """The merged cluster event timeline: every event with
        ``seq > cursor``, across all (or the given) categories, in global
        sequence order.

        Returns ``(events, next_cursor)``; passing ``next_cursor`` back
        yields only events recorded after this call — the dashboard's
        since-cursor pagination.  ``limit`` caps the page size (the
        remainder is picked up by the next page; ``next_cursor`` is the
        last *returned* seq so nothing is skipped).  Unstamped legacy rows
        (``seq == 0``) are only visible on a full read (``cursor=0``).
        """
        merged: List[EventRecord] = []
        logs = (
            [(category, self.events(category)) for category in categories]
            if categories
            else self._rows(_EVENT)
        )
        for _category, log in logs:
            for record in log:
                if record.seq > cursor or (cursor == 0 and record.seq == 0):
                    merged.append(record)
        merged.sort(key=lambda r: r.seq)
        if limit is not None:
            merged = merged[:limit]
        next_cursor = merged[-1].seq if merged else cursor
        return merged, next_cursor

    # ------------------------------------------------------------------
    # Node reporter table (the ops plane's per-node snapshot rows)
    # ------------------------------------------------------------------

    def publish_node_report(self, node_hex: str, row: Dict[str, Any]) -> None:
        """Store the latest reporter snapshot for one node.

        One row per node (put, not append): the row itself carries its
        version (``seq``) and sample time (``ts``), so the head can detect
        staleness without the GCS growing per sample.  Rows survive node
        death as tombstones — ``tombstone_node_report`` rewrites the
        last-seen row rather than deleting it.
        """
        self.kv.put((_NODE_REPORT, node_hex), dict(row))

    def get_node_report(self, node_hex: str) -> Optional[Dict[str, Any]]:
        return self.kv.get((_NODE_REPORT, node_hex))

    def node_reports(self) -> Dict[str, Dict[str, Any]]:
        """All reporter rows, keyed by node hex id (tombstones included)."""
        return dict(self._rows(_NODE_REPORT))

    def tombstone_node_report(self, node_hex: str) -> None:
        """Mark a node's last-seen row dead, preserving its final sample."""
        row = dict(self.kv.get((_NODE_REPORT, node_hex)) or {"node_id": node_hex})
        row["alive"] = False
        row["tombstone"] = True
        row["tombstoned_at"] = time.time()
        self.kv.put((_NODE_REPORT, node_hex), row)

    # ------------------------------------------------------------------
    # Serve tables: versioned deployments + router metrics rows
    # ------------------------------------------------------------------

    def put_deployment(self, name: str, row: Dict[str, Any]) -> None:
        """Store the current row for one deployment and append it to the
        deployment's version history log.

        The row is expected to carry ``version`` plus replica membership
        (``replicas``: list of actor hex ids); the current-row key is
        always the latest version, while the append-only log preserves
        every deploy for the dashboard timeline and debugging.
        """
        row = dict(row)
        row["updated_at"] = time.time()
        self.kv.put((_DEPLOYMENT, name), row)
        self.kv.append((_DEPLOYMENT_LOG, name), dict(row))

    def get_deployment(self, name: str) -> Optional[Dict[str, Any]]:
        return self.kv.get((_DEPLOYMENT, name))

    def deployments(self) -> Dict[str, Dict[str, Any]]:
        """All current deployment rows, keyed by deployment name."""
        return dict(self._rows(_DEPLOYMENT))

    def deployment_history(self, name: str) -> List[Dict[str, Any]]:
        """Every version row ever written for ``name``, in deploy order."""
        return list(self.kv.log((_DEPLOYMENT_LOG, name)))

    def delete_deployment(self, name: str) -> None:
        """Tombstone a deployment (history survives for the timeline)."""
        row = dict(self.kv.get((_DEPLOYMENT, name)) or {"name": name})
        row["deleted"] = True
        row["deleted_at"] = time.time()
        self.kv.put((_DEPLOYMENT, name), row)

    def publish_serve_report(self, name: str, row: Dict[str, Any]) -> None:
        """Store the latest router metrics snapshot for one deployment.

        Mirrors ``publish_node_report``: one row per deployment (put, not
        append), versioned by the ``seq``/``ts`` the router stamps into
        it, carrying per-replica queue depth, in-flight count, and p50/p99
        latency — the signal the replica autoscaler scales from.
        """
        self.kv.put((_SERVE_REPORT, name), dict(row))

    def get_serve_report(self, name: str) -> Optional[Dict[str, Any]]:
        return self.kv.get((_SERVE_REPORT, name))

    def serve_reports(self) -> Dict[str, Dict[str, Any]]:
        """All router metrics rows, keyed by deployment name."""
        return dict(self._rows(_SERVE_REPORT))

    def tombstone_serve_report(self, name: str) -> None:
        """Mark a deployment's metrics row dead (deployment torn down)."""
        row = dict(self.kv.get((_SERVE_REPORT, name)) or {"deployment": name})
        row["tombstone"] = True
        row["tombstoned_at"] = time.time()
        self.kv.put((_SERVE_REPORT, name), row)

    # ------------------------------------------------------------------
    # Introspection (debugging tools ride on the GCS — paper Section 7)
    # ------------------------------------------------------------------

    def _rows(self, table: str) -> Iterator[Tuple[Any, Any]]:
        """Every ``(entity, row)`` of ``table`` — an event category's row
        is its log — from one key listing, then one tail read per key: the
        one full-table scan.  A key deleted after the listing is skipped."""
        read = self.kv.log if table == _EVENT else self.kv.get
        for key in self.kv.keys():
            if isinstance(key, tuple) and key[0] == table:
                row = read(key)
                if row is not None and row != []:
                    yield key[1], row

    def num_entries(self) -> int:
        return self.kv.num_entries()

    def num_subscriptions(self) -> int:
        """Active pub-sub registrations across all shards — each one is a
        blocked ``get``/``wait``/fetch watching for a notification."""
        return self.kv.num_subscriptions()

    def approx_bytes(self) -> int:
        return self.kv.approx_bytes()

    def tasks_with_status(self, status: TaskStatus) -> List[TaskTableEntry]:
        return [entry for entry in self.tasks() if entry.status == status]

    def close(self) -> None:
        """Release the store's batch-flush threads (idempotent)."""
        self.kv.close()
