"""Per-node local scheduler (the "bottom" of the bottom-up scheduler).

Tasks created on a node are submitted to the node's local scheduler first
(paper Section 4.2.2).  The local scheduler schedules the task locally
*unless*:

* the node's dispatch backlog exceeds the spillback threshold (the node is
  overloaded), or
* the node can never satisfy the task's resource request (e.g. no GPU).

The "overloaded" decision sits behind a pluggable
:class:`~repro.core.scheduling.SpillbackPolicy` (the classic backlog
threshold by default); dead-node and never-satisfiable requests are hard
constraints checked before the policy and always forward.

A forwarded task goes to a global scheduler, which places it via its own
:class:`~repro.core.scheduling.SchedulerPolicy`.  Once a task is *placed*
on a node (:meth:`LocalScheduler.place_many`, the one placement path), its
row is written SCHEDULED there, the local scheduler pulls any missing
inputs via the object fetcher, and the task goes to a worker when all its
inputs are local and its resources are available.

Dispatch writes nothing and has no thread of its own.  A queued task
becomes runnable only when its placement finds it ready, when its last
input lands, or when resources are released, so the thread that causes
that event takes the ready tasks that fit and hands them to workers.
Workers are a **persistent pool** — they park on a queue between tasks,
so a hand-off costs a queue put instead of a per-task thread spawn, and a
worker whose own release makes a queued task runnable takes it next.  A
worker makes no GCS call: it queues its task's finish on the node's
finish queue (``worker.FinishQueue``) and releases its resources at once,
and the node's drain thread writes the finish behind it.  The row's next
write is that finish, which also carries the ``task_inputs_ready`` event
of an input that arrived after placement.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.common.errors import NodeFencedError
from repro.common.lockwatch import make_lock, make_thread
from repro.common.faults import NULL_FAULTS
from repro.common.ids import ObjectID, TaskID
from repro.common.metrics import MetricsRegistry, NULL_REGISTRY
from repro.core.scheduling import RuntimeNodeView, TaskView, make_spillback
from repro.core.task_spec import TaskSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Node

#: A ``(category, payload)`` trace event, as ``gcs.set_task_states`` takes it.
Event = Tuple[str, Dict[str, object]]
#: A task handed to a pool worker, with the lifecycle events its finish
#: batch carries.
Handoff = Tuple[TaskSpec, List[Event]]


class _PendingBacklogView(RuntimeNodeView):
    """A node view whose backlog includes batch members admitted just
    before this decision but not yet enqueued — keeps the per-spec
    spillback decisions of one ``submit_many`` batch equivalent to the
    sequential per-call decisions."""

    __slots__ = ("_extra",)

    def __init__(self, node, extra: int):
        super().__init__(node, 0)
        self._extra = extra

    def backlog(self) -> int:
        return super().backlog() + self._extra


class LocalScheduler:
    """Bottom-up local scheduler for a single node."""

    def __init__(
        self,
        node: "Node",
        gcs,
        fetcher,
        forward_to_global: Callable[..., None],
        execute: Callable[["Node", TaskSpec, Dict[str, float], List[Event]], None],
        spillback_threshold: int = 16,
        spillback: Optional[object] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace_events: bool = False,
        faults: Optional[object] = None,
    ):
        self.node = node
        self.gcs = gcs
        self.fetcher = fetcher
        self._forward_to_global = forward_to_global
        self._execute = execute
        self.spillback_threshold = spillback_threshold
        self._spillback = make_spillback(spillback, threshold=spillback_threshold)
        self._trace_events = trace_events
        self._faults = faults if faults is not None else NULL_FAULTS

        self._lock = make_lock("LocalScheduler._lock")
        self._ready: deque = deque()
        self._waiting: Dict[TaskID, Set[ObjectID]] = {}
        self._waiting_specs: Dict[TaskID, TaskSpec] = {}
        self._running: Set[TaskID] = set()
        self._ready_since: Dict[TaskID, float] = {}
        # Tracing on: when a queued task's inputs arrived after placement.
        self._arrived: Dict[TaskID, float] = {}
        self._stopped = False

        # Persistent worker pool: a hand-off to a parked thread costs a
        # queue put of ``(spec, lifecycle)`` instead of a ~100µs thread
        # spawn.  The pool grows on demand up to peak concurrency and
        # threads park on the queue between tasks.
        self._work_queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._pool_threads: List[threading.Thread] = []
        self._idle_workers = 0

        self.scheduled_locally = 0
        self.forwarded = 0

        metrics = metrics or NULL_REGISTRY
        node_label = node.node_id.hex()[:8]
        self._node_hex = node_label
        self._m_placed = metrics.counter(
            "scheduler_tasks_placed_total", "Tasks placed on this node",
            node=node_label,
        )
        self._m_spillbacks = metrics.counter(
            "scheduler_spillbacks_total",
            "Tasks forwarded to a global scheduler",
            node=node_label,
        )
        self._m_handed_off = metrics.counter(
            "scheduler_fastpath_total",
            "Tasks handed to a worker by their own placement",
            node=node_label,
        )
        self._m_dispatch = metrics.histogram(
            "scheduler_dispatch_seconds",
            "Latency from inputs-ready to worker dispatch",
            node=node_label,
        )
        metrics.gauge(
            "scheduler_queue_depth",
            "Tasks waiting for inputs or resources",
            fn=self.queue_length,
            node=node_label,
        )

        node.resources.add_release_listener(self._dispatch)

    # -- submission (bottom-up entry point) ----------------------------------

    def submit(self, spec: TaskSpec, submitted: Optional[Event]) -> None:
        """A co-located driver or worker created this task: the batch of
        one (see :meth:`submit_many`).

        ``submitted`` is its ``task_submitted`` event (``None`` with tracing
        off).  A first submission has no task row yet: the row and the
        event go out in the ``place_many`` SCHEDULED batch the spec reaches
        first, here or on the node the global scheduler picks.
        """
        kept, events = self._forward_or_keep([spec], [submitted])
        if kept:
            self.place_many(kept, events)

    def _forward_or_keep(
        self, specs: List[TaskSpec], submitted: List[Optional[Event]]
    ) -> Tuple[List[TaskSpec], List[Optional[Event]]]:
        """Forward every spec that must leave this node to a global
        scheduler, with its ``submitted`` event, and return the ones that
        stay with theirs.  The spillback policy sees the backlog grow as
        earlier members of ``specs`` are kept, so a batch decides exactly as
        the same submissions made one by one."""
        node = self.node
        kept: List[TaskSpec] = []
        kept_events: List[Optional[Event]] = []
        forwarded = 0
        for spec, event in zip(specs, submitted):
            if (
                not node.alive
                or not node.resources.can_ever_satisfy(spec.resources)
                or self._spillback.should_forward(
                    TaskView(
                        key=spec.task_id,
                        name=spec.function_name,
                        resources=spec.resources,
                        deps_fn=spec.dependencies,
                    ),
                    _PendingBacklogView(node, len(kept)),
                )
            ):
                forwarded += 1
                self._m_spillbacks.inc()
                self._forward_to_global(spec, event)
            else:
                kept.append(spec)
                kept_events.append(event)
        # Drivers and workers submitting nested tasks land here at once:
        # the counters move under the lock, once per call.
        with self._lock:
            self.scheduled_locally += len(kept)
            self.forwarded += forwarded
        return kept, kept_events

    def submit_many(
        self, specs: List[TaskSpec], submitted: List[Optional[Event]]
    ) -> None:
        """Submit one ``submit_many`` batch created on this node, with each
        spec's ``task_submitted`` event (see :meth:`submit`).

        Decisions match per-spec :meth:`submit` exactly, and every task
        kept here is placed through one :meth:`place_many`, whose
        whole-batch SCHEDULED write replaces one control round-trip per
        task.
        """
        kept, events = self._forward_or_keep(specs, submitted)
        if kept:
            self.place_many(kept, events)

    # -- placement ------------------------------------------------------------

    def place(self, spec: TaskSpec, submitted: Optional[Event]) -> None:
        """This node has been chosen to run ``spec``."""
        self.place_many([spec], [submitted])

    def place_many(
        self, specs: List[TaskSpec], submitted: List[Optional[Event]]
    ) -> None:
        """Place the specs chosen for this node: the one placement path.

        The whole batch's SCHEDULED rows, the ``submitted`` events not yet
        written (a first submission's row is born here) and the
        ``task_scheduled`` / ``task_inputs_ready`` events coalesce into one
        shard write.  Then, under one lock acquisition, the ready sub-batch
        joins the ready queue and every ready task that fits is taken off
        it and handed to workers on this thread.  The write is guarded by
        this node's incarnation: once a kill has fenced it, the GCS rejects
        the batch and every spec is forwarded with its event.  A batch that
        landed is the kill's sweep's, so a stopped scheduler queues nothing.
        """
        node = self.node
        if self._faults.enabled:
            # An ``at_placement`` fault fires *here*, once per task and
            # before the write, so a kill injected mid-placement is
            # discovered by the very placement that triggered it and
            # spills back to global.
            for _ in specs:
                self._faults.on_place(node.node_id)
        ready: List[TaskSpec] = []
        missing_by_spec: List[tuple] = []
        for spec in specs:
            missing = {
                dep
                for dep in spec.dependencies()
                if not node.store.contains(dep)
            }
            if missing:
                missing_by_spec.append((spec, missing))
            else:
                ready.append(spec)
        events = [event for event in submitted if event is not None]
        if self._trace_events:
            now = time.perf_counter()
            events.extend(
                ("task_scheduled", self.lifecycle_payload(spec, now))
                for spec in specs
            )
            events.extend(
                ("task_inputs_ready", self.lifecycle_payload(spec, now))
                for spec in ready
            )
        try:
            self.gcs.set_task_states(
                [(spec, node.node_id) for spec in specs],
                events=events,
                guard=(node.node_id, node.epoch),
            )
        except NodeFencedError:
            for spec, event in zip(specs, submitted):
                self._forward_to_global(spec, event)
            return
        self._m_placed.inc(len(specs))
        handoffs: List[Handoff] = []
        spawn: List[threading.Thread] = []
        with self._lock:
            if self._stopped:
                return
            for spec, missing in missing_by_spec:
                self._waiting[spec.task_id] = set(missing)
                self._waiting_specs[spec.task_id] = spec
            if ready:
                now_mono = time.monotonic()
                for spec in ready:
                    self._ready.append(spec)
                    self._ready_since[spec.task_id] = now_mono
                # Whatever is left does not fit now: the resource release
                # that frees room for it hands it off.
                handoffs, spawn = self._take_dispatch_batch()
        if handoffs:
            placed = {spec.task_id for spec in ready}
            self._m_handed_off.inc(
                sum(1 for spec, _ in handoffs if spec.task_id in placed)
            )
            self._hand_off(handoffs, spawn)
        # Register every readiness callback first (fires immediately for
        # anything already arrived), then start the fetches.
        all_missing: List[ObjectID] = []
        for spec, missing in missing_by_spec:
            for dep in missing:
                self.node.store.on_available(
                    dep,
                    lambda oid, tid=spec.task_id: self._input_ready(tid, oid),
                )
            all_missing.extend(missing)
        if all_missing:
            self.fetcher.prefetch(all_missing, node)

    def lifecycle_payload(self, spec: TaskSpec, t: float) -> Dict[str, object]:
        """Payload shared by this node's task-lifecycle trace events."""
        return dict(
            task=spec.task_id.short(),
            name=spec.function_name,
            node=self._node_hex,
            t=t,
        )

    def _input_ready(self, task_id: TaskID, object_id: ObjectID) -> None:
        """A placed task's input arrived, on the thread whose store put
        landed it.  Its last input makes the task ready, and this thread
        hands it to a worker if it fits (nothing here writes to the GCS or
        runs the task)."""
        with self._lock:
            pending = self._waiting.get(task_id)
            if pending is None:
                return
            pending.discard(object_id)
            if pending:
                return
            del self._waiting[task_id]
            self._ready.append(self._waiting_specs.pop(task_id))
            self._ready_since[task_id] = time.monotonic()
            if self._trace_events:
                # Its task_inputs_ready event, with this time, rides the
                # task's finish batch.
                self._arrived[task_id] = time.perf_counter()
            handoffs, spawn = self._take_dispatch_batch()
        self._hand_off(handoffs, spawn)

    # -- dispatch ----------------------------------------------------------------

    def _dispatch(self) -> None:
        """Resources were released (the pool's release listener, on the
        releasing thread): hand every ready task that now fits to a
        worker.  Memory only: a picked task's row stays SCHEDULED until
        its finish."""
        with self._lock:
            handoffs, spawn = self._take_dispatch_batch()
        self._hand_off(handoffs, spawn)

    def _pick_dispatchable(self) -> Optional[TaskSpec]:
        """First ready task whose resources fit right now (lock held)."""
        for index, spec in enumerate(self._ready):
            if self.node.resources.try_acquire(spec.resources):
                del self._ready[index]
                ready_at = self._ready_since.pop(spec.task_id, None)
                if ready_at is not None:
                    self._m_dispatch.observe(time.monotonic() - ready_at)
                return spec
        return None

    def _take_dispatch_batch(self) -> Tuple[List[Handoff], List[threading.Thread]]:
        """Take every ready task whose resources fit right now, mark it
        running and claim a pool worker for it (lock held).  Returns the
        ``(spec, lifecycle)`` hand-offs — ``lifecycle`` is the
        ``task_inputs_ready`` event of an input that arrived after
        placement, for the finish batch — and the new pool threads to
        start for the ones no parked worker takes."""
        handoffs: List[Handoff] = []
        while True:
            spec = self._pick_dispatchable()
            if spec is None:
                break
            self._running.add(spec.task_id)
            arrived = self._arrived.pop(spec.task_id, None)
            handoffs.append((
                spec,
                []
                if arrived is None
                else [("task_inputs_ready", self.lifecycle_payload(spec, arrived))],
            ))
        parked = min(self._idle_workers, len(handoffs))
        self._idle_workers -= parked
        spawn = []
        for _ in range(len(handoffs) - parked):
            thread = make_thread(
                self._worker_loop,
                name=f"worker-{self._node_hex[:6]}-{len(self._pool_threads)}",
            )
            self._pool_threads.append(thread)
            spawn.append(thread)
        return handoffs, spawn

    def _hand_off(
        self, handoffs: List[Handoff], spawn: List[threading.Thread]
    ) -> None:
        """Start the claimed pool threads and queue the hand-offs (lock
        not held)."""
        for thread in spawn:
            thread.start()
        for handoff in handoffs:
            self._work_queue.put(handoff)

    def _worker_loop(self) -> None:
        # A hand-off lives only in ``_run_handoff``'s frame, so a worker
        # idle on the queue pins no spec (nor its by-value arguments).
        while self._run_handoff(self._work_queue.get()):
            pass

    def _run_handoff(self, handoff: Optional[Handoff]) -> bool:
        """Run one hand-off; False when this worker exits instead of going
        back to the queue (the ``stop()`` sentinel, or stopped since)."""
        if handoff is None:  # stop() sentinel
            return False
        spec, lifecycle = handoff
        idle = False
        try:
            self._execute(self.node, spec, dict(spec.resources), lifecycle)
            idle = True
        finally:
            with self._lock:
                self._running.discard(spec.task_id)
                # Idle before the release, and only when going back to
                # the queue: the release's own dispatch then hands this
                # worker the next queued task.
                idle = idle and not self._stopped
                if idle:
                    self._idle_workers += 1
            self.node.resources.release(spec.resources)
        return idle

    # -- cancellation ---------------------------------------------------------

    def cancel(self, task_id: TaskID) -> Optional[TaskSpec]:
        """Dequeue ``task_id`` if it has not started running.

        Returns the removed spec (the caller stores cancelled outputs for
        it), or ``None`` if the task is already running here, finished, or
        unknown — in those cases cancellation is cooperative only.
        """
        with self._lock:
            for index, spec in enumerate(self._ready):
                if spec.task_id == task_id:
                    del self._ready[index]
                    self._ready_since.pop(task_id, None)
                    self._arrived.pop(task_id, None)
                    return spec
            if task_id in self._waiting:
                del self._waiting[task_id]
                return self._waiting_specs.pop(task_id)
            return None

    def running_tasks(self) -> List[TaskID]:
        """IDs of tasks currently executing on this node's workers."""
        with self._lock:
            return list(self._running)

    # -- load info (heartbeats to the global scheduler) --------------------------

    def backlog(self) -> int:
        """Dispatch backlog: tasks placed here but not yet finished."""
        with self._lock:
            return len(self._ready) + len(self._waiting) + len(self._running)

    def queue_length(self) -> int:
        with self._lock:
            return len(self._ready) + len(self._waiting)

    # -- lifecycle ------------------------------------------------------------------

    def stop(self) -> None:
        """Drop every queued task (on a kill, each row is still SCHEDULED
        here, so the kill's sweep re-places it) and post one stop sentinel
        per pool thread.  Parked workers wake and exit; a busy worker exits
        after its task and leaves its sentinel behind in a dead queue.
        Nothing waits for either: a worker inside user code is a daemon and
        may never return."""
        with self._lock:
            self._stopped = True
            for queued in (self._ready, self._waiting, self._waiting_specs,
                           self._ready_since, self._arrived):
                queued.clear()
            pool_size = len(self._pool_threads)
        for _ in range(pool_size):
            self._work_queue.put(None)
