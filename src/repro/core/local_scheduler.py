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
on a node,
the local scheduler pulls any missing inputs via the object fetcher and
dispatches the task to a worker when all inputs are local and its resources
are available.

Two throughput mechanisms sit on top of that checked pipeline:

* a **submit fast path** — when the node is idle enough that the spillback
  policy would keep the task local anyway, and its inputs are already
  local, submission dispatches straight to a worker (one RUNNING status
  write; no global-scheduler hop, no dispatcher queue round-trip), and
* a **persistent worker pool** — workers park on a queue between tasks, so
  dispatch costs a queue hand-off instead of a per-task thread spawn.

Both are observable (``scheduler_fastpath_total``, ``policy="fastpath"``
on the trace event) and both degrade to the checked path whenever any
precondition fails.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.common.lockwatch import make_condition, make_thread
from repro.common.events import BACKSTOP_INTERVAL, WaitStats
from repro.common.faults import NULL_FAULTS
from repro.common.ids import ObjectID, TaskID
from repro.common.metrics import MetricsRegistry, NULL_REGISTRY
from repro.core.scheduling import RuntimeNodeView, TaskView, make_spillback
from repro.core.task_spec import TaskSpec
from repro.gcs.tables import TaskStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Node

#: A ``(category, payload)`` trace event, as ``gcs.set_task_states`` takes it.
Event = Tuple[str, Dict[str, object]]


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


def _policy_fastpath_trustworthy(policy) -> bool:
    """Whether ``policy.allows_fastpath`` may stand in for ``should_forward``.

    The fast path bypasses ``should_forward``, trusting ``allows_fastpath``
    to give the same answer.  That only holds when the two methods come
    from the same class: a subclass overriding ``should_forward`` while
    inheriting ``allows_fastpath`` (e.g. a recording/experimental policy)
    would get a stale opt-in, so it keeps the checked path.
    """
    for klass in type(policy).__mro__:
        has_forward = "should_forward" in klass.__dict__
        has_fast = "allows_fastpath" in klass.__dict__
        if has_forward or has_fast:
            return has_forward and has_fast
    return False


class LocalScheduler:
    """Bottom-up local scheduler for a single node."""

    def __init__(
        self,
        node: "Node",
        gcs,
        fetcher,
        forward_to_global: Callable[..., None],
        execute: Callable[["Node", TaskSpec, Dict[str, float]], None],
        spillback_threshold: int = 16,
        spillback: Optional[object] = None,
        wait_stats: Optional[WaitStats] = None,
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
        self._wait_stats = wait_stats
        self._trace_events = trace_events
        self._faults = faults if faults is not None else NULL_FAULTS
        self._fastpath = _policy_fastpath_trustworthy(self._spillback)

        self._cond = make_condition("LocalScheduler._cond")
        self._ready: deque = deque()
        self._waiting: Dict[TaskID, Set[ObjectID]] = {}
        self._waiting_specs: Dict[TaskID, TaskSpec] = {}
        self._running: Set[TaskID] = set()
        self._ready_since: Dict[TaskID, float] = {}
        # Tracing on: when a ready task's inputs arrived after placement.
        self._arrived: Dict[TaskID, float] = {}
        self._stopped = False

        # Persistent worker pool: dispatching onto a parked thread costs a
        # queue put instead of a ~100µs thread spawn.  The pool grows on
        # demand up to peak concurrency and threads park on the queue
        # between tasks.
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
        self._m_fastpath = metrics.counter(
            "scheduler_fastpath_total",
            "Tasks dispatched straight to a worker by the submit fast path",
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

        node.resources.add_release_listener(self._notify)
        self._dispatcher = make_thread(
            self._dispatch_loop, name=f"dispatcher-{node.node_id.hex()[:6]}"
        )
        self._dispatcher.start()

    # -- submission (bottom-up entry point) ----------------------------------

    def submit(self, spec: TaskSpec, submitted: Optional[Event]) -> None:
        """A co-located driver or worker created this task.

        ``submitted`` is its ``task_submitted`` event (``None`` with tracing
        off).  A first submission has no task row yet: the row and the
        event go out in the placement write the spec reaches first — the
        fast path's RUNNING batch or a ``place_many`` SCHEDULED batch, here
        or on the node the global scheduler picks.
        """
        if self._fastpath and self._try_fastpath(spec, submitted):
            return
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
        # the counters move under the condition, once per call.
        with self._cond:
            self.scheduled_locally += len(kept)
            self.forwarded += forwarded
        return kept, kept_events

    def _try_fastpath(self, spec: TaskSpec, submitted: Optional[Event]) -> bool:
        """Dispatch a fresh submission straight to a worker, if it is safe.

        When this node is idle enough — queues empty, every input already
        local, resources free, and the spillback policy confirms the task
        would have stayed local anyway — the whole submit→dispatch pipeline
        (global-scheduler hop, ``ClusterView`` construction, the SCHEDULED
        status write, the dispatcher queue round-trip) collapses into one
        RUNNING write of the task's row, carrying its ``submitted`` event,
        and a hand-off to a pooled worker.  A check failing before that
        write returns False and the caller takes the ordinary checked path
        with the event unsent; the shortcut never changes *where* a task
        runs, only how many hops it takes to start.
        """
        node = self.node
        if not node.alive:
            return False
        for dep in spec.dependencies():
            if not node.store.contains(dep):
                return False
        with self._cond:
            if (
                self._stopped
                or self._ready
                or self._waiting
                # Queues are empty, so the backlog is exactly the running
                # set — let the policy apply its own rule to it.
                or not self._spillback.allows_fastpath(len(self._running))
            ):
                return False
            if not node.resources.try_acquire(spec.resources):
                return False
        # Placement-fault parity with ``place_many``: a kill injected at
        # placement must be discovered by the placement that triggered it.
        if self._faults.enabled:
            self._faults.on_place(node.node_id)
            if not node.alive:
                node.resources.release(spec.resources)
                return False
        # The row first: durable before the task is visible to
        # ``kill_node``'s drain/running snapshots or to a worker.  One write
        # instead of SCHEDULED-then-RUNNING: the kill and reconstruction
        # paths treat both states identically (in flight on this node), and
        # the lifecycle events ride in the same batch.
        events = [submitted] if submitted is not None else []
        if self._trace_events:
            base = self.lifecycle_payload(spec, time.perf_counter())
            events.append(("task_scheduled", dict(base, policy="fastpath")))
            events.append(("task_inputs_ready", base))
        self.gcs.set_task_states(
            [(spec, TaskStatus.RUNNING, node.node_id)], events=events
        )
        with self._cond:
            if self._stopped:
                # ``kill_node`` ran during the write; its drain/running
                # snapshots (serialized by this condition) never saw the
                # task, so reroute it — its event is already written.
                bounced = True
            else:
                bounced = False
                self._running.add(spec.task_id)
                self.scheduled_locally += 1
        if bounced:
            node.resources.release(spec.resources)
            self._forward_to_global(spec)
            return True
        self._m_placed.inc()
        self._m_fastpath.inc()
        self._dispatch_to_worker(spec)
        return True

    def submit_many(
        self, specs: List[TaskSpec], submitted: List[Optional[Event]]
    ) -> None:
        """Submit one ``submit_many`` batch created on this node, with each
        spec's ``task_submitted`` event (see :meth:`submit`).

        Decisions match per-spec :meth:`submit` exactly, but every task
        kept here is placed through :meth:`place_many`, whose whole-batch
        SCHEDULED write replaces one control round-trip per task.  The
        single-submission fast path is deliberately *not* consulted: it
        pays one control write per task in the submitting thread, which is
        exactly what a batch must avoid.
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
        shard write, and the ready sub-batch is enqueued under one condition
        acquisition with a single wake-up.  A spec bounced before the write
        is forwarded with its event; one bounced after it, without.
        """
        node = self.node
        if self._faults.enabled:
            # An ``at_placement`` fault fires *here*, once per task and
            # before the alive check, so a kill injected mid-placement is
            # discovered by the very placement that triggered it and
            # spills back to global.
            for _ in specs:
                self._faults.on_place(node.node_id)
        if not node.alive:
            # Placed on a node that died in the meantime: bounce to global.
            for spec, event in zip(specs, submitted):
                self._forward_to_global(spec, event)
            return
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
        self.gcs.set_task_states(
            [(spec, TaskStatus.SCHEDULED, node.node_id) for spec in specs],
            events=events,
        )
        self._m_placed.inc(len(specs))
        with self._cond:
            if self._stopped:
                bounced = True
            else:
                bounced = False
                for spec, missing in missing_by_spec:
                    self._waiting[spec.task_id] = set(missing)
                    self._waiting_specs[spec.task_id] = spec
                if ready:
                    now_mono = time.monotonic()
                    for spec in ready:
                        self._ready.append(spec)
                        self._ready_since[spec.task_id] = now_mono
                    self._cond.notify_all()
        if bounced:
            # The node died between the alive check above and here: specs
            # registered now would be invisible to the kill path's drain
            # (it already ran) and lost forever.  stop()/drain() hold this
            # condition, so the check is authoritative — reroute all (their
            # submitted events are already written).
            for spec in specs:
                self._forward_to_global(spec)
            return
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
        """A placed task's input arrived (on the thread whose store put
        landed it, so nothing here writes to the GCS)."""
        with self._cond:
            pending = self._waiting.get(task_id)
            if pending is None:
                return
            pending.discard(object_id)
            if pending:
                return
            del self._waiting[task_id]
            spec = self._waiting_specs.pop(task_id)
            stopped = self._stopped
            if not stopped:
                self._ready.append(spec)
                self._ready_since[task_id] = time.monotonic()
                if self._trace_events:
                    # Its task_inputs_ready event rides the dispatcher's
                    # RUNNING batch: durable before the worker runs.
                    self._arrived[task_id] = time.perf_counter()
                self._cond.notify_all()
        if stopped:
            # Stopped before drain() ran: drain will not see the task now,
            # so hand it back for placement on a live node.
            self._forward_to_global(spec)

    # -- dispatch ----------------------------------------------------------------

    def _notify(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                batch = self._pick_dispatch_batch()
                while not batch and not self._stopped:
                    # Notification-driven: ready-queue pushes and resource
                    # releases notify this condition.  The timed wait is
                    # only a guarded missed-wakeup backstop.
                    notified = self._cond.wait(timeout=BACKSTOP_INTERVAL)
                    batch = self._pick_dispatch_batch()
                    if (
                        not notified
                        and batch
                        and self._wait_stats is not None
                    ):
                        # A task was dispatchable but no notification
                        # arrived: the backstop caught a missed wakeup.
                        self._wait_stats.record_backstop(recovered=True)
                stopped = self._stopped
                if not stopped:
                    for spec in batch:
                        self._running.add(spec.task_id)
                arrived = [(s, self._arrived.pop(s.task_id, None)) for s in batch]
            if stopped:
                # Specs picked in the same round the node stopped were
                # already out of _ready (invisible to drain), with their
                # resources held: release and reroute them rather than drop
                # them.  Forwarding happens outside _cond — it takes another
                # node's condition, and nesting the two would invert lock
                # order against that node's own dispatcher.
                for spec in batch:
                    self.node.resources.release(spec.resources)
                    self._forward_to_global(spec)
                return
            # One coalesced RUNNING write for the whole round (built from
            # the specs in hand — no read-modify-write), carrying the
            # task_inputs_ready events of inputs that arrived after
            # placement, then queue hand-offs: workers never write RUNNING
            # themselves.
            self.gcs.set_task_states(
                [
                    (spec, TaskStatus.RUNNING, self.node.node_id)
                    for spec in batch
                ],
                events=[
                    ("task_inputs_ready", self.lifecycle_payload(spec, t))
                    for spec, t in arrived if t is not None
                ],
            )
            for spec in batch:
                self._dispatch_to_worker(spec)

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

    def _pick_dispatch_batch(self) -> List[TaskSpec]:
        """Every ready task whose resources fit right now (lock held)."""
        batch: List[TaskSpec] = []
        while True:
            spec = self._pick_dispatchable()
            if spec is None:
                return batch
            batch.append(spec)

    def _dispatch_to_worker(self, spec: TaskSpec) -> None:
        """Hand a dispatched task (resources held, in ``_running``, RUNNING
        in the GCS) to a parked pool thread, growing the pool if none is
        idle."""
        spawn = None
        with self._cond:
            if self._idle_workers > 0:
                self._idle_workers -= 1
            else:
                spawn = make_thread(
                    self._worker_loop,
                    name=f"worker-{self._node_hex[:6]}-{len(self._pool_threads)}",
                )
                self._pool_threads.append(spawn)
        if spawn is not None:
            spawn.start()
        self._work_queue.put(spec)

    def _worker_loop(self) -> None:
        while True:
            spec = self._work_queue.get()
            if spec is None:  # stop() sentinel
                return
            try:
                self._execute(self.node, spec, dict(spec.resources))
            finally:
                self.node.resources.release(spec.resources)
                with self._cond:
                    self._running.discard(spec.task_id)
                    self._cond.notify_all()
            with self._cond:
                if self._stopped:
                    return
                self._idle_workers += 1

    # -- cancellation ---------------------------------------------------------

    def cancel(self, task_id: TaskID) -> Optional[TaskSpec]:
        """Dequeue ``task_id`` if it has not started running.

        Returns the removed spec (the caller stores cancelled outputs for
        it), or ``None`` if the task is already running here, finished, or
        unknown — in those cases cancellation is cooperative only.
        """
        with self._cond:
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
        with self._cond:
            return list(self._running)

    # -- load info (heartbeats to the global scheduler) --------------------------

    def backlog(self) -> int:
        """Dispatch backlog: tasks placed here but not yet finished."""
        with self._cond:
            return len(self._ready) + len(self._waiting) + len(self._running)

    def queue_length(self) -> int:
        with self._cond:
            return len(self._ready) + len(self._waiting)

    # -- lifecycle ------------------------------------------------------------------

    def drain(self) -> List[TaskSpec]:
        """Remove and return all not-yet-running tasks (node failure path)."""
        with self._cond:
            drained = list(self._ready)
            drained.extend(self._waiting_specs.values())
            self._ready.clear()
            self._waiting.clear()
            self._waiting_specs.clear()
            self._ready_since.clear()
            self._arrived.clear()
            return drained

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
            pool_size = len(self._pool_threads)
        # One sentinel per pool thread: parked workers wake and exit; busy
        # workers notice ``_stopped`` after their task and leave their
        # sentinel behind in a dead queue.
        for _ in range(pool_size):
            self._work_queue.put(None)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the dispatcher thread to exit (call ``stop`` first)."""
        if self._dispatcher is not threading.current_thread():
            self._dispatcher.join(timeout)
        me = threading.current_thread()
        with self._cond:
            pool = list(self._pool_threads)
        # One shared deadline across the pool: a worker stranded in a
        # blocked task must not multiply the wait (they are daemons and
        # exit with the process regardless).
        deadline = None if timeout is None else time.monotonic() + timeout
        for worker in pool:
            if worker is me:
                continue
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            worker.join(remaining)
