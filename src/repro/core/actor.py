"""Actors: stateful computation with lineage-based reconstruction.

An actor is a stateful process pinned to a node; its methods execute
serially, each depending on the state left by the previous one (the
*stateful edge* chain of Section 3.2).  The runtime records every method
invocation in the GCS, so an actor lost to a node failure can be rebuilt:
a new instance is created on a live node, its state is restored from the
most recent checkpoint, and the methods after the checkpoint are replayed
in order (paper Figure 11b).  Because method outputs are written under
deterministic object IDs, replay is idempotent.

Checkpointing is user-definable: classes may provide ``save_checkpoint()``
returning an opaque state blob and ``restore_checkpoint(blob)``; otherwise
the instance ``__dict__`` is snapshotted.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.common.lockwatch import make_condition, make_lock, make_thread
from repro.common.errors import (
    ActorDiedError,
    NodeDiedError,
    TaskCancelledError,
    TaskExecutionError,
)
from repro.common.events import BACKSTOP_INTERVAL, Completion
from repro.common.ids import ActorID, NodeID
from repro.common.serialization import deserialize, serialize
from repro.core import context
from repro.core.task_spec import TaskSpec
from repro.core.worker import resolve_args, run_task, write_finish
from repro.gcs.tables import TaskStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Node, Runtime


class ActorState:
    """Mutable bookkeeping for one actor (all incarnations)."""

    def __init__(
        self,
        actor_id: ActorID,
        cls: type,
        class_name: str,
        creation_spec: TaskSpec,
        checkpoint_interval: Optional[int],
        max_restarts: int,
        name: Optional[str] = None,
    ):
        self.actor_id = actor_id
        self.cls = cls
        self.class_name = class_name
        self.creation_spec = creation_spec
        self.checkpoint_interval = checkpoint_interval
        self.max_restarts = max_restarts
        self.name = name  # user-visible name (``get_actor`` registry)

        self.cond = make_condition("ActorState.cond")
        self.node: Optional["Node"] = None
        self.instance: Any = None
        self.mailbox: Dict[int, TaskSpec] = {}
        self.next_counter = 0  # next method counter to execute
        self.submitted = 0  # next counter to assign at submission
        self.incarnation = 0
        self.restarts = 0
        self.dead_forever = False
        self.replay_boundary = 0  # counters below this are replays
        self.ready = threading.Event()  # instance constructed at least once
        # Signalled when the current incarnation must stop (restart, kill,
        # shutdown); re-armed (replaced) for each new incarnation so blocked
        # input fetches wake immediately instead of timing out.
        self.interrupt = Completion()
        self.thread: Optional[threading.Thread] = None


class ActorManager:
    """Creates, drives, kills, and reconstructs actors."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime
        self._lock = make_lock("ActorManager._lock")
        self.actors: Dict[ActorID, ActorState] = {}
        self.replayed_methods = 0
        self.checkpoints_taken = 0

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    def create_actor(
        self,
        cls: type,
        creation_spec: TaskSpec,
        checkpoint_interval: Optional[int] = None,
        max_restarts: int = 4,
        name: Optional[str] = None,
    ) -> ActorState:
        actor_id = creation_spec.actor_id
        assert actor_id is not None
        # The name (if any) was already claimed by the caller — the claim
        # must precede the durable task row so duplicates have no effect.
        state = ActorState(
            actor_id,
            cls,
            cls.__name__,
            creation_spec,
            checkpoint_interval,
            max_restarts,
            name=name,
        )
        with self._lock:
            self.actors[actor_id] = state
        self.runtime.gcs.register_actor(actor_id, cls.__name__, None)
        self._start_incarnation(state)
        return state

    def _place(self, state: ActorState) -> "Node":
        """Choose the node for the actor's next incarnation and write the
        creation task's row SCHEDULED there: its placement write."""
        spec = state.creation_spec
        node = self.runtime.global_scheduler_for(spec).schedule(spec)
        self.runtime.gcs.set_task_states([(spec, node.node_id)])
        return node

    def _start_incarnation(self, state: ActorState) -> None:
        node = self._place(state)
        with state.cond:
            state.interrupt.set()  # wake any wait of the previous incarnation
            state.interrupt = Completion(stats=self.runtime.wait_stats)
            interrupt = state.interrupt
            state.node = node
            state.incarnation += 1
            incarnation = state.incarnation
            state.cond.notify_all()
        thread = make_thread(
            lambda: self._actor_loop(state, incarnation, interrupt),
            name=f"actor-{state.class_name}-{state.actor_id.hex()[:6]}",
        )
        state.thread = thread
        thread.start()

    # ------------------------------------------------------------------
    # Method submission
    # ------------------------------------------------------------------

    def submit_method(self, state_spec_builder, actor_id: ActorID):
        """Assign the next method counter, record the spec, deliver it.

        ``state_spec_builder(counter)`` builds the TaskSpec once the counter
        is known (counters define the stateful-edge order).
        """
        state = self.get_state(actor_id)
        if state is None:
            raise ActorDiedError(f"unknown actor {actor_id!r}")
        with state.cond:
            counter = state.submitted
            state.submitted += 1
            node = state.node  # None only until the first placement
        spec = state_spec_builder(counter)
        # The task row and the method-log entry must be durable before the
        # spec can reach the actor thread: the method may start the instant
        # it lands in the mailbox, and a restart rebuilds the mailbox from
        # the log alone.  The mailbox is the method's queue, so its row is
        # placed (SCHEDULED) on the actor's node.
        self.runtime.record_submissions(
            [spec], node.node_id if node is not None else None
        )
        if state.dead_forever:
            self._store_method_error(state, spec)
            return spec
        with state.cond:
            state.mailbox.setdefault(counter, spec)
            state.cond.notify_all()
        return spec

    def _store_method_error(
        self,
        state: ActorState,
        spec: TaskSpec,
        cause: Optional[BaseException] = None,
    ) -> None:
        """Finish (FAILED) a method that will never run."""
        error = TaskExecutionError(
            spec.task_id,
            cause or ActorDiedError(f"actor {state.class_name} died permanently"),
        )
        write_finish(
            self.runtime,
            self.runtime.driver_node,
            spec,
            TaskStatus.FAILED,
            [error] * spec.num_returns,
            time.perf_counter(),
        )

    # ------------------------------------------------------------------
    # The actor loop (one thread per incarnation)
    # ------------------------------------------------------------------

    def _stale(self, state: ActorState, incarnation: int) -> bool:
        with state.cond:
            return self._stale_locked(state, incarnation)

    def _actor_loop(
        self, state: ActorState, incarnation: int, interrupt: Completion
    ) -> None:
        runtime = self.runtime
        node = state.node
        gcs = runtime.gcs
        # Acquire the actor's lifetime resources; keep trying (in short
        # slices so a kill/restart can cancel us) until they free up.  If
        # this node stays full, ask the global scheduler for a new
        # placement — capacity may have opened up elsewhere.
        attempts = 0
        while not node.resources.acquire(state.creation_spec.resources, timeout=0.2):
            if self._stale(state, incarnation) or not node.alive:
                return
            attempts += 1
            if attempts % 10 == 0:
                replacement = self._place(state)
                if replacement is not node:
                    with state.cond:
                        state.node = replacement
                    node = replacement
        try:
            instance = self._construct_instance(state, incarnation, node, interrupt)
            if instance is None:
                return
            if incarnation > 1:
                # A restart reads what the last incarnation's finishes
                # wrote (checkpoint, outputs for the read-only skip): let
                # those still queued land.
                runtime.flush_finishes()
            restored_counter = self._restore_checkpoint(state, instance)
            # Read the durable method log *before* taking state.cond: a
            # chain read of the log is a blocking RPC, and anything
            # submitted after this read reaches the mailbox via
            # submit_method's live delivery (setdefault dedupes).
            method_log = gcs.actor_method_log(state.actor_id)
            with state.cond:
                previously_executed = state.next_counter
                state.instance = instance
                state.next_counter = restored_counter
                state.replay_boundary = max(previously_executed, restored_counter)
                self._rebuild_mailbox(state, restored_counter, method_log)
            gcs.update_actor(state.actor_id, node_id=node.node_id, alive=True)
            state.ready.set()
            while True:
                with state.cond:
                    while (
                        state.next_counter not in state.mailbox
                        and not self._stale_locked(state, incarnation)
                    ):
                        # Notification-driven: submissions and lifecycle
                        # changes notify this condition; the timed wait is
                        # only a guarded missed-wakeup backstop.
                        notified = state.cond.wait(timeout=BACKSTOP_INTERVAL)
                        if not notified and (
                            state.next_counter in state.mailbox
                            or self._stale_locked(state, incarnation)
                        ):
                            self.runtime.wait_stats.record_backstop(
                                recovered=True
                            )
                    if self._stale_locked(state, incarnation):
                        return
                    spec = state.mailbox.pop(state.next_counter)
                self._execute_method(
                    state, incarnation, node, instance, spec, interrupt
                )
                if self._stale(state, incarnation):
                    return
        except NodeDiedError:
            # The node died under this incarnation mid-fetch or mid-method.
            # Exit quietly without advancing the counter: on_node_death
            # restarts the actor elsewhere and replays from the checkpoint.
            return
        finally:
            node.resources.release(state.creation_spec.resources)

    def _stale_locked(self, state: ActorState, incarnation: int) -> bool:
        return (
            state.incarnation != incarnation
            or state.dead_forever
            or self.runtime.stopped
        )

    def _construct_instance(
        self,
        state: ActorState,
        incarnation: int,
        node: "Node",
        interrupt: Completion,
    ) -> Any:
        runtime = self.runtime
        spec = state.creation_spec
        runtime.fetcher.prefetch(spec.dependencies(), node)
        for dep in spec.dependencies():
            if not runtime.fetch_to_node(
                dep,
                node,
                cancelled=lambda: self._stale(state, incarnation),
                interrupt=interrupt,
            ):
                return None
        started = time.perf_counter()
        instance = None
        args, kwargs, cause = resolve_args(node, spec)
        if cause is None:
            try:
                # A restarted incarnation re-runs __init__, which may
                # resubmit children the first incarnation already created.
                with context.execution_scope(
                    runtime, node, spec.task_id, None, is_replay=incarnation > 0
                ):
                    instance = state.cls(*args, **kwargs)
            except BaseException as exc:  # noqa: BLE001
                cause = TaskExecutionError(spec.task_id, exc)
        if cause is not None:
            self._kill_forever(state, cause)
        # The creation is a task: it finishes through the one finish writer.
        status = TaskStatus.FINISHED if cause is None else TaskStatus.FAILED
        write_finish(runtime, node, spec, status, [], started)
        return instance

    def _restore_checkpoint(self, state: ActorState, instance: Any) -> int:
        ckpt = self.runtime.gcs.get_actor_checkpoint(state.actor_id)
        if ckpt is None:
            return 0
        counter, blob = ckpt
        payload = deserialize(blob)
        if hasattr(instance, "restore_checkpoint"):
            instance.restore_checkpoint(payload)
        else:
            instance.__dict__.update(payload)
        return counter

    def _rebuild_mailbox(self, state: ActorState, from_counter: int, log) -> None:
        """Refill the mailbox from the durable method log (lock held).

        ``log`` is the method log, read by the caller *before* taking the
        condition — fetching it here would issue a GCS RPC under the lock.
        ``from_counter`` is the checkpoint we restored to.  Methods with
        counters in [from_counter, replay_boundary) are replays; whether
        each is actually re-executed (vs skipped as read-only) is decided
        at execution time.
        """
        for spec in log:
            if spec.actor_counter >= from_counter:
                state.mailbox.setdefault(spec.actor_counter, spec)

    def _advance(
        self, state: ActorState, incarnation: int, spec: TaskSpec
    ) -> Optional[int]:
        """Move the method counter past ``spec`` and return it — or None
        when this loop went stale meanwhile: the restart or death path then
        owns the method's outcome (replays or fails it from the counter it
        read), and the loop must not publish over it."""
        with state.cond:
            if self._stale_locked(state, incarnation):
                return None
            state.next_counter = spec.actor_counter + 1
            state.cond.notify_all()  # wake quiesce_actor waiters
            return state.next_counter

    def _execute_method(
        self,
        state: ActorState,
        incarnation: int,
        node: "Node",
        instance: Any,
        spec: TaskSpec,
        interrupt: Completion,
    ) -> None:
        runtime = self.runtime
        started = time.perf_counter()
        lifecycle = []
        if runtime.is_cancelled(spec.task_id):
            # A cancelled method is *flagged*, never dequeued: the mailbox
            # must stay counter-contiguous or the actor loop would block
            # forever on the gap.  Skip execution here, still advancing the
            # counter and storing cancelled outputs for any waiting get().
            status = TaskStatus.CANCELLED
            values = [TaskCancelledError(spec.task_id)] * spec.num_returns
        else:
            with state.cond:
                is_replay = spec.actor_counter < state.replay_boundary
            if is_replay and spec.is_read_only and all(
                runtime.transfer.live_locations(oid) for oid in spec.return_ids
            ):
                # Read-only methods do not mutate state: skip replaying them
                # if their outputs still exist (the Section 5.1 optimization).
                self._advance(state, incarnation, spec)
                return
            if is_replay:
                with self._lock:
                    self.replayed_methods += 1
            runtime.fetcher.prefetch(spec.dependencies(), node)
            for dep in spec.dependencies():
                if not runtime.fetch_to_node(
                    dep,
                    node,
                    cancelled=lambda: self._stale(state, incarnation),
                    interrupt=interrupt,
                ):
                    return
            # No start write: the row is SCHEDULED on this node since
            # submission, and readers treat that as in flight here.  The
            # lifecycle events keep their times and ride the finish batch.
            scheduled, started = started, time.perf_counter()
            if runtime.config.trace_events_enabled:
                payload = node.local_scheduler.lifecycle_payload
                lifecycle = [
                    ("task_scheduled", payload(spec, scheduled)),
                    ("task_inputs_ready", payload(spec, started)),
                ]
            status, values = run_task(
                runtime,
                node,
                spec,
                getattr(instance, spec.actor_method),
                dict(spec.resources),
                is_replay,
            )
        executed = self._advance(state, incarnation, spec)
        if executed is None:
            return
        checkpoint = None
        if state.checkpoint_interval and executed % state.checkpoint_interval == 0:
            checkpoint = self._checkpoint(instance)
        # The progress row and a due checkpoint ride the finish batch.
        write_finish(
            runtime,
            node,
            spec,
            status,
            values,
            started,
            lifecycle,
            progress=(incarnation, executed),
            checkpoint=checkpoint,
        )

    def _checkpoint(self, instance: Any) -> Any:
        """Snapshot ``instance`` as a checkpoint blob."""
        if hasattr(instance, "save_checkpoint"):
            payload = instance.save_checkpoint()
        else:
            payload = dict(instance.__dict__)
        with self._lock:
            self.checkpoints_taken += 1
        # Seal: the checkpoint must not alias live actor state (the actor
        # keeps mutating its arrays after the snapshot is taken).
        return serialize(payload).seal()

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------

    def get_by_name(self, name: str) -> Optional[ActorState]:
        """Resolve a user-visible name to its live actor (or None)."""
        actor_id = self.runtime.gcs.lookup_actor_name(name)
        if actor_id is None:
            return None
        with self._lock:
            state = self.actors.get(actor_id)
        if state is None or state.dead_forever:
            return None
        return state

    def _release_name(self, state: ActorState) -> None:
        """Free the actor's name on permanent death (idempotent)."""
        name, state.name = state.name, None
        if name is not None:
            self.runtime.gcs.release_actor_name(name, state.actor_id)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def on_node_death(self, node_id: NodeID) -> None:
        """Restart (or permanently fail) every actor that lived on the node."""
        with self._lock:
            victims = [
                state
                for state in self.actors.values()
                if state.node is not None
                and state.node.node_id == node_id
                and not state.dead_forever
            ]
        for state in victims:
            self.restart_actor(state)

    def restart_actor(self, state: ActorState, count_restart: bool = True) -> None:
        """Restart an actor's incarnation.

        ``count_restart=False`` is used for reconstruction-driven replays
        (lost outputs): they are part of normal recovery and must not eat
        into the failure budget (``max_restarts``).
        """
        with state.cond:
            if count_restart:
                state.restarts += 1
            dead = state.dead_forever or state.restarts > state.max_restarts
        if dead:
            self._kill_forever(state)
            return
        self.runtime.gcs.update_actor(state.actor_id, alive=False)
        self._start_incarnation(state)

    def kill_actor(self, actor_id: ActorID, restart: bool = True) -> None:
        """Simulate an actor process crash (without killing the node)."""
        with self._lock:
            state = self.actors.get(actor_id)
        if state is None:
            raise ActorDiedError(f"unknown actor {actor_id!r}")
        if restart:
            self.restart_actor(state)
        else:
            self._kill_forever(state)

    def _kill_forever(
        self, state: ActorState, cause: Optional[TaskExecutionError] = None
    ) -> None:
        """Mark the actor permanently dead — its loop sees ``dead_forever``
        and exits — free its name, and fail every method that will never
        run (with ``cause`` when its constructor raised)."""
        with state.cond:
            state.dead_forever = True
            state.interrupt.set()
            state.cond.notify_all()
        self._release_name(state)
        self.runtime.gcs.update_actor(state.actor_id, alive=False)
        self._fail_pending_methods(state, cause)

    def _fail_pending_methods(
        self, state: ActorState, cause: Optional[BaseException] = None
    ) -> None:
        """Fail every method that will never run: the log entries at or past
        the counter whose outputs do not exist (a replay's still may)."""
        log = self.runtime.gcs.actor_method_log(state.actor_id)
        with state.cond:
            executed = state.next_counter
        for spec in log:
            if spec.actor_counter >= executed and not any(
                self.runtime.transfer.live_locations(oid)
                for oid in spec.return_ids
            ):
                self._store_method_error(state, spec, cause)

    # ------------------------------------------------------------------
    # Reconstruction entry point (object fetch path)
    # ------------------------------------------------------------------

    def reconstruct_for_object(self, spec: TaskSpec) -> bool:
        """Method ``spec``'s output was lost: replay the actor from its last
        checkpoint (stateful-edge reconstruction).  An actor that died
        permanently cannot replay, so the method fails instead; returns
        True when it did."""
        state = self.get_state(spec.actor_id)
        if state is None:
            return False
        if state.dead_forever:
            self._store_method_error(state, spec)
            return True
        self.restart_actor(state, count_restart=False)
        return False

    def get_state(self, actor_id: ActorID) -> Optional[ActorState]:
        with self._lock:
            return self.actors.get(actor_id)

    # ------------------------------------------------------------------
    # Graceful retirement (serve hot-swap drain hook)
    # ------------------------------------------------------------------

    def quiesce_actor(
        self, actor_id: ActorID, timeout: Optional[float] = None
    ) -> bool:
        """Block until every submitted method has executed, or the actor is
        permanently dead.  Returns True when drained, False on timeout.

        The caller is responsible for stopping new submissions first (the
        serve router unroutes a replica before quiescing it); this only
        waits out the in-flight mailbox.
        """
        state = self.get_state(actor_id)
        if state is None:
            return True
        deadline = None if timeout is None else time.monotonic() + timeout
        with state.cond:
            while not (state.dead_forever or state.next_counter >= state.submitted):
                wait_for = BACKSTOP_INTERVAL
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    wait_for = min(wait_for, remaining)
                state.cond.wait(wait_for)
            return True

    def drain_actor(
        self, actor_id: ActorID, timeout: Optional[float] = None
    ) -> bool:
        """Quiesce then permanently kill the actor (no restart): graceful
        retirement, used by serve's versioned hot model-swap.  Returns the
        quiesce verdict (False means the kill proceeded after a timeout
        with methods still pending)."""
        drained = self.quiesce_actor(actor_id, timeout=timeout)
        with self._lock:
            known = actor_id in self.actors
        if known:
            self.kill_actor(actor_id, restart=False)
        return drained

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Interrupt every actor loop; join none.

        Called with ``runtime.stopped`` already True, so a woken loop sees
        itself stale and exits.  One inside user code is a daemon thread
        that exits after its method, so shutdown never waits on it."""
        with self._lock:
            states = list(self.actors.values())
        for state in states:
            with state.cond:
                state.interrupt.set()
                state.cond.notify_all()
