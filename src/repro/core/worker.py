"""Execution of tasks and actor methods: one run stage, one finish writer.

A worker executes one task at a time: it pins and deserializes the task's
inputs from the local object store (they are guaranteed local by the local
scheduler), runs the function, writes outputs back to the local store and
queues the finish — the outputs' GCS object-table rows, the terminal task
row, the ``task_finished`` event — on its node's :class:`FinishQueue`.  It
never waits for that write: the store put has already woken every local
reader, and the node's one ``finish-<node>`` drain thread group-commits
whatever finishes it finds queued in one GCS batch, which publishes the
locations remote readers wait on.  An actor's thread runs its methods
through the same two stages (:func:`run_task`, :func:`write_finish`); only
what precedes them differs.

Error semantics follow Ray: an exception raised by a task is captured as a
:class:`TaskExecutionError` stored *in place of* the return value; every
``get`` of that object re-raises, and any downstream task consuming it
propagates the error instead of running.
"""

from __future__ import annotations

import threading
import time
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.common.errors import (
    NodeDiedError,
    NodeFencedError,
    TaskCancelledError,
    TaskExecutionError,
)
from repro.common.events import BACKSTOP_INTERVAL
from repro.common.lockwatch import make_condition, make_thread
from repro.common.serialization import SerializedObject, serialize
from repro.core import context
from repro.core.task_spec import ArgRef, TaskSpec
from repro.gcs.client import Finish
from repro.gcs.tables import TaskStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Node, Runtime

RETRY_BACKOFF_BASE = 0.02  # first app-level retry delay; doubles per attempt
RETRY_BACKOFF_CAP = 1.0  # upper bound on one exponential-backoff sleep


def should_retry(spec: TaskSpec, exc: BaseException, attempt: int) -> bool:
    """Whether a failed execution attempt should be retried in place.

    App-level retries (``max_retries=``) re-run the same task on the same
    node after an application exception — distinct from lineage
    reconstruction, which replays tasks whose *outputs* were lost to node
    failure.  Cancellation is never retried, and ``retry_exceptions=None``
    means any ``Exception`` qualifies (``BaseException``s like
    ``KeyboardInterrupt`` never do).
    """
    if attempt >= spec.max_retries:
        return False
    if isinstance(exc, TaskCancelledError):
        return False
    if spec.retry_exceptions is None:
        return isinstance(exc, Exception)
    return isinstance(exc, tuple(spec.retry_exceptions))


def retry_delay(attempt: int) -> float:
    """Exponential backoff before retry ``attempt`` (0-based), capped."""
    return min(RETRY_BACKOFF_BASE * (2 ** attempt), RETRY_BACKOFF_CAP)


def resolve_args(
    node: "Node", spec: TaskSpec
) -> Tuple[List[Any], Dict[str, Any], Optional[Exception]]:
    """Deserialize the task's arguments from the local store.

    Reads go through the node's deserialized-value cache, and a per-spec
    memo guarantees an ObjectID referenced several times in one task's
    arguments is resolved (and deserialized) exactly once even when the
    cache is disabled or evicts between references.

    Returns (args, kwargs, input_error); ``input_error`` is the first
    upstream error found among the inputs, which the task must propagate.
    """
    memo: Dict[Any, Any] = {}

    def resolve(value: Any) -> Any:
        if isinstance(value, ArgRef):
            object_id = value.object_id
            if object_id in memo:
                return memo[object_id]
            resolved, found = node.store.load_value(object_id)
            if not found:
                if not node.alive:
                    # kill_node dropped the store under a stranded worker:
                    # exit quietly, as from a blocking fetch.
                    raise NodeDiedError(f"{node.node_id!r} died")
                raise RuntimeError(
                    f"input {object_id!r} not local on {node.node_id!r}"
                )
            memo[object_id] = resolved
            return resolved
        return value

    args: List[Any] = []
    kwargs: Dict[str, Any] = {}
    input_error: Optional[Exception] = None
    propagated = (TaskExecutionError, TaskCancelledError)
    for value in spec.args:
        resolved = resolve(value)
        if isinstance(resolved, propagated) and input_error is None:
            input_error = resolved
        args.append(resolved)
    for name, value in spec.kwargs:
        resolved = resolve(value)
        if isinstance(resolved, propagated) and input_error is None:
            input_error = resolved
        kwargs[name] = resolved
    return args, kwargs, input_error


def normalize_returns(spec: TaskSpec, output: Any) -> List[Any]:
    """Split a function's return value according to ``num_returns``."""
    if spec.num_returns == 0:
        return []
    if spec.num_returns == 1:
        return [output]
    if not isinstance(output, (tuple, list)) or len(output) != spec.num_returns:
        raise TypeError(
            f"{spec.function_name} declared num_returns={spec.num_returns} "
            f"but returned {type(output).__name__} of length "
            f"{len(output) if isinstance(output, (tuple, list)) else 'n/a'}"
        )
    return list(output)


def store_outputs(
    node: "Node", spec: TaskSpec, values: List[SerializedObject]
) -> list:
    """Write serialized outputs to the local store and return their GCS
    object-table rows ``(object_id, size, task_id, node_id_or_None)`` —
    ``None`` when the store put failed and there is no location to
    publish.  :func:`write_finish` queues them in the task's finish, which
    its node's drain writes (``GlobalControlStore.finish_tasks``), location
    before metadata.
    """
    entries = []
    for object_id, serialized in zip(spec.return_ids, values):
        stored = node.alive and node.store.put(object_id, serialized)
        entries.append((
            object_id,
            serialized.total_bytes,
            spec.task_id,
            node.node_id if stored else None,
        ))
    return entries


def pin_inputs(runtime: "Runtime", node: "Node", deps) -> None:
    """Pin each input, re-fetching any that was evicted after readiness.

    Pin-then-verify: once an object is pinned *while present*, LRU eviction
    cannot remove it, so the subsequent read is safe.  Any inputs evicted
    since readiness are re-fetched in parallel before the blocking loop
    joins them one by one.
    """
    runtime.fetcher.prefetch(deps, node)
    for dep in deps:
        while True:
            node.store.pin(dep)
            if node.store.contains(dep):
                break
            node.store.unpin(dep)
            runtime.fetch_to_node(dep, node)


def run_task(
    runtime: "Runtime",
    node: "Node",
    spec: TaskSpec,
    function: Callable[..., Any],
    held_resources: Dict[str, float],
    is_replay: bool,
) -> Tuple[TaskStatus, List[Any]]:
    """Run user code for ``spec`` on ``node``: the one execution stage of
    stateless tasks (``function`` from the function table) and actor methods
    (``function`` bound to the instance).  Returns ``(status, values)`` for
    :func:`write_finish`; an upstream error among the inputs is propagated
    instead of running.

    ``NodeDiedError`` (a blocking get inside the body noticed this node's
    death) is never retried or recorded: it propagates to the caller's
    quiet-exit path, whose recovery re-runs the spec elsewhere.
    """
    task_id = spec.task_id
    deps = spec.dependencies()

    def as_outputs(error: BaseException) -> List[Any]:
        return [error] * spec.num_returns

    try:
        pin_inputs(runtime, node, deps)
        if runtime.is_cancelled(task_id):
            # Cancelled after dispatch but before user code started.
            return TaskStatus.CANCELLED, as_outputs(TaskCancelledError(task_id))
        args, kwargs, input_error = resolve_args(node, spec)
        if isinstance(input_error, TaskCancelledError):
            return TaskStatus.CANCELLED, as_outputs(input_error)
        if input_error is not None:
            return TaskStatus.FINISHED, as_outputs(input_error)
        attempt = 0
        while True:
            try:
                # A replayed execution may re-run user code that already
                # submitted children, and so may attempt > 0 of a first
                # execution (the failed attempt submitted before raising):
                # their submissions must take the checked path.
                with context.execution_scope(
                    runtime,
                    node,
                    task_id,
                    held_resources,
                    is_replay=is_replay or attempt > 0,
                ):
                    output = function(*args, **kwargs)
                values = normalize_returns(spec, output)
                break
            except TaskCancelledError as exc:
                # Cooperative stop from inside the body.
                return TaskStatus.CANCELLED, as_outputs(exc)
            except NodeDiedError:
                raise
            except BaseException as exc:  # noqa: BLE001 - error channel
                if should_retry(spec, exc, attempt) and not (
                    runtime.is_cancelled(task_id)
                ):
                    # In place: invisible to an actor's method counter, so
                    # a retried method counts once toward its checkpoint
                    # interval.
                    runtime.record_task_retry(spec, exc, attempt)
                    time.sleep(retry_delay(attempt))
                    attempt += 1
                    continue
                return TaskStatus.FAILED, as_outputs(
                    TaskExecutionError(task_id, exc)
                )
        if runtime.cancel_forced(task_id):
            # force-cancelled while running: the work happened, but the
            # contract is that every get() raises.
            return TaskStatus.CANCELLED, as_outputs(TaskCancelledError(task_id))
        return TaskStatus.FINISHED, values
    finally:
        for dep in deps:
            node.store.unpin(dep)


class FinishQueue:
    """One node's finishes, group-committed behind its workers.

    A worker stores its outputs, puts the finish here and takes its next
    task at once: local readers wake on the store put and remote ones on
    the location publication, so none needs the worker to wait.  One
    ``finish-<node>`` drain thread, started at the node's first finish,
    takes every queued finish each time it wakes and writes them all in
    one :meth:`GlobalControlStore.finish_tasks` batch (one round trip per
    shard it touches), then runs the post-write steps.  It holds no lock
    across the write.

    :meth:`flush` waits until everything reserved so far is written
    (bounded by hop time: the drain never waits on user code).  A batch
    holding a stateless finish is guarded by the node's incarnation: once
    a kill has fenced it, the GCS rejects the batch and its stateless
    finishes are given up, because their rows are the kill's sweep's,
    while an actor's finishes still land (their checkpoint and progress
    rows bound its replay).  A batch whose write fails is counted and
    logged, and goes back to the head of the queue for the drain's next
    wake-up; once the queue is stopped it is given up instead."""

    def __init__(self, runtime: "Runtime", node: "Node"):
        self._runtime = runtime
        self._node = node
        node_hex = node.node_id.hex()
        self._thread_name = f"finish-{node_hex[:6]}"
        self._cond = make_condition("FinishQueue._cond")
        self._queued: List[Finish] = []
        self._thread: Optional[threading.Thread] = None
        self._put_count = 0  # finishes ever reserved
        self._done_count = 0  # of those, written or given up
        self._stopped = False
        self._retrying = False  # the head of the queue failed to write
        self._m_errors = runtime.metrics.counter(
            "finish_drain_errors_total",
            "Finish batches the drain failed to write",
            node=node_hex[:8],
        )

    def reserve(self) -> None:
        """Count a finish whose outputs are about to be stored: a reader
        they wake may flush before :meth:`put` queues it, and the flush
        must wait for it."""
        with self._cond:
            self._put_count += 1

    def put(self, finish: Optional[Finish]) -> None:
        """Queue a reserved finish (None: its writer failed before it had
        one)."""
        with self._cond:
            if finish is None:
                self._done_count += 1
                self._cond.notify_all()
                return
            self._queued.append(finish)
            thread = None
            if self._thread is None:
                thread = self._thread = make_thread(
                    self._drain, name=self._thread_name
                )
            self._cond.notify()
        if thread is not None:
            thread.start()

    def flush(self) -> None:
        """Wait until every finish reserved before this call is written.  A
        drain calls back into nothing that flushes."""
        with self._cond:
            target = self._put_count
            while self._done_count < target:
                self._cond.wait(BACKSTOP_INTERVAL)

    def stop(self) -> None:
        """Let the drain exit once the queue is empty, giving up a batch
        that fails to write; a later finish starts a drain that writes it
        and exits."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()

    def _drain(self) -> None:
        while self._drain_once():
            pass

    def _drain_once(self) -> bool:
        """Write every queued finish in one batch; False when the queue is
        empty and stopped.  A batch lives only in this frame, so a drain
        idle on the queue pins no spec (nor its by-value arguments)."""
        with self._cond:
            if self._retrying and not self._stopped:
                # Back off until a put, a stop or the backstop wakes us.
                self._cond.wait(BACKSTOP_INTERVAL)
            while not self._queued and not self._stopped:
                self._cond.wait(BACKSTOP_INTERVAL)
            if not self._queued:
                self._thread = None
                return False
            batch, self._queued = self._queued, []
        written = self._write(batch)
        with self._cond:
            self._retrying = not written and not self._stopped
            if self._retrying:
                self._queued[:0] = batch
            else:
                self._done_count += len(batch)
            self._cond.notify_all()
        return True

    def _write(self, batch: List[Finish]) -> bool:
        """Write ``batch`` and run its post-write steps; False if the write
        failed, which leaves its rows SCHEDULED."""
        gcs, node = self._runtime.gcs, self._node
        guard = None
        if any(finish.spec.actor_id is None for finish in batch):
            guard = (node.node_id, node.epoch)
        try:
            try:
                gcs.finish_tasks(batch, guard=guard)
            except NodeFencedError:
                # Killed: the stateless rows are the sweep's to re-place,
                # and an actor's finishes still land.
                batch = [f for f in batch if f.spec.actor_id is not None]
                if batch:
                    gcs.finish_tasks(batch)
        except Exception as exc:  # noqa: BLE001 - a dead drain strands every later finish
            self._report(batch, exc)
            return False
        try:
            self._after_write(batch)
        except Exception as exc:  # noqa: BLE001 - the finishes have landed
            self._report(batch, exc)
        return True

    def _after_write(self, batch: List[Finish]) -> None:
        runtime, node = self._runtime, self._node
        dead = not node.alive
        # A reader may get an output from the store and free it before this
        # batch lands, so its retraction can precede the add; and a dead
        # node's copies are gone: retract again.
        retractions = [
            (object_id, node_id)
            for finish in batch
            for object_id, _size, _task_id, node_id in finish.entries
            if node_id is not None and (dead or not node.store.contains(object_id))
        ]
        try:
            runtime.gcs.remove_object_locations(retractions)
        finally:
            for finish in batch:
                runtime.reconstruction.task_finished(finish.task_id)

    def _report(self, batch: List[Finish], exc: Exception) -> None:
        self._m_errors.inc()
        try:
            self._runtime.gcs.record_event(
                "finish_write_failed",
                node=self._node.node_id.hex()[:8],
                tasks=[finish.task_id.short() for finish in batch],
                error=repr(exc),
            )
        except Exception:  # noqa: RT-EXCEPT-SWALLOW
            pass  # the counter has recorded the failure


def write_finish(
    runtime: "Runtime",
    node: "Node",
    spec: TaskSpec,
    status: TaskStatus,
    values: List[Any],
    started: float,
    lifecycle: Sequence[Tuple[str, Dict[str, Any]]] = (),
    **actor_rows: Any,
) -> None:
    """The one finish writer: store ``values`` as ``spec``'s outputs on
    ``node``, then queue the finish — the outputs' publication, the
    terminal task row and the ``task_finished`` event — on the node's
    :class:`FinishQueue` and return.  Used for specs that ran
    (``run_task``'s verdict, or an actor's constructor), and for specs that
    never will (an error value, ``started`` = now).  The task leaves the
    in-flight producer index and reconstruction's in-flight set when its
    finish lands.

    Nothing writes a row between placement and finish, so the
    ``lifecycle`` events not yet written ride the same batch with their own
    times: a queued task's ``task_inputs_ready``, an actor method's
    ``task_scheduled`` and ``task_inputs_ready``.  A method also passes its
    ``actor_rows`` (``progress``, ``checkpoint``: see
    ``GlobalControlStore.finish_tasks``); the node's queue is FIFO, so an
    actor's rows land in method order.  The finish is reserved on the
    queue before the outputs are stored (and after they are serialized,
    which may run user code), so a flush by a reader they wake covers it."""
    serialized = [serialize(value) for value in values]
    finishes = node.finishes
    finishes.reserve()
    finish = None
    try:
        entries = store_outputs(node, spec, serialized)
        duration = time.perf_counter() - started
        finished = dict(
            task=spec.task_id.short(),
            name=spec.function_name,
            node=node.node_id.short(),
            start=started,
            duration=duration,
            status=status.value,
            kind=spec.kind,
        )
        finish = Finish(
            spec.task_id,
            status,
            node.node_id,
            entries,
            [*lifecycle, ("task_finished", finished)],
            spec,
            **actor_rows,
        )
    finally:
        finishes.put(finish)
    runtime.report_task_duration(duration)
    runtime.discard_cancellation_event(spec.task_id)


def execute_task(
    runtime: "Runtime",
    node: "Node",
    spec: TaskSpec,
    held_resources: Dict[str, float],
    lifecycle: Sequence[Tuple[str, Dict[str, Any]]] = (),
) -> None:
    """Run one stateless task on ``node`` (called on a pool worker thread).

    Nothing is written before the run: the row is SCHEDULED on ``node``
    since placement, and readers treat that as in flight here.
    ``lifecycle`` (the ``task_inputs_ready`` event of an input that
    arrived after placement) rides the finish batch."""
    # A replayed execution (reconstruction / node-death resubmission) is
    # flagged so its child submissions take the checked path.
    replay = runtime.is_replay_execution(spec.task_id)
    started = time.perf_counter()
    try:
        status, values = run_task(
            runtime,
            node,
            spec,
            runtime.gcs.get_function(spec.function_id),
            held_resources,
            replay,
        )
    except NodeDiedError:
        # The node died under this worker: kill_node has already
        # resubmitted the task, so the replacement execution owns the
        # outputs and the finish-state write.  Exit without recording
        # anything for this stranded attempt.
        return
    write_finish(runtime, node, spec, status, values, started, lifecycle)
    if replay:
        runtime.clear_replay_hint(spec.task_id)
