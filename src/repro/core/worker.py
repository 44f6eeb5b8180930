"""Stateless worker execution of tasks.

A worker executes one task at a time: it pins and deserializes the task's
inputs from the local object store (they are guaranteed local by the local
scheduler), runs the function, and writes outputs back to the local store,
registering them in the GCS object table.

Error semantics follow Ray: an exception raised by a task is captured as a
:class:`TaskExecutionError` stored *in place of* the return value; every
``get`` of that object re-raises, and any downstream task consuming it
propagates the error instead of running.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.common.errors import (
    NodeDiedError,
    TaskCancelledError,
    TaskExecutionError,
)
from repro.common.serialization import serialize
from repro.core import context
from repro.core.task_spec import ArgRef, TaskSpec
from repro.gcs.tables import TaskStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Node, Runtime

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


def retry_delay(runtime: "Runtime", attempt: int) -> float:
    """Exponential backoff before retry ``attempt`` (0-based), capped."""
    base = getattr(runtime.config, "retry_backoff_base", 0.02)
    return min(base * (2 ** attempt), RETRY_BACKOFF_CAP)


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
    runtime: "Runtime",
    node: "Node",
    spec: TaskSpec,
    values: List[Any],
    publish: bool = True,
) -> list:
    """Write outputs to the local store and the GCS object table.

    All of one task's per-output GCS rows (location append + metadata put)
    go out as a single batched shard write.  Within the batch the location
    precedes the metadata for each object: once the object-table entry is
    visible, a concurrent reader that sees it with *no* locations may
    legitimately trigger reconstruction, so the location must already be
    published (or the store put must have genuinely failed).

    With ``publish=False`` only the local puts happen and the GCS rows are
    returned to the caller, which folds them into the task's single
    finish-time batch (``GlobalControlStore.finish_task``) together with
    the status update and the ``task_finished`` event.
    """
    entries = []
    for object_id, value in zip(spec.return_ids, values):
        serialized = serialize(value)
        stored = node.alive and node.store.put(object_id, serialized)
        entries.append((
            object_id,
            serialized.total_bytes,
            spec.task_id,
            node.node_id if stored else None,
        ))
    if publish:
        runtime.gcs.add_task_outputs(entries)
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


def execute_task(
    runtime: "Runtime",
    node: "Node",
    spec: TaskSpec,
    held_resources: Dict[str, float],
) -> None:
    """Run one stateless task on ``node`` (called on a pool worker thread)."""
    # The dispatching scheduler already wrote RUNNING, in its own batch.
    gcs = runtime.gcs
    # A replayed execution (reconstruction / node-death resubmission) may
    # re-run user code that already submitted children: its submissions
    # must take the checked path.  First executions submit children fresh.
    replay = runtime.is_replay_execution(spec.task_id)
    deps = spec.dependencies()
    started = time.perf_counter()
    status = TaskStatus.FINISHED
    entries: list = []
    node_died = False
    try:
        pin_inputs(runtime, node, deps)
        if runtime.is_cancelled(spec.task_id):
            # Cancelled after dispatch but before user code started.
            status = TaskStatus.CANCELLED
            cancel_error = TaskCancelledError(spec.task_id)
            values = [cancel_error] * spec.num_returns
        else:
            args, kwargs, input_error = resolve_args(node, spec)
            if input_error is not None:
                values = [input_error] * spec.num_returns
                if isinstance(input_error, TaskCancelledError):
                    status = TaskStatus.CANCELLED
            else:
                function = gcs.get_function(spec.function_id)
                attempt = 0
                while True:
                    try:
                        # Attempt > 0 is a replay even for a first execution:
                        # the failed attempt may already have submitted
                        # children before raising.
                        with context.execution_scope(
                            runtime,
                            node,
                            spec.task_id,
                            held_resources,
                            is_replay=replay or attempt > 0,
                        ):
                            output = function(*args, **kwargs)
                        values = normalize_returns(spec, output)
                        break
                    except TaskCancelledError as exc:
                        # Cooperative stop from inside the task body.
                        status = TaskStatus.CANCELLED
                        values = [exc] * spec.num_returns
                        break
                    except NodeDiedError:
                        # A blocking get inside the task noticed this
                        # node's death: never retried here — bubble to the
                        # quiet-exit path below.
                        raise
                    except BaseException as exc:  # noqa: BLE001 - error channel
                        if should_retry(spec, exc, attempt) and not (
                            runtime.is_cancelled(spec.task_id)
                        ):
                            runtime.record_task_retry(spec, exc, attempt)
                            time.sleep(retry_delay(runtime, attempt))
                            attempt += 1
                            continue
                        status = TaskStatus.FAILED
                        error = TaskExecutionError(spec.task_id, exc)
                        values = [error] * spec.num_returns
                        break
                if status is TaskStatus.FINISHED and runtime.cancel_forced(
                    spec.task_id
                ):
                    # force-cancelled while running: the work happened, but
                    # the contract is that every get() raises.
                    status = TaskStatus.CANCELLED
                    values = [TaskCancelledError(spec.task_id)] * spec.num_returns
        entries = store_outputs(runtime, node, spec, values, publish=False)
    except NodeDiedError:
        # The node died under this worker: kill_node has already
        # resubmitted the task, so the replacement execution owns the
        # outputs and the finish-state write.  Exit without recording
        # anything for this stranded attempt.
        node_died = True
    finally:
        for dep in deps:
            node.store.unpin(dep)
        if not node_died:
            duration = time.perf_counter() - started
            gcs.finish_task(
                spec.task_id,
                status,
                node.node_id,
                entries,
                event=(
                    "task_finished",
                    dict(
                        task=spec.task_id.short(),
                        name=spec.function_name,
                        node=node.node_id.short(),
                        start=started,
                        duration=duration,
                        status=status.value,
                        kind="task",
                    ),
                ),
                spec=spec,
            )
            runtime.report_task_duration(duration)
            runtime.reconstruction.task_finished(spec.task_id)
            runtime.discard_cancellation_event(spec.task_id)
            if replay:
                runtime.clear_replay_hint(spec.task_id)
