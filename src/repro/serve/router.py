"""The serve router: micro-batching, admission control, sibling retry.

One Router fronts one deployment's replica group (named actors created by
:mod:`repro.serve.deployment`).  Requests enter through :meth:`Router.submit`
and are answered through a :class:`ServeFuture`; between the two sits:

* **dynamic micro-batching, Nagle's rule** — a batch is cut when it
  reaches ``max_batch_size``, when the oldest waiting request's latency
  budget (``batch_wait_timeout_s``) is half-spent, *or* when no batch is
  in flight on any replica.  A lone request to an idle group is sent at
  once; requests coalesce only while an earlier batch is outstanding, so
  batches form from the queueing load causes anyway (the dynamic
  counterpart of Clipper's fixed batching, per "Real-Time ML: The
  Missing Pieces"; RFC 896's rule for small TCP segments);
* **admission control** — the pending queue is bounded at
  ``max_queue_per_replica x alive replicas``; past it, ``submit`` sheds
  synchronously with :class:`~repro.common.errors.BackpressureError`
  (mapped to HTTP 429 by the ingress) instead of queueing unboundedly;
* **bounded per-replica in-flight** — each replica runs at most
  ``max_inflight_per_replica`` batches concurrently (pipelining hides the
  submit latency without overrunning a replica's mailbox);
* **results freed once read** — the router mints each batch's result ref
  and is its only reader, so after reading it drops every store copy
  (the replica's and the one pulled to the driver's node); the task row,
  method log and lineage stay, so a restarted replica still replays;
* **sibling retry** — a batch whose replica died mid-flight is re-dispatched
  once per remaining sibling before the error reaches the callers;
* **metrics publication** — a background thread publishes queue depth,
  in-flight, and windowed p50/p99 latency into the GCS serve-report table
  (:meth:`~repro.gcs.client.GlobalControlStore.publish_serve_report`),
  the signal the replica autoscaler scales from.

Locking discipline: all router state lives under one condition; every
blocking runtime call (``.remote()`` submission, ``get``, GCS publication)
happens *outside* it.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import (
    ActorDiedError,
    BackpressureError,
    GetTimeoutError,
    NodeDiedError,
    TaskExecutionError,
)
from repro.common.lockwatch import make_condition, make_thread
from repro.common.metrics import percentile
from repro.core.gc import free_objects

_LATENCY_WINDOW = 2048  # completed-request latencies kept for p50/p99
_IDLE_WAIT = 0.05  # batcher/waiter backstop wait when nothing is due
_GET_BACKSTOP = 30.0  # a batch outstanding this long is failed, not waited
_REPORT_INTERVAL = 0.25  # router metrics publication period


class ServeFuture:
    """The caller's side of one in-flight request (thread-safe)."""

    __slots__ = ("_event", "_value", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None

    def _set_result(self, value: Any) -> None:
        self._value = value
        self._event.set()

    def _set_error(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block for the reply; raises the replica's error, or
        :class:`~repro.common.errors.GetTimeoutError` on timeout."""
        if not self._event.wait(timeout):
            raise GetTimeoutError(f"serve request not completed within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._value


class _Request:
    __slots__ = ("payload", "future", "enqueued_at")

    def __init__(self, payload: Any, future: ServeFuture, enqueued_at: float):
        self.payload = payload
        self.future = future
        self.enqueued_at = enqueued_at


class _ReplicaSlot:
    """Router-side view of one replica actor."""

    __slots__ = ("handle", "actor_name", "inflight", "dead")

    def __init__(self, handle: Any, actor_name: str):
        self.handle = handle
        self.actor_name = actor_name
        self.inflight = 0  # batches currently dispatched to this replica
        self.dead = False  # permanently dead (dead_forever), never routed


class Router:
    """Batches, bounds, dispatches, and observes one replica group."""

    def __init__(
        self,
        runtime: Any,
        deployment_name: str,
        *,
        version: int,
        max_batch_size: int,
        batch_wait_timeout_s: float,
        max_queue_per_replica: int,
        max_inflight_per_replica: int = 2,
    ):
        self._runtime = runtime
        self.deployment_name = deployment_name
        self.version = version
        self.max_batch_size = max_batch_size
        self.batch_wait_timeout_s = batch_wait_timeout_s
        self.max_queue_per_replica = max_queue_per_replica
        self.max_inflight_per_replica = max_inflight_per_replica

        self._cond = make_condition("serve.Router._cond")
        self._slots: List[_ReplicaSlot] = []
        self._pending: Deque[_Request] = deque()
        self._dispatched: Deque[Tuple[_ReplicaSlot, List[_Request], Any, int]] = deque()
        self._rr = itertools.count()  # tie-break rotation for slot choice
        self._latencies: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._report_seq = 0
        self._stopped = False

        # Counters (all under _cond).
        self.submitted = 0
        self.shed = 0
        self.completed = 0
        self.failed = 0
        self.batches = 0
        self.retries = 0

        self._batcher: Optional[threading.Thread] = None
        self._reporter: Optional[threading.Thread] = None
        self._waiters: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "Router":
        self._batcher = make_thread(
            self._batch_loop, name=f"serve-batcher-{self.deployment_name}", daemon=True
        )
        self._batcher.start()
        self._reporter = make_thread(
            self._report_loop, name=f"serve-report-{self.deployment_name}", daemon=True
        )
        self._reporter.start()
        self._ensure_waiters()
        return self

    def stop(self) -> None:
        """Idempotent: fail everything still queued and join the batcher
        and reporter.  The waiters are not joined: one may be blocked on a
        replica inside user code (whose loop, stale once the runtime
        stops, never stores the batch), and it exits at its next poll
        slice instead."""
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
            pending = list(self._pending)
            self._pending.clear()
            dispatched = list(self._dispatched)
            self._dispatched.clear()
            self._cond.notify_all()
        error = RuntimeError(f"serve router for {self.deployment_name!r} stopped")
        for request in pending:
            request.future._set_error(error)
        for _slot, batch, _ref, _attempts in dispatched:
            for request in batch:
                request.future._set_error(error)
        current = threading.current_thread()
        for thread in [self._batcher, self._reporter]:
            if thread is not None and thread is not current:
                thread.join(timeout=2.0)

    def _ensure_waiters(self) -> None:
        """Grow the waiter pool to cover every possible concurrent batch."""
        with self._cond:
            want = max(2, len(self._slots) * self.max_inflight_per_replica)
            have = len(self._waiters)
            missing = range(have, want) if not self._stopped else ()
        for index in missing:
            thread = make_thread(
                self._wait_loop,
                name=f"serve-waiter-{self.deployment_name}-{index}",
                daemon=True,
            )
            self._waiters.append(thread)
            thread.start()

    # ------------------------------------------------------------------
    # Replica membership (called by the deployment plane / autoscaler)
    # ------------------------------------------------------------------

    def set_replicas(
        self,
        replicas: Sequence[Tuple[Any, str]],
        version: Optional[int] = None,
        **config: Any,
    ) -> None:
        """Atomically swap the routed replica group (hot model-swap).

        In-flight batches keep their old slot objects and finish against
        the old replicas; only *new* batches see the new group.  Optional
        ``config`` keys (``max_batch_size``, ``batch_wait_timeout_s``,
        ``max_queue_per_replica``) retune batching for the new version.
        """
        slots = [_ReplicaSlot(handle, name) for handle, name in replicas]
        with self._cond:
            self._slots = slots
            if version is not None:
                self.version = version
            for key in ("max_batch_size", "batch_wait_timeout_s", "max_queue_per_replica"):
                if key in config and config[key] is not None:
                    setattr(self, key, config[key])
            self._cond.notify_all()
        self._ensure_waiters()

    def add_replica(self, handle: Any, actor_name: str) -> None:
        with self._cond:
            self._slots.append(_ReplicaSlot(handle, actor_name))
            self._cond.notify_all()
        self._ensure_waiters()

    def remove_replica(self, actor_name: Optional[str] = None) -> Optional[Tuple[Any, str]]:
        """Unroute one replica (the least-loaded, unless named) and return
        ``(handle, actor_name)`` so the caller can drain it."""
        with self._cond:
            candidates = [
                s for s in self._slots if actor_name is None or s.actor_name == actor_name
            ]
            if not candidates:
                return None
            slot = min(candidates, key=lambda s: (not s.dead, s.inflight))
            self._slots.remove(slot)
            self._cond.notify_all()
        return slot.handle, slot.actor_name

    def replica_infos(self) -> List[Dict[str, Any]]:
        """Per-replica liveness as the runtime sees it right now."""
        with self._cond:
            slots = list(self._slots)
        infos = []
        for slot in slots:
            state = self._runtime.actors.get_state(slot.handle.actor_id)
            dead_forever = state is None or state.dead_forever
            if dead_forever:
                slot.dead = True
            infos.append(
                {
                    "actor_name": slot.actor_name,
                    "actor_id": slot.handle.actor_id.hex()[:12],
                    "inflight": slot.inflight,
                    "dead": dead_forever,
                    "incarnation": state.incarnation if state is not None else None,
                }
            )
        return infos

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def submit(self, payload: Any) -> ServeFuture:
        """Enqueue one request; sheds with BackpressureError when full."""
        future = ServeFuture()
        now = time.perf_counter()
        with self._cond:
            if self._stopped:
                raise RuntimeError(
                    f"serve router for {self.deployment_name!r} is stopped"
                )
            alive = sum(1 for s in self._slots if not s.dead) or 1
            limit = self.max_queue_per_replica * alive
            if len(self._pending) >= limit:
                self.shed += 1
                raise BackpressureError(
                    f"deployment {self.deployment_name!r} queue full "
                    f"({len(self._pending)} pending >= {limit}); back off and retry"
                )
            self.submitted += 1
            self._pending.append(_Request(payload, future, now))
            self._cond.notify_all()
        return future

    def query(self, payload: Any, timeout: Optional[float] = None) -> Any:
        return self.submit(payload).result(timeout)

    # ------------------------------------------------------------------
    # Batcher
    # ------------------------------------------------------------------

    def _choose_slot_locked(
        self, exclude: Optional[_ReplicaSlot] = None
    ) -> Optional[_ReplicaSlot]:
        available = [
            s
            for s in self._slots
            if not s.dead
            and s is not exclude
            and s.inflight < self.max_inflight_per_replica
        ]
        if not available:
            return None
        rotation = next(self._rr)
        return min(
            available,
            key=lambda s: (s.inflight, (self._slots.index(s) + rotation) % max(1, len(self._slots))),
        )

    def _cut_deadline_locked(self) -> Optional[float]:
        """When the oldest pending request forces a cut (half its budget)."""
        if not self._pending:
            return None
        return self._pending[0].enqueued_at + self.batch_wait_timeout_s * 0.5

    def _batch_loop(self) -> None:
        while True:
            with self._cond:
                slot: Optional[_ReplicaSlot] = None
                while not self._stopped:
                    now = time.perf_counter()
                    deadline = self._cut_deadline_locked()
                    if deadline is not None:
                        slot = self._choose_slot_locked()
                        if slot is not None and (
                            len(self._pending) >= self.max_batch_size
                            or now >= deadline
                            or not any(s.inflight for s in self._slots)
                        ):
                            break
                        # A cuttable batch with no available replica, or one
                        # coalescing behind an in-flight batch, waits;
                        # completions notify.
                        wait_for = _IDLE_WAIT if slot is None else max(
                            0.001, deadline - now
                        )
                    else:
                        wait_for = _IDLE_WAIT
                    self._cond.wait(wait_for)
                if self._stopped:
                    return
                batch = [
                    self._pending.popleft()
                    for _ in range(min(self.max_batch_size, len(self._pending)))
                ]
                slot.inflight += 1
                self.batches += 1
            self._dispatch(slot, batch, attempts=1)

    def _dispatch(self, slot: _ReplicaSlot, batch: List[_Request], attempts: int) -> None:
        """Submit one batch to one replica (no router lock held)."""
        try:
            ref = slot.handle.handle_batch.remote([r.payload for r in batch])
        except Exception as exc:  # unknown/garbage-collected actor
            self._on_batch_failure(slot, batch, attempts, exc)
            return
        with self._cond:
            self._dispatched.append((slot, batch, ref, attempts))
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Waiters
    # ------------------------------------------------------------------

    def _wait_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stopped and not self._dispatched:
                    self._cond.wait(_IDLE_WAIT)
                if self._stopped:
                    return
                slot, batch, ref, attempts = self._dispatched.popleft()
            try:
                values = self._get_result(slot, ref)
            except Exception as exc:
                self._on_batch_failure(slot, batch, attempts, exc)
                continue
            # This router minted the ref and has read it: drop every copy,
            # keep the lineage (a restarted replica replays the method).
            free_objects(self._runtime, [ref.object_id])
            if not isinstance(values, (list, tuple)) or len(values) != len(batch):
                got = len(values) if isinstance(values, (list, tuple)) else type(values)
                self._on_batch_failure(
                    slot,
                    batch,
                    attempts,
                    TypeError(
                        f"deployment {self.deployment_name!r} returned {got} "
                        f"results for a batch of {len(batch)}"
                    ),
                    retryable=False,
                )
                continue
            now = time.perf_counter()
            with self._cond:
                slot.inflight = max(0, slot.inflight - 1)
                self.completed += len(batch)
                for request in batch:
                    self._latencies.append(now - request.enqueued_at)
                self._cond.notify_all()
            for request, value in zip(batch, values):
                request.future._set_result(value)

    def _get_result(self, slot: _ReplicaSlot, ref: Any) -> Any:
        """Fetch one batch's results, polling in short slices so a replica
        whose node died *after* the batch finished (its outputs lost with
        the node's store, so no error will ever arrive) is detected by
        state instead of wedging this waiter for the full backstop, and a
        stopped router's waiter exits."""
        deadline = time.monotonic() + _GET_BACKSTOP
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise GetTimeoutError(
                    f"batch for {self.deployment_name!r} not completed "
                    f"within {_GET_BACKSTOP}s"
                )
            try:
                return self._runtime.get(
                    ref.object_id, timeout=min(0.5, remaining)
                )
            except GetTimeoutError:
                if self._stopped:
                    raise RuntimeError(
                        f"serve router for {self.deployment_name!r} stopped"
                    ) from None
                state = self._runtime.actors.get_state(slot.handle.actor_id)
                if state is None or state.dead_forever:
                    raise ActorDiedError(
                        f"replica {slot.actor_name!r} died with this "
                        "batch's results unstored"
                    ) from None

    @staticmethod
    def _is_replica_death(exc: BaseException) -> bool:
        if isinstance(exc, (ActorDiedError, NodeDiedError)):
            return True
        cause = getattr(exc, "cause", None)
        return isinstance(exc, TaskExecutionError) and isinstance(
            cause, (ActorDiedError, NodeDiedError)
        )

    def _on_batch_failure(
        self,
        slot: _ReplicaSlot,
        batch: List[_Request],
        attempts: int,
        exc: BaseException,
        retryable: bool = True,
    ) -> None:
        """Replica death mid-batch retries on a sibling; app errors and
        exhausted retries propagate to every caller in the batch."""
        state = self._runtime.actors.get_state(slot.handle.actor_id)
        gone = state is None or state.dead_forever
        # Whatever error surfaced, a dead replica's batch is retried on a
        # sibling (the error may be a lost-object symptom of the death).
        died = retryable and (self._is_replica_death(exc) or gone)
        target: Optional[_ReplicaSlot] = None
        with self._cond:
            slot.inflight = max(0, slot.inflight - 1)
            if gone:
                slot.dead = True
            if died and not self._stopped and attempts <= len(self._slots):
                target = self._choose_slot_locked(exclude=slot)
                if target is not None:
                    target.inflight += 1
                    self.retries += 1
            if target is None:
                self.failed += len(batch)
            self._cond.notify_all()
        if target is not None:
            self._dispatch(target, batch, attempts + 1)
            return
        for request in batch:
            request.future._set_error(exc)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A point-in-time snapshot (also the published report body)."""
        with self._cond:
            latencies = sorted(self._latencies)
            completed, batches = self.completed, self.batches
            snapshot = {
                "deployment": self.deployment_name,
                "version": self.version,
                "queue_depth": len(self._pending),
                "inflight_batches": sum(s.inflight for s in self._slots),
                "num_replicas": len(self._slots),
                "submitted": self.submitted,
                "completed": self.completed,
                "shed": self.shed,
                "failed": self.failed,
                "batches": self.batches,
                "retries": self.retries,
                "max_batch_size": self.max_batch_size,
                "batch_wait_timeout_s": self.batch_wait_timeout_s,
                "max_queue_per_replica": self.max_queue_per_replica,
            }
        replicas = self.replica_infos()
        alive = sum(1 for r in replicas if not r["dead"])
        snapshot["alive_replicas"] = alive
        snapshot["queue_depth_per_replica"] = snapshot["queue_depth"] / max(1, alive)
        snapshot["replicas"] = replicas
        if latencies:
            snapshot["p50_ms"] = percentile(latencies, 50) * 1e3
            snapshot["p99_ms"] = percentile(latencies, 99) * 1e3
            snapshot["mean_ms"] = sum(latencies) / len(latencies) * 1e3
        else:
            snapshot["p50_ms"] = snapshot["p99_ms"] = snapshot["mean_ms"] = None
        snapshot["avg_batch"] = completed / batches if batches else 0.0
        return snapshot

    def publish_report(self) -> Dict[str, Any]:
        """Publish one serve-report row into the GCS (reporter pattern:
        one row per deployment, versioned by seq/ts)."""
        row = self.stats()
        self._report_seq += 1
        row["seq"] = self._report_seq
        row["ts"] = time.time()
        self._runtime.gcs.publish_serve_report(self.deployment_name, row)
        return row

    def _report_loop(self) -> None:
        while True:
            with self._cond:
                self._cond.wait(_REPORT_INTERVAL)
                if self._stopped:
                    return
            self.publish_report()
