"""The Ray-like runtime: a multi-node cluster in one process.

Every node has its own resource pool, object store, and local scheduler
(with worker threads); nodes share nothing except the GCS.  Objects are
physically copied between node stores by the transfer service.  This makes
the control-plane protocols of the paper — bottom-up scheduling, GCS-
mediated object location lookup, lineage reconstruction, actor replay —
*real*, executable code paths rather than simulation, at laptop scale.

The scale experiments (millions of tasks/second, GB/s transfers) live in
:mod:`repro.sim`, which runs the same policies under a discrete-event
clock.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common import lockwatch
from repro.common.lockwatch import make_lock
from repro.common.errors import (
    GetTimeoutError,
    NodeDiedError,
    ObjectLostError,
    ResourceRequestError,
    RuntimeNotInitializedError,
    TaskCancelledError,
    TaskExecutionError,
)
from repro.common.events import BACKSTOP_INTERVAL, Completion, WaitStats, wait_any
from repro.common.faults import NULL_FAULTS
from repro.common.metrics import MetricsRegistry
from repro.common.ids import (
    ActorID,
    FunctionID,
    NodeID,
    ObjectID,
    TaskID,
    deterministic_task_id,
)
from repro.common.serialization import serialize
from repro.core import context
from repro.core.actor import ActorManager
from repro.core.global_scheduler import GlobalScheduler
from repro.core.local_scheduler import Event, LocalScheduler
from repro.core.object_store import LocalObjectStore
from repro.core.reconstruction import ReconstructionManager
from repro.core import scheduling
from repro.core.resources import ResourcePool, normalize_resources
from repro.core.task_graph import TaskGraph
from repro.core.task_spec import TaskSpec
from repro.core.transfer import ObjectFetcher, TransferService
from repro.core.worker import FinishQueue, execute_task, write_finish
from repro.gcs.client import GlobalControlStore
from repro.gcs.tables import TaskStatus


@dataclass
class RuntimeConfig:
    """Cluster shape and policy knobs for the in-process runtime."""

    num_nodes: int = 2
    num_cpus_per_node: float = 4
    num_gpus_per_node: float = 0
    custom_resources: Dict[str, float] = field(default_factory=dict)
    object_store_capacity_bytes: Optional[int] = None
    # When set, LRU eviction spills to per-node subdirectories here instead
    # of dropping copies (paper §4.2.3: "evict them as needed to disk").
    object_spill_directory: Optional[str] = None
    gcs_shards: int = 4
    gcs_replicas: int = 1
    num_global_schedulers: int = 1
    locality_aware: bool = True
    spillback_threshold: int = 16
    # Pluggable scheduling (repro.core.scheduling): the placement policy
    # driven by every global scheduler replica, as a registry name
    # ("lowest_wait", "locality", "power_of_two", "round_robin",
    # "central_queue"), a SchedulerPolicy subclass, or an instance.  None
    # selects the paper's lowest-estimated-waiting-time default, honoring
    # ``locality_aware``.  Names/classes get a fresh instance per replica;
    # an instance is shared by all replicas.
    scheduler_policy: Optional[Any] = None
    # The local schedulers' forward-to-global decision: a registry name
    # ("threshold", "always", "never"), a SpillbackPolicy subclass, or an
    # instance.  None selects the classic backlog threshold
    # (``spillback_threshold``).
    spillback_policy: Optional[Any] = None
    # GCS flushing (Fig 10b): when set, finished-task lineage is moved to
    # this file whenever in-memory entries exceed the threshold.  Flushed
    # lineage remains usable: reconstruction falls back to the disk
    # snapshot for collected task records.
    gcs_flush_path: Optional[str] = None
    gcs_flush_threshold: int = 10_000
    # Observability layer: the metrics registry (counters/gauges/histograms
    # maintained by every hot layer) and task-lifecycle trace events
    # (task_submitted / task_scheduled / task_inputs_ready in the GCS event
    # log).  Both default on; the micro benchmark measures their cost.
    metrics_enabled: bool = True
    trace_events_enabled: bool = True
    # Zero-copy data plane sizes.  The deserialized-value cache gives
    # repeated same-node reads of an immutable object Plasma-style
    # zero-(re)work semantics (a budget of 0 admits nothing).
    value_cache_capacity_bytes: Optional[int] = 256 * 1024 * 1024
    # Deterministic fault injection: a FaultSchedule whose planned faults
    # (node kills/restarts, chain-member kills, chunk drops/delays) fire at
    # task-count or placement triggers.  None (the default) installs the
    # null injector — every hook is a single attribute check.
    fault_schedule: Optional[Any] = None
    # Ops plane: per-node reporters sampling scheduler/store/transfer
    # pressure into the GCS node-report table (repro.tools.reporter).
    # Default off; disabled mode is one attribute check on the node
    # lifecycle paths (the NULL_FAULTS pattern).
    reporters_enabled: bool = False
    reporter_interval_seconds: float = 0.25

    @classmethod
    def describe(cls) -> List[Dict[str, Any]]:
        """One row per config field — name, type, default, one-line doc —
        renderable by both the docs and the dashboard ``/config`` endpoint."""
        rows: List[Dict[str, Any]] = []
        for f in fields(cls):
            if f.default is not MISSING:
                default: Any = f.default
            elif f.default_factory is not MISSING:  # type: ignore[misc]
                default = f.default_factory()  # type: ignore[misc]
            else:
                default = None
            rows.append(
                {
                    "name": f.name,
                    "type": f.type if isinstance(f.type, str) else str(f.type),
                    "default": repr(default),
                    "doc": _CONFIG_FIELD_DOCS.get(f.name, ""),
                }
            )
        return rows


#: One-line docs for RuntimeConfig fields (``RuntimeConfig.describe()``).
_CONFIG_FIELD_DOCS: Dict[str, str] = {
    "num_nodes": "Nodes created at init.",
    "num_cpus_per_node": "CPU resource units per node.",
    "num_gpus_per_node": "GPU resource units per node.",
    "custom_resources": "Extra per-node resource capacities (name -> amount).",
    "object_store_capacity_bytes": "Per-node object-store cap (None = unbounded).",
    "object_spill_directory": "LRU eviction spills here instead of dropping copies.",
    "gcs_shards": "Number of GCS shards (hash-partitioned tables).",
    "gcs_replicas": "Chain-replication length per GCS shard.",
    "num_global_schedulers": "Global scheduler replicas sharing the policy.",
    "locality_aware": "Weigh object locality in placement decisions.",
    "spillback_threshold": "Local backlog above which tasks spill to the global scheduler.",
    "scheduler_policy": "Placement policy: registry name, class, or instance.",
    "spillback_policy": "Forward-to-global policy: registry name, class, or instance.",
    "gcs_flush_path": "Flush finished-task lineage to this file when over threshold.",
    "gcs_flush_threshold": "In-memory lineage entries tolerated before a flush.",
    "metrics_enabled": "Maintain the counters/gauges/histograms registry.",
    "trace_events_enabled": "Record task-lifecycle trace events in the GCS event log.",
    "value_cache_capacity_bytes": "Byte budget of the deserialized-value cache.",
    "fault_schedule": "Deterministic fault-injection plan (None = null injector).",
    "reporters_enabled": "Per-node reporters publishing load rows into the GCS.",
    "reporter_interval_seconds": "Reporter sampling period.",
}


class Node:
    """One cluster node: resources, an object store, a local scheduler."""

    def __init__(
        self,
        node_id: NodeID,
        resources: Dict[str, float],
        runtime: "Runtime",
        capacity_bytes: Optional[int],
        epoch: int = 0,
    ):
        self.node_id = node_id
        # The incarnation: a restart under the same NodeID bumps it, and a
        # kill fences it (``ShardedKV.fence``).
        self.epoch = epoch
        self.alive = True
        self.resources = ResourcePool(resources)
        spill_directory = None
        if runtime.config.object_spill_directory:
            spill_directory = os.path.join(
                runtime.config.object_spill_directory, node_id.hex()[:12]
            )
        self.store = LocalObjectStore(
            node_id,
            capacity_bytes=capacity_bytes,
            on_evict=lambda oid: runtime.gcs.remove_object_location(oid, node_id),
            spill_directory=spill_directory,
            wait_stats=runtime.wait_stats,
            metrics=runtime.metrics,
            value_cache_capacity_bytes=runtime.config.value_cache_capacity_bytes,
        )
        self.local_scheduler = LocalScheduler(
            node=self,
            gcs=runtime.gcs,
            fetcher=runtime.fetcher,
            forward_to_global=runtime.route_and_place,
            execute=lambda node, spec, held, lifecycle: execute_task(
                runtime, node, spec, held, lifecycle
            ),
            spillback_threshold=runtime.config.spillback_threshold,
            spillback=runtime.config.spillback_policy,
            metrics=runtime.metrics,
            trace_events=runtime.config.trace_events_enabled,
            faults=runtime.faults,
        )
        # Its workers' finishes, written behind them by one drain thread.
        self.finishes = FinishQueue(runtime, self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.node_id.hex()[:8]}, alive={self.alive})"


class Runtime:
    """A running cluster plus the driver's submission context."""

    def __init__(self, config: Optional[RuntimeConfig] = None, **overrides: Any):
        if config is None:
            config = RuntimeConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides")
        self.config = config
        self.stopped = False
        # The cluster-wide metrics registry: every hot layer registers its
        # series here at construction time; the dashboard exports them.
        self.metrics = MetricsRegistry(enabled=config.metrics_enabled)
        # When a lock witness is installed (REPRO_LOCKWATCH or the chaos
        # harness), export its hold/contention series through this registry.
        _watch = lockwatch.active()
        if _watch is not None:
            _watch.bind_metrics(self.metrics)
        self._trace_enabled = config.trace_events_enabled
        # One cluster-wide counter block for the notification layer; every
        # store, scheduler, and blocking wait reports into it.  The wait-
        # latency histogram gives the counters a distribution to stand on.
        self.wait_stats = WaitStats(
            wait_histogram=self.metrics.histogram(
                "wait_latency_seconds",
                "Duration of blocking waits in the notification layer",
            )
        )

        # Fault injection precedes every other subsystem: the GCS chains,
        # the transfer service, and each node's local scheduler take the
        # injector at construction (null-object when no schedule is set).
        self.faults = (
            config.fault_schedule
            if config.fault_schedule is not None
            else NULL_FAULTS
        )

        self.gcs = GlobalControlStore(
            num_shards=config.gcs_shards,
            num_replicas=config.gcs_replicas,
            metrics=self.metrics,
            faults=self.faults,
        )
        self.transfer = TransferService(
            self.gcs, metrics=self.metrics, faults=self.faults
        )
        self.fetcher = ObjectFetcher(self.gcs, self.transfer, metrics=self.metrics)
        self.global_schedulers = [
            GlobalScheduler(
                self.gcs,
                get_nodes=self.live_nodes,
                policy=self.make_scheduler_policy(),
                locality_aware=config.locality_aware,
                metrics=self.metrics,
                index=index,
            )
            for index in range(max(1, config.num_global_schedulers))
        ]
        self._m_tasks_submitted = self.metrics.counter(
            "tasks_submitted_total", "Stateless task submissions"
        )
        self._m_methods_submitted = self.metrics.counter(
            "actor_methods_submitted_total", "Actor method submissions"
        )
        self._m_retries = self.metrics.counter(
            "task_retries_total", "In-place app-level task retry attempts"
        )
        self._m_cancelled = self.metrics.counter(
            "tasks_cancelled_total", "Tasks cancelled via cancel()"
        )
        # itertools.count() is C-implemented, so next() is atomic: safe for
        # concurrent submitters without a lock.
        self._scheduler_rr = itertools.count()

        # Ops plane (PR 7).  _reporters_enabled is immutable after init —
        # every node-lifecycle hook pays one attribute check when the
        # plane is off.  _ops_components collects head-side components
        # (dashboard server, autoscaler) whose threads shutdown() must
        # stop.
        self._reporters_enabled = config.reporters_enabled
        self._ops_lock = make_lock("Runtime._ops_lock")
        self._reporters: Dict[NodeID, Any] = {}
        self._ops_components: List[Any] = []

        # Node-table guard: add_node/kill_node/restart_node mutate these
        # from driver and chaos-injection threads while schedulers iterate
        # them (the same shape as the PR 3 TransferService._nodes race).
        self._nodes_lock = make_lock("Runtime._nodes_lock")
        self._nodes: Dict[NodeID, Node] = {}
        self._node_order: List[NodeID] = []
        node_resources = {"CPU": float(config.num_cpus_per_node)}
        if config.num_gpus_per_node:
            node_resources["GPU"] = float(config.num_gpus_per_node)
        node_resources.update(config.custom_resources)
        for _ in range(config.num_nodes):
            self.add_node(dict(node_resources), config.object_store_capacity_bytes)

        self.actors = ActorManager(self)
        self.reconstruction = ReconstructionManager(self)
        self.fetcher.reconstruct = self.reconstruction.maybe_reconstruct

        # Cancellation registry: task_id -> forced?  A task stays marked
        # after cancellation (the stored error is the durable record); the
        # per-task wake events are dropped once the task finishes.
        self._cancel_lock = make_lock("Runtime._cancel_lock")
        self._cancelled: Dict[TaskID, bool] = {}
        self._cancel_events: Dict[TaskID, Completion] = {}

        # Replay registry: tasks resubmitted by reconstruction or node
        # death.  Their re-executions may re-submit children that already
        # have task rows, so submissions made under them take the checked
        # (existence-verified) submit path; everything else is a first
        # submission whose deterministic ID cannot be in the table yet.
        self._replay_lock = make_lock("Runtime._replay_lock")
        self._replay_hints: set = set()

        # Bind the fault schedule last: triggers may kill/restart nodes and
        # chain members, so the full cluster must exist first.
        if self.faults.enabled:
            self.faults.bind(self)

        self.flusher = None
        if config.gcs_flush_path:
            from repro.gcs.flush import GcsFlusher

            self.flusher = GcsFlusher(
                self.gcs,
                config.gcs_flush_path,
                max_entries_in_memory=config.gcs_flush_threshold,
            )

        # Driver submission context (the driver is task "root").
        self.driver_task_id = TaskID.from_random()
        self._driver_lock = make_lock("Runtime._driver_lock")
        self._driver_submission_index = 0
        self._driver_put_index = 0
        self._flush_lock = make_lock("Runtime._flush_lock")
        self._completions_since_flush_check = 0

    # ------------------------------------------------------------------
    # Cluster membership
    # ------------------------------------------------------------------

    @property
    def driver_node(self) -> Node:
        with self._nodes_lock:
            for node_id in self._node_order:
                node = self._nodes[node_id]
                if node.alive:
                    return node
        raise RuntimeNotInitializedError("no live nodes in the cluster")

    def nodes(self) -> List[Node]:
        with self._nodes_lock:
            return [self._nodes[nid] for nid in self._node_order]

    def live_nodes(self) -> List[Node]:
        return [n for n in self.nodes() if n.alive]

    def node(self, node_id: NodeID) -> Node:
        with self._nodes_lock:
            return self._nodes[node_id]

    def node_by_index(self, index: int) -> Node:
        """Node at a stable position in creation order (fault targeting)."""
        with self._nodes_lock:
            return self._nodes[self._node_order[index % len(self._node_order)]]

    def add_node(
        self,
        resources: Optional[Dict[str, float]] = None,
        capacity_bytes: Optional[int] = None,
    ) -> Node:
        if resources is None:
            resources = {"CPU": float(self.config.num_cpus_per_node)}
            if self.config.num_gpus_per_node:
                resources["GPU"] = float(self.config.num_gpus_per_node)
        node = Node(NodeID.from_random(), resources, self, capacity_bytes)
        with self._nodes_lock:
            self._nodes[node.node_id] = node
            self._node_order.append(node.node_id)
        self.transfer.register_node(node)
        self._attach_reporter(node)
        return node

    def kill_node(self, node_id: NodeID) -> None:
        """Fail a node, from GCS state alone: fence its incarnation, drop its
        store, re-place every stateless task its rows still hold, restart
        its actors."""
        node = self.node(node_id)
        if not node.alive:
            return
        node.alive = False
        node.local_scheduler.stop()
        node.finishes.stop()
        # From here no placement or stateless finish of this incarnation
        # lands, and every one admitted before has: the rows read below are
        # final.  An actor's queued finishes still land, so its restart
        # replays from the checkpoint its last methods wrote.
        self.gcs.kv.fence(node_id, node.epoch)
        lost = node.store.drop_all()
        self.gcs.remove_object_locations([(oid, node_id) for oid in lost])
        # In-flight fetch markers bound to this node will never be cleared
        # by its (dropped) store; purge them so the reused NodeID starts
        # clean if the node is restarted.
        self.fetcher.forget_node(node_id)
        self._detach_reporter(node_id, tombstone=True)
        self.gcs.record_event("node_death", node=node_id.hex()[:8], lost=len(lost))
        # The sweep: a stateless row still SCHEDULED here, queued or
        # running, will never finish (a stranded worker exits quietly via
        # NodeDiedError, or its finish is rejected), and no consumer could
        # reconstruct it (it has no object row), so re-place it now.  Actor
        # methods replay on the actor-restart path, in stateful-edge order.
        for entry in self.gcs.tasks_with_status(TaskStatus.SCHEDULED):
            if entry.node_id == node_id and entry.spec.actor_id is None:
                self._resubmit(entry.spec, node)
        self.actors.on_node_death(node_id)

    def _resubmit(self, spec: TaskSpec, dead: Node) -> None:
        """Re-place a task the ``dead`` node will never finish; its new
        placement write rewrites the row.  A task no live node can run is
        finished FAILED instead (a ``ResourceRequestError`` cause in each
        output), so a ``get`` raises rather than hangs and the kill goes
        on."""
        self.mark_replay(spec.task_id)
        try:
            self.route_and_place(spec)
        except ResourceRequestError as exc:
            self.clear_replay_hint(spec.task_id)
            write_finish(
                self,
                next(iter(self.live_nodes()), dead),
                spec,
                TaskStatus.FAILED,
                [TaskExecutionError(spec.task_id, exc)] * spec.num_returns,
                time.perf_counter(),
            )

    def restart_node(self, node_id: NodeID) -> Node:
        """Rejoin a previously killed node under the same NodeID.

        The replacement gets a fresh (empty) store and scheduler but keeps
        the dead node's identity, resources, and position in creation
        order, modelling the same machine coming back after a reboot.
        Reusing the NodeID is safe throughout: the metrics registry is
        get-or-create, stale GCS locations for this node were already
        retracted by ``kill_node``, and the new incarnation's ``epoch`` is
        past the fenced one.
        """
        old = self.node(node_id)
        if old.alive:
            return old
        # The dead node's last actor finishes retract their copies under
        # this NodeID: let them land before a copy can appear here again.
        old.finishes.flush()
        node = Node(
            node_id,
            dict(old.resources.total),
            self,
            old.store.capacity_bytes,
            epoch=old.epoch + 1,
        )
        with self._nodes_lock:
            self._nodes[node_id] = node
        self.transfer.register_node(node)
        self._attach_reporter(node)
        self.gcs.record_event("node_restart", node=node_id.hex()[:8])
        return node

    # ------------------------------------------------------------------
    # Ops plane: per-node reporters and head-side components
    # ------------------------------------------------------------------

    def _attach_reporter(self, node: Node) -> None:
        """Start a reporter for ``node`` (no-op when reporters are off)."""
        if not self._reporters_enabled:
            return
        from repro.tools.reporter import NodeReporter

        reporter = NodeReporter(
            self, node, interval=self.config.reporter_interval_seconds
        )
        with self._ops_lock:
            self._reporters[node.node_id] = reporter
        reporter.start()
        # Publish the first row immediately so /nodes reflects a new node
        # before the first interval elapses.
        reporter.report_once()

    def _detach_reporter(self, node_id: NodeID, tombstone: bool) -> None:
        """Stop ``node_id``'s reporter, tombstoning its last-seen row on
        the node-death path (no-op when reporters are off)."""
        if not self._reporters_enabled:
            return
        with self._ops_lock:
            reporter = self._reporters.pop(node_id, None)
        if reporter is not None:
            reporter.stop(tombstone=tombstone)

    def node_reporter(self, node_id: NodeID):
        """The live reporter for ``node_id``, or None."""
        with self._ops_lock:
            return self._reporters.get(node_id)

    def register_ops(self, component: Any) -> Any:
        """Track a head-side ops component (dashboard server, autoscaler)
        so ``shutdown()`` stops its threads.  ``component.stop()`` must be
        idempotent.  Returns the component for chaining."""
        with self._ops_lock:
            self._ops_components.append(component)
        return component

    # ------------------------------------------------------------------
    # Scheduling entry points
    # ------------------------------------------------------------------

    def make_scheduler_policy(self):
        """Resolve ``config.scheduler_policy`` for one scheduler replica.

        ``None`` means "let the GlobalScheduler build its default"
        (lowest_wait honoring ``locality_aware``); a name or class yields
        a fresh instance per replica so tie-break counters and sampling
        RNGs are never shared; an instance is used as-is.
        """
        if self.config.scheduler_policy is None:
            return None
        return scheduling.make_policy(self.config.scheduler_policy)

    def global_scheduler_for(self, spec: TaskSpec) -> GlobalScheduler:
        index = next(self._scheduler_rr) % len(self.global_schedulers)
        return self.global_schedulers[index]

    def trace_event(self, category: str, **payload: Any) -> None:
        """Append a task-lifecycle event to the GCS event log (gated by
        ``config.trace_events_enabled``)."""
        if self._trace_enabled:
            self.gcs.record_event(category, **payload)

    def route_and_place(
        self, spec: TaskSpec, submitted: Optional[Event] = None
    ) -> None:
        """Place ``spec`` where a global scheduler decides; ``submitted`` (a
        first submission's ``task_submitted`` event) rides in that node's
        placement write.  Raises ``ResourceRequestError`` when no live node
        can ever run it."""
        if self.stopped:
            # Shutting down: every scheduler is stopped, so a placement
            # would write a row that no worker runs.
            return
        node = self.global_scheduler_for(spec).schedule(spec)
        node.local_scheduler.place(spec, submitted)

    def report_task_duration(self, seconds: float) -> None:
        if self.faults.enabled:
            # Every task / actor-method finish advances the injector's task
            # counter — the deterministic trigger clock for planned faults.
            self.faults.on_task_finished()
        for scheduler in self.global_schedulers:
            scheduler.report_task_duration(seconds)
        if self.flusher is not None:
            with self._flush_lock:
                self._completions_since_flush_check += 1
                due = self._completions_since_flush_check >= 100
                if due:
                    self._completions_since_flush_check = 0
            if due:
                self.flusher.maybe_flush()

    def lookup_task(self, task_id: TaskID):
        """Task-table lookup with fallback to flushed (on-disk) lineage.

        A flushed record found on disk is re-admitted to the in-memory
        table, unless a re-placement wrote the row first; the row the table
        holds is returned.
        """
        entry = self.gcs.get_task(task_id)
        if entry is not None or self.flusher is None:
            return entry
        restored = self.flusher.restore_task(task_id)
        if restored is None:
            return None
        return self.gcs.add_task(restored)

    def record_task_retry(
        self, spec: TaskSpec, exc: BaseException, attempt: int
    ) -> None:
        """Bookkeeping for one in-place retry attempt (counter + trace)."""
        self._m_retries.inc()
        self.trace_event(
            "task_retry",
            task=spec.task_id.hex()[:8],
            name=spec.function_name,
            attempt=attempt + 1,
            error=type(exc).__name__,
        )

    # ------------------------------------------------------------------
    # Replay hints (a re-execution's child submissions are read-checked)
    # ------------------------------------------------------------------

    def mark_replay(self, task_id: TaskID) -> None:
        """Flag ``task_id`` as a re-execution: its run must use the checked
        child-submission path (children may already have task rows)."""
        with self._replay_lock:
            self._replay_hints.add(task_id)

    def is_replay_execution(self, task_id: TaskID) -> bool:
        with self._replay_lock:
            return task_id in self._replay_hints

    def clear_replay_hint(self, task_id: TaskID) -> None:
        with self._replay_lock:
            self._replay_hints.discard(task_id)

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------

    def is_cancelled(self, task_id: TaskID) -> bool:
        with self._cancel_lock:
            return task_id in self._cancelled

    def cancel_forced(self, task_id: TaskID) -> bool:
        with self._cancel_lock:
            return self._cancelled.get(task_id, False)

    def cancellation_event(self, task_id: TaskID) -> Completion:
        """Per-task completion set when the task is cancelled; created on
        demand so blocked gets inside the task wake immediately."""
        with self._cancel_lock:
            event = self._cancel_events.get(task_id)
            if event is None:
                event = Completion(stats=self.wait_stats)
                self._cancel_events[task_id] = event
            if task_id in self._cancelled:
                event.set()
            return event

    def discard_cancellation_event(self, task_id: TaskID) -> None:
        """Drop the wake event once the task has finished (the cancelled
        *flag* stays: the stored error is the durable record)."""
        with self._cancel_lock:
            self._cancel_events.pop(task_id, None)

    def cancel(self, object_id: ObjectID, force: bool = False) -> bool:
        """Cancel the task that produces ``object_id``.

        Semantics by task state:

        * **not yet dispatched** — dequeued from its local scheduler and
          never runs; ``TaskCancelledError`` is stored as its outputs.
        * **running, blocked in ``get``** — the blocked get raises
          ``TaskCancelledError`` inside the task (cooperative stop).
        * **running, pure compute** — with ``force=False`` the attempt runs
          to completion and its result stands; with ``force=True`` the
          outputs are replaced by ``TaskCancelledError`` at the finish
          boundary, so every ``get`` of them raises.
        * **already finished** — no-op; returns False.

        Actor methods are flagged, never dequeued: the mailbox must stay
        counter-contiguous, so a cancelled not-yet-run method is skipped by
        the actor loop at its turn.  Returns True if a cancellation was
        recorded.
        """
        task_id = self.gcs.known_producer(object_id) or self.gcs.creating_task(
            object_id
        )
        if task_id is None:
            raise ValueError(
                f"object {object_id!r} was not produced by a task "
                "(put objects cannot be cancelled)"
            )
        nodes = self.nodes()
        if any(node.store.contains(object_id) for node in nodes):
            # The finish writer stores a task's outputs before it queues
            # the terminal row: a caller may already hold the result of a
            # task whose row still reads SCHEDULED.
            return False
        # A finish still queued decides the row: let it land.
        self.flush_finishes()
        entry = self.gcs.get_task(task_id)
        if entry is None or entry.status in (
            TaskStatus.FINISHED,
            TaskStatus.FAILED,
            TaskStatus.CANCELLED,
        ):
            return False
        spec = entry.spec
        with self._cancel_lock:
            already = task_id in self._cancelled
            self._cancelled[task_id] = self._cancelled.get(task_id, False) or force
            event = self._cancel_events.get(task_id)
        if event is not None:
            event.set()
        if already:
            return True
        self._m_cancelled.inc()
        self.trace_event(
            "task_cancelled",
            task=task_id.hex()[:8],
            name=spec.function_name,
            force=force,
        )
        if spec.actor_id is None:
            # Try to dequeue before it ever runs; racing with dispatch is
            # fine — the worker's entry check catches the loser.
            for node in nodes:
                removed = node.local_scheduler.cancel(task_id)
                if removed is not None:
                    write_finish(
                        self,
                        self.driver_node,
                        removed,
                        TaskStatus.CANCELLED,
                        [TaskCancelledError(task_id)] * removed.num_returns,
                        time.perf_counter(),
                    )
                    break
        return True

    def flush_finishes(self) -> None:
        """The finish barrier: wait until every finish queued on any node
        so far has been written.  Bounded by hop time: a drain never waits
        on user code."""
        for node in self.nodes():
            node.finishes.flush()

    def landed_gcs(self) -> GlobalControlStore:
        """The GCS once every finish queued so far has landed: the read
        side's one accessor, so every task that has returned is in the
        rows and events a tool reads through it."""
        self.flush_finishes()
        return self.gcs

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def _submission_context_many(self, count: int) -> Tuple[TaskID, int, Node]:
        """Reserve ``count`` consecutive submission indices at once:
        (parent task, first index, submitting node)."""
        task_id = context.current_task_id()
        if task_id is not None:
            node = context.current_node()
            first = context.next_submission_index()
            for _ in range(count - 1):
                context.next_submission_index()
            return task_id, first, node
        with self._driver_lock:
            first = self._driver_submission_index
            self._driver_submission_index += count
        return self.driver_task_id, first, self.driver_node

    def ensure_function_registered(self, function_id: FunctionID, function: Callable) -> None:
        try:
            self.gcs.get_function(function_id)
        except KeyError:
            self.gcs.register_function(function_id, function)

    def _stage_tasks(
        self,
        function_id: FunctionID,
        function_name: str,
        calls: Sequence[Tuple[Tuple[Any, ...], Tuple[Tuple[str, Any], ...]]],
        num_returns: int,
        resources: Optional[Dict[str, float]],
        max_retries: int,
        retry_exceptions: Optional[Tuple[type, ...]],
    ) -> Tuple[List[TaskSpec], List[TaskSpec], List[Optional[Event]], Node]:
        """The driver-side submit stage of every task submission: one spec
        per ``(args, kwargs)`` call (already encoded).  Returns ``(specs,
        admitted, events, node)``; the caller hands ``admitted`` with their
        ``task_submitted`` ``events`` to ``node``'s local scheduler, whose
        placement write is each row's first, then counts them — every
        spec, except under replay those whose outputs still exist or that
        are in flight, which keep their deterministic futures.  A rejected
        submission (``ResourceRequestError``) is not counted and leaves no
        trace."""
        parent, first, node = self._submission_context_many(len(calls))
        if resources is None:
            resources = normalize_resources()
        specs = [
            TaskSpec(
                task_id=deterministic_task_id(parent, first + offset),
                function_id=function_id,
                function_name=function_name,
                args=tuple(args),
                kwargs=tuple(kwargs),
                num_returns=num_returns,
                resources=resources,
                parent_task_id=parent,
                max_retries=max_retries,
                retry_exceptions=retry_exceptions,
            )
            for offset, (args, kwargs) in enumerate(calls)
        ]
        admitted = specs
        if context.in_replay():
            # A parent re-running its submissions: a child may already have
            # a row, so each takes the checked (existence-verified)
            # admission.  Otherwise the deterministic (parent, index) pairs
            # have never been used and the rows cannot exist — no existence
            # read is made.
            admitted = [s for s in specs if self._admit_replayed_task(s)]
        return specs, admitted, self._submitted_events(admitted), node

    def _submitted_events(self, specs: List[TaskSpec]) -> List[Optional[Event]]:
        """One ``task_submitted`` event per spec (``None`` with tracing off)."""
        if not self._trace_enabled:
            return [None] * len(specs)
        now = time.perf_counter()
        return [
            (
                "task_submitted",
                dict(task=spec.task_id.short(), name=spec.function_name, t=now),
            )
            for spec in specs
        ]

    def record_submissions(
        self, specs: List[TaskSpec], node_id: Optional[NodeID]
    ) -> None:
        """Record actor-method submissions placed on their actor's node:
        each row (SCHEDULED there), its method-log entry and its
        ``task_submitted`` event in one ``gcs.add_tasks`` write per shard.
        Durable on return — before the spec can reach the mailbox; the
        method's next write is its finish."""
        events = self._submitted_events(specs)
        self.gcs.add_tasks(
            specs, node_id, events=[e for e in events if e is not None]
        )

    def submit_task(
        self,
        function_id: FunctionID,
        function_name: str,
        args: Tuple[Any, ...],
        kwargs: Tuple[Tuple[str, Any], ...],
        num_returns: int = 1,
        resources: Optional[Dict[str, float]] = None,
        max_retries: int = 0,
        retry_exceptions: Optional[Tuple[type, ...]] = None,
    ) -> Tuple[ObjectID, ...]:
        """Create and route a task; returns its future object IDs.

        Args must already be encoded (ObjectRefs replaced by ArgRef).  The
        batch of one: :meth:`submit_many`'s stage, then the local
        scheduler's single-task entry.
        """
        specs, admitted, events, node = self._stage_tasks(
            function_id,
            function_name,
            [(args, kwargs)],
            num_returns,
            resources,
            max_retries,
            retry_exceptions,
        )
        if admitted:
            node.local_scheduler.submit(admitted[0], events[0])
            self._m_tasks_submitted.inc()
        return specs[0].return_ids

    def _admit_replayed_task(self, spec: TaskSpec) -> bool:
        """Existence check for a possibly-replayed submission.

        Returns True if the task should be placed: either it is new or its
        previous execution finished and lost its outputs — its placement
        write then writes the row.  Returns False when its outputs still
        exist or it is in flight (being reconstructed, or SCHEDULED: should
        its node die, the kill's sweep re-places it) — the caller returns
        the deterministic futures as-is.
        """
        task_id = spec.task_id
        if self.reconstruction.in_flight(task_id):
            return False
        existing = self.gcs.get_task(task_id)
        if existing is None:
            return True
        if existing.status is TaskStatus.SCHEDULED:
            return False
        return existing.status != TaskStatus.FINISHED or not all(
            self.transfer.live_locations(oid) for oid in spec.return_ids
        )

    def submit_many(
        self,
        function_id: FunctionID,
        function_name: str,
        calls: Sequence[Tuple[Tuple[Any, ...], Tuple[Tuple[str, Any], ...]]],
        num_returns: int = 1,
        resources: Optional[Dict[str, float]] = None,
        max_retries: int = 0,
        retry_exceptions: Optional[Tuple[type, ...]] = None,
    ) -> List[Tuple[ObjectID, ...]]:
        """Submit many invocations of one function in one batch.

        ``calls`` is a sequence of ``(args, kwargs)`` pairs (already
        encoded); the task rows and trace events of every call the
        submitting node keeps coalesce into one placement
        ``ShardedKV.batch``.  Returns one return-ID tuple per call.
        """
        if not calls:
            return []
        specs, admitted, events, node = self._stage_tasks(
            function_id,
            function_name,
            calls,
            num_returns,
            resources,
            max_retries,
            retry_exceptions,
        )
        if admitted:
            node.local_scheduler.submit_many(admitted, events)
            self._m_tasks_submitted.inc(len(admitted))
        return [spec.return_ids for spec in specs]

    def create_actor(
        self,
        cls: type,
        args: Tuple[Any, ...],
        kwargs: Tuple[Tuple[str, Any], ...],
        resources: Optional[Dict[str, float]] = None,
        checkpoint_interval: Optional[int] = None,
        max_restarts: int = 4,
        name: Optional[str] = None,
    ) -> ActorID:
        parent, index, _node = self._submission_context_many(1)
        task_id = deterministic_task_id(parent, index, salt="actor")
        actor_id = ActorID(task_id.binary())
        function_id = FunctionID.from_function(cls.__module__, cls.__qualname__)
        self.ensure_function_registered(function_id, cls)
        spec = TaskSpec(
            task_id=task_id,
            function_id=function_id,
            function_name=f"{cls.__name__}.__init__",
            args=tuple(args),
            kwargs=tuple(kwargs),
            num_returns=0,
            resources=resources or normalize_resources(),
            parent_task_id=parent,
            actor_id=actor_id,
            is_actor_creation=True,
        )
        if name is not None:
            # Claim the name before any durable side effect: a duplicate
            # raises ValueError here and no actor or task row is created.
            self.gcs.register_actor_name(name, actor_id)
        self.actors.create_actor(
            cls,
            spec,
            checkpoint_interval=checkpoint_interval,
            max_restarts=max_restarts,
            name=name,
        )
        return actor_id

    def drain_actor(self, actor_id: ActorID, timeout: Optional[float] = None) -> bool:
        """Gracefully retire an actor: wait for its in-flight methods to
        finish, then kill it permanently (no restart).  The serve plane's
        hot model-swap uses this to drain old-version replicas."""
        return self.actors.drain_actor(actor_id, timeout=timeout)

    def submit_actor_method(
        self,
        actor_id: ActorID,
        method_name: str,
        args: Tuple[Any, ...],
        kwargs: Tuple[Tuple[str, Any], ...],
        num_returns: int = 1,
        max_retries: Optional[int] = None,
        retry_exceptions: Optional[Tuple[type, ...]] = None,
    ) -> Tuple[ObjectID, ...]:
        parent, index, _node = self._submission_context_many(1)
        state = self.actors.get_state(actor_id)
        if state is None:
            raise ObjectLostError(actor_id, f"unknown actor {actor_id!r}")
        function_id = FunctionID.from_function(
            state.cls.__module__, state.cls.__qualname__
        )

        method = getattr(state.cls, method_name, None)
        read_only = bool(getattr(method, "__repro_read_only__", False))
        # Per-call overrides win over the @repro.method declaration.
        if max_retries is None:
            max_retries = int(getattr(method, "__repro_max_retries__", 0))
        if retry_exceptions is None:
            retry_exceptions = getattr(method, "__repro_retry_exceptions__", None)

        def build(counter: int) -> TaskSpec:
            task_id = deterministic_task_id(parent, index, salt=f"m{counter}")
            return TaskSpec(
                task_id=task_id,
                function_id=function_id,
                function_name=f"{state.class_name}.{method_name}",
                args=tuple(args),
                kwargs=tuple(kwargs),
                num_returns=num_returns,
                resources={},  # methods run inside the actor's reservation
                parent_task_id=parent,
                actor_id=actor_id,
                actor_method=method_name,
                actor_counter=counter,
                is_read_only=read_only,
                max_retries=max_retries,
                retry_exceptions=retry_exceptions,
            )

        # submit_method records the spec (record_submissions) once the
        # counter is known, before the spec can reach the actor thread.
        spec = self.actors.submit_method(build, actor_id)
        self._m_methods_submitted.inc()
        return spec.return_ids

    # ------------------------------------------------------------------
    # Data plane: put / get / wait
    # ------------------------------------------------------------------

    def put(self, value: Any) -> ObjectID:
        task_id = context.current_task_id()
        if task_id is not None:
            node = context.current_node()
            put_index = context.next_put_index()
        else:
            node = self.driver_node
            task_id = self.driver_task_id
            with self._driver_lock:
                put_index = self._driver_put_index
                self._driver_put_index += 1
        object_id = ObjectID.for_put(task_id, put_index)
        serialized = serialize(value)
        stored = node.store.put(object_id, serialized)
        self.gcs.add_task_outputs(
            [(object_id, serialized.total_bytes, None,
              node.node_id if stored else None)],
        )
        return object_id

    def fetch_to_node(
        self,
        object_id: ObjectID,
        node: Node,
        timeout: Optional[float] = None,
        cancelled: Optional[Callable[[], bool]] = None,
        interrupt: Optional[Completion] = None,
    ) -> bool:
        """Block until ``object_id`` is in ``node``'s store.

        Purely notification-driven: wakes on the store's availability
        completion, on GCS location retractions (for the lost-object
        verdict), or on ``interrupt`` (cancellation).  Returns False if
        ``cancelled()`` fired; raises GetTimeoutError / ObjectLostError as
        appropriate.
        """
        available = node.store.availability_event(object_id)
        if available.is_set():
            return True
        deadline = None if timeout is None else time.monotonic() + timeout
        lost = Completion(stats=self.wait_stats)

        def check_lost() -> None:
            # The object is lost when it has no in-flight producer, no row
            # that names a producer, and no live copy.  A producer the GCS
            # client knows (in flight, or finished with its lineage kept)
            # rules the verdict out without the object-row read it would
            # otherwise cost every blocking get of a task return.
            if self.gcs.known_producer(object_id) is not None:
                return
            entry = self.gcs.get_object_entry(object_id)
            if (
                entry is None or entry.task_id is None
            ) and not self.transfer.live_locations(object_id):
                lost.set()

        state = {"done": False}

        def rearm() -> None:
            if not state["done"]:
                self.fetcher.ensure_local(object_id, node)
                check_lost()

        def on_location_update(op: str, _node_id: NodeID) -> None:
            # A retraction may have removed the last live copy: with no
            # lineage, deliver the ObjectLostError verdict by event instead
            # of re-querying the GCS every poll round; with lineage, re-arm
            # the fetch, whose earlier round may have ended when a copy
            # landed here and was evicted before this reader saw it.  Both
            # read the GCS, so they are queued off the publishing thread.
            if op == "remove":
                self.transfer.enqueue(rearm)

        unsubscribe = self.gcs.subscribe_object_locations(
            object_id, on_location_update
        )
        try:
            rearm()
            while True:
                # Re-fetch each round: eviction re-arms the completion, and
                # the fetch (or reconstruction) must then be re-triggered.
                available = node.store.availability_event(object_id)
                waitables = [available, lost]
                if interrupt is not None:
                    waitables.append(interrupt)
                remaining = BACKSTOP_INTERVAL
                if deadline is not None:
                    remaining = min(remaining, deadline - time.monotonic())
                if remaining > 0:
                    wait_any(waitables, timeout=remaining, stats=self.wait_stats)
                if available.is_set():
                    return True
                if cancelled is not None and cancelled():
                    return False
                if lost.is_set():
                    raise ObjectLostError(object_id)
                if not node.alive:
                    # The node this fetch was bound to died mid-wait: its
                    # store will never receive the object (transfers skip
                    # dead targets).  Stranded worker threads catch this
                    # and exit; their tasks were resubmitted by kill_node.
                    raise NodeDiedError(node.node_id)
                if deadline is not None and time.monotonic() >= deadline:
                    raise GetTimeoutError(
                        f"object {object_id!r} not available within timeout"
                    )
                # Backstop fired with nothing decided: guard against a
                # missed wakeup by re-arming the fetch and the lost check.
                self.wait_stats.record_backstop()
                rearm()
        finally:
            # A re-arm still queued must not fetch for a reader gone.
            state["done"] = True
            unsubscribe()

    def get(self, object_ids, timeout: Optional[float] = None):
        """Blocking retrieval of one object or a list of objects.

        Raises the stored error (``TaskExecutionError`` or
        ``TaskCancelledError``) if the producing task failed or was
        cancelled.  A get issued *inside* a task that is itself cancelled
        raises ``TaskCancelledError`` from the blocking wait — the
        cooperative cancellation point for long dependency chains.
        """
        single = not isinstance(object_ids, (list, tuple))
        id_list = [object_ids] if single else list(object_ids)
        node = context.current_node() or self.driver_node
        deadline = None if timeout is None else time.monotonic() + timeout
        current = context.current_task_id()
        cancelled = None
        interrupt = None
        if current is not None:
            # Register the wake event before blocking so a concurrent
            # cancel() of *this* task interrupts the wait immediately.
            interrupt = self.cancellation_event(current)
            cancelled = lambda: self.is_cancelled(current)  # noqa: E731
        values: List[Any] = []
        with context.blocked():
            if len(id_list) > 1:
                # Start every missing fetch before blocking on the first:
                # transfers overlap on the transfer threads while we join
                # the availability completions in order.
                self.fetcher.prefetch(id_list, node)
            for object_id in id_list:
                while True:
                    remaining = (
                        None if deadline is None else max(0.0, deadline - time.monotonic())
                    )
                    if not self.fetch_to_node(
                        object_id,
                        node,
                        timeout=remaining,
                        cancelled=cancelled,
                        interrupt=interrupt,
                    ):
                        raise TaskCancelledError(current)
                    # Reads go through the node's deserialized-value cache.
                    value, found = node.store.load_value(object_id)
                    if found:
                        break
                    # Evicted between availability and read: retry the fetch.
                if isinstance(value, (TaskExecutionError, TaskCancelledError)):
                    raise value
                values.append(value)
        return values[0] if single else values

    def object_available(self, object_id: ObjectID, node: Node) -> bool:
        """Has the object been created: a copy in ``node``'s store (a local
        check, which sees a task's output before its finish lands) or a
        live copy anywhere in the cluster?"""
        return node.store.contains(object_id) or bool(
            self.transfer.live_locations(object_id)
        )

    def wait(
        self,
        object_ids: Sequence[ObjectID],
        num_returns: int = 1,
        timeout: Optional[float] = None,
        fetch_local: bool = False,
    ) -> Tuple[List[ObjectID], List[ObjectID]]:
        """Paper ``ray.wait``: block until ``num_returns`` objects are ready
        or the timeout expires; returns (ready, not_ready).

        With ``fetch_local=True`` the ready objects are additionally
        replicated to the caller's node before returning, so a subsequent
        ``get`` of them is a local read."""
        id_list = list(object_ids)
        if num_returns > len(id_list):
            raise ValueError("num_returns exceeds number of futures")
        deadline = None if timeout is None else time.monotonic() + timeout
        node = context.current_node() or self.driver_node
        ready: List[ObjectID] = []
        pending: List[ObjectID] = list(id_list)
        # One shared completion poked by every watched object's GCS
        # location feed (any new copy anywhere in the cluster) and by its
        # availability in the caller's store (a local output, before its
        # finish publishes it).
        progress = Completion(stats=self.wait_stats)

        def on_location_update(op: str, _node_id: NodeID) -> None:
            if op == "add":
                progress.set()

        def on_local(_available: Completion) -> None:
            progress.set()

        unsubscribes = [
            self.gcs.subscribe_object_locations(object_id, on_location_update)
            for object_id in pending
        ]
        local = [node.store.availability_event(object_id) for object_id in pending]
        for available in local:
            available.add_callback(on_local)
        try:
            with context.blocked():
                while True:
                    # Re-arm *before* scanning so a location published
                    # between the scan and the wait is never missed.
                    progress.clear()
                    still_pending = []
                    for object_id in pending:
                        # Return *exactly* num_returns ready futures (like
                        # ray.wait): extras stay pending for the next call.
                        if len(ready) < num_returns and self.object_available(
                            object_id, node
                        ):
                            ready.append(object_id)
                        else:
                            still_pending.append(object_id)
                    pending = still_pending
                    if len(ready) >= num_returns or not pending:
                        break
                    remaining = BACKSTOP_INTERVAL
                    if deadline is not None:
                        now = time.monotonic()
                        if now >= deadline:
                            break
                        remaining = min(remaining, deadline - now)
                    if not progress.wait(timeout=remaining) and (
                        deadline is None or time.monotonic() < deadline
                    ):
                        self.wait_stats.record_backstop()
        finally:
            for unsubscribe in unsubscribes:
                unsubscribe()
            for available in local:
                available.remove_callback(on_local)
        if fetch_local and ready:
            self.fetcher.prefetch(ready, node)
            with context.blocked():
                for object_id in ready:
                    self.fetch_to_node(object_id, node)
        return ready, pending

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def graph(self) -> TaskGraph:
        """The task graph (Figure 4), built from the GCS task table on each
        access: a read-only view of the one copy of lineage, so collected
        or flushed lineage is not in it."""
        return TaskGraph(entry.spec for entry in self.gcs.tasks())

    def nodes_info(self) -> List[Dict[str, Any]]:
        """Cluster membership snapshot (like ``ray.nodes()``): one dict per
        node, including dead ones, in creation order."""
        out: List[Dict[str, Any]] = []
        with self._nodes_lock:
            snapshot = [
                (nid, self._nodes[nid]) for nid in self._node_order
            ]
        for node_id, node in snapshot:
            out.append(
                {
                    "node_id": node_id.hex(),
                    "alive": node.alive,
                    "resources": dict(node.resources.total),
                    "available_resources": dict(node.resources.available()),
                    "store_bytes": node.store.used_bytes,
                    "num_objects": node.store.num_objects(),
                }
            )
        return out

    def cluster_resources(self) -> Dict[str, float]:
        """Total resources across live nodes (like ``ray.cluster_resources``)."""
        totals: Dict[str, float] = {}
        for node in self.live_nodes():
            for name, amount in node.resources.total.items():
                totals[name] = totals.get(name, 0.0) + amount
        return totals

    def available_resources(self) -> Dict[str, float]:
        """Currently unclaimed resources across live nodes."""
        available: Dict[str, float] = {}
        for node in self.live_nodes():
            for name, amount in node.resources.available().items():
                available[name] = available.get(name, 0.0) + amount
        return available

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Quiesce the cluster: interrupt every actor loop, post the stop
        sentinel to every task worker, land every queued finish and stop
        the finish drains, stop the transfer threads and close the GCS
        flusher, so repeated init/shutdown cycles in one process do
        not accumulate daemon threads.  No actor loop or task worker is
        joined: an idle one exits when signalled, and one inside user code
        is a daemon that exits after its call, so shutdown never waits on
        it."""
        if self.stopped:
            return
        self.stopped = True
        # Ops plane first: the autoscaler must not resize a cluster that
        # is quiescing, and reporters must not publish rows mid-teardown.
        with self._ops_lock:
            components = list(self._ops_components)
            self._ops_components.clear()
            reporters = list(self._reporters.values())
            self._reporters.clear()
        for component in components:
            component.stop()
        for reporter in reporters:
            reporter.stop()
        self.actors.shutdown()
        # What is queued lands before the store closes; each drain then
        # exits (giving up a batch that fails to write), and a finish
        # queued later starts one that writes it and exits.
        for node in self.nodes():
            node.local_scheduler.stop()
            node.finishes.stop()
        self.flush_finishes()
        self.fetcher.close()
        if self.flusher is not None:
            self.flusher.close()
        self.gcs.close()
