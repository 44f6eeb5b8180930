"""Simulated Ray cluster: bottom-up scheduling, object locality, lineage.

The simulator mirrors the control-plane policies of :mod:`repro.core` under
a discrete-event clock:

* tasks are submitted to the *origin node's* local scheduler (a single-
  threaded event loop with a fixed per-task service time, as in the paper's
  implementation) and spill to the global scheduler when the node is
  overloaded (a pluggable ``SpillbackPolicy``) or infeasible;
* the global scheduler places via the *same*
  :class:`~repro.core.scheduling.SchedulerPolicy` objects the live runtime
  loads — the default ``lowest_wait`` scores backlog × EWMA(task duration)
  plus, when ``locality_aware``, remote input bytes ÷ bandwidth;
  ``SimConfig(scheduler_policy=...)`` swaps in any registered policy (see
  :mod:`repro.sim.league` for the league table);
* task inputs are replicated to the executing node's store before the task
  runs; objects lost to node failures are reconstructed by re-executing
  their producing task from lineage, recursively.

Cost-model defaults are calibrated against the paper's own measurements
(55 µs/task local scheduler service → 1.8 M tasks/s at 100 nodes; 25 Gbps
NIC; ~1 ms global scheduling round trip).
"""

from __future__ import annotations

import itertools
import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.scheduling import (
    ClusterView,
    DepInfo,
    LowestEstimatedWaitPolicy,
    SimNodeView,
    TaskView,
    make_policy,
    make_spillback,
)
from repro.sim.engine import Engine, SimEvent, SimResource
from repro.sim.metrics import LatencyStats, ThroughputTimeline
from repro.sim.network import Network, NetworkConfig


class SimulationError(RuntimeError):
    """An impossible situation in the simulated cluster (e.g. unrecoverable
    object loss)."""


@dataclass(frozen=True)
class SimTask:
    """One simulated task: duration, inputs by name, outputs with sizes."""

    name: str
    duration: float
    deps: Tuple[str, ...] = ()
    outputs: Tuple[Tuple[str, int], ...] = ()
    num_cpus: int = 1
    num_gpus: int = 0


@dataclass
class SimConfig:
    """Cluster shape and calibrated cost model."""

    num_nodes: int = 2
    cpus_per_node: int = 16
    gpus_per_node: int = 0
    # Scheduling costs.
    local_scheduler_service: float = 55e-6  # per-task local decision+dispatch
    global_scheduler_rtt: float = 1e-3  # forward + decide + place round trip
    extra_scheduler_delay: float = 0.0  # Fig 12b latency injection
    gcs_latency: float = 150e-6  # one object-table lookup
    # GCS write-path model: every task performs a few single-key writes
    # (task table add + status updates + object table).  Each shard is a
    # single-writer chain; sharding is what scales the write path (§7:
    # "we were able to scale by adding more shards").
    gcs_shards: int = 0  # 0 disables GCS write-path modelling
    gcs_ops_per_task: int = 3
    gcs_op_service: float = 20e-6  # per single-key chain write
    spillback_threshold: int = 16
    locality_aware: bool = True
    # Pluggable scheduling: the same registry names / SchedulerPolicy and
    # SpillbackPolicy objects the live runtime accepts
    # (repro.core.scheduling).  None selects the paper defaults —
    # lowest_wait (honoring ``locality_aware``) over a backlog-threshold
    # spillback.
    scheduler_policy: Any = None
    spillback_policy: Any = None
    # Data plane.
    network: NetworkConfig = field(default_factory=NetworkConfig)
    transfer_streams: int = 8
    # Metrics.
    timeline_bucket: float = 1.0


class SimNode:
    """One simulated node: cores, GPUs, a store, a local scheduler loop."""

    def __init__(self, engine: Engine, index: int, config: SimConfig):
        self.index = index
        self.alive = True
        self.cores = SimResource(engine, config.cpus_per_node)
        self.gpus = (
            SimResource(engine, config.gpus_per_node)
            if config.gpus_per_node
            else None
        )
        self.scheduler = SimResource(engine, 1)  # single-threaded scheduler
        self.nic = SimResource(engine, 1)  # one inbound transfer at a time
        self.store: Set[str] = set()
        self.backlog = 0  # placed here, not yet finished

    def feasible(self, task: SimTask) -> bool:
        if task.num_cpus > self.cores.capacity:
            return False
        if task.num_gpus and (self.gpus is None or task.num_gpus > self.gpus.capacity):
            return False
        return True


class SimCluster:
    """The simulated cluster, mirroring the paper's system layer."""

    def __init__(self, config: Optional[SimConfig] = None, engine: Optional[Engine] = None):
        self.config = config or SimConfig()
        self.engine = engine or Engine()
        self.network = Network(self.engine, self.config.network)
        self.nodes: List[SimNode] = [
            SimNode(self.engine, i, self.config) for i in range(self.config.num_nodes)
        ]
        self.gcs_shards: List[SimResource] = [
            SimResource(self.engine, 1) for _ in range(self.config.gcs_shards)
        ]
        self._gcs_rr = 0
        self.object_size: Dict[str, int] = {}
        self.object_locations: Dict[str, Set[int]] = {}
        self.lineage: Dict[str, SimTask] = {}
        self._reconstructing: Dict[str, SimEvent] = {}
        self._creation_events: Dict[str, SimEvent] = {}

        self.timeline = ThroughputTimeline(self.config.timeline_bucket)
        self.latency = LatencyStats()
        self.tasks_executed = 0
        self.tasks_reexecuted = 0
        self.tasks_forwarded = 0
        self.tasks_local = 0
        self._avg_duration = 0.001
        self._task_seq = itertools.count()

        # The placement policy and spillback rule — the very classes the
        # live runtime loads via repro.init(scheduler_policy=...).
        if self.config.scheduler_policy is None:
            self.policy = LowestEstimatedWaitPolicy(
                locality_aware=self.config.locality_aware
            )
        else:
            self.policy = make_policy(self.config.scheduler_policy)
        self.spillback = make_spillback(
            self.config.spillback_policy,
            threshold=self.config.spillback_threshold,
        )
        # Placement-decision cost in *wall* time (the simulated clock never
        # advances during a decision): the league table's µs-per-decision.
        self.placement_decisions = 0
        self.placement_wall_seconds = 0.0

    # ------------------------------------------------------------------
    # Data placement
    # ------------------------------------------------------------------

    def put_object(self, name: str, size: int, node_index: int) -> None:
        """Pre-place an input object on a node (driver-side ``put``)."""
        self.object_size[name] = size
        self.object_locations.setdefault(name, set()).add(node_index)
        self.nodes[node_index].store.add(name)

    def live_locations(self, name: str) -> List[int]:
        return [
            i
            for i in self.object_locations.get(name, ())
            if self.nodes[i].alive
        ]

    # ------------------------------------------------------------------
    # Submission (bottom-up)
    # ------------------------------------------------------------------

    def submit(
        self, task: SimTask, origin: int = 0, category: str = "original"
    ) -> SimEvent:
        """Submit a task from a driver/worker on node ``origin``.

        Returns an event whose value is the task's end-to-end latency.
        """
        done = self.engine.event()
        self.engine.process(self._submit_proc(task, origin, category, done))
        return done

    def _submit_proc(self, task: SimTask, origin: int, category: str, done: SimEvent):
        started = self.engine.now
        node = self.nodes[origin]
        # The local scheduler is a single-threaded event loop: each task
        # costs one service quantum (this is what bounds per-node rates).
        yield node.scheduler.acquire()
        yield self.engine.timeout(self.config.local_scheduler_service)
        node.scheduler.release()

        schedule_locally = (
            node.alive
            and node.feasible(task)
            and not self.spillback.should_forward(
                self._task_view(task), SimNodeView(node, 0)
            )
        )
        if schedule_locally:
            self.tasks_local += 1
            target = node
        else:
            self.tasks_forwarded += 1
            yield self.engine.timeout(
                self.config.global_scheduler_rtt + self.config.extra_scheduler_delay
            )
            target = self._pick_global(task)
        yield from self._execute_on(task, target, category)
        done.succeed(self.engine.now - started)

    @staticmethod
    def _task_view(task: SimTask) -> TaskView:
        resources = {"CPU": float(task.num_cpus)}
        if task.num_gpus:
            resources["GPU"] = float(task.num_gpus)
        return TaskView(
            key=task.name, name=task.name, resources=resources, deps=task.deps
        )

    def _cluster_view(self, task: SimTask, candidates: List[SimNode]) -> ClusterView:
        """Same decision inputs the runtime's view carries: backlogs and
        free resources per node, dependency sizes + locations (one lookup
        per dependency), EWMA duration, and effective NIC bandwidth."""
        deps: Dict[str, DepInfo] = {}
        for dep in task.deps:
            if dep in deps or dep not in self.object_size:
                continue
            deps[dep] = DepInfo(
                self.object_size[dep],
                frozenset(self.object_locations.get(dep, ())),
            )
        return ClusterView(
            nodes=[SimNodeView(node, i) for i, node in enumerate(candidates)],
            deps=deps,
            avg_task_duration=self._avg_duration,
            bandwidth=self.network.effective_bandwidth(self.config.transfer_streams),
        )

    def _pick_global(self, task: SimTask) -> SimNode:
        candidates = [n for n in self.nodes if n.alive and n.feasible(task)]
        if not candidates:
            raise SimulationError(f"no feasible node for task {task.name}")
        view = self._cluster_view(task, candidates)
        start = _time.perf_counter()
        placement = self.policy.place(self._task_view(task), view)
        self.placement_wall_seconds += _time.perf_counter() - start
        self.placement_decisions += 1
        return placement.node.node

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute_on(self, task: SimTask, node: SimNode, category: str):
        node.backlog += 1
        try:
            # Replicate missing inputs to the local store (in parallel).
            missing = [dep for dep in task.deps if dep not in node.store]
            if missing:
                fetches = [
                    self.engine.process(self._fetch(dep, node)) for dep in missing
                ]
                yield self.engine.all_of(fetches)
            # Acquire resources atomically: a wide task holds nothing while
            # it waits, so concurrent multi-core tasks cannot deadlock each
            # other with partial allocations.
            yield node.cores.acquire_many(task.num_cpus)
            if task.num_gpus:
                yield node.gpus.acquire_many(task.num_gpus)
            yield self.engine.timeout(task.duration)
            node.cores.release_many(task.num_cpus)
            if task.num_gpus:
                node.gpus.release_many(task.num_gpus)
        finally:
            node.backlog -= 1
        if not node.alive:
            # The node died under us: the work is lost; rerun elsewhere.
            self.tasks_reexecuted += 1
            target = self._pick_global(task)
            yield from self._execute_on(task, target, "reexecuted")
            return
        # Register outputs (object table writes) and lineage.
        for name, size in task.outputs:
            self.object_size[name] = size
            self.object_locations.setdefault(name, set()).add(node.index)
            node.store.add(name)
            self.lineage[name] = task
            creation = self._creation_events.pop(name, None)
            if creation is not None:
                creation.succeed()  # GCS pub-sub: notify waiting fetchers
        # GCS write path: the task's single-key writes serialize through
        # their (ID-hashed, here round-robin) shards.
        if self.gcs_shards:
            yield from self._gcs_writes(self.config.gcs_ops_per_task)
        self.tasks_executed += 1
        self._avg_duration = 0.2 * max(task.duration, 1e-6) + 0.8 * self._avg_duration
        self.timeline.record(self.engine.now, category)
        if category == "reexecuted":
            pass  # already counted at trigger time

    def _gcs_writes(self, count: int):
        """Serialize ``count`` single-key writes through GCS shards.

        IDs hash uniformly across shards; round-robin is the deterministic
        equivalent for the simulation.
        """
        for _ in range(count):
            shard = self.gcs_shards[self._gcs_rr % len(self.gcs_shards)]
            self._gcs_rr += 1
            yield shard.acquire()
            yield self.engine.timeout(self.config.gcs_op_service)
            shard.release()

    def _fetch(self, name: str, node: SimNode):
        """Make object ``name`` local to ``node`` (transfer or reconstruct)."""
        while name not in node.store:
            sources = self.live_locations(name)
            if sources:
                yield self.engine.timeout(self.config.gcs_latency)  # lookup
                size = self.object_size.get(name, 0)
                # Inbound transfers contend for the receiving node's NIC —
                # without locality awareness, hot receivers queue up.
                yield node.nic.acquire()
                yield self.network.transfer(size, self.config.transfer_streams)
                node.nic.release()
                if node.alive:
                    node.store.add(name)
                    self.object_locations.setdefault(name, set()).add(node.index)
                return
            if name not in self.lineage:
                if name in self.object_size:
                    # The object existed (a driver put) but every copy is
                    # gone and there is no producing task to replay.
                    raise SimulationError(f"object {name} lost with no lineage")
                # Not created yet: wait for the producing task (the real
                # runtime registers a GCS pub-sub callback here, Fig 7b).
                event = self._creation_events.get(name)
                if event is None:
                    event = self.engine.event()
                    self._creation_events[name] = event
                yield event
                continue
            yield from self._reconstruct(name)

    def _reconstruct(self, name: str):
        """Re-execute the lineage of a lost object (paper Fig 11a)."""
        inflight = self._reconstructing.get(name)
        if inflight is not None:
            yield inflight
            return
        producer = self.lineage.get(name)
        if producer is None:
            raise SimulationError(f"object {name} lost with no lineage")
        event = self.engine.event()
        self._reconstructing[name] = event
        self.tasks_reexecuted += 1
        target = self._pick_global(producer)
        yield from self._execute_on(producer, target, "reexecuted")
        del self._reconstructing[name]
        event.succeed()

    # ------------------------------------------------------------------
    # Failures / elasticity
    # ------------------------------------------------------------------

    def kill_node(self, index: int) -> None:
        node = self.nodes[index]
        node.alive = False
        for name in node.store:
            locations = self.object_locations.get(name)
            if locations is not None:
                locations.discard(index)
        node.store.clear()

    def add_node(self) -> int:
        node = SimNode(self.engine, len(self.nodes), self.config)
        self.nodes.append(node)
        return node.index

    def live_node_indices(self) -> List[int]:
        return [n.index for n in self.nodes if n.alive]

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def run_all(
        self, tasks: Sequence[SimTask], origins: Optional[Sequence[int]] = None
    ) -> List[float]:
        """Submit all tasks (round-robin origins by default), run to
        completion, and return per-task latencies."""
        if origins is None:
            live = self.live_node_indices()
            origins = [live[i % len(live)] for i in range(len(tasks))]
        events = [
            self.submit(task, origin) for task, origin in zip(tasks, origins)
        ]
        self.engine.run()
        return [e.value for e in events]
