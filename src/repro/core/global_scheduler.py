"""Global scheduler: candidate filtering + a pluggable placement policy.

Local schedulers forward tasks here when they cannot (or should not) run
them locally.  Per the paper (Section 4.2.2), the global scheduler:

1. identifies the nodes with enough resources *of the type requested*;
2. hands the candidates to a :class:`~repro.core.scheduling.SchedulerPolicy`
   through a read-only :class:`~repro.core.scheduling.ClusterView` — node
   backlogs and resource availability from heartbeats, object locations
   and sizes from the GCS (fetched once per decision, not per candidate),
   and the EWMA duration/bandwidth estimators;
3. the default ``lowest_wait`` policy picks the node with the lowest
   estimated waiting time — queued work (backlog × EWMA task duration)
   plus estimated input transfer time (remote input bytes ÷ EWMA
   bandwidth).

Multiple replicas can be instantiated, all sharing state through the GCS;
the runtime round-robins forwarded tasks across them, each replica with
its own policy instance.

``locality_aware=False`` drops the transfer term of the default policy —
the Figure 8a ablation.  (Figure 12b's scheduling-delay sweep runs on the
simulator, ``repro.sim``.)
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.common.lockwatch import make_lock
from repro.common.errors import ResourceRequestError
from repro.common.metrics import MetricsRegistry, NULL_REGISTRY
from repro.core.scheduling import (
    ClusterView,
    DepInfo,
    LowestEstimatedWaitPolicy,
    RuntimeNodeView,
    TaskView,
    make_policy,
)
from repro.core.task_spec import TaskSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Node


class ExponentialAverage:
    """Simple exponential moving average (the paper's estimator)."""

    def __init__(self, initial: float, alpha: float = 0.2):
        self.value = initial
        self.alpha = alpha
        self._lock = make_lock("ExponentialAverage._lock")

    def update(self, sample: float) -> None:
        with self._lock:
            self.value = self.alpha * sample + (1 - self.alpha) * self.value

    def get(self) -> float:
        with self._lock:
            return self.value


class GlobalScheduler:
    """One (replicable) global scheduler instance driving one policy."""

    def __init__(
        self,
        gcs,
        get_nodes: Callable[[], List["Node"]],
        policy: Optional[Any] = None,
        locality_aware: bool = True,
        default_task_duration: float = 0.001,
        default_bandwidth: float = 2e9,
        metrics: Optional[MetricsRegistry] = None,
        index: int = 0,
    ):
        self.gcs = gcs
        self._get_nodes = get_nodes
        self.locality_aware = locality_aware
        if policy is None:
            policy = LowestEstimatedWaitPolicy(locality_aware=locality_aware)
        else:
            policy = make_policy(policy)
        self.policy = policy
        self.avg_task_duration = ExponentialAverage(default_task_duration)
        self.avg_bandwidth = ExponentialAverage(default_bandwidth)
        self.decisions = 0
        self._lock = make_lock("GlobalScheduler._lock")
        metrics = metrics or NULL_REGISTRY
        self._m_decisions = metrics.counter(
            "global_scheduler_decisions_total",
            "Placement decisions made",
            scheduler=str(index),
            policy=policy.name,
        )
        self._m_estimated_wait = metrics.histogram(
            "global_scheduler_estimated_wait_seconds",
            "Estimated waiting time of the chosen node at placement",
            scheduler=str(index),
            policy=policy.name,
        )
        self._m_placement = metrics.histogram(
            "scheduler_placement_seconds",
            "Wall time of one policy placement decision",
            scheduler=str(index),
            policy=policy.name,
        )

    # -- learning (heartbeat / completion reports) ------------------------------

    def report_task_duration(self, seconds: float) -> None:
        self.avg_task_duration.update(max(seconds, 1e-6))

    def report_transfer(self, num_bytes: int, seconds: float) -> None:
        if seconds > 0:
            self.avg_bandwidth.update(num_bytes / seconds)

    # -- the ClusterView (what a policy may observe) ----------------------------

    def cluster_view(self, spec: TaskSpec, candidates: List["Node"]) -> ClusterView:
        """Snapshot the decision inputs for ``spec`` over ``candidates``.

        Each dependency's GCS object entry is fetched exactly once and
        shared across every candidate (previously ``estimated_wait`` was
        O(nodes × deps) in GCS lookups per decision).
        """
        deps: Dict[Any, DepInfo] = {}
        for dep in spec.dependencies():
            if dep in deps:
                continue
            entry = self.gcs.get_object_entry(dep)
            if entry is None:
                continue  # not created yet; no transfer estimate possible
            deps[dep] = DepInfo(entry.size, frozenset(entry.locations))
        return ClusterView(
            nodes=[RuntimeNodeView(node, i) for i, node in enumerate(candidates)],
            deps=deps,
            avg_task_duration=self.avg_task_duration.get(),
            bandwidth=max(self.avg_bandwidth.get(), 1.0),
        )

    @staticmethod
    def task_view(spec: TaskSpec) -> TaskView:
        return TaskView(
            key=spec.task_id,
            name=spec.function_name,
            resources=spec.resources,
            deps_fn=spec.dependencies,
        )

    # -- placement -----------------------------------------------------------------

    def estimated_wait(self, node: "Node", spec: TaskSpec) -> float:
        """Estimated time before ``spec`` could start on ``node``
        (introspection hook; delegates to the active policy's score)."""
        view = self.cluster_view(spec, [node])
        return self.policy.score(self.task_view(spec), view.nodes[0], view)

    def schedule(self, spec: TaskSpec) -> "Node":
        """Filter candidates, then let the policy place ``spec``."""
        candidates = [
            node
            for node in self._get_nodes()
            if node.alive and node.resources.can_ever_satisfy(spec.resources)
        ]
        if not candidates:
            raise ResourceRequestError(
                f"no node can satisfy resources {spec.resources} for "
                f"{spec.describe()}"
            )
        with self._lock:
            self.decisions += 1
        view = self.cluster_view(spec, candidates)
        start = time.perf_counter()
        placement = self.policy.place(self.task_view(spec), view)
        self._m_placement.observe(time.perf_counter() - start)
        self._m_decisions.inc()
        if placement.estimated_wait is not None:
            self._m_estimated_wait.observe(placement.estimated_wait)
        return placement.node.node
