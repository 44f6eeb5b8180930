"""Read-only cluster state as seen by a scheduler policy.

A :class:`SchedulerPolicy` never touches a ``Node``, ``TaskSpec``,
``SimNode``, or ``SimTask`` directly.  The runtime's global scheduler and
the simulator each build the *same* view types from their own state —
per-node backlog and resource availability (heartbeats), object sizes and
locations (GCS object table), and the EWMA duration/bandwidth estimators —
which is what lets one policy object drive both layers without drift.

Dependency metadata is resolved **once per placement decision** into
``ClusterView.deps`` and shared across all candidate nodes (the runtime
previously re-fetched each dependency's GCS entry per candidate node —
O(nodes × deps) lookups per decision).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Mapping, Optional, Sequence, Tuple


class NodeView:
    """One candidate node: identity, load, and immediate capacity.

    ``key`` is an opaque hashable node identity; the only promise is that
    it matches the members of each :class:`DepInfo` location set from the
    same :class:`ClusterView`.  ``index`` is the node's position in the
    candidate list (a stable deterministic tie-break handle).
    """

    __slots__ = ("key", "index")

    def __init__(self, key: Hashable, index: int):
        self.key = key
        self.index = index

    def backlog(self) -> int:
        """Tasks placed on this node and not yet finished (heartbeat)."""
        raise NotImplementedError

    def can_run_now(self, resources: Mapping[str, float]) -> bool:
        """Would ``resources`` fit into what is free *right now*?"""
        raise NotImplementedError


class RuntimeNodeView(NodeView):
    """Adapter over a live :class:`repro.core.runtime.Node`."""

    __slots__ = ("node",)

    def __init__(self, node, index: int):
        super().__init__(node.node_id, index)
        self.node = node

    def backlog(self) -> int:
        return self.node.local_scheduler.backlog()

    def can_run_now(self, resources: Mapping[str, float]) -> bool:
        return self.node.resources.can_acquire_now(resources)


class SimNodeView(NodeView):
    """Adapter over a :class:`repro.sim.cluster.SimNode`."""

    __slots__ = ("node",)

    def __init__(self, node, index: int):
        super().__init__(node.index, index)
        self.node = node

    def backlog(self) -> int:
        return self.node.backlog

    def can_run_now(self, resources: Mapping[str, float]) -> bool:
        cores = self.node.cores
        if resources.get("CPU", 0) > cores.capacity - cores.in_use:
            return False
        gpus_needed = resources.get("GPU", 0)
        if gpus_needed:
            gpus = self.node.gpus
            if gpus is None or gpus_needed > gpus.capacity - gpus.in_use:
                return False
        return True


class TaskView:
    """The task being placed: resources and input-object keys.

    ``deps`` may contain duplicates (a task passing the same object twice
    pays its transfer estimate twice, matching the runtime's historical
    accounting); the *metadata lookup* is still performed once per unique
    dependency when the view is built.
    """

    __slots__ = ("key", "name", "resources", "_deps", "_deps_fn")

    def __init__(
        self,
        key: Hashable,
        name: str,
        resources: Mapping[str, float],
        deps: Optional[Tuple[Hashable, ...]] = None,
        deps_fn: Optional[Callable[[], Sequence[Hashable]]] = None,
    ):
        self.key = key
        self.name = name
        self.resources = resources
        self._deps = deps
        self._deps_fn = deps_fn

    @property
    def deps(self) -> Tuple[Hashable, ...]:
        # Lazy: the threshold spillback rule never needs the dependency list,
        # so TaskSpec.dependencies() only runs when a policy asks.
        if self._deps is None:
            self._deps = tuple(self._deps_fn()) if self._deps_fn else ()
        return self._deps


class DepInfo:
    """Size and current locations (node keys) of one input object."""

    __slots__ = ("size", "locations")

    def __init__(self, size: int, locations: FrozenSet[Hashable]):
        self.size = size
        self.locations = locations


class ClusterView:
    """Everything a policy may observe for one placement decision.

    * ``nodes`` — the candidate :class:`NodeView` list, already filtered to
      alive nodes that can *ever* satisfy the task's resource request
      (feasibility is a hard constraint, not a policy choice);
    * ``deps`` — per-input-object :class:`DepInfo`, resolved once for the
      decision and shared across candidates;
    * ``avg_task_duration`` / ``bandwidth`` — the layer's EWMA estimators
      (seconds per task; bytes per second, floored to be division-safe).
    """

    __slots__ = ("nodes", "deps", "avg_task_duration", "bandwidth")

    def __init__(
        self,
        nodes: Sequence[NodeView],
        deps: Dict[Hashable, DepInfo],
        avg_task_duration: float,
        bandwidth: float,
    ):
        self.nodes = nodes
        self.deps = deps
        self.avg_task_duration = avg_task_duration
        self.bandwidth = bandwidth

    def remote_input_bytes(self, task: TaskView, node: NodeView) -> int:
        """Bytes of ``task``'s inputs with no copy on ``node``."""
        total = 0
        deps = self.deps
        key = node.key
        for dep in task.deps:
            info = deps.get(dep)
            if info is not None and key not in info.locations:
                total += info.size
        return total

    def local_input_bytes(self, task: TaskView, node: NodeView) -> int:
        """Bytes of ``task``'s inputs already resident on ``node``."""
        total = 0
        deps = self.deps
        key = node.key
        for dep in task.deps:
            info = deps.get(dep)
            if info is not None and key in info.locations:
                total += info.size
        return total
