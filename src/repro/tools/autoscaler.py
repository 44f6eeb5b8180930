"""The closed-loop autoscaler: reporter metrics in, node lifecycle out.

The policy loop watches the aggregate pressure signals the dashboard head
derives from the per-node reporter rows (:meth:`DashboardHead.cluster_load`
— backlog per live node and object-store utilization) and compares them
against high/low watermarks:

* sustained pressure above the high watermark (``hysteresis`` consecutive
  observations) **scales up** — preferring to restart a dead node (the
  same machine rejoining, paper-style) and otherwise adding a fresh one;
* sustained idleness below the low watermark **scales down** — draining
  the least-loaded live node through the runtime's ``kill_node`` path,
  which reroutes its queue and replays its running tasks;
* every action observes a ``cooldown`` before the next, so the loop
  cannot flap.

Every decision is recorded as an ``autoscaler_decision`` event in the GCS
event log *with the metric values that triggered it*, so the dashboard's
``/events`` timeline shows exactly why the cluster changed size between
two task spans.  Like the reporters, the policy core is the synchronous
:meth:`Autoscaler.tick`; the thread is a thin interval driver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.common.lockwatch import Ticker
from repro.tools.dashboard_head import DashboardHead

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Runtime

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "ReplicaAutoscaler",
    "ReplicaAutoscalerConfig",
]


@dataclass
class AutoscalerConfig:
    """Watermarks and damping for the scaling policy."""

    # Scale up when backlog-per-live-node sits at/above this...
    high_watermark: float = 4.0
    # ...or any node's store utilization reaches this fraction.
    store_high_watermark: float = 0.85
    # Scale down when backlog-per-live-node sits at/below this.
    low_watermark: float = 0.5
    # Consecutive over/under-watermark observations required before acting
    # (hysteresis: one noisy sample never resizes the cluster).
    hysteresis: int = 2
    # Minimum seconds between actions (damping after a resize, while the
    # rerouted queue redistributes).
    cooldown_seconds: float = 1.0
    min_nodes: int = 1
    max_nodes: int = 8
    # Interval of the background policy thread.
    interval: float = 0.25


class _WatermarkPolicy:
    """What both policies share: the streak, hysteresis and cooldown state
    machine, the decision record and the interval thread.  A policy's
    ``tick`` feeds :meth:`_observe` its over/under signal, acts on the
    direction it names, and logs the action with :meth:`_record`.
    """

    def __init__(self, runtime: "Runtime", config: Any, thread_name: str):
        self.runtime = runtime
        self.config = config
        self.decisions = 0
        self._high_streak = 0
        self._low_streak = 0
        self._last_action_at: Optional[float] = None
        self.ticker = Ticker(thread_name, config.interval, self.tick)

    def _observe(self, over: bool, under: bool) -> Optional[str]:
        """Count one observation; ``"up"`` or ``"down"`` once its streak
        reaches ``hysteresis`` outside the cooldown, else None."""
        cfg = self.config
        self._high_streak = self._high_streak + 1 if over else 0
        self._low_streak = self._low_streak + 1 if under and not over else 0
        if (
            self._last_action_at is not None
            and time.monotonic() - self._last_action_at < cfg.cooldown_seconds
        ):
            return None
        if self._high_streak >= cfg.hysteresis:
            return "up"
        if self._low_streak >= cfg.hysteresis:
            return "down"
        return None

    def _record(self, decision: Dict[str, Any]) -> Dict[str, Any]:
        """Start the cooldown, clear both streaks, and log ``decision`` as
        an ``autoscaler_decision`` event."""
        self._last_action_at = time.monotonic()
        self._high_streak = 0
        self._low_streak = 0
        self.decisions += 1
        self.runtime.gcs.record_event("autoscaler_decision", **decision)
        return decision

    def start(self) -> None:
        self.ticker.start()

    def stop(self) -> None:
        """Stop the policy thread; idempotent."""
        self.ticker.stop()


def _restart_dead_node(runtime: "Runtime") -> Optional[str]:
    """Rejoin one dead node (the same machine back); its hex id, or None
    when every node is alive."""
    for node in runtime.nodes():
        if not node.alive:
            return runtime.restart_node(node.node_id).node_id.hex()
    return None


class Autoscaler(_WatermarkPolicy):
    """Watermark policy loop over the dashboard head's aggregate load.

    ``add_hook`` / ``drain_hook`` default to the runtime's own node
    lifecycle (``restart_node``-or-``add_node`` / ``kill_node`` of the
    least-loaded non-driver node) but are injectable for tests and for
    deployments where "add a node" means something external.  Each hook
    returns the hex id of the node acted on, or None to veto.
    """

    def __init__(
        self,
        runtime: "Runtime",
        config: Optional[AutoscalerConfig] = None,
        head: Optional[DashboardHead] = None,
        add_hook: Optional[Callable[[], Optional[str]]] = None,
        drain_hook: Optional[Callable[[], Optional[str]]] = None,
    ):
        super().__init__(runtime, config or AutoscalerConfig(), "autoscaler")
        self.head = head or DashboardHead(runtime)
        self._add_hook = add_hook or self._default_add
        self._drain_hook = drain_hook or self._default_drain

    # -- policy ------------------------------------------------------------

    def tick(self) -> Optional[Dict[str, Any]]:
        """One policy evaluation; returns the decision dict if an action
        was taken (and recorded), else None."""
        cfg = self.config
        load = self.head.cluster_load()
        num_live = load["num_live_nodes"]
        backlog = load["backlog_per_node"]
        store = load["store_utilization_max"]
        direction = self._observe(
            over=backlog >= cfg.high_watermark or store >= cfg.store_high_watermark,
            under=backlog <= cfg.low_watermark and store < cfg.store_high_watermark,
        )
        if direction == "up" and num_live < cfg.max_nodes:
            action, node_hex = "scale_up", self._add_hook()
        elif direction == "down" and num_live > cfg.min_nodes:
            action, node_hex = "scale_down", self._drain_hook()
        else:
            return None
        if node_hex is None:
            return None
        return self._record(
            {
                "action": action,
                "node": node_hex[:8],
                "backlog_per_node": backlog,
                "backlog_total": load["backlog_total"],
                "store_utilization_max": store,
                "num_live_nodes": num_live,
                "high_watermark": cfg.high_watermark,
                "low_watermark": cfg.low_watermark,
            }
        )

    # -- default lifecycle hooks ------------------------------------------

    def _default_add(self) -> Optional[str]:
        """Rejoin a dead node if one exists (same machine back), otherwise
        grow the cluster with a fresh node."""
        return (
            _restart_dead_node(self.runtime)
            or self.runtime.add_node().node_id.hex()
        )

    def _default_drain(self) -> Optional[str]:
        """Kill the least-backlogged live node, never the driver's node."""
        driver_id = self.runtime.driver_node.node_id
        candidates = [
            node
            for node in self.runtime.live_nodes()
            if node.node_id != driver_id
        ]
        if not candidates:
            return None
        victim = min(candidates, key=lambda n: n.local_scheduler.backlog())
        self.runtime.kill_node(victim.node_id)
        return victim.node_id.hex()


# ---------------------------------------------------------------------------
# Replica autoscaler: the serve plane's counterpart of the node policy
# ---------------------------------------------------------------------------


@dataclass
class ReplicaAutoscalerConfig:
    """Watermarks and damping for one deployment's replica-count policy."""

    # Scale up when queue depth per alive replica sits at/above this.
    high_watermark: float = 4.0
    # Scale down when queue depth per alive replica sits at/below this.
    low_watermark: float = 0.25
    # Consecutive over/under observations required before acting.
    hysteresis: int = 2
    cooldown_seconds: float = 1.0
    min_replicas: int = 1
    max_replicas: int = 8
    # Interval of the background policy thread.
    interval: float = 0.25


class ReplicaAutoscaler(_WatermarkPolicy):
    """Closed loop over one deployment's GCS serve-report row.

    The signal chain is deliberately identical to the node autoscaler's:
    the router publishes per-replica queue-depth/latency rows into the GCS
    (:meth:`~repro.gcs.client.GlobalControlStore.publish_serve_report`),
    and this policy reads *only* that table — never the router directly —
    so it could run in any process with GCS access.  Actions go through
    :meth:`ServePlane.scale_to`; every tick also *reconciles*: permanently
    dead replicas are replaced at current size (the chaos-recovery path),
    and a scale-up first restarts a dead node when one exists, since a
    killed node is usually why a replica is missing capacity.
    """

    def __init__(
        self,
        runtime: "Runtime",
        deployment: str,
        config: Optional[ReplicaAutoscalerConfig] = None,
    ):
        self.deployment = deployment
        self.replaced = 0
        super().__init__(
            runtime,
            config or ReplicaAutoscalerConfig(),
            f"replica-autoscaler-{deployment}",
        )

    # -- policy ------------------------------------------------------------

    def tick(self) -> Optional[Dict[str, Any]]:
        """One policy evaluation; returns the decision dict if an action
        was taken (and recorded), else None."""
        cfg = self.config
        row = self.runtime.gcs.get_serve_report(self.deployment)
        if not row or row.get("tombstone"):
            return None
        from repro.serve.deployment import get_plane

        plane = get_plane(self.runtime)

        # Reconcile first: replace permanently-dead replicas in place, and
        # repair node capacity so restarting replicas can actually place.
        dead_replicas = sum(1 for r in row.get("replicas", ()) if r.get("dead"))
        if dead_replicas:
            _restart_dead_node(self.runtime)
            replaced = plane.replace_dead_replicas(self.deployment)
            if replaced:
                self.replaced += replaced
                return self._decide("replace_replica", row, replaced=replaced)

        alive = row.get("alive_replicas") or 0
        num_replicas = row.get("num_replicas") or 0
        depth = row.get("queue_depth", 0) / max(1, alive)
        direction = self._observe(
            over=depth >= cfg.high_watermark, under=depth <= cfg.low_watermark
        )
        if direction == "up" and num_replicas < cfg.max_replicas:
            _restart_dead_node(self.runtime)
            action, target = "scale_up", num_replicas + 1
        elif direction == "down" and num_replicas > cfg.min_replicas:
            action, target = "scale_down", num_replicas - 1
        else:
            return None
        plane.scale_to(self.deployment, target)
        return self._decide(action, row, target=target)

    def _decide(self, action: str, row: Dict[str, Any], **extra: Any) -> Dict[str, Any]:
        return self._record(
            {
                "action": action,
                "kind": "serve_replicas",
                "deployment": self.deployment,
                "queue_depth": row.get("queue_depth"),
                "alive_replicas": row.get("alive_replicas"),
                "num_replicas": row.get("num_replicas"),
                "p99_ms": row.get("p99_ms"),
                "high_watermark": self.config.high_watermark,
                "low_watermark": self.config.low_watermark,
                **extra,
            }
        )
