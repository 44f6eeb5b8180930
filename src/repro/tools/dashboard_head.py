"""The dashboard head: aggregation over per-node reporter streams.

Sits between the GCS and the HTTP layer (:mod:`repro.tools.http_dashboard`)
and is the ops plane's read side:

* :meth:`DashboardHead.nodes_summary` — per-node panels, preferring
  reporter rows (:mod:`repro.tools.reporter`) and falling back to
  ``Runtime.nodes_info()`` when reporters are disabled, so ``/nodes``
  always answers.
* :meth:`DashboardHead.events` — the cluster event *timeline*: one
  seq-ordered strict-JSON stream merging task lifecycle events (PR 2),
  fault-injection events (PR 4), node death/rejoin, and autoscaler
  decisions, with since-cursor pagination.
* :meth:`DashboardHead.cluster_load` — the aggregate pressure signals
  (backlog per live node, store utilization) the autoscaler's policy loop
  watches; exposing them here keeps head and autoscaler reading the same
  numbers.
* :meth:`DashboardHead.timeline_trace` — :meth:`Timeline.to_chrome_trace`
  with cluster events drawn as instant marks, so scale-ups and node
  deaths are visible against the task spans that caused them.

Everything is derived from the GCS (reporter table + event log); the only
non-GCS input is the ``nodes_info()`` membership fallback — the paper's
Figure 5 tooling-on-the-control-store shape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.tools.reporter import sample_node
from repro.tools.timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Runtime

__all__ = ["DashboardHead"]

# Event categories rendered as instant marks in the node-lane trace.
_TRACE_INSTANT_CATEGORIES = [
    "node_death", "node_restart", "autoscaler_decision", "fault_injected"
]


class DashboardHead:
    """Aggregates GCS reporter rows and event logs for serving."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime

    # -- per-node panels ---------------------------------------------------

    def nodes_summary(self) -> Dict[str, Any]:
        """Cluster membership with per-node load panels.

        Each node's entry starts from the runtime membership snapshot
        (``nodes_info()`` — always available) and is enriched with its
        reporter row when one exists; ``source`` says which mode the
        cluster is in so clients can tell a quiet cluster from a
        reporters-off one.
        """
        reports = self.runtime.gcs.node_reports()
        nodes: List[Dict[str, Any]] = []
        seen = set()
        for info in self.runtime.nodes_info():
            node_hex = info["node_id"]
            seen.add(node_hex)
            entry = dict(info)
            row = reports.get(node_hex)
            if row is not None:
                entry["report"] = row
            nodes.append(entry)
        # Tombstoned rows for nodes the runtime no longer lists (none
        # today — kill_node keeps membership — but the table is the
        # durable record, so serve it completely).
        for node_hex, row in sorted(reports.items()):
            if node_hex not in seen:
                nodes.append(
                    {"node_id": node_hex, "alive": False, "report": row}
                )
        return {
            "source": "reporters" if reports else "runtime",
            "num_nodes": len(nodes),
            "num_alive": sum(1 for n in nodes if n.get("alive")),
            "nodes": nodes,
        }

    def node_detail(self, node_ref: str) -> Optional[Dict[str, Any]]:
        """One node's panel, addressed by full hex id or unique prefix."""
        summary = self.nodes_summary()
        matches = [
            n for n in summary["nodes"]
            if n["node_id"] == node_ref or n["node_id"].startswith(node_ref)
        ]
        if len(matches) != 1:
            return None
        return matches[0]

    # -- aggregate load (shared with the autoscaler) -----------------------

    def cluster_load(self) -> Dict[str, Any]:
        """Aggregate pressure signals over one row list: the live reporter
        rows, or rows sampled from the runtime directly when there are
        none yet, so the autoscaler still closes its loop with reporters
        disabled.  ``backlog_per_node`` is the primary scale signal:
        placed-but-unfinished tasks averaged over live nodes.
        """
        rows = [
            r for r in self.runtime.gcs.node_reports().values() if r.get("alive")
        ]
        source = "reporters"
        if not rows:
            rows = [sample_node(self.runtime, n) for n in self.runtime.live_nodes()]
            source = "runtime"
        backlog = sum(r.get("backlog", 0) for r in rows)
        return {
            "source": source,
            "num_live_nodes": len(rows),
            "backlog_total": backlog,
            "backlog_per_node": backlog / len(rows) if rows else 0.0,
            "queue_total": sum(r.get("queue_length", 0) for r in rows),
            "store_utilization_max": max(
                (r.get("store_utilization", 0.0) for r in rows), default=0.0
            ),
            "transfers_inflight": sum(r.get("transfers_inflight", 0) for r in rows),
        }

    # -- the serve plane ---------------------------------------------------

    def serve_summary(self) -> Dict[str, Any]:
        """Every deployment's current row joined with its latest router
        metrics report — both read purely from the GCS serve tables, so
        the panel works from any process with GCS access."""
        deployments = self.runtime.gcs.deployments()
        reports = self.runtime.gcs.serve_reports()
        out: Dict[str, Any] = {}
        for name, row in deployments.items():
            entry = dict(row)
            report = reports.get(name)
            if report is not None:
                entry["report"] = report
            out[name] = entry
        # Reports can outlive a deleted deployment row briefly; show them.
        for name, report in reports.items():
            out.setdefault(name, {})["report"] = report
        return out

    # -- runtime configuration ---------------------------------------------

    def config_panel(self) -> List[Dict[str, Any]]:
        """``RuntimeConfig.describe()`` joined with this cluster's actual
        values — the dashboard ``/config`` endpoint body."""
        from repro.core.runtime import RuntimeConfig

        current = self.runtime.config
        rows = []
        for row in RuntimeConfig.describe():
            entry = dict(row)
            entry["value"] = repr(getattr(current, row["name"], None))
            rows.append(entry)
        return rows

    # -- the event timeline ------------------------------------------------

    def events(
        self,
        since: int = 0,
        limit: Optional[int] = None,
        categories: Optional[List[str]] = None,
    ) -> Dict[str, Any]:
        """One page of the merged cluster event timeline.

        ``since`` is the cursor returned by the previous page
        (``next_cursor``); the first call passes 0.  Events are ordered by
        their cluster-wide ``seq`` stamp, so interleavings across
        categories (a ``node_death`` between two ``autoscaler_decision``
        entries) are faithful to record order.
        """
        records, next_cursor = self.runtime.landed_gcs().events_since(
            cursor=since, categories=categories, limit=limit
        )
        return {
            "events": [r.as_timeline_dict() for r in records],
            "next_cursor": next_cursor,
            "categories": self.runtime.gcs.event_categories(),
        }

    # -- Chrome trace with cluster-event marks -----------------------------

    def timeline_trace(self) -> str:
        """Node-lane Chrome trace with the node deaths, restarts,
        autoscaler decisions and injected faults drawn as instant marks."""
        records, _cursor = self.runtime.landed_gcs().events_since(
            categories=_TRACE_INSTANT_CATEGORIES
        )
        return Timeline(self.runtime).to_chrome_trace(records)
