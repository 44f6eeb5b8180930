"""A minimal Web UI over the GCS (the "Web UI" box of Figure 5).

Serves the cluster inspector's snapshot, the per-function profile, the
Chrome trace, the metrics registry, and the critical-path report as
JSON/HTML/Prometheus text over HTTP on localhost.  Everything is read from
the GCS and the runtime's metrics registry — the dashboard asks no
component for anything, the paper's point about tooling on a centralized
control store.

    from repro.tools.http_dashboard import DashboardServer
    server = DashboardServer(runtime)   # binds; server.address is known
    server.start()           # serves http://127.0.0.1:<port>
    ...
    server.stop()

Endpoints (every one but ``/`` and ``/nodes/<id>`` is a row of the route
table ``_ROUTES``, from which the index's ``ENDPOINTS`` links are derived;
an unknown path or node is a 404 and a failing endpoint a 500, each with a
JSON error body):
  /               tiny HTML overview (links every endpoint below)
  /snapshot       cluster snapshot JSON
  /profile        per-function execution statistics JSON
  /trace          Chrome trace JSON (load in chrome://tracing)
  /timeline_trace Chrome trace with node lanes + cluster-event marks
  /tasks          task-status counts JSON
  /waits          wait-path / notification-layer statistics JSON
  /metrics        cluster metrics, Prometheus text-exposition format
  /metrics.json   the same metrics as JSON
  /critical_path  critical-path report JSON
  /nodes          per-node panels (reporter rows; nodes_info fallback)
  /nodes/<id>     one node's panel (full hex id or unique prefix)
  /cluster_load   aggregate pressure signals (the autoscaler's inputs)
  /events         merged cluster event timeline
                  (?since=<cursor>&limit=<n>&category=<cat> pagination;
                  a non-integer or negative cursor or limit is a 400)
  /serve          deployment rows + latest router metrics reports
  /config         RuntimeConfig.describe() joined with current values
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.common.jsonhttp import BadRequest, JsonHTTPServer
from repro.tools.critical_path import CriticalPath
from repro.tools.dashboard_head import DashboardHead
from repro.tools.inspect import ClusterInspector
from repro.tools.profiler import Profiler
from repro.tools.timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Runtime


_PROFILE_KEYS = (
    "calls", "total_seconds", "mean_seconds", "min_seconds", "max_seconds", "failures"
)


def _profile(runtime: "Runtime") -> Dict[str, Dict[str, Any]]:
    return {
        name: {key: getattr(p, key) for key in _PROFILE_KEYS}
        for name, p in Profiler(runtime).profiles().items()
    }


def _count_param(query: dict, name: str) -> Optional[int]:
    """The non-negative integer query parameter ``name``, or None if absent."""
    raw = query.get(name, [None])[0]
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise BadRequest(f"{name} must be a non-negative integer, got {raw!r}")
    return value


def _events(server: "DashboardServer", query: dict) -> Dict[str, Any]:
    return server.head.events(
        since=_count_param(query, "since") or 0,
        limit=_count_param(query, "limit"),
        categories=query.get("category") or None,
    )


# path -> body(server, query): the dispatch table, and (as ENDPOINTS) the
# index page's links.  A ``str`` body is sent as is, anything else as JSON.
_ROUTES = {
    "/snapshot": lambda d, q: asdict(ClusterInspector(d.runtime).snapshot()),
    "/profile": lambda d, q: _profile(d.runtime),
    "/trace": lambda d, q: Timeline(d.runtime).to_chrome_trace(),
    "/timeline_trace": lambda d, q: d.head.timeline_trace(),
    "/tasks": lambda d, q: ClusterInspector(d.runtime).tasks_by_status(),
    "/waits": lambda d, q: ClusterInspector(d.runtime).wait_path_stats(),
    "/metrics": lambda d, q: d.runtime.metrics.to_prometheus_text(),
    "/metrics.json": lambda d, q: d.runtime.metrics.to_dict(),
    "/critical_path": lambda d, q: CriticalPath(d.runtime).analyze().as_dict(),
    "/nodes": lambda d, q: d.head.nodes_summary(),
    "/cluster_load": lambda d, q: d.head.cluster_load(),
    "/events": _events,
    "/serve": lambda d, q: d.head.serve_summary(),
    "/config": lambda d, q: d.head.config_panel(),
}
_HEADERS = {"/metrics": {"Content-Type": "text/plain; version=0.0.4"}}

ENDPOINTS = tuple(_ROUTES)


def _index_html(runtime: "Runtime") -> str:
    snapshot = ClusterInspector(runtime).snapshot()
    links = " · ".join(
        f'<a href="{path}">{path.lstrip("/")}</a>' for path in ENDPOINTS
    )
    return (
        "<html><head><title>repro dashboard</title></head><body>"
        "<h1>repro cluster</h1>"
        f"<pre>{snapshot.format()}</pre>"
        f"<p>{links}</p>"
        "</body></html>"
    )


class DashboardServer(JsonHTTPServer):
    """A threaded HTTP server exposing GCS-derived cluster state."""

    def __init__(self, runtime: "Runtime", host: str = "127.0.0.1", port: int = 0):
        self.runtime = runtime
        self.head = DashboardHead(runtime)
        super().__init__(self._handle, "repro-dashboard", host, port)

    def _handle(self, method: str, path: str, query: dict, _body: Any):
        if method != "GET":
            return 501, {"error": f"unsupported method {method}"}
        if path == "/":
            return 200, _index_html(self.runtime), {"Content-Type": "text/html"}
        if path.startswith("/nodes/"):
            detail = self.head.node_detail(path[len("/nodes/") :])
            return None if detail is None else (200, detail)
        route = _ROUTES.get(path)
        if route is None:
            return None
        return 200, route(self, query), _HEADERS.get(path, {})
