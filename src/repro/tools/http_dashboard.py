"""A minimal Web UI over the GCS (the "Web UI" box of Figure 5).

Serves the cluster inspector's snapshot, the per-function profile, the
Chrome trace, the metrics registry, and the critical-path report as
JSON/HTML/Prometheus text over HTTP on localhost.  Everything is read from
the GCS and the runtime's metrics registry — the dashboard asks no
component for anything, the paper's point about tooling on a centralized
control store.

    from repro.tools.http_dashboard import DashboardServer
    server = DashboardServer(runtime)
    server.start()           # serves http://127.0.0.1:<port>
    ...
    server.stop()

Endpoints:
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

import json
import urllib.parse
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Optional

from repro.common.lockwatch import make_lock, make_thread
from repro.tools.critical_path import CriticalPath
from repro.tools.dashboard_head import DashboardHead
from repro.tools.inspect import ClusterInspector
from repro.tools.profiler import Profiler
from repro.tools.timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover
    import threading

    from repro.core.runtime import Runtime


def _sanitize(obj: Any) -> Any:
    """Replace non-finite floats with None, recursively.

    ``json.dumps`` happily emits bare ``Infinity``/``NaN`` tokens, which
    are *not* JSON — strict parsers (browsers, jq) reject the whole body.
    A never-called function's ``min_seconds`` is ``inf``, so this is a
    real path, not an edge case.
    """
    if isinstance(obj, float):
        return obj if obj == obj and obj not in (float("inf"), float("-inf")) else None
    if isinstance(obj, dict):
        return {key: _sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(value) for value in obj]
    return obj


def _json_dumps(obj: Any) -> str:
    # allow_nan=False turns any non-finite float that slips past
    # _sanitize into a loud ValueError instead of invalid JSON.
    return json.dumps(_sanitize(obj), allow_nan=False)


def _snapshot_json(runtime: "Runtime") -> str:
    return _json_dumps(asdict(ClusterInspector(runtime).snapshot()))


def _profile_json(runtime: "Runtime") -> str:
    profiles = Profiler(runtime).profiles()
    return _json_dumps(
        {
            name: {
                "calls": p.calls,
                "total_seconds": p.total_seconds,
                "mean_seconds": p.mean_seconds,
                "min_seconds": p.min_seconds,
                "max_seconds": p.max_seconds,
                "failures": p.failures,
            }
            for name, p in profiles.items()
        }
    )


# Every JSON/text endpoint the server exposes, linked from the index page
# (kept here, next to the dispatch table, so the two cannot drift).
ENDPOINTS = (
    "/snapshot",
    "/profile",
    "/trace",
    "/timeline_trace",
    "/tasks",
    "/waits",
    "/metrics",
    "/metrics.json",
    "/critical_path",
    "/nodes",
    "/cluster_load",
    "/events",
    "/serve",
    "/config",
)


class _BadQuery(ValueError):
    """A query parameter the endpoint cannot use: answered with 400."""


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
        raise _BadQuery(f"{name} must be a non-negative integer, got {raw!r}")
    return value


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


class DashboardServer:
    """A threaded HTTP server exposing GCS-derived cluster state."""

    def __init__(self, runtime: "Runtime", host: str = "127.0.0.1", port: int = 0):
        self.runtime = runtime
        self.head = DashboardHead(runtime)
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # silence request logging
                pass

            def do_GET(self):
                parsed = urllib.parse.urlsplit(self.path)
                path = parsed.path
                query = urllib.parse.parse_qs(parsed.query)
                status = 200
                try:
                    if path == "/":
                        body, content_type = _index_html(outer.runtime), "text/html"
                    elif path == "/snapshot":
                        body, content_type = _snapshot_json(outer.runtime), "application/json"
                    elif path == "/profile":
                        body, content_type = _profile_json(outer.runtime), "application/json"
                    elif path == "/trace":
                        body, content_type = (
                            Timeline(outer.runtime).to_chrome_trace(),
                            "application/json",
                        )
                    elif path == "/timeline_trace":
                        body, content_type = (
                            outer.head.timeline_trace(),
                            "application/json",
                        )
                    elif path == "/tasks":
                        body, content_type = (
                            _json_dumps(ClusterInspector(outer.runtime).tasks_by_status()),
                            "application/json",
                        )
                    elif path == "/waits":
                        body, content_type = (
                            _json_dumps(ClusterInspector(outer.runtime).wait_path_stats()),
                            "application/json",
                        )
                    elif path == "/metrics":
                        body, content_type = (
                            outer.runtime.metrics.to_prometheus_text(),
                            "text/plain; version=0.0.4",
                        )
                    elif path == "/metrics.json":
                        body, content_type = (
                            _json_dumps(outer.runtime.metrics.to_dict()),
                            "application/json",
                        )
                    elif path == "/critical_path":
                        body, content_type = (
                            _json_dumps(CriticalPath(outer.runtime).analyze().as_dict()),
                            "application/json",
                        )
                    elif path == "/nodes":
                        body, content_type = (
                            _json_dumps(outer.head.nodes_summary()),
                            "application/json",
                        )
                    elif path.startswith("/nodes/"):
                        detail = outer.head.node_detail(path[len("/nodes/"):])
                        if detail is None:
                            self.send_response(404)
                            self.end_headers()
                            return
                        body, content_type = _json_dumps(detail), "application/json"
                    elif path == "/cluster_load":
                        body, content_type = (
                            _json_dumps(outer.head.cluster_load()),
                            "application/json",
                        )
                    elif path == "/serve":
                        body, content_type = (
                            _json_dumps(outer.head.serve_summary()),
                            "application/json",
                        )
                    elif path == "/config":
                        body, content_type = (
                            _json_dumps(outer.head.config_panel()),
                            "application/json",
                        )
                    elif path == "/events":
                        since = _count_param(query, "since") or 0
                        limit = _count_param(query, "limit")
                        categories = query.get("category") or None
                        body, content_type = (
                            _json_dumps(
                                outer.head.events(
                                    since=since, limit=limit, categories=categories
                                )
                            ),
                            "application/json",
                        )
                    else:
                        self.send_response(404)
                        self.end_headers()
                        return
                except _BadQuery as exc:
                    status = 400
                    body = _json_dumps({"error": str(exc)})
                    content_type = "application/json"
                except Exception as exc:  # noqa: BLE001 - surface as 500
                    self.send_response(500)
                    self.end_headers()
                    self.wfile.write(str(exc).encode())
                    return
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._thread: Optional["threading.Thread"] = None
        self._lifecycle_lock = make_lock("DashboardServer._lifecycle_lock")
        self._stopped = False

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "DashboardServer":
        with self._lifecycle_lock:
            if self._thread is None and not self._stopped:
                self._thread = make_thread(
                    self._server.serve_forever, name="repro-dashboard",
                    daemon=True,
                )
                self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and close the listening socket; idempotent (a
        second ``server_close`` on an already-closed socket is the classic
        double-stop hazard this guards against)."""
        with self._lifecycle_lock:
            if self._stopped:
                return
            self._stopped = True
            thread = self._thread
        if thread is not None:
            # shutdown() blocks on serve_forever's exit handshake, so it
            # must only run when the serving thread was actually started.
            self._server.shutdown()
        self._server.server_close()
        if thread is not None:
            thread.join(timeout=5)
