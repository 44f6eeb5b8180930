"""HTTP ingress for the serve plane: JSON in, JSON out, 429 on shed.

A thin localhost front door over :class:`repro.serve.deployment.ServePlane`
(the process-internal path — ``handle.query`` — stays the fast path; this
exists so external load generators and the benchmark's Clipper comparison
hit a real HTTP surface):

    POST /serve/<deployment>   body: JSON payload (or {"payload": ...})
        200 {"result": ...}          answered
        400 body is not JSON, or Content-Length is not a count
        429 {"error": "backpressure", ...}   admission bound hit — back off
        404 unknown deployment
        500 {"error": ...}           replica raised
    GET  /serve                 router stats for every deployment

Backpressure is the point: the router's :class:`BackpressureError` maps to
429 + Retry-After instead of an unbounded queue.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Optional

from repro.common.errors import BackpressureError, GetTimeoutError
from repro.common.lockwatch import make_lock, make_thread

if TYPE_CHECKING:  # pragma: no cover
    import threading

    from repro.serve.deployment import ServePlane

DEFAULT_QUERY_TIMEOUT_S = 30.0


def _sanitize(obj: Any) -> Any:
    if isinstance(obj, float):
        return obj if obj == obj and obj not in (float("inf"), float("-inf")) else None
    if isinstance(obj, dict):
        return {key: _sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(value) for value in obj]
    return obj


class ServeHTTPServer:
    """Threaded localhost HTTP server bound to one serve plane."""

    def __init__(
        self,
        plane: "ServePlane",
        host: str = "127.0.0.1",
        port: int = 0,
        query_timeout_s: float = DEFAULT_QUERY_TIMEOUT_S,
    ):
        self._plane = plane
        self._host = host
        self._port = port
        self._query_timeout_s = query_timeout_s
        self._lock = make_lock("serve.ServeHTTPServer._lock")
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional["threading.Thread"] = None

    @property
    def url(self) -> str:
        with self._lock:
            if self._httpd is None:
                raise RuntimeError("server not started")
            host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ServeHTTPServer":
        with self._lock:
            if self._httpd is not None:
                return self
            plane = self._plane
            timeout = self._query_timeout_s

            class Handler(BaseHTTPRequestHandler):
                def log_message(self, *args: Any) -> None:  # silence stderr
                    pass

                def _reply(self, code: int, body: Any, headers=()) -> None:
                    data = json.dumps(_sanitize(body), allow_nan=False).encode()
                    self.send_response(code)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    for key, value in headers:
                        self.send_header(key, value)
                    self.end_headers()
                    self.wfile.write(data)

                def do_GET(self) -> None:
                    if self.path.rstrip("/") in ("", "/serve"):
                        self._reply(200, plane.summary())
                        return
                    self._reply(404, {"error": f"unknown path {self.path!r}"})

                def do_POST(self) -> None:
                    if not self.path.startswith("/serve/"):
                        self._reply(404, {"error": f"unknown path {self.path!r}"})
                        return
                    name = self.path[len("/serve/") :].strip("/")
                    declared = self.headers.get("Content-Length") or "0"
                    try:
                        length = int(declared)
                    except ValueError:
                        length = -1
                    if length < 0:
                        # Reading a negative or unparsable length would
                        # block or drop the connection without a reply.
                        self._reply(
                            400, {"error": f"bad Content-Length {declared!r}"}
                        )
                        return
                    raw = self.rfile.read(length) if length else b"null"
                    try:
                        payload = json.loads(raw.decode() or "null")
                    except ValueError:
                        self._reply(400, {"error": "body is not valid JSON"})
                        return
                    if isinstance(payload, dict) and set(payload) == {"payload"}:
                        payload = payload["payload"]
                    try:
                        handle = plane.handle(name)
                    except KeyError:
                        self._reply(404, {"error": f"no deployment named {name!r}"})
                        return
                    try:
                        result = handle.query(payload, timeout=timeout)
                    except BackpressureError as exc:
                        # Shed-with-429: the admission bound, not a failure.
                        self._reply(
                            429,
                            {"error": "backpressure", "detail": str(exc)},
                            headers=(("Retry-After", "0"),),
                        )
                    except GetTimeoutError as exc:
                        self._reply(504, {"error": "timeout", "detail": str(exc)})
                    except Exception as exc:
                        self._reply(
                            500, {"error": type(exc).__name__, "detail": str(exc)}
                        )
                    else:
                        self._reply(200, {"result": result})

            self._httpd = ThreadingHTTPServer((self._host, self._port), Handler)
            self._httpd.daemon_threads = True
            self._thread = make_thread(
                self._httpd.serve_forever, name="serve-http", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        with self._lock:
            httpd, thread = self._httpd, self._thread
            self._httpd = self._thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=2.0)
