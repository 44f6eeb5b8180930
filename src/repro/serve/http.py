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

from typing import TYPE_CHECKING, Any

from repro.common.errors import BackpressureError, GetTimeoutError
from repro.common.jsonhttp import JsonHTTPServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.deployment import ServePlane

DEFAULT_QUERY_TIMEOUT_S = 30.0


class ServeHTTPServer(JsonHTTPServer):
    """Threaded localhost HTTP server bound to one serve plane."""

    def __init__(
        self,
        plane: "ServePlane",
        host: str = "127.0.0.1",
        port: int = 0,
        query_timeout_s: float = DEFAULT_QUERY_TIMEOUT_S,
    ):
        self._plane = plane
        self._query_timeout_s = query_timeout_s
        super().__init__(self._handle, "serve-http", host, port)

    @property
    def url(self) -> str:
        return self.address

    def _handle(self, method: str, path: str, _query: Any, payload: Any):
        if method == "GET" and path.rstrip("/") in ("", "/serve"):
            return 200, self._plane.summary()
        if method != "POST" or not path.startswith("/serve/"):
            return None
        name = path[len("/serve/") :].strip("/")
        if isinstance(payload, dict) and set(payload) == {"payload"}:
            payload = payload["payload"]
        try:
            handle = self._plane.handle(name)
        except KeyError:
            return 404, {"error": f"no deployment named {name!r}"}
        try:
            return 200, {"result": handle.query(payload, timeout=self._query_timeout_s)}
        except BackpressureError as exc:
            # Shed-with-429: the admission bound, not a failure.
            return 429, {"error": "backpressure", "detail": str(exc)}, {"Retry-After": "0"}
        except GetTimeoutError as exc:
            return 504, {"error": "timeout", "detail": str(exc)}
