"""The one threaded JSON-over-HTTP server of the runtime's HTTP surfaces.

:class:`JsonHTTPServer` owns the ``ThreadingHTTPServer``, its serving
thread and the reply; a surface (the dashboard, the serve ingress)
supplies one ``handle(method, path, query, body)`` that answers a request
with ``(status, body)`` or ``(status, body, headers)``:

* a ``str`` body is sent as is (``Content-Type`` from ``headers``,
  ``application/json`` by default); any other body is sent as
  :func:`dumps` JSON;
* ``None`` from ``handle`` is a 404 for an unknown path;
* :class:`BadRequest` raised by ``handle`` (or by the server for a POST
  whose ``Content-Length`` is not a count or whose body is not JSON) is a
  400, and any other exception a 500, each with a JSON error body.

The server binds at construction (so :attr:`JsonHTTPServer.address` is
known before ``start``), starts once and stops once.
"""

from __future__ import annotations

import json
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List

from repro.common.lockwatch import JOIN_TIMEOUT, make_lock, make_thread

__all__ = ["BadRequest", "JsonHTTPServer", "dumps", "sanitize"]


def sanitize(obj: Any) -> Any:
    """Replace non-finite floats with None, recursively.

    ``json.dumps`` happily emits bare ``Infinity``/``NaN`` tokens, which
    are *not* JSON — strict parsers (browsers, jq) reject the whole body.
    A never-called function's ``min_seconds`` is ``inf``, so this is a
    real path, not an edge case.
    """
    if isinstance(obj, float):
        return obj if obj == obj and obj not in (float("inf"), float("-inf")) else None
    if isinstance(obj, dict):
        return {key: sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(value) for value in obj]
    return obj


def dumps(obj: Any) -> str:
    # allow_nan=False turns any non-finite float that slips past
    # sanitize into a loud ValueError instead of invalid JSON.
    return json.dumps(sanitize(obj), allow_nan=False)


class BadRequest(ValueError):
    """Input the handler cannot use: answered with 400."""


Handle = Callable[[str, str, Dict[str, List[str]], Any], Any]


class _Handler(BaseHTTPRequestHandler):
    server: "_Server"

    def log_message(self, *args: Any) -> None:  # silence request logging
        pass

    def do_GET(self) -> None:
        self._answer("GET")

    def do_POST(self) -> None:
        self._answer("POST")

    def _body(self) -> Any:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            # Reading a negative or unparsable length would block or drop
            # the connection without a reply.
            raise BadRequest(f"bad Content-Length {declared!r}")
        try:
            return json.loads(self.rfile.read(length).decode() or "null")
        except ValueError:
            raise BadRequest("body is not valid JSON") from None

    def _answer(self, method: str) -> None:
        url = urllib.parse.urlsplit(self.path)
        try:
            body = self._body() if method == "POST" else None
            reply = self.server.answer(
                method, url.path, urllib.parse.parse_qs(url.query), body
            )
            if reply is None:
                reply = 404, {"error": f"unknown path {url.path!r}"}
        except BadRequest as exc:
            reply = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - surface as 500
            reply = 500, {"error": type(exc).__name__, "detail": str(exc)}
        status, body, headers = reply if len(reply) == 3 else (*reply, {})
        data = (body if isinstance(body, str) else dumps(body)).encode("utf-8")
        self.send_response(status)
        for key, value in {"Content-Type": "application/json", **headers}.items():
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class _Server(ThreadingHTTPServer):
    def __init__(self, address, handle: Handle) -> None:
        super().__init__(address, _Handler)
        self.answer = handle


class JsonHTTPServer:
    """A threaded localhost HTTP server answering every request with
    ``handle``; serves on one thread named ``name`` between ``start`` and
    ``stop``."""

    def __init__(
        self, handle: Handle, name: str, host: str = "127.0.0.1", port: int = 0
    ):
        self.name = name
        self._server = _Server((host, port), handle)
        self._lock = make_lock("JsonHTTPServer._lock")
        self._stopped = False
        self.thread = None

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self):
        with self._lock:
            if self.thread is None and not self._stopped:
                self.thread = make_thread(self._server.serve_forever, name=self.name)
                self.thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and close the listening socket; idempotent (a
        second ``server_close`` on an already-closed socket is the classic
        double-stop hazard this guards against)."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            thread = self.thread
        if thread is not None:
            # shutdown() blocks on serve_forever's exit handshake, so it
            # must only run when the serving thread was actually started.
            self._server.shutdown()
        self._server.server_close()
        if thread is not None:
            thread.join(JOIN_TIMEOUT)
