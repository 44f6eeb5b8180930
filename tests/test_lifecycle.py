"""The shared component lifecycles: the interval ``Ticker`` and the one
JSON HTTP server, plus the serve router's report cadence that runs on a
ticker.  No test sleeps: each tick is gated by Events the test releases."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import serve
from repro.common.jsonhttp import JsonHTTPServer
from repro.common.lockwatch import Ticker
from repro.serve.router import _REPORT_INTERVAL


class Gate:
    """A tick that reports its entry and waits for the test's release."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self):
        self.entered.set()
        assert self.release.wait(10)


class TestTicker:
    def test_start_and_stop_are_idempotent(self):
        gate = Gate()
        ticker = Ticker("ticker-test", 0, gate)
        ticker.start()
        thread = ticker.thread
        ticker.start()
        assert ticker.thread is thread
        assert gate.entered.wait(10)
        gate.release.set()
        ticker.stop()
        ticker.stop()
        assert not thread.is_alive()
        ticker.start()  # a stopped ticker never restarts
        assert ticker.thread is thread and not thread.is_alive()

    def test_stop_without_start_returns(self):
        ticker = Ticker("ticker-test", 0, Gate())
        ticker.stop()
        ticker.start()
        assert ticker.thread is None

    def test_no_tick_runs_after_stop_returns(self):
        stop_returned = threading.Event()
        late = []
        gate = Gate()

        def tick():
            late.append(stop_returned.is_set())
            gate()

        ticker = Ticker("ticker-test", 0, tick)
        ticker.start()
        assert gate.entered.wait(10)
        # stop() waits out the running tick, which the test releases.
        stopper = threading.Thread(target=ticker.stop)
        stopper.start()
        gate.release.set()
        stopper.join(10)
        assert not stopper.is_alive()
        stop_returned.set()
        assert not ticker.thread.is_alive()
        assert late and not any(late)

    def test_stop_from_inside_a_tick_returns(self):
        returned = threading.Event()

        def tick():
            ticker.stop()
            returned.set()

        ticker = Ticker("ticker-test", 0, tick)
        ticker.start()
        assert returned.wait(10)
        ticker.thread.join(10)
        assert not ticker.thread.is_alive()

    def test_a_raising_tick_reaches_excepthook(self, monkeypatch):
        caught = []
        seen = threading.Event()

        def hook(args):
            caught.append(args)
            seen.set()

        def tick():
            raise RuntimeError("tick failed")

        monkeypatch.setattr(threading, "excepthook", hook)
        ticker = Ticker("ticker-raises", 0, tick)
        ticker.start()
        assert seen.wait(10)
        ticker.thread.join(10)
        assert not ticker.thread.is_alive()
        (args,) = caught
        assert args.exc_type is RuntimeError
        assert args.thread.name == "ticker-raises"


def _reject_constant(token):
    raise ValueError(f"non-JSON constant in body: {token}")


class TestJsonHTTPServer:
    @staticmethod
    def _handle(method, path, query, body):
        if path == "/values":
            return 200, {"inf": float("inf"), "nan": float("nan"), "x": [1.5]}
        return None

    def test_non_finite_floats_are_null_and_unknown_paths_404(self):
        server = JsonHTTPServer(self._handle, "json-http-test").start()
        try:
            with urllib.request.urlopen(server.address + "/values", timeout=10) as resp:
                assert resp.headers["Content-Type"] == "application/json"
                body = json.loads(resp.read(), parse_constant=_reject_constant)
            assert body == {"inf": None, "nan": None, "x": [1.5]}
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(server.address + "/nope", timeout=10)
            assert info.value.code == 404
        finally:
            server.stop()

    def test_stop_without_start_and_double_stop_return(self):
        JsonHTTPServer(self._handle, "json-http-test").stop()
        server = JsonHTTPServer(self._handle, "json-http-test").start()
        server.stop()
        server.stop()
        assert not server.thread.is_alive()


@serve.deployment(num_replicas=1, max_batch_size=4, batch_wait_timeout_s=0.01)
class Echo:
    def handle_batch(self, payloads):
        return payloads


def test_router_publishes_reports_on_its_ticker_only(runtime, monkeypatch):
    """Submits, dispatches and completions wake the router's condition;
    none of them may publish a serve report between ticks."""
    handle = Echo.deploy()
    assert handle.query("warm", timeout=30) == "warm"
    published = []
    publish = runtime.gcs.publish_serve_report

    def counted(name, row):
        published.append(name)
        publish(name, row)

    monkeypatch.setattr(runtime.gcs, "publish_serve_report", counted)
    started = time.monotonic()
    for i in range(40):
        assert handle.query(i, timeout=30) == i
    elapsed = time.monotonic() - started
    reports = published.count("Echo")
    assert reports <= 2 + elapsed / _REPORT_INTERVAL, (reports, elapsed)
