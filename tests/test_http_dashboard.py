"""The HTTP dashboard (Figure 5's "Web UI" riding on the GCS)."""

import json
import urllib.error
import urllib.request

import pytest

import repro
from repro.common.jsonhttp import dumps
from repro.tools.http_dashboard import DashboardServer


def strict_loads(body):
    """json.loads that rejects the bare Infinity/NaN tokens Python's
    encoder emits by default — the strictness real JSON parsers have."""

    def reject(token):
        raise ValueError(f"non-JSON constant in body: {token}")

    return json.loads(body, parse_constant=reject)


@repro.remote
def work(x):
    return x * 2


@pytest.fixture
def dashboard(runtime):
    server = DashboardServer(runtime).start()
    try:
        yield server
    finally:
        server.stop()


def fetch(server, path):
    with urllib.request.urlopen(server.address + path, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


class TestDashboard:
    def test_index_renders_html(self, dashboard):
        status, body = fetch(dashboard, "/")
        assert status == 200
        assert "<html>" in body
        assert "repro cluster" in body

    def test_snapshot_endpoint(self, runtime, dashboard):
        repro.get([work.remote(i) for i in range(4)])
        status, body = fetch(dashboard, "/snapshot")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["live_nodes"] == 2
        assert snapshot["tasks_by_status"].get("finished", 0) >= 4

    def test_profile_endpoint(self, runtime, dashboard):
        repro.get([work.remote(i) for i in range(3)])
        _status, body = fetch(dashboard, "/profile")
        profile = json.loads(body)
        assert profile["work"]["calls"] == 3
        assert profile["work"]["failures"] == 0

    def test_trace_endpoint(self, runtime, dashboard):
        repro.get(work.remote(1))
        _status, body = fetch(dashboard, "/trace")
        trace = json.loads(body)
        assert any(e.get("ph") == "X" for e in trace["traceEvents"])

    def test_tasks_endpoint(self, runtime, dashboard):
        repro.get(work.remote(1))
        _status, body = fetch(dashboard, "/tasks")
        assert json.loads(body).get("finished", 0) >= 1

    def test_metrics_endpoint_is_prometheus_text(self, runtime, dashboard):
        repro.get([work.remote(i) for i in range(3)])
        status, body = fetch(dashboard, "/metrics")
        assert status == 200
        assert "# TYPE tasks_submitted_total counter" in body
        assert "# TYPE scheduler_dispatch_seconds histogram" in body
        # Exposition shape: every non-comment line is "name{labels} value".
        for line in body.strip().splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part
            float(value)  # must parse

    def test_metrics_json_endpoint(self, runtime, dashboard):
        repro.get(work.remote(1))
        _status, body = fetch(dashboard, "/metrics.json")
        flat = strict_loads(body)
        assert flat["tasks_submitted_total"]["type"] == "counter"
        assert flat["wait_latency_seconds"]["type"] == "histogram"

    def test_critical_path_endpoint(self, runtime, dashboard):
        repro.get(work.remote(work.remote(1)))
        _status, body = fetch(dashboard, "/critical_path")
        report = strict_loads(body)
        assert len(report["steps"]) == 2
        assert report["coverage"] >= 0.9
        assert report["dominant_phase"] in ("scheduling", "transfer", "execution")

    def test_profile_json_valid_with_zero_call_function(self, runtime, dashboard):
        """Regression: FunctionProfile.min_seconds defaults to inf; the
        profile endpoint must still emit strictly valid JSON."""
        from repro.tools import profiler

        class InfProfiler(profiler.Profiler):
            def profiles(self):
                return {"ghost": profiler.FunctionProfile("ghost")}

        real = profiler.Profiler
        profiler.Profiler = InfProfiler
        try:
            from repro.tools import http_dashboard

            http_dashboard.Profiler = InfProfiler
            _status, body = fetch(dashboard, "/profile")
            profile = strict_loads(body)
            assert profile["ghost"]["min_seconds"] is None
        finally:
            profiler.Profiler = real
            http_dashboard.Profiler = real

    def test_all_json_endpoints_are_strict_json(self, runtime, dashboard):
        repro.get([work.remote(i) for i in range(2)])
        for path in (
            "/snapshot",
            "/profile",
            "/trace",
            "/timeline_trace",
            "/tasks",
            "/waits",
            "/metrics.json",
            "/critical_path",
            "/nodes",
            "/cluster_load",
            "/events",
        ):
            _status, body = fetch(dashboard, path)
            strict_loads(body)

    def test_sanitizer_maps_nonfinite_to_none(self):
        raw = {
            "inf": float("inf"),
            "ninf": float("-inf"),
            "nan": float("nan"),
            "nested": [1.0, {"x": float("inf")}],
        }
        out = strict_loads(dumps(raw))
        assert out["inf"] is None
        assert out["ninf"] is None
        assert out["nan"] is None
        assert out["nested"] == [1.0, {"x": None}]

    def test_unknown_path_404(self, dashboard):
        with pytest.raises(urllib.error.HTTPError) as info:
            fetch(dashboard, "/nope")
        assert info.value.code == 404

    def test_stop_is_clean(self, runtime):
        server = DashboardServer(runtime).start()
        server.stop()  # no exception; port released

    def test_index_links_every_endpoint(self, dashboard):
        from repro.tools.http_dashboard import ENDPOINTS

        _status, body = fetch(dashboard, "/")
        for path in ENDPOINTS:
            assert f'href="{path}"' in body, path


class TestNodesEndpoint:
    def test_nodes_fallback_without_reporters(self, runtime, dashboard):
        """Reporters are off by default; /nodes must still answer from
        Runtime.nodes_info()."""
        _status, body = fetch(dashboard, "/nodes")
        summary = strict_loads(body)
        assert summary["source"] == "runtime"
        assert summary["num_nodes"] == 2
        assert summary["num_alive"] == 2
        for node in summary["nodes"]:
            assert node["alive"] is True
            assert "resources" in node
            assert "report" not in node

    def test_nodes_with_reporters_carries_rows(self):
        rt = repro.init(num_nodes=2, reporters_enabled=True)
        server = DashboardServer(rt).start()
        try:
            _status, body = fetch(server, "/nodes")
            summary = strict_loads(body)
            assert summary["source"] == "reporters"
            for node in summary["nodes"]:
                assert node["report"]["node_id"] == node["node_id"]
                assert "backlog" in node["report"]
        finally:
            server.stop()
            repro.shutdown()

    def test_node_detail_by_prefix(self, runtime, dashboard):
        node_hex = runtime.nodes()[0].node_id.hex()
        _status, body = fetch(dashboard, f"/nodes/{node_hex[:8]}")
        assert strict_loads(body)["node_id"] == node_hex

    def test_node_detail_unknown_404(self, dashboard):
        with pytest.raises(urllib.error.HTTPError) as info:
            fetch(dashboard, "/nodes/ffffffffffff")
        assert info.value.code == 404

    def test_cluster_load_shape(self, runtime, dashboard):
        _status, body = fetch(dashboard, "/cluster_load")
        load = strict_loads(body)
        assert load["num_live_nodes"] == 2
        assert load["backlog_per_node"] >= 0.0


class TestEventsEndpoint:
    def test_events_are_seq_ordered(self, runtime, dashboard):
        repro.get([work.remote(i) for i in range(4)])
        _status, body = fetch(dashboard, "/events")
        page = strict_loads(body)
        seqs = [e["seq"] for e in page["events"]]
        assert seqs == sorted(seqs)
        assert page["next_cursor"] == (seqs[-1] if seqs else 0)
        assert "task_finished" in page["categories"]

    def test_cursor_pagination_covers_the_stream_without_overlap(
        self, runtime, dashboard
    ):
        repro.get([work.remote(i) for i in range(4)])
        _status, body = fetch(dashboard, "/events")
        full = strict_loads(body)["events"]
        assert full
        cursor, paged = 0, []
        for _ in range(1000):
            _status, body = fetch(dashboard, f"/events?since={cursor}&limit=3")
            page = strict_loads(body)
            if not page["events"]:
                break
            paged.extend(page["events"])
            cursor = page["next_cursor"]
        assert [e["seq"] for e in paged] == [e["seq"] for e in full]

    def test_cursor_returns_only_new_events(self, runtime, dashboard):
        repro.get(work.remote(1))
        _status, body = fetch(dashboard, "/events")
        cursor = strict_loads(body)["next_cursor"]
        _status, body = fetch(dashboard, f"/events?since={cursor}")
        assert strict_loads(body)["events"] == []
        repro.get(work.remote(2))
        _status, body = fetch(dashboard, f"/events?since={cursor}")
        fresh = strict_loads(body)["events"]
        assert fresh and all(e["seq"] > cursor for e in fresh)

    def test_bad_cursor_or_limit_is_400(self, runtime, dashboard):
        for query in ("since=abc", "since=-1", "limit=abc", "limit=-1", "limit=1.5"):
            with pytest.raises(urllib.error.HTTPError) as info:
                fetch(dashboard, f"/events?{query}")
            assert info.value.code == 400, query
            error = strict_loads(info.value.read())["error"]
            assert error.startswith(query.split("=")[0]), error

    def test_category_filter(self, runtime, dashboard):
        repro.get(work.remote(1))
        runtime.kill_node(runtime.nodes()[1].node_id)
        _status, body = fetch(dashboard, "/events?category=node_death")
        page = strict_loads(body)
        assert page["events"]
        assert all(e["category"] == "node_death" for e in page["events"])

    def test_node_lifecycle_interleaves_with_task_events(
        self, runtime, dashboard
    ):
        repro.get(work.remote(1))
        victim = runtime.nodes()[1]
        runtime.kill_node(victim.node_id)
        runtime.restart_node(victim.node_id)
        _status, body = fetch(dashboard, "/events")
        events = strict_loads(body)["events"]
        categories = [e["category"] for e in events]
        death, restart = categories.index("node_death"), categories.index(
            "node_restart"
        )
        assert death < restart
        assert "task_finished" in categories


class TestLifecycleHygiene:
    def test_double_stop_is_idempotent(self, runtime):
        server = DashboardServer(runtime).start()
        server.stop()
        server.stop()  # regression: second server_close used to be a hazard

    def test_stop_without_start_does_not_hang(self, runtime):
        DashboardServer(runtime).stop()

    def test_runtime_shutdown_stops_registered_server(self):
        rt = repro.init(num_nodes=1)
        server = rt.register_ops(DashboardServer(rt).start())
        repro.shutdown()
        # The serving thread is down and a second stop stays a no-op.
        assert server.thread is None or not server.thread.is_alive()
        server.stop()
