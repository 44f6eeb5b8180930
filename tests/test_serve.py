"""The serve plane: batching, backpressure, retry, hot swap, autoscaling.

Router edge cases from the PR issue: batch cut on timeout vs size,
backpressure shed (plus its HTTP 429 mapping), and replica death mid-batch
retrying on a sibling.  Plus deployment lifecycle (versioned hot swap with
drain), the GCS serve tables, the dashboard panels, and the replica
autoscaler's scale-up / scale-down / replace-dead reconciliation.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro import serve
from repro.common.errors import BackpressureError, GetTimeoutError
from repro.gcs.tables import TaskStatus
from repro.tools.autoscaler import ReplicaAutoscaler, ReplicaAutoscalerConfig


@serve.deployment(num_replicas=1, max_batch_size=4, batch_wait_timeout_s=5.0)
class Batcher:
    def __init__(self):
        self.calls = 0

    def handle_batch(self, payloads):
        self.calls += 1
        return [(p, len(payloads)) for p in payloads]


@serve.deployment(num_replicas=1, max_batch_size=1, batch_wait_timeout_s=0.01)
class Slow:
    def __init__(self, delay=0.2):
        self.delay = delay

    def handle_batch(self, payloads):
        time.sleep(self.delay)
        return list(payloads)


_gate = threading.Event()  # a "hold" batch waits on it
_held = threading.Event()  # set once a "hold" batch is running


@serve.deployment(num_replicas=2, max_batch_size=4, batch_wait_timeout_s=5.0)
class Gated:
    def handle_batch(self, payloads):
        if payloads == ["hold"]:
            _held.set()
            _gate.wait(20)
        return [(p, len(payloads)) for p in payloads]


@pytest.fixture
def held_batch():
    """Deploy ``Gated`` and keep one batch in flight on one replica until
    the test opens the gate (or ends)."""

    def hold(**options):
        _gate.clear()
        _held.clear()
        handle = Gated.options(**options).deploy()
        future = handle.submit("hold")
        assert _held.wait(10)
        return handle, future

    try:
        yield hold
    finally:
        _gate.set()


class TestBatching:
    def test_lone_request_to_idle_deployment_is_sent_at_once(self, runtime):
        """Nothing is in flight, so the request is cut as it arrives, not
        after half of its 5 s budget."""
        handle = Batcher.deploy()
        start = time.perf_counter()
        assert handle.query(42, timeout=10) == (42, 1)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"a lone request waited {elapsed:.2f}s"

    def test_batch_cut_on_size(self, runtime, held_batch):
        """Behind an in-flight batch, four submissions fill
        max_batch_size=4 and cut at once: the idle sibling answers them
        while the held batch still runs, long before the 2.5 s half-budget
        deadline."""
        handle, held = held_batch()
        futures = [handle.submit(i) for i in range(4)]
        results = [f.result(timeout=2.0) for f in futures]
        assert results == [(i, 4) for i in range(4)], "expected one 4-wide batch"
        assert not held.done()
        _gate.set()
        assert held.result(timeout=10) == ("hold", 1)

    def test_batch_cut_on_timeout(self, runtime, held_batch):
        """Behind an in-flight batch, a lone request waits until half its
        0.4 s budget is spent, then goes to the idle sibling."""
        handle, held = held_batch(max_batch_size=8, batch_wait_timeout_s=0.4)
        start = time.perf_counter()
        assert handle.query(42, timeout=10) == (42, 1)
        assert time.perf_counter() - start >= 0.2
        assert not held.done()

    def test_batch_cut_when_inflight_batch_returns(self, runtime, held_batch):
        """Behind an in-flight batch, a lone request with a 5 s budget
        coalesces (the idle sibling does not get it) until that batch
        returns, then goes at once."""
        handle, held = held_batch()
        future = handle.submit(42)
        with pytest.raises(GetTimeoutError):
            future.result(timeout=0.3)
        _gate.set()
        assert held.result(timeout=10) == ("hold", 1)
        assert future.result(timeout=2.0) == (42, 1)

    def test_function_deployment(self, runtime):
        @serve.deployment(max_batch_size=2, batch_wait_timeout_s=0.02)
        def double(x):
            return x * 2

        handle = double.deploy()
        assert handle.query_many([1, 2, 3], timeout=10) == [2, 4, 6]

    def test_future_timeout(self, runtime):
        handle = Slow.deploy(0.5)
        future = handle.submit("x")
        with pytest.raises(GetTimeoutError):
            future.result(timeout=0.01)
        assert future.result(timeout=10) == "x"


class TestBatchResults:
    def test_router_frees_results_and_keeps_lineage(self, runtime):
        """The router is a batch result's only reader: once a caller has
        its reply, no store holds the result and no location is live, while
        the method's task row stays and a restarted replica replays it."""
        handle = Batcher.options(batch_wait_timeout_s=0.02).deploy()
        for i in range(20):
            assert handle.query(i, timeout=10) == (i, 1)
        replica = repro.get_actor("serve:Batcher#v1:0")
        runtime.flush_finishes()  # the finishes land behind the replies
        batches = [
            spec
            for spec in runtime.gcs.actor_method_log(replica.actor_id)
            if spec.function_name.endswith("handle_batch")
        ]
        assert len(batches) == 20
        for spec in batches:
            [object_id] = spec.return_ids
            assert not any(node.store.contains(object_id) for node in runtime.nodes())
            assert runtime.gcs.get_object_locations(object_id) == set()
            assert runtime.gcs.get_task(spec.task_id).status is TaskStatus.FINISHED
        repro.kill(replica, restart=True)
        assert repro.get(replica.info.remote(), timeout=20)["handled"] == 20


class TestBackpressure:
    def test_shed_when_queue_full(self, runtime):
        handle = Slow.options(max_queue_per_replica=2).deploy(0.3)
        futures, shed = [], 0
        for i in range(10):
            try:
                futures.append(handle.submit(i))
            except BackpressureError:
                shed += 1
        assert shed > 0, "10 instant submissions must overflow a 2-deep queue"
        # Admitted requests still complete.
        for future in futures:
            future.result(timeout=20)
        assert handle.stats()["shed"] == shed

    def test_shed_recovers(self, runtime):
        handle = Slow.options(max_queue_per_replica=1).deploy(0.1)
        with pytest.raises(BackpressureError):
            for i in range(8):
                handle.submit(i)
        # After the queue drains, submissions are accepted again.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                assert handle.query("again", timeout=10) == "again"
                break
            except BackpressureError:
                time.sleep(0.05)
        else:
            pytest.fail("backpressure never cleared")


class TestReplicaDeath:
    def test_mid_batch_death_retries_on_sibling(self, runtime):
        handle = Slow.options(
            num_replicas=2, max_restarts=0, max_queue_per_replica=64
        ).deploy(0.5)
        futures = [handle.submit(i) for i in range(2)]
        time.sleep(0.15)  # let both batches dispatch, one per replica
        victim = repro.get_actor("serve:Slow#v1:0")
        repro.kill(victim, restart=False)
        # Both requests still answer: the dead replica's batch is retried
        # on its sibling.
        assert sorted(f.result(timeout=20) for f in futures) == [0, 1]
        stats = handle.stats()
        assert stats["retries"] >= 1
        dead = [r for r in stats["replicas"] if r["dead"]]
        assert len(dead) == 1

    def test_all_replicas_dead_propagates_error(self, runtime):
        handle = Slow.options(num_replicas=1, max_restarts=0).deploy(0.3)
        future = handle.submit("doomed")
        time.sleep(0.1)
        repro.kill(repro.get_actor("serve:Slow#v1:0"), restart=False)
        with pytest.raises(Exception):
            future.result(timeout=20)


class TestHotSwap:
    def test_versioned_redeploy_swaps_and_drains(self, runtime):
        @serve.deployment(num_replicas=2, max_batch_size=4, batch_wait_timeout_s=0.02)
        class Model:
            def __init__(self, tag):
                self.tag = tag

            def handle_batch(self, payloads):
                return [(self.tag, p) for p in payloads]

        handle = Model.deploy("v1")
        assert handle.query(1, timeout=10) == ("v1", 1)
        assert handle.version == 1

        handle2 = Model.deploy("v2")
        assert handle2.version == 2
        assert handle2.query(1, timeout=10) == ("v2", 1)

        plane = serve.get_plane(runtime)
        plane.wait_drains()
        # Old replicas were drained to permanent death: their names freed.
        with pytest.raises(ValueError):
            repro.get_actor("serve:Model#v1:0")

        row = runtime.gcs.get_deployment("Model")
        assert row["version"] == 2
        assert all("#v2:" in name for name in row["replicas"])
        history = runtime.gcs.deployment_history("Model")
        assert [entry["version"] for entry in history] == [1, 2]

    def test_drain_waits_for_inflight(self, runtime):
        @repro.remote
        class Worker:
            def work(self):
                time.sleep(0.3)
                return "done"

        worker = Worker.remote()
        refs = [worker.work.remote() for _ in range(3)]
        assert runtime.drain_actor(worker.actor_id, timeout=10)
        # Every pre-drain call completed before the kill.
        assert repro.get(refs, timeout=10) == ["done"] * 3

    def test_deployment_handle_repr(self, runtime):
        handle = Batcher.deploy()
        assert repr(handle) == "DeploymentHandle('Batcher', version=1, replicas=1)"


class TestReplicaAutoscaler:
    def _autoscaler(self, runtime, name, **overrides):
        config = ReplicaAutoscalerConfig(
            high_watermark=2.0,
            low_watermark=0.5,
            hysteresis=1,
            cooldown_seconds=0.0,
            min_replicas=1,
            max_replicas=4,
            **overrides,
        )
        return ReplicaAutoscaler(runtime, name, config)

    def test_scale_up_then_down(self, runtime):
        handle = Slow.options(max_queue_per_replica=64).deploy(0.2)
        scaler = self._autoscaler(runtime, "Slow")
        router = serve.get_plane(runtime).get("Slow").router

        futures = [handle.submit(i) for i in range(12)]
        router.publish_report()
        decision = scaler.tick()
        assert decision is not None and decision["action"] == "scale_up"
        assert handle.num_replicas == 2

        for future in futures:
            future.result(timeout=30)
        router.publish_report()
        decision = scaler.tick()
        assert decision is not None and decision["action"] == "scale_down"
        assert handle.num_replicas == 1

    @pytest.mark.parametrize("kill", ["replica", "node"])
    def test_replaces_permanently_dead_replica(self, runtime, kill):
        # num_cpus=3 on 4-CPU nodes puts one replica on each node, so a
        # killed node's replica fits again only once the tick restarts it.
        options = {"num_cpus": 3} if kill == "node" else {}
        handle = Slow.options(num_replicas=2, max_restarts=0, **options).deploy(0.05)
        handle.query("warm", timeout=10)
        if kill == "node":
            runtime.kill_node(runtime.nodes()[1].node_id)
        else:
            repro.kill(repro.get_actor("serve:Slow#v1:0"), restart=False)

        scaler = self._autoscaler(runtime, "Slow")
        router = serve.get_plane(runtime).get("Slow").router
        router.publish_report()
        decision = scaler.tick()
        assert decision is not None and decision["action"] == "replace_replica"
        assert all(node.alive for node in runtime.nodes())
        stats = handle.stats()
        assert stats["alive_replicas"] == 2
        assert handle.query("after", timeout=10) == "after"

    def test_decisions_land_in_event_timeline(self, runtime):
        handle = Slow.options(max_queue_per_replica=64).deploy(0.2)
        scaler = self._autoscaler(runtime, "Slow")
        router = serve.get_plane(runtime).get("Slow").router
        futures = [handle.submit(i) for i in range(12)]
        router.publish_report()
        scaler.tick()
        records, _ = runtime.gcs.events_since(0, categories=["autoscaler_decision"])
        kinds = [r.as_dict().get("kind") for r in records]
        assert "serve_replicas" in kinds
        for future in futures:
            future.result(timeout=30)


class TestServeTables:
    def test_report_published_into_gcs(self, runtime):
        handle = Batcher.deploy()
        handle.query(1, timeout=10)
        router = serve.get_plane(runtime).get("Batcher").router
        row = router.publish_report()
        stored = runtime.gcs.get_serve_report("Batcher")
        assert stored["seq"] == row["seq"]
        assert stored["deployment"] == "Batcher"
        assert stored["p99_ms"] is not None
        assert runtime.gcs.serve_reports()["Batcher"]["seq"] == row["seq"]

    def test_dashboard_serve_and_config_endpoints(self, runtime):
        from repro.tools.http_dashboard import DashboardServer

        handle = Batcher.deploy()
        handle.query(1, timeout=10)
        serve.get_plane(runtime).get("Batcher").router.publish_report()
        server = DashboardServer(runtime).start()
        try:
            base = server.address
            with urllib.request.urlopen(base + "/serve", timeout=10) as resp:
                body = json.loads(resp.read())
            assert body["Batcher"]["version"] == 1
            assert body["Batcher"]["report"]["deployment"] == "Batcher"
            with urllib.request.urlopen(base + "/config", timeout=10) as resp:
                config = json.loads(resp.read())
            fields = {row["name"]: row for row in config}
            assert fields["num_nodes"]["value"] == "2"
            assert fields["gcs_shards"]["doc"]
        finally:
            server.stop()

    def test_delete_tombstones(self, runtime):
        Batcher.deploy().query(1, timeout=10)
        plane = serve.get_plane(runtime)
        plane.get("Batcher").router.publish_report()
        plane.delete("Batcher")
        assert runtime.gcs.get_deployment("Batcher")["deleted"]
        assert runtime.gcs.get_serve_report("Batcher")["tombstone"]
        with pytest.raises(KeyError):
            plane.handle("Batcher")


class TestHTTPIngress:
    def test_query_404_and_429(self, runtime):
        handle = Slow.options(max_queue_per_replica=1).deploy(0.3)
        assert handle.query("warm", timeout=10) == "warm"
        server = serve.ServeHTTPServer(serve.get_plane(runtime)).start()
        try:
            url = server.url

            def post(name, payload):
                request = urllib.request.Request(
                    f"{url}/serve/{name}",
                    data=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                try:
                    with urllib.request.urlopen(request, timeout=30) as resp:
                        return resp.status, json.loads(resp.read())
                except urllib.error.HTTPError as exc:
                    return exc.code, json.loads(exc.read())

            status, body = post("Slow", "ping")
            assert status == 200 and body["result"] == "ping"

            status, _body = post("nosuch", 1)
            assert status == 404

            with ThreadPoolExecutor(max_workers=8) as pool:
                codes = [
                    status
                    for status, _ in pool.map(lambda i: post("Slow", i), range(8))
                ]
            assert 200 in codes
            assert 429 in codes, f"expected a shed among {codes}"

            with urllib.request.urlopen(f"{url}/serve", timeout=10) as resp:
                summary = json.loads(resp.read())
            assert summary["Slow"]["shed"] >= 1
        finally:
            server.stop()

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, runtime, length):
        server = serve.ServeHTTPServer(serve.get_plane(runtime)).start()
        try:
            address = urllib.parse.urlsplit(server.url)
            with socket.create_connection(
                (address.hostname, address.port), timeout=5
            ) as sock:
                sock.sendall(
                    b"POST /serve/Slow HTTP/1.1\r\nHost: localhost\r\n"
                    b"Content-Length: " + length.encode() + b"\r\n\r\n"
                )
                reply = b""
                while chunk := sock.recv(4096):
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.split(b"\r\n")[0].endswith(b" 400 Bad Request")
            assert "Content-Length" in json.loads(body)["error"]
        finally:
            server.stop()
