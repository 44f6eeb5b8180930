#!/usr/bin/env python
"""Dashboard smoke check for CI: boot a small cluster, run a mixed
task+actor workload, then hit every dashboard endpoint and validate the
response shape — strict JSON where JSON is promised, well-formed
Prometheus exposition for /metrics, and the full documented series
catalog present.

Run as: PYTHONPATH=src python scripts/dashboard_smoke.py
Exits non-zero (with a message) on the first violation.
"""

import json
import sys
import urllib.request

import repro
from repro.tools.http_dashboard import DashboardServer

JSON_ENDPOINTS = (
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
)

REQUIRED_SERIES = (
    "scheduler_tasks_placed_total",
    "scheduler_queue_depth",
    "global_scheduler_decisions_total",
    "object_store_puts_total",
    "object_store_used_bytes",
    "transfer_bytes_total",
    "fetch_seconds",
    "gcs_ops_total",
    "gcs_publishes_total",
    "reconstruction_tasks_total",
    "tasks_submitted_total",
    "actor_methods_submitted_total",
    "wait_latency_seconds",
)


@repro.remote
def step(x):
    return x + 1


@repro.remote
class Tally:
    def __init__(self):
        self.total = 0

    def add(self, x):
        self.total += x
        return self.total


def strict_loads(body):
    def reject(token):
        raise SystemExit(f"FAIL: non-JSON constant {token!r} in response body")

    return json.loads(body, parse_constant=reject)


def fetch(address, path):
    with urllib.request.urlopen(address + path, timeout=10) as response:
        if response.status != 200:
            raise SystemExit(f"FAIL: GET {path} -> {response.status}")
        return response.read().decode("utf-8")


def check_prometheus(body):
    seen = set()
    for line in body.strip().splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            if kind not in ("counter", "gauge", "histogram"):
                raise SystemExit(f"FAIL: unknown metric type line: {line!r}")
            seen.add(name)
        elif line.startswith("#"):
            continue
        else:
            name_part, _, value = line.rpartition(" ")
            if not name_part:
                raise SystemExit(f"FAIL: malformed sample line: {line!r}")
            float(value)  # must parse as a number
    missing = [name for name in REQUIRED_SERIES if name not in seen]
    if missing:
        raise SystemExit(f"FAIL: /metrics missing documented series: {missing}")


def check_trace(path, body):
    """A Chrome trace with task spans, where every drawn lane is named by
    exactly one ``process_name`` event."""
    events = body["traceEvents"]
    if not any(e["ph"] == "X" for e in events):
        raise SystemExit(f"FAIL: {path} has no X (task span) events")
    named = [e["pid"] for e in events if e["name"] == "process_name"]
    for pid in {e["pid"] for e in events if e["ph"] in ("X", "i")}:
        if named.count(pid) != 1:
            raise SystemExit(
                f"FAIL: {path} pid {pid} has {named.count(pid)} process_name events"
            )


def check_ops_plane(address):
    """The PR 7 surface: reporter-backed /nodes and the /events cursor."""
    nodes = strict_loads(fetch(address, "/nodes"))
    if nodes["source"] != "reporters":
        raise SystemExit(f"FAIL: /nodes not reporter-backed: {nodes['source']}")
    if nodes["num_alive"] != 2:
        raise SystemExit(f"FAIL: /nodes num_alive {nodes['num_alive']} != 2")
    for node in nodes["nodes"]:
        if "backlog" not in node.get("report", {}):
            raise SystemExit(f"FAIL: /nodes row missing reporter fields: {node}")
    detail = strict_loads(
        fetch(address, "/nodes/" + nodes["nodes"][0]["node_id"][:8])
    )
    if detail["node_id"] != nodes["nodes"][0]["node_id"]:
        raise SystemExit("FAIL: /nodes/<prefix> returned the wrong node")

    full = strict_loads(fetch(address, "/events"))
    seqs = [e["seq"] for e in full["events"]]
    if not seqs or seqs != sorted(seqs):
        raise SystemExit(f"FAIL: /events not a non-empty ordered stream: {seqs}")
    cursor, paged = 0, []
    while True:
        page = strict_loads(fetch(address, f"/events?since={cursor}&limit=5"))
        if not page["events"]:
            break
        paged.extend(e["seq"] for e in page["events"])
        cursor = page["next_cursor"]
    if paged != seqs:
        raise SystemExit("FAIL: /events cursor pagination lost or re-sent events")


def main():
    repro.init(num_nodes=2, num_cpus_per_node=2, reporters_enabled=True)
    server = DashboardServer(repro.api._global_runtime).start()
    try:
        # Mixed workload: a dependency chain, parallel tasks, actor calls.
        ref = step.remote(0)
        for _ in range(3):
            ref = step.remote(ref)
        tally = Tally.remote()
        repro.get([step.remote(i) for i in range(8)])
        repro.get([tally.add.remote(i) for i in range(4)])
        assert repro.get(ref) == 4

        index = fetch(server.address, "/")
        if "<html>" not in index:
            raise SystemExit("FAIL: / did not return HTML")

        for path in JSON_ENDPOINTS:
            body = strict_loads(fetch(server.address, path))
            if path in ("/trace", "/timeline_trace"):
                check_trace(path, body)

        check_prometheus(fetch(server.address, "/metrics"))
        check_ops_plane(server.address)

        report = strict_loads(fetch(server.address, "/critical_path"))
        if len(report["steps"]) < 4:
            raise SystemExit(
                f"FAIL: critical path shorter than the 4-task chain: {report}"
            )
        if report["coverage"] < 0.9:
            raise SystemExit(f"FAIL: critical-path coverage {report['coverage']}")

        print(
            "dashboard smoke OK: / + %d JSON endpoints + /metrics "
            "(%d documented series verified) + ops plane "
            "(/nodes reporter rows, /events cursor), trace lanes, critical path "
            "%d steps at %.1f%% coverage"
            % (
                len(JSON_ENDPOINTS),
                len(REQUIRED_SERIES),
                len(report["steps"]),
                report["coverage"] * 100,
            )
        )
    finally:
        server.stop()
        repro.shutdown()


if __name__ == "__main__":
    sys.exit(main())
