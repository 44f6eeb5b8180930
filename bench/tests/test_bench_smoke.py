"""Smoke test of the benchmark harness itself.

Run with ``pytest bench/tests`` from the repo root.  It is outside
``testpaths`` on purpose: tier-1 stays what it was.
"""

import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import repro  # noqa: E402
from bench import layers, spans, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == [c.name for c in workloads.WORKLOADS]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in spec["end_to_end"]
    )
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.10 for m in spec["end_to_end"])


def test_smoke_suite_emits_every_metric_and_a_trace(tmp_path):
    spec = _spec()
    out = tmp_path / "suite.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30, f"--smoke took {elapsed:.1f} s"
    suite = json.loads(out.read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for cls in workloads.WORKLOADS:
        row = suite[cls.name]
        assert row["correct"] and row["failed"] == 0 and row["attempted"] >= 1
        assert {k: v["unit"] for k, v in row["end_to_end"].items()} == end_to_end
        assert {k: v["unit"] for k, v in row["per_layer"].items()} == per_layer
        assert all(v["value"] > 0 for v in row["end_to_end"].values())
        with open(os.path.join(ROOT, "bench", "out", f"trace_{cls.name}.json")) as handle:
            trace = json.load(handle)
        assert trace["spans"], "traced pass recorded no spans"
        parent = trace["fields"].index("parent")
        ids = {span[0] for span in trace["spans"]}
        children = [span for span in trace["spans"] if span[parent] >= 0]
        # A parent still open when the wrappers came off (a waiter blocked in
        # ``get``) is never recorded; everything else must resolve.
        resolved = sum(span[parent] in ids for span in children)
        assert children and resolved >= 0.9 * len(children)
    # The two workloads that claim to cross nodes do.
    layer = {name: suite[name]["per_layer"] for name in ("data_flow", "actor_rollout")}
    assert layer["data_flow"]["transfer.bytes_per_op"]["value"] > workloads.LEAVES * 2**20
    assert layer["data_flow"]["global_scheduler.decisions_per_op"]["value"] > 0
    assert layer["data_flow"]["local_scheduler.spillbacks_per_op"]["value"] > 0
    assert layer["actor_rollout"]["transfer.objects_per_op"]["value"] > 0


def test_span_wrappers_are_removed_again():
    originals = {
        "remote": repro.api.RemoteFunction.__dict__["remote"],
        "get": repro.get,
        "serialize": repro.core.worker.serialize,
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert repro.api.RemoteFunction.__dict__["remote"] is not originals["remote"]
        assert repro.get is repro.api.get is not originals["get"]
        assert repro.core.worker.serialize is repro.core.runtime.serialize
        repro.init(num_nodes=1, num_cpus_per_node=1)
        try:
            tracer.op = 7
            assert repro.get(workloads.echo.remote(3), timeout=30) == 3
        finally:
            repro.shutdown()
    finally:
        tracer.uninstall()
    assert repro.api.RemoteFunction.__dict__["remote"] is originals["remote"]
    assert repro.get is repro.api.get is originals["get"]
    assert repro.core.worker.serialize is originals["serialize"]
    by_name = tracer.by_name()
    assert by_name["api.remote"] and by_name["api.get"] and by_name["gcs.chain.put"]
    assert all(r[spans.OP] == 7 for r in by_name["api.remote"])
    submit = by_name["runtime.submit_task"][0]
    assert submit[spans.PARENT] == by_name["api.remote"][0][spans.ID]
    self_s = tracer.self_times()
    assert 0 <= self_s[submit[spans.ID]] <= submit[spans.END] - submit[spans.START]
