"""Autoscaler under a chaos spike — the cluster follows a 10x load step.

A 2-node cluster with reporters and the node autoscaler runs 12 closed-loop
batches of 4 tasks, 12 of 40 (node 1 is killed as they start), 12 of 4.
The cluster grows past 2 nodes and drains back to ``min_nodes``; on
``/events`` the first ``scale_up`` precedes the last ``scale_down`` and the
kill shows; p99 of the late spike (its last quarter, once the policy has
acted) and of recovery stays within max(6x baseline p99, 0.5 s); reporters
cost under 2x on a 100-task batch.
"""

import json
import time
import urllib.request

import repro
from benchmarks.conftest import fmt, print_table
from repro.common import faults
from repro.common.metrics import summarize
from repro.tools.autoscaler import Autoscaler, AutoscalerConfig
from repro.tools.http_dashboard import DashboardServer

BATCHES, BASELINE_BATCH, SPIKE_BATCH, SERVICE_S = 12, 4, 40, 0.02
CONFIG = AutoscalerConfig(high_watermark=3.0, low_watermark=0.5, hysteresis=2,
                          cooldown_seconds=0.3, min_nodes=2, max_nodes=6,
                          interval=0.05)


@repro.remote
def probe(submit_ts, service_seconds):
    waited = time.monotonic() - submit_ts
    time.sleep(service_seconds)
    return waited + service_seconds


def run_phase(batch_size, batches=BATCHES, service_seconds=SERVICE_S):
    latencies = []
    for _ in range(batches):
        latencies += repro.get([probe.remote(time.monotonic(), service_seconds)
                                for _ in range(batch_size)])
    return latencies


def run_spike():
    trigger = faults.FaultTrigger(after_tasks=BASELINE_BATCH * BATCHES + SPIKE_BATCH)
    kill = faults.PlannedFault(trigger, faults.FaultAction(faults.KILL_NODE, target=1))
    runtime = repro.init(num_nodes=2, num_cpus_per_node=2, reporters_enabled=True,
                         reporter_interval_seconds=0.05,
                         fault_schedule=faults.FaultSchedule(faults=[kill]))
    try:
        server = runtime.register_ops(DashboardServer(runtime).start())
        runtime.register_ops(Autoscaler(runtime, CONFIG)).start()
        baseline = run_phase(BASELINE_BATCH)
        spike = run_phase(SPIKE_BATCH)
        peak_nodes = len(runtime.live_nodes())
        recovery = run_phase(BASELINE_BATCH)
        deadline = time.monotonic() + 8.0
        while (len(runtime.live_nodes()) > CONFIG.min_nodes
               and time.monotonic() < deadline):
            time.sleep(0.05)
        end_nodes = len(runtime.live_nodes())
        with urllib.request.urlopen(f"{server.address}/events", timeout=10) as resp:
            events = json.loads(resp.read())["events"]
    finally:
        repro.shutdown()
    phases = {"baseline": baseline, "late spike": spike[-(len(spike) // 4):],
              "recovery": recovery}
    p99 = {name: summarize(samples)["p99"] for name, samples in phases.items()}
    return p99, peak_nodes, end_nodes, events


def reporter_overhead():
    """Best-of-2 time of one 100-task batch, reporters on over off."""
    best = {}
    for enabled in (False, True):
        for _ in range(2):
            repro.init(num_nodes=2, num_cpus_per_node=4, reporters_enabled=enabled,
                       reporter_interval_seconds=0.05)
            try:
                started = time.perf_counter()
                run_phase(100, batches=1, service_seconds=0.0)
                elapsed = time.perf_counter() - started
            finally:
                repro.shutdown()
            best[enabled] = min(elapsed, best.get(enabled, elapsed))
    return best[True] / best[False]


def test_autoscaler_follows_a_chaos_spike():
    p99, peak_nodes, end_nodes, events = run_spike()
    overhead = reporter_overhead()
    bound = max(6.0 * p99["baseline"], 0.5)
    decisions = [e for e in events if e["category"] == "autoscaler_decision"]
    ups = [e["seq"] for e in decisions if e["action"] == "scale_up"]
    downs = [e["seq"] for e in decisions if e["action"] == "scale_down"]
    print_table(
        "Autoscaler: 10x spike with a node kill (p99 bound "
        f"{bound * 1e3:.0f} ms)",
        [f"{name} p99" for name in p99] + ["peak/end nodes", "up/down", "reporters"],
        [[fmt(value * 1e3, " ms", 0) for value in p99.values()]
         + [f"{peak_nodes}/{end_nodes}", f"{len(ups)}/{len(downs)}", fmt(overhead, "x")]],
    )
    assert ups and downs and min(ups) < max(downs)
    assert any(e["category"] == "fault_injected" for e in events)
    assert peak_nodes > 2
    assert end_nodes == CONFIG.min_nodes
    assert p99["late spike"] <= bound
    assert p99["recovery"] <= bound
    assert overhead < 2.0
