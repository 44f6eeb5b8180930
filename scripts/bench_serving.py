#!/usr/bin/env python
"""Serving benchmark: repro.serve vs the Clipper-like REST baseline (§4.1, Table 3).

Races the replica-group serving plane against :class:`ClipperLikeServer`
at **equal replica counts and identical model cost**, then stresses the
serve plane's failure path.  Writes ``BENCH_serving.json``:

* **batched_load** — closed-loop clients hammer both systems.  The model
  charges a fixed per-batch cost plus a per-item cost, so micro-batching
  amortizes the fixed cost across the batch while the REST baseline pays
  it (plus HTTP framing) per request.  Serve must win both QPS and p99.
* **low_load** (full mode) — a handful of clients, where batches rarely
  fill and a request that finds no batch in flight is dispatched at
  once (the half-budget cut only bounds the wait behind an outstanding
  batch).  Recorded for context; no win asserted (batching buys little
  without load, and the serve path still pays a GCS-backed actor call
  per batch).
* **chaos_recovery** — a seeded :class:`FaultSchedule` kills the node
  hosting one of two single-node-pinned replicas at peak load.  In-flight
  batches retry on the sibling, the :class:`ReplicaAutoscaler` restarts
  the dead node and replaces the dead replica, and the per-window p99
  timeline must recover to near its pre-kill level.

Run as:  PYTHONPATH=src python scripts/bench_serving.py [--smoke] [-o PATH]
``--smoke`` shrinks durations for CI and skips the timing-sensitive
verdicts (shared CI containers are too noisy to gate on).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import repro
from repro import serve
from repro.baselines.clipper import ClipperLikeServer
from repro.common.errors import BackpressureError
from repro.common.faults import (
    KILL_NODE,
    FaultAction,
    FaultSchedule,
    FaultTrigger,
    PlannedFault,
)
from repro.common.metrics import percentile
from repro.tools.autoscaler import ReplicaAutoscaler, ReplicaAutoscalerConfig

# Identical injected model cost for both systems: a fixed per-batch charge
# (weight load / kernel launch analogue) plus a per-item charge.
MODEL_BASE_S = 0.003
MODEL_PER_ITEM_S = 0.00015


def _model_sleep(n_items: int) -> None:
    time.sleep(MODEL_BASE_S + MODEL_PER_ITEM_S * n_items)


def _latency_stats(latencies: List[float]) -> Dict[str, float]:
    ordered = sorted(latencies)
    return {
        "requests": len(ordered),
        "p50_ms": percentile(ordered, 50) * 1e3,
        "p99_ms": percentile(ordered, 99) * 1e3,
        "mean_ms": statistics.fmean(ordered) * 1e3,
    }


# ---------------------------------------------------------------------------
# Closed-loop client pools.
# ---------------------------------------------------------------------------


def _run_clients(
    num_clients: int,
    duration_seconds: float,
    issue_one,
) -> Tuple[List[Tuple[float, float]], int, int]:
    """Run ``num_clients`` closed-loop threads for ``duration_seconds``.

    ``issue_one(client_index)`` performs one request.  Returns
    ``(samples, shed, errors)`` where each sample is
    ``(completion_monotonic, latency_seconds)``.
    """
    samples: List[Tuple[float, float]] = []
    counters = {"shed": 0, "errors": 0}
    lock = threading.Lock()
    deadline = time.monotonic() + duration_seconds

    def client(index: int) -> None:
        while time.monotonic() < deadline:
            started = time.perf_counter()
            try:
                issue_one(index)
            except BackpressureError:
                with lock:
                    counters["shed"] += 1
                time.sleep(0.001)
                continue
            except Exception:
                # Chaos runs race requests against a node kill; a batch
                # whose retries are exhausted surfaces here.
                with lock:
                    counters["errors"] += 1
                continue
            sample = (time.monotonic(), time.perf_counter() - started)
            with lock:
                samples.append(sample)

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(num_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=duration_seconds + 60)
    return samples, counters["shed"], counters["errors"]


# ---------------------------------------------------------------------------
# Section 1/2: serve vs Clipper at equal replica counts.
# ---------------------------------------------------------------------------


def _measure_serve(
    replicas: int, clients: int, duration_seconds: float
) -> Dict[str, object]:
    repro.init(num_nodes=2, num_cpus_per_node=4)
    try:

        @serve.deployment(
            num_replicas=replicas,
            max_batch_size=8,
            batch_wait_timeout_s=0.02,
            max_queue_per_replica=256,
        )
        class Model:
            def handle_batch(self, payloads):
                _model_sleep(len(payloads))
                return [p + 1 for p in payloads]

        handle = Model.deploy()
        for i in range(replicas * 4):  # warm every replica's code path
            assert handle.query(i, timeout=30) == i + 1

        samples, shed, errors = _run_clients(
            clients,
            duration_seconds,
            lambda i: handle.submit(i).result(timeout=60),
        )
        stats = handle.stats()
        section = _latency_stats([latency for _, latency in samples])
        section.update(
            {
                "qps": len(samples) / duration_seconds,
                "shed": shed,
                "errors": errors,
                "batches": stats["batches"],
                "avg_batch": stats["avg_batch"],
            }
        )
        return section
    finally:
        repro.shutdown()


def _measure_clipper(
    replicas: int, clients: int, duration_seconds: float
) -> Dict[str, object]:
    """Equal replica count: one lock-guarded REST server per replica (a
    replica evaluates one request at a time), clients spread round-robin."""

    def evaluate(states):
        _model_sleep(len(states))
        return [0.0] * len(states)

    servers = [
        (ClipperLikeServer(evaluate), threading.Lock()) for _ in range(replicas)
    ]
    payload = b"x" * 64

    def issue_one(index: int) -> None:
        server, lock = servers[index % replicas]
        with lock:
            server.query([payload])

    samples, _shed, errors = _run_clients(clients, duration_seconds, issue_one)
    section = _latency_stats([latency for _, latency in samples])
    section.update({"qps": len(samples) / duration_seconds, "errors": errors})
    return section


def bench_head_to_head(
    replicas: int, clients: int, duration_seconds: float
) -> Dict[str, object]:
    serve_side = _measure_serve(replicas, clients, duration_seconds)
    clipper_side = _measure_clipper(replicas, clients, duration_seconds)
    return {
        "replicas": replicas,
        "clients": clients,
        "duration_seconds": duration_seconds,
        "model": {"base_s": MODEL_BASE_S, "per_item_s": MODEL_PER_ITEM_S},
        "serve": serve_side,
        "clipper": clipper_side,
        "qps_speedup": serve_side["qps"] / max(1e-9, clipper_side["qps"]),
        "p99_ratio": serve_side["p99_ms"] / max(1e-9, clipper_side["p99_ms"]),
    }


# ---------------------------------------------------------------------------
# Section 3: chaos — replica-hosting node killed at peak load.
# ---------------------------------------------------------------------------


def bench_chaos_recovery(
    duration_seconds: float,
    kill_after_seconds: float,
    clients: int,
    window_seconds: float,
) -> Dict[str, object]:
    schedule = FaultSchedule(
        seed=11,
        faults=[
            PlannedFault(
                FaultTrigger(after_seconds=kill_after_seconds),
                FaultAction(KILL_NODE, target=1),
            )
        ],
    )
    runtime = repro.init(num_nodes=2, num_cpus_per_node=4, fault_schedule=schedule)
    scaler = None
    try:

        # num_cpus=3 on 4-CPU nodes forces one replica per node, so the
        # node kill takes out exactly one replica; max_restarts=0 makes it
        # permanently dead — recovery must come from the autoscaler's
        # restart-node + replace-replica reconciliation, with the sibling
        # absorbing retried batches meanwhile.
        @serve.deployment(
            num_replicas=2,
            num_cpus=3,
            max_restarts=0,
            max_batch_size=8,
            batch_wait_timeout_s=0.02,
            max_queue_per_replica=256,
        )
        class Model:
            def handle_batch(self, payloads):
                _model_sleep(len(payloads))
                return [p + 1 for p in payloads]

        handle = Model.deploy()
        for i in range(8):
            assert handle.query(i, timeout=30) == i + 1

        scaler = ReplicaAutoscaler(
            runtime,
            "Model",
            # Pin the size: this section isolates the reconcile path
            # (restart the dead node, replace the dead replica), so the
            # watermark policy must not trade replicas meanwhile.
            ReplicaAutoscalerConfig(min_replicas=2, max_replicas=2, interval=0.1),
            restart_dead_nodes=True,
        )
        scaler.start()

        load_start = time.monotonic()
        kill_seen: Dict[str, Optional[float]] = {"at": None}

        def watch_for_kill() -> None:
            while kill_seen["at"] is None:
                if any(e and e[0] == "planned" for e in schedule.event_log()):
                    kill_seen["at"] = time.monotonic() - load_start
                    return
                if time.monotonic() - load_start > duration_seconds:
                    return
                time.sleep(0.05)

        watcher = threading.Thread(target=watch_for_kill, daemon=True)
        watcher.start()
        samples, shed, errors = _run_clients(
            clients,
            duration_seconds,
            lambda i: handle.submit(i).result(timeout=60),
        )
        watcher.join(timeout=5)
        fault_log = [list(e) for e in schedule.event_log()]
        replaced = scaler.replaced
    finally:
        if scaler is not None:
            scaler.stop()
        repro.shutdown()

    applied = any("applied" in e for e in fault_log)
    kill_offset = kill_seen["at"]

    windows = []
    n_windows = int(duration_seconds / window_seconds)
    for w in range(n_windows):
        lo = load_start + w * window_seconds
        hi = lo + window_seconds
        lat = sorted(l for (t, l) in samples if lo <= t < hi)
        windows.append(
            {
                "window": w,
                "start_offset_s": w * window_seconds,
                "requests": len(lat),
                "qps": len(lat) / window_seconds,
                "p99_ms": percentile(lat, 99) * 1e3 if lat else None,
            }
        )

    kill_window = (
        int(kill_offset / window_seconds) if kill_offset is not None else None
    )
    pre = [
        w["p99_ms"]
        for w in windows
        if w["p99_ms"] is not None
        and (kill_window is None or w["window"] < kill_window)
    ]
    post = [w["p99_ms"] for w in windows[-3:] if w["p99_ms"] is not None]
    pre_p99 = statistics.median(pre) if pre else None
    post_p99 = statistics.median(post) if post else None
    dip_p99 = max(
        (w["p99_ms"] for w in windows if w["p99_ms"] is not None), default=None
    )
    recovery_ratio = (
        post_p99 / pre_p99 if pre_p99 and post_p99 is not None else None
    )
    return {
        "duration_seconds": duration_seconds,
        "clients": clients,
        "kill_after_seconds": kill_after_seconds,
        "kill_offset_seconds": kill_offset,
        "windows": windows,
        "pre_kill_p99_ms": pre_p99,
        "dip_p99_ms": dip_p99,
        "post_recovery_p99_ms": post_p99,
        "recovery_ratio": recovery_ratio,
        "replicas_replaced": replaced,
        "shed": shed,
        "errors": errors,
        "fault_applied": applied,
        "fault_log": fault_log,
    }


# ---------------------------------------------------------------------------


def check(report: Dict[str, object], smoke: bool) -> Dict[str, object]:
    """Acceptance verdicts; raises in full mode when a bar is missed."""
    sections = report["sections"]
    head = sections["batched_load"]
    chaos = sections["chaos_recovery"]
    verdicts = {
        "serve_wins_p99_under_batched_load": head["p99_ratio"] < 1.0,
        "serve_wins_qps_under_batched_load": head["qps_speedup"] > 1.0,
        "chaos_fault_applied": chaos["fault_applied"],
        "chaos_replica_replaced": chaos["replicas_replaced"] >= 1,
        "chaos_p99_recovered": (
            chaos["recovery_ratio"] is not None and chaos["recovery_ratio"] <= 2.5
        ),
    }
    if not smoke:
        failed = [name for name, ok in verdicts.items() if not ok]
        if failed:
            raise AssertionError(f"serving bench verdicts failed: {failed}")
    return verdicts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small sizes for CI")
    parser.add_argument("-o", "--output", default="BENCH_serving.json")
    args = parser.parse_args()

    if args.smoke:
        replicas, clients, duration = 2, 8, 2.0
        chaos_duration, kill_after, chaos_clients, window = 6.0, 2.5, 6, 0.5
    else:
        replicas, clients, duration = 2, 16, 8.0
        chaos_duration, kill_after, chaos_clients, window = 14.0, 6.0, 8, 1.0

    report: Dict[str, object] = {"smoke": args.smoke, "sections": {}}

    print("== batched_load ==")
    section = bench_head_to_head(replicas, clients, duration)
    report["sections"]["batched_load"] = section
    print(
        f"  serve {section['serve']['qps']:.0f} qps / p99 "
        f"{section['serve']['p99_ms']:.1f} ms vs clipper "
        f"{section['clipper']['qps']:.0f} qps / p99 "
        f"{section['clipper']['p99_ms']:.1f} ms "
        f"(qps x{section['qps_speedup']:.1f}, p99 ratio {section['p99_ratio']:.2f})"
    )

    if not args.smoke:
        print("== low_load ==")
        section = bench_head_to_head(replicas, 2, duration / 2)
        report["sections"]["low_load"] = section
        print(
            f"  serve p99 {section['serve']['p99_ms']:.1f} ms vs clipper "
            f"p99 {section['clipper']['p99_ms']:.1f} ms"
        )

    print("== chaos_recovery ==")
    section = bench_chaos_recovery(chaos_duration, kill_after, chaos_clients, window)
    report["sections"]["chaos_recovery"] = section
    print(
        f"  pre p99 {section['pre_kill_p99_ms'] and round(section['pre_kill_p99_ms'], 1)} ms, "
        f"dip {section['dip_p99_ms'] and round(section['dip_p99_ms'], 1)} ms, post "
        f"{section['post_recovery_p99_ms'] and round(section['post_recovery_p99_ms'], 1)} ms "
        f"(ratio {section['recovery_ratio'] and round(section['recovery_ratio'], 2)}), "
        f"replaced {section['replicas_replaced']} replica(s), "
        f"errors {section['errors']}"
    )

    report["verdicts"] = check(report, args.smoke)
    with open(args.output, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
