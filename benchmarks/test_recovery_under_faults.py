"""Recovery under planned faults — the live runtime's Figure 10 analogue.

* **Task waves:** 24 waves of 16 chained 5 ms tasks on 4 nodes; node 1 is
  killed at 30 % of the tasks and restarted at 40 %, node 2 at 50 % and
  60 %.  All four faults apply, every value is right, and the median
  throughput of the last quarter of waves is ≥ 0.8 of that before the kill.
* **Serving:** 6 closed-loop clients against 2 replicas, one per node, with
  no actor restarts.  At 2.5 s of 6 one replica's node is killed; the
  :class:`ReplicaAutoscaler` restarts it and replaces the replica while the
  sibling takes the retried batches.  The median p99 of the last three
  0.5 s windows is ≤ 2.5x the median before the kill.
"""

import statistics
import time

import repro
from benchmarks.conftest import closed_loop, deploy_model, fmt, print_table
from repro.common import faults
from repro.common.metrics import percentile
from repro.tools.autoscaler import ReplicaAutoscaler, ReplicaAutoscalerConfig

WAVES, WIDTH, TASK_S = 24, 16, 0.005
SERVE_S, KILL_AT_S, CLIENTS, WINDOW_S = 6.0, 2.5, 6, 0.5


@repro.remote
def work(x):
    time.sleep(TASK_S)
    return x + 1


def test_wave_throughput_recovers_after_node_kills():
    total = WAVES * WIDTH
    kill, restart = faults.KILL_NODE, faults.RESTART_NODE
    planned = [
        faults.PlannedFault(faults.FaultTrigger(after_tasks=int(total * share)),
                            faults.FaultAction(kind, target=node))
        for share, kind, node in ((0.3, kill, 1), (0.4, restart, 1),
                                  (0.5, kill, 2), (0.6, restart, 2))
    ]
    schedule = faults.FaultSchedule(seed=10, faults=planned)
    repro.init(num_nodes=4, num_cpus_per_node=4, fault_schedule=schedule)
    try:
        rates, refs = [], list(range(WIDTH))
        for _ in range(WAVES):
            started = time.perf_counter()
            refs = [work.remote(r) for r in refs]
            values = repro.get(refs, timeout=180)
            rates.append(WIDTH / (time.perf_counter() - started))
    finally:
        repro.shutdown()
    applied = sum(1 for entry in schedule.event_log() if entry[-1] == "applied")
    pre = statistics.median(rates[: int(total * 0.3) // WIDTH])  # before the kill
    post = statistics.median(rates[-(WAVES // 4):])
    print_table(
        "Recovery: task waves under two kill/restart pairs (tasks/s)",
        ["pre-kill", "dip", "post", "post/pre", "faults applied"],
        [(fmt(pre, "", 0), fmt(min(rates), "", 0), fmt(post, "", 0),
          fmt(post / pre), applied)],
    )
    assert applied == len(planned)
    assert values == [i + WAVES for i in range(WIDTH)]
    assert post / pre >= 0.8


def test_serve_recovers_from_replica_node_kill():
    kill = faults.PlannedFault(faults.FaultTrigger(after_seconds=KILL_AT_S),
                               faults.FaultAction(faults.KILL_NODE, target=1))
    schedule = faults.FaultSchedule(seed=11, faults=[kill])
    runtime = repro.init(num_nodes=2, num_cpus_per_node=4, fault_schedule=schedule)
    try:
        handle = deploy_model(num_cpus=3, max_restarts=0)
        # Pinned at 2 replicas: only the reconcile path may act.
        config = ReplicaAutoscalerConfig(min_replicas=2, max_replicas=2, interval=0.1)
        scaler = runtime.register_ops(ReplicaAutoscaler(runtime, "Model", config))
        scaler.start()
        load_start = time.time()
        samples, errors = closed_loop(CLIENTS, SERVE_S,
                                      lambda i: handle.submit(i).result(timeout=60))
        kills = runtime.gcs.events("fault_injected")
    finally:
        repro.shutdown()
    assert kills, "the planned node kill never fired"
    windows, last = {}, int(SERVE_S / WINDOW_S)
    for done, latency in samples:
        windows.setdefault(int((done - load_start) / WINDOW_S), []).append(latency)
    p99 = {i: percentile(sorted(w), 99) * 1e3 for i, w in windows.items() if i < last}
    kill_window = int((kills[0].ts - load_start) / WINDOW_S)
    pre = statistics.median(v for i, v in p99.items() if i < kill_window)
    post = statistics.median(v for i, v in p99.items() if i >= last - 3)
    print_table(
        "Recovery: serve p99 around a replica node kill",
        ["pre-kill p99", "worst window", "post p99", "post/pre", "replaced", "errors"],
        [(fmt(pre, " ms", 1), fmt(max(p99.values()), " ms", 1),
          fmt(post, " ms", 1), fmt(post / pre), scaler.replaced, errors)],
    )
    assert schedule.event_log()[0][-1] == "applied"
    assert scaler.replaced >= 1
    assert post / pre <= 2.5
