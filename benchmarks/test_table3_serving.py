"""Table 3 — embedded serving throughput: Ray actor vs Clipper REST.

Paper setup: client and server co-located on one machine.  Two workloads:
a residual-network policy (10 ms eval, 4 KB states) and a small
fully-connected policy (5 ms eval, 100 KB states), queried in batches of
64.  Ray reaches 6200 / 6900 states/s; Clipper (over REST) reaches 4400 /
290 — the large-input case collapses under REST serialization.

Regenerated with both data paths *executed for real*: the Ray side runs an
actor server on the runtime (shared-memory object path), the Clipper side
runs the same fixed-cost model evaluation behind real JSON/base64
encode-decode.  Model evaluation cost is identical across systems, as in
the paper.

``repro.serve`` runs the same race under batched load: 2 replicas a side,
8 closed-loop clients for 2 s.  Its micro-batching amortizes the model's
fixed per-batch cost, which the REST server pays on every request; serve
must win on both QPS and p99.
"""

import threading

import pytest

import repro
from benchmarks.conftest import closed_loop, deploy_model, fmt, model_sleep, print_table
from repro.baselines.clipper import ClipperLikeServer
from repro.common.metrics import percentile
from repro.rl.serving import PolicyServer, _busy_wait, measure_serving_throughput

BATCH = 64
DURATION = 0.6
WORKLOADS = {
    # name: (eval seconds per batch, state bytes)
    "residual net, 4KB states": (0.010, 4_096),
    "small FC net, 100KB states": (0.005, 102_400),
}


def run_table3():
    results = {}
    for name, (eval_seconds, state_bytes) in WORKLOADS.items():
        states = [b"s" * state_bytes] * BATCH

        clipper = ClipperLikeServer(
            evaluate=lambda batch, t=eval_seconds: (_busy_wait(t), [0.0] * len(batch))[1],
            http_overhead=0.8e-3,
        )
        clipper_rate = clipper.measure_throughput(states, duration_seconds=DURATION)

        repro.init(num_nodes=1, num_cpus_per_node=4)
        try:
            server = PolicyServer.remote(eval_seconds=eval_seconds)
            ray_rate = measure_serving_throughput(
                server, states, duration_seconds=DURATION
            )
            repro.kill(server)
        finally:
            repro.shutdown()
        results[name] = (ray_rate, clipper_rate)
    print_table(
        "Table 3: serving throughput (states/s)",
        ["workload", "Ray (paper 6200/6900)", "Clipper (paper 4400/290)", "Ray/Clipper"],
        [
            (name, f"{ray:.0f}", f"{clipper:.0f}", f"{ray / clipper:.1f}x")
            for name, (ray, clipper) in results.items()
        ],
    )
    return results


@pytest.mark.benchmark(group="table3")
def test_table3_embedded_serving_beats_rest(benchmark):
    results = benchmark.pedantic(run_table3, rounds=1, iterations=1)
    small_ray, small_clipper = results["residual net, 4KB states"]
    large_ray, large_clipper = results["small FC net, 100KB states"]
    # Ray wins both workloads.
    assert small_ray > small_clipper
    assert large_ray > large_clipper
    # The large-input REST collapse: paper shows ~24x; require >3x and
    # that Clipper's large-input rate collapses versus its own small-input
    # rate while Ray's does not.
    assert large_ray / large_clipper > 3
    assert large_clipper < 0.5 * small_clipper
    assert large_ray > 0.5 * small_ray


REPLICAS, CLIENTS, LOAD_S = 2, 8, 2.0


def qps_p99_ms_errors(issue_one):
    samples, errors = closed_loop(CLIENTS, LOAD_S, issue_one)
    latencies = sorted(latency for _, latency in samples)
    return len(latencies) / LOAD_S, percentile(latencies, 99) * 1e3, errors


def serve_under_batched_load():
    repro.init(num_nodes=2, num_cpus_per_node=4)
    try:
        handle = deploy_model(num_replicas=REPLICAS)
        return qps_p99_ms_errors(lambda i: handle.submit(i).result(timeout=60))
    finally:
        repro.shutdown()


def clipper_under_batched_load():
    """One lock-guarded REST server per replica; clients go round-robin."""

    def evaluate(states):
        model_sleep(len(states))
        return [0.0] * len(states)

    servers = [(ClipperLikeServer(evaluate), threading.Lock()) for _ in range(REPLICAS)]

    def issue_one(index):
        server, lock = servers[index % REPLICAS]
        with lock:
            server.query([b"x" * 64])

    return qps_p99_ms_errors(issue_one)


@pytest.mark.benchmark(group="table3")
def test_serve_beats_clipper_under_batched_load(benchmark):
    (serve_qps, serve_p99, errors), (clipper_qps, clipper_p99, _) = benchmark.pedantic(
        lambda: (serve_under_batched_load(), clipper_under_batched_load()),
        rounds=1, iterations=1,
    )
    print_table(
        f"Serve vs Clipper: {REPLICAS} replicas, {CLIENTS} closed-loop clients",
        ["system", "QPS", "p99"],
        [("repro.serve", fmt(serve_qps, "", 0), fmt(serve_p99, " ms", 1)),
         ("Clipper-like REST", fmt(clipper_qps, "", 0), fmt(clipper_p99, " ms", 1))],
    )
    assert errors == 0
    assert serve_qps > clipper_qps
    assert serve_p99 < clipper_p99
