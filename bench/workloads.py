"""The six workloads: what each sends, and how it checks what comes back.

A workload only *defines* work (cluster shape, hop delay, one op, its
correctness check); ``bench.run`` owns timing, set-up repetition and
metrics.  ``--seed`` reaches a workload as a ``numpy`` generator and decides
payload values and array contents only — never counts, rates or shapes.

Closed loop: one driver thread, the next op is sent after the previous
``get`` returned.  Open loop: one sender on a fixed schedule plus one
collector; latency is timed from the instant a request was *due*.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

import numpy as np

import repro
from repro import serve

# Modelled delays are several times what the issue first proposed (1 ms hops,
# a 3 ms model): see "Why the delays are this long" in bench/README.md.
HOP = 0.008
SHARD_ELEMS = 131072  # 1 MiB of float64
LEAVES = 4
_MOD = 2_147_483_647
# A resource only the second node has.  Nothing crosses nodes by itself (a
# driver's tasks stay on its node until 16 are queued there), so the two
# workloads that are about crossing pin one side of the exchange with it.
FAR = "far_node"


def add_far_node(num_cpus: int) -> None:
    repro.get_runtime().add_node({"CPU": float(num_cpus), FAR: 4.0})


@repro.remote
def echo(x):
    return x


@repro.remote
def nop():
    return None


@repro.remote(resources={FAR: 1})
class Env:
    """A toy environment: the state is a linear congruence of the actions."""

    def __init__(self, state):
        self.state = state

    def step(self, action):
        self.state = (self.state * 48271 + action) % _MOD
        return self.state


@repro.remote
def policy(observation):
    return (observation * 16807 + 12345) % _MOD


@repro.remote(resources={FAR: 1})
def wsum(weights, shard):
    return weights * shard


@repro.remote
def add(a, b):
    return a + b


@serve.deployment(
    name="bench_model",
    num_replicas=2,
    max_batch_size=16,
    batch_wait_timeout_s=0.08,
    max_queue_per_replica=256,
)
class Model:
    """A model whose batch costs 12 ms plus 0.6 ms per item."""

    def handle_batch(self, payloads):
        time.sleep(0.012 + 0.0006 * len(payloads))
        return [2 * x for x in payloads]


class Workload:
    """Base: the fields ``bench.run`` reads, and the hooks it calls."""

    name = ""
    why = ""
    cluster: Dict[str, Any] = {}
    hop_delay = 0.0
    warmup_ops = 0  # sized so one set-up takes about a second
    # rss_mb is the resident set after this many ops: memory at equal work.
    # About three quarters of what a run_seconds run held when the benchmark
    # was added, so a build up to a quarter slower still reaches it.
    memory_at_op = 1
    units_per_op = 1  # ops_per_s counts units; latency is per op
    slo_ms = 0.0  # about twice the seed's p50: moves on stalls, not jitter
    rate: Optional[float] = None  # requests/s; None = closed loop

    def start(self, rng: np.random.Generator) -> None:
        """Called after ``repro.init``: deploy, put fixed data, add the far node."""

    def op(self, i: int) -> int:
        """Closed loop: run op ``i`` to completion; return correct units."""
        raise NotImplementedError

    def send(self, i: int):
        """Open loop: submit request ``i``; return its future."""
        raise NotImplementedError

    def check(self, i: int, value: Any) -> bool:
        raise NotImplementedError

    def payload(self, i: int) -> Any:
        """Open loop: what request ``i`` carries (its tag in the trace)."""
        raise NotImplementedError

    def layer_stats(self) -> Dict[str, float]:
        """Layer counters only this workload's handles expose."""
        return {}


class TaskSeqRtt(Workload):
    name = "task_seq_rtt"
    why = (
        "one task at a time at 8 ms GCS hops: latency is the number of "
        "blocking hops on the single-submit path"
    )
    cluster = dict(num_nodes=1, num_cpus_per_node=4)
    hop_delay = HOP
    warmup_ops = 30
    memory_at_op = 450
    slo_ms = 51.0

    def start(self, rng):
        self.base = int(rng.integers(1, 1 << 30))

    def op(self, i):
        x = self.base + i
        return int(repro.get(echo.remote(x), timeout=60) == x)


class TaskBatchWave(Workload):
    name = "task_batch_wave"
    why = (
        "waves of 8 no-op tasks through submit_many on one 2-CPU node: the "
        "batch submit path, where single-submit hop cuts predict no change"
    )
    cluster = dict(num_nodes=1, num_cpus_per_node=2)
    hop_delay = HOP
    warmup_ops = 10
    memory_at_op = 135
    units_per_op = 8  # under the default spillback threshold: none spill
    slo_ms = 160.0

    def op(self, i):
        values = repro.get(nop.submit_many([()] * self.units_per_op), timeout=60)
        return sum(value is None for value in values)


class ActorRollout(Workload):
    name = "actor_rollout"
    why = (
        "the paper's rollout step: an actor on the far node whose method "
        "result feeds a dependent task on the driver's node by ObjectRef"
    )
    cluster = dict(num_nodes=1, num_cpus_per_node=4)
    hop_delay = HOP
    warmup_ops = 8
    memory_at_op = 125
    slo_ms = 190.0

    def start(self, rng):
        self.state = int(rng.integers(1, _MOD))
        self.action = int(rng.integers(1, _MOD))
        add_far_node(4)
        self.env = Env.remote(self.state)

    def op(self, i):
        # The reference model advances first, so a wrong or lost reply
        # cannot drag the expectation along with it.
        self.state = (self.state * 48271 + self.action) % _MOD
        expected = (self.state * 16807 + 12345) % _MOD
        sent, self.action = self.action, expected
        got = repro.get(policy.remote(self.env.step.remote(sent)), timeout=60)
        return int(got == expected)


class DataFlow(Workload):
    name = "data_flow"
    why = (
        "4 fresh 1 MiB shards x a re-read weight vector on the far node, "
        "add tree back on the driver's: store, global scheduler, transfer"
    )
    cluster = dict(num_nodes=1, num_cpus_per_node=2)
    # A round blocks the driver on ~80 hops, so 2 ms each already anchors
    # it; at 8 ms a run would hold too few rounds for a p90.
    hop_delay = HOP / 4
    warmup_ops = 5
    memory_at_op = 70
    slo_ms = 330.0

    def start(self, rng):
        self.weights = rng.random(SHARD_ELEMS)
        self.bases = [rng.random(SHARD_ELEMS) for _ in range(LEAVES)]
        self.bases_sum = np.sum(self.bases, axis=0)
        self.weights_ref = repro.put(self.weights)
        add_far_node(2)

    def op(self, i):
        # Fresh arrays every round (the write / transfer / cache-miss path)
        # against the weights put once (fetched by the far node once, then
        # re-read there); the leaves run on the far node, the add tree pulls
        # their results back.  The reference follows from the bases' sum
        # without redoing the tree.
        shards = [base + float(i) for base in self.bases]
        refs = [repro.put(shard) for shard in shards]
        level = [wsum.remote(self.weights_ref, ref) for ref in refs]
        refs.extend(level)
        while len(level) > 1:
            level = [add.remote(a, b) for a, b in zip(level[::2], level[1::2])]
            refs.extend(level)
        root = repro.get(level[0], timeout=60)
        ok = np.allclose(root, self.weights * (self.bases_sum + LEAVES * float(i)))
        # Without this the stores fill: latency steps up ~15x after a few
        # dozen rounds and RSS passes 900 MB.
        repro.free(refs)
        return int(ok)


class _Serve(Workload):
    cluster = dict(num_nodes=2, num_cpus_per_node=4)
    warmup_ops = 800  # sent in full batches, which the router cuts at once
    slo_ms = 120.0

    def start(self, rng):
        self.base = int(rng.integers(1, 1 << 30))
        self.handle = Model.deploy()

    def payload(self, i):
        return self.base + i

    def send(self, i):
        return self.handle.submit(self.payload(i))

    def check(self, i, value):
        return value == 2 * self.payload(i)

    def layer_stats(self):
        stats = self.handle.stats()
        return {
            key: float(stats[key])
            for key in ("submitted", "completed", "shed", "failed", "batches", "retries")
        }


class ServeLow(_Serve):
    name = "serve_low"
    why = (
        "12.5 req/s of lone requests: the router's batch-wait hold is most "
        "of the latency; batching does nothing"
    )
    rate = 12.5
    memory_at_op = 150


class ServeHigh(_Serve):
    name = "serve_high"
    why = (
        "300 req/s, twice the unbatched capacity: batches must form; a cut "
        "rule that helps serve_low must show no loss here"
    )
    rate = 300.0
    memory_at_op = 3600


WORKLOADS: List[type] = [
    TaskSeqRtt,
    TaskBatchWave,
    ActorRollout,
    DataFlow,
    ServeLow,
    ServeHigh,
]
BY_NAME = {cls.name: cls for cls in WORKLOADS}
