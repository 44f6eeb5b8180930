"""Chaos test: a mixed workload survives random failure injection.

The paper's §7 answer to "is fault tolerance really needed?": it makes
applications "easier to write and reason about".  Here a workload mixing
task chains, actors, and large objects runs while nodes die and join
underneath it; every final answer must still be exactly correct.
"""

import random
import threading
import time

import pytest

import repro
from tests.invariants import assert_no_row_scheduled_on_a_dead_node


@repro.remote
def grow(acc, x):
    return acc + [x]


@repro.remote
def big_block(i):
    return bytes([i % 256]) * 50_000


@repro.remote(checkpoint_interval=4)
class Ledger:
    def __init__(self):
        self.entries = []

    def append(self, value):
        self.entries.append(value)
        return len(self.entries)

    @repro.method(read_only=True)
    def snapshot(self):
        return list(self.entries)


@pytest.mark.parametrize("seed", [1, 2])
def test_mixed_workload_survives_failures(seed):
    rng = random.Random(seed)
    rt = repro.init(num_nodes=4, num_cpus_per_node=2)
    try:
        # Task chains building lists (order-sensitive results).
        chains = []
        for c in range(4):
            ref = grow.remote([], c)
            for i in range(1, 6):
                ref = grow.remote(ref, c * 10 + i)
            chains.append((c, ref))

        # Large objects (eviction/transfer pressure).
        blocks = [big_block.remote(i) for i in range(6)]

        # A checkpointing actor with read-only queries.
        ledger = Ledger.remote()
        appended = [ledger.append.remote(i) for i in range(10)]

        # Let some work land, then kill a random non-driver node...
        time.sleep(0.3)
        victims = [n for n in rt.nodes() if n is not rt.driver_node]
        victim = rng.choice(victims)
        rt.kill_node(victim.node_id)
        # ...and add a fresh node (elasticity).
        rt.add_node({"CPU": 2})

        # More work lands on the reshaped cluster.
        more = [ledger.append.remote(100 + i) for i in range(4)]
        late_chain = grow.remote(chains[0][1], 999)

        # Every answer must be exactly right despite the failure.
        for c, ref in chains:
            expected = [c] + [c * 10 + i for i in range(1, 6)]
            assert repro.get(ref, timeout=60) == expected
        for i, block in enumerate(blocks):
            value = repro.get(block, timeout=60)
            assert value == bytes([i % 256]) * 50_000
        assert repro.get(appended[-1], timeout=60) == 10
        assert repro.get(more[-1], timeout=60) == 14
        snapshot = repro.get(ledger.snapshot.remote(), timeout=60)
        assert snapshot == list(range(10)) + [100 + i for i in range(4)]
        late = repro.get(late_chain, timeout=60)
        assert late[-1] == 999
        assert_no_row_scheduled_on_a_dead_node(rt)
    finally:
        repro.shutdown()


def test_workload_survives_gcs_member_failure():
    """Kill a replica in every GCS shard chain mid-workload: clients
    report the failures, chains reconfigure, the application never
    notices (Figure 10a's property, observed through the whole stack)."""
    rt = repro.init(num_nodes=2, num_cpus_per_node=4, gcs_shards=4, gcs_replicas=2)
    try:
        first = repro.get([grow.remote([], i) for i in range(4)], timeout=30)
        assert first == [[i] for i in range(4)]
        for shard in rt.gcs.kv.shards:
            shard.kill_member(0)
        second = repro.get([grow.remote([], 10 + i) for i in range(8)], timeout=30)
        assert second == [[10 + i] for i in range(8)]
        rt.flush_finishes()  # the finishes, behind the get, write every shard
        for shard in rt.gcs.kv.shards:
            assert shard.chain_length() == 1  # reconfigured, still serving
            shard.add_member()  # restore replication
            assert shard.chain_length() == 2
        third = repro.get(grow.remote([], 99), timeout=30)
        assert third == [99]
    finally:
        repro.shutdown()


def test_es_training_survives_node_loss():
    """An RL training job (the paper's target workload) continues across a
    node failure between iterations."""
    from repro.rl import ESConfig, EnvSpec, EvolutionStrategies, PolicySpec

    rt = repro.init(num_nodes=3, num_cpus_per_node=2)
    try:
        env_spec = EnvSpec("cartpole", max_steps=80)
        es = EvolutionStrategies(
            env_spec,
            PolicySpec.for_env(env_spec, kind="linear"),
            ESConfig(population_size=8, sigma=0.3, learning_rate=0.15, seed=5),
        )
        es.train(2)
        victim = [n for n in rt.nodes() if n is not rt.driver_node][0]
        rt.kill_node(victim.node_id)
        rewards = es.train(3)  # rollout tasks reroute to the survivors
        assert len(rewards) == 3
        assert len(es.history) == 5
        assert_no_row_scheduled_on_a_dead_node(rt)
    finally:
        repro.shutdown()


def test_high_task_count_throughput():
    """A couple thousand tiny tasks drain correctly and reasonably fast
    (regression guard on scheduler overhead)."""
    rt = repro.init(num_nodes=2, num_cpus_per_node=4)
    try:

        @repro.remote
        def tiny(i):
            return i

        count = 2000
        start = time.time()
        refs = [tiny.remote(i) for i in range(count)]
        results = repro.get(refs, timeout=120)
        elapsed = time.time() - start
        assert results == list(range(count))
        assert elapsed < 60, f"{count} tasks took {elapsed:.1f}s"
        assert rt.gcs.num_tasks() == count
    finally:
        repro.shutdown()


def test_sim_cluster_runs_are_deterministic():
    """Identical simulated workloads produce identical timelines."""
    from repro.sim import SimCluster, SimConfig
    from repro.sim.workloads import dependency_chains

    def run():
        cluster = SimCluster(SimConfig(num_nodes=3, cpus_per_node=2))
        chains = dependency_chains(num_chains=6, chain_length=5, task_duration=0.05)
        for chain in chains:
            for task in chain:
                cluster.submit(task, origin=0)
        cluster.engine._schedule(0.2, lambda: cluster.kill_node(1))
        cluster.engine.run()
        return (
            cluster.engine.now,
            cluster.tasks_executed,
            cluster.tasks_reexecuted,
            sorted(cluster.timeline.total.items()),
        )

    assert run() == run()


def test_double_failure_with_checkpointed_actor():
    """Two successive node losses; the actor replays from checkpoints both
    times and loses nothing."""
    rt = repro.init(num_nodes=3, num_cpus_per_node=2)
    try:
        ledger = Ledger.remote()
        repro.get([ledger.append.remote(i) for i in range(6)], timeout=30)

        state = rt.actors.get_state(ledger.actor_id)
        rt.kill_node(state.node.node_id)
        assert repro.get(ledger.append.remote(6), timeout=60) == 7

        state = rt.actors.get_state(ledger.actor_id)
        rt.kill_node(state.node.node_id)
        assert repro.get(ledger.append.remote(7), timeout=60) == 8
        assert repro.get(ledger.snapshot.remote(), timeout=60) == list(range(8))
        assert_no_row_scheduled_on_a_dead_node(rt)
    finally:
        repro.shutdown()


# ---------------------------------------------------------------------------
# Deterministic fault injection (repro.common.faults + repro.tools.chaos)
# ---------------------------------------------------------------------------

from repro.common.faults import (  # noqa: E402
    KILL_CHAIN_MEMBER,
    KILL_NODE,
    RESTART_NODE,
    FaultAction,
    FaultSchedule,
    FaultTrigger,
    PlannedFault,
)
from repro.tools.chaos import ChaosRunner, standard_workload  # noqa: E402


def checked_workload(repro_module):
    """The standard chaos workload, then the kill invariant."""
    tasks_run = standard_workload(repro_module)
    assert_no_row_scheduled_on_a_dead_node(repro_module.api.get_runtime())
    return tasks_run


def test_fault_schedule_dry_run_is_deterministic():
    """Unbound schedules log planned faults without applying them, and the
    same seed + same hook stimulus yields the identical canonical log."""

    def drive():
        schedule = FaultSchedule.random(seed=11, num_nodes=4, kills=2)
        for _ in range(300):
            schedule.on_task_finished()
        return schedule.event_log(), schedule.signature()

    log_a, sig_a = drive()
    log_b, sig_b = drive()
    assert log_a == log_b
    assert sig_a == sig_b
    assert log_a  # something fired
    assert all(event[-1] == "dry_run" for event in log_a if event[0] == "planned")


def test_fault_schedule_triggers_are_source_tagged():
    """A task-count trigger must not fire from a placement hook."""
    schedule = FaultSchedule(
        seed=0,
        faults=[
            PlannedFault(
                FaultTrigger(after_tasks=1), FaultAction(KILL_NODE, target=1)
            )
        ],
    )
    for _ in range(50):
        schedule.on_place(None)
    assert schedule.event_log() == ()  # wrong source: nothing fires
    schedule.on_task_finished()
    assert len(schedule.event_log()) == 1


def test_chunk_fault_decisions_are_pure_hash():
    """Chunk drop decisions depend only on (seed, object, chunk)."""
    from repro.common.ids import ObjectID

    oid = ObjectID.from_seed("chunky")

    def decisions(seed):
        schedule = FaultSchedule(seed=seed, chunk_drop_probability=0.5)
        return [schedule.chunk_fault(oid, i) for i in range(32)]

    first = decisions(7)
    assert first == decisions(7)
    assert first != decisions(8)  # different seed, different pattern
    assert "drop" in first


def test_single_use_schedule_rejects_rebind():
    schedule = FaultSchedule.random(seed=1, num_nodes=3, kills=1)
    rt = repro.init(num_nodes=3, fault_schedule=schedule)
    try:
        schedule.bind(rt)  # rebinding the same runtime is a no-op
        with pytest.raises(RuntimeError):
            schedule.bind(object())  # a second cluster must build its own
    finally:
        repro.shutdown()


def test_restart_fired_mid_kill_applies_after_the_kill(monkeypatch):
    """A restart whose trigger fires on another thread while its node's kill
    is still running applies once that kill finishes — it never reads the
    half-killed node (which would log it ``skipped``)."""
    schedule = FaultSchedule(
        seed=0,
        faults=[
            PlannedFault(
                FaultTrigger(after_tasks=1), FaultAction(KILL_NODE, target=1)
            ),
            PlannedFault(
                FaultTrigger(after_tasks=2), FaultAction(RESTART_NODE, target=1)
            ),
        ],
    )
    rt = repro.init(num_nodes=2, num_cpus_per_node=1, fault_schedule=schedule)
    try:
        entered, release = threading.Event(), threading.Event()
        kill_node = rt.kill_node

        def held_kill(node_id):
            entered.set()
            assert release.wait(10)
            kill_node(node_id)

        monkeypatch.setattr(rt, "kill_node", held_kill)
        killer = threading.Thread(target=schedule.on_task_finished)
        killer.start()
        assert entered.wait(10)
        restarter = threading.Thread(target=schedule.on_task_finished)
        restarter.start()
        restarter.join(10)
        assert not restarter.is_alive()
        release.set()
        killer.join(10)
        assert not killer.is_alive()
        outcomes = [(e[3], e[-1]) for e in schedule.event_log()]
        assert outcomes == [(KILL_NODE, "applied"), (RESTART_NODE, "applied")]
        assert rt.node_by_index(1).alive
        assert_no_row_scheduled_on_a_dead_node(rt)
    finally:
        repro.shutdown()


def test_a_chain_write_trigger_cannot_plan_a_node_fault():
    for kind in (KILL_NODE, RESTART_NODE):
        with pytest.raises(ValueError):
            FaultSchedule(faults=[PlannedFault(
                FaultTrigger(after_chain_writes=1), FaultAction(kind, target=1)
            )])


def test_a_time_due_node_kill_fires_from_the_next_placement_not_a_chain_write():
    """The kill is due from the start, so the first hook to look would fire
    it: a chain write inside ``record_event`` must not, since ``kill_node``
    would then write (and wait on its fence) inside another GCS write."""
    schedule = FaultSchedule(seed=0, faults=[PlannedFault(
        FaultTrigger(after_seconds=0.0), FaultAction(KILL_NODE, target=1)
    )])
    rt = repro.init(num_nodes=2, num_cpus_per_node=1, fault_schedule=schedule)
    try:
        writing = threading.local()
        for shard in rt.gcs.kv.shards:
            def write_batch(ops, *args, _write=shard.write_batch, **kwargs):
                writing.depth = getattr(writing, "depth", 0) + 1
                try:
                    return _write(ops, *args, **kwargs)
                finally:
                    writing.depth -= 1

            shard.write_batch = write_batch
        kills = []
        kill_node = rt.kill_node

        def watched_kill(node_id):
            kills.append(getattr(writing, "depth", 0))
            kill_node(node_id)

        rt.kill_node = watched_kill
        victim = rt.node_by_index(1)
        rt.gcs.record_event("probe")  # a chain write, with the kill due
        assert kills == [] and victim.alive
        assert repro.get(grow.remote([], 1), timeout=10) == [1]  # a placement
        assert kills == [0]  # fired outside any chain write
        assert not victim.alive
        assert [e[-1] for e in schedule.event_log()] == ["applied"]
        assert_no_row_scheduled_on_a_dead_node(rt)
    finally:
        repro.shutdown()


def test_a_node_kill_queued_behind_a_chain_kill_waits_for_a_hook_outside_writes():
    """A chain write applying a chain kill finds a node kill queued behind
    it (fired on another thread meanwhile): it leaves the node kill to the
    next hook outside any GCS write."""
    schedule = FaultSchedule(seed=0, faults=[
        PlannedFault(FaultTrigger(after_chain_writes=1),
                     FaultAction(KILL_CHAIN_MEMBER, target=0, member=1)),
        PlannedFault(FaultTrigger(after_tasks=1), FaultAction(KILL_NODE, target=1)),
    ])
    rt = repro.init(num_nodes=2, num_cpus_per_node=1, gcs_replicas=2,
                    fault_schedule=schedule)
    try:
        entered, release = threading.Event(), threading.Event()
        chain = rt.gcs.kv.shards[0]
        kill_member = chain.kill_member

        def held_kill_member(index):
            entered.set()
            assert release.wait(10)
            return kill_member(index)

        chain.kill_member = held_kill_member
        writer = threading.Thread(target=rt.gcs.record_event, args=("probe",))
        writer.start()
        assert entered.wait(10)  # the writer is applying the chain kill
        schedule.on_task_finished()  # the node kill queues behind it
        release.set()
        writer.join(10)
        assert not writer.is_alive()
        victim = rt.node_by_index(1)
        assert victim.alive  # the chain write left it queued
        schedule.poll()
        assert not victim.alive
        outcomes = [(e[3], e[-1]) for e in schedule.event_log()]
        assert outcomes == [(KILL_CHAIN_MEMBER, "applied"), (KILL_NODE, "applied")]
        assert_no_row_scheduled_on_a_dead_node(rt)
    finally:
        repro.shutdown()


def test_chaos_runner_same_seed_same_fault_log():
    """The subsystem's headline guarantee: same-seed runs inject the
    byte-identical fault sequence, and the workload stays correct."""
    runner = ChaosRunner(
        seed=5, num_nodes=4, kills=1, first_kill_after=30,
        workload=checked_workload,
    )
    first = runner.run()
    second = runner.run()
    assert first.tasks_run == 200
    assert second.tasks_run == 200
    assert first.event_log == second.event_log
    assert first.signature == second.signature
    applied = [e for e in first.event_log if e[0] == "planned"]
    assert applied, "no planned faults fired"


def test_chaos_run_with_kill_and_restart_recovers():
    """A killed-and-restarted node rejoins and the full answer is right."""
    schedule = FaultSchedule(
        seed=2,
        faults=[
            PlannedFault(
                FaultTrigger(after_tasks=10), FaultAction(KILL_NODE, target=2)
            ),
            PlannedFault(
                FaultTrigger(after_tasks=20), FaultAction(RESTART_NODE, target=2)
            ),
        ],
    )
    rt = repro.init(num_nodes=3, num_cpus_per_node=2, fault_schedule=schedule)
    try:
        @repro.remote
        def bump(x):
            return x + 1

        refs = [bump.remote(i) for i in range(20)]
        for _ in range(3):
            refs = [bump.remote(r) for r in refs]
        assert repro.get(refs, timeout=120) == [i + 4 for i in range(20)]
        outcomes = [e[-1] for e in schedule.event_log() if e[0] == "planned"]
        assert outcomes == ["applied", "applied"]
        assert all(n.alive for n in rt.nodes())
        assert_no_row_scheduled_on_a_dead_node(rt)
    finally:
        repro.shutdown()
