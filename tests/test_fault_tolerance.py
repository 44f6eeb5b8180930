"""Fault tolerance: lineage reconstruction, eviction recovery, actor replay.

These tests exercise the *real* recovery code paths of the runtime — the
behaviours Figures 11a/11b measure at cluster scale.
"""

import threading
import time

import pytest

import repro
from repro.common.errors import (
    ActorDiedError,
    ObjectLostError,
    ResourceRequestError,
)
from repro.gcs.tables import TaskStatus
from tests.invariants import assert_no_row_scheduled_on_a_dead_node


@repro.remote
def step(x):
    return x + 1


@repro.remote
def blob(i):
    return bytes(10_000) + bytes([i % 256])


@repro.remote
def echo(x):
    return x


@repro.remote
class Accumulator:
    def __init__(self):
        self.total = 0

    def add(self, amount):
        self.total += amount
        return self.total


class TestTaskReconstruction:
    def test_chain_survives_node_death(self, runtime):
        ref = step.remote(0)
        for _ in range(6):
            ref = step.remote(ref)
        assert repro.get(ref, timeout=20) == 7
        victim = [n for n in runtime.nodes() if n is not runtime.driver_node][0]
        runtime.kill_node(victim.node_id)
        # New dependent work — any lost ancestors must be replayed.
        ref2 = step.remote(ref)
        assert repro.get(ref2, timeout=30) == 8
        assert_no_row_scheduled_on_a_dead_node(runtime)

    def test_result_on_dead_node_is_reexecuted(self, runtime):
        refs = [step.remote(i) for i in range(16)]
        repro.get(refs, timeout=20)
        victim = [n for n in runtime.nodes() if n is not runtime.driver_node][0]
        held_here = victim.store.num_objects()
        runtime.kill_node(victim.node_id)
        # All values still retrievable (transfer from survivors or replay).
        assert repro.get(refs, timeout=30) == [i + 1 for i in range(16)]
        assert held_here == 0 or runtime.reconstruction.reconstructed_tasks >= 0
        assert_no_row_scheduled_on_a_dead_node(runtime)

    def test_eviction_triggers_lineage_replay(self):
        rt = repro.init(
            num_nodes=1, num_cpus_per_node=2, object_store_capacity_bytes=45_000
        )
        try:
            refs = [blob.remote(i) for i in range(10)]
            for ref in refs:
                repro.get(ref, timeout=20)
            assert rt.nodes()[0].store.eviction_count > 0
            # The earliest results were evicted; get must replay lineage.
            value = repro.get(refs[0], timeout=20)
            assert value[-1] == 0
            assert rt.reconstruction.reconstructed_tasks > 0
        finally:
            repro.shutdown()

    def test_copy_evicted_before_the_reader_sees_it_is_rebuilt_at_once(
        self, monkeypatch
    ):
        """The reader's fetch is armed before the output exists (no
        location yet, lineage known), and the copy lands and is evicted
        before the reader wakes: the location retraction re-arms the fetch,
        so the replay starts then and the reader does not wait out the
        notification layer's backstop."""
        from repro.core import runtime as runtime_module

        rt = repro.init(
            num_nodes=1, num_cpus_per_node=2, object_store_capacity_bytes=25_000
        )
        gate, blocked, released = (threading.Event() for _ in range(3))
        got = []
        reader = threading.Thread(
            target=lambda: got.append(repro.get(ref, timeout=10))
        )
        wait_any = runtime_module.wait_any

        def held_wait_any(*args, **kwargs):
            # The reader's first wait is held until its copy is gone.
            if threading.current_thread() is reader and not released.is_set():
                blocked.set()
                assert released.wait(10)
            return wait_any(*args, **kwargs)

        monkeypatch.setattr(runtime_module, "wait_any", held_wait_any)

        @repro.remote
        def held_blob(i):
            assert gate.wait(10)
            return bytes(10_000) + bytes([i])

        try:
            ref = held_blob.remote(1)
            reader.start()
            assert blocked.wait(10)
            node = rt.driver_node
            landed, removed = threading.Event(), threading.Event()
            node.store.on_available(ref.object_id, lambda _oid: landed.set())
            rt.gcs.subscribe_object_locations(
                ref.object_id, lambda op, _node: op == "remove" and removed.set()
            )
            gate.set()
            assert landed.wait(10)
            # 3 x 10 KB in a 25 KB store: the second put evicts the LRU
            # copy, the output.
            for _ in range(2):
                repro.put(bytes(10_000))
            assert removed.wait(10)
            backstops = rt.wait_stats.snapshot()["backstop_timeouts"]
            began = time.monotonic()
            released.set()
            reader.join(10)
            elapsed = time.monotonic() - began
            assert got == [bytes(10_000) + bytes([1])]
            assert elapsed < 0.5, f"get took {elapsed:.2f} s"
            assert rt.wait_stats.snapshot()["backstop_timeouts"] == backstops
            assert rt.reconstruction.reconstructed_tasks == 1
        finally:
            gate.set()
            released.set()
            repro.shutdown()

    def test_put_object_loss_is_permanent(self, runtime):
        """Objects created by put have no lineage: loss is unrecoverable."""
        ref = repro.put(123)
        for node in runtime.nodes():
            node.store.delete(ref.object_id)
            runtime.gcs.remove_object_location(ref.object_id, node.node_id)
        with pytest.raises(ObjectLostError):
            repro.get(ref, timeout=5)

    def test_queued_tasks_rerouted_on_node_death(self, runtime):
        import time

        @repro.remote
        def slow_inc(x):
            time.sleep(0.05)
            return x + 1

        refs = [slow_inc.remote(i) for i in range(24)]
        victim = [n for n in runtime.nodes() if n is not runtime.driver_node][0]
        runtime.kill_node(victim.node_id)
        assert sorted(repro.get(refs, timeout=60)) == sorted(
            i + 1 for i in range(24)
        )
        assert_no_row_scheduled_on_a_dead_node(runtime)


class TestActorReconstruction:
    def test_actor_replays_after_node_death(self, runtime):
        actor = Accumulator.remote()
        refs = [actor.add.remote(1) for _ in range(8)]
        assert repro.get(refs[-1], timeout=20) == 8
        state = runtime.actors.get_state(actor.actor_id)
        runtime.kill_node(state.node.node_id)
        # Full replay (no checkpoint): state must be identical.
        assert repro.get(actor.add.remote(1), timeout=30) == 9
        assert runtime.actors.replayed_methods >= 8
        assert_no_row_scheduled_on_a_dead_node(runtime)

    def test_checkpoint_bounds_replay(self, runtime):
        """Figure 11b: with checkpointing only post-checkpoint methods
        are re-executed."""
        actor = Accumulator.options(checkpoint_interval=5).remote()
        refs = [actor.add.remote(1) for _ in range(12)]
        assert repro.get(refs[-1], timeout=20) == 12
        state = runtime.actors.get_state(actor.actor_id)
        runtime.kill_node(state.node.node_id)
        assert repro.get(actor.add.remote(1), timeout=30) == 13
        # Checkpoint at 10; methods 11..12 replay (2), not all 12.
        assert runtime.actors.replayed_methods <= 4
        assert_no_row_scheduled_on_a_dead_node(runtime)

    def test_custom_checkpoint_hooks(self, runtime):
        @repro.remote(checkpoint_interval=2)
        class Custom:
            def __init__(self):
                self.state = []
                self.restored = False

            def push(self, x):
                self.state.append(x)
                return len(self.state)

            def was_restored(self):
                return self.restored

            def save_checkpoint(self):
                return list(self.state)

            def restore_checkpoint(self, saved):
                self.state = list(saved)
                self.restored = True

        actor = Custom.remote()
        repro.get([actor.push.remote(i) for i in range(4)], timeout=20)
        repro.kill(actor, restart=True)
        assert repro.get(actor.push.remote(99), timeout=30) == 5
        assert repro.get(actor.was_restored.remote(), timeout=20)

    def test_max_restarts_exhausted(self, runtime):
        actor = Accumulator.options(max_restarts=0).remote()
        assert repro.get(actor.add.remote(1), timeout=20) == 1
        repro.kill(actor, restart=True)  # exceeds max_restarts=0
        with pytest.raises(repro.TaskExecutionError):
            repro.get(actor.add.remote(1), timeout=20)

    def test_lost_output_of_a_dead_actor_fails_at_once(self):
        """A method output lost with an actor that can never restart fails
        its readers at once, with one FAILED finish however many ask."""
        runtime = repro.init(num_nodes=1, num_cpus_per_node=2)
        far = runtime.add_node({"CPU": 2.0, "far": 1.0})
        actor = Accumulator.options(max_restarts=0, resources={"far": 1}).remote()
        ref = actor.add.remote(1)
        repro.wait([ref])
        runtime.flush_finishes()
        runtime.kill_node(far.node_id)
        for _reader in range(2):
            with pytest.raises(repro.TaskExecutionError) as info:
                repro.get(ref, timeout=10)
            assert isinstance(info.value.cause, ActorDiedError)
        task = runtime.graph.producer_of(ref.object_id).short()
        failed = [
            record
            for record in runtime.landed_gcs().events("task_finished")
            if record.as_dict()["task"] == task
            and record.as_dict()["status"] == TaskStatus.FAILED.value
        ]
        assert len(failed) == 1


class TestClusterElasticity:
    def test_add_node_expands_capacity(self, runtime):
        new_node = runtime.add_node({"CPU": 4})
        assert new_node.node_id in {n.node_id for n in runtime.live_nodes()}
        refs = [step.remote(i) for i in range(12)]
        assert repro.get(refs, timeout=20) == [i + 1 for i in range(12)]

    def test_kill_node_idempotent(self, runtime):
        victim = [n for n in runtime.nodes() if n is not runtime.driver_node][0]
        runtime.kill_node(victim.node_id)
        runtime.kill_node(victim.node_id)  # no error
        assert len(runtime.live_nodes()) == 1
        assert_no_row_scheduled_on_a_dead_node(runtime)


class HeldRowWrite:
    """Holds the first ``ShardedKV.batch`` that writes a task row on
    ``thread`` until ``release`` is set; ``entered`` is set once it holds."""

    def __init__(self, kv, thread):
        self.entered = threading.Event()
        self.release = threading.Event()
        self._thread = thread
        self._batch = kv.batch
        kv.batch = self.batch

    def batch(self, ops):
        if (
            threading.current_thread() is self._thread
            and not self.entered.is_set()
            and any(op == "put" and key[0] == "task" for op, key, _ in ops)
        ):
            self.entered.set()
            assert self.release.wait(10)
        return self._batch(ops)


class TestKillWhileRowInFlight:
    """A node dies while the submission it is placing has its task row in
    flight: the task still runs once, on the survivor, and is submitted
    once."""

    @staticmethod
    def kill_during_row_write(runtime, submit):
        victim = runtime.driver_node
        result = {}
        submitter = threading.Thread(target=lambda: result.update(ref=submit()))
        held = HeldRowWrite(runtime.gcs.kv, submitter)
        submitter.start()
        assert held.entered.wait(10)
        runtime.kill_node(victim.node_id)
        held.release.set()
        submitter.join(10)
        return victim, result["ref"]

    @staticmethod
    def check_tables(runtime, victim, survivor, *refs):
        task_ids = [runtime.graph.producer_of(ref.object_id) for ref in refs]
        for task_id in task_ids:
            assert len(task_events(runtime, "task_submitted", task_id)) == 1
        repro.shutdown()  # quiescence: every write has landed
        for task_id in task_ids:
            assert len(task_events(runtime, "task_finished", task_id)) == 1
            row = runtime.gcs.get_task(task_id)
            assert (row.status, row.node_id) == (
                TaskStatus.FINISHED, survivor.node_id
            )
        assert not victim.alive
        assert_no_row_scheduled_on_a_dead_node(runtime)

    def test_fast_path(self):
        runtime = repro.init(num_nodes=2, num_cpus_per_node=2)
        survivor = runtime.nodes()[1]
        victim, ref = self.kill_during_row_write(runtime, lambda: echo.remote(7))
        assert repro.get(ref, timeout=10) == 7
        self.check_tables(runtime, victim, survivor, ref)

    def test_submit_many_wave(self):
        # The wave is ready at placement: had the kill missed it, the
        # placement would hand it to the victim's workers on this thread.
        runtime = repro.init(num_nodes=2, num_cpus_per_node=2)
        survivor = runtime.nodes()[1]
        victim, refs = self.kill_during_row_write(
            runtime, lambda: echo.submit_many([(i,) for i in range(4)])
        )
        assert repro.get(refs, timeout=10) == list(range(4))
        self.check_tables(runtime, victim, survivor, *refs)

    def test_queued_behind_an_input(self):
        runtime = repro.init(num_nodes=1, num_cpus_per_node=2)
        survivor = runtime.add_node({"CPU": 2, "far": 1})
        gate = threading.Event()

        @repro.remote(resources={"far": 1})
        def held(x):
            assert gate.wait(10)
            return x

        unfinished = held.remote(7)
        victim, ref = self.kill_during_row_write(
            runtime, lambda: echo.remote(unfinished)
        )
        gate.set()
        assert repro.get(ref, timeout=10) == 7
        self.check_tables(runtime, victim, survivor, ref)


def lose(runtime, object_id):
    """Delete every copy of ``object_id`` and retract its locations."""
    for node in runtime.live_nodes():
        if node.store.contains(object_id):
            node.store.delete(object_id)
            runtime.gcs.remove_object_location(object_id, node.node_id)


def task_events(runtime, category, task_id):
    return [
        r for r in runtime.gcs.events(category)
        if r.as_dict()["task"] == task_id.short()
    ]


class TestReconstructionRaces:
    """Reconstruction re-places a task with an ordinary placement write; no
    status write precedes it.  These races hold that write open."""

    def test_kill_of_the_node_a_reconstruction_is_placing_on(self, monkeypatch):
        runtime = repro.init(num_nodes=2, num_cpus_per_node=2)
        home, victim = runtime.nodes()
        ref = echo.remote(7)
        assert repro.wait([ref], timeout=10)[0] == [ref]
        runtime.flush_finishes()  # the finish lands behind the wait
        task_id = runtime.graph.producer_of(ref.object_id)
        lose(runtime, ref.object_id)
        # The reconstruction's placement goes to the victim; any later one
        # is the scheduler's own choice among live nodes.
        scheduler = runtime.global_schedulers[0]
        schedule = scheduler.schedule
        picks = iter([victim])
        monkeypatch.setattr(
            scheduler, "schedule", lambda spec: next(picks, None) or schedule(spec)
        )
        reconstructor = threading.Thread(
            target=runtime.reconstruction.maybe_reconstruct,
            args=(ref.object_id,),
        )
        held = HeldRowWrite(runtime.gcs.kv, reconstructor)
        reconstructor.start()
        assert held.entered.wait(10)  # the SCHEDULED row on the victim
        runtime.kill_node(victim.node_id)
        held.release.set()
        reconstructor.join(10)
        assert not reconstructor.is_alive()
        assert repro.get(ref, timeout=10) == 7
        repro.shutdown()  # quiescence: every write has landed
        assert len(task_events(runtime, "task_finished", task_id)) == 2
        row = runtime.gcs.get_task(task_id)
        assert (row.status, row.node_id) == (TaskStatus.FINISHED, home.node_id)
        assert not victim.alive
        assert_no_row_scheduled_on_a_dead_node(runtime)

    def test_replayed_parent_resubmits_a_child_being_reconstructed(self):
        runtime = repro.init(num_nodes=1, num_cpus_per_node=2)
        submissions = []
        replayed = threading.Event()

        @repro.remote
        def parent():
            echo.remote(5)
            submissions.append(1)
            if len(submissions) == 2:
                replayed.set()
            return 1

        ref = parent.remote()
        assert repro.wait([ref], timeout=10)[0] == [ref]
        parent_id = runtime.graph.producer_of(ref.object_id)
        (child_id,) = runtime.graph.children_of(parent_id)
        (child_out,) = runtime.graph.task(child_id).return_ids
        assert runtime.wait([child_out], 1, timeout=10)[0] == [child_out]
        runtime.flush_finishes()  # the finishes land behind the waits
        lose(runtime, child_out)
        lose(runtime, ref.object_id)
        reconstructor = threading.Thread(
            target=runtime.reconstruction.maybe_reconstruct, args=(child_out,)
        )
        held = HeldRowWrite(runtime.gcs.kv, reconstructor)
        reconstructor.start()
        assert held.entered.wait(10)  # the child's placement, in flight
        # The parent replays and submits the child again meanwhile.
        runtime.reconstruction.maybe_reconstruct(ref.object_id)
        assert replayed.wait(10)
        assert repro.get(ref, timeout=10) == 1
        held.release.set()
        reconstructor.join(10)
        assert not reconstructor.is_alive()
        assert runtime.wait([child_out], 1, timeout=10)[0] == [child_out]
        repro.shutdown()  # quiescence: every write has landed
        assert len(task_events(runtime, "task_scheduled", child_id)) == 2
        assert len(task_events(runtime, "task_finished", child_id)) == 2
        assert runtime.gcs.get_task(child_id).status == TaskStatus.FINISHED


class TestFinishedBetweenKillSnapshots:
    def test_attempt_run_inside_the_kill_is_replayed(self, monkeypatch):
        """A task dispatched after ``kill_node`` marks its node dead, and
        finished (unstored) before the fence, lands FINISHED on the dead
        node with no copy: a reader's reconstruction replays it."""
        runtime = repro.init(num_nodes=1, num_cpus_per_node=1)
        victim = runtime.add_node({"CPU": 1, "n": 1})
        started, gate = threading.Event(), threading.Event()

        @repro.remote(resources={"n": 1})
        def held(x):
            started.set()
            assert gate.wait(10)
            return x

        @repro.remote(resources={"n": 1})
        def quick(x):
            return x

        first = held.remote(1)
        assert started.wait(10)
        second = quick.remote(2)  # queued behind ``first`` for the "n" slot
        second_id = runtime.graph.producer_of(second.object_id)
        runtime.add_node({"CPU": 1, "n": 1})  # the survivor
        stopping, resume = threading.Event(), threading.Event()
        stop = victim.local_scheduler.stop

        def held_stop():
            stopping.set()  # alive is False; releases still dispatch
            assert resume.wait(10)
            stop()

        monkeypatch.setattr(victim.local_scheduler, "stop", held_stop)
        finished = threading.Event()
        finish_tasks = runtime.gcs.finish_tasks

        def watched_finish_tasks(finishes, *args, **kwargs):
            finish_tasks(finishes, *args, **kwargs)
            if any(finish.task_id == second_id for finish in finishes):
                finished.set()

        monkeypatch.setattr(runtime.gcs, "finish_tasks", watched_finish_tasks)
        killer = threading.Thread(target=runtime.kill_node, args=(victim.node_id,))
        killer.start()
        assert stopping.wait(10)
        gate.set()  # frees the slot: ``second`` runs on the dying node
        assert finished.wait(10)
        resume.set()
        killer.join(10)
        assert not killer.is_alive()
        assert repro.get([first, second], timeout=10) == [1, 2]
        repro.shutdown()
        assert_no_row_scheduled_on_a_dead_node(runtime)


class TestKillWithNoSurvivorThatFits:
    def test_kill_finishes_and_unplaceable_tasks_fail(self):
        runtime = repro.init(num_nodes=1, num_cpus_per_node=2)
        far = runtime.add_node({"CPU": 2, "far": 1})
        started = threading.Event()
        gate = threading.Event()

        @repro.remote(resources={"far": 1})
        def held(x):
            started.set()
            assert gate.wait(10)
            return x

        running = held.remote(1)
        assert started.wait(10)
        queued = held.remote(2)  # waits for the one "far" slot
        deaths = []
        on_node_death = runtime.actors.on_node_death
        runtime.actors.on_node_death = lambda node_id: (
            deaths.append(node_id),
            on_node_death(node_id),
        )
        runtime.kill_node(far.node_id)
        assert deaths == [far.node_id]
        for ref in (running, queued):
            with pytest.raises(repro.TaskExecutionError) as info:
                repro.get(ref, timeout=10)
            assert isinstance(info.value.cause, ResourceRequestError)
            runtime.flush_finishes()  # the finish lands behind the get
            row = runtime.gcs.get_task(runtime.graph.producer_of(ref.object_id))
            assert row.status == TaskStatus.FAILED
        assert_no_row_scheduled_on_a_dead_node(runtime)
        gate.set()  # let the stranded attempt exit
