"""Public API: actors — serial execution, state, handles, failures."""

import threading
from collections import Counter as Tally

import pytest

import repro
from repro.common.errors import ActorDiedError
from repro.gcs.tables import TaskStatus


@repro.remote
class Counter:
    def __init__(self, start=0):
        self.value = start

    def incr(self, amount=1):
        self.value += amount
        return self.value

    def read(self):
        return self.value

    def boom(self):
        raise ValueError("method error")


@repro.remote
def bump_through_task(counter):
    """Actor handles can be passed to tasks (Section 3.1)."""
    return repro.get(counter.incr.remote())


class TestActorBasics:
    def test_creation_and_method(self, runtime):
        counter = Counter.remote(5)
        assert repro.get(counter.incr.remote()) == 6

    def test_methods_execute_serially_in_order(self, runtime):
        """Stateful edges: each method sees the previous method's state."""
        counter = Counter.remote()
        refs = [counter.incr.remote() for _ in range(20)]
        assert repro.get(refs) == list(range(1, 21))

    def test_constructor_kwargs(self, runtime):
        counter = Counter.remote(start=10)
        assert repro.get(counter.read.remote()) == 10

    def test_two_actors_independent_state(self, runtime):
        a, b = Counter.remote(), Counter.remote(100)
        repro.get([a.incr.remote(), b.incr.remote()])
        assert repro.get(a.read.remote()) == 1
        assert repro.get(b.read.remote()) == 101

    def test_futures_as_method_args(self, runtime):
        @repro.remote
        def seven():
            return 7

        counter = Counter.remote()
        assert repro.get(counter.incr.remote(seven.remote())) == 7

    def test_handle_passed_to_task(self, runtime):
        counter = Counter.remote()
        results = sorted(repro.get([bump_through_task.remote(counter) for _ in range(3)]))
        assert results == [1, 2, 3]

    def test_direct_instantiation_rejected(self, runtime):
        with pytest.raises(TypeError):
            Counter()

    def test_private_attribute_access_raises(self, runtime):
        counter = Counter.remote()
        with pytest.raises(AttributeError):
            _ = counter._internal


class TestActorErrors:
    def test_method_error_propagates(self, runtime):
        counter = Counter.remote()
        with pytest.raises(repro.TaskExecutionError) as info:
            repro.get(counter.boom.remote())
        assert isinstance(info.value.cause, ValueError)

    def test_actor_survives_method_error(self, runtime):
        counter = Counter.remote()
        repro.get(counter.incr.remote())
        with pytest.raises(repro.TaskExecutionError):
            repro.get(counter.boom.remote())
        assert repro.get(counter.incr.remote()) == 2

    def test_constructor_failure_kills_actor(self, runtime):
        @repro.remote
        class Broken:
            def __init__(self):
                raise RuntimeError("bad init")

            def method(self):
                return 1

        actor = Broken.remote()
        with pytest.raises(repro.TaskExecutionError):
            repro.get(actor.method.remote(), timeout=10)


class TestActorKill:
    def test_kill_releases_resources(self, runtime):
        # The cluster has 8 CPUs; create and kill 12 actors serially —
        # only possible if kill releases each actor's reservation.
        for i in range(12):
            counter = Counter.remote()
            assert repro.get(counter.incr.remote()) == 1
            repro.kill(counter)

    def test_methods_after_kill_fail(self, runtime):
        counter = Counter.remote()
        repro.get(counter.incr.remote())
        repro.kill(counter)
        with pytest.raises(repro.TaskExecutionError):
            repro.get(counter.incr.remote(), timeout=10)

    def test_permanent_kill_leaves_every_method_row_terminal(self, runtime):
        """One outcome per method of a killed actor: its row is terminal,
        FINISHED iff ``get`` returns, with exactly one ``task_finished``."""
        entered, release = threading.Event(), threading.Event()

        @repro.remote
        class Gate:
            def work(self, hold):
                if hold:
                    entered.set()
                    release.wait(10)
                return "ok"

        gate = Gate.remote()
        done = gate.work.remote(False)
        running = gate.work.remote(True)
        assert entered.wait(10)
        queued = [gate.work.remote(False) for _ in range(2)]
        repro.kill(gate, restart=False)
        late = gate.work.remote(False)  # submitted to an already-dead actor
        release.set()
        runtime.actors.get_state(gate.actor_id).thread.join(10)  # quiescence
        runtime.flush_finishes()  # every queued finish has landed

        refs = [done, running, *queued, late]
        finished = Tally(
            r.as_dict()["task"] for r in runtime.gcs.events("task_finished")
        )
        for ref in refs:
            task_id = runtime.graph.producer_of(ref.object_id)
            status = runtime.gcs.get_task(task_id).status
            assert finished[task_id.short()] == 1
            if ref is done:
                assert repro.get(ref, timeout=10) == "ok"
                assert status is TaskStatus.FINISHED
            else:
                with pytest.raises(repro.TaskExecutionError) as info:
                    repro.get(ref, timeout=10)
                assert isinstance(info.value.cause, ActorDiedError)
                assert status is TaskStatus.FAILED

    def test_kill_with_restart_replays_state(self, runtime):
        """A crash-restart rebuilds the actor by replaying its methods."""
        counter = Counter.options(checkpoint_interval=None).remote()
        repro.get([counter.incr.remote() for _ in range(5)])
        repro.kill(counter, restart=True)
        # State is rebuilt from the method log: next incr sees value 5.
        assert repro.get(counter.incr.remote(), timeout=20) == 6


class TestActorResources:
    def test_gpu_actor_placed_on_gpu_node(self, gpu_runtime):
        @repro.remote(num_gpus=1)
        class GpuActor:
            def where(self):
                from repro.core import context

                return context.current_node().node_id

        actor = GpuActor.remote()
        node_id = repro.get(actor.where.remote())
        node = gpu_runtime.node(node_id)
        assert node.resources.total.get("GPU", 0) > 0

    def test_actor_options_override(self, runtime):
        actor = Counter.options(max_restarts=0).remote()
        state = runtime.actors.get_state(actor.actor_id)
        assert state.max_restarts == 0

    def test_actor_placement_respects_reservations(self, runtime):
        """Actor lifetime reservations must spread across nodes: 8 actors
        on 2×4-CPU nodes fit exactly; a placement that ignores
        reservations deadlocks this (regression for a real bug)."""
        actors = [Counter.remote() for _ in range(8)]
        results = repro.get([a.incr.remote() for a in actors], timeout=30)
        assert results == [1] * 8
        per_node = {}
        for actor in actors:
            state = runtime.actors.get_state(actor.actor_id)
            per_node[state.node.node_id] = per_node.get(state.node.node_id, 0) + 1
        assert sorted(per_node.values()) == [4, 4]
        for actor in actors:
            repro.kill(actor)

    def test_concurrent_pipelines_with_actor_pressure(self, runtime):
        """Several driver tasks each creating actors (the Figure 3 shape)
        make progress even when reservations near cluster capacity."""

        @repro.remote
        def pipeline(seed):
            counter = Counter.remote(seed)
            values = [repro.get(counter.incr.remote()) for _ in range(3)]
            repro.kill(counter)
            return values[-1]

        results = repro.get([pipeline.remote(i * 10) for i in range(3)], timeout=60)
        assert results == [3, 13, 23]
