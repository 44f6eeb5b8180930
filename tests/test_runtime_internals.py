"""Runtime internals: submission dedup, driver failover, config handling."""

import threading
import time

import pytest

import repro
from repro.common.ids import TaskID
from repro.core.runtime import Runtime, RuntimeConfig
from repro.core.task_spec import TaskSpec
from repro.gcs.tables import TaskStatus


@repro.remote
def plus_one(x):
    return x + 1


class TestConfig:
    def test_config_object_and_overrides_are_exclusive(self):
        with pytest.raises(ValueError):
            Runtime(RuntimeConfig(), num_nodes=3)

    def test_overrides_apply(self):
        rt = repro.init(num_nodes=3, num_cpus_per_node=2, gcs_shards=2)
        try:
            assert len(rt.nodes()) == 3
            assert rt.gcs.kv.num_shards == 2
            assert rt.nodes()[0].resources.total == {"CPU": 2.0}
        finally:
            repro.shutdown()

    def test_gpu_and_custom_resources_config(self):
        rt = repro.init(
            num_nodes=1,
            num_cpus_per_node=2,
            num_gpus_per_node=1,
            custom_resources={"TPU": 2},
        )
        try:
            totals = rt.nodes()[0].resources.total
            assert totals == {"CPU": 2.0, "GPU": 1.0, "TPU": 2.0}
        finally:
            repro.shutdown()

    def test_multiple_global_scheduler_replicas(self):
        rt = repro.init(num_nodes=2, num_global_schedulers=3)
        try:
            assert len(rt.global_schedulers) == 3
            # Round-robin across replicas.
            seen = {id(rt.global_scheduler_for(None)) for _ in range(6)}
            assert len(seen) == 3
        finally:
            repro.shutdown()


class TestSubmissionDedup:
    def test_finished_task_with_live_outputs_not_reexecuted(self, runtime):
        """A replayed parent resubmits children with identical task IDs;
        children whose outputs still exist must not re-run."""
        import time

        from repro.core import context

        @repro.remote
        def leaf():
            return 42

        parent_id = runtime.driver_task_id

        def submit_as_replay(replay=False):
            # Same parent + same submission index ⇒ same child task ID.
            # A replayed execution carries is_replay=True (set by the
            # reconstruction / resubmission paths), which routes its
            # submissions through the checked, deduplicating path.
            with context.execution_scope(
                runtime, runtime.driver_node, parent_id, is_replay=replay
            ):
                return leaf.remote()

        first = submit_as_replay()
        assert repro.get(first, timeout=10) == 42
        runtime.flush_finishes()  # the finish lands behind the get
        executed_before = len(runtime.gcs.events("task_finished"))
        second = submit_as_replay(replay=True)  # identical deterministic ID
        assert second == first
        time.sleep(0.2)
        assert len(runtime.gcs.events("task_finished")) == executed_before
        entry = runtime.gcs.get_task(runtime.gcs.creating_task(first.object_id))
        assert entry.status == TaskStatus.FINISHED


class TestDriverNodeFailover:
    def test_driver_node_moves_after_death(self, runtime):
        first = runtime.driver_node
        runtime.kill_node(first.node_id)
        second = runtime.driver_node
        assert second is not first
        assert second.alive
        # The API keeps working from the new driver node.
        assert repro.get(plus_one.remote(5), timeout=20) == 6

    def test_no_live_nodes_raises(self, runtime):
        from repro.common.errors import RuntimeNotInitializedError

        for node in runtime.nodes():
            runtime.kill_node(node.node_id)
        with pytest.raises(RuntimeNotInitializedError):
            _ = runtime.driver_node


class TestShutdown:
    def test_a_spec_rerouted_during_shutdown_is_not_placed(self):
        """A spec whose input landed just after ``shutdown`` stopped its
        scheduler is rerouted; every scheduler is stopped while its node is
        alive, so a placement would bounce between them without end."""
        runtime = repro.init(num_nodes=2, num_cpus_per_node=1)
        spec = TaskSpec(
            task_id=TaskID.from_seed("rerouted"),
            function_id=plus_one._function_id,
            function_name="plus_one",
            args=(1,),
            kwargs=(),
            num_returns=1,
        )
        repro.shutdown()
        runtime.route_and_place(spec)
        assert runtime.gcs.get_task(spec.task_id) is None

    def test_shutdown_does_not_wait_for_a_task_in_user_code(self):
        """Shutdown signals the task workers and actor loops but joins
        none: one inside user code is a daemon that exits after its call."""
        started = threading.Event()
        method_started = threading.Event()

        @repro.remote
        def sleeper():
            started.set()
            time.sleep(60)

        @repro.remote
        class Sleeper:
            def sleep(self):
                method_started.set()
                time.sleep(60)

        repro.init(num_nodes=1, num_cpus_per_node=2)
        sleeper.remote()
        Sleeper.remote().sleep.remote()
        assert started.wait(10)
        assert method_started.wait(10)
        began = time.monotonic()
        repro.shutdown()
        assert time.monotonic() - began < 0.5


class TestEventLogIntegrity:
    def test_every_finished_task_has_an_event(self, runtime):
        refs = [plus_one.remote(i) for i in range(10)]
        repro.get(refs, timeout=20)
        runtime.flush_finishes()  # the finishes land behind the get
        events = runtime.gcs.events("task_finished")
        assert len(events) == 10
        names = {e.as_dict()["name"] for e in events}
        assert names == {"plus_one"}

    def test_node_death_recorded(self, runtime):
        victim = runtime.nodes()[1]
        runtime.kill_node(victim.node_id)
        deaths = runtime.gcs.events("node_death")
        assert len(deaths) == 1
        assert deaths[0].as_dict()["node"] == victim.node_id.hex()[:8]
