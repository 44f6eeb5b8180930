"""Bottom-up scheduling: spillback, feasibility, locality, heterogeneity."""

import collections
import threading
import time

import pytest

import repro
from repro.common.errors import ResourceRequestError
from repro.tools import ClusterInspector


@repro.remote
def where():
    from repro.core import context

    return context.current_node().node_id


@repro.remote
def where_slowly():
    from repro.core import context

    time.sleep(0.05)
    return context.current_node().node_id


@repro.remote(num_gpus=1)
def gpu_task():
    from repro.core import context

    return context.current_node().node_id


@repro.remote
def consume(payload):
    from repro.core import context

    return context.current_node().node_id


_HOLD = threading.Event()


@repro.remote
def consume_held(payload):
    from repro.core import context

    assert _HOLD.wait(20)
    return context.current_node().node_id


class TestSpillback:
    def test_small_load_stays_local(self, runtime):
        """Below the spillback threshold, tasks run on the submitting node."""
        driver_node = runtime.driver_node.node_id
        assert repro.get(where.remote()) == driver_node
        assert runtime.driver_node.local_scheduler.scheduled_locally >= 1

    def test_overload_spills_to_other_nodes(self, runtime):
        """Enough concurrent slow tasks must spread across the cluster."""
        refs = [where_slowly.remote() for _ in range(64)]
        nodes = collections.Counter(repro.get(refs))
        assert len(nodes) == 2, f"expected both nodes used, got {nodes}"
        assert runtime.driver_node.local_scheduler.forwarded > 0


class TestResourceAwareness:
    def test_gpu_task_lands_on_gpu_node(self, gpu_runtime):
        gpu_nodes = {
            n.node_id
            for n in gpu_runtime.nodes()
            if n.resources.total.get("GPU", 0) > 0
        }
        assert repro.get(gpu_task.remote()) in gpu_nodes

    def test_infeasible_request_raises(self, runtime):
        with pytest.raises(ResourceRequestError):
            gpu_task.remote()  # no GPU node anywhere in this cluster

    def test_rejected_submission_leaves_no_trace(self, runtime):
        """A submission the scheduler rejects leaves no task row, no
        ``task_submitted`` event, no ``tasks_submitted_total`` bump and no
        task-graph entry."""

        def submitted_total():
            series = runtime.metrics.to_dict()["tasks_submitted_total"]["series"]
            return sum(s["value"] for s in series)

        def assert_no_trace():
            assert ClusterInspector(runtime).pending_tasks() == []
            assert runtime.gcs.num_tasks() == 0
            assert runtime.gcs.events("task_submitted") == []
            assert submitted_total() == 0
            assert runtime.graph.num_tasks() == 0

        with pytest.raises(ResourceRequestError):
            gpu_task.remote()
        assert_no_trace()
        with pytest.raises(ResourceRequestError):
            gpu_task.submit_many([(), ()])
        assert_no_trace()

    def test_custom_resources(self):
        rt = repro.init(num_nodes=1, num_cpus_per_node=2)
        special = rt.add_node({"CPU": 2, "accelerator": 1})
        try:

            @repro.remote(resources={"accelerator": 1})
            def on_special():
                from repro.core import context

                return context.current_node().node_id

            assert repro.get(on_special.remote()) == special.node_id
        finally:
            repro.shutdown()

    def test_fractional_cpus_pack_more_tasks(self):
        rt = repro.init(num_nodes=1, num_cpus_per_node=1)
        try:

            @repro.remote(num_cpus=0.25)
            def tiny():
                time.sleep(0.1)
                return 1

            start = time.perf_counter()
            assert sum(repro.get([tiny.remote() for _ in range(4)])) == 4
            elapsed = time.perf_counter() - start
            # 4 quarter-CPU tasks co-run on one core: ~1 round, not 4.
            assert elapsed < 0.35
        finally:
            repro.shutdown()


class TestLocality:
    def test_large_input_attracts_task(self):
        """Locality-aware placement: the task goes to the data (Fig 8a).

        Every task is placed by the global scheduler (threshold 0) and held
        until all four are placed, so no duration is reported and the
        EWMA task duration stays at its 1 ms start.  The holder has 4 CPUs,
        so it is never full (no 1 s penalty) and scores at most 3 placed
        tasks x 1 ms = 3 ms; every other node is empty and scores the
        transfer, 20 MB / 2 GB/s = 10 ms.  All four go to the data, by a
        margin of 3x, whatever finishes when."""
        rt = repro.init(num_nodes=3, num_cpus_per_node=4, spillback_threshold=0)
        _HOLD.clear()
        try:
            payload = repro.put(b"x" * 20_000_000)  # on the driver node
            holder = rt.driver_node.node_id
            refs = [consume_held.remote(payload) for _ in range(4)]
            _HOLD.set()
            results = repro.get(refs, timeout=20)
            hits = sum(1 for node_id in results if node_id == holder)
            assert hits == 4, f"only {hits}/4 tasks placed with the data"
        finally:
            _HOLD.set()
            repro.shutdown()

    def test_transferred_input_registers_new_location(self, runtime):
        payload = repro.put(b"y" * 100_000)
        repro.get([consume.remote(payload) for _ in range(8)])
        locations = runtime.gcs.get_object_locations(payload.object_id)
        assert len(locations) >= 1


class TestGlobalSchedulerEstimates:
    def test_ewma_updates(self, runtime):
        scheduler = runtime.global_schedulers[0]
        initial = scheduler.avg_task_duration.get()
        scheduler.report_task_duration(1.0)
        assert scheduler.avg_task_duration.get() > initial

    def test_estimated_wait_includes_transfer_when_aware(self, runtime):
        import numpy as np
        from repro.core.task_spec import ArgRef, TaskSpec
        from repro.common.ids import FunctionID, TaskID

        payload = repro.put(np.zeros(1_000_000))
        holder = runtime.driver_node
        other = [n for n in runtime.nodes() if n is not holder][0]
        spec = TaskSpec(
            task_id=TaskID.from_seed("probe"),
            function_id=FunctionID.from_seed("probe"),
            function_name="probe",
            args=(ArgRef(payload.object_id),),
            kwargs=(),
            num_returns=1,
        )
        scheduler = runtime.global_schedulers[0]
        assert scheduler.estimated_wait(other, spec) > scheduler.estimated_wait(
            holder, spec
        )
