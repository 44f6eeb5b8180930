"""Focused tests for the local and global schedulers."""

import sys
import threading
import time

import pytest

import repro
from repro.common.errors import ResourceRequestError
from repro.common.ids import FunctionID, TaskID
from repro.core.global_scheduler import ExponentialAverage
from repro.core.task_spec import TaskSpec


def make_spec(name="probe", resources=None):
    return TaskSpec(
        task_id=TaskID.from_seed(name),
        function_id=FunctionID.from_seed(name),
        function_name=name,
        args=(),
        kwargs=(),
        num_returns=1,
        resources=resources or {"CPU": 1.0},
    )


class TestExponentialAverage:
    def test_moves_toward_samples(self):
        avg = ExponentialAverage(1.0, alpha=0.5)
        avg.update(3.0)
        assert avg.get() == pytest.approx(2.0)
        avg.update(2.0)
        assert avg.get() == pytest.approx(2.0)

    def test_alpha_extremes(self):
        sticky = ExponentialAverage(1.0, alpha=0.0)
        sticky.update(100.0)
        assert sticky.get() == 1.0
        jumpy = ExponentialAverage(1.0, alpha=1.0)
        jumpy.update(100.0)
        assert jumpy.get() == 100.0


class TestGlobalScheduler:
    def test_infeasible_everywhere_raises(self, runtime):
        scheduler = runtime.global_schedulers[0]
        with pytest.raises(ResourceRequestError):
            scheduler.schedule(make_spec(resources={"GPU": 1.0}))

    def test_dead_nodes_never_chosen(self, runtime):
        victim = runtime.nodes()[1]
        runtime.kill_node(victim.node_id)
        scheduler = runtime.global_schedulers[0]
        for i in range(6):
            chosen = scheduler.schedule(make_spec(name=f"p{i}"))
            assert chosen.alive

    def test_ties_round_robin_across_nodes(self, runtime):
        scheduler = runtime.global_schedulers[0]
        chosen = {
            scheduler.schedule(make_spec(name=f"t{i}")).node_id for i in range(6)
        }
        assert len(chosen) == 2  # both idle nodes share the load

    def test_loaded_node_avoided(self, runtime):
        """A node with backlog loses to an idle one."""

        @repro.remote
        def sleepy():
            time.sleep(0.3)

        # Saturate the driver node's local queue.
        refs = [sleepy.remote() for _ in range(8)]
        time.sleep(0.05)
        scheduler = runtime.global_schedulers[0]
        scheduler.report_task_duration(0.3)  # make backlog expensive
        busy = runtime.driver_node
        idle = [n for n in runtime.nodes() if n is not busy][0]
        wait_busy = scheduler.estimated_wait(busy, make_spec())
        wait_idle = scheduler.estimated_wait(idle, make_spec())
        assert wait_busy >= wait_idle
        repro.get(refs, timeout=20)

    def test_decision_counter(self, runtime):
        scheduler = runtime.global_schedulers[0]
        before = scheduler.decisions
        scheduler.schedule(make_spec())
        assert scheduler.decisions == before + 1


class TestLocalScheduler:
    def test_backlog_counts_running_and_queued(self, runtime):
        @repro.remote
        def sleepy():
            time.sleep(0.25)

        node = runtime.driver_node
        assert node.local_scheduler.backlog() == 0
        refs = [sleepy.remote() for _ in range(6)]
        time.sleep(0.05)
        assert node.local_scheduler.backlog() > 0
        repro.get(refs, timeout=20)
        time.sleep(0.1)
        assert node.local_scheduler.backlog() == 0

    def test_stats_split_local_vs_forwarded(self, runtime):
        @repro.remote
        def quick():
            return 1

        repro.get([quick.remote() for _ in range(4)], timeout=10)
        scheduler = runtime.driver_node.local_scheduler
        assert scheduler.scheduled_locally >= 1
        # Light load: nothing needed the global scheduler.
        assert scheduler.forwarded == 0

    def test_concurrent_submitters_lose_no_counter_updates(self):
        """Every submission is counted exactly once — kept (fast path or
        checked path) or forwarded — even when many threads submit to one
        local scheduler at the same time."""

        @repro.remote
        def quick():
            return 1

        threads_n, per_thread = 8, 25
        rt = repro.init(num_nodes=2, num_cpus_per_node=2, spillback_threshold=2)
        refs = [[] for _ in range(threads_n)]

        def submitter(out):
            for _ in range(per_thread):
                out.append(quick.remote())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=submitter, args=(out,)) for out in refs
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        flat = [ref for out in refs for ref in out]
        assert repro.get(flat, timeout=60) == [1] * (threads_n * per_thread)
        scheduler = rt.driver_node.local_scheduler
        assert (
            scheduler.scheduled_locally + scheduler.forwarded
            == threads_n * per_thread
        )
        assert scheduler.forwarded > 0  # both counting sites were exercised

    def test_racing_hand_offs_keep_the_pool_at_the_cpu_count(self):
        """Placements, input arrivals and releases hand tasks off from many
        threads at once.  Each hand-off claims one parked worker or starts
        one, and a finishing worker is parked before its release hands
        off, so with no task blocked in ``get`` the pool never outgrows
        the CPUs, and no hand-off is stranded in the queue."""

        @repro.remote
        def inc(x):
            return x + 1

        threads_n, chain, wave = 6, 20, 8
        rt = repro.init(num_nodes=1, num_cpus_per_node=4)
        results = [None] * threads_n

        def submitter(i):
            ref = inc.remote(i)
            for _ in range(chain):  # each link queued behind the last
                ref = inc.remote(ref)
            results[i] = (ref, repro.submit_many(inc, [(j,) for j in range(wave)]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=submitter, args=(i,))
                for i in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            for i, (ref, refs) in enumerate(results):
                assert repro.get(ref, timeout=60) == i + chain + 1
                assert repro.get(refs, timeout=60) == list(range(1, wave + 1))
        finally:
            sys.setswitchinterval(interval)
        assert len(rt.driver_node.local_scheduler._pool_threads) <= 4
        repro.shutdown()

    def test_stop_halts_dispatch(self, runtime):
        node = runtime.nodes()[1]
        node.local_scheduler.stop()
        # Every worker gets its stop sentinel; placing on a stopped-but-
        # alive scheduler is not part of the contract, but stop() itself
        # must be clean.
        assert node.local_scheduler._stopped
