"""Finish-behind: a worker queues its finish and moves on; its node's drain
thread writes it.  Sleep-free: each case holds the drain with an ``Event``
gate and releases it when the interleaving it tests is in place."""

import threading
from collections import Counter as Tally

import pytest

import repro
from repro.common.errors import NodeFencedError
from repro.core.gc import free_objects
from repro.gcs.chain import ChainUnavailableError
from repro.gcs.tables import TaskStatus
from tests.invariants import assert_no_row_scheduled_on_a_dead_node

TERMINAL = (TaskStatus.FINISHED, TaskStatus.FAILED, TaskStatus.CANCELLED)


@repro.remote
def double(x):
    return 2 * x


@repro.remote
def add(a, b):
    return a + b


@repro.remote
def nested(x):
    return repro.get(double.remote(x)) + 1


@repro.remote
class Counter:
    def __init__(self):
        self.total = 0

    def add(self, x):
        self.total += x
        return self.total


class HeldDrain:
    """Holds the first ``finish_tasks`` batch, the one whose finishes name
    a task in ``only`` (any batch when None), until :meth:`release`."""

    def __init__(self, runtime, only=None):
        self.holding, self.released = threading.Event(), threading.Event()
        self._only = only
        self._real = runtime.gcs.finish_tasks
        runtime.gcs.finish_tasks = self._held

    def _held(self, finishes, *args, **kwargs):
        names = {finish.spec.function_name for finish in finishes}
        if not self.holding.is_set() and (self._only is None or self._only & names):
            self.holding.set()
            assert self.released.wait(10)
        return self._real(finishes, *args, **kwargs)

    def release(self):
        self.released.set()


def quiesce(runtime):
    """Shut down, join the task workers and actor loops, land what they
    queued."""
    repro.shutdown()
    threads = [state.thread for state in runtime.actors.actors.values()]
    for node in runtime.nodes():
        threads.extend(node.local_scheduler._pool_threads)
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    runtime.flush_finishes()


def finished_events(runtime, task_id):
    return [
        record for record in runtime.gcs.events("task_finished")
        if record.as_dict()["task"] == task_id.short()
    ]


def test_init_and_add_node_start_no_drain():
    before = set(threading.enumerate())

    def drains():
        return [
            t for t in threading.enumerate()
            if t.name.startswith("finish-") and t not in before
        ]

    runtime = repro.init(num_nodes=2, num_cpus_per_node=1)
    runtime.add_node({"CPU": 1})
    assert drains() == []
    assert repro.get(double.remote(2), timeout=10) == 4
    started = drains()
    assert [t.name for t in started] == [
        f"finish-{runtime.driver_node.node_id.hex()[:6]}"
    ]
    repro.shutdown()
    for thread in started:
        thread.join(10)
        assert not thread.is_alive()


def test_a_worker_returns_before_its_finish_lands():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=1)
    held = HeldDrain(runtime)
    ref = double.remote(3)
    assert repro.get(ref, timeout=10) == 6
    assert held.holding.wait(10)
    task_id = runtime.graph.producer_of(ref.object_id)
    # The worker is free: the next task runs while the first finish waits.
    assert repro.get(double.remote(4), timeout=10) == 8
    assert runtime.gcs.get_task(task_id).status is TaskStatus.SCHEDULED
    held.release()
    runtime.flush_finishes()
    assert runtime.gcs.get_task(task_id).status is TaskStatus.FINISHED
    repro.shutdown()


class ReleasingCondition:
    """The queue's condition, setting ``release`` when a flush first
    waits on it."""

    def __init__(self, cond, release):
        self._cond, self._release = cond, release

    def __enter__(self):
        return self._cond.__enter__()

    def __exit__(self, *exc):
        return self._cond.__exit__(*exc)

    def wait(self, timeout=None):
        self._release.set()
        return self._cond.wait(timeout)

    def notify(self):
        self._cond.notify()

    def notify_all(self):
        self._cond.notify_all()


def test_a_flush_after_get_covers_a_finish_not_yet_queued():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=1)
    finishes = runtime.driver_node.finishes
    release = threading.Event()
    put = finishes.put

    def late_put(pending):
        assert release.wait(10)
        put(pending)

    finishes.put = late_put
    # No drain runs yet, so only the flush waits on the condition.
    finishes._cond = ReleasingCondition(finishes._cond, release)
    ref = double.remote(4)
    assert repro.get(ref, timeout=10) == 8  # woken by the store put
    runtime.flush_finishes()
    task_id = runtime.graph.producer_of(ref.object_id)
    assert runtime.gcs.get_task(task_id).status is TaskStatus.FINISHED
    release.set()
    repro.shutdown()


def test_kill_with_a_finish_queued_finishes_the_task_once_on_a_survivor():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=1)
    victim = runtime.add_node({"CPU": 1, "n": 1})

    @repro.remote(resources={"n": 1})
    def first(x):
        return x

    @repro.remote(resources={"n": 1})
    def second(x):
        return x + 1

    # The victim's drain holds first's finish, so second's queues behind it.
    held = HeldDrain(runtime, only={"first"})
    queued = threading.Event()
    put = victim.finishes.put

    def watched(pending):
        put(pending)
        if pending.spec.function_name == "second":
            queued.set()

    victim.finishes.put = watched
    head = first.remote(1)
    ref = second.remote(2)  # placed on the victim, the only node with "n"
    task_id = runtime.graph.producer_of(ref.object_id)
    assert held.holding.wait(10)
    assert queued.wait(10)
    survivor = runtime.add_node({"CPU": 1, "n": 1})
    runtime.kill_node(victim.node_id)
    held.release()
    assert repro.get([head, ref], timeout=10) == [1, 3]
    quiesce(runtime)
    row = runtime.gcs.get_task(task_id)
    assert row.status is TaskStatus.FINISHED
    assert row.node_id == survivor.node_id
    (event,) = finished_events(runtime, task_id)
    assert event.as_dict()["node"] == survivor.node_id.short()
    assert_no_row_scheduled_on_a_dead_node(runtime)


class TaskRowWrites:
    """Records, for every ``ShardedKV.batch`` writing task rows, the
    ``(task_id, status, node_id)`` rows that land in ``rows`` and the task
    IDs of a batch the fence rejects in ``rejected``."""

    def __init__(self, runtime):
        self.rows, self.rejected = [], []
        self.rejection = threading.Event()
        batch = runtime.gcs.kv.batch

        def recorded(ops):
            tasks = [(key[1], value) for op, key, value in ops
                     if op == "put" and key[0] == "task"]
            try:
                batch(ops)
            except NodeFencedError:
                self.rejected.append({task_id for task_id, _row in tasks})
                self.rejection.set()
                raise
            self.rows.extend((task_id, row.status, row.node_id)
                             for task_id, row in tasks)

        runtime.gcs.kv.batch = recorded


def test_a_finish_held_across_the_kill_is_rejected():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=1)
    victim = runtime.add_node({"CPU": 1, "n": 1})

    @repro.remote(resources={"n": 1})
    def there(x):
        return x

    held = HeldDrain(runtime, only={"there"})
    writes = TaskRowWrites(runtime)
    ref = there.remote(5)
    task_id = runtime.graph.producer_of(ref.object_id)
    assert held.holding.wait(10)  # the victim's drain holds the finish
    survivor = runtime.add_node({"CPU": 1, "n": 1})
    runtime.kill_node(victim.node_id)
    held.release()
    assert repro.get(ref, timeout=10) == 5
    quiesce(runtime)
    assert writes.rejected == [{task_id}]
    row = runtime.gcs.get_task(task_id)
    assert (row.status, row.node_id) == (TaskStatus.FINISHED, survivor.node_id)
    (event,) = finished_events(runtime, task_id)
    assert event.as_dict()["node"] == survivor.node_id.short()
    assert (task_id, TaskStatus.FINISHED, victim.node_id) not in writes.rows
    assert_no_row_scheduled_on_a_dead_node(runtime)


def test_a_late_finish_of_a_killed_incarnation_is_rejected_after_its_restart():
    """The first attempt outlives its node's kill and restart under the
    same NodeID; its finish then carries the old epoch, so the GCS rejects
    it while the restarted node's own finishes land."""
    runtime = repro.init(num_nodes=1, num_cpus_per_node=1)
    victim = runtime.add_node({"CPU": 1, "n": 1, "m": 1})
    started, gate = threading.Event(), threading.Event()
    attempts = []

    @repro.remote(resources={"n": 1})
    def stranded(x):
        attempts.append(x)
        if len(attempts) == 1:
            started.set()
            assert gate.wait(10)
        return x

    @repro.remote(resources={"m": 1})
    def there(x):
        return x

    writes = TaskRowWrites(runtime)
    ref = stranded.remote(1)
    task_id = runtime.graph.producer_of(ref.object_id)
    assert started.wait(10)
    survivor = runtime.add_node({"CPU": 1, "n": 1})
    runtime.kill_node(victim.node_id)
    assert repro.get(ref, timeout=10) == 1  # re-placed on the survivor
    restarted = runtime.restart_node(victim.node_id)
    assert restarted.epoch == victim.epoch + 1
    later = there.remote(2)
    assert repro.get(later, timeout=10) == 2
    gate.set()  # the old incarnation's finish goes out now
    assert writes.rejection.wait(10)
    quiesce(runtime)
    assert writes.rejected == [{task_id}]
    row = runtime.gcs.get_task(task_id)
    assert (row.status, row.node_id) == (TaskStatus.FINISHED, survivor.node_id)
    assert len(finished_events(runtime, task_id)) == 1
    later_row = runtime.gcs.get_task(runtime.graph.producer_of(later.object_id))
    assert (later_row.status, later_row.node_id) == (
        TaskStatus.FINISHED, victim.node_id
    )
    assert_no_row_scheduled_on_a_dead_node(runtime)


def test_a_mixed_batch_at_the_kill_lands_only_the_actors_finishes():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=1)
    victim = runtime.add_node({"CPU": 3, "n": 1, "m": 1})
    counter = Counter.options(resources={"n": 1}).remote()
    assert repro.get(counter.add.remote(1), timeout=10) == 1
    runtime.flush_finishes()

    @repro.remote(resources={"m": 1})
    def first(x):
        return x

    @repro.remote(resources={"m": 1})
    def second(x):
        return x + 1

    # The victim's drain holds first's finish; a method's and second's
    # queue behind it and go out together, in one batch.
    held = HeldDrain(runtime, only={"first"})
    writes = TaskRowWrites(runtime)
    names, queued = set(), threading.Event()
    put = victim.finishes.put

    def watched(pending):
        put(pending)
        names.add(pending.spec.function_name)
        if {"Counter.add", "second"} <= names:
            queued.set()

    victim.finishes.put = watched
    head = first.remote(1)
    assert held.holding.wait(10)
    method = counter.add.remote(1)
    ref = second.remote(2)
    assert queued.wait(10)
    survivor = runtime.add_node({"CPU": 3, "n": 1, "m": 1})
    runtime.kill_node(victim.node_id)
    held.release()
    assert repro.get([head, ref, method], timeout=30) == [1, 3, 2]
    quiesce(runtime)
    method_id, second_id = (
        runtime.graph.producer_of(r.object_id) for r in (method, ref)
    )
    # Rejected whole, then the method's finish landed on its own.
    assert {method_id, second_id} in writes.rejected
    assert (method_id, TaskStatus.FINISHED, victim.node_id) in writes.rows
    assert (second_id, TaskStatus.FINISHED, victim.node_id) not in writes.rows
    row = runtime.gcs.get_task(second_id)
    assert (row.status, row.node_id) == (TaskStatus.FINISHED, survivor.node_id)
    assert len(finished_events(runtime, second_id)) == 1
    assert_no_row_scheduled_on_a_dead_node(runtime)


def test_cancel_lets_a_held_finish_land_and_returns_false():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=1)
    held = HeldDrain(runtime)
    ref = double.remote(5)
    assert repro.get(ref, timeout=10) == 10
    assert held.holding.wait(10)
    task_id = runtime.graph.producer_of(ref.object_id)
    # No copy left to say the task ran: only the row can.
    free_objects(runtime, [ref.object_id])
    flush = runtime.flush_finishes

    def releasing_flush():
        held.release()  # the barrier is what lets the write through
        flush()

    runtime.flush_finishes = releasing_flush
    assert repro.cancel(ref) is False
    assert held.released.is_set()
    assert runtime.gcs.get_task(task_id).status is TaskStatus.FINISHED
    assert not runtime.is_cancelled(task_id)
    assert runtime.gcs.events("task_cancelled") == []
    repro.shutdown()


def test_a_free_racing_a_queued_finish_leaves_no_location():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=1)
    held = HeldDrain(runtime)
    ref = double.remote(6)
    assert repro.get(ref, timeout=10) == 12
    assert held.holding.wait(10)
    # Freed before its finish publishes it: the retraction precedes the add.
    assert repro.free(ref) == 1
    held.release()
    runtime.flush_finishes()
    assert runtime.gcs.get_object_locations(ref.object_id) == set()
    assert runtime.transfer.live_locations(ref.object_id) == set()
    repro.shutdown()


def test_a_failed_drain_batch_is_counted_and_retried():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=1)
    real = runtime.gcs.finish_tasks
    failed = []
    raised = threading.Event()

    def fail_first(finishes, *args, **kwargs):
        if not failed:
            failed.extend(finish.task_id for finish in finishes)
            raised.set()
            raise ChainUnavailableError("chain has no members")
        return real(finishes, *args, **kwargs)

    runtime.gcs.finish_tasks = fail_first
    first = double.remote(1)
    assert repro.get(first, timeout=10) == 2
    assert raised.wait(10)
    assert failed == [runtime.graph.producer_of(first.object_id)]
    # The drain lives on: the next finish lands, and the failed batch,
    # back at the head of the queue, with it.
    ref = double.remote(2)
    assert repro.get(ref, timeout=10) == 4
    runtime.flush_finishes()
    gcs = runtime.gcs
    for done in (first, ref):
        task_id = runtime.graph.producer_of(done.object_id)
        assert gcs.get_task(task_id).status is TaskStatus.FINISHED
        assert gcs.get_object_locations(done.object_id) == {
            runtime.driver_node.node_id
        }
        assert gcs.in_flight_producer(done.object_id) is None
        assert len(finished_events(runtime, task_id)) == 1
    (record,) = gcs.events("finish_write_failed")
    assert record.as_dict()["tasks"] == [failed[0].short()]
    (errors,) = [
        family for family in runtime.metrics.families()
        if family.name == "finish_drain_errors_total"
    ]
    assert sum(m.value for m in errors.series.values()) == 1
    repro.shutdown()


def test_kill_with_an_actor_finish_queued_keeps_its_checkpoint():
    """Figure 11b's bound when the node dies before the methods' finishes
    land: they, the checkpoint at 10 among them, are still queued on the
    dead node, and they land before the restart reads them."""
    runtime = repro.init(num_nodes=1, num_cpus_per_node=1)
    victim = runtime.add_node({"CPU": 1, "n": 1})
    counter = Counter.options(checkpoint_interval=5, resources={"n": 1}).remote()
    # The victim's drain holds the first method's finish; the other eleven
    # queue behind it.
    held = HeldDrain(runtime, only={"Counter.add"})
    ran, all_ran = [], threading.Event()
    put = victim.finishes.put

    def watched(pending):
        put(pending)
        if pending.spec.function_name == "Counter.add":
            ran.append(pending)
            if len(ran) == 12:
                all_ran.set()

    victim.finishes.put = watched
    counter.add.remote(1)
    assert held.holding.wait(10)
    for _ in range(11):
        counter.add.remote(1)
    assert all_ran.wait(10)
    assert len(victim.finishes._queued) == 11
    runtime.add_node({"CPU": 1, "n": 1})
    runtime.kill_node(victim.node_id)
    held.release()
    assert repro.get(counter.add.remote(1), timeout=30) == 13
    # Restored at 10: methods 11 and 12 replay, not all 12.
    assert runtime.actors.replayed_methods == 2
    repro.shutdown()
    assert_no_row_scheduled_on_a_dead_node(runtime)


def test_a_killed_and_restarted_nodes_drains_exit_at_shutdown():
    before = set(threading.enumerate())
    runtime = repro.init(num_nodes=1, num_cpus_per_node=1)
    victim = runtime.add_node({"CPU": 1, "n": 1})

    @repro.remote(resources={"n": 1})
    def there(x):
        return x

    assert repro.get(there.remote(1), timeout=10) == 1
    runtime.kill_node(victim.node_id)
    assert_no_row_scheduled_on_a_dead_node(runtime)
    runtime.restart_node(victim.node_id)
    assert repro.get(there.remote(2), timeout=10) == 2
    repro.shutdown()
    drains = [
        t for t in threading.enumerate()
        if t.name.startswith("finish-") and t not in before
    ]
    for thread in drains:
        thread.join(10)
        assert not thread.is_alive(), thread.name


def test_wait_wakes_on_a_local_output_before_its_finish_lands():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=1)
    held = HeldDrain(runtime)
    release = threading.Event()

    @repro.remote
    def gated(x):
        assert release.wait(10)
        return x

    ref = gated.remote(3)
    scanned = threading.Event()
    available = runtime.object_available

    def watched(object_id, node):
        found = available(object_id, node)
        scanned.set()
        return found

    runtime.object_available = watched
    result = {}
    waiter = threading.Thread(
        target=lambda: result.update(out=repro.wait([ref], timeout=10))
    )
    waiter.start()
    assert scanned.wait(10)  # the waiter has found nothing and sleeps
    release.set()
    waiter.join(10)
    assert result["out"] == ([ref], [])
    # Nothing is published yet: the drain holds the finish.
    assert runtime.gcs.get_object_locations(ref.object_id) == set()
    held.release()
    repro.shutdown()


@pytest.mark.parametrize("num_nodes", [1, 2])
def test_a_mixed_dag_leaves_complete_tables(num_nodes):
    runtime = repro.init(num_nodes=num_nodes, num_cpus_per_node=2)
    counter = Counter.remote()
    singles = [double.remote(i) for i in range(4)]
    wave = double.submit_many([(i,) for i in range(8)])
    sums = [add.remote(a, b) for a, b in zip(singles, wave)]
    methods = [counter.add.remote(ref) for ref in sums]
    inner = nested.remote(5)
    refs = singles + wave + sums + methods + [inner]
    assert repro.get(refs, timeout=30) == (
        [0, 2, 4, 6]
        + [0, 2, 4, 6, 8, 10, 12, 14]
        + [0, 4, 8, 12]
        + [0, 4, 12, 24]
        + [11]
    )
    quiesce(runtime)
    gcs = runtime.gcs
    rows = list(gcs.tasks())
    # 4 + 8 + 4 tasks, 4 methods, the creation, nested and its child.
    assert len(rows) == 23
    finished = Tally(r.as_dict()["task"] for r in gcs.events("task_finished"))
    for row in rows:
        assert row.status in TERMINAL, row
        assert finished[row.task_id.short()] == 1, row
        for object_id in row.spec.return_ids:
            assert gcs.get_object_locations(object_id), row
    seqs = sorted(record.seq for record in gcs.events_since(0)[0])
    assert seqs == list(range(1, len(seqs) + 1))
