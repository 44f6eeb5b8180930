"""Hop budgets: what one operation costs in GCS shard calls, exactly.

Clock-free: hop delay 0, a counting shim on ``ShardedKV`` keyed by calling
thread, counts read at quiescence (:func:`quiesce`: ``repro.shutdown()``,
which itself makes no GCS call, then a join of the task workers and actor
loops it signalled, then the finish barrier).  The numbers are the table in
``docs/ARCHITECTURE.md`` ("Shard calls per operation"): a change that moves
a count must edit that table, and the failure message is the per-thread
list of calls.

Finishes are written behind the workers: a task worker makes no shard call,
an actor thread writes no task row, and every finish lands in a group
commit on its node's ``finish-<node>`` drain thread, one batch per drain
wake-up, so a wave of n finishes takes 1 to n batches.
"""

import threading
from collections import Counter as Tally

import repro
from repro.gcs.tables import TaskStatus


@repro.remote
def echo(x):
    return x


@repro.remote
def relay(x):
    return x


@repro.remote
class Echo:
    def echo(self, x):
        return x


class ShardCalls:
    """Records every ``ShardedKV.get/put/append/batch/log`` call made after
    construction as ``(thread, op, tables)``, and the thread of every batch
    that writes a terminal task row (a finish) in ``finishers``."""

    OPS = ("get", "put", "append", "batch", "log")

    def __init__(self, kv):
        self.calls = []
        self.finishers = []
        for op in self.OPS:
            setattr(kv, op, self._counted(op, getattr(kv, op)))

    def _counted(self, op, original):
        def call(first, *rest):
            thread = threading.current_thread().name
            if op == "batch":
                what = tuple((o, key[0]) for o, key, _value in first)
                if any(
                    o == "put" and key[0] == "task"
                    and value.status is not TaskStatus.SCHEDULED
                    for o, key, value in first
                ):
                    self.finishers.append(thread)
            else:
                what = first[0]
            self.calls.append((thread, op, what))
            return original(first, *rest)

        return call

    def by_thread(self):
        threads = {}
        for thread, op, what in self.calls:
            threads.setdefault(thread, []).append((op, what))
        return threads

    def describe(self):
        return "\n".join(
            f"{thread}:\n" + "\n".join(f"    {call}" for call in calls)
            for thread, calls in self.by_thread().items()
        )


def quiesce():
    """``repro.shutdown()``, join the task workers and actor loops, then
    land every queued finish: shutdown only signals them, and one whose
    output a ``get`` has read may still be queueing its finish."""
    runtime = repro.api.get_runtime()
    repro.shutdown()
    threads = [state.thread for state in runtime.actors.actors.values()]
    for node in runtime.nodes():
        threads.extend(node.local_scheduler._pool_threads)
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    runtime.flush_finishes()


def assert_finishes_behind(calls):
    """No task worker makes a shard call, and every finish is written by a
    finish drain: none by an actor thread."""
    for thread, _op, _what in calls.calls:
        assert not thread.startswith("worker-"), calls.describe()
    for thread in calls.finishers:
        assert thread.startswith("finish-"), calls.describe()


def finish_batches(calls):
    """The op lists of the finish drains' batches, in order."""
    return [
        what for thread, op, what in calls.calls
        if thread.startswith("finish-") and op == "batch"
    ]


def assert_wave(calls, *finishes):
    """The drains wrote exactly ``finishes`` (each a finish batch's ops),
    in 1 to ``len(finishes)`` batches."""
    batches = finish_batches(calls)
    assert 1 <= len(batches) <= len(finishes), calls.describe()
    assert Tally(op for batch in batches for op in batch) == Tally(
        op for finish in finishes for op in finish
    ), calls.describe()


def run_counted(submit, expect=7):
    """Shard calls of ``get(submit())`` on an idle one-node cluster, split
    into (caller's, everyone's) and read at quiescence."""
    calls = ShardCalls(repro.api.get_runtime().gcs.kv)
    assert repro.get(submit(), timeout=10) == expect
    caller = list(calls.by_thread().get(threading.current_thread().name, ()))
    quiesce()
    assert_finishes_behind(calls)
    return caller, calls


# A finish batch: the output's location and metadata, then the row.
FINISH = (("append", "object_loc"), ("put", "object"), ("put", "task"))


def hand_off_threads(scheduler):
    """The name of the thread that hands each task to a worker, in order,
    from now on."""
    threads = []
    hand_off = scheduler._hand_off

    def recorded(handoffs, spawn):
        threads.extend(threading.current_thread().name for _ in handoffs)
        hand_off(handoffs, spawn)

    scheduler._hand_off = recorded
    return threads


def assert_row_first(caller, calls):
    """Every blocking batch that writes a task row leads with it: the row
    is the first thing durable about the task."""
    for op, what in caller:
        if op == "batch" and ("put", "task") in what:
            assert what[0] == ("put", "task"), calls.describe()


def test_task_on_idle_node_costs_one_blocking_call_two_in_all():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=2)
    runtime.ensure_function_registered(echo._function_id, echo._func)
    caller, calls = run_counted(lambda: echo.remote(7))
    assert (len(caller), len(calls.calls)) == (1, 2), calls.describe()
    # The placement write is the row's first: SCHEDULED + task_submitted
    # + task_scheduled + task_inputs_ready.  The placement hands the task
    # to a worker, whose finish, written by the node's drain, is the row's
    # next write.
    assert caller == [
        ("batch", (("put", "task"),) + (("append", "event"),) * 3)
    ], calls.describe()
    assert finish_batches(calls) == [FINISH + (("append", "event"),)]


def test_submit_many_costs_one_blocking_call_plus_one_per_task():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=8)
    runtime.ensure_function_registered(echo._function_id, echo._func)
    caller, calls = run_counted(
        lambda: echo.submit_many([(i,) for i in range(8)]), list(range(8))
    )
    # place_many's SCHEDULED batch (rows + every event) on the caller, then
    # the eight finishes in 1 to 8 drain batches.  Dispatch writes nothing.
    assert [op for op, _ in caller] == ["batch"], calls.describe()
    assert_row_first(caller, calls)
    assert_wave(calls, *[FINISH + (("append", "event"),)] * 8)
    assert len(calls.calls) == 1 + len(finish_batches(calls)), calls.describe()


def test_a_held_drain_commits_a_whole_wave_in_one_batch():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=8)
    runtime.ensure_function_registered(echo._function_id, echo._func)
    finishes = runtime.driver_node.finishes
    finish_tasks = runtime.gcs.finish_tasks
    holding, release = threading.Event(), threading.Event()

    def held_first(batch, *args, **kwargs):
        if not holding.is_set():
            holding.set()
            assert release.wait(10)
        return finish_tasks(batch, *args, **kwargs)

    runtime.gcs.finish_tasks = held_first
    assert repro.get(echo.remote(-1), timeout=10) == -1
    assert holding.wait(10)  # the drain is inside its first write
    queued, wave_queued = [], threading.Event()
    put = finishes.put

    def counted(pending):
        put(pending)
        queued.append(pending)
        if len(queued) == 8:
            wave_queued.set()

    finishes.put = counted
    calls = ShardCalls(runtime.gcs.kv)
    # The get returns on the store puts, while the drain is held.
    assert repro.get(echo.submit_many([(i,) for i in range(8)]), timeout=10) == (
        list(range(8))
    )
    assert wave_queued.wait(10)
    release.set()
    quiesce()
    assert_finishes_behind(calls)
    # The held batch, then the whole wave in one group commit.
    held, wave = finish_batches(calls)
    assert held == FINISH + (("append", "event"),), calls.describe()
    assert wave == (FINISH + (("append", "event"),)) * 8, calls.describe()


def method_calls(actor_class):
    """Shard calls of ``get(actor.echo.remote(7))``, split into the
    caller's and the finish drain's."""
    runtime = repro.init(num_nodes=1, num_cpus_per_node=2)
    actor = actor_class.remote()
    # ``ready`` is set after the loop's last start-up write, and the
    # creation's finish lands behind it.
    assert runtime.actors.get_state(actor.actor_id).ready.wait(10)
    runtime.flush_finishes()
    caller, calls = run_counted(lambda: actor.echo.remote(7))
    # The caller's one call holds everything a restart or a reader needs.
    assert caller == [
        ("batch", (("put", "task"), ("append", "actor_log"), ("append", "event")))
    ], calls.describe()
    (drain,) = [
        c for t, c in calls.by_thread().items() if t.startswith("finish-")
    ]
    return drain, calls


# The method's one background write, by its node's finish drain: outputs,
# FINISHED row, the actor's progress row (a blind put), and task_scheduled
# + task_inputs_ready + task_finished.  No start write: the row is
# SCHEDULED on the actor's node from submission on.
METHOD_FINISH = FINISH + (("put", "actor_progress"),) + (("append", "event"),) * 3


def test_actor_method_costs_one_blocking_call_two_in_all():
    drain, calls = method_calls(Echo)
    assert len(calls.calls) == 2, calls.describe()
    assert drain == [("batch", METHOD_FINISH)], calls.describe()


def test_checkpointed_actor_method_costs_one_blocking_call_two_in_all():
    # The checkpoint taken at the method's counter rides the same batch.
    drain, calls = method_calls(Echo.options(checkpoint_interval=1))
    assert len(calls.calls) == 2, calls.describe()
    assert drain == [
        ("batch", METHOD_FINISH[:4] + (("put", "actor_ckpt"),) + METHOD_FINISH[4:])
    ], calls.describe()


def test_actor_creation_costs_four_blocking_calls_five_in_the_background():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=2)
    calls = ShardCalls(runtime.gcs.kv)
    actor = Echo.remote()
    caller = list(calls.by_thread()[threading.current_thread().name])
    assert runtime.actors.get_state(actor.actor_id).ready.wait(10)
    quiesce()
    assert_finishes_behind(calls)
    (actor_thread,) = [
        c for t, c in calls.by_thread().items() if t.startswith("actor-")
    ]
    drain = finish_batches(calls)
    assert (len(caller), len(actor_thread) + len(drain)) == (4, 5), calls.describe()
    # The creation row is written blind, by its placement; nothing reads it.
    assert ("get", "task") not in caller, calls.describe()
    assert caller[-1] == ("batch", (("put", "task"),)), calls.describe()
    # The creation's finish is the drain's; the actor thread reads.
    assert drain == [(("put", "task"), ("append", "event"))], calls.describe()
    assert actor_thread == [
        ("get", "actor_ckpt"),  # restore
        ("log", "actor_log"),  # mailbox rebuild
        ("get", "actor"),  # update_actor(node_id, alive) is a
        ("put", "actor"),  # read-modify-write of the recovery record
    ], calls.describe()


def test_reconstructing_one_lost_output_costs_eight_calls():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=2)
    runtime.ensure_function_registered(echo._function_id, echo._func)
    ref = echo.remote(7)
    assert repro.get(ref, timeout=10) == 7
    runtime.flush_finishes()  # the finish lands behind the get
    node = runtime.driver_node
    node.store.delete(ref.object_id)
    runtime.gcs.remove_object_location(ref.object_id, node.node_id)
    _caller, calls = run_counted(lambda: ref)
    assert runtime.reconstruction.reconstructed_tasks == 1
    # The fetch's probe (locations, object row, live copies, task row), the
    # task_reconstructed event, then the task's ordinary life: placement,
    # finish.  Only placements and finishes write the row.
    assert [(op, what) for _t, op, what in calls.calls] == [
        ("log", "object_loc"),
        ("get", "object"),
        ("log", "object_loc"),
        ("log", "object_loc"),
        ("get", "task"),
        ("append", "event"),
        ("batch", (("put", "task"), ("append", "event"), ("append", "event"))),
        (
            "batch",
            (("append", "object_loc"), ("put", "object"), ("put", "task"),
             ("append", "event")),
        ),
    ], calls.describe()


def test_forwarded_task_costs_one_blocking_call_four_in_all():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=2)
    runtime.add_node({"CPU": 2, "far": 1})  # the only node that fits
    gate = threading.Event()

    @repro.remote(resources={"far": 1})
    def held(x):
        assert gate.wait(10)
        return x

    runtime.ensure_function_registered(held._function_id, held._func)
    calls = ShardCalls(runtime.gcs.kv)
    me = threading.current_thread().name
    ref = held.remote(7)
    caller = list(calls.by_thread()[me])
    # Subscribe the driver's fetch before the result exists, so that the
    # copy back is triggered by the worker's publication.
    runtime.fetcher.ensure_local(ref.object_id, runtime.driver_node)
    gate.set()
    assert repro.get(ref, timeout=10) == 7
    quiesce()
    # The far node's place_many SCHEDULED batch (global placement reads
    # nothing for a by-value argument) on the caller, whose placement also
    # hands the task to a far worker; the far drain's finish batch; the
    # copy's location read and write.
    assert (len(caller), len(calls.calls)) == (1, 4), calls.describe()
    assert [op for op, _ in caller] == ["batch"], calls.describe()
    assert_row_first(caller, calls)
    assert calls.by_thread()[me] == caller, calls.describe()
    # The copy is made by a transfer thread: not by the worker whose
    # finish batch published the location, and not by the reader.
    movers = [
        thread
        for thread, op, what in calls.calls
        if (op, what) in (("log", "object_loc"), ("append", "object_loc"))
    ]
    assert len(movers) == 2, calls.describe()
    assert all(t.startswith("transfer-") for t in movers), calls.describe()
    assert_finishes_behind(calls)


def test_task_queued_behind_its_input_costs_one_blocking_call():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=2)
    runtime.ensure_function_registered(echo._function_id, echo._func)
    gate = threading.Event()

    @repro.remote
    def held(x):
        assert gate.wait(10)
        return x

    unfinished = held.remote(7)
    calls = ShardCalls(runtime.gcs.kv)
    ref = echo.remote(unfinished)
    caller = list(calls.by_thread()[threading.current_thread().name])
    gate.set()
    assert repro.get(ref, timeout=10) == 7
    quiesce()
    # place_many's SCHEDULED batch; the input's fetch is registration
    # only (no location published yet, lineage known).
    assert [op for op, _ in caller] == ["batch"], calls.describe()
    assert_row_first(caller, calls)
    # The input's arrival and echo's dispatch write nothing: its
    # task_inputs_ready event rides echo's finish.  (held's worker stores
    # its output before it queues its finish, so the two finishes may be
    # queued in either order, and in one drain batch or two.)
    assert_finishes_behind(calls)
    assert_wave(
        calls,
        FINISH + (("append", "event"),),
        FINISH + (("append", "event"),) * 2,
    )
    assert len(calls.calls) == 1 + len(finish_batches(calls)), calls.describe()


def test_input_arrival_hands_off_on_the_storing_thread():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=2)
    runtime.ensure_function_registered(echo._function_id, echo._func)
    gate = threading.Event()
    producers = []

    @repro.remote
    def held(x):
        producers.append(threading.current_thread().name)
        assert gate.wait(10)
        return x

    unfinished = held.remote(7)
    handed = hand_off_threads(runtime.driver_node.local_scheduler)
    ref = echo.remote(unfinished)
    assert handed == []  # queued behind its input
    gate.set()
    assert repro.get(ref, timeout=10) == 7
    quiesce()
    # held's worker stores its output, which makes echo ready with a CPU
    # free: that same thread hands echo to a worker.
    assert handed == producers


def test_dispatch_needs_no_thread_of_its_own():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=2)
    runtime.ensure_function_registered(echo._function_id, echo._func)
    assert not any(
        thread.name.startswith("dispatcher-") for thread in threading.enumerate()
    )
    (handed_off,) = [
        family for family in runtime.metrics.families()
        if family.name == "scheduler_fastpath_total"
    ]
    handed = hand_off_threads(runtime.driver_node.local_scheduler)
    caller, calls = run_counted(
        lambda: echo.submit_many([(i,) for i in range(8)]), list(range(8))
    )
    assert [op for op, _ in caller] == ["batch"], calls.describe()
    assert_wave(calls, *[FINISH + (("append", "event"),)] * 8)
    assert len(calls.calls) == 1 + len(finish_batches(calls)), calls.describe()
    # The placement handed two tasks to workers; each of the other six was
    # handed off, from memory alone, by the worker whose release freed a
    # CPU for it.
    assert sum(m.value for m in handed_off.series.values()) == 2
    me = threading.current_thread().name
    assert handed[:2] == [me, me], handed
    assert len(handed) == 8, handed
    assert all(thread.startswith("worker-") for thread in handed[2:]), handed


def test_put_costs_one_blocking_batch():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=2)
    calls = ShardCalls(runtime.gcs.kv)
    repro.put(7)
    quiesce()
    # add_task_outputs: the location append and the metadata row, which
    # shard together.
    assert calls.calls == [
        (
            threading.current_thread().name,
            "batch",
            (("append", "object_loc"), ("put", "object")),
        )
    ], calls.describe()


def test_free_costs_one_blocking_batch_for_all_copies():
    runtime = repro.init(num_nodes=2, num_cpus_per_node=2)
    refs = [repro.put(i) for i in range(2)]
    far = runtime.nodes()[1]
    for ref in refs:
        assert runtime.fetch_to_node(ref.object_id, far, timeout=10)
    calls = ShardCalls(runtime.gcs.kv)
    assert repro.free(refs) == 4
    caller = list(calls.by_thread()[threading.current_thread().name])
    quiesce()
    # One retraction per copy, all in one batch.
    assert caller == [
        ("batch", (("append", "object_loc"),) * 4)
    ], calls.describe()


def test_free_with_lineage_adds_one_delete_batch():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=2)
    runtime.ensure_function_registered(echo._function_id, echo._func)
    refs = [echo.remote(i) for i in range(2)]
    assert repro.get(refs, timeout=10) == [0, 1]
    runtime.flush_finishes()  # the finishes land behind the get
    calls = ShardCalls(runtime.gcs.kv)
    assert repro.free(refs, delete_lineage=True) == 2
    caller = list(calls.by_thread()[threading.current_thread().name])
    quiesce()
    # The retraction batch, one producer read per object, then every
    # lineage row — metadata, location log, producing task — in one
    # replicated delete batch.
    assert caller == [
        ("batch", (("append", "object_loc"),) * 2),
        ("get", "object"),
        ("get", "object"),
        ("batch", (("delete", "object"), ("delete", "object_loc"),
                   ("delete", "task")) * 2),
    ], calls.describe()


class EventWrites:
    """Records which ``ShardedKV`` write carried each lifecycle event, as
    ``(category, task) -> write``; a write is the set of ``(category,
    task)`` events and ``(status, task)`` rows it holds, and a bare append
    is a write of its own."""

    def __init__(self, kv):
        self.carrier = {}
        batch, append = kv.batch, kv.append

        def batched(ops):
            self._record(ops)
            return batch(ops)

        def appended(key, value):
            self._record([("append", key, value)])
            return append(key, value)

        kv.batch, kv.append = batched, appended

    def _record(self, ops):
        write = set()
        for op, key, value in ops:
            if key[0] == "event":
                write.add((key[1], value.as_dict().get("task")))
            elif op == "put" and key[0] == "task":
                write.add((value.status, key[1].short()))
        for item in write:
            if isinstance(item[0], str):
                self.carrier[item] = write


def test_tasks_and_methods_leave_the_same_records(single_node_runtime):
    runtime = single_node_runtime
    actor = Echo.remote()
    writes = EventWrites(runtime.gcs.kv)
    gate = threading.Event()

    @repro.remote
    def held(x):
        assert gate.wait(10)
        return x

    # Tasks queued behind their input: placed before it exists.
    source = held.remote(5)
    queued = [relay.remote(source) for _ in range(4)]
    gate.set()
    assert repro.get(queued, timeout=10) == [5] * 4
    refs = [echo.remote(i) for i in range(12)]
    methods = [actor.echo.remote(i) for i in range(12)]
    assert repro.get(refs + methods, timeout=10) == list(range(12)) * 2
    quiesce()  # every finish batch has landed
    gcs = runtime.gcs
    events = {}
    for category in (
        "task_submitted",
        "task_scheduled",
        "task_inputs_ready",
        "task_finished",
    ):
        names = Tally(r.as_dict()["name"] for r in gcs.events(category))
        # The actor's creation is a task too: it finishes like one.
        created = {"Echo.__init__": 1} if category == "task_finished" else {}
        assert names == {
            "echo": 12, "Echo.echo": 12, "relay": 4, "held": 1, **created
        }, category
        for record in gcs.events(category):
            events[category, record.as_dict()["task"]] = record.as_dict()

    def short(ref):
        return runtime.graph.producer_of(ref.object_id).short()

    # Every execution's events keep their own times, in causal order.
    for task in map(short, methods + queued):
        assert (
            events["task_scheduled", task]["t"]
            <= events["task_inputs_ready", task]["t"]
            <= events["task_finished", task]["start"]
        ), task
    # Nothing writes between placement and finish: a method's lifecycle and
    # a queued task's arrival ride the finish batch.
    for task in map(short, methods):
        assert {
            ("task_scheduled", task), ("task_inputs_ready", task)
        } <= writes.carrier["task_finished", task], task
    for task in map(short, queued):
        assert ("task_inputs_ready", task) in writes.carrier[
            "task_finished", task
        ], task
    (creation,) = [
        r.as_dict()
        for r in gcs.events("task_finished")
        if r.as_dict()["name"] == "Echo.__init__"
    ]
    assert creation["kind"] == "actor_creation"
    rows = {"echo": [], "Echo.echo": []}
    for entry in gcs.tasks_with_status(TaskStatus.FINISHED):
        if entry.spec.function_name in rows:
            rows[entry.spec.function_name].append((entry.spec.args, entry.status))
    assert sorted(rows["echo"]) == sorted(rows["Echo.echo"])
    assert len(rows["echo"]) == 12



def test_a_kill_retracts_in_one_batch_and_scans_the_task_table():
    runtime = repro.init(num_nodes=1, num_cpus_per_node=1)
    victim = runtime.add_node({"CPU": 1, "n": 1})
    started, gate, attempts = threading.Event(), threading.Event(), []

    @repro.remote(resources={"n": 1})
    def there(x):
        return x

    @repro.remote(resources={"n": 1})
    def held(x):
        attempts.append(x)
        if len(attempts) == 1:
            started.set()
            assert gate.wait(10)
        return x

    assert repro.get(there.remote(1), timeout=10) == 1
    ref = held.remote(2)
    assert started.wait(10)
    runtime.flush_finishes()
    runtime.add_node({"CPU": 1, "n": 1})  # where the sweep re-places held
    calls = ShardCalls(runtime.gcs.kv)
    runtime.kill_node(victim.node_id)
    caller = list(calls.by_thread()[threading.current_thread().name])
    assert repro.get(ref, timeout=10) == 2
    gate.set()
    quiesce()
    # The victim's one copy retracted in one batch, the node_death event,
    # the sweep's scan (one row read per task), then the re-placement of
    # the one row SCHEDULED there: a placement batch as any forwarded
    # task's.
    assert caller == [
        ("batch", (("append", "object_loc"),)),
        ("append", "event"),
        ("get", "task"),
        ("get", "task"),
        ("batch", (("put", "task"), ("append", "event"), ("append", "event"))),
    ], calls.describe()
