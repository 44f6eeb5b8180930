"""Cancellation API: dequeue, cooperative interrupt, force, and get().

``repro.cancel(ref)`` follows Ray's semantics:

* not yet scheduled -> dequeued, every ``get`` raises TaskCancelledError;
* running and blocked in ``get`` -> the blocking wait raises inside the
  task (the cooperative cancellation point);
* running pure compute -> ``force=False`` lets the result stand,
  ``force=True`` replaces the outputs at the finish boundary;
* already finished -> no-op, ``cancel`` returns False.
"""

import threading
import time

import pytest

import repro
from repro.common.errors import TaskCancelledError
from repro.gcs.tables import TaskStatus


@repro.remote
def quick(x):
    return x * 2


@repro.remote
def spin(seconds):
    time.sleep(seconds)
    return "done"


@repro.remote
class Spinner:
    def spin(self, seconds):
        time.sleep(seconds)
        return "done"


def test_cancel_queued_task_dequeues(runtime):
    # Fill every CPU with sleepers so the victim stays queued.
    blockers = [spin.remote(0.5) for _ in range(8)]
    victim = quick.remote(21)
    assert repro.cancel(victim) is True
    with pytest.raises(TaskCancelledError):
        repro.get(victim, timeout=10)
    assert repro.get(blockers, timeout=10) == ["done"] * 8


def test_cancel_is_idempotent_and_false_after_finish(runtime):
    ref = quick.remote(5)
    assert repro.get(ref, timeout=10) == 10
    assert repro.cancel(ref) is False  # already finished: nothing to stop

    blockers = [spin.remote(0.5) for _ in range(8)]
    victim = quick.remote(1)
    assert repro.cancel(victim) is True
    # Repeat cancel: the task is already terminal (CANCELLED), so the
    # second call has nothing left to stop.
    assert repro.cancel(victim) is False
    with pytest.raises(TaskCancelledError):
        repro.get(victim, timeout=10)
    repro.get(blockers, timeout=10)


def test_cancel_is_false_once_the_result_is_held(runtime, monkeypatch):
    """The finish writer stores the outputs before its drain writes the
    FINISHED row; a ``get`` can return inside that window, and a ``cancel``
    made there has nothing to stop either."""
    real = runtime.gcs.finish_tasks
    holding, release = threading.Event(), threading.Event()

    def held_finish_tasks(*args, **kwargs):
        holding.set()
        assert release.wait(30)
        return real(*args, **kwargs)

    monkeypatch.setattr(runtime.gcs, "finish_tasks", held_finish_tasks)
    ref = quick.remote(5)
    assert repro.get(ref, timeout=10) == 10
    assert holding.wait(10)
    task_id = runtime.graph.producer_of(ref.object_id)
    # Nothing writes a row between placement and finish.
    assert runtime.gcs.get_task(task_id).status is TaskStatus.SCHEDULED
    cancelled = runtime.metrics.counter("tasks_cancelled_total", "")
    before = cancelled.value
    try:
        assert repro.cancel(ref) is False
    finally:
        release.set()
    assert cancelled.value == before
    assert not runtime.is_cancelled(task_id)
    assert runtime.gcs.events("task_cancelled") == []
    repro.shutdown()  # quiescence: the held finish batch has landed
    assert runtime.gcs.get_task(task_id).status is TaskStatus.FINISHED


def test_cancel_interrupts_blocked_get(runtime):
    # A task blocked in repro.get on an object that arrives far too late:
    # cancellation must interrupt the wait, not ride it out.
    @repro.remote
    def producer():
        time.sleep(60)
        return "late"

    @repro.remote
    def consumer(ref):
        return repro.get(ref, timeout=55)

    slow_ref = producer.remote()
    blocked = consumer.remote(slow_ref)
    time.sleep(0.3)  # let the consumer dispatch and block in its get
    started = time.monotonic()
    assert repro.cancel(blocked) is True
    with pytest.raises(TaskCancelledError):
        repro.get(blocked, timeout=10)
    # The cooperative interrupt must fire promptly, not ride out the sleep.
    assert time.monotonic() - started < 10
    repro.cancel(slow_ref, force=True)


def test_plain_cancel_lets_finished_compute_stand(runtime):
    ref = spin.remote(0.3)
    time.sleep(0.05)  # ensure it is running, not queued
    repro.cancel(ref)  # non-force: the run is not interrupted mid-compute
    # The sleep completes; the uninterrupted result stands.
    assert repro.get(ref, timeout=10) == "done"


def test_force_cancel_replaces_finished_outputs(runtime):
    ref = spin.remote(0.3)
    time.sleep(0.05)
    assert repro.cancel(ref, force=True) is True
    with pytest.raises(TaskCancelledError):
        repro.get(ref, timeout=10)


def test_force_cancel_replaces_finished_actor_method_outputs(runtime):
    spinner = Spinner.remote()
    ref = spinner.spin.remote(0.3)
    time.sleep(0.05)
    assert repro.cancel(ref, force=True) is True
    with pytest.raises(TaskCancelledError):
        repro.get(ref, timeout=10)
    repro.shutdown()  # quiescence: the method's finish batch has landed
    task_id = runtime.graph.producer_of(ref.object_id)
    assert runtime.gcs.get_task(task_id).status is TaskStatus.CANCELLED


@pytest.mark.parametrize("kind", ["task", "method"])
def test_consumer_of_cancelled_output_is_recorded_cancelled(runtime, kind):
    blockers = [spin.remote(0.3) for _ in range(8)]
    root = quick.remote(1)  # queued behind the blockers
    consume = quick if kind == "task" else Spinner.remote().spin
    child = consume.remote(root)
    assert repro.cancel(root) is True
    with pytest.raises(TaskCancelledError):
        repro.get(child, timeout=10)
    repro.get(blockers, timeout=10)
    repro.shutdown()  # quiescence: the consumer's finish batch has landed
    task_id = runtime.graph.producer_of(child.object_id)
    assert runtime.gcs.get_task(task_id).status is TaskStatus.CANCELLED
    (event,) = [
        r.as_dict()
        for r in runtime.gcs.events("task_finished")
        if r.as_dict()["task"] == task_id.short()
    ]
    assert event["status"] == "cancelled"


def test_cancelled_error_propagates_to_dependents(runtime):
    blockers = [spin.remote(0.5) for _ in range(8)]
    root = quick.remote(1)
    child = quick.remote(root)
    repro.cancel(root)
    with pytest.raises(TaskCancelledError):
        repro.get(child, timeout=10)
    repro.get(blockers, timeout=10)


def test_cancel_put_object_raises(runtime):
    ref = repro.put(42)
    with pytest.raises(ValueError):
        repro.cancel(ref)


def test_cancel_actor_method_flags_without_dequeue(runtime):
    @repro.remote
    class Counter:
        def __init__(self):
            self.value = 0

        def bump(self, delay=0.0):
            if delay:
                time.sleep(delay)
            self.value += 1
            return self.value

    c = Counter.remote()
    busy = c.bump.remote(0.4)  # occupies the mailbox head
    victim = c.bump.remote()
    later = c.bump.remote()
    assert repro.cancel(victim) is True
    with pytest.raises(TaskCancelledError):
        repro.get(victim, timeout=10)
    # The mailbox stays counter-contiguous: later methods still execute,
    # and the cancelled method did not mutate actor state.
    assert repro.get(busy, timeout=10) == 1
    assert repro.get(later, timeout=10) == 2
