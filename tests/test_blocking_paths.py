"""Blocking-path semantics: get/wait/fetch are notification-driven.

These tests pin down the contracts the event-driven refactor must keep:
``wait`` returns exactly ``num_returns``; ``get(timeout=...)`` raises
promptly (at the deadline, not deadline + a poll interval); the
evicted-between-availability-and-read window retries; lost objects raise
``ObjectLostError`` by notification; and wakeups after availability are
sub-poll-interval (< 10 ms, where the old poll loop floored at 20 ms).
"""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.common.errors import GetTimeoutError, ObjectLostError


@repro.remote
def finish_after(delay):
    time.sleep(delay)
    return time.monotonic()


@repro.remote
def sleepy(delay):
    time.sleep(delay)
    return delay


@repro.remote
class Echo:
    def echo(self, x):
        return x


class TestWaitSemantics:
    def test_wait_returns_exactly_num_returns(self, runtime):
        refs = [repro.put(i) for i in range(4)]
        ready, pending = repro.wait(refs, num_returns=2)
        assert len(ready) == 2
        assert len(pending) == 2
        # The extras stay pending even though they are ready; a second call
        # picks them up.
        ready2, pending2 = repro.wait(pending, num_returns=2)
        assert len(ready2) == 2 and not pending2

    def test_wait_num_returns_exceeding_futures_raises(self, runtime):
        with pytest.raises(ValueError):
            repro.wait([repro.put(1)], num_returns=2)

    def test_wait_timeout_returns_partial(self, runtime):
        ref = sleepy.remote(5.0)
        start = time.monotonic()
        ready, pending = repro.wait([ref], timeout=0.1)
        elapsed = time.monotonic() - start
        assert not ready and pending == [ref]
        assert 0.1 <= elapsed < 0.4  # wakes at the deadline, no extra poll

    def test_wait_wakes_on_concurrent_completion_within_10ms(self, runtime):
        ref = finish_after.remote(0.05)
        ready, pending = repro.wait([ref], timeout=5.0)
        woke_at = time.monotonic()
        assert ready and not pending
        finished_at = repro.get(ref)
        # Wakeup must ride the availability notification, not a poll tick:
        # the old loop slept in fixed intervals, flooring this latency.
        assert woke_at - finished_at < 0.010


class TestGetSemantics:
    def test_get_available_object_is_subpoll(self, runtime):
        oid = repro.put(123)
        start = time.monotonic()
        assert repro.get(oid) == 123
        assert time.monotonic() - start < 0.010

    def test_get_wakes_on_task_completion_within_10ms(self, runtime):
        ref = finish_after.remote(0.05)
        finished_at = repro.get(ref)
        woke_at = time.monotonic()
        assert woke_at - finished_at < 0.010

    def test_get_timeout_is_prompt(self, runtime):
        ref = sleepy.remote(5.0)
        start = time.monotonic()
        with pytest.raises(GetTimeoutError):
            repro.get(ref, timeout=0.2)
        elapsed = time.monotonic() - start
        # Raises at the deadline: not deadline + poll interval, and far
        # under the 1 s missed-wakeup backstop.
        assert 0.2 <= elapsed < 0.45

    def test_get_retries_when_evicted_between_availability_and_read(self, runtime):
        oid = runtime.put(42)
        node = runtime.driver_node
        real_get = node.store.get
        calls = {"n": 0}

        def flaky_get(object_id):
            # First read misses, as if the object was evicted between the
            # availability signal and the store read.
            calls["n"] += 1
            if calls["n"] == 1:
                return None
            return real_get(object_id)

        node.store.get = flaky_get
        try:
            assert runtime.get(oid) == 42
        finally:
            node.store.get = real_get
        assert calls["n"] >= 2

    def test_lost_object_raises_object_lost_promptly(self):
        rt = repro.init(
            num_nodes=1, num_cpus_per_node=2, object_store_capacity_bytes=3000
        )
        try:
            victim = repro.put(b"x" * 2000)
            repro.put(b"y" * 2000)  # evicts the victim; no lineage to replay
            start = time.monotonic()
            with pytest.raises(ObjectLostError):
                repro.get(victim, timeout=5.0)
            # Verdict arrives by lost-notification, not after the timeout.
            assert time.monotonic() - start < 0.5
        finally:
            repro.shutdown()

    def test_lost_during_blocked_fetch_wakes_by_notification(self, runtime):
        from repro.common.ids import ObjectID

        node = runtime.driver_node
        oid = ObjectID.from_random()
        runtime.gcs.add_object(oid, 10, None)  # put-root: no lineage
        # A stale location: registered in the GCS but never actually stored,
        # so the fetch blocks waiting for a copy to materialize.
        runtime.gcs.add_object_location(oid, node.node_id)
        removed_at = []

        def retract():
            time.sleep(0.05)
            removed_at.append(time.monotonic())
            runtime.gcs.remove_object_location(oid, node.node_id)

        threading.Thread(target=retract).start()
        with pytest.raises(ObjectLostError):
            runtime.fetch_to_node(oid, node, timeout=5.0)
        raised_at = time.monotonic()
        # The lost verdict rides the location-retraction notification: it
        # lands sub-poll-interval, not at the next backstop or timeout.
        assert raised_at - removed_at[0] < 0.010


class TestActorPathLatency:
    def test_actor_round_trip_is_notification_driven(self, runtime):
        actor = Echo.remote()
        repro.get(actor.echo.remote(0))  # construction + warm-up
        start = time.monotonic()
        assert repro.get(actor.echo.remote(41)) == 41
        # submit -> mailbox notify -> execute -> output put -> get wakeup;
        # every hop is a notification, so the round trip stays well under
        # the old 100 ms mailbox poll and the 1 s backstop.
        assert time.monotonic() - start < 0.05


class TestWaitStatsSurface:
    def test_runtime_counts_notifications_and_no_missed_wakeups(self, runtime):
        refs = [sleepy.remote(0.0) for _ in range(5)]
        repro.get(refs)
        snap = runtime.wait_stats.snapshot()
        assert snap["notifications"] > 0
        assert snap["backstop_recoveries"] == 0  # nothing was missed

    def test_inspector_snapshot_includes_wait_stats(self, runtime):
        from repro.tools.inspect import ClusterInspector

        repro.get(repro.put(1))
        snapshot = ClusterInspector(runtime).snapshot()
        assert "notifications" in snapshot.wait_stats
        assert "gcs_subscriptions" in snapshot.wait_stats
        assert any(
            line.startswith("waits:") for line in snapshot.format().split("\n")
        )


class TestShutdownQuiescence:
    def test_repeated_init_shutdown_does_not_leak_threads(self):
        baseline = threading.active_count()

        def settled_thread_count(limit=2.0):
            deadline = time.monotonic() + limit
            count = threading.active_count()
            while time.monotonic() < deadline:
                count = threading.active_count()
                if count <= baseline + 1:
                    break
                time.sleep(0.01)
            return count

        for _ in range(5):
            repro.init(num_nodes=2, num_cpus_per_node=2)
            actor = Echo.remote()
            assert repro.get(actor.echo.remote(7)) == 7
            assert repro.get(sleepy.remote(0.0)) == 0.0
            repro.shutdown()
        # Shutdown joins nothing: interrupted actor loops and idle task
        # workers (on its stop sentinel) exit within the settle window.
        assert settled_thread_count() <= baseline + 1
