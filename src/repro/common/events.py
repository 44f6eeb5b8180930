"""Unified completion/notification layer for the runtime's blocking paths.

Every blocking operation in the paper's runtime — ``ray.get``, input
fetches, actor dispatch (Figure 7) — wakes on a GCS pub-sub or object
store notification, never on a fixed-interval poll.  This module is the
in-process analogue: a :class:`Completion` is a waitable flag with
callback fan-out that producers (object store puts, transfer arrivals,
GCS location updates) signal and consumers block on, and
:func:`wait_any` multiplexes several completions into one timed wait.

Timed waits still exist, but only as a *missed-wakeup backstop*: every
consumer sleeps for :data:`BACKSTOP_INTERVAL` (seconds) at most before
re-validating its condition, so a lost notification degrades latency to
~1 s instead of hanging forever.  Backstop activity is counted in
:class:`WaitStats`, which the cluster inspector and HTTP dashboard
surface — ``backstop_timeouts`` counts guarded re-arms (expected during
genuinely long waits), while ``backstop_recoveries`` counts waits the
backstop found already-satisfiable, i.e. actual missed wakeups; on a
healthy run recoveries stay at zero, which is how we know these paths
really are notification-driven.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence
from repro.common.lockwatch import make_condition, make_lock

# Guarded missed-wakeup backstop.  Notification paths must deliver every
# wakeup; this bound only exists so a bug degrades to one-second latency
# rather than a hang.  It must stay >= 1s — anything shorter is a poll.
BACKSTOP_INTERVAL = 1.0


class WaitStats:
    """Cluster-wide counters for the notification layer.

    ``backstop_timeouts``/``backstop_recoveries`` are the health signal:
    recoveries mean a wakeup was missed and the guard caught it.

    ``wait_histogram`` (a :class:`repro.common.metrics.Histogram`, or any
    object with ``observe``) additionally receives the duration of every
    blocking wait, giving the metrics registry a wait-latency
    distribution on top of these counts.
    """

    __slots__ = (
        "_lock",
        "notifications",
        "callbacks_fired",
        "waits",
        "wakeups",
        "wait_timeouts",
        "backstop_timeouts",
        "backstop_recoveries",
        "wait_histogram",
    )

    def __init__(self, wait_histogram=None):
        self._lock = make_lock("WaitStats._lock")
        self.wait_histogram = wait_histogram
        self.notifications = 0  # Completion.set() calls that flipped the flag
        self.callbacks_fired = 0  # listener callbacks invoked by set()
        self.waits = 0  # blocking waits entered
        self.wakeups = 0  # waits satisfied by a notification
        self.wait_timeouts = 0  # waits that expired (deadline or backstop)
        self.backstop_timeouts = 0  # guarded backstop waits that fired
        self.backstop_recoveries = 0  # backstop firings that found real work

    def record_notification(self, num_callbacks: int = 0) -> None:
        with self._lock:
            self.notifications += 1
            self.callbacks_fired += num_callbacks

    def record_wait(self, satisfied: bool, seconds: Optional[float] = None) -> None:
        with self._lock:
            self.waits += 1
            if satisfied:
                self.wakeups += 1
            else:
                self.wait_timeouts += 1
        if self.wait_histogram is not None and seconds is not None:
            self.wait_histogram.observe(seconds)

    def record_backstop(self, recovered: bool = False) -> None:
        with self._lock:
            self.backstop_timeouts += 1
            if recovered:
                self.backstop_recoveries += 1

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "notifications": self.notifications,
                "callbacks_fired": self.callbacks_fired,
                "waits": self.waits,
                "wakeups": self.wakeups,
                "wait_timeouts": self.wait_timeouts,
                "backstop_timeouts": self.backstop_timeouts,
                "backstop_recoveries": self.backstop_recoveries,
            }


class Completion:
    """A waitable, re-armable notification with callback fan-out.

    Superset of :class:`threading.Event`: ``set``/``clear``/``is_set``/
    ``wait`` behave identically, plus listeners registered with
    :meth:`add_callback` fire exactly once per signal (immediately if
    already set), and completions compose into multi-waits via
    :func:`wait_any`.  Producers signal; consumers never poll.

    Completions are weakly referenceable: an owner may hold one only as
    long as someone else does (the object store keeps a present object's
    completion that way, see :class:`~repro.core.object_store.LocalObjectStore`).
    """

    __slots__ = ("_cond", "_flag", "_callbacks", "_stats", "__weakref__")

    def __init__(self, stats: Optional[WaitStats] = None):
        self._cond = make_condition("Completion._cond")
        self._flag = False
        self._callbacks: List[Callable[["Completion"], None]] = []
        self._stats = stats

    def is_set(self) -> bool:
        with self._cond:
            return self._flag

    def set(self) -> bool:
        """Signal the completion; fire and consume pending callbacks.

        Returns True if this call flipped the flag (False if already set).
        """
        with self._cond:
            if self._flag:
                return False
            self._flag = True
            callbacks = self._callbacks
            self._callbacks = []
            self._cond.notify_all()
        if self._stats is not None:
            self._stats.record_notification(len(callbacks))
        for callback in callbacks:
            callback(self)
        return True

    def clear(self) -> None:
        """Re-arm: subsequent waits block until the next ``set``."""
        with self._cond:
            self._flag = False

    def wait(self, timeout: Optional[float] = None) -> bool:
        if self._stats is None:
            with self._cond:
                return self._cond.wait_for(lambda: self._flag, timeout)
        started = time.monotonic()
        with self._cond:
            satisfied = self._cond.wait_for(lambda: self._flag, timeout)
        self._stats.record_wait(satisfied, seconds=time.monotonic() - started)
        return satisfied

    def add_callback(self, callback: Callable[["Completion"], None]) -> None:
        """Run ``callback(self)`` on the next signal (now if already set).

        Each registered callback fires at most once; a ``clear``/``set``
        cycle does not re-fire callbacks consumed by an earlier signal.
        """
        with self._cond:
            if not self._flag:
                self._callbacks.append(callback)
                return
        callback(self)

    def remove_callback(self, callback: Callable[["Completion"], None]) -> None:
        """Deregister a pending callback (no-op if already fired/absent)."""
        with self._cond:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                pass


def wait_any(
    completions: Sequence[Completion],
    timeout: Optional[float] = None,
    count: int = 1,
    stats: Optional[WaitStats] = None,
) -> List[Completion]:
    """Block until ``count`` of ``completions`` are set or ``timeout``
    expires.  Returns the completions that are set on exit (possibly
    fewer than ``count`` on timeout).

    ``stats`` records the blocking portion of the multi-wait (the fast
    path — enough completions already set — records nothing, matching
    ``Completion.wait``'s accounting of actual blocks only).
    """
    ready = [c for c in completions if c.is_set()]
    if len(ready) >= count or not completions:
        return ready

    gate = make_condition("wait_any.gate")

    def poke(_completion: Completion) -> None:
        with gate:
            gate.notify_all()

    registered = list(completions)
    for completion in registered:
        completion.add_callback(poke)
    started = time.monotonic()
    try:
        deadline = None if timeout is None else started + timeout
        with gate:
            while True:
                ready = [c for c in completions if c.is_set()]
                if len(ready) >= count:
                    return ready
                if deadline is None:
                    remaining = None
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return ready
                gate.wait(timeout=remaining)
    finally:
        for completion in registered:
            completion.remove_callback(poke)
        if stats is not None:
            stats.record_wait(
                len(ready) >= count, seconds=time.monotonic() - started
            )
