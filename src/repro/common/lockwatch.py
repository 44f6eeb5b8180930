"""Runtime lock-order witness (dynamic companion to the static analyzer).

The static rules in :mod:`repro.tools.analysis` reason about lock discipline
from source text; this module watches the locks *run*.  When enabled it wraps
every lock created through :func:`make_lock` / :func:`make_rlock` /
:func:`make_condition` in a thin proxy that records, per thread, the order in
which named locks are acquired.  The observations feed three detectors:

* **lock-order inversions** — acquiring ``B`` while holding ``A`` adds the
  edge ``A -> B`` to a global acquisition-order graph; a path ``B -> ... -> A``
  already in the graph means two threads can deadlock.  Detection is
  graph-based, so a single-threaded test that merely *exercises* both orders
  is enough to catch the hazard — no actual deadlock required.
* **long holds** — a lock held longer than ``long_hold_seconds`` (time spent
  blocked in ``Condition.wait`` is subtracted, so the event-layer idiom of
  waiting on the held condition does not count).
* **contention** — an acquire that could not be satisfied immediately.

Like :mod:`repro.common.faults` and :mod:`repro.common.metrics`, the disabled
path is a null object — better, in fact: with no watch installed the
factories return the plain :mod:`threading` primitives, so production code
pays nothing, not even an attribute hop.

Enable with the ``REPRO_LOCKWATCH`` environment variable (any value except
``""``/``0``), or programmatically::

    watch = LockWatch()
    install(watch)
    try:
        ...  # locks created via make_lock() are now instrumented
    finally:
        uninstall()
    assert not watch.inversions()

Metrics: call :meth:`LockWatch.bind_metrics` with a
:class:`repro.common.metrics.MetricsRegistry` (duck-typed — anything with
``histogram``/``counter``) to export ``lock_hold_seconds`` and
``lock_contention_total``.  ``Runtime`` does this automatically when a watch
is installed.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "LockWatch",
    "active",
    "install",
    "uninstall",
    "make_lock",
    "make_rlock",
    "make_condition",
    "make_thread",
    "Ticker",
    "JOIN_TIMEOUT",
]


def _env_enabled() -> bool:
    value = os.environ.get("REPRO_LOCKWATCH", "")
    return value not in ("", "0", "false", "no")


class LockWatch:
    """Collects acquisition-order, hold-time and contention observations.

    Lock *names* (not instances) are the graph nodes: every lock a class
    creates under the same attribute shares one name (``"ActorState.cond"``),
    which is exactly the granularity the ordering discipline is defined at.
    Reentrant re-acquisition (RLock already on the thread's stack) adds no
    edge.
    """

    enabled = True

    def __init__(self, long_hold_seconds: float = 0.25, max_records: int = 200):
        self.long_hold_seconds = long_hold_seconds
        self.max_records = max_records
        # Internal lock guarding the graph and record lists.  Deliberately a
        # raw primitive: the watch must never watch itself.
        self._lock = threading.Lock()
        self._edges: Dict[str, Set[str]] = {}
        self._edge_witness: Dict[Tuple[str, str], str] = {}
        self._inversion_records: List[dict] = []
        self._inversion_keys: Set[Tuple[str, ...]] = set()
        self._long_holds: List[dict] = []
        self._contention: Dict[str, int] = {}
        self._hold_totals: Dict[str, float] = {}
        self._acquire_totals: Dict[str, int] = {}
        self._tls = threading.local()
        self._m_hold = None
        self._m_contention = None

    # -- factories ---------------------------------------------------------

    def lock(self, name: str) -> "_WatchedLock":
        return _WatchedLock(name, self, threading.Lock())

    def rlock(self, name: str) -> "_WatchedLock":
        return _WatchedLock(name, self, threading.RLock(), reentrant=True)

    def condition(self, name: str) -> "_WatchedCondition":
        return _WatchedCondition(name, self)

    # -- metrics -----------------------------------------------------------

    def bind_metrics(self, registry) -> None:
        """Export hold/contention observations through ``registry``.

        Duck-typed on purpose: importing :mod:`repro.common.metrics` here
        would create a cycle once that module routes its own locks through
        :func:`make_lock`.
        """
        self._m_hold = registry.histogram(
            "lock_hold_seconds", "Time a watched lock was held"
        )
        self._m_contention = registry.counter(
            "lock_contention_total", "Acquires that had to wait"
        )

    # -- per-thread stack --------------------------------------------------

    def _stack(self) -> List[dict]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    # -- wrapper callbacks -------------------------------------------------

    def note_contention(self, name: str) -> None:
        with self._lock:
            self._contention[name] = self._contention.get(name, 0) + 1
        if self._m_contention is not None:
            self._m_contention.inc()

    def note_acquired(self, name: str) -> None:
        stack = self._stack()
        reentrant = any(entry["name"] == name for entry in stack)
        holder = stack[-1]["name"] if stack else None
        stack.append(
            {"name": name, "t0": time.monotonic(), "waited": 0.0}
        )
        if reentrant or holder is None or holder == name:
            return
        thread = threading.current_thread().name
        with self._lock:
            self._acquire_totals[name] = self._acquire_totals.get(name, 0) + 1
            targets = self._edges.setdefault(holder, set())
            if name in targets:
                return
            targets.add(name)
            self._edge_witness[(holder, name)] = thread
            cycle = self._find_path(name, holder)
            if cycle is not None:
                self._record_inversion([holder] + cycle)

    def note_released(self, name: str) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index]["name"] == name:
                entry = stack.pop(index)
                break
        else:
            return
        held = time.monotonic() - entry["t0"] - entry["waited"]
        if self._m_hold is not None:
            self._m_hold.observe(held)
        with self._lock:
            self._hold_totals[name] = self._hold_totals.get(name, 0.0) + held
            if (
                held > self.long_hold_seconds
                and len(self._long_holds) < self.max_records
            ):
                self._long_holds.append(
                    {
                        "lock": name,
                        "held_seconds": held,
                        "thread": threading.current_thread().name,
                    }
                )

    def note_wait(self, name: str, waited: float) -> None:
        """Time spent blocked in ``Condition.wait`` does not count as holding."""
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index]["name"] == name:
                stack[index]["waited"] += waited
                return

    # -- graph -------------------------------------------------------------

    def _find_path(self, start: str, goal: str) -> Optional[List[str]]:
        """DFS for a path ``start -> ... -> goal`` (lock held by caller)."""
        seen = set()
        frontier: List[Tuple[str, List[str]]] = [(start, [start])]
        while frontier:
            node, path = frontier.pop()
            if node == goal:
                return path
            if node in seen:
                continue
            seen.add(node)
            for nxt in self._edges.get(node, ()):
                if nxt not in seen:
                    frontier.append((nxt, path + [nxt]))
        return None

    def _record_inversion(self, cycle: List[str]) -> None:
        key = tuple(sorted(set(cycle)))
        if key in self._inversion_keys:
            return
        self._inversion_keys.add(key)
        witnesses = {
            f"{a}->{b}": self._edge_witness.get((a, b), "?")
            for a, b in zip(cycle, cycle[1:] + cycle[:1])
            if (a, b) in self._edge_witness
        }
        self._inversion_records.append(
            {"cycle": list(cycle), "witness_threads": witnesses}
        )

    # -- reporting ---------------------------------------------------------

    def inversions(self) -> List[dict]:
        with self._lock:
            return [dict(record) for record in self._inversion_records]

    def long_holds(self) -> List[dict]:
        with self._lock:
            return [dict(record) for record in self._long_holds]

    def contention(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._contention)

    def report(self) -> dict:
        with self._lock:
            edges = sorted(
                f"{src}->{dst}"
                for src, targets in self._edges.items()
                for dst in targets
            )
            return {
                "inversions": [dict(r) for r in self._inversion_records],
                "long_holds": [dict(r) for r in self._long_holds],
                "contention": dict(self._contention),
                "hold_seconds_total": {
                    name: round(total, 6)
                    for name, total in sorted(self._hold_totals.items())
                },
                "order_edges": edges,
            }


class _WatchedLock:
    """Proxy around ``threading.Lock``/``RLock`` reporting to a LockWatch."""

    __slots__ = ("_name", "_watch", "_inner", "_reentrant")

    def __init__(self, name, watch, inner, reentrant=False):
        self._name = name
        self._watch = watch
        self._inner = inner
        self._reentrant = reentrant

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(False)
        if not got:
            self._watch.note_contention(self._name)
            if not blocking:
                return False
            got = self._inner.acquire(True, timeout)
        if got:
            self._watch.note_acquired(self._name)
        return got

    def release(self) -> None:
        self._watch.note_released(self._name)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "_WatchedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WatchedLock {self._name!r} {self._inner!r}>"


class _WatchedCondition:
    """Proxy around ``threading.Condition`` reporting to a LockWatch.

    The underlying condition owns its own RLock; acquisition order is
    recorded under the condition's name.  ``wait``/``wait_for`` time is
    subtracted from the hold so the event-layer's blocking waits on the held
    condition never read as long holds.
    """

    __slots__ = ("_name", "_watch", "_inner")

    def __init__(self, name, watch):
        self._name = name
        self._watch = watch
        self._inner = threading.Condition()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(False)
        if not got:
            self._watch.note_contention(self._name)
            if not blocking:
                return False
            got = self._inner.acquire(True, timeout)
        if got:
            self._watch.note_acquired(self._name)
        return got

    def release(self) -> None:
        self._watch.note_released(self._name)
        self._inner.release()

    def __enter__(self) -> "_WatchedCondition":
        self.acquire()
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False

    def wait(self, timeout: Optional[float] = None) -> bool:
        t0 = time.monotonic()
        try:
            return self._inner.wait(timeout)
        finally:
            self._watch.note_wait(self._name, time.monotonic() - t0)

    def wait_for(self, predicate, timeout: Optional[float] = None):
        t0 = time.monotonic()
        try:
            return self._inner.wait_for(predicate, timeout)
        finally:
            self._watch.note_wait(self._name, time.monotonic() - t0)

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WatchedCondition {self._name!r}>"


# -- module-level watch ------------------------------------------------------

_active: Optional[LockWatch] = None
if _env_enabled():  # pragma: no cover - exercised via the CI lockwatch job
    _active = LockWatch()


def active() -> Optional[LockWatch]:
    """The installed watch, or ``None`` when lockwatch is disabled."""
    return _active


def install(watch: LockWatch) -> LockWatch:
    """Install ``watch`` as the process-wide witness (tests, chaos runs)."""
    global _active
    _active = watch
    return watch


def uninstall() -> None:
    global _active
    _active = None


def make_lock(name: str):
    """A ``threading.Lock`` — instrumented iff a watch is installed."""
    watch = _active
    if watch is None:
        return threading.Lock()
    return watch.lock(name)


def make_rlock(name: str):
    """A ``threading.RLock`` — instrumented iff a watch is installed."""
    watch = _active
    if watch is None:
        return threading.RLock()
    return watch.rlock(name)


def make_condition(name: str):
    """A ``threading.Condition`` — instrumented iff a watch is installed."""
    watch = _active
    if watch is None:
        return threading.Condition()
    return watch.condition(name)


def make_thread(target, name: str, daemon: bool = True) -> threading.Thread:
    """The one thread-construction site of the runtime.

    Every runtime thread is built here (the static RT-THREAD-LEAK rule
    flags a ``threading.Thread`` built anywhere else in ``src/repro``): the
    thread is always *named*, so the witness's per-edge thread attribution
    and long-hold records point at a real component, not ``Thread-7``, and
    the ``daemon`` decision is explicit.
    """
    return threading.Thread(target=target, name=name, daemon=daemon)


# Seconds a stopping component waits for its own thread to exit.
JOIN_TIMEOUT = 2.0


class Ticker:
    """Calls ``tick()`` every ``interval`` seconds on one named daemon thread.

    The ops plane's one interval loop (node reporters, the autoscalers, the
    serve router's report).  ``start`` and ``stop`` are idempotent and a
    stopped ticker never restarts.  ``stop`` wakes the thread and joins it
    (up to :data:`JOIN_TIMEOUT`), so no tick starts after it returns; called
    from inside a tick it returns without joining its own thread.  A tick
    that raises ends the thread through ``threading.excepthook``.
    """

    def __init__(self, name: str, interval: float, tick) -> None:
        self.name = name
        self.interval = interval
        self._tick = tick
        self._cond = make_condition("Ticker._cond")
        self._stopped = False
        self.thread: Optional[threading.Thread] = None

    def start(self) -> None:
        with self._cond:
            if self.thread is not None or self._stopped:
                return
            self.thread = make_thread(self._run, name=self.name)
        self.thread.start()

    def _run(self) -> None:
        while True:
            with self._cond:
                if not self._stopped:
                    self._cond.wait(self.interval)
                if self._stopped:
                    return
            # Tick outside the condition: ticks write the GCS
            # (RT-BLOCKING-UNDER-LOCK).
            self._tick()

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
            thread = self.thread
        if (
            thread is not None
            and thread.is_alive()
            and thread is not threading.current_thread()
        ):
            thread.join(JOIN_TIMEOUT)
