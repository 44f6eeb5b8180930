"""Tests for the concurrency lint engine (repro.tools.analysis).

Every rule gets at least one true-positive fixture (the rule fires on the
bad idiom) and one false-positive-avoidance fixture (the rule stays silent
on the clean sibling idiom).  The two RT-LOCK-GUARD sharpenings that came
out of triaging the real codebase — mutator calls only count as writes for
builtin-container attributes, and reads of rebind-only attributes are
exempt — get dedicated regression tests so they cannot silently regress.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.tools import analyze as analyze_cli
from repro.tools.analysis import (
    Baseline,
    analyze,
    run_rules,
    sarif_payload,
    scan_paths,
)


def _scan(tmp_path: Path, source: str, name: str = "mod.py"):
    """Write ``source`` into a scratch package and run every rule on it."""
    target = tmp_path / name
    target.write_text(textwrap.dedent(source))
    return run_rules(scan_paths([tmp_path]))


def _rule_hits(findings, rule_id: str):
    return [f for f in findings if f.rule_id == rule_id]


# ---------------------------------------------------------------------------
# RT-LOCK-GUARD
# ---------------------------------------------------------------------------


class TestLockGuard:
    def test_unguarded_write_fires(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def add(self, key, value):
                    with self._lock:
                        self._items[key] = value

                def sneak(self, key, value):
                    self._items[key] = value
            """,
        )
        hits = _rule_hits(findings, "RT-LOCK-GUARD")
        assert any(
            f.symbol == "Registry.sneak" and f.severity == "error" for f in hits
        ), [f.format() for f in findings]

    def test_unguarded_mutating_read_warns(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def add(self, key, value):
                    with self._lock:
                        self._items[key] = value

                def peek(self):
                    return len(self._items)
            """,
        )
        hits = _rule_hits(findings, "RT-LOCK-GUARD")
        assert any(
            f.symbol == "Registry.peek" and f.severity == "warning" for f in hits
        ), [f.format() for f in findings]

    def test_consistent_guard_is_clean(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def add(self, key, value):
                    with self._lock:
                        self._items[key] = value

                def peek(self):
                    with self._lock:
                        return len(self._items)
            """,
        )
        assert not _rule_hits(findings, "RT-LOCK-GUARD")

    def test_locked_helper_method_is_clean(self, tmp_path):
        """Helpers whose every call site holds the lock inherit it."""
        findings = _scan(
            tmp_path,
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def add(self, key, value):
                    with self._lock:
                        self._insert(key, value)

                def _insert(self, key, value):
                    self._items[key] = value
            """,
        )
        assert not _rule_hits(findings, "RT-LOCK-GUARD")

    def test_rebind_only_attr_read_is_exempt(self, tmp_path):
        """Regression: reference loads of rebind-only attributes are atomic
        in CPython; reading one without the lock is not a finding."""
        findings = _scan(
            tmp_path,
            """
            import threading

            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._current = None

                def swap(self, value):
                    with self._lock:
                        self._current = value

                def snapshot(self):
                    return self._current
            """,
        )
        assert not _rule_hits(findings, "RT-LOCK-GUARD")

    def test_mutator_on_non_container_not_a_write(self, tmp_path):
        """Regression: ``self.cache.clear()`` on a custom (self-locking)
        object is a method call, not a guarded write — it must not
        establish a guard that then flags plain reads elsewhere."""
        findings = _scan(
            tmp_path,
            """
            import threading

            class Cache:
                def clear(self):
                    pass

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.cache = Cache()

                def drop(self):
                    with self._lock:
                        self.cache.clear()

                def stats(self):
                    return self.cache
            """,
        )
        assert not _rule_hits(findings, "RT-LOCK-GUARD")

    def test_mutator_on_container_is_a_write(self, tmp_path):
        """The true-positive sibling: mutator calls on builtin-container
        attributes do count, so an unlocked append fires."""
        findings = _scan(
            tmp_path,
            """
            import threading

            class Queue:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._pending = []

                def push(self, item):
                    with self._lock:
                        self._pending.append(item)

                def push_unlocked(self, item):
                    self._pending.append(item)
            """,
        )
        hits = _rule_hits(findings, "RT-LOCK-GUARD")
        assert any(f.symbol == "Queue.push_unlocked" for f in hits), [
            f.format() for f in findings
        ]


# ---------------------------------------------------------------------------
# RT-BLOCKING-UNDER-LOCK
# ---------------------------------------------------------------------------


class TestBlockingUnderLock:
    def test_sleep_under_lock_fires(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import threading
            import time

            class Slow:
                def __init__(self):
                    self._lock = threading.Lock()

                def work(self):
                    with self._lock:
                        time.sleep(0.5)
            """,
        )
        hits = _rule_hits(findings, "RT-BLOCKING-UNDER-LOCK")
        assert any(f.symbol == "Slow.work" and f.severity == "error" for f in hits)

    def test_wait_on_held_condition_is_clean(self, tmp_path):
        """Waiting on the condition you hold is the event-layer idiom, not
        a blocking hazard: wait() releases the lock."""
        findings = _scan(
            tmp_path,
            """
            import threading

            class Gate:
                def __init__(self):
                    self._cond = threading.Condition()
                    self._open = False

                def block_until_open(self):
                    with self._cond:
                        while not self._open:
                            self._cond.wait(0.1)
            """,
        )
        assert not _rule_hits(findings, "RT-BLOCKING-UNDER-LOCK")

    def test_acquire_of_second_lock_flagged(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import threading

            class Nested:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._other = threading.Lock()

                def work(self):
                    with self._lock:
                        self._other.acquire()
            """,
        )
        assert _rule_hits(findings, "RT-BLOCKING-UNDER-LOCK")


# ---------------------------------------------------------------------------
# RT-LOCK-ORDER
# ---------------------------------------------------------------------------


class TestLockOrder:
    def test_ab_ba_cycle_fires(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import threading

            class Deadlocky:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def forward(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def backward(self):
                    with self._b_lock:
                        with self._a_lock:
                            pass
            """,
        )
        hits = _rule_hits(findings, "RT-LOCK-ORDER")
        assert hits, [f.format() for f in findings]
        assert "Deadlocky._a_lock" in hits[0].message
        assert "Deadlocky._b_lock" in hits[0].message

    def test_consistent_order_is_clean(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import threading

            class Ordered:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def one(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def two(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass
            """,
        )
        assert not _rule_hits(findings, "RT-LOCK-ORDER")


# ---------------------------------------------------------------------------
# RT-POLL-LOOP
# ---------------------------------------------------------------------------


class TestPollLoop:
    def test_sleep_poll_loop_fires(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import time

            def wait_ready(flagbox):
                while not flagbox.ready:
                    time.sleep(0.01)
            """,
        )
        hits = _rule_hits(findings, "RT-POLL-LOOP")
        assert any(f.symbol == "wait_ready" for f in hits)

    def test_condition_wait_loop_is_clean(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            def wait_ready(cond, flagbox):
                with cond:
                    while not flagbox.ready:
                        cond.wait(0.1)
            """,
        )
        assert not _rule_hits(findings, "RT-POLL-LOOP")

    def test_retry_backoff_sleep_in_handler_is_clean(self, tmp_path):
        """Sleeping in an except handler is retry backoff, not polling."""
        findings = _scan(
            tmp_path,
            """
            import time

            def fetch_with_retry(fetch):
                while True:
                    try:
                        return fetch()
                    except ConnectionError:
                        time.sleep(0.1)
            """,
        )
        assert not _rule_hits(findings, "RT-POLL-LOOP")


# ---------------------------------------------------------------------------
# RT-EXCEPT-SWALLOW
# ---------------------------------------------------------------------------


class TestExceptSwallow:
    def test_silent_broad_except_fires(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            def risky(op):
                try:
                    op()
                except Exception:
                    pass
            """,
        )
        assert _rule_hits(findings, "RT-EXCEPT-SWALLOW")

    def test_handled_broad_except_is_clean(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import logging

            def risky(op):
                try:
                    op()
                except Exception:
                    logging.exception("op failed")
            """,
        )
        assert not _rule_hits(findings, "RT-EXCEPT-SWALLOW")

    def test_narrow_except_is_clean(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            def risky(op):
                try:
                    op()
                except KeyError:
                    pass
            """,
        )
        assert not _rule_hits(findings, "RT-EXCEPT-SWALLOW")


# ---------------------------------------------------------------------------
# RT-THREAD-LEAK
# ---------------------------------------------------------------------------


class TestThreadLeak:
    def test_non_daemon_thread_fires(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import threading

            def start(worker):
                t = threading.Thread(target=worker)
                t.start()
                return t
            """,
        )
        hits = _rule_hits(findings, "RT-THREAD-LEAK")
        assert any(f.severity == "error" for f in hits)

    def test_daemon_thread_is_clean(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import threading

            def start(worker):
                t = threading.Thread(target=worker, daemon=True)
                t.start()
                return t
            """,
        )
        assert not _rule_hits(findings, "RT-THREAD-LEAK")

    def test_runtime_thread_outside_make_thread_fires_even_with_daemon(
        self, tmp_path
    ):
        source = """
            import threading

            def start(worker):
                return threading.Thread(target=worker, daemon=True)
            """
        for relpath in ("src/repro/serve/mod.py", "src/repro/common/lockwatch.py"):
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source))
        hits = _rule_hits(run_rules(scan_paths([tmp_path])), "RT-THREAD-LEAK")
        assert [f.path for f in hits] == ["src/repro/serve/mod.py"]


# ---------------------------------------------------------------------------
# Engine mechanics: noqa, baseline, exit codes, CLI
# ---------------------------------------------------------------------------

_BAD_SOURCE = """
import threading

def start(worker):
    return threading.Thread(target=worker)
"""

_BAD_SOURCE_NOQA = """
import threading

def start(worker):
    return threading.Thread(target=worker)  # noqa: RT-THREAD-LEAK
"""


class TestEngine:
    def test_noqa_suppresses_finding(self, tmp_path):
        (tmp_path / "mod.py").write_text(_BAD_SOURCE_NOQA)
        report = analyze([tmp_path])
        assert not report.new
        assert report.suppressed_inline == 1

    def test_baseline_roundtrip(self, tmp_path):
        (tmp_path / "mod.py").write_text(_BAD_SOURCE)
        report = analyze([tmp_path])
        assert report.new and report.exit_code == 1

        baseline_path = tmp_path / "baseline.json"
        Baseline.save(baseline_path, report.findings, justification="test")
        baseline = Baseline.load(baseline_path)
        again = analyze([tmp_path], baseline=baseline)
        assert not again.new
        assert again.baselined and again.exit_code == 0

    def test_baseline_fingerprint_survives_line_shift(self, tmp_path):
        (tmp_path / "mod.py").write_text(_BAD_SOURCE)
        report = analyze([tmp_path])
        baseline_path = tmp_path / "baseline.json"
        Baseline.save(baseline_path, report.findings, justification="test")
        # Shift every line down: the fingerprint has no line number, so the
        # baseline still matches.
        (tmp_path / "mod.py").write_text("# a comment\n# another\n" + _BAD_SOURCE)
        again = analyze([tmp_path], baseline=Baseline.load(baseline_path))
        assert not again.new

    def test_stale_baseline_entries_reported(self, tmp_path):
        (tmp_path / "mod.py").write_text(_BAD_SOURCE)
        report = analyze([tmp_path])
        baseline_path = tmp_path / "baseline.json"
        Baseline.save(baseline_path, report.findings, justification="test")
        (tmp_path / "mod.py").write_text("x = 1\n")  # finding is gone
        again = analyze([tmp_path], baseline=Baseline.load(baseline_path))
        assert again.stale_baseline

    def test_syntax_error_is_a_finding(self, tmp_path):
        (tmp_path / "mod.py").write_text("def broken(:\n")
        report = analyze([tmp_path])
        assert any(f.rule_id == "RT-PARSE" for f in report.new)

    def test_cli_strict_nonzero_on_bad_fixture(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(_BAD_SOURCE)
        rc = analyze_cli.main([str(tmp_path), "--strict", "--no-baseline"])
        assert rc == 1
        assert "RT-THREAD-LEAK" in capsys.readouterr().out

    def test_cli_non_strict_exits_zero(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(_BAD_SOURCE)
        rc = analyze_cli.main([str(tmp_path), "--no-baseline"])
        assert rc == 0

    def test_cli_json_output(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(_BAD_SOURCE)
        rc = analyze_cli.main([str(tmp_path), "--no-baseline", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["new"] == 1
        assert payload["findings"][0]["rule"] == "RT-THREAD-LEAK"

    def test_cli_rule_selection(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(_BAD_SOURCE)
        rc = analyze_cli.main(
            [str(tmp_path), "--strict", "--no-baseline", "--rules", "RT-POLL-LOOP"]
        )
        assert rc == 0  # thread-leak rule not selected

    def test_cli_unknown_rule_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            analyze_cli.main([str(tmp_path), "--rules", "RT-NOPE"])
        assert exc.value.code == 2

    def test_cli_list_rules(self, capsys):
        assert analyze_cli.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "RT-LOCK-GUARD",
            "RT-BLOCKING-UNDER-LOCK",
            "RT-LOCK-ORDER",
            "RT-POLL-LOOP",
            "RT-EXCEPT-SWALLOW",
            "RT-THREAD-LEAK",
        ):
            assert rule_id in out


# ---------------------------------------------------------------------------
# DF-NESTED-GET
# ---------------------------------------------------------------------------


class TestDFNestedGet:
    def test_get_inside_remote_function_fires(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def inner(x):
                return x * x

            @repro.remote
            def outer(xs):
                refs = [inner.remote(x) for x in xs]
                return sum(repro.get(refs))
            """,
        )
        hits = _rule_hits(findings, "DF-NESTED-GET")
        assert any(f.symbol == "outer" for f in hits), [f.format() for f in findings]

    def test_remote_context_propagates_through_local_helper(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def work(x):
                return x

            def helper(xs):
                refs = [work.remote(x) for x in xs]
                return repro.get(refs)

            @repro.remote
            def outer(xs):
                return helper(xs)
            """,
        )
        hits = _rule_hits(findings, "DF-NESTED-GET")
        assert any(f.symbol == "helper" for f in hits), [f.format() for f in findings]

    def test_get_on_local_put_is_exempt(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def stage(x):
                ref = repro.put(x)
                return repro.get(ref)
            """,
        )
        assert not _rule_hits(findings, "DF-NESTED-GET")

    def test_driver_side_get_is_exempt(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def work(x):
                return x

            def main(xs):
                refs = [work.remote(x) for x in xs]
                return repro.get(refs)
            """,
        )
        assert not _rule_hits(findings, "DF-NESTED-GET")


# ---------------------------------------------------------------------------
# DF-GET-IN-LOOP
# ---------------------------------------------------------------------------


class TestDFGetInLoop:
    def test_per_iteration_get_fires(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def work(x):
                return x

            def main(items):
                out = []
                for x in items:
                    ref = work.remote(x)
                    out.append(repro.get(ref))
                return out
            """,
        )
        hits = _rule_hits(findings, "DF-GET-IN-LOOP")
        assert any(f.symbol == "main" for f in hits), [f.format() for f in findings]

    def test_batched_container_get_is_exempt(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def work(x):
                return x

            def main(waves):
                results = []
                for wave in waves:
                    refs = [work.remote(x) for x in wave]
                    results.extend(repro.get(refs))
                return results
            """,
        )
        assert not _rule_hits(findings, "DF-GET-IN-LOOP")

    def test_loop_carried_dependency_is_exempt(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def step(v):
                return v + 1

            def main(rounds):
                state = step.remote(0)
                for _ in range(rounds):
                    value = repro.get(state)
                    state = step.remote(value * 2)
                return repro.get(state)
            """,
        )
        assert not _rule_hits(findings, "DF-GET-IN-LOOP")

    def test_fresh_get_in_helper_called_from_loop_fires(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def work(x):
                return x

            def fetch(x):
                ref = work.remote(x)
                return repro.get(ref)

            def main(items):
                out = []
                for x in items:
                    out.append(fetch(x))
                return out
            """,
        )
        hits = _rule_hits(findings, "DF-GET-IN-LOOP")
        assert any(
            f.symbol == "fetch" and "'main'" in f.message for f in hits
        ), [f.format() for f in findings]

    def test_helper_get_outside_any_loop_is_exempt(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def work(x):
                return x

            def fetch(x):
                ref = work.remote(x)
                return repro.get(ref)

            def main(x):
                return fetch(x)
            """,
        )
        assert not _rule_hits(findings, "DF-GET-IN-LOOP")


# ---------------------------------------------------------------------------
# DF-UNCONSUMED-REF
# ---------------------------------------------------------------------------


class TestDFUnconsumedRef:
    def test_discarded_ref_fires(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def work(x):
                return x

            def main(items):
                for x in items:
                    work.remote(x)
            """,
        )
        hits = _rule_hits(findings, "DF-UNCONSUMED-REF")
        assert any("discarded" in f.message for f in hits), [
            f.format() for f in findings
        ]

    def test_bound_but_never_consumed_fires(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def work(x):
                return x

            def main(x):
                ref = work.remote(x)
                return 0
            """,
        )
        hits = _rule_hits(findings, "DF-UNCONSUMED-REF")
        assert any("'ref'" in f.message for f in hits), [
            f.format() for f in findings
        ]

    def test_returned_refs_are_consumed(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def work(x):
                return x

            def make(items):
                refs = [work.remote(x) for x in items]
                return refs
            """,
        )
        assert not _rule_hits(findings, "DF-UNCONSUMED-REF")

    def test_batched_drain_is_consumed(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def work(x):
                return x

            def main(items):
                refs = []
                for x in items:
                    refs.append(work.remote(x))
                repro.get(refs)
            """,
        )
        assert not _rule_hits(findings, "DF-UNCONSUMED-REF")


# ---------------------------------------------------------------------------
# DF-LARGE-CAPTURE
# ---------------------------------------------------------------------------


class TestDFLargeCapture:
    def test_large_name_fanned_out_by_value_fires(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def work(table, i):
                return table[i]

            def main():
                table = list(range(50_000))
                refs = [work.remote(table, i) for i in range(8)]
                return repro.get(refs)
            """,
        )
        hits = _rule_hits(findings, "DF-LARGE-CAPTURE")
        assert any("'table'" in f.message for f in hits), [
            f.format() for f in findings
        ]

    def test_worker_capturing_module_large_fires(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            TABLE = list(range(100_000))

            @repro.remote
            def lookup(i):
                return TABLE[i]
            """,
        )
        hits = _rule_hits(findings, "DF-LARGE-CAPTURE")
        assert any("'TABLE'" in f.message for f in hits), [
            f.format() for f in findings
        ]

    def test_put_once_pass_ref_is_exempt(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def work(table_ref, i):
                return repro.get(table_ref)[i]  # noqa: DF-NESTED-GET

            def main():
                table_ref = repro.put(list(range(50_000)))
                refs = [work.remote(table_ref, i) for i in range(8)]
                return repro.get(refs)
            """,
        )
        assert not _rule_hits(findings, "DF-LARGE-CAPTURE")

    def test_single_unlooped_use_is_exempt(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def work(table):
                return sum(table)

            def main():
                table = list(range(50_000))
                return repro.get(work.remote(table))
            """,
        )
        assert not _rule_hits(findings, "DF-LARGE-CAPTURE")


# ---------------------------------------------------------------------------
# DF-UNBOUNDED-FANOUT
# ---------------------------------------------------------------------------


class TestDFUnboundedFanout:
    def test_while_loop_without_wait_fires(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def work(x):
                return x

            def main():
                i = 0
                while i < 1000:
                    work.remote(i)
                    i += 1
            """,
        )
        hits = _rule_hits(findings, "DF-UNBOUNDED-FANOUT")
        assert any("'work'" in f.message for f in hits), [
            f.format() for f in findings
        ]

    def test_wait_window_is_backpressure(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def work(x):
                return x

            def main():
                pending = []
                i = 0
                while i < 1000:
                    pending.append(work.remote(i))
                    if len(pending) >= 8:
                        _ready, pending = repro.wait(pending, num_returns=1)
                    i += 1
                repro.get(pending)
            """,
        )
        assert not _rule_hits(findings, "DF-UNBOUNDED-FANOUT")

    def test_bounded_for_loop_is_exempt(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            def work(x):
                return x

            def main(items):
                refs = []
                for x in items:
                    refs.append(work.remote(x))
                return repro.get(refs)
            """,
        )
        assert not _rule_hits(findings, "DF-UNBOUNDED-FANOUT")


# ---------------------------------------------------------------------------
# DF-ACTOR-CREATE-IN-LOOP
# ---------------------------------------------------------------------------


class TestDFActorCreateInLoop:
    def test_leaked_per_iteration_actor_fires(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            class Worker:
                def ping(self):
                    return 1

            def main(n):
                out = []
                for _ in range(n):
                    w = Worker.remote()
                    ref = w.ping.remote()
                    out.append(repro.get(ref))
                return out
            """,
        )
        hits = _rule_hits(findings, "DF-ACTOR-CREATE-IN-LOOP")
        assert hits and hits[0].severity == "error", [
            f.format() for f in findings
        ]

    def test_comprehension_pool_is_exempt(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            class Worker:
                def ping(self):
                    return 1

            def main(n):
                pool = [Worker.remote() for _ in range(n)]
                return repro.get([w.ping.remote() for w in pool])
            """,
        )
        assert not _rule_hits(findings, "DF-ACTOR-CREATE-IN-LOOP")

    def test_killed_actor_is_exempt(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            class Worker:
                def ping(self):
                    return 1

            def main(n):
                out = []
                for _ in range(n):
                    w = Worker.remote()
                    ref = w.ping.remote()
                    out.append(repro.get(ref))
                    repro.kill(w)
                return out
            """,
        )
        assert not _rule_hits(findings, "DF-ACTOR-CREATE-IN-LOOP")

    def test_retained_in_pool_is_exempt(self, tmp_path):
        findings = _scan(
            tmp_path,
            """
            import repro

            @repro.remote
            class Worker:
                def ping(self):
                    return 1

            def main(n):
                pool = []
                for _ in range(n):
                    pool.append(Worker.remote())
                return pool
            """,
        )
        assert not _rule_hits(findings, "DF-ACTOR-CREATE-IN-LOOP")


# ---------------------------------------------------------------------------
# Engine extensions: rule globs, SARIF, parallel parse
# ---------------------------------------------------------------------------


_DF_BAD_SOURCE = textwrap.dedent(
    """
    import repro

    @repro.remote
    def work(x):
        return x

    def main(items):
        out = []
        for x in items:
            ref = work.remote(x)
            out.append(repro.get(ref))
        return out
    """
)


class TestEngineExtensions:
    def test_cli_rule_glob_selects_family(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(_DF_BAD_SOURCE)
        rc = analyze_cli.main(
            [str(tmp_path), "--strict", "--no-baseline", "--rules", "DF-*"]
        )
        assert rc == 1
        assert "DF-GET-IN-LOOP" in capsys.readouterr().out

    def test_cli_rule_glob_excludes_other_family(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(_BAD_SOURCE)  # RT-THREAD-LEAK only
        rc = analyze_cli.main(
            [str(tmp_path), "--strict", "--no-baseline", "--rules", "DF-*"]
        )
        assert rc == 0

    def test_cli_unknown_glob_is_usage_error(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        with pytest.raises(SystemExit) as exc:
            analyze_cli.main([str(tmp_path), "--rules", "ZZ-*"])
        assert exc.value.code == 2

    def test_sarif_output_schema(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(_DF_BAD_SOURCE)
        sarif_path = tmp_path / "out.sarif"
        rc = analyze_cli.main(
            [str(tmp_path), "--no-baseline", "--sarif", str(sarif_path)]
        )
        assert rc == 0
        payload = json.loads(sarif_path.read_text())
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-analyze"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "DF-GET-IN-LOOP" in rule_ids
        result = next(
            r for r in run["results"] if r["ruleId"] == "DF-GET-IN-LOOP"
        )
        assert result["level"] == "warning"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("mod.py")
        assert location["region"]["startLine"] > 0
        assert "reproAnalyzeFingerprint/v1" in result["partialFingerprints"]
        assert result["fixes"][0]["description"]["text"]

    def test_sarif_marks_baselined_as_suppressed(self, tmp_path):
        (tmp_path / "mod.py").write_text(_DF_BAD_SOURCE)
        report = analyze([tmp_path])
        baseline_path = tmp_path / "baseline.json"
        Baseline.save(baseline_path, report.findings, justification="test")
        again = analyze([tmp_path], baseline=Baseline.load(baseline_path))
        payload = sarif_payload(again)
        suppressed = [
            r
            for r in payload["runs"][0]["results"]
            if any(s["kind"] == "external" for s in r.get("suppressions", []))
        ]
        assert suppressed

    def test_parallel_parse_matches_serial(self, tmp_path):
        (tmp_path / "a.py").write_text(_DF_BAD_SOURCE)
        (tmp_path / "b.py").write_text(_BAD_SOURCE)
        (tmp_path / "c.py").write_text("x = 1\n")
        serial = analyze([tmp_path], jobs=1)
        threaded = analyze([tmp_path], jobs=4)
        assert sorted(f.fingerprint() for f in serial.findings) == sorted(
            f.fingerprint() for f in threaded.findings
        )

    def test_fail_stale_gates_stale_entries(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(_DF_BAD_SOURCE)
        report = analyze([tmp_path])
        baseline_path = tmp_path / "baseline.json"
        Baseline.save(baseline_path, report.findings, justification="test")
        (tmp_path / "mod.py").write_text("x = 1\n")  # findings are gone
        args = [str(tmp_path), "--strict", "--baseline", str(baseline_path)]
        assert analyze_cli.main(args) == 0
        capsys.readouterr()
        assert analyze_cli.main(args + ["--fail-stale"]) == 1


class TestRepoIsClean:
    def test_strict_scan_of_the_repo_passes(self):
        """The acceptance gate: the shipped tree has no unbaselined
        findings, and the baseline carries at most 10 justified entries."""
        baseline = Baseline.load(analyze_cli.default_baseline_path())
        assert len(baseline.entries) <= 10
        for entry in baseline.entries:
            assert entry.get("justification"), entry
        report = analyze(
            analyze_cli.default_scan_paths(),
            baseline=baseline,
            base=analyze_cli.default_scan_base(),
        )
        assert not report.new, [f.format() for f in report.new]
        assert not report.stale_baseline
