"""Lineage GC (Section 7 limitation) and read-only methods (Section 5.1
future work) — the paper's stated extensions, implemented."""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

import repro
from repro.common.errors import ObjectLostError
from repro.core.gc import LineageGarbageCollector, free_objects


@repro.remote
def step(x):
    return x + 1


@repro.remote(num_returns=2)
def pair(x):
    return x, x + 1


@repro.remote
def nbytes(array):
    return array.nbytes


def assert_lost_at_once(ref):
    """A ``get`` of ``ref`` raises ``ObjectLostError`` well before its
    timeout: nothing is left that could produce the object."""
    began = time.monotonic()
    with pytest.raises(ObjectLostError):
        repro.get(ref, timeout=2)
    assert time.monotonic() - began < 0.5


@repro.remote
class Vault:
    def __init__(self):
        self.value = 0
        self.peeks = 0

    def set(self, v):
        self.value = v
        return self.value

    @repro.method(read_only=True)
    def peek(self):
        # NOTE: mutating self.peeks here would be a bug in *user* code —
        # read_only is a promise to the system.
        return self.value


class TestFree:
    def test_free_drops_all_copies(self, runtime):
        ref = repro.put(b"x" * 1000)
        dropped = repro.free(ref)
        assert dropped >= 1
        assert not runtime.transfer.live_locations(ref.object_id)

    def test_freed_task_output_is_reconstructible(self, runtime):
        """free without delete_lineage: the object can come back."""
        ref = step.remote(1)
        assert repro.get(ref, timeout=10) == 2
        repro.free(ref)
        assert repro.get(ref, timeout=20) == 2  # lineage replay

    def test_free_with_lineage_is_permanent(self, runtime):
        ref = step.remote(1)
        repro.get(ref, timeout=10)
        repro.free(ref, delete_lineage=True)
        assert_lost_at_once(ref)
        assert not runtime.gcs.has_location_hint(ref.object_id)
        assert runtime.graph.num_tasks() == runtime.gcs.num_tasks()

    @pytest.mark.parametrize("lineage_first", [True, False])
    def test_free_with_lineage_takes_the_sibling_returns_lineage(
        self, runtime, lineage_first
    ):
        """The producer's other returns lose their lineage with its row:
        readable while a copy lives, lost at once when freed, in either
        order."""
        a, b = pair.remote(3)
        assert repro.get([a, b], timeout=10) == [3, 4]
        if lineage_first:
            repro.free([a], delete_lineage=True)
            assert repro.get(b, timeout=10) == 4  # its copy still lives
            repro.free([b])
        else:
            repro.free([b])
            repro.free([a], delete_lineage=True)
        assert_lost_at_once(a)
        assert_lost_at_once(b)

    def test_free_with_lineage_releases_the_spec_and_its_arguments(
        self, runtime
    ):
        """The GCS is lineage's only home: once the row is deleted, nothing
        in the process pins the spec or a by-value argument."""
        array = np.ones(1 << 17)  # 1 MiB
        alive = weakref.ref(array)
        ref = nbytes.remote(array)
        del array
        assert repro.get(ref, timeout=10) == 1 << 20
        repro.free(ref, delete_lineage=True)
        gc.collect()
        assert alive() is None
        # Every task has finished: no producer is in flight.
        assert runtime.gcs._in_flight == {}

    def test_free_list(self, runtime):
        refs = [repro.put(i) for i in range(3)]
        assert repro.free(refs) == 3

    def test_output_freed_before_its_finish_lands_has_no_location(
        self, runtime, monkeypatch
    ):
        """A reader can get an output from the store and free it before the
        finish batch that publishes its location lands: the retraction then
        precedes the add, and the drain must retract again."""
        finish_tasks = runtime.gcs.finish_tasks
        task_finished = runtime.reconstruction.task_finished
        freed, done = [], threading.Event()

        def free_first(finishes, *args, **kwargs):
            for finish in finishes:
                freed.extend(entry[0] for entry in finish.entries)
            free_objects(runtime, freed)
            finish_tasks(finishes, *args, **kwargs)

        def finished(task_id):
            task_finished(task_id)
            done.set()

        monkeypatch.setattr(runtime.gcs, "finish_tasks", free_first)
        monkeypatch.setattr(runtime.reconstruction, "task_finished", finished)
        step.remote(1)
        assert done.wait(10)
        assert len(freed) == 1
        assert runtime.gcs.get_object_locations(freed[0]) == set()

    def test_copy_freed_before_its_transfer_publishes_has_no_location(
        self, runtime, monkeypatch
    ):
        ref = repro.put(b"x" * 1000)
        dst = [n for n in runtime.nodes() if n is not runtime.driver_node][0]
        add_object_location = runtime.gcs.add_object_location

        def free_first(object_id, node_id):
            free_objects(runtime, [object_id])
            add_object_location(object_id, node_id)

        monkeypatch.setattr(runtime.gcs, "add_object_location", free_first)
        assert runtime.transfer.transfer(ref.object_id, dst)
        assert runtime.gcs.get_object_locations(ref.object_id) == set()


class TestLineageGC:
    def test_collect_keeps_live_closure(self, runtime):
        # Build two chains; keep a reference only to the first one's head.
        live = step.remote(0)
        for _ in range(4):
            live = step.remote(live)
        dead = step.remote(100)
        for _ in range(4):
            dead = step.remote(dead)
        assert repro.get(live, timeout=10) == 5
        assert repro.get(dead, timeout=10) == 105

        collector = LineageGarbageCollector(runtime)
        before = runtime.gcs.num_tasks()
        removed = collector.collect([live.object_id])
        assert removed >= 5  # the dead chain went away
        assert runtime.gcs.num_tasks() == before - removed

        # The live chain is still fully reconstructible after loss.
        repro.free(live)
        assert repro.get(live, timeout=20) == 5

    def test_collected_lineage_is_gone(self, runtime):
        ref = step.remote(7)
        assert repro.get(ref, timeout=10) == 8
        LineageGarbageCollector(runtime).collect([])  # nothing is live
        repro.free(ref)
        assert_lost_at_once(ref)
        assert not runtime.gcs.has_location_hint(ref.object_id)
        assert runtime.graph.num_tasks() == runtime.gcs.num_tasks()

    def test_inflight_tasks_never_collected(self, runtime):
        import time

        @repro.remote
        def slow():
            time.sleep(0.3)
            return 1

        ref = slow.remote()
        removed = LineageGarbageCollector(runtime).collect([])
        # The running task must survive collection.
        assert repro.get(ref, timeout=10) == 1
        del removed

    def test_actor_chains_are_retained(self, runtime):
        vault = Vault.remote()
        repro.get(vault.set.remote(3), timeout=10)
        LineageGarbageCollector(runtime).collect([])
        # Actor survives and its chain still replays after a crash.
        repro.kill(vault, restart=True)
        assert repro.get(vault.peek.remote(), timeout=20) == 3


class TestReadOnlyMethods:
    def test_read_only_methods_not_replayed(self, runtime):
        """Replay skips read-only methods whose outputs still exist."""
        vault = Vault.remote()
        repro.get(vault.set.remote(42), timeout=10)
        peeks = [vault.peek.remote() for _ in range(10)]
        assert repro.get(peeks, timeout=10) == [42] * 10
        repro.kill(vault, restart=True)
        # State is correct after replay...
        assert repro.get(vault.peek.remote(), timeout=20) == 42
        # ...but only the mutating method (set) was re-executed.
        assert runtime.actors.replayed_methods <= 2

    def test_mutating_methods_always_replayed(self, runtime):
        @repro.remote
        class Acc:
            def __init__(self):
                self.v = 0

            def add(self):
                self.v += 1
                return self.v

        acc = Acc.remote()
        repro.get([acc.add.remote() for _ in range(6)], timeout=10)
        repro.kill(acc, restart=True)
        assert repro.get(acc.add.remote(), timeout=20) == 7
        assert runtime.actors.replayed_methods >= 6

    def test_read_only_output_lost_is_recomputed(self, runtime):
        """If a read-only result was evicted, replay re-executes it (safe:
        it does not mutate state)."""
        vault = Vault.remote()
        repro.get(vault.set.remote(9), timeout=10)
        peek = vault.peek.remote()
        assert repro.get(peek, timeout=10) == 9
        repro.free(peek)  # lose the output
        repro.kill(vault, restart=True)
        assert repro.get(vault.peek.remote(), timeout=20) == 9
        # The lost peek is retrievable again via replay.
        assert repro.get(peek, timeout=20) == 9

    def test_decorator_preserves_function(self, runtime):
        assert getattr(Vault.__init__, "__repro_read_only__", False) is False
        # The decorator marks the underlying function on the user class.
        inner = runtime  # noqa: F841 - fixture keeps the cluster alive
        assert Vault._cls.peek.__repro_read_only__ is True
        assert not getattr(Vault._cls.set, "__repro_read_only__", False)
