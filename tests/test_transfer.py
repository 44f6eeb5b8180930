"""Object transfer between node stores and the fetch-or-reconstruct path."""

import threading

import numpy as np

import repro
from repro.common.ids import ObjectID
from repro.common.serialization import deserialize, serialize
from repro.core.transfer import TRANSFER_THREADS, striped_copy


def _far_node(runtime):
    return [n for n in runtime.nodes() if n is not runtime.driver_node][0]


def _hold_transfer_threads(runtime):
    """Park every transfer thread on a barrier once the work queued so far
    has run; ``wait`` on the returned barrier joins and releases them."""
    held = threading.Barrier(TRANSFER_THREADS + 1)
    for _ in range(TRANSFER_THREADS):
        runtime.transfer.enqueue(lambda: held.wait(10))
    return held


class HeldPublication:
    """Holds the first ``ShardedKV.batch`` that publishes a location of
    ``object_id`` until ``release`` is set; ``entered`` is set once it
    holds.  Meanwhile the publication is in flight in the client."""

    def __init__(self, kv, object_id):
        self.entered = threading.Event()
        self.release = threading.Event()
        self._key = ("object_loc", object_id)
        self._batch = kv.batch
        kv.batch = self.batch

    def batch(self, ops):
        if not self.entered.is_set() and any(
            op == "append" and key == self._key for op, key, _ in ops
        ):
            self.entered.set()
            assert self.release.wait(10)
        return self._batch(ops)


class TestStripedCopy:
    def test_copy_preserves_content(self):
        value = serialize(np.arange(100_000))
        copy = striped_copy(value, chunk_bytes=4096)
        np.testing.assert_array_equal(deserialize(copy), np.arange(100_000))

    def test_copy_is_independent(self):
        value = serialize(b"payload" * 1000)
        copy = striped_copy(value)
        assert copy.buffers is not value.buffers
        assert copy.total_bytes == value.total_bytes

    def test_small_chunk_sizes(self):
        value = serialize(bytes(range(256)))
        for chunk in (1, 3, 64, 10_000):
            assert deserialize(striped_copy(value, chunk_bytes=chunk)) == bytes(
                range(256)
            )


class TestTransferService:
    def test_transfer_replicates_and_registers_location(self, runtime):
        ref = repro.put(np.ones(1000))  # lands on the driver node
        src = runtime.driver_node
        dst = [n for n in runtime.nodes() if n is not src][0]
        assert not dst.store.contains(ref.object_id)
        assert runtime.transfer.transfer(ref.object_id, dst)
        assert dst.store.contains(ref.object_id)
        assert dst.node_id in runtime.gcs.get_object_locations(ref.object_id)
        assert runtime.transfer.transfer_count == 1
        assert runtime.transfer.bytes_transferred > 0

    def test_transfer_to_holder_is_noop(self, runtime):
        ref = repro.put(1)
        src = runtime.driver_node
        count = runtime.transfer.transfer_count
        assert runtime.transfer.transfer(ref.object_id, src)
        assert runtime.transfer.transfer_count == count

    def test_transfer_with_no_copy_returns_false(self, runtime):
        dst = runtime.nodes()[1]
        assert not runtime.transfer.transfer(ObjectID.from_seed("ghost"), dst)

    def test_live_locations_excludes_dead_nodes(self, runtime):
        ref = repro.put(2)
        src = runtime.driver_node
        dst = [n for n in runtime.nodes() if n is not src][0]
        runtime.transfer.transfer(ref.object_id, dst)
        assert len(runtime.transfer.live_locations(ref.object_id)) == 2
        runtime.kill_node(dst.node_id)
        assert runtime.transfer.live_locations(ref.object_id) == {src.node_id}


class TestFetcher:
    def test_ensure_local_is_idempotent(self, runtime):
        ref = repro.put(np.zeros(10))
        dst = _far_node(runtime)
        runtime.fetcher.ensure_local(ref.object_id, dst)
        runtime.fetcher.ensure_local(ref.object_id, dst)
        assert dst.store.availability_event(ref.object_id).wait(timeout=10)
        assert runtime.transfer.transfer_count == 1

    def test_fetch_waits_for_future_creation(self, runtime):
        """Fetching an object that does not exist yet subscribes and
        completes when the producer publishes it (Figure 7b)."""
        import time

        @repro.remote
        def produce():
            time.sleep(0.1)
            return "late"

        ref = produce.remote()
        value = repro.get(ref, timeout=10)
        assert value == "late"

    def test_delivered_fetch_ignores_a_later_free(self, runtime):
        """Once a fetch's object has landed, its subscription's late
        callbacks must not act on a later ``free``: replaying the task
        would resurrect an object the application dropped."""
        node = runtime.driver_node
        gate = threading.Event()

        @repro.remote
        def gated(x):
            assert gate.wait(10)
            return x

        ref = gated.remote(7)
        runtime.fetcher.ensure_local(ref.object_id, node)  # still in production
        busy = _hold_transfer_threads(runtime)
        gate.set()
        assert repro.get(ref, timeout=10) == 7  # its "add" callback waits
        repro.free([ref])  # and so does the "remove" callback
        busy.wait(10)  # release them, then wait until both have run
        _hold_transfer_threads(runtime).wait(10)
        assert runtime.reconstruction.reconstructed_tasks == 0

    def test_fetch_racing_the_finish_batch_makes_no_reconstruction_probe(
        self, runtime, monkeypatch
    ):
        """A fetch that starts while the producer's finish batch is in
        flight reads no location (the ``add`` has not landed), but the
        object is being published, not lost: no probe of the object row and
        no reconstruction call.  The subscription delivers the copy."""
        src, dst = runtime.driver_node, _far_node(runtime)
        gate = threading.Event()

        @repro.remote
        def gated(x):
            assert gate.wait(10)
            return x

        ref = gated.remote(7)
        held = HeldPublication(runtime.gcs.kv, ref.object_id)
        gate.set()
        assert held.entered.wait(10)  # outputs stored, finish batch held
        assert src.store.contains(ref.object_id)
        reads, probes = [], []
        get = runtime.gcs.kv.get

        def counted_get(key, *default):
            reads.append(key[0])
            return get(key, *default)

        monkeypatch.setattr(runtime.gcs.kv, "get", counted_get)
        monkeypatch.setattr(runtime.fetcher, "reconstruct", probes.append)
        attempted = threading.Event()
        transfer = runtime.transfer.transfer
        monkeypatch.setattr(
            runtime.transfer,
            "transfer",
            lambda oid, node: transfer(oid, node) or attempted.set(),
        )
        runtime.fetcher.ensure_local(ref.object_id, dst)
        assert attempted.wait(10)  # the first attempt found no location
        _hold_transfer_threads(runtime).wait(10)  # and has returned
        assert "object" not in reads and probes == []
        assert not dst.store.contains(ref.object_id)
        held.release.set()
        assert dst.store.availability_event(ref.object_id).wait(timeout=10)
        assert repro.get(ref, timeout=10) == 7
        assert probes == []


class TestTransferThreads:
    """``gcs/kv.py``: "callbacks run on the publishing thread ...
    subscribers must be quick and must not block"."""

    def test_location_publishers_do_not_wait_for_the_copy(self, runtime, monkeypatch):
        src, dst = runtime.driver_node, _far_node(runtime)
        real = runtime.transfer.transfer
        entered, release = threading.Event(), threading.Event()

        def held_transfer(object_id, node):
            entered.set()
            return release.wait(30) and real(object_id, node)

        monkeypatch.setattr(runtime.transfer, "transfer", held_transfer)
        # In src's store but never published: the fetch subscribes, and its
        # queued first attempt is the one holding a transfer thread.
        object_id = ObjectID.from_seed("published-late")
        value = serialize(np.arange(1000))
        assert src.store.put(object_id, value)
        runtime.fetcher.ensure_local(object_id, dst)
        assert entered.wait(10)
        # Both publications run this fetch's callback; both return.
        runtime.gcs.add_object_location(object_id, src.node_id)
        runtime.gcs.add_task_outputs(
            [(object_id, value.total_bytes, None, src.node_id)]
        )
        assert not release.is_set() and not dst.store.contains(object_id)
        release.set()
        assert dst.store.availability_event(object_id).wait(timeout=10)
        np.testing.assert_array_equal(
            deserialize(dst.store.get(object_id)), np.arange(1000)
        )

    def test_raising_transfer_is_counted_and_leaves_the_fetch_armed(
        self, runtime, monkeypatch
    ):
        src, dst = runtime.driver_node, _far_node(runtime)
        real = runtime.transfer.transfer
        raised = threading.Event()
        errors = runtime.metrics.counter("prefetch_errors_total", "")

        def flaky_transfer(object_id, node):
            if not raised.is_set():
                raised.set()
                raise RuntimeError("injected transfer failure")
            return real(object_id, node)

        monkeypatch.setattr(runtime.transfer, "transfer", flaky_transfer)
        ref = repro.put(np.ones(100))
        runtime.fetcher.ensure_local(ref.object_id, dst)
        assert raised.wait(10)
        # The marker stays (a repeated ensure_local is still deduplicated)
        # and so does the subscription: the next publication retries.
        assert runtime.fetcher.inflight_count(dst.node_id) == 1
        runtime.gcs.add_object_location(ref.object_id, src.node_id)
        assert dst.store.availability_event(ref.object_id).wait(timeout=10)
        assert runtime.fetcher.inflight_count(dst.node_id) == 0
        repro.shutdown()  # quiescence: the transfer threads are joined
        assert errors.value == 1

    def test_fetch_queued_for_a_node_that_died_releases_its_marker(
        self, runtime, monkeypatch
    ):
        dst = _far_node(runtime)
        queued = []
        monkeypatch.setattr(runtime.transfer, "enqueue", queued.append)
        ref = repro.put(np.ones(100))
        runtime.fetcher.ensure_local(ref.object_id, dst)
        assert runtime.fetcher.inflight_count(dst.node_id) == 1
        # Only the flag: kill_node's own forget_node must not be what
        # clears the marker here.
        dst.alive = False
        (first_attempt,) = queued
        first_attempt()
        assert runtime.fetcher.inflight_count(dst.node_id) == 0
        assert runtime.transfer.transfer_count == 0
