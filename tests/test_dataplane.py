"""Zero-copy data plane: deserialized-value cache, parallel prefetch,
multi-replica striping, batched GCS object writes, node-table locking."""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro
from repro.common.ids import NodeID, ObjectID, TaskID
from repro.common.metrics import MetricsRegistry
from repro.core import object_store as object_store_module
from repro.core.object_store import DeserializedValueCache, LocalObjectStore
from repro.core.task_spec import ArgRef, TaskSpec
from repro.core.transfer import TransferService, striped_copy, striped_copy_multi
from repro.core.worker import resolve_args
from repro.common.serialization import SerializedObject, deserialize, serialize
from repro.gcs.client import GlobalControlStore
from repro.gcs.tables import TaskStatus


def make_store(**kwargs) -> LocalObjectStore:
    kwargs.setdefault("metrics", MetricsRegistry())
    return LocalObjectStore(NodeID.from_seed("dataplane"), **kwargs)


def put_value(store: LocalObjectStore, name: str, value) -> ObjectID:
    object_id = ObjectID.from_seed(name)
    store.put(object_id, serialize(value))
    return object_id


class TestDeserializedValueCache:
    def test_second_read_is_a_cache_hit_returning_same_object(self):
        store = make_store()
        oid = put_value(store, "a", {"weights": np.arange(1000.0)})
        first, found = store.load_value(oid)
        assert found
        second, found = store.load_value(oid)
        assert found
        assert second is first  # cached value, not a re-deserialization
        assert store.value_cache.stats()["hits"] >= 1

    def test_missing_object_reports_not_found(self):
        store = make_store()
        value, found = store.load_value(ObjectID.from_seed("ghost"))
        assert not found and value is None

    def test_delete_and_reput_never_serves_stale_value(self):
        store = make_store()
        oid = put_value(store, "a", "old")
        assert store.load_value(oid) == ("old", True)
        store.delete(oid)
        store.put(oid, serialize("new"))
        assert store.load_value(oid) == ("new", True)

    def test_eviction_invalidates_cached_value(self):
        blob = np.zeros(10_000, dtype=np.uint8)
        size = serialize(blob).total_bytes
        store = make_store(capacity_bytes=int(size * 1.5))
        oid = put_value(store, "a", blob)
        store.load_value(oid)
        assert len(store.value_cache) == 1
        put_value(store, "b", blob)  # forces LRU eviction of "a"
        assert not store.contains(oid)
        assert len(store.value_cache) == 0
        assert store.value_cache.stats()["invalidations"] >= 1
        _value, found = store.load_value(oid)
        assert not found  # no spill directory: the copy is simply gone

    def test_spill_invalidates_cache_and_restore_reloads(self, tmp_path):
        blob = np.arange(10_000, dtype=np.float64)
        size = serialize(blob).total_bytes
        store = make_store(
            capacity_bytes=int(size * 1.5), spill_directory=str(tmp_path)
        )
        oid = put_value(store, "a", blob)
        store.load_value(oid)
        put_value(store, "b", np.zeros_like(blob))  # "a" spills to disk
        assert store.is_spilled(oid)
        assert len(store.value_cache) == 0  # cached value must not pin memory
        restored, found = store.load_value(oid)
        assert found
        np.testing.assert_array_equal(restored, blob)

    def test_drop_all_clears_cache(self):
        store = make_store()
        oid = put_value(store, "a", [1, 2, 3])
        store.load_value(oid)
        store.drop_all()
        assert len(store.value_cache) == 0
        assert store.load_value(oid) == (None, False)

    def test_cache_bytes_bounded_and_lru_evicted_independently(self):
        # The serialized store is unbounded here; only the value cache has
        # a capacity, so its eviction is provably independent.
        blob = bytes(1000)
        size = serialize(blob).total_bytes
        store = make_store(value_cache_capacity_bytes=int(size * 2.5))
        oids = [put_value(store, f"o{i}", blob) for i in range(4)]
        for oid in oids:
            store.load_value(oid)
        cache = store.value_cache
        assert len(cache) == 2  # capacity fits two entries
        assert cache.used_bytes <= int(size * 2.5)
        assert cache.stats()["evictions"] >= 2
        assert store.num_objects() == 4  # serialized store untouched
        # LRU order: the two most recently read survive.
        assert cache.get(oids[-1])[1] and cache.get(oids[-2])[1]
        assert not cache.get(oids[0])[1]

    def test_oversized_value_is_never_admitted(self):
        cache = DeserializedValueCache(capacity_bytes=10)
        cache.put(ObjectID.from_seed("big"), "x" * 100, 1000)
        assert len(cache) == 0

    def test_racing_readers_never_observe_stale_value_after_reput(self):
        """Readers hammering load_value while an ObjectID is repeatedly
        deleted and re-created with different content (the reconstruction-
        with-different-lineage-state analogue) must never let the writer
        observe an older value through the cache."""
        store = make_store()
        oid = ObjectID.from_seed("contended")
        store.put(oid, serialize(0))
        stop = threading.Event()
        reader_errors: list = []
        writer_errors: list = []

        def reader():
            while not stop.is_set():
                try:
                    store.load_value(oid)
                except Exception as exc:  # noqa: BLE001
                    reader_errors.append(exc)
                    return

        def writer():
            try:
                for generation in range(1, 200):
                    store.delete(oid)
                    store.put(oid, serialize(generation))
                    value, found = store.load_value(oid)
                    # The just-written generation is the only acceptable
                    # answer: a stale cache entry would surface here.
                    if not found or value != generation:
                        writer_errors.append((generation, value, found))
                        return
            finally:
                stop.set()

        readers = [threading.Thread(target=reader) for _ in range(4)]
        writer_thread = threading.Thread(target=writer)
        for t in readers:
            t.start()
        writer_thread.start()
        writer_thread.join(timeout=30)
        stop.set()
        for t in readers:
            t.join(timeout=10)
        assert not writer_errors, f"stale reads observed: {writer_errors[:3]}"
        assert not reader_errors


class TestResolveArgsMemo:
    def test_duplicate_arg_refs_deserialize_once(self, runtime, monkeypatch):
        node = runtime.driver_node
        oid = repro.put([1, 2, 3]).object_id
        calls = []
        real = object_store_module.deserialize
        monkeypatch.setattr(
            object_store_module,
            "deserialize",
            lambda s: calls.append(1) or real(s),
        )
        # A cache that admits nothing: the memo alone carries the dedup.
        node.store.value_cache = DeserializedValueCache(capacity_bytes=0)
        spec = TaskSpec(
            task_id=TaskID.from_seed("memo"),
            function_id=None,
            function_name="f",
            args=(ArgRef(oid), ArgRef(oid)),
            kwargs=(("again", ArgRef(oid)),),
            num_returns=1,
        )
        args, kwargs, error = resolve_args(node, spec)
        assert error is None
        assert args[0] == [1, 2, 3] and args[1] is args[0]
        assert kwargs["again"] is args[0]
        assert len(calls) == 1


class TestParallelPrefetch:
    def test_prefetch_replicates_all_inputs(self, runtime):
        refs = [repro.put(np.full(2000, i)) for i in range(8)]
        ids = [r.object_id for r in refs]
        remote = [n for n in runtime.nodes() if n is not runtime.driver_node][0]
        issued = runtime.fetcher.prefetch(ids, remote)
        assert issued == 8
        for oid in ids:
            assert remote.store.availability_event(oid).wait(timeout=10)
        counter = runtime.metrics.counter(
            "prefetch_requests_total", "Missing inputs whose fetch was started"
        )
        assert counter.value >= 8

    def test_prefetch_skips_local_objects(self, runtime):
        ref = repro.put("here")
        assert runtime.fetcher.prefetch([ref.object_id], runtime.driver_node) == 0

    def test_many_input_task_executes(self, runtime):
        refs = [repro.put(i) for i in range(16)]

        @repro.remote
        def total(*values):
            return sum(values)

        assert repro.get(total.remote(*refs), timeout=30) == sum(range(16))


class TestMultiReplicaStriping:
    def test_multi_source_copy_matches_value(self):
        value = serialize(np.arange(100_000)).seal()
        replica = value.copy()
        result = striped_copy_multi([value, replica], chunk_bytes=4096)
        np.testing.assert_array_equal(deserialize(result), np.arange(100_000))
        assert result.owned

    def test_chunks_alternate_between_sources(self):
        a = SerializedObject(b"p", [b"\xaa" * 8], owned=True)
        b = SerializedObject(b"p", [b"\xbb" * 8], owned=True)
        striped = striped_copy_multi([a, b], chunk_bytes=2)
        assert bytes(striped.buffers[0]) == b"\xaa\xaa\xbb\xbb" * 2

    def test_striped_copy_output_is_readonly(self):
        copy = striped_copy(serialize(np.ones(1000)).seal(), chunk_bytes=512)
        view = copy.buffers[0]
        assert isinstance(view, memoryview) and view.readonly

    def test_transfer_stripes_from_multiple_live_replicas(self):
        runtime = repro.init(num_nodes=3, num_cpus_per_node=2)
        try:
            runtime.transfer.chunk_bytes = 1024  # several stripes per buffer
            payload = np.arange(20_000, dtype=np.float64)
            ref = repro.put(payload)
            first, second = [
                n for n in runtime.nodes() if n is not runtime.driver_node
            ]
            assert runtime.transfer.transfer(ref.object_id, first)
            multi = runtime.metrics.counter(
                "transfer_multi_source_total",
                "Replications striped across more than one live replica",
            )
            before = multi.value
            assert runtime.transfer.transfer(ref.object_id, second)
            assert multi.value == before + 1
            value, found = second.store.load_value(ref.object_id)
            assert found
            np.testing.assert_array_equal(value, payload)
        finally:
            repro.shutdown()


class TestBatchedGcsWrites:
    def _entries(self, count, node_id, task_id):
        return [
            (ObjectID.from_seed(f"out-{count}-{i}"), 100 + i, task_id, node_id)
            for i in range(count)
        ]

    def test_batched_outputs_visible_with_location_and_metadata(self):
        gcs = GlobalControlStore(num_shards=4)
        node_id = NodeID.from_seed("n")
        task_id = TaskID.from_seed("t")
        entries = self._entries(3, node_id, task_id)
        gcs.add_task_outputs(entries)
        for object_id, size, tid, nid in entries:
            assert gcs.get_object_locations(object_id) == {node_id}
            entry = gcs.get_object_entry(object_id)
            assert entry.size == size and entry.task_id == task_id

    def test_batched_and_unbatched_paths_agree(self):
        batched = GlobalControlStore(num_shards=2)
        unbatched = GlobalControlStore(num_shards=2)
        node_id = NodeID.from_seed("n")
        task_id = TaskID.from_seed("t")
        entries = self._entries(4, node_id, task_id)
        batched.add_task_outputs(entries, batched=True)
        unbatched.add_task_outputs(entries, batched=False)
        for object_id, _size, _tid, _nid in entries:
            assert batched.get_object_locations(
                object_id
            ) == unbatched.get_object_locations(object_id)
            assert batched.get_object_entry(object_id) == unbatched.get_object_entry(
                object_id
            )

    def test_failed_store_put_publishes_no_location(self):
        gcs = GlobalControlStore(num_shards=1)
        object_id = ObjectID.from_seed("unstored")
        gcs.add_task_outputs([(object_id, 64, TaskID.from_seed("t"), None)])
        assert gcs.get_object_locations(object_id) == set()
        assert gcs.get_object_entry(object_id).size == 64

    def test_batch_publishes_to_subscribers(self):
        gcs = GlobalControlStore(num_shards=2)
        object_id = ObjectID.from_seed("watched")
        seen = []
        gcs.subscribe_object_locations(
            object_id, lambda op, node: seen.append((op, node))
        )
        node_id = NodeID.from_seed("n")
        gcs.add_task_outputs([(object_id, 10, None, node_id)])
        assert seen == [("add", node_id)]

    def test_batch_survives_chain_member_failure(self):
        gcs = GlobalControlStore(num_shards=1, num_replicas=3)
        gcs.kv.shards[0].kill_member(0)
        node_id = NodeID.from_seed("n")
        entries = self._entries(3, node_id, TaskID.from_seed("t"))
        gcs.add_task_outputs(entries)
        for object_id, _size, _tid, _nid in entries:
            assert gcs.get_object_locations(object_id) == {node_id}

    def _finish(self, gcs, batched):
        node_id = NodeID.from_seed("n")
        task_id = TaskID.from_seed("finish")
        entries = self._entries(2, node_id, task_id)
        gcs.finish_task(
            task_id,
            TaskStatus.FINISHED,
            node_id,
            entries,
            events=[("task_finished", dict(task="finish", duration=0.5))],
            batched=batched,
            spec="spec-sentinel",
        )
        return node_id, task_id, entries

    @pytest.mark.parametrize("batched", [True, False])
    def test_finish_task_coalesces_outputs_status_and_event(self, batched):
        gcs = GlobalControlStore(num_shards=4)
        node_id, task_id, entries = self._finish(gcs, batched)
        for object_id, size, tid, _nid in entries:
            assert gcs.get_object_locations(object_id) == {node_id}
            assert gcs.get_object_entry(object_id).size == size
        task_entry = gcs.get_task(task_id)
        assert task_entry.status == TaskStatus.FINISHED
        assert task_entry.node_id == node_id
        assert task_entry.spec == "spec-sentinel"
        events = gcs.events("task_finished")
        assert len(events) == 1 and events[0].as_dict()["duration"] == 0.5


class TestNodeTableLocking:
    def test_concurrent_registration_and_lookup(self):
        gcs = GlobalControlStore(num_shards=1)
        service = TransferService(gcs)
        object_id = ObjectID.from_seed("hot")

        class FakeNode:
            def __init__(self, index):
                self.node_id = NodeID.from_seed(f"node-{index}")
                self.alive = True

        errors: list = []

        def registrar():
            try:
                for i in range(500):
                    node = FakeNode(i)
                    service.register_node(node)
                    gcs.add_object_location(object_id, node.node_id)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def reader():
            try:
                for _ in range(500):
                    service.live_locations(object_id)
                    service.node(NodeID.from_seed("node-0"))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=registrar)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        service.close()
        assert not errors
        assert len(service.live_locations(object_id)) == 500


class TestSpillWithMemoryviewBuffers:
    def test_striped_copy_spills_and_restores(self, tmp_path):
        """Transfer-striped objects carry memoryview buffers, which pickle
        rejects; the spill path must materialize them."""
        payload = np.arange(30_000, dtype=np.float64)
        striped = striped_copy(serialize(payload).seal(), chunk_bytes=4096)
        assert any(isinstance(b, memoryview) for b in striped.buffers)
        size = striped.total_bytes
        store = make_store(
            capacity_bytes=int(size * 1.5), spill_directory=str(tmp_path)
        )
        oid = ObjectID.from_seed("striped")
        store.put(oid, striped)
        put_value(store, "pressure", np.zeros_like(payload))  # spills "striped"
        assert store.is_spilled(oid)
        restored = store.get(oid)
        assert restored is not None
        np.testing.assert_array_equal(deserialize(restored), payload)

    def test_unsealed_put_then_spill_round_trip(self, tmp_path):
        payload = np.arange(20_000, dtype=np.int64)
        serialized = serialize(payload)  # unowned memoryviews; put seals
        size = serialized.total_bytes
        store = make_store(
            capacity_bytes=int(size * 1.5), spill_directory=str(tmp_path)
        )
        oid = ObjectID.from_seed("sealed")
        store.put(oid, serialized)
        put_value(store, "pressure", np.zeros_like(payload))
        value, found = store.load_value(oid)
        assert found
        np.testing.assert_array_equal(value, payload)


class TestPutSealing:
    def test_resident_object_does_not_alias_producer_memory(self):
        store = make_store()
        array = np.ones(1000, dtype=np.float64)
        oid = ObjectID.from_seed("sealed-at-put")
        store.put(oid, serialize(array))
        array[:] = -1.0  # producer mutates after the put
        value, found = store.load_value(oid)
        assert found
        np.testing.assert_array_equal(value, np.ones(1000))

    def test_owned_objects_are_not_copied_again(self):
        store = make_store()
        sealed = serialize(np.ones(100)).seal()
        oid = ObjectID.from_seed("owned")
        store.put(oid, sealed)
        assert store.get(oid) is sealed
