"""Per-node object store: immutability, LRU eviction, pinning, events."""

import gc
import random
import sys
import threading

import pytest

from repro.common.errors import ObjectStoreFullError
from repro.common.ids import NodeID, ObjectID
from repro.common.serialization import serialize
from repro.core.object_store import LocalObjectStore


def make_store(capacity=None, on_evict=None):
    return LocalObjectStore(
        NodeID.from_seed("n"), capacity_bytes=capacity, on_evict=on_evict
    )


def oid(name):
    return ObjectID.from_seed(name)


def blob(n):
    return serialize(bytes(n))


class TestBasics:
    def test_put_get(self):
        store = make_store()
        value = serialize({"x": 1})
        assert store.put(oid("a"), value)
        assert store.get(oid("a")) is value

    def test_duplicate_put_is_noop(self):
        """Objects are immutable: replayed tasks re-put idempotently."""
        store = make_store()
        first = serialize(1)
        second = serialize(2)
        assert store.put(oid("a"), first)
        assert not store.put(oid("a"), second)
        assert store.get(oid("a")) is first

    def test_contains_and_delete(self):
        store = make_store()
        store.put(oid("a"), serialize(0))
        assert store.contains(oid("a"))
        assert store.delete(oid("a"))
        assert not store.contains(oid("a"))
        assert not store.delete(oid("a"))

    def test_used_bytes_tracks_sizes(self):
        store = make_store()
        value = blob(1000)
        store.put(oid("a"), value)
        assert store.used_bytes == value.total_bytes
        store.delete(oid("a"))
        assert store.used_bytes == 0

    def test_drop_all_returns_lost_ids(self):
        store = make_store()
        store.put(oid("a"), serialize(1))
        store.put(oid("b"), serialize(2))
        lost = store.drop_all()
        assert set(lost) == {oid("a"), oid("b")}
        assert store.num_objects() == 0
        assert store.used_bytes == 0


class TestEviction:
    def test_lru_evicts_oldest_first(self):
        evicted = []
        store = make_store(capacity=3500, on_evict=evicted.append)
        store.put(oid("a"), blob(1000))
        store.put(oid("b"), blob(1000))
        store.put(oid("c"), blob(1000))
        store.put(oid("d"), blob(1000))  # must evict "a"
        assert evicted == [oid("a")]
        assert not store.contains(oid("a"))
        assert store.contains(oid("d"))

    def test_get_refreshes_lru_position(self):
        store = make_store(capacity=3500)
        store.put(oid("a"), blob(1000))
        store.put(oid("b"), blob(1000))
        store.put(oid("c"), blob(1000))
        store.get(oid("a"))  # touch: now "b" is the LRU
        store.put(oid("d"), blob(1000))
        assert store.contains(oid("a"))
        assert not store.contains(oid("b"))

    def test_pinned_objects_survive_eviction(self):
        store = make_store(capacity=3500)
        store.put(oid("a"), blob(1000))
        store.pin(oid("a"))
        store.put(oid("b"), blob(1000))
        store.put(oid("c"), blob(1000))
        store.put(oid("d"), blob(1000))
        assert store.contains(oid("a"))
        assert not store.contains(oid("b"))

    def test_unpin_allows_eviction(self):
        store = make_store(capacity=2500)
        store.put(oid("a"), blob(1000))
        store.pin(oid("a"))
        store.unpin(oid("a"))
        store.put(oid("b"), blob(1000))
        store.put(oid("c"), blob(1000))
        assert not store.contains(oid("a"))

    def test_pin_counts_nest(self):
        store = make_store(capacity=2500)
        store.put(oid("a"), blob(1000))
        store.pin(oid("a"))
        store.pin(oid("a"))
        store.unpin(oid("a"))
        assert store.is_pinned(oid("a"))
        store.unpin(oid("a"))
        assert not store.is_pinned(oid("a"))

    def test_object_larger_than_capacity_rejected(self):
        store = make_store(capacity=100)
        with pytest.raises(ObjectStoreFullError):
            store.put(oid("big"), blob(1000))

    def test_all_pinned_store_full(self):
        store = make_store(capacity=2500)
        store.put(oid("a"), blob(1000))
        store.put(oid("b"), blob(1000))
        store.pin(oid("a"))
        store.pin(oid("b"))
        with pytest.raises(ObjectStoreFullError):
            store.put(oid("c"), blob(1000))

    def test_eviction_counter(self):
        store = make_store(capacity=2500)
        store.put(oid("a"), blob(1000))
        store.put(oid("b"), blob(1000))
        store.put(oid("c"), blob(1000))
        assert store.eviction_count == 1


class TestAvailability:
    def test_event_set_when_present(self):
        store = make_store()
        store.put(oid("a"), serialize(1))
        assert store.availability_event(oid("a")).is_set()

    def test_event_fires_on_put(self):
        store = make_store()
        event = store.availability_event(oid("a"))
        assert not event.is_set()
        store.put(oid("a"), serialize(1))
        assert event.is_set()

    def test_event_cleared_on_eviction(self):
        store = make_store(capacity=2500)
        event = store.availability_event(oid("a"))
        store.put(oid("a"), blob(1000))
        assert event.is_set()
        store.put(oid("b"), blob(1000))
        store.put(oid("c"), blob(1000))  # evicts "a"
        assert not event.is_set()

    def test_event_cleared_on_delete(self):
        store = make_store()
        store.put(oid("a"), serialize(1))
        event = store.availability_event(oid("a"))
        store.delete(oid("a"))
        assert not event.is_set()

    def test_listener_runs_immediately_if_present(self):
        store = make_store()
        store.put(oid("a"), serialize(1))
        seen = []
        store.on_available(oid("a"), seen.append)
        assert seen == [oid("a")]

    def test_listener_runs_on_put(self):
        store = make_store()
        seen = []
        store.on_available(oid("a"), seen.append)
        assert seen == []
        store.put(oid("a"), serialize(1))
        assert seen == [oid("a")]

    def test_listener_fires_once(self):
        store = make_store()
        seen = []
        store.on_available(oid("a"), seen.append)
        store.put(oid("a"), serialize(1))
        store.delete(oid("a"))
        store.put(oid("a"), serialize(2))
        assert seen == [oid("a")]

    def test_present_objects_keep_no_events(self):
        """A present object's completion lives only while a reader holds it."""
        store = make_store()
        for i in range(1000):
            store.put(oid(str(i)), serialize(i))
            assert store.availability_event(oid(str(i))).is_set()
        assert len(store._events) == 0
        assert len(store._present_events) == 0

    def test_event_held_across_eviction_is_set_by_reput(self):
        store = make_store(capacity=2500)
        store.put(oid("a"), blob(1000))
        event = store.availability_event(oid("a"))
        store.put(oid("b"), blob(1000))
        store.put(oid("c"), blob(1000))  # evicts "a"
        assert not event.is_set()
        assert store.availability_event(oid("a")) is event
        store.put(oid("a"), blob(1000))
        assert event.is_set()

    def test_event_held_across_node_loss_is_set_by_reput(self):
        store = make_store()
        store.put(oid("a"), serialize(1))
        event = store.availability_event(oid("a"))
        store.drop_all()
        assert not event.is_set()
        store.put(oid("a"), serialize(1))
        assert event.is_set()

    def test_event_maps_hold_under_concurrent_churn(self):
        """Threads put, delete and wait on a few objects at once: after
        they join, a present object's completion is set and the strong map
        holds only absent objects' completions."""
        store = make_store()
        ids = [oid(f"churn{i}") for i in range(4)]

        def churn(seed):
            rng = random.Random(seed)
            for _ in range(300):
                object_id = rng.choice(ids)
                action = rng.randrange(3)
                if action == 0:
                    store.put(object_id, serialize(seed))
                elif action == 1:
                    store.delete(object_id)
                else:
                    store.availability_event(object_id).is_set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        for object_id in ids:
            if store.contains(object_id):
                assert store.availability_event(object_id).is_set()
        assert not any(store.contains(object_id) for object_id in store._events)

    def test_listener_on_absent_object_survives_collection(self):
        """The store holds an absent object's completion strongly: nobody
        else references it, and the put must still fire its listener."""
        store = make_store()
        seen = []
        store.on_available(oid("a"), seen.append)
        gc.collect()
        store.put(oid("a"), serialize(1))
        assert seen == [oid("a")]
