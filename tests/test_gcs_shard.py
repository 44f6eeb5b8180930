"""Sharded KV: routing, aggregation, pub-sub through shards, fencing."""

import sys
import threading

import pytest

from repro.common.errors import NodeFencedError
from repro.common.ids import ObjectID, TaskID
from repro.gcs.shard import Guarded, ShardedKV


class TestRouting:
    def test_key_routes_to_same_shard(self):
        kv = ShardedKV(num_shards=4)
        key = ("object", ObjectID.from_seed("x"))
        assert kv.shard_for(key) is kv.shard_for(key)

    def test_table_rows_for_entity_colocated(self):
        """All tables for one entity land on one shard (single-key ops)."""
        kv = ShardedKV(num_shards=8)
        entity = TaskID.from_seed("t")
        assert kv.shard_for(("task", entity)) is kv.shard_for(("status", entity))

    def test_put_get_through_shards(self):
        kv = ShardedKV(num_shards=4)
        for i in range(40):
            kv.put(("t", ObjectID.from_seed(str(i))), i)
        for i in range(40):
            assert kv.get(("t", ObjectID.from_seed(str(i)))) == i

    def test_keys_spread_across_shards(self):
        kv = ShardedKV(num_shards=4)
        for i in range(200):
            kv.put(("t", ObjectID.from_seed(str(i))), i)
        nonempty = sum(1 for shard in kv.shards if shard.num_entries() > 0)
        assert nonempty == 4

    def test_plain_string_keys_work(self):
        kv = ShardedKV(num_shards=3)
        kv.put("plain", 1)
        assert kv.get("plain") == 1


class TestAggregation:
    def test_num_entries_sums_shards(self):
        kv = ShardedKV(num_shards=4)
        for i in range(25):
            kv.put(("t", ObjectID.from_seed(str(i))), i)
        assert kv.num_entries() == 25

    def test_keys_union(self):
        kv = ShardedKV(num_shards=2)
        keys = [("t", ObjectID.from_seed(str(i))) for i in range(10)]
        for k in keys:
            kv.put(k, 0)
        assert sorted(map(repr, kv.keys())) == sorted(map(repr, keys))

    def test_append_and_log(self):
        kv = ShardedKV(num_shards=2)
        key = ("log", ObjectID.from_seed("o"))
        kv.append(key, 1)
        kv.append(key, 2)
        assert kv.log(key) == [1, 2]

    def test_delete(self):
        kv = ShardedKV(num_shards=2)
        log = ("log", ObjectID.from_seed("o"))
        kv.put("k", 1)
        kv.append(log, 1)
        kv.batch([("delete", "k", None), ("delete", log, None)])
        assert kv.get("k") is None
        assert kv.log(log) == []
        assert kv.num_entries() == 0


class TestSubscriptions:
    def test_subscribe_routes_to_owning_shard(self):
        kv = ShardedKV(num_shards=4)
        key = ("object_loc", ObjectID.from_seed("o"))
        seen = []
        kv.subscribe(key, lambda _k, v: seen.append(v))
        kv.append(key, ("add", "n1"))
        assert seen == [("add", "n1")]

    def test_invalid_shard_count(self):
        import pytest

        with pytest.raises(ValueError):
            ShardedKV(num_shards=0)


class TestFence:
    @staticmethod
    def guarded(guard, key, value):
        ops = Guarded(guard)
        ops.append(("put", key, value))
        return ops

    def test_a_fenced_incarnation_is_rejected_and_the_next_lands(self):
        kv = ShardedKV(num_shards=2)
        kv.batch(self.guarded(("n", 0), ("t", "a"), 1))
        kv.fence("n", 0)
        with pytest.raises(NodeFencedError):
            kv.batch(self.guarded(("n", 0), ("t", "b"), 2))
        kv.batch(self.guarded(("n", 1), ("t", "c"), 3))  # the restart
        kv.batch([("put", ("t", "d"), 4)])  # unguarded
        assert [kv.get(("t", k)) for k in "abcd"] == [1, None, 3, 4]

    def test_fence_returns_after_every_admitted_batch_and_before_none_later(self):
        """Eight writers (more than the cores) send guarded batches at a
        1 µs switch interval while the incarnation is fenced: every batch
        that lands has landed when ``fence`` returns, and each writer is
        rejected after it.  Each write holds its shard for a 1 ms hop, so
        a fence that did not wait would return with batches in flight."""
        kv = ShardedKV(num_shards=4, hop_delay=0.001)
        wrote = [threading.Event() for _ in range(8)]
        rejected = [threading.Event() for _ in range(8)]

        def writer(index):
            for count in range(100_000):
                try:
                    kv.batch(self.guarded(("n", 0), ("t", (index, count)), count))
                except NodeFencedError:
                    rejected[index].set()
                    return
                wrote[index].set()

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for event in wrote:
                assert event.wait(10)
            kv.fence("n", 0)
            landed = len(kv.keys())
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all(event.is_set() for event in rejected)
        assert len(kv.keys()) == landed
