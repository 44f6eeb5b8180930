"""Single-shard KV store (one chain replica's state): operations, logs.

Pub-sub belongs to the chain, not a replica; ``TestPubSub`` checks it
through the sharded store the GCS clients subscribe on.
"""

import threading

from repro.gcs.kv import KVStore
from repro.gcs.shard import ShardedKV


class TestBasicOps:
    def test_put_get(self):
        kv = KVStore()
        kv.put("k", 1)
        assert kv.get("k") == 1

    def test_get_default(self):
        assert KVStore().get("missing", "d") == "d"

    def test_overwrite(self):
        kv = KVStore()
        kv.put("k", 1)
        kv.put("k", 2)
        assert kv.get("k") == 2

    def test_delete(self):
        kv = KVStore()
        kv.put("k", 1)
        assert kv.delete("k")
        assert not kv.delete("k")
        assert kv.get("k") is None


class TestLogs:
    def test_append_preserves_order(self):
        kv = KVStore()
        for i in range(5):
            kv.append("log", i)
        assert kv.log("log") == [0, 1, 2, 3, 4]

    def test_log_missing_key_empty(self):
        assert KVStore().log("nope") == []

    def test_num_entries_counts_data_and_logs(self):
        kv = KVStore()
        kv.put("a", 1)
        kv.append("b", 1)
        kv.append("b", 2)
        assert kv.num_entries() == 3


class TestPubSub:
    def test_subscribe_fires_on_put(self):
        kv = ShardedKV(num_shards=2)
        seen = []
        kv.subscribe("k", lambda key, value: seen.append((key, value)))
        kv.put("k", 7)
        assert seen == [("k", 7)]

    def test_unsubscribe(self):
        kv = ShardedKV(num_shards=2)
        seen = []
        unsubscribe = kv.subscribe("k", lambda *args: seen.append(args))
        unsubscribe()
        kv.put("k", 1)
        assert seen == []

    def test_unsubscribe_idempotent(self):
        kv = ShardedKV(num_shards=2)
        unsubscribe = kv.subscribe("k", lambda *a: None)
        unsubscribe()
        unsubscribe()  # no error
        assert kv.shard_for("k").num_subscriptions() == 0


class TestSnapshot:
    def test_snapshot_roundtrip(self):
        kv = KVStore()
        kv.put("a", 1)
        kv.append("log", "x")
        data, logs = kv.snapshot()
        restored = KVStore()
        restored.load_snapshot(data, logs)
        assert restored.get("a") == 1
        assert restored.log("log") == ["x"]

    def test_snapshot_is_a_copy(self):
        kv = KVStore()
        kv.append("log", 1)
        data, logs = kv.snapshot()
        logs["log"].append(2)
        assert kv.log("log") == [1]


class TestConcurrency:
    def test_concurrent_appends_all_recorded(self):
        kv = KVStore()

        def writer(offset):
            for i in range(100):
                kv.append("log", offset + i)

        threads = [threading.Thread(target=writer, args=(k * 100,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(kv.log("log")) == 400
