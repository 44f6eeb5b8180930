"""Chain replication: linearizable ops, failure reconfiguration, joins."""

import pytest

from repro.common.errors import ChainUnavailableError
from repro.gcs.chain import ChainReplica, ReplicatedChain


class TestBasicReplication:
    def test_write_reaches_all_members(self):
        chain = ReplicatedChain(num_replicas=3)
        chain.put("k", 1)
        for replica in chain.members:
            assert replica.store.get("k") == 1

    def test_read_from_tail(self):
        chain = ReplicatedChain(num_replicas=2)
        chain.put("k", "v")
        assert chain.get("k") == "v"

    def test_append_log_replicated(self):
        chain = ReplicatedChain(num_replicas=2)
        chain.append("log", 1)
        chain.append("log", 2)
        assert chain.log("log") == [1, 2]
        for replica in chain.members:
            assert replica.store.log("log") == [1, 2]

    def test_single_replica_chain(self):
        chain = ReplicatedChain(num_replicas=1)
        chain.put("k", 1)
        assert chain.get("k") == 1

    def test_zero_replicas_rejected(self):
        with pytest.raises(ValueError):
            ReplicatedChain(num_replicas=0)


class TestFailureHandling:
    def test_head_failure_reconfigures_and_retries(self):
        chain = ReplicatedChain(num_replicas=3)
        chain.put("before", 1)
        chain.kill_member(0)
        chain.put("after", 2)  # client retries; master drops dead head
        assert chain.get("after") == 2
        assert chain.chain_length() == 2
        assert chain.reconfigurations == 1
        assert chain.failed_writes >= 1

    def test_tail_failure_on_read(self):
        chain = ReplicatedChain(num_replicas=3)
        chain.put("k", 1)
        chain.kill_member(2)
        assert chain.get("k") == 1  # retried against new tail
        assert chain.chain_length() == 2

    def test_middle_failure(self):
        chain = ReplicatedChain(num_replicas=3)
        chain.kill_member(1)
        chain.put("k", 9)
        assert chain.get("k") == 9

    def test_all_members_dead_raises(self):
        chain = ReplicatedChain(num_replicas=1)
        chain.kill_member(0)
        with pytest.raises(ChainUnavailableError):
            chain.put("k", 1)

    def test_data_survives_single_failure(self):
        chain = ReplicatedChain(num_replicas=2)
        for i in range(50):
            chain.put(f"k{i}", i)
        chain.kill_member(0)
        for i in range(50):
            assert chain.get(f"k{i}") == i

    def test_delete_reports_a_dead_member(self):
        chain = ReplicatedChain(num_replicas=3)
        chain.put("k", 1)
        chain.append("log", 1)
        chain.kill_member(1)
        chain.write_batch([("delete", "k", None), ("delete", "log", None)])
        assert chain.reconfigurations == 1
        assert chain.chain_length() == 2
        for replica in chain.members:
            assert replica.store.get("k") is None
            assert replica.store.log("log") == []


class TestMembership:
    def test_join_receives_state_transfer(self):
        chain = ReplicatedChain(num_replicas=2)
        chain.put("k", 1)
        chain.append("log", "entry")
        new = chain.add_member()
        assert new.store.get("k") == 1
        assert new.store.log("log") == ["entry"]
        assert chain.chain_length() == 3

    def test_kill_then_rejoin_restores_replication(self):
        """The Figure 10a scenario: kill a member, a new one joins."""
        chain = ReplicatedChain(num_replicas=2)
        chain.put("a", 1)
        chain.kill_member(0)
        chain.put("b", 2)  # triggers reconfiguration to 1 member
        chain.add_member()
        assert chain.chain_length() == 2
        chain.put("c", 3)
        for replica in chain.members:
            assert replica.store.get("c") == 3

    def test_new_member_serves_reads(self):
        chain = ReplicatedChain(num_replicas=1)
        chain.put("k", "v")
        chain.add_member()  # becomes the new tail
        assert chain.get("k") == "v"


class TestPubSub:
    def test_publish_on_successful_write(self):
        chain = ReplicatedChain(num_replicas=2)
        seen = []
        chain.subscribe("k", lambda key, value: seen.append(value))
        chain.put("k", 5)
        assert seen == [5]

    def test_subscription_survives_reconfiguration(self):
        chain = ReplicatedChain(num_replicas=2)
        seen = []
        chain.subscribe("k", lambda _k, v: seen.append(v))
        chain.kill_member(0)
        chain.put("k", 1)
        assert seen == [1]

    def test_unsubscribe(self):
        chain = ReplicatedChain(num_replicas=1)
        seen = []
        unsub = chain.subscribe("k", lambda _k, v: seen.append(v))
        unsub()
        unsub()  # idempotent
        chain.put("k", 1)
        assert seen == []

    def test_publish_on_append(self):
        chain = ReplicatedChain(num_replicas=2)
        seen = []
        chain.subscribe("log", lambda key, entry: seen.append((key, entry)))
        chain.append("log", "x")
        assert seen == [("log", "x")]

    def test_other_keys_do_not_fire(self):
        chain = ReplicatedChain(num_replicas=2)
        seen = []
        chain.subscribe("a", lambda *args: seen.append(args))
        chain.put("b", 1)
        chain.write_batch([("put", "c", 2), ("append", "d", 3)])
        assert seen == []

    def test_delete_does_not_publish(self):
        chain = ReplicatedChain(num_replicas=2)
        chain.put("k", 1)
        seen = []
        chain.subscribe("k", lambda *args: seen.append(args))
        chain.write_batch([("delete", "k", None)])
        assert seen == []
        assert chain.get("k") is None

    def test_multiple_subscribers(self):
        chain = ReplicatedChain(num_replicas=2)
        seen = []
        chain.subscribe("k", lambda *_: seen.append("a"))
        chain.subscribe("k", lambda *_: seen.append("b"))
        chain.put("k", 1)
        assert sorted(seen) == ["a", "b"]


class TestReplicaPrimitives:
    def test_dead_replica_raises(self):
        replica = ChainReplica()
        replica.kill()
        from repro.gcs.chain import ReplicaDeadError

        with pytest.raises(ReplicaDeadError):
            replica.apply_put("k", 1)
        with pytest.raises(ReplicaDeadError):
            replica.read("k")
