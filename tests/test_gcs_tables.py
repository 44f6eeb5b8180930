"""GCS typed tables: object locations, task lineage, actors, events."""

import dataclasses
import pickle
import sys
import threading

import pytest

from repro.common.ids import ActorID, FunctionID, NodeID, ObjectID, TaskID
from repro.core.task_spec import TaskSpec
from repro.gcs.client import _EVENT, _TASK, GlobalControlStore
from repro.gcs.flush import GcsFlusher
from repro.gcs.tables import ActorTableEntry, EventRecord, TaskStatus, TaskTableEntry


@pytest.fixture
def gcs():
    return GlobalControlStore(num_shards=2, num_replicas=1)


class TestFunctionTable:
    def test_register_and_get(self, gcs):
        fid = FunctionID.from_seed("f")
        gcs.register_function(fid, sum)
        assert gcs.get_function(fid) is sum

    def test_missing_function_raises(self, gcs):
        with pytest.raises(KeyError):
            gcs.get_function(FunctionID.from_seed("missing"))


class TestObjectTable:
    def test_locations_fold_adds_and_removes(self, gcs):
        oid = ObjectID.from_seed("o")
        n1, n2 = NodeID.from_seed("n1"), NodeID.from_seed("n2")
        gcs.add_object_location(oid, n1)
        gcs.add_object_location(oid, n2)
        assert gcs.get_object_locations(oid) == {n1, n2}
        gcs.remove_object_location(oid, n1)
        assert gcs.get_object_locations(oid) == {n2}

    def test_entry_combines_metadata_and_locations(self, gcs):
        oid = ObjectID.from_seed("o")
        tid = TaskID.from_seed("t")
        node = NodeID.from_seed("n")
        gcs.add_object(oid, 128, tid)
        gcs.add_object_location(oid, node)
        entry = gcs.get_object_entry(oid)
        assert entry.size == 128
        assert entry.task_id == tid
        assert entry.locations == frozenset({node})

    def test_missing_entry_is_none(self, gcs):
        assert gcs.get_object_entry(ObjectID.from_seed("missing")) is None

    def test_creating_task_lineage_pointer(self, gcs):
        oid = ObjectID.from_seed("o")
        tid = TaskID.from_seed("t")
        gcs.add_object(oid, 1, tid)
        assert gcs.creating_task(oid) == tid

    def test_put_objects_have_no_lineage(self, gcs):
        oid = ObjectID.from_seed("o")
        gcs.add_object(oid, 1, None)
        assert gcs.creating_task(oid) is None

    def test_location_subscription(self, gcs):
        oid = ObjectID.from_seed("o")
        node = NodeID.from_seed("n")
        seen = []
        unsubscribe = gcs.subscribe_object_locations(
            oid, lambda op, nid: seen.append((op, nid))
        )
        gcs.add_object_location(oid, node)
        assert seen == [("add", node)]
        unsubscribe()
        gcs.remove_object_location(oid, node)
        assert len(seen) == 1

    def test_concurrent_publications_leave_nothing_in_flight(self, gcs):
        """Each publication's in-flight mark is cleared when its write
        returns, however many threads publish the same objects at once: a
        mark left behind would let a fetch skip its reconstruction probe
        for an object no write is bringing.  And a copy's publication never
        erases the producer an output's publication names: losing it would
        cost every blocking get of the object an object-row read."""
        oids = [ObjectID.from_seed(f"o{i}") for i in range(4)]
        node = NodeID.from_seed("n")
        producer = TaskID.from_seed("producer")

        def publish():
            for i in range(200):
                gcs.add_task_outputs([(oids[i % 4], 1, producer, node)])
                gcs.add_object_location(oids[(i + 1) % 4], node)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=publish) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not any(gcs.location_in_flight(oid) for oid in oids)
        assert all(gcs.known_producer(oid) == producer for oid in oids)


def _spec(seed):
    return TaskSpec(
        task_id=TaskID.from_seed(seed),
        function_id=FunctionID.from_seed("f"),
        function_name="f",
        args=(seed,),
        kwargs=(),
        num_returns=1,
    )


class TestTaskTable:
    def test_add_and_get(self, gcs):
        tid = TaskID.from_seed("t")
        row = TaskTableEntry(tid, "spec", TaskStatus.FINISHED)
        assert gcs.add_task(row) == row
        assert gcs.get_task(tid) == row

    def test_add_is_idempotent_for_replay(self, gcs):
        """A re-admitted row must not clobber the one the table holds."""
        tid = TaskID.from_seed("t")
        gcs.add_task(TaskTableEntry(tid, "original", TaskStatus.FINISHED))
        held = gcs.add_task(TaskTableEntry(tid, "replayed", TaskStatus.FINISHED))
        assert held.spec == gcs.get_task(tid).spec == "original"

    def test_placement_then_finish(self, gcs):
        spec = _spec("t")
        node = NodeID.from_seed("n")
        gcs.set_task_states([(spec, node)])
        entry = gcs.get_task(spec.task_id)
        assert (entry.spec, entry.status, entry.node_id) == (
            spec, TaskStatus.SCHEDULED, node
        )
        gcs.finish_task(spec.task_id, TaskStatus.FINISHED, node, [], spec=spec)
        entry = gcs.get_task(spec.task_id)
        assert (entry.spec, entry.status, entry.node_id) == (
            spec, TaskStatus.FINISHED, node
        )

    def test_tasks_with_status(self, gcs):
        node = NodeID.from_seed("n")
        specs = [_spec(str(i)) for i in range(3)]
        gcs.set_task_states([(s, node) for s in specs])
        gcs.finish_task(
            specs[0].task_id, TaskStatus.FINISHED, node, [], spec=specs[0]
        )
        finished = gcs.tasks_with_status(TaskStatus.FINISHED)
        assert len(finished) == 1
        assert len(gcs.tasks_with_status(TaskStatus.SCHEDULED)) == 2


class TestActorTable:
    def test_register_and_update(self, gcs):
        aid = ActorID.from_seed("a")
        node = NodeID.from_seed("n")
        gcs.register_actor(aid, "Counter", None)
        gcs.update_actor(aid, node_id=node)
        entry = gcs.get_actor(aid)
        assert entry.class_name == "Counter"
        assert entry.node_id == node
        assert entry.alive
        gcs.update_actor(aid, alive=False)
        assert gcs.get_actor(aid) == ActorTableEntry(aid, "Counter", node, False)

    def test_method_finish_writes_progress_and_checkpoint(self, gcs):
        """Progress and a due checkpoint are rows of their own, written
        blind by the method's finish; the actor row is not touched."""
        aid = ActorID.from_seed("a")
        node = NodeID.from_seed("n")
        gcs.register_actor(aid, "Counter", node)
        assert gcs.get_actor_progress(aid) is None
        for counter, blob in ((1, None), (2, "state@2"), (3, None)):
            spec = dataclasses.replace(_spec(f"m{counter}"), actor_id=aid)
            gcs.finish_task(
                spec.task_id,
                TaskStatus.FINISHED,
                node,
                [],
                spec=spec,
                progress=(1, counter),
                checkpoint=blob,
            )
        assert gcs.get_actor_progress(aid) == (1, 3)
        assert gcs.get_actor_checkpoint(aid) == (2, "state@2")
        assert gcs.get_actor(aid) == ActorTableEntry(aid, "Counter", node)

    def test_update_unknown_actor_raises(self, gcs):
        with pytest.raises(KeyError):
            gcs.update_actor(ActorID.from_seed("x"), alive=False)


class TestEventLog:
    def test_events_recorded_by_category(self, gcs):
        gcs.record_event("task_finished", task="t1", duration=0.5)
        gcs.record_event("task_finished", task="t2", duration=0.7)
        gcs.record_event("node_death", node="n1")
        events = gcs.events("task_finished")
        assert len(events) == 2
        assert events[0].as_dict()["task"] == "t1"
        assert len(gcs.events("node_death")) == 1

    def test_empty_category(self, gcs):
        assert gcs.events("nothing") == []


class TestEventRecord:
    ITEMS = (("duration", 0.5), ("node", "n1"), ("task", "t1"))

    def record(self, **payload):
        return EventRecord.make("task_finished", **payload).stamp(7, 1.25)

    def test_payload_views_are_the_sorted_pairs(self):
        record = self.record(task="t1", node="n1", duration=0.5)
        assert record.payload == self.ITEMS
        assert record.as_dict() == dict(self.ITEMS)
        assert record.as_timeline_dict() == {
            "seq": 7, "ts": 1.25, "category": "task_finished", **dict(self.ITEMS)
        }

    def test_equality_hash_and_shared_shape(self):
        record = self.record(task="t1", node="n1", duration=0.5)
        twin = self.record(duration=0.5, task="t1", node="n1")
        assert twin == record and hash(twin) == hash(record)
        assert self.record(task="t1", node="n1", duration=0.7) != record
        assert self.record(task="t1") != record
        other = EventRecord.make("node_death", task="t9", node="n2", duration=1.0)
        assert other.keys is record.keys
        assert not hasattr(record, "__dict__")

    def test_pickle_round_trip_keeps_the_shared_shape(self):
        record = self.record(task="t1", node="n1", duration=0.5)
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record and clone.payload == self.ITEMS
        assert clone.keys is record.keys

    def test_flush_round_trips_slotted_rows(self, gcs, tmp_path):
        spec = _spec("t")
        node = NodeID.from_seed("n")
        gcs.finish_task(spec.task_id, TaskStatus.FINISHED, node, [], spec=spec)
        gcs.record_event("task_finished", task="t1", node="n1", duration=0.5)
        row, events = gcs.get_task(spec.task_id), gcs.events("task_finished")
        flusher = GcsFlusher(gcs, str(tmp_path / "flush.bin"))
        assert flusher.flush() == 2
        flushed = {table: value for table, _entity, value in flusher.iter_flushed()}
        assert flushed[_TASK] == row
        assert flushed[_EVENT] == events
        assert flushed[_EVENT][0].keys is events[0].keys
