"""Unit tests for the worker execution helpers."""

import pytest

import repro
from repro.common.errors import NodeDiedError, TaskExecutionError
from repro.common.ids import FunctionID, ObjectID, TaskID
from repro.common.serialization import serialize
from repro.core.task_spec import ArgRef, TaskSpec
from repro.core.worker import normalize_returns, pin_inputs, resolve_args


def spec_with(num_returns=1, args=(), kwargs=()):
    return TaskSpec(
        task_id=TaskID.from_seed("t"),
        function_id=FunctionID.from_seed("f"),
        function_name="f",
        args=args,
        kwargs=kwargs,
        num_returns=num_returns,
    )


class TestNormalizeReturns:
    def test_zero_returns_discards(self):
        assert normalize_returns(spec_with(num_returns=0), "ignored") == []

    def test_single_return_wraps(self):
        assert normalize_returns(spec_with(num_returns=1), (1, 2)) == [(1, 2)]

    def test_multi_return_splits_tuple_and_list(self):
        assert normalize_returns(spec_with(num_returns=2), (1, 2)) == [1, 2]
        assert normalize_returns(spec_with(num_returns=3), [1, 2, 3]) == [1, 2, 3]

    def test_arity_mismatch_raises(self):
        with pytest.raises(TypeError):
            normalize_returns(spec_with(num_returns=2), (1, 2, 3))
        with pytest.raises(TypeError):
            normalize_returns(spec_with(num_returns=2), "not-a-sequence")


class TestResolveArgs:
    def test_plain_values_pass_through(self, runtime):
        node = runtime.driver_node
        args, kwargs, error = resolve_args(
            node, spec_with(args=(1, "x"), kwargs=(("k", 2.5),))
        )
        assert args == [1, "x"]
        assert kwargs == {"k": 2.5}
        assert error is None

    def test_refs_deserialized_from_store(self, runtime):
        node = runtime.driver_node
        oid = ObjectID.from_seed("arg")
        node.store.put(oid, serialize({"payload": 7}))
        args, _kwargs, error = resolve_args(node, spec_with(args=(ArgRef(oid),)))
        assert args == [{"payload": 7}]
        assert error is None

    def test_error_input_detected(self, runtime):
        node = runtime.driver_node
        oid = ObjectID.from_seed("bad")
        upstream = TaskExecutionError(TaskID.from_seed("up"), ValueError("x"))
        node.store.put(oid, serialize(upstream))
        _args, _kwargs, error = resolve_args(node, spec_with(args=(ArgRef(oid),)))
        assert isinstance(error, TaskExecutionError)

    def test_missing_ref_raises(self, runtime):
        node = runtime.driver_node
        with pytest.raises(RuntimeError):
            resolve_args(
                node, spec_with(args=(ArgRef(ObjectID.from_seed("missing")),))
            )

    def test_missing_ref_on_a_dead_node_raises_node_died(self, runtime):
        """A worker stranded by ``kill_node`` finds its inputs dropped with
        the store: it must exit quietly, like a blocking fetch would."""
        node = [n for n in runtime.nodes() if n is not runtime.driver_node][0]
        runtime.kill_node(node.node_id)
        with pytest.raises(NodeDiedError):
            resolve_args(
                node, spec_with(args=(ArgRef(ObjectID.from_seed("dropped")),))
            )


class TestPinInputs:
    def test_pins_present_objects(self, runtime):
        node = runtime.driver_node
        oid = ObjectID.from_seed("pinme")
        node.store.put(oid, serialize(1))
        pin_inputs(runtime, node, [oid])
        assert node.store.is_pinned(oid)

    def test_refetches_evicted_input(self, runtime):
        """If the input vanished after readiness, pin_inputs pulls it back
        (here from the other node's copy)."""
        node = runtime.driver_node
        other = [n for n in runtime.nodes() if n is not node][0]
        oid = ObjectID.from_seed("roundtrip")
        payload = serialize(b"data")
        other.store.put(oid, payload)
        runtime.gcs.add_object(oid, payload.total_bytes, None)
        runtime.gcs.add_object_location(oid, other.node_id)
        assert not node.store.contains(oid)
        pin_inputs(runtime, node, [oid])
        assert node.store.contains(oid)
        assert node.store.is_pinned(oid)
