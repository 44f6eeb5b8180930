"""The dynamic task graph: data, control, and stateful edges (Figure 4)."""

from repro.common.ids import ActorID, FunctionID, ObjectID, TaskID
from repro.core.task_graph import EdgeType, TaskGraph
from repro.core.task_spec import ArgRef, TaskSpec


def spec(name, args=(), parent=None, actor=None, method=None, counter=-1, creation=False, returns=1):
    return TaskSpec(
        task_id=TaskID.from_seed(name),
        function_id=FunctionID.from_seed(name),
        function_name=name,
        args=args,
        kwargs=(),
        num_returns=returns,
        parent_task_id=TaskID.from_seed(parent) if parent else None,
        actor_id=ActorID.from_seed(actor) if actor else None,
        actor_method=method,
        actor_counter=counter,
        is_actor_creation=creation,
    )


class TestDataEdges:
    def test_task_to_outputs(self):
        s = spec("t", returns=2)
        graph = TaskGraph([s])
        data = graph.edges(EdgeType.DATA)
        assert {e.dst for e in data} == set(s.return_ids)

    def test_input_to_task(self):
        producer = spec("p")
        consumer = spec("c", args=(ArgRef(producer.return_ids[0]),))
        graph = TaskGraph([consumer, producer])
        assert graph.producer_of(producer.return_ids[0]) == producer.task_id
        assert consumer.task_id in graph.consumers_of(producer.return_ids[0])

    def test_replay_does_not_duplicate(self):
        s = spec("t")
        graph = TaskGraph([s, s])
        assert graph.num_tasks() == 1
        assert len(graph.edges()) == 1


class TestControlEdges:
    def test_parent_to_child(self):
        parent = spec("parent")
        child = spec("child", parent="parent")
        graph = TaskGraph([parent, child])
        assert graph.children_of(parent.task_id) == [child.task_id]
        kinds = {e.kind for e in graph.edges() if e.dst == child.task_id}
        assert EdgeType.CONTROL in kinds


class TestStatefulEdges:
    def test_chain_in_invocation_order(self):
        """Methods on one actor form a chain of stateful edges (Fig 4)."""
        m_specs = [
            spec(f"m{i}", actor="A", method="m", counter=i) for i in range(3)
        ]
        # In a table scan's order, not invocation order.
        graph = TaskGraph(
            [m_specs[2], m_specs[0], spec("create", actor="A", creation=True),
             m_specs[1]]
        )
        chain = graph.stateful_chain(ActorID.from_seed("A"))
        assert chain == [m.task_id for m in m_specs]
        stateful = graph.edges(EdgeType.STATEFUL)
        # create→m0, m0→m1, m1→m2
        assert len(stateful) == 3
        assert (stateful[1].src, stateful[1].dst) == (
            m_specs[0].task_id,
            m_specs[1].task_id,
        )

    def test_separate_actors_have_separate_chains(self):
        graph = TaskGraph([
            spec("a0", actor="A", method="m", counter=0),
            spec("b0", actor="B", method="m", counter=0),
            spec("a1", actor="A", method="m", counter=1),
        ])
        chain_a = graph.stateful_chain(ActorID.from_seed("A"))
        assert len(chain_a) == 2
        assert len(graph.stateful_chain(ActorID.from_seed("B"))) == 1


class TestLineageQueries:
    def test_ancestors_transitive(self):
        t1 = spec("t1")
        t2 = spec("t2", args=(ArgRef(t1.return_ids[0]),))
        t3 = spec("t3", args=(ArgRef(t2.return_ids[0]),))
        graph = TaskGraph([t1, t2, t3])
        ancestors = graph.ancestors(t3.return_ids[0])
        assert ancestors == {t1.task_id, t2.task_id, t3.task_id}

    def test_ancestors_of_unknown_object_empty(self):
        graph = TaskGraph()
        assert graph.ancestors(ObjectID.from_seed("x")) == set()

    def test_to_dot_contains_nodes_and_styles(self):
        graph = TaskGraph([
            spec("t1"),
            spec("m0", actor="A", method="m", counter=0),
            spec("m1", actor="A", method="m", counter=1),
        ])
        dot = graph.to_dot()
        assert "digraph" in dot
        assert "style=bold" in dot  # stateful edge styling
        assert "style=solid" in dot  # data edge styling
