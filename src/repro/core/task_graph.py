"""The dynamic task graph (paper Section 3.2, Figure 4).

Nodes are *data objects* and *tasks* (remote function invocations, actor
creations, and actor method invocations).  Edges are:

* **data edges** — task → each object it outputs; object → each task that
  consumes it;
* **control edges** — invoking task → invoked task (nested remote calls);
* **stateful edges** — actor method Mᵢ → Mᵢ₊₁ on the same actor, encoding
  the implicit dependency through the actor's mutable state.

Lineage itself lives in one place, the GCS task table.  ``Runtime.graph``
builds this graph from that table on each access, for the lineage
queries, visualization and debugging tooling the paper describes riding
on the GCS; it therefore leaves out collected or flushed lineage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.common.ids import ActorID, ObjectID, TaskID
from repro.core.task_spec import TaskSpec


class EdgeType(enum.Enum):
    DATA = "data"
    CONTROL = "control"
    STATEFUL = "stateful"


@dataclass(frozen=True)
class Edge:
    src: object  # TaskID or ObjectID
    dst: object
    kind: EdgeType


class TaskGraph:
    """A computation graph with typed edges, built from task specs.

    ``specs`` may come in any order (a table scan's): each actor's methods
    are chained by stateful edges in counter order, after its creation.  A
    spec given twice (a replayed task) is recorded once."""

    def __init__(self, specs: Iterable[TaskSpec] = ()):
        self._tasks: Dict[TaskID, TaskSpec] = {}
        self._edges: List[Edge] = []
        self._out: Dict[object, List[Edge]] = {}
        self._in: Dict[object, List[Edge]] = {}
        last_of_actor: Dict[ActorID, TaskID] = {}
        for spec in sorted(
            specs, key=lambda spec: (not spec.is_actor_creation, spec.actor_counter)
        ):
            if spec.task_id in self._tasks:
                continue
            self._tasks[spec.task_id] = spec
            # Data edges in: argument objects → task.
            for dep in spec.dependencies():
                self._add_edge(dep, spec.task_id, EdgeType.DATA)
            # Data edges out: task → return objects.
            for object_id in spec.return_ids:
                self._add_edge(spec.task_id, object_id, EdgeType.DATA)
            # Control edge: parent (submitting) task → this task.
            parent = spec.parent_task_id
            if parent is not None and not parent.is_nil():
                self._add_edge(parent, spec.task_id, EdgeType.CONTROL)
            # Stateful edge: previous method on the same actor → this one.
            if spec.actor_id is not None:
                previous = last_of_actor.get(spec.actor_id)
                if previous is not None and not spec.is_actor_creation:
                    self._add_edge(previous, spec.task_id, EdgeType.STATEFUL)
                last_of_actor[spec.actor_id] = spec.task_id

    def _add_edge(self, src, dst, kind: EdgeType) -> None:
        edge = Edge(src, dst, kind)
        self._edges.append(edge)
        self._out.setdefault(src, []).append(edge)
        self._in.setdefault(dst, []).append(edge)

    # -- queries ---------------------------------------------------------------

    def task(self, task_id: TaskID) -> Optional[TaskSpec]:
        return self._tasks.get(task_id)

    def num_tasks(self) -> int:
        return len(self._tasks)

    def edges(self, kind: Optional[EdgeType] = None) -> List[Edge]:
        if kind is None:
            return list(self._edges)
        return [e for e in self._edges if e.kind == kind]

    def producer_of(self, object_id: ObjectID) -> Optional[TaskID]:
        for edge in self._in.get(object_id, ()):
            if edge.kind == EdgeType.DATA and isinstance(edge.src, TaskID):
                return edge.src
        return None

    def consumers_of(self, object_id: ObjectID) -> List[TaskID]:
        return [
            e.dst for e in self._out.get(object_id, ()) if e.kind == EdgeType.DATA
        ]

    def predecessors_of(self, task_id: TaskID) -> List[TaskID]:
        """Tasks that must *finish* before ``task_id`` can run: producers
        of its data dependencies plus its stateful predecessor (control
        edges are excluded — a parent merely submits the child mid-run)."""
        out: List[TaskID] = []
        for edge in self._in.get(task_id, ()):
            if edge.kind == EdgeType.STATEFUL and isinstance(edge.src, TaskID):
                out.append(edge.src)
            elif edge.kind == EdgeType.DATA and isinstance(edge.src, ObjectID):
                producer = self.producer_of(edge.src)
                if producer is not None:
                    out.append(producer)
        return out

    def task_ids(self) -> List[TaskID]:
        return list(self._tasks)

    def children_of(self, task_id: TaskID) -> List[TaskID]:
        """Tasks invoked by ``task_id`` (control edges out)."""
        return [
            e.dst for e in self._out.get(task_id, ()) if e.kind == EdgeType.CONTROL
        ]

    def stateful_chain(self, actor_id: ActorID) -> List[TaskID]:
        """All method tasks of an actor, in stateful-edge order."""
        chain_tasks = [
            tid
            for tid, spec in self._tasks.items()
            if spec.actor_id == actor_id and not spec.is_actor_creation
        ]
        return sorted(chain_tasks, key=lambda t: self._tasks[t].actor_counter)

    def ancestors(self, object_id: ObjectID) -> Set[TaskID]:
        """Transitive lineage of an object: every task it depends on."""
        result: Set[TaskID] = set()
        frontier = [object_id]
        while frontier:
            current = frontier.pop()
            producer = self.producer_of(current)
            if producer is None or producer in result:
                continue
            result.add(producer)
            spec = self.task(producer)
            if spec is not None:
                frontier.extend(spec.dependencies())
        return result

    def to_dot(self) -> str:
        """Graphviz rendering, for the debugging tools of Section 7."""
        lines = ["digraph task_graph {"]
        for task_id, spec in self._tasks.items():
            lines.append(
                f'  "{task_id.hex()[:8]}" [shape=box label="{spec.function_name}"];'
            )
        seen_objects = set()
        for edge in self._edges:
            for endpoint in (edge.src, edge.dst):
                if isinstance(endpoint, ObjectID) and endpoint not in seen_objects:
                    seen_objects.add(endpoint)
                    lines.append(
                        f'  "{endpoint.hex()[:8]}" [shape=ellipse label="obj"];'
                    )
            style = {
                EdgeType.DATA: "solid",
                EdgeType.CONTROL: "dashed",
                EdgeType.STATEFUL: "bold",
            }[edge.kind]
            lines.append(
                f'  "{edge.src.hex()[:8]}" -> "{edge.dst.hex()[:8]}" [style={style}];'
            )
        lines.append("}")
        return "\n".join(lines)
