"""Task specifications — the durable unit of lineage.

A :class:`TaskSpec` fully describes one remote function invocation or actor
method call: which function, which arguments (by value or by object
reference), how many return values, and what resources it needs.  Specs are
stored in the GCS task table; re-submitting a spec re-executes the task and
— because return object IDs are a pure function of the task ID — rewrites
exactly the objects the original execution produced.  That property is what
makes lineage replay idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.common.ids import ActorID, FunctionID, ObjectID, TaskID
from repro.common.lockwatch import make_lock


@dataclass(frozen=True)
class ArgRef:
    """Marks an argument passed by object reference (a future)."""

    object_id: ObjectID

    def __repr__(self) -> str:
        return f"ArgRef({self.object_id.hex()[:10]})"


@dataclass(frozen=True)
class TaskSpec:
    """Immutable description of one task (or actor method / creation)."""

    task_id: TaskID
    function_id: FunctionID
    function_name: str
    args: Tuple[Any, ...]
    kwargs: Tuple[Tuple[str, Any], ...]
    num_returns: int
    resources: Dict[str, float] = field(default_factory=lambda: {"CPU": 1.0})
    parent_task_id: Optional[TaskID] = None
    # Actor fields: exactly one incarnation of {plain task, actor creation,
    # actor method} applies.
    actor_id: Optional[ActorID] = None
    actor_method: Optional[str] = None
    actor_counter: int = -1
    is_actor_creation: bool = False
    # Read-only methods do not mutate actor state, so reconstruction can
    # skip replaying them (the paper's Section 5.1 future-work item).
    is_read_only: bool = False
    # App-level retry policy: on an application exception the task is
    # re-attempted in place (exponential backoff) up to ``max_retries``
    # times.  ``retry_exceptions`` limits which exception types qualify
    # (None = any Exception).  Distinct from lineage reconstruction, which
    # recovers *lost objects* by replaying already-successful tasks.
    max_retries: int = 0
    retry_exceptions: Optional[Tuple[type, ...]] = None

    def __post_init__(self):
        if self.num_returns < 0:
            raise ValueError("num_returns must be >= 0")
        if self.actor_method is not None and self.actor_id is None:
            raise ValueError("actor method spec requires an actor_id")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @property
    def is_actor_method(self) -> bool:
        return self.actor_method is not None

    @property
    def return_ids(self) -> Tuple[ObjectID, ...]:
        # Memoized: deriving a return ID hashes the task ID, and the hot
        # path asks for the tuple several times per task (submit, dispatch,
        # output write, get).  Frozen dataclasses still carry a __dict__,
        # so the memo bypasses the blocked __setattr__.
        cached = self.__dict__.get("_return_ids")
        if cached is None:
            cached = tuple(
                ObjectID.for_task_return(self.task_id, i)
                for i in range(self.num_returns)
            )
            object.__setattr__(self, "_return_ids", cached)
        return cached

    def dependencies(self) -> Tuple[ObjectID, ...]:
        """Object IDs this task needs before it can execute (data edges in)."""
        deps = []
        for arg in self.args:
            if isinstance(arg, ArgRef):
                deps.append(arg.object_id)
        for _name, value in self.kwargs:
            if isinstance(value, ArgRef):
                deps.append(value.object_id)
        return tuple(deps)

    @property
    def kind(self) -> str:
        """``"actor_creation"``, ``"actor_method"`` or ``"task"``."""
        if self.is_actor_creation:
            return "actor_creation"
        return "actor_method" if self.is_actor_method else "task"

    def describe(self) -> str:
        return f"{self.kind}:{self.function_name}#{self.task_id.hex()[:8]}"


@dataclass(frozen=True)
class TaskShape:
    """The per-function-invocation fields every call of one remote function
    shares: identity, return arity, resource request, retry policy.

    Interning the shape means repeated submissions of the same function
    reuse one canonical ``resources`` dict (specs never mutate it — readers
    copy when they need ownership) instead of re-normalizing and copying a
    fresh dict per call, which is measurable at high task rates.
    """

    function_id: FunctionID
    function_name: str
    num_returns: int
    resources: Dict[str, float]
    max_retries: int = 0
    retry_exceptions: Optional[Tuple[type, ...]] = None


_shape_lock = make_lock("task_spec._shape_lock")
_shape_cache: Dict[Tuple, TaskShape] = {}


def intern_shape(
    function_id: FunctionID,
    function_name: str,
    num_returns: int,
    resources: Dict[str, float],
    max_retries: int = 0,
    retry_exceptions: Optional[Tuple[type, ...]] = None,
) -> TaskShape:
    """Canonical :class:`TaskShape` for ``(function, returns, resources,
    retry policy)`` — one shared instance per distinct shape."""
    key = (
        function_id,
        function_name,
        num_returns,
        tuple(sorted(resources.items())),
        max_retries,
        retry_exceptions,
    )
    with _shape_lock:
        shape = _shape_cache.get(key)
        if shape is None:
            shape = TaskShape(
                function_id=function_id,
                function_name=function_name,
                num_returns=num_returns,
                resources=dict(resources),
                max_retries=max_retries,
                retry_exceptions=retry_exceptions,
            )
            _shape_cache[key] = shape
    return shape
