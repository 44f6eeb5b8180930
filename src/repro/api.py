"""Public Ray-like API (paper Table 1).

    import repro

    repro.init(num_nodes=4)

    @repro.remote
    def add(a, b):
        return a + b

    ref = add.remote(1, 2)
    assert repro.get(ref) == 3

    @repro.remote(num_gpus=1)
    class Counter:
        def __init__(self):
            self.value = 0
        def incr(self):
            self.value += 1
            return self.value

    counter = Counter.remote()
    assert repro.get(counter.incr.remote()) == 1

All of Table 1 is implemented: ``f.remote(args)`` (non-blocking, returns
futures), ``get(futures)`` (blocking), ``wait(futures, num_returns,
timeout)``, ``Class.remote(args)`` / ``actor.method.remote(args)``, plus
``put``, nested remote functions, and per-task/per-actor resource
requirements (``num_cpus``, ``num_gpus``, ``resources``).
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.lockwatch import make_lock
from repro.common.errors import RuntimeNotInitializedError
from repro.common.ids import ActorID, FunctionID, ObjectID
from repro.common.options import Options, suggest
from repro.core import context
from repro.core.resources import normalize_resources
from repro.core.runtime import Runtime, RuntimeConfig
from repro.core.task_spec import ArgRef, intern_shape

_runtime_lock = make_lock("api._runtime_lock")
_global_runtime: Optional[Runtime] = None


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


def init(config: Optional[RuntimeConfig] = None, **overrides: Any) -> Runtime:
    """Start an in-process cluster and install it as the global runtime.

    Accepts either a :class:`RuntimeConfig` or its fields as keyword
    arguments (``num_nodes``, ``num_cpus_per_node``, ``num_gpus_per_node``,
    ``object_store_capacity_bytes``, ``gcs_shards``, ``locality_aware``,
    ``scheduler_policy``, ``spillback_policy``, …).  Scheduler policies
    resolve by registry name, class, or instance — see
    ``docs/SCHEDULING.md``.

    Unknown keyword arguments are rejected here with the list of valid
    ``RuntimeConfig`` fields (``RuntimeConfig.describe()`` renders them
    with types, defaults, and one-line docs).
    """
    global _global_runtime
    if overrides:
        valid = set(RuntimeConfig.__dataclass_fields__)
        unknown = sorted(set(overrides) - valid)
        if unknown:
            hint = suggest(unknown[0], valid)
            raise TypeError(
                f"unknown repro.init() option(s) {unknown}{hint}; "
                f"valid RuntimeConfig fields: {sorted(valid)}"
            )
    with _runtime_lock:
        if _global_runtime is not None:
            raise RuntimeError("repro.init() called twice; call shutdown() first")
        _global_runtime = Runtime(config, **overrides)
        return _global_runtime


def shutdown() -> None:
    """Stop the global runtime (idempotent)."""
    global _global_runtime
    with _runtime_lock:
        if _global_runtime is not None:
            _global_runtime.shutdown()
            _global_runtime = None


def is_initialized() -> bool:
    return _global_runtime is not None


def get_runtime() -> Runtime:
    """The active runtime (the one servicing this thread, if in a task)."""
    runtime = context.current_runtime() or _global_runtime
    if runtime is None:
        raise RuntimeNotInitializedError("call repro.init() first")
    return runtime


# ---------------------------------------------------------------------------
# Futures
# ---------------------------------------------------------------------------


class ObjectRef:
    """A future for an object produced by a task, method, or ``put``."""

    __slots__ = ("object_id",)

    def __init__(self, object_id: ObjectID):
        self.object_id = object_id

    def hex(self) -> str:
        """The full object ID as a hex string (like ``ObjectRef.hex`` in Ray)."""
        return self.object_id.hex()

    def __hash__(self) -> int:
        return hash(self.object_id)

    def __eq__(self, other) -> bool:
        return isinstance(other, ObjectRef) and other.object_id == self.object_id

    def __repr__(self) -> str:
        return f"ObjectRef({self.object_id.hex()[:12]})"

    def __reduce__(self):
        return (ObjectRef, (self.object_id,))


def _encode_arg(value: Any) -> Any:
    if isinstance(value, ObjectRef):
        return ArgRef(value.object_id)
    return value


def _encode_args(
    args: Sequence[Any], kwargs: Dict[str, Any]
) -> Tuple[Tuple[Any, ...], Tuple[Tuple[str, Any], ...]]:
    encoded_args = tuple(_encode_arg(a) for a in args)
    encoded_kwargs = tuple(sorted((k, _encode_arg(v)) for k, v in kwargs.items()))
    return encoded_args, encoded_kwargs


def _to_ids(refs: Union[ObjectRef, Sequence[ObjectRef]]):
    if isinstance(refs, ObjectRef):
        return refs.object_id
    return [r.object_id for r in refs]


# ---------------------------------------------------------------------------
# Data plane
# ---------------------------------------------------------------------------


def put(value: Any) -> ObjectRef:
    """Store ``value`` in the local object store and return a future."""
    return ObjectRef(get_runtime().put(value))


def get(refs: Union[ObjectRef, Sequence[ObjectRef]], timeout: Optional[float] = None):
    """Blocking: return the value(s) for one future or a list of futures."""
    return get_runtime().get(_to_ids(refs), timeout=timeout)


def wait(
    refs: Sequence[ObjectRef],
    num_returns: int = 1,
    timeout: Optional[float] = None,
    fetch_local: bool = False,
) -> Tuple[List[ObjectRef], List[ObjectRef]]:
    """Block until ``num_returns`` futures are complete or timeout expires.

    With ``fetch_local=True`` the ready objects are also replicated to the
    caller's node before returning, making the subsequent ``get`` local.
    """
    ready, pending = get_runtime().wait(
        [r.object_id for r in refs],
        num_returns=num_returns,
        timeout=timeout,
        fetch_local=fetch_local,
    )
    return [ObjectRef(i) for i in ready], [ObjectRef(i) for i in pending]


def cancel(ref: ObjectRef, force: bool = False) -> bool:
    """Cancel the task that produces ``ref`` (like ``ray.cancel``).

    A task that has not started is dequeued and never runs; a running task
    is stopped cooperatively — its next blocking ``repro.get`` raises
    :class:`~repro.common.errors.TaskCancelledError` inside the task.  With
    ``force=True`` even a compute-bound task's outputs are replaced by the
    error at its finish boundary.  Every ``repro.get`` of a cancelled
    task's futures raises ``TaskCancelledError``.  Cancelling an already
    finished task is a no-op (returns False).
    """
    return get_runtime().cancel(ref.object_id, force=force)


# ---------------------------------------------------------------------------
# Remote functions
# ---------------------------------------------------------------------------


def _function_id_for(func) -> FunctionID:
    """Stable ID from the function's identity *and* code, so distinct
    same-named functions (common in tests) do not collide."""
    code = getattr(func, "__code__", None)
    if code is not None:
        # Bytecode alone is not enough: same-shaped functions differing only
        # in constants (x+1 vs x+2) share co_code.
        payload = code.co_code + repr(code.co_consts).encode() + repr(
            code.co_names
        ).encode()
        code_digest = hashlib.sha1(payload).hexdigest()
    else:
        code_digest = "builtin"
    return FunctionID.from_seed(
        f"{func.__module__}.{getattr(func, '__qualname__', repr(func))}:{code_digest}"
    )


class RemoteFunction:
    """A function invocable with ``.remote(args)`` returning futures."""

    def __init__(
        self,
        func,
        num_returns: int = 1,
        num_cpus: Optional[float] = None,
        num_gpus: Optional[float] = None,
        resources: Optional[Dict[str, float]] = None,
        max_retries: int = 0,
        retry_exceptions: Optional[Sequence[type]] = None,
    ):
        self._func = func
        self._num_returns = num_returns
        self._resources = normalize_resources(num_cpus, num_gpus, resources)
        self._max_retries = max_retries
        self._retry_exceptions = (
            None if retry_exceptions is None else tuple(retry_exceptions)
        )
        self._function_id = _function_id_for(func)
        self.__name__ = getattr(func, "__name__", "remote_function")
        self.__doc__ = func.__doc__
        self._intern()

    def _intern(self) -> None:
        # Canonicalize the invocation shape: every ``.remote()`` of this
        # function (and of ``.options()`` clones with equal options) then
        # shares one resources dict instead of copying a fresh one per
        # call.  Specs never mutate it — readers copy when they need
        # ownership.
        self._shape = intern_shape(
            self._function_id,
            self.__name__,
            self._num_returns,
            self._resources,
            max_retries=self._max_retries,
            retry_exceptions=self._retry_exceptions,
        )
        self._resources = self._shape.resources

    def options(self, **kwargs: Any) -> "RemoteFunction":
        """A copy of this remote function with overridden invocation options.

        Validated through the shared :class:`~repro.common.options.Options`
        path (surface ``"task"``); unknown keys raise ``TypeError`` with a
        did-you-mean suggestion.  Chained calls *merge*: a later
        ``.options()`` overrides only the fields it actually sets.
        """
        opts = Options.for_surface("task", **kwargs)
        clone = RemoteFunction(
            self._func,
            num_returns=opts.get("num_returns", self._num_returns),
            max_retries=opts.get("max_retries", self._max_retries),
            retry_exceptions=opts.get("retry_exceptions", self._retry_exceptions),
        )
        if any(opts.is_set(k) for k in ("num_cpus", "num_gpus", "resources")):
            clone._resources = normalize_resources(
                opts.get("num_cpus"), opts.get("num_gpus"), opts.get("resources")
            )
        else:
            clone._resources = self._resources
        clone._intern()
        return clone

    def remote(self, *args: Any, **kwargs: Any):
        """Invoke remotely; returns one ObjectRef or a tuple of them."""
        runtime = get_runtime()
        runtime.ensure_function_registered(self._function_id, self._func)
        encoded_args, encoded_kwargs = _encode_args(args, kwargs)
        return_ids = runtime.submit_task(
            self._function_id,
            self.__name__,
            encoded_args,
            encoded_kwargs,
            num_returns=self._num_returns,
            resources=self._resources,
            max_retries=self._max_retries,
            retry_exceptions=self._retry_exceptions,
        )
        refs = tuple(ObjectRef(i) for i in return_ids)
        if self._num_returns == 1:
            return refs[0]
        return refs

    def submit_many(self, calls: Sequence[Sequence[Any]]) -> List[Any]:
        """Submit one invocation per element of ``calls`` in a single batch.

        Each element is a tuple of positional arguments (``()`` for a
        no-arg call; use ``.remote()`` for keyword arguments).  The whole
        batch's GCS task rows and lifecycle events ride in its placement
        writes — one for every call the submitting node keeps — which is
        the cheap way to launch large fan-outs.  Returns one future per call (or one tuple of futures
        per call when ``num_returns > 1``), in submission order.
        """
        runtime = get_runtime()
        runtime.ensure_function_registered(self._function_id, self._func)
        encoded = [_encode_args(tuple(args), {}) for args in calls]
        id_tuples = runtime.submit_many(
            self._function_id,
            self.__name__,
            encoded,
            num_returns=self._num_returns,
            resources=self._resources,
            max_retries=self._max_retries,
            retry_exceptions=self._retry_exceptions,
        )
        if self._num_returns == 1:
            return [ObjectRef(ids[0]) for ids in id_tuples]
        return [tuple(ObjectRef(i) for i in ids) for ids in id_tuples]

    def __call__(self, *args: Any, **kwargs: Any):
        raise TypeError(
            f"remote function {self.__name__} cannot be called directly; "
            "use .remote()"
        )


def submit_many(
    func: "RemoteFunction", calls: Sequence[Sequence[Any]]
) -> List[Any]:
    """Batch-submit many calls of one remote function — see
    :meth:`RemoteFunction.submit_many`."""
    if not isinstance(func, RemoteFunction):
        raise TypeError(
            "submit_many expects a @repro.remote function, got "
            f"{type(func).__name__}"
        )
    return func.submit_many(calls)


# ---------------------------------------------------------------------------
# Actors
# ---------------------------------------------------------------------------


class ActorMethod:
    """Bound ``actor.method`` supporting ``.remote(args)``."""

    def __init__(
        self,
        handle: "ActorHandle",
        method_name: str,
        num_returns: int = 1,
        max_retries: Optional[int] = None,
        retry_exceptions: Optional[Sequence[type]] = None,
    ):
        self._handle = handle
        self._method_name = method_name
        self._num_returns = num_returns
        self._max_retries = max_retries
        self._retry_exceptions = (
            None if retry_exceptions is None else tuple(retry_exceptions)
        )

    def options(self, **kwargs: Any) -> "ActorMethod":
        """A copy of this bound method with overridden per-call options
        (shared :class:`~repro.common.options.Options` path, surface
        ``"method"``; chained calls merge)."""
        opts = Options.for_surface("method", **kwargs)
        return ActorMethod(
            self._handle,
            self._method_name,
            num_returns=opts.get("num_returns", self._num_returns),
            max_retries=opts.get("max_retries", self._max_retries),
            retry_exceptions=opts.get("retry_exceptions", self._retry_exceptions),
        )

    def remote(self, *args: Any, **kwargs: Any):
        runtime = get_runtime()
        encoded_args, encoded_kwargs = _encode_args(args, kwargs)
        return_ids = runtime.submit_actor_method(
            self._handle.actor_id,
            self._method_name,
            encoded_args,
            encoded_kwargs,
            num_returns=self._num_returns,
            max_retries=self._max_retries,
            retry_exceptions=self._retry_exceptions,
        )
        refs = tuple(ObjectRef(i) for i in return_ids)
        if self._num_returns == 1:
            return refs[0]
        return refs


class ActorHandle:
    """A handle to a remote actor; can be passed to tasks and other actors."""

    def __init__(self, actor_id: ActorID):
        self.actor_id = actor_id

    def __getattr__(self, name: str) -> ActorMethod:
        if name.startswith("_"):
            raise AttributeError(name)
        return ActorMethod(self, name)

    def __repr__(self) -> str:
        """Stable, greppable form carrying class, name, and incarnation
        when the runtime can resolve them, e.g.
        ``ActorHandle(Counter, 1f2e3d4c5b6a, name='alpha', incarnation=2)``."""
        short = self.actor_id.hex()[:12]
        runtime = context.current_runtime() or _global_runtime
        actors = getattr(runtime, "actors", None)
        state = actors.get_state(self.actor_id) if actors is not None else None
        if state is None:
            return f"ActorHandle({short})"
        name_part = f", name={state.name!r}" if state.name else ""
        return (
            f"ActorHandle({state.class_name}, {short}{name_part}, "
            f"incarnation={state.incarnation})"
        )

    def __reduce__(self):
        return (ActorHandle, (self.actor_id,))


class ActorClass:
    """A class invocable with ``.remote(args)`` returning an ActorHandle."""

    def __init__(
        self,
        cls: type,
        num_cpus: Optional[float] = None,
        num_gpus: Optional[float] = None,
        resources: Optional[Dict[str, float]] = None,
        checkpoint_interval: Optional[int] = None,
        max_restarts: int = 4,
        name: Optional[str] = None,
    ):
        self._cls = cls
        self._resources = normalize_resources(num_cpus, num_gpus, resources)
        self._checkpoint_interval = checkpoint_interval
        self._max_restarts = max_restarts
        self._name = name
        self.__name__ = cls.__name__
        self.__doc__ = cls.__doc__

    def options(self, **kwargs: Any) -> "ActorClass":
        """A copy of this actor class with overridden creation options.

        Shared :class:`~repro.common.options.Options` path (surface
        ``"actor"``).  Chained calls merge; in particular, a call that
        sets no resource field *keeps* the decorator's resources instead
        of resetting them to the defaults (the historical divergence from
        ``RemoteFunction.options``).
        """
        opts = Options.for_surface("actor", **kwargs)
        clone = ActorClass(
            self._cls,
            checkpoint_interval=opts.get(
                "checkpoint_interval", self._checkpoint_interval
            ),
            max_restarts=opts.get("max_restarts", self._max_restarts),
            name=opts.get("name", self._name),
        )
        if any(opts.is_set(k) for k in ("num_cpus", "num_gpus", "resources")):
            clone._resources = normalize_resources(
                opts.get("num_cpus"), opts.get("num_gpus"), opts.get("resources")
            )
        else:
            clone._resources = self._resources
        return clone

    def remote(self, *args: Any, **kwargs: Any) -> ActorHandle:
        """Instantiate the class as a remote actor (paper Table 1).

        A ``name`` given via ``.options(name=...)`` registers the actor in
        the cluster-wide name registry (``repro.get_actor``); duplicate
        names raise ValueError before the actor is created.
        """
        runtime = get_runtime()
        encoded_args, encoded_kwargs = _encode_args(args, kwargs)
        actor_id = runtime.create_actor(
            self._cls,
            encoded_args,
            encoded_kwargs,
            resources=dict(self._resources),
            checkpoint_interval=self._checkpoint_interval,
            max_restarts=self._max_restarts,
            name=self._name,
        )
        return ActorHandle(actor_id)

    def __call__(self, *args: Any, **kwargs: Any):
        raise TypeError(
            f"actor class {self.__name__} cannot be instantiated directly; "
            "use .remote()"
        )


def get_actor(name: str) -> ActorHandle:
    """Look up a live named actor (like ``ray.get_actor``).

    Raises ValueError if no live actor holds the name — either it was
    never registered, or it died permanently (which frees the name).
    """
    state = get_runtime().actors.get_by_name(name)
    if state is None:
        raise ValueError(f"no live actor named {name!r}")
    return ActorHandle(state.actor_id)


def nodes() -> List[Dict[str, Any]]:
    """Cluster membership snapshot (like ``ray.nodes``): one dict per node
    — id, liveness, resources, and object-store occupancy — including dead
    nodes, in creation order."""
    return get_runtime().nodes_info()


def cluster_resources() -> Dict[str, float]:
    """Total resources of all live nodes (like ``ray.cluster_resources``)."""
    return get_runtime().cluster_resources()


def available_resources() -> Dict[str, float]:
    """Currently unclaimed resources across all live nodes."""
    return get_runtime().available_resources()


def method(
    read_only: bool = False,
    max_retries: int = 0,
    retry_exceptions: Optional[Sequence[type]] = None,
):
    """Annotate an actor method (like ``ray.method``).

    ``read_only=True`` declares that the method does not mutate the actor's
    state, allowing reconstruction to skip replaying it when its outputs
    still exist — the optimization the paper proposes in Section 5.1
    ("allowing users to annotate methods that do not mutate state").

    ``max_retries`` / ``retry_exceptions`` enable in-place app-level
    retries for the method (overridable per call via
    ``actor.method.options(...)``); a retried method still counts once
    toward ``checkpoint_interval``.

        @repro.remote
        class Store:
            @repro.method(read_only=True)
            def peek(self):
                return self.value
    """

    def decorator(func):
        func.__repro_read_only__ = read_only
        func.__repro_max_retries__ = max_retries
        func.__repro_retry_exceptions__ = (
            None if retry_exceptions is None else tuple(retry_exceptions)
        )
        return func

    return decorator


def free(
    refs: Union[ObjectRef, Sequence[ObjectRef]], delete_lineage: bool = False
) -> int:
    """Drop all copies of the given objects from every object store.

    With ``delete_lineage=True`` the producing tasks' GCS records are also
    removed, permanently bounding GCS memory at the cost of making the
    objects unrecoverable (see ``repro.core.gc``): a later ``get`` raises
    ``ObjectLostError`` at once.  The GCS is lineage's only home, so this
    bounds the driver's memory too: no other copy of the specs or their
    by-value arguments is kept.
    """
    from repro.core.gc import free_objects

    ids = _to_ids(refs)
    if not isinstance(ids, list):
        ids = [ids]
    return free_objects(get_runtime(), ids, delete_lineage=delete_lineage)


def kill(actor: ActorHandle, restart: bool = False) -> None:
    """Terminate an actor (like ``ray.kill``).

    Releases the actor's lifetime resources.  With ``restart=False`` the
    actor is gone for good: pending and future method calls resolve to
    :class:`~repro.common.errors.ActorDiedError`.  With ``restart=True``
    this simulates a crash, exercising checkpoint-replay reconstruction.
    """
    get_runtime().actors.kill_actor(actor.actor_id, restart=restart)


# ---------------------------------------------------------------------------
# The @remote decorator
# ---------------------------------------------------------------------------


def remote(*args: Any, **kwargs: Any):
    """Turn a function into a :class:`RemoteFunction` or a class into an
    :class:`ActorClass`.

    Usable bare (``@remote``) or with options
    (``@remote(num_gpus=1, num_returns=2)``).
    """
    if len(args) == 1 and not kwargs and (callable(args[0]) or isinstance(args[0], type)):
        return _wrap_remote(args[0])
    if args:
        raise TypeError("remote() options must be passed as keywords")

    def decorator(target):
        return _wrap_remote(target, **kwargs)

    return decorator


def _wrap_remote(target, **options: Any):
    # Decorator keywords flow through the same Options validation path as
    # every .options() surface — one place rejects unknown keys.
    if isinstance(target, type):
        opts = Options.for_surface("actor", **options)
        return ActorClass(
            target,
            num_cpus=opts.get("num_cpus"),
            num_gpus=opts.get("num_gpus"),
            resources=opts.get("resources"),
            checkpoint_interval=opts.get("checkpoint_interval"),
            max_restarts=opts.get("max_restarts", 4),
            name=opts.get("name"),
        )
    opts = Options.for_surface("task", **options)
    return RemoteFunction(
        target,
        num_returns=opts.get("num_returns", 1),
        num_cpus=opts.get("num_cpus"),
        num_gpus=opts.get("num_gpus"),
        resources=opts.get("resources"),
        max_retries=opts.get("max_retries", 0),
        retry_exceptions=opts.get("retry_exceptions"),
    )
