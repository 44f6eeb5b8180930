"""Exception hierarchy for the repro runtime."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro framework."""


class RuntimeNotInitializedError(ReproError):
    """An API call was made before ``repro.init()``."""


class ObjectLostError(ReproError):
    """An object is not in any store and cannot be reconstructed."""

    def __init__(self, object_id, message: str = ""):
        self.object_id = object_id
        super().__init__(message or f"object {object_id!r} lost and not reconstructible")

    def __reduce__(self):
        return (type(self), (self.object_id, self.args[0]))


class ObjectStoreFullError(ReproError):
    """The object store cannot fit an object even after eviction."""


class TaskExecutionError(ReproError):
    """A remote function raised; the exception is propagated to ``get``.

    Mirrors Ray's behaviour: the error is stored in place of the return
    value and re-raised (wrapped) at every ``get`` of the result.
    """

    def __init__(self, task_id, cause: BaseException):
        self.task_id = task_id
        self.cause = cause
        super().__init__(f"task {task_id!r} failed: {cause!r}")

    def __reduce__(self):
        return (type(self), (self.task_id, self.cause))


class ActorDiedError(ReproError):
    """A method was called on an actor that died and cannot be restarted."""


class NodeDiedError(ReproError):
    """The node an operation was bound to died while the operation blocked.

    Raised out of blocking fetches pinned to a node that failed mid-wait.
    Worker threads stranded on a killed node use it to exit quietly: the
    failure path (``Runtime.kill_node``) has already resubmitted their
    tasks elsewhere, so the replacement execution owns the outputs.
    """

    def __init__(self, node_id=None):
        self.node_id = node_id
        super().__init__(f"node {node_id!r} died during the operation")


class TaskCancelledError(ReproError):
    """A task was cancelled via ``repro.cancel``.

    Like :class:`TaskExecutionError`, the instance is stored in place of
    the task's return value(s): every ``get`` of a cancelled output
    re-raises it, and downstream tasks consuming the output propagate it
    instead of running.
    """

    def __init__(self, task_id=None, message: str = ""):
        self.task_id = task_id
        super().__init__(message or f"task {task_id!r} was cancelled")

    def __reduce__(self):
        return (type(self), (self.task_id, self.args[0]))


class GetTimeoutError(ReproError):
    """``get`` with a timeout expired before the object became available."""


class ResourceRequestError(ReproError):
    """A task's resource request can never be satisfied by the cluster."""


class ChainUnavailableError(ReproError):
    """The replication chain has no live members."""


class NodeFencedError(ReproError):
    """A killed node incarnation's guarded batch was rejected unwritten."""


class CheckpointError(ReproError):
    """An actor checkpoint could not be saved or restored."""


class BackpressureError(ReproError):
    """A serve router shed a request because its pending queue is full.

    Raised synchronously by ``DeploymentHandle.submit``/``query`` when the
    deployment's admission bound (``max_queue_per_replica * num_replicas``)
    is reached; the HTTP ingress maps it to a 429 response.  Clients should
    back off and retry.
    """
