"""Spans timed from outside: wrap public callables of every layer.

The tracer swaps a class attribute (or every module-level alias of a
function) for a timing wrapper, keeps ``(id, name, start, end, parent,
thread, op, tag)`` tuples in memory, and puts the originals back on
``uninstall()``.  Nothing under ``src`` knows it exists, so a later change
cannot move, rename or redefine a span without the span list below failing
loudly at install time.

* ``parent`` is the innermost open span on the same thread (thread-local
  stack); -1 for a root.
* ``op`` is the operation the load generator was running when the span
  opened.  Closed loops have one op in flight, so it is right on every
  thread; open loops have many, so non-generator threads are matched by
  ``tag`` (the request payload) instead.
* self time = a span's duration minus the part its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# (span name, module, attribute path).  An attribute path with a dot names a
# class attribute; without, a module-level function, patched at every
# ``from x import f`` alias.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("api.remote", "repro.api", "RemoteFunction.remote"),
    ("api.submit_many", "repro.api", "RemoteFunction.submit_many"),
    ("api.actor_method", "repro.api", "ActorMethod.remote"),
    ("api.put", "repro.api", "put"),
    ("api.get", "repro.api", "get"),
    ("api.free", "repro.api", "free"),
    ("runtime.submit_task", "repro.core.runtime", "Runtime.submit_task"),
    ("runtime.submit_many", "repro.core.runtime", "Runtime.submit_many"),
    ("runtime.submit_actor_method", "repro.core.runtime", "Runtime.submit_actor_method"),
    ("runtime.put", "repro.core.runtime", "Runtime.put"),
    ("runtime.get", "repro.core.runtime", "Runtime.get"),
    ("runtime.fetch_to_node", "repro.core.runtime", "Runtime.fetch_to_node"),
    ("gcs.add_task", "repro.gcs.client", "GlobalControlStore.add_task"),
    ("gcs.add_tasks", "repro.gcs.client", "GlobalControlStore.add_tasks"),
    ("gcs.set_task_states", "repro.gcs.client", "GlobalControlStore.set_task_states"),
    ("gcs.finish_task", "repro.gcs.client", "GlobalControlStore.finish_task"),
    ("gcs.add_task_outputs", "repro.gcs.client", "GlobalControlStore.add_task_outputs"),
    ("gcs.record_event", "repro.gcs.client", "GlobalControlStore.record_event"),
    ("gcs.shard.put", "repro.gcs.shard", "ShardedKV.put"),
    ("gcs.shard.get", "repro.gcs.shard", "ShardedKV.get"),
    ("gcs.shard.append", "repro.gcs.shard", "ShardedKV.append"),
    ("gcs.shard.batch", "repro.gcs.shard", "ShardedKV.batch"),
    ("gcs.chain.put", "repro.gcs.chain", "ReplicatedChain.put"),
    ("gcs.chain.get", "repro.gcs.chain", "ReplicatedChain.get"),
    ("gcs.chain.append", "repro.gcs.chain", "ReplicatedChain.append"),
    ("gcs.chain.write_batch", "repro.gcs.chain", "ReplicatedChain.write_batch"),
    ("local_scheduler.submit", "repro.core.local_scheduler", "LocalScheduler.submit"),
    ("local_scheduler.submit_many", "repro.core.local_scheduler", "LocalScheduler.submit_many"),
    ("local_scheduler.place", "repro.core.local_scheduler", "LocalScheduler.place"),
    ("global_scheduler.schedule", "repro.core.global_scheduler", "GlobalScheduler.schedule"),
    ("worker.execute_task", "repro.core.worker", "execute_task"),
    ("worker.resolve_args", "repro.core.worker", "resolve_args"),
    ("worker.store_outputs", "repro.core.worker", "store_outputs"),
    ("actor.submit_method", "repro.core.actor", "ActorManager.submit_method"),
    ("object_store.put", "repro.core.object_store", "LocalObjectStore.put"),
    ("object_store.get", "repro.core.object_store", "LocalObjectStore.get"),
    ("object_store.load_value", "repro.core.object_store", "LocalObjectStore.load_value"),
    ("serialization.serialize", "repro.common.serialization", "serialize"),
    ("serialization.deserialize", "repro.common.serialization", "deserialize"),
    ("transfer.ensure_local", "repro.core.transfer", "ObjectFetcher.ensure_local"),
    ("transfer.transfer", "repro.core.transfer", "TransferService.transfer"),
    ("gc.free_objects", "repro.core.gc", "free_objects"),
    ("serve.router.submit", "repro.serve.router", "Router.submit"),
    ("serve.replica.handle_batch", "repro.serve.deployment", "ServeReplica.handle_batch"),
)

# What identifies the request(s) a call serves, from its positional args
# (``self`` first): how spans on different threads are matched on open loops.
TAGS: Dict[str, Callable[[tuple], Any]] = {
    "serve.router.submit": lambda args: args[1],
    "serve.replica.handle_batch": lambda args: tuple(args[1]),
}

# Record layout (a tuple per finished span).
ID, NAME, START, END, PARENT, THREAD, OP, TAG = range(8)

TRACE_FILE_MAX_SPANS = 200_000  # the file is for reading; metrics use every span


class Tracer:
    """Owns the patches and the recorded spans of one traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = [target[0] for target in TARGETS]
        self.records: List[tuple] = []
        self.op: int = -1  # set by the load generator before each op
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for index, (name, module_name, path) in enumerate(TARGETS):
            tag = TAGS.get(name)
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(index, original, tag))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(index, original, tag)
            for alias in list(sys.modules.values()):
                if (
                    getattr(alias, "__name__", "").split(".")[0] == "repro"
                    and getattr(alias, path, None) is original
                ):
                    self._patch(alias, path, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, index: int, fn: Callable, tag: Optional[Callable]) -> Callable:
        append = self.records.append
        local = self._local
        ids = self._ids
        clock = time.perf_counter
        ident = threading.get_ident
        tracer = self

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            op = tracer.op
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                append(
                    (
                        span_id,
                        index,
                        start,
                        end,
                        parent,
                        ident(),
                        op,
                        tag(args) if tag is not None else None,
                    )
                )

        return span

    # -- reading --------------------------------------------------------

    def by_name(self) -> Dict[str, List[tuple]]:
        out: Dict[str, List[tuple]] = {name: [] for name in self.names}
        names = self.names
        for record in self.records:
            out[names[record[NAME]]].append(record)
        return out

    def self_times(self) -> Dict[int, float]:
        """Span id -> seconds not covered by its direct children."""
        covered: Dict[int, float] = {}
        for record in self.records:
            parent = record[PARENT]
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (
                    record[END] - record[START]
                )
        return {
            record[ID]: max(0.0, record[END] - record[START] - covered.get(record[ID], 0.0))
            for record in self.records
        }

    def dump(self, path: str, origin: float, meta: Dict[str, Any]) -> None:
        """Write the first spans (by id) as JSON; times are seconds since
        ``origin``."""
        spans = [
            [
                r[ID],
                r[NAME],
                round(r[START] - origin, 7),
                round(r[END] - origin, 7),
                r[PARENT],
                r[THREAD],
                r[OP],
                r[TAG],
            ]
            for r in sorted(self.records)[:TRACE_FILE_MAX_SPANS]
        ]
        with open(path, "w") as handle:
            json.dump(
                {
                    "meta": meta,
                    "names": self.names,
                    "fields": [
                        "id", "name", "start_s", "end_s", "parent", "thread",
                        "op", "tag",
                    ],
                    "spans": spans,
                },
                handle,
                separators=(",", ":"),
            )


def durations_ms(records: Sequence[tuple]) -> List[float]:
    return [(r[END] - r[START]) * 1e3 for r in records]
