"""Chain replication for GCS shards.

Each GCS shard is replicated with chain replication (van Renesse &
Schneider, OSDI'04): writes enter at the *head*, propagate member by member
to the *tail*, and are acknowledged by the tail; reads are served by the
tail.  This gives linearizability with a single round of messages per
member.

Reconfiguration follows the paper's Figure 10a setup: failures are reported
to the chain *master* either by the client (explicit errors / timeouts
despite retries) or by any server in the chain; the master removes the dead
member, and a new member may join at the tail after a state transfer from
the current tail.

Every write — put, append and delete — is one
:meth:`ReplicatedChain.write_batch` pass: it runs the fault hook, pays one
hop per member, and on a dead member reports it to the master and retries.
Puts and appends are then published to the key's subscribers; a delete
publishes nothing.

The implementation is a real protocol over in-process replicas.  Optional
``hop_delay`` / ``transfer_delay_per_entry`` knobs make latency effects
visible on a wall clock for the Fig 10a benchmark.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.common.lockwatch import make_rlock
from repro.common.errors import ChainUnavailableError
from repro.common.faults import NULL_FAULTS
from repro.gcs.kv import KVStore


class ReplicaDeadError(Exception):
    """An operation reached a replica that has failed."""

    def __init__(self, replica: "ChainReplica"):
        self.replica = replica
        super().__init__(f"replica {replica.replica_id} is dead")


class ChainReplica:
    """One member of a replication chain, wrapping a local KV store."""

    _next_id = 0

    def __init__(self):
        self.replica_id = ChainReplica._next_id
        ChainReplica._next_id += 1
        self.store = KVStore()
        self.alive = True

    def apply_put(self, key: Any, value: Any) -> None:
        if not self.alive:
            raise ReplicaDeadError(self)
        self.store.put(key, value)

    def apply_append(self, key: Any, entry: Any) -> None:
        if not self.alive:
            raise ReplicaDeadError(self)
        self.store.append(key, entry)

    def apply_delete(self, key: Any) -> None:
        if not self.alive:
            raise ReplicaDeadError(self)
        self.store.delete(key)

    def read(self, key: Any, default: Any = None) -> Any:
        if not self.alive:
            raise ReplicaDeadError(self)
        return self.store.get(key, default)

    def read_log(self, key: Any) -> List[Any]:
        if not self.alive:
            raise ReplicaDeadError(self)
        return self.store.log(key)

    def kill(self) -> None:
        self.alive = False


class ReplicatedChain:
    """A chain-replicated KV shard with master-driven reconfiguration.

    Exposes :class:`KVStore`'s single-key surface (put / get / append /
    log, and delete as a :meth:`write_batch` op), pub-sub that survives
    reconfiguration (subscribe), and membership operations used by the
    fault tolerance experiments.
    """

    def __init__(
        self,
        num_replicas: int = 2,
        hop_delay: float = 0.0,
        transfer_delay_per_entry: float = 0.0,
        failure_detection_delay: float = 0.0,
        faults: Any = None,
        shard_index: int = 0,
    ):
        if num_replicas < 1:
            raise ValueError("chain needs at least one replica")
        self._lock = make_rlock("ReplicatedChain._lock")
        self._members: List[ChainReplica] = [
            ChainReplica() for _ in range(num_replicas)
        ]
        self._subscribers: Dict[Any, List[Callable[[Any, Any], None]]] = {}
        self.hop_delay = hop_delay
        self.transfer_delay_per_entry = transfer_delay_per_entry
        self.failure_detection_delay = failure_detection_delay
        # Fault-injection hook (null-object when disabled): consulted at
        # write entry, so an injected member kill is discovered by the very
        # write that triggered it, exercising the Figure 10a reconfiguration.
        self.faults = faults if faults is not None else NULL_FAULTS
        self.shard_index = shard_index
        self.reconfigurations = 0
        self.failed_writes = 0

    # -- membership --------------------------------------------------------

    @property
    def members(self) -> List[ChainReplica]:
        with self._lock:
            return list(self._members)

    def chain_length(self) -> int:
        with self._lock:
            return len(self._members)

    def kill_member(self, index: int = 0) -> ChainReplica:
        """Kill the member at ``index`` (0 = head).  Does *not* reconfigure;
        the failure is discovered on the next operation, as in the paper."""
        with self._lock:
            replica = self._members[index]
        replica.kill()
        return replica

    def report_failure(self, replica: ChainReplica) -> None:
        """Master-side handling of a failure report: drop the dead member."""
        if self.failure_detection_delay:
            time.sleep(self.failure_detection_delay)
        with self._lock:
            if replica in self._members:
                self._members.remove(replica)
                self.reconfigurations += 1
            if not self._members:
                raise ChainUnavailableError("all chain members failed")

    def add_member(self) -> ChainReplica:
        """Join a fresh replica at the tail after state transfer."""
        new = ChainReplica()
        with self._lock:
            if self._members:
                data, logs = self._members[-1].store.snapshot()
                entries = len(data) + sum(len(v) for v in logs.values())
                if self.transfer_delay_per_entry:
                    # Baselined RT-BLOCKING-UNDER-LOCK: the modeled transfer
                    # time must elapse under _lock or writes accepted
                    # mid-transfer would desync the snapshot.
                    time.sleep(self.transfer_delay_per_entry * entries)
                new.store.load_snapshot(data, logs)
            self._members.append(new)
            self.reconfigurations += 1
        return new

    # -- operations ---------------------------------------------------------

    def put(self, key: Any, value: Any, max_retries: int = 8) -> None:
        self.write_batch([("put", key, value)], max_retries=max_retries)

    def append(self, key: Any, entry: Any, max_retries: int = 8) -> None:
        self.write_batch([("append", key, entry)], max_retries=max_retries)

    def write_batch(
        self, ops: List[tuple], max_retries: int = 8
    ) -> None:
        """Apply ``[(op, key, value), ...]`` (op = "put" | "append" |
        "delete", a delete's value ``None``) in one pass down the chain —
        one hop per member for the whole batch — then publish each put and
        append.  The one write path: ``put`` and ``append`` are batches of
        one, and a delete is never published.  A member found dead is
        reported to the master and the whole batch is retried against the
        reconfigured chain."""
        if not ops:
            return
        if self.faults.enabled:
            self.faults.on_chain_write(self.shard_index, self)
        for _ in range(max_retries + 1):
            with self._lock:
                members = list(self._members)
            if not members:
                raise ChainUnavailableError("chain has no members")
            try:
                for replica in members:
                    if self.hop_delay:
                        time.sleep(self.hop_delay)
                    for op, key, value in ops:
                        if op == "put":
                            replica.apply_put(key, value)
                        elif op == "append":
                            replica.apply_append(key, value)
                        else:
                            replica.apply_delete(key)
            except ReplicaDeadError as exc:
                # The client observed an explicit error: report to master
                # and retry against the reconfigured chain.
                self.failed_writes += 1
                self.report_failure(exc.replica)
                continue
            for op, key, value in ops:
                if op != "delete":
                    self._publish(key, value)
            return
        raise ChainUnavailableError("chain write failed after retries")

    def get(self, key: Any, default: Any = None, max_retries: int = 8) -> Any:
        for _ in range(max_retries + 1):
            with self._lock:
                if not self._members:
                    raise ChainUnavailableError("chain has no members")
                tail = self._members[-1]
            try:
                if self.hop_delay:
                    time.sleep(self.hop_delay)
                return tail.read(key, default)
            except ReplicaDeadError as exc:
                self.report_failure(exc.replica)
        raise ChainUnavailableError(f"read of {key!r} failed after retries")

    def log(self, key: Any) -> List[Any]:
        with self._lock:
            if not self._members:
                raise ChainUnavailableError("chain has no members")
            tail = self._members[-1]
        try:
            return tail.read_log(key)
        except ReplicaDeadError as exc:
            self.report_failure(exc.replica)
            return self.log(key)

    def num_entries(self) -> int:
        with self._lock:
            if not self._members:
                return 0
            return self._members[-1].store.num_entries()

    def approx_bytes(self) -> int:
        with self._lock:
            if not self._members:
                return 0
            return self._members[-1].store.approx_bytes()

    def keys(self) -> List[Any]:
        with self._lock:
            if not self._members:
                return []
            return self._members[-1].store.keys()

    # -- pub-sub (chain-level, survives reconfiguration) --------------------

    def subscribe(
        self, key: Any, callback: Callable[[Any, Any], None]
    ) -> Callable[[], None]:
        with self._lock:
            self._subscribers.setdefault(key, []).append(callback)

        def unsubscribe() -> None:
            with self._lock:
                handlers = self._subscribers.get(key)
                if handlers and callback in handlers:
                    handlers.remove(callback)
                    if not handlers:
                        del self._subscribers[key]

        return unsubscribe

    def num_subscriptions(self) -> int:
        """Active pub-sub registrations (waiters watching keys)."""
        with self._lock:
            return sum(len(handlers) for handlers in self._subscribers.values())

    def _publish(self, key: Any, value: Any) -> None:
        with self._lock:
            callbacks = list(self._subscribers.get(key, ()))
        for cb in callbacks:
            cb(key, value)
