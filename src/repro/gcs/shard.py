"""Sharding of the GCS key space across replication chains.

GCS tables are sharded by object and task IDs to scale (paper Section
4.2.4).  Keys are ``(table_name, entity_id)`` tuples; the shard is chosen
from the entity ID when it is a :class:`~repro.common.ids.BaseID`, and from
a stable hash otherwise, so all rows of all tables for one entity land on
one shard.  :meth:`ShardedKV.fence` keeps a killed node's late guarded
writes out of every table.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import NodeFencedError
from repro.common.events import BACKSTOP_INTERVAL
from repro.common.ids import BaseID, shard_index
from repro.common.lockwatch import make_condition
from repro.common.metrics import MetricsRegistry, NULL_REGISTRY
from repro.gcs.chain import ReplicatedChain


def _shard_of(key: Any, num_shards: int) -> int:
    entity = key[1] if isinstance(key, tuple) and len(key) == 2 else key
    if isinstance(entity, BaseID):
        return shard_index(entity, num_shards)
    digest = hashlib.sha1(repr(entity).encode("utf-8")).digest()
    return int.from_bytes(digest[-4:], "little") % num_shards


class Guarded(list):
    """Batch ops guarded by the ``(node_id, epoch)`` incarnation issuing
    them: on the list itself, so every wrapper of ``batch`` passes it on."""

    __slots__ = ("guard",)

    def __init__(self, guard: Tuple[Any, int]):
        super().__init__()
        self.guard = guard


class ShardedKV:
    """A KV store sharded across ``num_shards`` replication chains."""

    def __init__(
        self,
        num_shards: int = 1,
        num_replicas: int = 2,
        hop_delay: float = 0.0,
        transfer_delay_per_entry: float = 0.0,
        metrics: Optional[MetricsRegistry] = None,
        faults: Any = None,
    ):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.shards: List[ReplicatedChain] = [
            ReplicatedChain(
                num_replicas=num_replicas,
                hop_delay=hop_delay,
                transfer_delay_per_entry=transfer_delay_per_entry,
                faults=faults,
                shard_index=index,
            )
            for index in range(num_shards)
        ]
        metrics = metrics or NULL_REGISTRY
        # Pre-built per-shard counter rows: the hot path does one dict
        # lookup + one locked increment per operation.
        self._op_counters = [
            {
                op: metrics.counter(
                    "gcs_ops_total",
                    "GCS single-key operations per shard",
                    shard=str(index),
                    op=op,
                )
                for op in ("get", "put", "append", "log", "delete")
            }
            for index in range(num_shards)
        ]
        self._publish_counters = [
            metrics.counter(
                "gcs_publishes_total",
                "Pub-sub publications (one per successful put or append)",
                shard=str(index),
            )
            for index in range(num_shards)
        ]
        self._batch_counters = [
            metrics.counter(
                "gcs_batch_writes_total",
                "Coalesced multi-op shard writes",
                shard=str(index),
            )
            for index in range(num_shards)
        ]
        self._m_batch_size = metrics.histogram(
            "gcs_batch_size",
            "Operations coalesced into one shard write",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        # Flushes one batch's per-shard groups concurrently when chain
        # hops cost real time (threads are spawned lazily on first use and
        # reused, so batches in the free-hop regime never pay for them).
        # Sized for concurrent *issuers* (every node's finish drain, the
        # placing threads and the transfer threads write at once), not for
        # shard count — an undersized pool makes callers queue behind each
        # other's round-trips.
        self._flush_pool = ThreadPoolExecutor(
            max_workers=max(16, 2 * num_shards),
            thread_name_prefix="gcs-batch-flush",
        )
        # Fencing: node -> its last killed epoch, and per node the guarded
        # batches admitted past that check and not yet applied.
        self._fence = make_condition("ShardedKV._fence")
        self._fenced: Dict[Any, int] = {}
        self._admitted: Counter = Counter()

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_for(self, key: Any) -> ReplicatedChain:
        return self.shards[_shard_of(key, len(self.shards))]

    # -- delegated single-key surface ---------------------------------------

    def put(self, key: Any, value: Any) -> None:
        index = _shard_of(key, len(self.shards))
        self.shards[index].put(key, value)
        self._op_counters[index]["put"].inc()
        self._publish_counters[index].inc()

    def get(self, key: Any, default: Any = None) -> Any:
        index = _shard_of(key, len(self.shards))
        self._op_counters[index]["get"].inc()
        return self.shards[index].get(key, default)

    def append(self, key: Any, entry: Any) -> None:
        index = _shard_of(key, len(self.shards))
        self.shards[index].append(key, entry)
        self._op_counters[index]["append"].inc()
        self._publish_counters[index].inc()

    def batch(self, ops: List[tuple]) -> None:
        """Apply ``[(op, key, value), ...]`` (op = "put" | "append" |
        "delete") grouped into one write per shard.  Keys of one entity (e.g. an object's location log and
        metadata row) shard together, so a task's per-output writes
        coalesce instead of paying one chain round-trip each.  Relative
        order is preserved within each shard group.

        Shards are independent servers, so when chain hops cost real time
        (``hop_delay`` models the remote round-trip) the per-shard flushes
        are issued concurrently — one batch spanning N shards pays one
        round-trip, not N back to back.  With free hops the serial loop is
        cheaper than spawning threads.

        A :class:`Guarded` batch of a fenced incarnation raises
        :class:`NodeFencedError` before any shard is written.
        """
        node_id, epoch = getattr(ops, "guard", (None, 0))
        if node_id is None:
            return self._apply(ops)
        with self._fence:
            if epoch <= self._fenced.get(node_id, -1):
                raise NodeFencedError(node_id)
            self._admitted[node_id] += 1
        try:
            self._apply(ops)
        finally:
            with self._fence:
                self._admitted[node_id] -= 1
                self._fence.notify_all()

    def fence(self, node_id: Any, epoch: int) -> None:
        """Reject every later guarded batch of ``node_id``'s incarnations up
        to ``epoch``, and return once every batch of ``node_id`` admitted
        before has applied on every shard's tail (bounded by hop time: a
        batch runs no user code)."""
        with self._fence:
            self._fenced[node_id] = max(epoch, self._fenced.get(node_id, -1))
            while self._admitted[node_id]:
                self._fence.wait(BACKSTOP_INTERVAL)

    def _apply(self, ops: List[tuple]) -> None:
        groups: Dict[int, List[tuple]] = {}
        for entry in ops:
            groups.setdefault(_shard_of(entry[1], len(self.shards)), []).append(
                entry
            )
        items = list(groups.items())
        if len(items) > 1 and any(
            self.shards[index].hop_delay for index, _ in items
        ):
            futures = [
                self._flush_pool.submit(
                    self.shards[index].write_batch, group
                )
                for index, group in items[1:]
            ]
            self.shards[items[0][0]].write_batch(items[0][1])
            for future in futures:
                future.result()
        else:
            for index, group in items:
                self.shards[index].write_batch(group)
        for index, group in items:
            counters = self._op_counters[index]
            published = 0
            for op, _key, _value in group:
                counters[op].inc()
                published += op != "delete"
            self._publish_counters[index].inc(published)
            self._batch_counters[index].inc()
            self._m_batch_size.observe(len(group))

    def log(self, key: Any) -> List[Any]:
        index = _shard_of(key, len(self.shards))
        self._op_counters[index]["log"].inc()
        return self.shards[index].log(key)

    def subscribe(
        self, key: Any, callback: Callable[[Any, Any], None]
    ) -> Callable[[], None]:
        return self.shard_for(key).subscribe(key, callback)

    def close(self) -> None:
        """Release the batch-flush worker threads (idempotent)."""
        self._flush_pool.shutdown(wait=False)

    # -- aggregate stats -----------------------------------------------------

    def num_entries(self) -> int:
        return sum(shard.num_entries() for shard in self.shards)

    def num_subscriptions(self) -> int:
        return sum(shard.num_subscriptions() for shard in self.shards)

    def approx_bytes(self) -> int:
        return sum(shard.approx_bytes() for shard in self.shards)

    def keys(self) -> List[Any]:
        out: List[Any] = []
        for shard in self.shards:
            out.extend(shard.keys())
        return out
