"""Object replication between node stores.

If a task's inputs are not local, they are replicated to the local object
store before execution (paper Section 4.2.3).  The transfer service copies
serialized objects between stores, striping large objects across multiple
chunks — the analogue of Ray striping objects across multiple TCP
connections — and records the new location in the GCS.  When more than one
live replica of a large object exists, alternating stripes are read from
different replicas (the multi-connection replication of Section 5.1 /
Figure 9), and each buffer is written stripe-by-stripe into a single
preallocated destination allocation: one copy, no intermediate chunk list.

:class:`ObjectFetcher` implements the full Figure 7 control path for making
an object local: check the local store, look up locations in the GCS,
transfer if a copy exists, otherwise register a pub-sub callback on the
object's GCS entry, and fall back to lineage reconstruction when the object
existed but every copy has been lost.  ``prefetch`` fans a task's missing
inputs out to a bounded worker pool so they replicate in parallel; callers
join on the destination store's availability completions, exactly as for a
single fetch.

Both classes signal completions through the destination store: a
successful replication runs ``dst.store.put``, which sets the object's
availability :class:`~repro.common.events.Completion` and wakes every
blocked reader — there is no polling anywhere on this path.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.lockwatch import make_lock, make_rlock
from repro.common.faults import NULL_FAULTS
from repro.common.ids import NodeID, ObjectID
from repro.common.metrics import MetricsRegistry, NULL_REGISTRY
from repro.common.serialization import SerializedObject

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Node
    from repro.gcs.client import GlobalControlStore

DEFAULT_CHUNK_BYTES = 1 << 20  # 1 MiB stripes
DEFAULT_CHUNK_DELAY_SECONDS = 0.002  # injected per-stripe stall
DEFAULT_PREFETCH_PARALLELISM = 8
MAX_STRIPE_SOURCES = 4


def _byte_view(buf) -> memoryview:
    view = buf if isinstance(buf, memoryview) else memoryview(buf)
    if view.format != "B":
        view = view.cast("B")
    return view


class ChunkDropped(Exception):
    """A fault-injected stripe loss: the in-progress copy is abandoned and
    restarted, like a lost-and-retransmitted network segment."""

    def __init__(self, chunk_index: int):
        self.chunk_index = chunk_index
        super().__init__(f"injected drop of chunk {chunk_index}")


def striped_copy(
    value: SerializedObject, chunk_bytes: int = DEFAULT_CHUNK_BYTES
) -> SerializedObject:
    """Copy a serialized object buffer-by-buffer in chunks.

    Functionally a deep copy; structured as chunked stripe copies so the
    copy path matches the system being modelled (and so the Fig 9 micro-
    benchmark measures a realistic memcpy loop rather than one opaque
    ``bytes()`` call).
    """
    return striped_copy_multi([value], chunk_bytes)


def striped_copy_multi(
    sources: Sequence[SerializedObject],
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    chunk_hook: Optional[Callable[[int], Optional[str]]] = None,
    chunk_delay_seconds: float = DEFAULT_CHUNK_DELAY_SECONDS,
) -> SerializedObject:
    """Stripe-copy an object, reading alternating chunks from ``sources``.

    All sources hold the same immutable object (replicas on different
    nodes); chunk ``i`` of each buffer is read from source ``i % len``.
    Each destination buffer is one preallocated ``bytearray`` written in
    place — a single copy with no intermediate chunk list, at half the
    peak memory of the old join-of-chunks implementation.

    ``chunk_hook`` is the fault-injection probe: called once per stripe
    with the global stripe index, it may return ``"delay"`` (stall this
    stripe) or ``"drop"`` (raise :class:`ChunkDropped`; the caller
    retransmits by restarting the copy).
    """
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    primary = sources[0]
    copied: List[memoryview] = []
    stripe = 0
    for index, buf in enumerate(primary.buffers):
        views = [_byte_view(src.buffers[index]) for src in sources]
        nbytes = views[0].nbytes
        out = bytearray(nbytes)
        out_view = memoryview(out)
        for offset in range(0, nbytes, chunk_bytes):
            if chunk_hook is not None:
                action = chunk_hook(stripe)
                if action == "drop":
                    raise ChunkDropped(stripe)
                if action == "delay":
                    time.sleep(chunk_delay_seconds)
            src = views[stripe % len(views)]
            out_view[offset : offset + chunk_bytes] = src[
                offset : offset + chunk_bytes
            ]
            stripe += 1
        # The store must never hand out writable views of resident memory.
        copied.append(out_view.toreadonly())
    return SerializedObject(primary.payload, copied, owned=True)


class TransferService:
    """Copies objects between node stores and updates the object table."""

    def __init__(
        self,
        gcs: "GlobalControlStore",
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        metrics: Optional[MetricsRegistry] = None,
        max_stripe_sources: int = MAX_STRIPE_SOURCES,
        faults: Optional[object] = None,
    ):
        self.gcs = gcs
        self.chunk_bytes = chunk_bytes
        self.max_stripe_sources = max(1, max_stripe_sources)
        self.faults = faults if faults is not None else NULL_FAULTS
        self._nodes: Dict[NodeID, "Node"] = {}
        # register_node races live_locations/node from scheduler, fetcher,
        # and worker threads; all _nodes access goes through this lock.
        self._nodes_lock = make_lock("TransferService._nodes_lock")
        self.transfer_count = 0
        self.bytes_transferred = 0
        self._lock = make_lock("TransferService._lock")
        metrics = metrics or NULL_REGISTRY
        self._m_transfers = metrics.counter(
            "transfer_objects_total", "Inter-node object replications"
        )
        self._m_bytes = metrics.counter(
            "transfer_bytes_total", "Bytes replicated between node stores"
        )
        self._m_seconds = metrics.histogram(
            "transfer_seconds", "Wall-clock duration of one object replication"
        )
        self._m_multi_source = metrics.counter(
            "transfer_multi_source_total",
            "Replications striped across more than one live replica",
        )
        self._m_sources = metrics.histogram(
            "transfer_stripe_sources",
            "Replica count each replication striped from",
            buckets=(1, 2, 3, 4, 8),
        )

    def register_node(self, node: "Node") -> None:
        with self._nodes_lock:
            self._nodes[node.node_id] = node

    def node(self, node_id: NodeID) -> Optional["Node"]:
        with self._nodes_lock:
            return self._nodes.get(node_id)

    def _node_snapshot(self) -> Dict[NodeID, "Node"]:
        with self._nodes_lock:
            return dict(self._nodes)

    def live_locations(self, object_id: ObjectID) -> Set[NodeID]:
        """GCS locations filtered to nodes that are still alive."""
        locations = self.gcs.get_object_locations(object_id)
        nodes = self._node_snapshot()
        return {
            node_id
            for node_id in locations
            if (node := nodes.get(node_id)) is not None and node.alive
        }

    def transfer(self, object_id: ObjectID, dst: "Node") -> bool:
        """Replicate ``object_id`` into ``dst``'s store from any live copy.

        Large objects (more than one stripe) are read from up to
        ``max_stripe_sources`` live replicas in alternating chunks.
        Returns True on success; False if no live copy exists right now.
        """
        if dst.store.contains(object_id):
            return True
        nodes = self._node_snapshot()
        sources: List[SerializedObject] = []
        for node_id in sorted(self.gcs.get_object_locations(object_id)):
            src = nodes.get(node_id)
            if src is None or not src.alive or src is dst:
                continue
            value = src.store.get(object_id)
            if value is None:
                # Stale GCS entry (e.g. evicted between lookup and read).
                continue
            sources.append(value)
            if len(sources) >= self.max_stripe_sources:
                break
        if not sources:
            return False
        started = time.monotonic()
        largest = max(
            (len(b) if isinstance(b, bytes) else memoryview(b).nbytes
             for b in sources[0].buffers),
            default=0,
        )
        if largest <= self.chunk_bytes:
            sources = sources[:1]  # single stripe: nothing to parallelize
        if self.faults.enabled:
            # Each (object, chunk) drops at most once, so the retransmit
            # loop terminates; a drop restarts the whole striped copy, as
            # a lost segment would force at the transport layer.
            hook = lambda ci: self.faults.chunk_fault(object_id, ci)  # noqa: E731
            delay = getattr(
                self.faults, "chunk_delay_seconds", DEFAULT_CHUNK_DELAY_SECONDS
            )
            while True:
                try:
                    copy = striped_copy_multi(
                        sources,
                        self.chunk_bytes,
                        chunk_hook=hook,
                        chunk_delay_seconds=delay,
                    )
                    break
                except ChunkDropped:
                    continue
        else:
            copy = striped_copy_multi(sources, self.chunk_bytes)
        stored = dst.store.put(object_id, copy)
        if stored:
            with self._lock:
                self.transfer_count += 1
                self.bytes_transferred += copy.total_bytes
            self._m_transfers.inc()
            self._m_bytes.inc(copy.total_bytes)
            self._m_seconds.observe(time.monotonic() - started)
            self._m_sources.observe(len(sources))
            if len(sources) > 1:
                self._m_multi_source.inc()
            self.gcs.add_object_location(object_id, dst.node_id)
        return True


class ObjectFetcher:
    """Makes objects local to a node, by transfer or reconstruction."""

    def __init__(
        self,
        gcs: "GlobalControlStore",
        transfer: TransferService,
        metrics: Optional[MetricsRegistry] = None,
        prefetch_parallelism: int = DEFAULT_PREFETCH_PARALLELISM,
    ):
        self.gcs = gcs
        self.transfer = transfer
        self.prefetch_parallelism = prefetch_parallelism
        # reconstruct(object_id) is installed by the runtime after the
        # reconstruction manager exists (breaks a construction cycle).
        self.reconstruct: Optional[Callable[[ObjectID], None]] = None
        # lineage_known(object_id) — installed by the runtime — answers
        # "does the local task graph know this object's producing task?"
        # without touching the GCS.  See ensure_local's light path; until
        # installed, nothing is known and every fetch takes the full path.
        self.lineage_known: Callable[[ObjectID], bool] = lambda _oid: False
        self._inflight: Dict[Tuple[NodeID, ObjectID], float] = {}
        self._inflight_lock = make_lock("ObjectFetcher._inflight_lock")
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = make_lock("ObjectFetcher._pool_lock")
        metrics = metrics or NULL_REGISTRY
        self._m_fetch_seconds = metrics.histogram(
            "fetch_seconds",
            "Latency from a fetch request to the object being local",
        )
        self._m_prefetch_requests = metrics.counter(
            "prefetch_requests_total", "Inputs handed to the prefetch pool"
        )
        self._m_prefetch_batch = metrics.histogram(
            "prefetch_batch_size",
            "Missing inputs prefetched in parallel per task",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128),
        )
        self._m_prefetch_errors = metrics.counter(
            "prefetch_errors_total",
            "Prefetch attempts that raised (recovered by the blocking path)",
        )

    # -- parallel input prefetch --------------------------------------------

    def _executor(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.prefetch_parallelism,
                    thread_name_prefix="prefetch",
                )
            return self._pool

    def _guarded_ensure(self, object_id: ObjectID, node: "Node") -> None:
        try:
            self.ensure_local(object_id, node)
        except Exception:  # noqa: BLE001 - blocking readers re-arm the fetch
            self._m_prefetch_errors.inc()

    def ensure_local_async(self, object_id: ObjectID, node: "Node") -> None:
        """``ensure_local`` on the prefetch pool (inline when the pool is
        disabled).  Errors are swallowed: every blocking reader re-issues
        ``ensure_local`` from its backstop, so a failed prefetch only costs
        latency, never correctness."""
        if self.prefetch_parallelism <= 0:
            self.ensure_local(object_id, node)
            return
        self._executor().submit(self._guarded_ensure, object_id, node)

    def prefetch(self, object_ids: Sequence[ObjectID], node: "Node") -> int:
        """Start parallel fetches for every non-local ID; returns how many
        were issued.  Non-blocking: join on the store's availability
        completions (``fetch_to_node`` / ``on_available``)."""
        missing = [oid for oid in object_ids if not node.store.contains(oid)]
        if not missing:
            return 0
        self._m_prefetch_batch.observe(len(missing))
        for object_id in missing:
            self._m_prefetch_requests.inc()
            self.ensure_local_async(object_id, node)
        return len(missing)

    def close(self) -> None:
        """Shut down the prefetch pool (runtime shutdown)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- the Figure 7 fetch path --------------------------------------------

    def forget_node(self, node_id: NodeID) -> None:
        """Drop in-flight fetch markers bound to a dead node.

        The marker is normally cleared by the destination store's
        availability callback — which will never fire once the store is
        dropped.  Because a restarted node reuses its NodeID, a stale
        marker would permanently swallow every later fetch of the same
        object to the reborn node.
        """
        with self._inflight_lock:
            for key in [k for k in self._inflight if k[0] == node_id]:
                del self._inflight[key]

    def inflight_count(self, node_id: NodeID) -> int:
        """Number of fetches currently in flight *toward* ``node_id``.

        Sampled by the per-node reporter as a transfer-pressure signal.
        """
        with self._inflight_lock:
            return sum(1 for k in self._inflight if k[0] == node_id)

    def ensure_local(self, object_id: ObjectID, node: "Node") -> None:
        """Arrange for ``object_id`` to (eventually) appear in ``node``'s
        store.  Non-blocking: callers observe arrival through
        ``node.store.on_available`` / ``availability_event``."""
        if not node.alive or node.store.contains(object_id):
            return
        key = (node.node_id, object_id)
        with self._inflight_lock:
            if key in self._inflight:
                return
            self._inflight[key] = time.monotonic()

        def finished(_oid: ObjectID) -> None:
            with self._inflight_lock:
                started = self._inflight.pop(key, None)
            if started is not None:
                self._m_fetch_seconds.observe(time.monotonic() - started)

        node.store.on_available(object_id, finished)

        # Subscribe *before* checking locations so a concurrent creation
        # cannot be missed (Figure 7b step 2).
        # RLock: performing the transfer publishes the *new* location, which
        # re-enters our own subscription callback on this thread.
        state = {"done": False}
        lock = make_rlock("ObjectFetcher.ensure_local.lock")

        def try_transfer() -> bool:
            if not node.alive:
                # Stop trying; the node is gone.  Release the in-flight
                # marker ourselves — no arrival will ever clear it, and the
                # NodeID may be reborn via restart_node.
                with self._inflight_lock:
                    self._inflight.pop(key, None)
                return True
            if node.store.contains(object_id):
                return True
            return self.transfer.transfer(object_id, node)

        def on_location_update(op: str, _node_id: NodeID) -> None:
            if op == "add":
                with lock:
                    if state["done"]:
                        return
                    if try_transfer():
                        state["done"] = True
                        unsubscribe()
                return
            # A retraction (node death / eviction) may have removed the
            # last live copy *after* our initial reconstruct check ran —
            # e.g. the producer finished on a node that then died before
            # the copy landed here.  Without this, every waiter is
            # subscribed only to future "add" events that will never come.
            with lock:
                if state["done"]:
                    return
            if (
                not self.transfer.live_locations(object_id)
                and self.reconstruct is not None
            ):
                self.reconstruct(object_id)

        unsubscribe = self.gcs.subscribe_object_locations(
            object_id, on_location_update
        )
        # Light path — checked *after* subscribing, so a publication that
        # raced ahead of the subscription is visible in the hint (writers
        # set the hint before the location append).  No location ever
        # published plus locally-known lineage means the object is still
        # being produced: the authoritative location read would come back
        # empty and the reconstruct probe would find no entry, so both
        # remote round-trips are skipped and the subscription (or the
        # producing node's own store) announces the object when it exists.
        if not self.gcs.has_location_hint(object_id) and self.lineage_known(
            object_id
        ):
            return
        with lock:
            if try_transfer():
                state["done"] = True
                unsubscribe()
                return
            # No live copy.  If the object has lineage and its producing
            # task is not already running, trigger reconstruction.
            if self.reconstruct is not None:
                self.reconstruct(object_id)
