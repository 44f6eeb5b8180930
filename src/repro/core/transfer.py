"""Object replication between node stores.

If a task's inputs are not local, they are replicated to the local object
store before execution (paper Section 4.2.3).  The transfer service copies
serialized objects between stores, striping large objects across multiple
chunks — the analogue of Ray striping objects across multiple TCP
connections — and records the new location in the GCS.  When more than one
live replica of a large object exists, alternating stripes are read from
different replicas (the multi-connection replication of Section 5.1 /
Figure 9), and each buffer is written stripe-by-stripe into a single
preallocated destination: one copy, no intermediate chunk list.  Bytes move
only on the service's own ``transfer-<i>`` threads — never on the thread
that asked for the object or the one that published its location
(``gcs/chain.py`` runs a subscriber on the writing thread, so it must be
quick and must not block).

:class:`ObjectFetcher` implements the full Figure 7 control path for making
an object local: check the local store, register a pub-sub callback on the
object's GCS entry, then queue the attempt — look up locations in the GCS,
transfer if a copy exists, and fall back to lineage reconstruction when the
object existed but every copy has been lost.  ``prefetch`` is that per
missing input of a task; callers join on the destination store's
availability completions, exactly as for a single fetch.

Both classes signal completions through the destination store: a
successful replication runs ``dst.store.put``, which sets the object's
availability :class:`~repro.common.events.Completion` and wakes every
blocked reader — there is no polling anywhere on this path.
"""

from __future__ import annotations

import mmap
import queue
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.lockwatch import make_lock, make_thread
from repro.common.faults import NULL_FAULTS
from repro.common.ids import NodeID, ObjectID
from repro.common.metrics import MetricsRegistry, NULL_REGISTRY
from repro.common.serialization import SerializedObject

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Node
    from repro.gcs.client import GlobalControlStore

DEFAULT_CHUNK_BYTES = 1 << 20  # 1 MiB stripes
DEFAULT_CHUNK_DELAY_SECONDS = 0.002  # injected per-stripe stall
MAX_STRIPE_SOURCES = 4
# ``data_flow`` measured the same at 4 and at 8; fewer idle threads is less RSS.
TRANSFER_THREADS = 4


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
    Each destination buffer is preallocated and written in place — a
    single copy with no intermediate chunk list.  One of at least a stripe
    is an anonymous mapping, as the paper's store is: its pages go back to
    the OS with the last view of the object, where a malloc'd megabyte
    stays in the arena of whichever thread asked for it.

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
        out = mmap.mmap(-1, nbytes) if nbytes >= chunk_bytes else bytearray(nbytes)
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
    """Copies objects between node stores and updates the object table,
    on its own threads (:meth:`enqueue`)."""

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
        self._m_errors = metrics.counter(
            "prefetch_errors_total",
            "Queued fetch work that raised (recovered by the blocking path)",
        )
        # Pre-started, not grown on demand: starting a thread from inside
        # a location callback would yield the GIL in the middle of the
        # publisher's finish sequence.
        self._work: "queue.SimpleQueue" = queue.SimpleQueue()
        self._threads = [
            make_thread(self._drain, name=f"transfer-{index}")
            for index in range(TRANSFER_THREADS)
        ]
        for thread in self._threads:
            thread.start()

    def enqueue(self, work: Callable[[], None]) -> None:
        """Run ``work`` on a transfer thread; safe in a pub-sub callback."""
        self._work.put(work)

    def _drain(self) -> None:
        while True:
            work = self._work.get()
            if work is None:  # close() sentinel
                return
            try:
                work()
            except Exception:  # noqa: BLE001 - blocking readers re-arm the fetch
                self._m_errors.inc()

    def close(self) -> None:
        """Stop the transfer threads once the work queued so far has run."""
        for _ in self._threads:
            self._work.put(None)
        for thread in self._threads:
            thread.join(2.0)

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
            if dst.alive and not dst.store.contains(object_id):
                # Freed by a reader before the add landed (see
                # ``worker.FinishQueue``): retract after the add.
                self.gcs.remove_object_location(object_id, dst.node_id)
        return True


class ObjectFetcher:
    """Makes objects local to a node, by transfer or reconstruction."""

    def __init__(
        self,
        gcs: "GlobalControlStore",
        transfer: TransferService,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.gcs = gcs
        self.transfer = transfer
        # reconstruct(object_id) is installed by the runtime after the
        # reconstruction manager exists (breaks a construction cycle).
        self.reconstruct: Optional[Callable[[ObjectID], None]] = None
        self._inflight: Dict[Tuple[NodeID, ObjectID], float] = {}
        self._inflight_lock = make_lock("ObjectFetcher._inflight_lock")
        metrics = metrics or NULL_REGISTRY
        self._m_fetch_seconds = metrics.histogram(
            "fetch_seconds",
            "Latency from a fetch request to the object being local",
        )
        self._m_prefetch_requests = metrics.counter(
            "prefetch_requests_total", "Missing inputs whose fetch was started"
        )
        self._m_prefetch_batch = metrics.histogram(
            "prefetch_batch_size",
            "Missing inputs prefetched in parallel per task",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128),
        )

    def prefetch(self, object_ids: Sequence[ObjectID], node: "Node") -> int:
        """Start a fetch for every non-local ID; returns how many were
        issued.  Non-blocking: join on the store's availability
        completions (``fetch_to_node`` / ``on_available``)."""
        missing = [oid for oid in object_ids if not node.store.contains(oid)]
        if missing:
            self._m_prefetch_batch.observe(len(missing))
            self._m_prefetch_requests.inc(len(missing))
        for object_id in missing:
            self.ensure_local(object_id, node)
        return len(missing)

    def close(self) -> None:
        """Stop the transfer threads (runtime shutdown)."""
        self.transfer.close()

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
        ``node.store.on_available`` / ``availability_event``.  Only the
        registration runs on the caller; the rest is queued."""
        if not node.alive or node.store.contains(object_id):
            return
        key = (node.node_id, object_id)
        with self._inflight_lock:
            if key in self._inflight:
                return
            self._inflight[key] = time.monotonic()

        # Queued work for one fetch is serialized by ``lock``; ``done`` is
        # what a late item (queued before the copy landed) finds.
        state = {"done": False}
        lock = make_lock("ObjectFetcher.ensure_local.lock")

        def finished(_oid: ObjectID) -> None:
            # The copy landed: a late item must not act on a later loss
            # (say a ``free``) of the object this fetch already delivered.
            state["done"] = True
            with self._inflight_lock:
                started = self._inflight.pop(key, None)
            if started is not None:
                self._m_fetch_seconds.observe(time.monotonic() - started)

        node.store.on_available(object_id, finished)

        def try_transfer() -> bool:
            # With ``lock`` held: is this fetch over?
            if state["done"]:
                unsubscribe()
                return True
            if not node.alive:
                # Stop trying; the node is gone.  Release the in-flight
                # marker ourselves — no arrival will ever clear it, and the
                # NodeID may be reborn via restart_node.
                with self._inflight_lock:
                    self._inflight.pop(key, None)
                over = True
            else:
                over = node.store.contains(object_id) or self.transfer.transfer(
                    object_id, node
                )
            if over:
                state["done"] = True
                unsubscribe()
            return over

        def first_attempt() -> None:
            with lock:
                # No live copy.  If the object has lineage and its producing
                # task is not already running, trigger reconstruction —
                # unless this client is publishing a copy right now: the
                # location read just made (after subscribing) missed its
                # ``add``, so the subscription delivers it.  That check is
                # a local set lookup, not a GCS round-trip.
                if (
                    not try_transfer()
                    and self.reconstruct is not None
                    and not self.gcs.location_in_flight(object_id)  # noqa: RT-BLOCKING-UNDER-LOCK
                ):
                    self.reconstruct(object_id)

        def on_added() -> None:
            with lock:
                try_transfer()

        def on_removed() -> None:
            # A retraction (node death / eviction) may have removed the
            # last live copy *after* the first attempt's reconstruct check
            # ran — e.g. the producer finished on a node that then died
            # before the copy landed here.  Without this, every waiter is
            # subscribed only to future "add" events that will never come.
            with lock:
                if state["done"]:
                    unsubscribe()
                    return
            if (
                not self.transfer.live_locations(object_id)
                and self.reconstruct is not None
            ):
                self.reconstruct(object_id)

        # Subscribe *before* checking locations so a concurrent creation
        # cannot be missed (Figure 7b step 2).  The callback runs on the
        # publishing thread, so it only enqueues.
        unsubscribe = self.gcs.subscribe_object_locations(
            object_id,
            lambda op, _node_id: self.transfer.enqueue(
                on_added if op == "add" else on_removed
            ),
        )
        # Light path — checked *after* subscribing, so a publication that
        # raced ahead of the subscription is visible in the hint (writers
        # set the hint before the location append).  No location published
        # plus a producer in flight (the GCS client's index, a local
        # lookup) means the object is still being produced: the
        # authoritative location read would come back empty and the
        # reconstruct probe would find no entry, so both remote
        # round-trips are skipped and the subscription (or the producing
        # node's own store) announces the object when it exists.  A
        # publication in flight is *not* a reason to return here: its
        # ``object_loc`` shard group may land before the subscription did
        # while the rest of its batch is still in flight, so only the
        # location read in ``first_attempt`` can rule it out.
        if (
            not self.gcs.has_location_hint(object_id)
            and self.gcs.in_flight_producer(object_id) is not None
        ):
            return
        self.transfer.enqueue(first_attempt)
