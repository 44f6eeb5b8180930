"""Per-node in-memory object store.

Each node runs one store holding immutable, serialized objects (paper
Section 4.2.3).  Properties reproduced from the paper:

* **Immutability** — a ``put`` for an ID that already exists is a no-op
  (and is how replayed tasks stay idempotent).
* **Locality** — tasks only ever read inputs from their node's store; the
  transfer service replicates remote inputs in first.
* **LRU eviction** — when capacity is exceeded, the least-recently-used
  unpinned objects are evicted.  With a ``spill_directory`` configured the
  evicted copy goes to disk and is transparently reloaded on access (the
  paper: "we keep objects entirely in memory and evict them as needed to
  disk using an LRU policy"); without one the copy is dropped and lineage
  reconstruction recovers it on demand.  Objects pinned by executing
  tasks are never evicted.
* **Zero-copy reads** — the analogue of Plasma's shared-memory reads: a
  per-node :class:`DeserializedValueCache` holds the deserialized value of
  recently read objects, so repeated same-node reads of an immutable
  object pay ``pickle.loads`` once.  Coherence rule: a cached value exists
  only while the serialized copy is resident in memory; any removal
  (delete, LRU eviction, spill, node loss) invalidates it, and an
  in-flight deserialization racing a removal is discarded via a removal
  counter guard rather than cached.
* **Availability notifications** — readers wait on (or register callbacks
  against) a :class:`~repro.common.events.Completion` that is signalled
  the moment the object becomes local (Figure 7b).  All blocking readers
  in the runtime ride on these completions; nothing polls the store.
  The store holds a completion strongly only while its object is absent
  (a put must find it to wake the waiters and fire the callbacks); once
  the object is present it is held weakly and lives as long as some
  reader keeps it, so a store that served a million reads does not keep
  a million completions.
"""

from __future__ import annotations

import os
import pickle
import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.lockwatch import make_lock, make_rlock
from repro.common.errors import ObjectStoreFullError
from repro.common.events import Completion, WaitStats
from repro.common.ids import NodeID, ObjectID
from repro.common.metrics import MetricsRegistry, NULL_REGISTRY
from repro.common.serialization import SerializedObject, deserialize

DEFAULT_VALUE_CACHE_BYTES = 256 * 1024 * 1024


class DeserializedValueCache:
    """Bounded LRU cache of deserialized values, keyed by ObjectID.

    Sized and evicted independently of the serialized store: the byte
    accounting uses the serialized footprint of the source object as a
    proxy for the value's size.  Thread-safe; a leaf lock (never calls
    back into the store).
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = DEFAULT_VALUE_CACHE_BYTES,
        metrics: Optional[MetricsRegistry] = None,
        node: str = "",
    ):
        self.capacity_bytes = capacity_bytes
        self._lock = make_lock("DeserializedValueCache._lock")
        self._values: "OrderedDict[ObjectID, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        metrics = metrics or NULL_REGISTRY
        self._m_hits = metrics.counter(
            "value_cache_hits_total", "Reads served from the deserialized cache",
            node=node,
        )
        self._m_misses = metrics.counter(
            "value_cache_misses_total", "Reads that had to deserialize",
            node=node,
        )
        self._m_evictions = metrics.counter(
            "value_cache_evictions_total", "LRU evictions from the value cache",
            node=node,
        )
        self._m_invalidations = metrics.counter(
            "value_cache_invalidations_total",
            "Entries dropped because the serialized copy left memory",
            node=node,
        )
        metrics.gauge(
            "value_cache_bytes",
            "Serialized-size proxy of cached deserialized values",
            fn=lambda: self.used_bytes,
            node=node,
        )

    def get(self, object_id: ObjectID) -> Tuple[Any, bool]:
        """(value, hit).  A hit LRU-touches the entry."""
        with self._lock:
            entry = self._values.get(object_id)
            if entry is None:
                self._m_misses.inc()
                return None, False
            self._values.move_to_end(object_id)
            self._m_hits.inc()
            return entry[0], True

    def put(self, object_id: ObjectID, value: Any, nbytes: int) -> None:
        with self._lock:
            if object_id in self._values:
                return
            if self.capacity_bytes is not None:
                if nbytes > self.capacity_bytes:
                    return  # larger than the whole cache: never admit
                while self._bytes + nbytes > self.capacity_bytes and self._values:
                    _oid, (_val, dropped) = self._values.popitem(last=False)
                    self._bytes -= dropped
                    self._m_evictions.inc()
            self._values[object_id] = (value, nbytes)
            self._bytes += nbytes

    def invalidate(self, object_id: ObjectID) -> bool:
        with self._lock:
            entry = self._values.pop(object_id, None)
            if entry is None:
                return False
            self._bytes -= entry[1]
            self._m_invalidations.inc()
            return True

    def clear(self) -> None:
        with self._lock:
            self._values.clear()
            self._bytes = 0

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self),
            "bytes": self.used_bytes,
            "hits": self._m_hits.value,
            "misses": self._m_misses.value,
            "evictions": self._m_evictions.value,
            "invalidations": self._m_invalidations.value,
        }


class LocalObjectStore:
    """Thread-safe LRU object store for one node.

    Availability completions live in two maps under the store lock:
    ``_events`` holds those of absent objects strongly, and
    ``_present_events`` those of present objects weakly.  A put moves its
    object's completion from the first map to the second before setting
    it; a delete, an eviction to nowhere or a node loss clears a
    still-held one and moves it back, so a re-put sets it again.
    """

    def __init__(
        self,
        node_id: NodeID,
        capacity_bytes: Optional[int] = None,
        on_evict: Optional[Callable[[ObjectID], None]] = None,
        spill_directory: Optional[str] = None,
        wait_stats: Optional[WaitStats] = None,
        metrics: Optional[MetricsRegistry] = None,
        value_cache_capacity_bytes: Optional[int] = DEFAULT_VALUE_CACHE_BYTES,
    ):
        self.node_id = node_id
        self.capacity_bytes = capacity_bytes
        self._on_evict = on_evict
        self._lock = make_rlock("LocalObjectStore._lock")
        self._objects: "OrderedDict[ObjectID, SerializedObject]" = OrderedDict()
        self._pins: Dict[ObjectID, int] = {}
        self._used_bytes = 0
        self._wait_stats = wait_stats
        self._events: Dict[ObjectID, Completion] = {}
        self._present_events: "weakref.WeakValueDictionary[ObjectID, Completion]" = (
            weakref.WeakValueDictionary()
        )
        # Removals so far: an in-flight deserialization only enters the
        # value cache if no copy left memory while it ran.
        self._removals = 0
        self.put_count = 0
        self.eviction_count = 0
        self.spill_count = 0
        self.restore_count = 0
        self._spill_directory = spill_directory
        self._spilled: Dict[ObjectID, str] = {}
        if spill_directory is not None:
            os.makedirs(spill_directory, exist_ok=True)
        metrics = metrics or NULL_REGISTRY
        node = node_id.hex()[:8]
        # A capacity of 0 admits nothing: every read deserializes.
        self.value_cache = DeserializedValueCache(
            capacity_bytes=value_cache_capacity_bytes,
            metrics=metrics,
            node=node,
        )
        self._m_puts = metrics.counter(
            "object_store_puts_total", "Objects stored (first copy)", node=node
        )
        self._m_gets = metrics.counter(
            "object_store_gets_total", "Read attempts", node=node
        )
        self._m_hits = metrics.counter(
            "object_store_hits_total", "Reads served locally", node=node
        )
        self._m_misses = metrics.counter(
            "object_store_misses_total", "Reads that found nothing", node=node
        )
        self._m_evictions = metrics.counter(
            "object_store_evictions_total", "LRU evictions (incl. spills)", node=node
        )
        self._m_evicted_bytes = metrics.counter(
            "object_store_evicted_bytes_total", "Bytes evicted by LRU", node=node
        )
        self._m_seal_bytes = metrics.counter(
            "object_store_seal_bytes_total",
            "Bytes copied sealing producer-aliased buffers at put",
            node=node,
        )
        metrics.gauge(
            "object_store_used_bytes",
            "Bytes resident in memory",
            fn=lambda: self.used_bytes,
            node=node,
        )

    # -- core operations -----------------------------------------------------

    def put(self, object_id: ObjectID, value: SerializedObject) -> bool:
        """Store ``value`` under ``object_id``.

        Returns True if stored, False if the object was already present
        (objects are immutable, so a duplicate put is a no-op).  Raises
        :class:`ObjectStoreFullError` if eviction cannot make room.

        An unowned value (zero-copy ``serialize`` output whose buffers
        alias producer memory) is sealed — copied once into store-owned
        memory — before insertion, so resident objects never change when a
        producer mutates its arrays.  Transfer-produced copies arrive
        already owned and are not copied again.
        """
        if not value.owned:
            # Seal outside the store lock: this is the write path's one copy.
            sealed = value.seal()
            self._m_seal_bytes.inc(sealed.total_bytes - len(sealed.payload))
            value = sealed
        with self._lock:
            if object_id in self._objects or object_id in self._spilled:
                return False
            if self.capacity_bytes is not None:
                if value.total_bytes > self.capacity_bytes:
                    raise ObjectStoreFullError(
                        f"object ({value.total_bytes} B) exceeds store capacity "
                        f"({self.capacity_bytes} B)"
                    )
                self._evict_until(self.capacity_bytes - value.total_bytes)
            self._objects[object_id] = value
            self._used_bytes += value.total_bytes
            self.put_count += 1
            self._m_puts.inc()
            completion = self._events.pop(object_id, None)
            if completion is not None:
                self._present_events[object_id] = completion
        # Signal outside the store lock: waiter callbacks (scheduler input-
        # ready, fetcher bookkeeping) take their own locks.
        if completion is not None:
            completion.set()
        return True

    def get(self, object_id: ObjectID) -> Optional[SerializedObject]:
        self._m_gets.inc()
        with self._lock:
            value = self._objects.get(object_id)
            if value is not None:
                self._objects.move_to_end(object_id)  # LRU touch
                self._m_hits.inc()
                return value
            if object_id in self._spilled:
                value = self._restore_from_disk(object_id)
                if value is not None:
                    self._m_hits.inc()
                    return value
            self._m_misses.inc()
            return None

    def load_value(self, object_id: ObjectID) -> Tuple[Any, bool]:
        """Deserialized read through the per-node value cache.

        Returns ``(value, found)``; ``found`` is False when the object is
        not local.  The cache is only populated if the serialized copy is
        still resident after deserialization finishes *and no copy left
        memory meanwhile* (the removal guard), so a reader racing eviction
        or an explicit delete can never install a stale value for a
        reconstructed ObjectID.
        """
        cache = self.value_cache
        value, hit = cache.get(object_id)
        if hit:
            with self._lock:
                if object_id in self._objects:
                    self._objects.move_to_end(object_id)  # keep LRUs aligned
            return value, True
        with self._lock:
            removals = self._removals
        serialized = self.get(object_id)
        if serialized is None:
            return None, False
        value = deserialize(serialized)
        with self._lock:
            unchanged = self._removals == removals and object_id in self._objects
        if unchanged:
            cache.put(object_id, value, serialized.total_bytes)
        return value, True

    def contains(self, object_id: ObjectID) -> bool:
        with self._lock:
            return object_id in self._objects or object_id in self._spilled

    def is_spilled(self, object_id: ObjectID) -> bool:
        with self._lock:
            return object_id in self._spilled

    def delete(self, object_id: ObjectID) -> bool:
        """Explicitly drop an object (used when a node's copy is invalidated)."""
        with self._lock:
            had_spill = object_id in self._spilled
            self._remove_spill_file(object_id)
            value = self._objects.pop(object_id, None)
            if value is None and not had_spill:
                return False
            if value is not None:
                self._used_bytes -= value.total_bytes
            self._invalidate_value(object_id)
            self._mark_absent(object_id)
            return True

    def _invalidate_value(self, object_id: ObjectID) -> None:
        """The in-memory serialized copy is going away (lock held): count
        the removal so racing readers discard their result, and drop any
        cached deserialized value."""
        self._removals += 1
        self.value_cache.invalidate(object_id)

    def _mark_absent(self, object_id: ObjectID) -> None:
        """The object left the store (lock held): clear its completion if a
        reader still holds one, and hold it strongly again so waiters
        re-arm and a re-put sets it."""
        completion = self._present_events.pop(object_id, None)
        if completion is not None:
            completion.clear()
            self._events[object_id] = completion

    # -- pinning (inputs of executing tasks must not be evicted) -------------

    def pin(self, object_id: ObjectID) -> None:
        with self._lock:
            self._pins[object_id] = self._pins.get(object_id, 0) + 1

    def unpin(self, object_id: ObjectID) -> None:
        with self._lock:
            count = self._pins.get(object_id, 0)
            if count <= 1:
                self._pins.pop(object_id, None)
            else:
                self._pins[object_id] = count - 1

    def is_pinned(self, object_id: ObjectID) -> bool:
        with self._lock:
            return self._pins.get(object_id, 0) > 0

    # -- eviction --------------------------------------------------------------

    def _evict_until(self, target_bytes: int) -> None:
        """Evict LRU unpinned objects until used <= target.  Lock held.

        With a spill directory, evicted copies go to disk and stay
        addressable (no location retraction); otherwise they are dropped
        and the on_evict callback retracts the GCS location.  Either way
        the deserialized-value cache entry is invalidated: a cached value
        must never outlive its in-memory serialized copy (it would pin the
        very bytes eviction is trying to free).
        """
        if self._used_bytes <= target_bytes:
            return
        evicted: List[ObjectID] = []
        for object_id in list(self._objects.keys()):
            if self._used_bytes <= target_bytes:
                break
            if self._pins.get(object_id, 0) > 0:
                continue
            value = self._objects.pop(object_id)
            self._used_bytes -= value.total_bytes
            self.eviction_count += 1
            self._m_evictions.inc()
            self._m_evicted_bytes.inc(value.total_bytes)
            self._invalidate_value(object_id)
            if self._spill_directory is not None:
                self._spill_to_disk(object_id, value)
                continue  # still available: no event clear, no callback
            self._mark_absent(object_id)
            evicted.append(object_id)
        if self._used_bytes > target_bytes:
            raise ObjectStoreFullError(
                "cannot make room: remaining objects are pinned"
            )
        if self._on_evict:
            for object_id in evicted:
                self._on_evict(object_id)

    # -- disk spilling (paper §4.2.3: "evict them as needed to disk") ---------

    def _spill_path(self, object_id: ObjectID) -> str:
        return os.path.join(self._spill_directory, object_id.hex())

    def _spill_to_disk(self, object_id: ObjectID, value: SerializedObject) -> None:
        path = self._spill_path(object_id)
        # memoryview buffers (transfer-striped copies) cannot be pickled;
        # materialize to bytes for the disk image.
        buffers = [
            b if isinstance(b, bytes) else bytes(b) for b in value.buffers
        ]
        with open(path, "wb") as f:
            pickle.dump((value.payload, buffers), f)
        self._spilled[object_id] = path
        self.spill_count += 1

    def _restore_from_disk(self, object_id: ObjectID) -> Optional[SerializedObject]:
        """Reload a spilled object into memory (lock held)."""
        path = self._spilled.get(object_id)
        if path is None:
            return None
        with open(path, "rb") as f:
            payload, buffers = pickle.load(f)
        value = SerializedObject(payload, buffers, owned=True)
        if self.capacity_bytes is not None:
            self._evict_until(self.capacity_bytes - value.total_bytes)
        self._remove_spill_file(object_id)
        self._objects[object_id] = value
        self._used_bytes += value.total_bytes
        self.restore_count += 1
        return value

    def _remove_spill_file(self, object_id: ObjectID) -> None:
        path = self._spilled.pop(object_id, None)
        if path is not None:
            try:
                os.remove(path)
            except OSError:
                pass

    # -- availability notifications -------------------------------------------

    def availability_event(self, object_id: ObjectID) -> Completion:
        """A completion signalled when (or already if) the object is local."""
        with self._lock:
            completion = self._events.get(object_id)
            if completion is None:
                completion = self._present_events.get(object_id)
            if completion is not None:
                return completion
            completion = Completion(stats=self._wait_stats)
            present = object_id in self._objects or object_id in self._spilled
            if present:
                self._present_events[object_id] = completion
            else:
                self._events[object_id] = completion
        if present:
            completion.set()
        return completion

    def on_available(
        self, object_id: ObjectID, callback: Callable[[ObjectID], None]
    ) -> None:
        """Run ``callback`` when the object becomes local (now if already)."""
        self.availability_event(object_id).add_callback(
            lambda _completion: callback(object_id)
        )

    # -- stats / lifecycle -------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._used_bytes

    def object_ids(self) -> List[ObjectID]:
        with self._lock:
            return list(self._objects.keys())

    def num_objects(self) -> int:
        with self._lock:
            return len(self._objects)

    def drop_all(self) -> List[ObjectID]:
        """Simulate node loss (memory *and* node-local disk).

        Returns the IDs that were lost."""
        with self._lock:
            lost = list(self._objects.keys())
            lost.extend(self._spilled.keys())
            for object_id in list(self._spilled.keys()):
                self._remove_spill_file(object_id)
            for object_id in list(self._objects.keys()):
                self._invalidate_value(object_id)
            self._objects.clear()
            self._pins.clear()
            self._used_bytes = 0
            self.value_cache.clear()
            for object_id in list(self._present_events.keys()):
                self._mark_absent(object_id)
            for event in self._events.values():
                event.clear()
            return lost
