"""A single-shard key-value store: one replica's state.

The paper uses one Redis instance per GCS shard with *entirely single-key
operations*.  This class reproduces that storage surface: get/put/delete on
single keys and append to per-key logs.  It is thread-safe.  Pub-sub is the
chain's (:class:`repro.gcs.chain.ReplicatedChain`), not a replica's: a
subscription must survive the loss of any one member.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple
from repro.common.lockwatch import make_rlock


class KVStore:
    """Thread-safe in-memory KV store with per-key append logs."""

    def __init__(self):
        self._lock = make_rlock("KVStore._lock")
        self._data: Dict[Any, Any] = {}
        self._logs: Dict[Any, List[Any]] = {}

    # -- single-key operations -------------------------------------------

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._data[key] = value

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            return self._data.get(key, default)

    def delete(self, key: Any) -> bool:
        with self._lock:
            had = key in self._data
            self._data.pop(key, None)
            self._logs.pop(key, None)
            return had

    def append(self, key: Any, entry: Any) -> None:
        """Append ``entry`` to the log at ``key``."""
        with self._lock:
            self._logs.setdefault(key, []).append(entry)

    def log(self, key: Any) -> List[Any]:
        with self._lock:
            return list(self._logs.get(key, ()))

    # -- bulk access (state transfer, flushing, debugging) ----------------

    def snapshot(self) -> Tuple[Dict[Any, Any], Dict[Any, List[Any]]]:
        """A consistent copy of all state, for chain state transfer."""
        with self._lock:
            return dict(self._data), {k: list(v) for k, v in self._logs.items()}

    def load_snapshot(
        self, data: Dict[Any, Any], logs: Dict[Any, List[Any]]
    ) -> None:
        with self._lock:
            self._data = dict(data)
            self._logs = {k: list(v) for k, v in logs.items()}

    def keys(self) -> List[Any]:
        with self._lock:
            return list(self._data.keys()) + [
                k for k in self._logs if k not in self._data
            ]

    def num_entries(self) -> int:
        with self._lock:
            return len(self._data) + sum(len(v) for v in self._logs.values())

    def approx_bytes(self) -> int:
        """Rough in-memory footprint (for the Fig 10b flushing experiment)."""
        import sys

        with self._lock:
            total = 0
            for k, v in self._data.items():
                total += sys.getsizeof(k) + sys.getsizeof(v)
            for k, entries in self._logs.items():
                total += sys.getsizeof(k)
                total += sum(sys.getsizeof(e) for e in entries)
            return total
