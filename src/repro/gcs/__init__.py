"""Global Control Store (GCS).

The GCS is the unique feature of Ray's design (paper Section 4.2.1): a
sharded key-value store with pub-sub functionality that holds *all* control
state — the object table, task table, function table, and event log — so
that every other component (schedulers, object stores, workers) is
stateless and can be restarted at will.

* :mod:`repro.gcs.kv` — one replica's single-shard KV store.
* :mod:`repro.gcs.chain` — chain replication of a shard for fault
  tolerance, with reconfiguration (member kill, join, state transfer),
  and the pub-sub that survives it.
* :mod:`repro.gcs.shard` — sharding by entity ID across chains.
* :mod:`repro.gcs.tables` — the typed tables layered on the KV store.
* :mod:`repro.gcs.flush` — periodic flushing of cold entries to disk so
  the in-memory footprint stays bounded.
* :mod:`repro.gcs.client` — the facade the rest of the system talks to.
"""

from repro.gcs.kv import KVStore
from repro.gcs.chain import ChainReplica, ReplicatedChain
from repro.gcs.shard import ShardedKV
from repro.gcs.tables import (
    ActorTableEntry,
    EventLog,
    ObjectTableEntry,
    TaskTableEntry,
    TaskStatus,
)
from repro.gcs.client import GlobalControlStore

__all__ = [
    "KVStore",
    "ChainReplica",
    "ReplicatedChain",
    "ShardedKV",
    "ObjectTableEntry",
    "TaskTableEntry",
    "TaskStatus",
    "ActorTableEntry",
    "EventLog",
    "GlobalControlStore",
]
