"""Deterministic fault injection for the control plane.

The paper's robustness results (§4.2.3, Figures 10-11) are about what the
system does *while* components fail.  ``kill_node`` lets a test fail a node
by hand, but reproducing a figure needs failures that arrive mid-run, at a
precise point in the workload, identically on every run.  This module
provides that: a seeded :class:`FaultSchedule` whose planned faults fire at
**task-count**, **placement-count**, **chain-write-count**, or wall-clock
triggers, plus probabilistic (but seed-deterministic) transfer-chunk drops
and delays.

The runtime threads narrow hooks through its hot layers (the same
null-object pattern as :mod:`repro.common.metrics`):

* ``on_task_finished()`` — every task/method completion (runtime).
* ``on_place(node_id)`` — every local-scheduler placement, *before* the
  liveness check, so a fired kill exercises the dead-node spillback path.
* ``on_chain_write(shard_index, chain)`` — every GCS chain write; a fired
  fault kills a chain member so the write itself discovers the failure and
  reconfigures (Figure 10a).  Only chain-write-count triggers fire here: a
  node fault must never run inside a GCS write.
* ``chunk_fault(object_id, chunk_index)`` — every transfer stripe; returns
  ``"drop"`` (the copy restarts, like a lost-and-retransmitted segment) or
  ``"delay"`` (the stripe stalls).

All hooks are no-ops on :data:`NULL_FAULTS`, and every call site guards on
``faults.enabled`` so the disabled path costs one attribute read.

Determinism contract: the canonical :meth:`FaultSchedule.event_log`
contains no wall-clock values.  Planned faults with count-based triggers
and chunk decisions (a pure hash of ``(seed, object_id, chunk_index)``)
produce an identical log whenever the schedule receives the same hook-call
sequence — and two runs of a sequential workload do exactly that.
Fired faults apply one at a time, in firing order, so an outcome never
depends on how two hook threads interleave: a fault fired while another is
being applied is applied by that thread, right after it.  Wall-clock
(``after_seconds``) triggers are provided for long benches but excluded
from the determinism guarantee; prefer count triggers.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Deque, List, Optional, Sequence, Set, Tuple
from repro.common.lockwatch import make_lock

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Runtime
    from repro.gcs.chain import ReplicatedChain

KILL_NODE = "kill_node"
RESTART_NODE = "restart_node"
KILL_CHAIN_MEMBER = "kill_chain_member"

_ACTION_KINDS = (KILL_NODE, RESTART_NODE, KILL_CHAIN_MEMBER)

# Target index meaning "whichever entity triggered the hook" (the node
# currently placing a task / the chain currently being written).
TARGET_SELF = -1


@dataclass(frozen=True)
class FaultTrigger:
    """When a planned fault fires.  Exactly one field may be set."""

    after_tasks: Optional[int] = None
    after_seconds: Optional[float] = None
    at_placement: Optional[int] = None
    after_chain_writes: Optional[int] = None

    def __post_init__(self):
        set_fields = [
            v
            for v in (
                self.after_tasks,
                self.after_seconds,
                self.at_placement,
                self.after_chain_writes,
            )
            if v is not None
        ]
        if len(set_fields) != 1:
            raise ValueError("exactly one trigger field must be set")

    def describe(self) -> str:
        if self.after_tasks is not None:
            return f"tasks={self.after_tasks}"
        if self.at_placement is not None:
            return f"placement={self.at_placement}"
        if self.after_chain_writes is not None:
            return f"chain_writes={self.after_chain_writes}"
        return f"seconds={self.after_seconds}"


@dataclass(frozen=True)
class FaultAction:
    """What a planned fault does when it fires.

    ``target`` is a node index (in cluster join order) for node faults, or
    a GCS shard index for chain faults; :data:`TARGET_SELF` means the
    entity whose hook call fired the trigger.
    """

    kind: str
    target: int = 0
    member: int = 0  # chain member index (0 = head)

    def __post_init__(self):
        if self.kind not in _ACTION_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")


@dataclass(frozen=True)
class PlannedFault:
    trigger: FaultTrigger
    action: FaultAction


class NullFaultInjector:
    """Shared no-op injector installed when fault injection is disabled."""

    enabled = False

    def bind(self, runtime: "Runtime") -> None:
        pass

    def on_task_finished(self) -> None:
        pass

    def on_place(self, node_id: Any) -> None:
        pass

    def on_chain_write(self, shard_index: int, chain: Any = None) -> None:
        pass

    def chunk_fault(self, object_id: Any, chunk_index: int) -> Optional[str]:
        return None

    def poll(self) -> None:
        pass

    def event_log(self) -> Tuple[Tuple[Any, ...], ...]:
        return ()


NULL_FAULTS = NullFaultInjector()


class FaultSchedule(NullFaultInjector):
    """A seeded, replayable schedule of control-plane faults.

    Pass one to ``repro.init(fault_schedule=...)``; the runtime binds it
    and threads the hooks.  A schedule is single-use: construct a fresh one
    (same seed and arguments) to replay the identical fault sequence.
    """

    enabled = True

    def __init__(
        self,
        seed: int = 0,
        faults: Sequence[PlannedFault] = (),
        chunk_drop_probability: float = 0.0,
        chunk_delay_probability: float = 0.0,
        chunk_delay_seconds: float = 0.002,
        max_chunk_faults: int = 64,
    ):
        if not 0.0 <= chunk_drop_probability <= 1.0:
            raise ValueError("chunk_drop_probability must be in [0, 1]")
        if not 0.0 <= chunk_delay_probability <= 1.0:
            raise ValueError("chunk_delay_probability must be in [0, 1]")
        self.seed = seed
        self.chunk_drop_probability = chunk_drop_probability
        self.chunk_delay_probability = chunk_delay_probability
        self.chunk_delay_seconds = chunk_delay_seconds
        self.max_chunk_faults = max_chunk_faults
        if any(f.trigger.after_chain_writes is not None
               and f.action.kind != KILL_CHAIN_MEMBER for f in faults):
            raise ValueError("a chain-write trigger fires inside a GCS write: "
                             "it may only kill a chain member")

        self._lock = make_lock("FaultSchedule._lock")
        self._pending: List[Tuple[int, PlannedFault]] = list(enumerate(faults))
        # Fired faults awaiting application, with their hook's context;
        # ``_applying`` is set while one is being applied (see _apply_due).
        self._due: Deque[tuple] = deque()
        self._applying = False
        self._log: List[Tuple[Any, ...]] = []
        self._tasks = 0
        self._placements = 0
        self._chain_writes = 0
        self._chunk_faults = 0
        self._dropped_chunks: Set[Tuple[Any, int]] = set()
        self._runtime: Optional["Runtime"] = None
        self._started: Optional[float] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        num_nodes: int = 4,
        kills: int = 1,
        restart: bool = True,
        first_kill_after: int = 40,
        kill_gap: int = 30,
        restart_delay: int = 20,
        chain_kills: int = 0,
        num_shards: int = 4,
        **chunk_kwargs: Any,
    ) -> "FaultSchedule":
        """A deterministic staggered kill/restart schedule from one seed.

        Node 0 (the driver's home) is never a kill target, so the cluster
        always keeps a live driver node.
        """
        rng = random.Random(seed)
        faults: List[PlannedFault] = []
        at = first_kill_after
        for _ in range(max(0, kills)):
            at += rng.randrange(0, max(1, kill_gap))
            target = rng.randrange(1, max(2, num_nodes))
            faults.append(
                PlannedFault(
                    FaultTrigger(after_tasks=at),
                    FaultAction(KILL_NODE, target=target),
                )
            )
            if restart:
                faults.append(
                    PlannedFault(
                        FaultTrigger(
                            after_tasks=at + 1 + rng.randrange(0, max(1, restart_delay))
                        ),
                        FaultAction(RESTART_NODE, target=target),
                    )
                )
            at += kill_gap
        for _ in range(max(0, chain_kills)):
            at += rng.randrange(0, max(1, kill_gap))
            faults.append(
                PlannedFault(
                    FaultTrigger(after_tasks=at),
                    FaultAction(
                        KILL_CHAIN_MEMBER,
                        target=rng.randrange(num_shards),
                        member=0,
                    ),
                )
            )
        return cls(seed=seed, faults=faults, **chunk_kwargs)

    # ------------------------------------------------------------------
    # Binding and introspection
    # ------------------------------------------------------------------

    def bind(self, runtime: "Runtime") -> None:
        with self._lock:
            if self._runtime is not None and self._runtime is not runtime:
                raise RuntimeError(
                    "a FaultSchedule is single-use; build a fresh one per run"
                )
            self._runtime = runtime
            if self._started is None:
                self._started = time.monotonic()

    def event_log(self) -> Tuple[Tuple[Any, ...], ...]:
        """The canonical injected-fault log (no wall-clock values): the
        replay-determinism artifact compared across same-seed runs."""
        with self._lock:
            return tuple(self._log)

    def signature(self) -> str:
        """Stable digest of the event log, for quick replay comparison."""
        return hashlib.sha1(repr(self.event_log()).encode()).hexdigest()

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    # ------------------------------------------------------------------
    # Hooks (called by the instrumented layers)
    # ------------------------------------------------------------------

    def on_task_finished(self) -> None:
        with self._lock:
            self._tasks += 1
            self._collect_due_locked("tasks")
        self._apply_due()

    def on_place(self, node_id: Any) -> None:
        with self._lock:
            self._placements += 1
            self._collect_due_locked("placement", node_id)
        self._apply_due()

    def on_chain_write(self, shard_index: int, chain: Any = None) -> None:
        with self._lock:
            self._chain_writes += 1
            self._collect_due_locked("chain", None, shard_index, chain)
        self._apply_due(in_write=True)

    def poll(self) -> None:
        """Fire any due wall-clock triggers (benches call this between
        measurement windows; count triggers need no polling)."""
        with self._lock:
            self._collect_due_locked("time")
        self._apply_due()

    def chunk_fault(self, object_id: Any, chunk_index: int) -> Optional[str]:
        """Deterministic per-stripe decision: ``"drop"``, ``"delay"``, or
        None.  A pure hash of (seed, object, chunk) picks the outcome, so
        the same transfer makes the same decision on every run; each chunk
        drops at most once (the retried copy goes through), and a global
        budget bounds total injected chunk faults.
        """
        p_drop = self.chunk_drop_probability
        p_delay = self.chunk_delay_probability
        if p_drop <= 0.0 and p_delay <= 0.0:
            return None
        digest = hashlib.sha1(
            f"{self.seed}:{object_id.hex()}:{chunk_index}".encode()
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        with self._lock:
            if self._chunk_faults >= self.max_chunk_faults:
                return None
            if draw < p_drop:
                key = (object_id, chunk_index)
                if key in self._dropped_chunks:
                    return None
                self._dropped_chunks.add(key)
                self._chunk_faults += 1
                self._log.append(
                    ("chunk", "drop", object_id.hex()[:8], chunk_index)
                )
                return "drop"
            if draw < p_drop + p_delay:
                self._chunk_faults += 1
                self._log.append(
                    ("chunk", "delay", object_id.hex()[:8], chunk_index)
                )
                return "delay"
        return None

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------

    def _collect_due_locked(self, source: str, *context: Any) -> None:
        """Queue the due planned faults for one hook kind, with the hook's
        ``context`` (see :meth:`_apply`), in firing order (lock held).

        A count trigger fires only from the hook that advances its counter,
        so a ``TARGET_SELF`` action always receives the context it names
        and the firing site is independent of cross-thread hook
        interleaving.  Wall-clock triggers fire from any hook but the chain
        write's, which runs inside a GCS write.
        """
        if not self._pending:
            return
        elapsed = (
            time.monotonic() - self._started if self._started is not None else 0.0
        )
        remaining: List[Tuple[int, PlannedFault]] = []
        for index, fault in self._pending:
            t = fault.trigger
            due = t.after_seconds is not None and elapsed >= t.after_seconds
            fired = (due and source != "chain") or (
                source == "tasks"
                and t.after_tasks is not None
                and self._tasks >= t.after_tasks
            ) or (
                source == "placement"
                and t.at_placement is not None
                and self._placements >= t.at_placement
            ) or (
                source == "chain"
                and t.after_chain_writes is not None
                and self._chain_writes >= t.after_chain_writes
            )
            if fired:
                self._due.append((index, fault) + context)
            else:
                remaining.append((index, fault))
        self._pending = remaining

    def _apply_due(self, in_write: bool = False) -> None:
        """Apply queued faults one at a time, in the order they fired.

        Whoever finds no fault being applied applies the queue, including
        faults that its own applications fire; a hook that finds one in
        progress leaves its faults queued and returns.  So a restart fired
        while its node's kill is still running applies after that kill, not
        against the half-killed node, and no hook ever waits on another
        thread's fault.  A hook ``in_write`` (a chain write's) stops at a
        node fault: the next other hook applies it, outside any GCS write.
        """
        while self._due:  # unlocked peek: the hook that queues one drains
            with self._lock:
                if self._applying or not self._due or (
                    in_write and self._due[0][1].action.kind != KILL_CHAIN_MEMBER
                ):
                    return
                self._applying = True
                queued = self._due.popleft()
            try:
                self._apply(*queued)
            finally:
                with self._lock:
                    self._applying = False

    @staticmethod
    def _mirror_to_gcs(runtime: "Runtime", index: int, fault: PlannedFault,
                       node: Any) -> None:
        """Publish an applied node-level fault into the GCS event log.

        This feeds the dashboard's merged ``/events`` timeline
        (``fault_injected`` category).  The determinism contract is
        untouched: ``--verify`` compares :meth:`event_log`, this schedule's
        own wall-clock-free record.  Only node-level faults are mirrored —
        chain-member kills fire from inside GCS chain write paths, where a
        nested event append could recurse into the chain being mutated.
        Runs outside the schedule's internal mutex.
        """
        runtime.gcs.record_event(
            "fault_injected",
            index=index,
            kind=fault.action.kind,
            trigger=fault.trigger.describe(),
            node=node.node_id.hex()[:8],
        )

    def _record(self, index: int, fault: PlannedFault, outcome: str) -> None:
        with self._lock:
            self._log.append(
                (
                    "planned",
                    index,
                    fault.trigger.describe(),
                    fault.action.kind,
                    fault.action.target,
                    fault.action.member,
                    outcome,
                )
            )

    def _apply(
        self,
        index: int,
        fault: PlannedFault,
        context_node_id: Any = None,
        context_shard: Optional[int] = None,
        context_chain: Any = None,
    ) -> None:
        """Execute one planned fault with its hook's context.  Unbound
        schedules (dry runs / the determinism tests) log the decision
        without touching a cluster.  Applying never raises into the
        instrumented layer: an injection error becomes a ``"failed"``
        outcome."""
        runtime = self._runtime
        action = fault.action
        if runtime is None:
            self._record(index, fault, "dry_run")
            return
        try:
            if action.kind == KILL_NODE:
                node = self._resolve_node(runtime, action.target, context_node_id)
                if node is None or not node.alive or len(runtime.live_nodes()) <= 1:
                    self._record(index, fault, "skipped")
                    return
                self._record(index, fault, "applied")
                self._mirror_to_gcs(runtime, index, fault, node)
                runtime.kill_node(node.node_id)
            elif action.kind == RESTART_NODE:
                node = self._resolve_node(runtime, action.target, context_node_id)
                if node is None or node.alive:
                    self._record(index, fault, "skipped")
                    return
                self._record(index, fault, "applied")
                self._mirror_to_gcs(runtime, index, fault, node)
                runtime.restart_node(node.node_id)
            else:  # KILL_CHAIN_MEMBER
                chain = self._resolve_chain(runtime, action.target, context_chain)
                if chain is None or chain.chain_length() <= 1:
                    self._record(index, fault, "skipped")
                    return
                self._record(index, fault, "applied")
                chain.kill_member(action.member % chain.chain_length())
        except Exception:  # noqa: BLE001 - injection must not crash workers
            self._record(index, fault, "failed")

    @staticmethod
    def _resolve_node(runtime: "Runtime", target: int, context_node_id: Any):
        if target == TARGET_SELF:
            if context_node_id is None:
                return None
            return runtime.node(context_node_id)
        return runtime.node_by_index(target)

    @staticmethod
    def _resolve_chain(
        runtime: "Runtime", target: int, context_chain: Any
    ) -> Optional["ReplicatedChain"]:
        if target == TARGET_SELF:
            return context_chain
        shards = runtime.gcs.kv.shards
        if not shards:
            return None
        return shards[target % len(shards)]
