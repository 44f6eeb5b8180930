"""Resource accounting for nodes.

Ray lets developers attach resource requirements (CPUs, GPUs, custom
resources) to tasks and actors; schedulers use them both for feasibility
(a node without a GPU can never run a GPU task) and for load decisions.

A :class:`ResourcePool` tracks one node's total and available resources.
Acquisition is all-or-nothing.  A worker that *blocks* (e.g. in ``get``)
temporarily releases its resources so the node can keep executing — this
mirrors Ray's handling of nested tasks and prevents deadlock when a parent
task waits on children.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional
from repro.common.lockwatch import make_condition

ResourceDict = Dict[str, float]

DEFAULT_TASK_RESOURCES: ResourceDict = {"CPU": 1.0}


def normalize_resources(
    num_cpus: Optional[float] = None,
    num_gpus: Optional[float] = None,
    resources: Optional[ResourceDict] = None,
    default_cpus: float = 1.0,
) -> ResourceDict:
    """Build a canonical resource request dict from API arguments."""
    request: ResourceDict = {}
    request["CPU"] = float(num_cpus) if num_cpus is not None else default_cpus
    if num_gpus:
        request["GPU"] = float(num_gpus)
    for name, amount in (resources or {}).items():
        if name in ("CPU", "GPU"):
            raise ValueError(f"pass {name} via num_cpus/num_gpus, not resources=")
        if amount < 0:
            raise ValueError(f"negative resource amount for {name!r}")
        request[name] = float(amount)
    if request["CPU"] < 0:
        raise ValueError("negative CPU request")
    return {k: v for k, v in request.items() if v > 0 or k == "CPU"}


class ResourcePool:
    """Thread-safe resource ledger for one node."""

    def __init__(self, total: ResourceDict):
        for name, amount in total.items():
            if amount < 0:
                raise ValueError(f"negative capacity for {name!r}")
        self._total: ResourceDict = dict(total)
        self._available: ResourceDict = dict(total)
        self._cond = make_condition("ResourcePool._cond")
        self._release_listeners = []

    def add_release_listener(self, callback) -> None:
        """Register a callback invoked (without locks held) after every
        release, on the releasing thread — the node's local scheduler hands
        the queued tasks that now fit to workers there."""
        self._release_listeners.append(callback)

    @property
    def total(self) -> ResourceDict:
        return dict(self._total)

    def available(self) -> ResourceDict:
        with self._cond:
            return dict(self._available)

    def can_ever_satisfy(self, request: ResourceDict) -> bool:
        """Feasibility: could this node run the task when fully idle?"""
        return all(self._total.get(name, 0.0) >= amount for name, amount in request.items())

    def can_acquire_now(self, request: ResourceDict) -> bool:
        with self._cond:
            return self._fits(request)

    def _fits(self, request: ResourceDict) -> bool:
        return all(
            self._available.get(name, 0.0) >= amount - 1e-9
            for name, amount in request.items()
        )

    def try_acquire(self, request: ResourceDict) -> bool:
        with self._cond:
            if not self._fits(request):
                return False
            for name, amount in request.items():
                self._available[name] = self._available.get(name, 0.0) - amount
            return True

    def acquire(self, request: ResourceDict, timeout: Optional[float] = None) -> bool:
        """Block until the request fits, then take it.  Returns False on
        timeout (the caller must not assume the resources are held)."""
        with self._cond:
            acquired = self._cond.wait_for(
                lambda: self._fits(request), timeout=timeout
            )
            if not acquired:
                return False
            for name, amount in request.items():
                self._available[name] = self._available.get(name, 0.0) - amount
            return True

    def release(self, request: ResourceDict) -> None:
        with self._cond:
            for name, amount in request.items():
                new_value = self._available.get(name, 0.0) + amount
                if new_value > self._total.get(name, 0.0) + 1e-9:
                    raise ValueError(
                        f"release of {name!r} exceeds capacity "
                        f"({new_value} > {self._total.get(name, 0.0)})"
                    )
                self._available[name] = new_value
            self._cond.notify_all()
        for callback in self._release_listeners:
            callback()

    def utilization(self, name: str = "CPU") -> float:
        with self._cond:
            total = self._total.get(name, 0.0)
            if total == 0:
                return 0.0
            return 1.0 - self._available.get(name, 0.0) / total
