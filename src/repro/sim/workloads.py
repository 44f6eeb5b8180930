"""Workload generators for the simulation benchmarks.

Each generator produces :class:`~repro.sim.cluster.SimTask` lists shaped
like a paper experiment:

* ``empty_tasks`` — Figure 8b's embarrassingly parallel no-op tasks;
* ``locality_tasks`` — Figure 8a's 1000 tasks each depending on one
  randomly-placed object of a given size;
* ``dependency_chains`` — Figure 11a's linear chains of 100 ms tasks;
* ``heterogeneous_rollouts`` — Table 4's variable-length simulation tasks;
* ``fanin_tasks`` — locality-heavy wide fan-in: each task consumes a whole
  group of large objects co-located on one home node;
* ``skewed_actor_tasks`` — actor-heavy skew: a few wide lifetime-
  reservation tasks among many short methods, submitted from hot nodes.

The last two are the league-table shapes raced by
:mod:`repro.sim.league` (with ``empty_tasks``).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.sim.cluster import SimCluster, SimTask


def empty_tasks(count: int, duration: float = 0.0) -> List[SimTask]:
    """No-op tasks (Figure 8b / 10b)."""
    return [SimTask(name=f"noop-{i}", duration=duration) for i in range(count)]


def locality_tasks(
    cluster: SimCluster,
    count: int,
    object_size: int,
    task_duration: float = 1e-3,
    num_objects: Optional[int] = None,
    seed: int = 0,
) -> List[SimTask]:
    """Tasks each depending on one object pre-placed on a random node.

    Figure 8a: with locality-aware placement, latency stays flat in object
    size; without it, tasks routinely pay a transfer.
    """
    rng = random.Random(seed)
    live = cluster.live_node_indices()
    num_objects = num_objects or count
    for i in range(num_objects):
        cluster.put_object(f"input-{i}", object_size, rng.choice(live))
    return [
        SimTask(
            name=f"consume-{i}",
            duration=task_duration,
            deps=(f"input-{rng.randrange(num_objects)}",),
        )
        for i in range(count)
    ]


def dependency_chains(
    num_chains: int,
    chain_length: int,
    task_duration: float = 0.1,
    output_size: int = 1024,
) -> List[List[SimTask]]:
    """Linear chains: task i consumes task i-1's output (Figure 11a)."""
    chains: List[List[SimTask]] = []
    for c in range(num_chains):
        chain: List[SimTask] = []
        for i in range(chain_length):
            deps: Tuple[str, ...] = (f"chain{c}-obj{i - 1}",) if i > 0 else ()
            chain.append(
                SimTask(
                    name=f"chain{c}-task{i}",
                    duration=task_duration,
                    deps=deps,
                    outputs=((f"chain{c}-obj{i}", output_size),),
                )
            )
        chains.append(chain)
    return chains


def fanin_tasks(
    cluster: SimCluster,
    count: int,
    fan_in: int = 8,
    object_size: int = 5_000_000,
    num_groups: Optional[int] = None,
    task_duration: float = 1e-3,
    seed: int = 0,
) -> List[SimTask]:
    """Locality-heavy wide fan-in: tasks consuming whole object groups.

    ``num_groups`` groups of ``fan_in`` objects are each pre-placed on one
    randomly chosen *home* node; every task consumes one full group.  A
    locality-aware policy places the task with its group and pays nothing;
    a blind one ships ``fan_in × object_size`` bytes per miss.
    """
    rng = random.Random(seed)
    live = cluster.live_node_indices()
    num_groups = num_groups or max(1, count // 16)
    groups: List[Tuple[str, ...]] = []
    for g in range(num_groups):
        home = rng.choice(live)
        names = tuple(f"group{g}-part{j}" for j in range(fan_in))
        for name in names:
            cluster.put_object(name, object_size, home)
        groups.append(names)
    return [
        SimTask(
            name=f"fanin-{i}",
            duration=task_duration,
            deps=groups[rng.randrange(num_groups)],
        )
        for i in range(count)
    ]


def skewed_actor_tasks(
    count: int,
    heavy_fraction: float = 0.15,
    heavy_cpus: int = 4,
    heavy_duration: float = 0.05,
    light_duration: float = 1e-3,
    seed: int = 0,
) -> List[SimTask]:
    """Actor-heavy skew: wide long reservations among short methods.

    ``heavy_fraction`` of the tasks model actor creations / long methods —
    they grab ``heavy_cpus`` cores for ``heavy_duration`` (scaled 1–4x) —
    while the rest are millisecond "method calls".  Durations and arrival
    order are shuffled, so backlog- and capacity-aware policies (which see
    the reservations through ``can_run_now`` and queue depth) pull ahead
    of blind ones.
    """
    rng = random.Random(seed)
    tasks: List[SimTask] = []
    for i in range(count):
        if rng.random() < heavy_fraction:
            tasks.append(
                SimTask(
                    name=f"actor-{i}",
                    duration=heavy_duration * rng.randint(1, 4),
                    num_cpus=heavy_cpus,
                )
            )
        else:
            tasks.append(
                SimTask(
                    name=f"method-{i}",
                    duration=light_duration * rng.randint(1, 3),
                )
            )
    return tasks


def heterogeneous_rollouts(
    count: int,
    per_step_seconds: float,
    min_steps: int = 10,
    max_steps: int = 1000,
    seed: int = 0,
) -> List[Tuple[SimTask, int]]:
    """Simulation tasks with variable step counts (Table 4).

    Returns (task, steps) pairs so callers can compute timesteps/second.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        steps = rng.randint(min_steps, max_steps)
        out.append(
            (
                SimTask(name=f"rollout-{i}", duration=steps * per_step_seconds),
                steps,
            )
        )
    return out
