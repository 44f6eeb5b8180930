"""The scheduler policy zoo.

Every policy implements :meth:`SchedulerPolicy.place`: observe a read-only
:class:`~repro.core.scheduling.view.ClusterView`, return a
:class:`Placement`.  The same policy objects drive the live runtime
(``repro.init(scheduler_policy=...)``) and the discrete-event simulator
(``SimConfig(scheduler_policy=...)``); :mod:`repro.sim.league` races
the whole registry at 100k–1M simulated tasks.

Policies must be deterministic given their constructor arguments: the
power-of-two sampler carries its own seeded RNG, and tie-breaks use
monotone counters, never wall-clock or global randomness — this is what
makes league-table runs replayable.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional

from repro.core.scheduling.registry import register_policy
from repro.core.scheduling.view import ClusterView, NodeView, TaskView

# Two waiting-time estimates within this of each other count as a tie.
TIE_EPSILON = 1e-12


class Placement:
    """A policy's verdict: the chosen node, plus optional introspection."""

    __slots__ = ("node", "estimated_wait")

    def __init__(self, node: NodeView, estimated_wait: Optional[float] = None):
        self.node = node
        self.estimated_wait = estimated_wait


class SchedulerPolicy:
    """Interface contract for placement policies.

    ``place`` is called with a non-empty candidate list (alive + feasible —
    hard constraints are enforced by the caller, never by the policy) and
    must return a :class:`Placement` whose node is one of
    ``view.nodes``.  Policies may keep internal state (tie-break counters,
    sampling RNGs) but must not mutate the view.
    """

    #: Registry name; also the ``policy`` label on scheduler metrics.
    name = "abstract"

    def place(self, task: TaskView, view: ClusterView) -> Placement:
        raise NotImplementedError

    def score(self, task: TaskView, node: NodeView, view: ClusterView) -> float:
        """Estimated waiting time of ``node`` for ``task`` (lower wins).

        The default is the pure queue term; scoring policies override.
        Exposed for introspection (``GlobalScheduler.estimated_wait``).
        """
        return node.backlog() * view.avg_task_duration


@register_policy("lowest_wait")
class LowestEstimatedWaitPolicy(SchedulerPolicy):
    """The paper's §4.2.2 policy: lowest estimated waiting time.

    Score = queued work (backlog × EWMA task duration) + remote input
    bytes ÷ EWMA bandwidth, with a penalty for nodes whose resources are
    exhausted *right now* (lifetime actor reservations never appear in the
    backlog).  Near-ties round-robin so equal nodes share load.

    ``locality_aware=False`` drops the transfer term — the Figure 8a
    ablation.
    """

    name = "lowest_wait"

    def __init__(self, locality_aware: bool = True):
        self.locality_aware = locality_aware
        # itertools.count is C-implemented: atomic without a lock.
        self._tie_breaker = itertools.count()

    def score(self, task: TaskView, node: NodeView, view: ClusterView) -> float:
        queue_term = node.backlog() * view.avg_task_duration
        if not node.can_run_now(task.resources):
            queue_term += max(1.0, 10 * view.avg_task_duration)
        if not self.locality_aware:
            return queue_term
        return queue_term + view.remote_input_bytes(task, node) / view.bandwidth

    def place(self, task: TaskView, view: ClusterView) -> Placement:
        offset = next(self._tie_breaker)
        scored = [(self.score(task, node, view), node) for node in view.nodes]
        best_wait = min(score for score, _n in scored)
        ties = [node for score, node in scored if score <= best_wait + TIE_EPSILON]
        return Placement(ties[offset % len(ties)], estimated_wait=best_wait)


@register_policy("locality")
class LocalityPolicy(SchedulerPolicy):
    """Pure locality: maximize co-located input bytes.

    Ignores queue depth except as a tie-break (most local bytes first,
    then least backlog, then round-robin).  Wins on wide fan-in over large
    objects; collapses on uniform workloads, where it degenerates to
    round-robin over equally-empty nodes.
    """

    name = "locality"

    def __init__(self):
        self._tie_breaker = itertools.count()

    def score(self, task: TaskView, node: NodeView, view: ClusterView) -> float:
        # Lower is better, so local bytes count negatively; backlog breaks
        # byte-ties at a scale that never outweighs one byte of locality.
        return -view.local_input_bytes(task, node) + node.backlog() * 1e-9

    def place(self, task: TaskView, view: ClusterView) -> Placement:
        offset = next(self._tie_breaker)
        scored = [
            ((-view.local_input_bytes(task, node), node.backlog()), node)
            for node in view.nodes
        ]
        best = min(score for score, _n in scored)
        ties = [node for score, node in scored if score == best]
        return Placement(ties[offset % len(ties)])


@register_policy("power_of_two")
class PowerOfTwoPolicy(SchedulerPolicy):
    """Power of two choices: probe two random nodes, take the less loaded.

    O(1) per decision regardless of cluster size — it never scans the full
    candidate list — while still exponentially better than random
    placement (Mitzenmacher's "power of two choices" result).  The sampler
    RNG is owned and seeded, so placements are replayable.
    """

    name = "power_of_two"

    def __init__(self, seed: int = 0x5EED):
        self._rng = random.Random(seed)

    def place(self, task: TaskView, view: ClusterView) -> Placement:
        nodes = view.nodes
        if len(nodes) <= 2:
            probes = nodes
        else:
            first = self._rng.randrange(len(nodes))
            second = self._rng.randrange(len(nodes) - 1)
            if second >= first:
                second += 1
            probes = (nodes[first], nodes[second])
        best = None
        best_backlog = None
        for node in probes:
            backlog = node.backlog()
            if best_backlog is None or backlog < best_backlog:
                best, best_backlog = node, backlog
        return Placement(best)


@register_policy("round_robin")
class RoundRobinPolicy(SchedulerPolicy):
    """Cycle through the candidates, blind to load and locality.

    The floor of the league table: any informed policy should beat it on
    skewed workloads; on embarrassingly parallel uniform ones it is nearly
    optimal and pays the cheapest decision cost of the scanning policies.
    """

    name = "round_robin"

    def __init__(self):
        self._counter = itertools.count()

    def place(self, task: TaskView, view: ClusterView) -> Placement:
        return Placement(view.nodes[next(self._counter) % len(view.nodes)])


@register_policy("central_queue")
class CentralQueuePolicy(SchedulerPolicy):
    """Dask-style central scheduler: one queue, least-occupied node wins.

    Models a centralized scheduler that tracks per-worker occupancy and
    assigns each task to the emptiest worker, with no locality term ("the
    scheduler moves the data to the task").  Pair with the ``always``
    spillback policy so every task actually flows through the central
    decision point, as in Dask's single scheduler process.
    """

    name = "central_queue"

    def __init__(self):
        self._tie_breaker = itertools.count()

    def place(self, task: TaskView, view: ClusterView) -> Placement:
        offset = next(self._tie_breaker)
        backlogs = [(node.backlog(), node) for node in view.nodes]
        best = min(backlog for backlog, _n in backlogs)
        ties = [node for backlog, node in backlogs if backlog == best]
        return Placement(ties[offset % len(ties)])
