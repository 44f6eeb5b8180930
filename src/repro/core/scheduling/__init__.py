"""Pluggable scheduler policy layer (paper §4.2.2 as a policy *space*).

One :class:`SchedulerPolicy` interface is shared by the live runtime
(``repro.init(scheduler_policy=...)``) and the discrete-event simulator
(``SimConfig(scheduler_policy=...)``): a policy observes a read-only
:class:`ClusterView` and returns a :class:`Placement`.  The spillback
decision in each local scheduler sits behind the companion
:class:`SpillbackPolicy`.  See ``docs/SCHEDULING.md`` for the contract and
:mod:`repro.sim.league` for the league table that races every
registered policy.
"""

from repro.core.scheduling.registry import (
    available_policies,
    available_spillbacks,
    make_policy,
    make_spillback,
    register_policy,
    register_spillback,
)
from repro.core.scheduling.view import (
    ClusterView,
    DepInfo,
    NodeView,
    RuntimeNodeView,
    SimNodeView,
    TaskView,
)
from repro.core.scheduling.policies import (
    CentralQueuePolicy,
    LocalityPolicy,
    LowestEstimatedWaitPolicy,
    Placement,
    PowerOfTwoPolicy,
    RoundRobinPolicy,
    SchedulerPolicy,
    TIE_EPSILON,
)
from repro.core.scheduling.spillback import (
    AlwaysSpillback,
    NeverSpillback,
    SpillbackPolicy,
    ThresholdSpillback,
)

__all__ = [
    "AlwaysSpillback",
    "CentralQueuePolicy",
    "ClusterView",
    "DepInfo",
    "LocalityPolicy",
    "LowestEstimatedWaitPolicy",
    "NeverSpillback",
    "NodeView",
    "Placement",
    "PowerOfTwoPolicy",
    "RoundRobinPolicy",
    "RuntimeNodeView",
    "SchedulerPolicy",
    "SimNodeView",
    "SpillbackPolicy",
    "TaskView",
    "ThresholdSpillback",
    "TIE_EPSILON",
    "available_policies",
    "available_spillbacks",
    "make_policy",
    "make_spillback",
    "register_policy",
    "register_spillback",
]
