"""Spillback policies: should a locally-submitted task go to the global
scheduler?

The paper's bottom-up scheduler (§4.2.2) forwards a task when the local
node is overloaded; what "overloaded" means is itself a policy choice, so
the decision sits behind :class:`SpillbackPolicy` in the local scheduler.
Hard constraints — a dead node, or a resource request the node can *never*
satisfy — are checked by the local scheduler before the policy is asked
and always forward.
"""

from __future__ import annotations

from repro.core.scheduling.registry import register_spillback
from repro.core.scheduling.view import NodeView, TaskView


class SpillbackPolicy:
    """Decide whether a feasible local submission should spill to global."""

    name = "abstract"

    def should_forward(self, task: TaskView, node: NodeView) -> bool:
        raise NotImplementedError


@register_spillback("threshold")
class ThresholdSpillback(SpillbackPolicy):
    """Classic bottom-up rule: forward when the backlog hits a threshold."""

    name = "threshold"

    def __init__(self, threshold: int = 16):
        self.threshold = threshold

    def should_forward(self, task: TaskView, node: NodeView) -> bool:
        return node.backlog() >= self.threshold


@register_spillback("always")
class AlwaysSpillback(SpillbackPolicy):
    """Every task goes through the global scheduler (centralized mode —
    pair with the ``central_queue`` placement policy for a Dask-style
    single decision point, or with any policy to measure the cost of
    losing bottom-up local placement)."""

    name = "always"

    def should_forward(self, task: TaskView, node: NodeView) -> bool:
        return True


@register_spillback("never")
class NeverSpillback(SpillbackPolicy):
    """Feasible tasks always run where they were submitted (pure
    bottom-up, no load shedding — the other ablation endpoint)."""

    name = "never"

    def should_forward(self, task: TaskView, node: NodeView) -> bool:
        return False
