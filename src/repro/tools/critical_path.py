"""Critical-path analysis over the task graph and lifecycle trace.

A job's wall-clock time is governed by its *critical path*: the chain of
lineage-dependent task executions ending at the last task to finish.
:class:`CriticalPath` walks that chain backwards through the dynamic task
graph (data and stateful edges) and attributes each link's elapsed time to
one of three phases — **scheduling** (submit → placement plus ready-queue
wait), **transfer** (placement → inputs local), and **execution** — the
decomposition the paper's Section 7 debugging tools are built to answer:
"where did the time go?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.tools.timeline import TaskLifecycle, Timeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Runtime

PHASES = ("scheduling", "transfer", "execution")


@dataclass(frozen=True)
class CriticalPathStep:
    """One task on the critical path, with its phase attribution.

    Phase segments only count time *after* ``t0`` — the instant this step
    became the path's frontier (its predecessor's finish, or its own
    submit time if later) — so overlapping work is never double-counted
    and the per-step segments telescope across the whole path.
    """

    task: str
    name: str
    node: str
    kind: str
    t0: float
    finished: float
    scheduling_seconds: float
    transfer_seconds: float
    execution_seconds: float

    @property
    def total_seconds(self) -> float:
        return (
            self.scheduling_seconds + self.transfer_seconds + self.execution_seconds
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "task": self.task,
            "name": self.name,
            "node": self.node,
            "kind": self.kind,
            "t0": self.t0,
            "finished": self.finished,
            "scheduling_seconds": self.scheduling_seconds,
            "transfer_seconds": self.transfer_seconds,
            "execution_seconds": self.execution_seconds,
        }


@dataclass
class CriticalPathReport:
    steps: List[CriticalPathStep] = field(default_factory=list)
    wall_clock_seconds: float = 0.0

    @property
    def phase_totals(self) -> Dict[str, float]:
        totals = dict.fromkeys(PHASES, 0.0)
        for step in self.steps:
            totals["scheduling"] += step.scheduling_seconds
            totals["transfer"] += step.transfer_seconds
            totals["execution"] += step.execution_seconds
        return totals

    @property
    def attributed_seconds(self) -> float:
        return sum(self.phase_totals.values())

    @property
    def coverage(self) -> float:
        """Fraction of the path's wall clock explained by the three
        phases; the remainder is submission gaps (a task submitted after
        its predecessor finished) or clock jitter."""
        if self.wall_clock_seconds <= 0:
            return 1.0 if not self.steps else 0.0
        return min(1.0, self.attributed_seconds / self.wall_clock_seconds)

    @property
    def dominant_phase(self) -> Optional[str]:
        if not self.steps:
            return None
        return max(PHASES, key=lambda p: self.phase_totals[p])

    @property
    def task_chain(self) -> List[str]:
        return [step.task for step in self.steps]

    def as_dict(self) -> Dict[str, object]:
        return {
            "steps": [step.as_dict() for step in self.steps],
            "wall_clock_seconds": self.wall_clock_seconds,
            "phase_totals": self.phase_totals,
            "attributed_seconds": self.attributed_seconds,
            "coverage": self.coverage,
            "dominant_phase": self.dominant_phase,
            "task_chain": self.task_chain,
        }

    def format(self) -> str:
        if not self.steps:
            return "(no finished tasks — nothing to analyze)"
        lines = [
            f"critical path: {len(self.steps)} tasks, "
            f"{self.wall_clock_seconds * 1e3:.2f} ms wall clock "
            f"({self.coverage * 100.0:.1f}% attributed, "
            f"dominant phase: {self.dominant_phase})"
        ]
        totals = self.phase_totals
        for phase in PHASES:
            lines.append(f"  {phase:<10} {totals[phase] * 1e3:10.3f} ms")
        for step in self.steps:
            lines.append(
                f"  {step.task} {step.name:<20} on {step.node}  "
                f"sched={step.scheduling_seconds * 1e3:.3f}ms "
                f"xfer={step.transfer_seconds * 1e3:.3f}ms "
                f"exec={step.execution_seconds * 1e3:.3f}ms"
            )
        return "\n".join(lines)


class CriticalPath:
    """Walks the task graph (a view of the GCS task table, read once per
    analysis) backwards from the last finish to build the longest
    lineage-dependent chain, then attributes its time."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime

    def _latest_lifecycles(self) -> Dict[str, TaskLifecycle]:
        """Last *finished* execution per task (replays supersede).  An
        actor's creation is left out: it is the actor's set-up, not a step
        its methods wait on once they are submitted, and the gap before
        the first method would read as the path's wall clock."""
        latest: Dict[str, TaskLifecycle] = {}
        for lc in Timeline(self.runtime).lifecycles():
            if lc.finished is None or lc.kind == "actor_creation":
                continue
            prior = latest.get(lc.task)
            if prior is None or lc.finished >= (prior.finished or 0.0):
                latest[lc.task] = lc
        return latest

    def analyze(self) -> CriticalPathReport:
        lifecycles = self._latest_lifecycles()
        graph = self.runtime.graph
        if not lifecycles:
            return CriticalPathReport()

        id_of = {
            task_id.hex()[:8]: task_id
            for task_id in graph.task_ids()
            if task_id.hex()[:8] in lifecycles
        }

        # 1. Terminal task: the latest finish anywhere in the trace.
        terminal = max(lifecycles.values(), key=lambda lc: lc.finished or 0.0)

        # 2. Walk back: at each task pick the predecessor that finished
        #    last — the one that actually gated this task's start.
        chain: List[TaskLifecycle] = [terminal]
        seen = {terminal.task}
        current = terminal
        while True:
            task_id = id_of.get(current.task)
            if task_id is None:
                break
            best: Optional[TaskLifecycle] = None
            for pred_id in graph.predecessors_of(task_id):
                pred = lifecycles.get(pred_id.hex()[:8])
                if pred is None or pred.task in seen:
                    continue
                if best is None or (pred.finished or 0.0) > (best.finished or 0.0):
                    best = pred
            if best is None:
                break
            chain.append(best)
            seen.add(best.task)
            current = best
        chain.reverse()

        # 3. Attribute each link's [t0, finish) window to phases.
        steps: List[CriticalPathStep] = []
        prev_finish: Optional[float] = None
        for lc in chain:
            anchor = _first_known(lc)
            t0 = anchor if prev_finish is None else max(prev_finish, _submit(lc))
            s = lc.scheduled if lc.scheduled is not None else t0
            r = lc.inputs_ready if lc.inputs_ready is not None else s
            x = lc.started if lc.started is not None else r
            f = lc.finished or x
            seg_sched = max(0.0, s - t0) + max(0.0, x - max(t0, r))
            seg_transfer = max(0.0, r - max(t0, s))
            seg_exec = max(0.0, f - max(t0, x))
            steps.append(
                CriticalPathStep(
                    task=lc.task,
                    name=lc.name,
                    node=lc.node,
                    kind=lc.kind,
                    t0=t0,
                    finished=f,
                    scheduling_seconds=seg_sched,
                    transfer_seconds=seg_transfer,
                    execution_seconds=seg_exec,
                )
            )
            prev_finish = f

        wall_clock = steps[-1].finished - steps[0].t0 if steps else 0.0
        return CriticalPathReport(steps=steps, wall_clock_seconds=max(0.0, wall_clock))


def _first_known(lc: TaskLifecycle) -> float:
    for value in (lc.submitted, lc.scheduled, lc.inputs_ready, lc.started):
        if value is not None:
            return value
    return lc.finished or 0.0


def _submit(lc: TaskLifecycle) -> float:
    """Submit time for gap accounting; -inf when unknown so ``max`` falls
    back to the predecessor's finish."""
    return lc.submitted if lc.submitted is not None else float("-inf")
