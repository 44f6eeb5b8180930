"""Task execution timeline from the GCS event log.

The paper's timeline visualization tool uses the GCS event log as its
backend (Section 7).  :meth:`Timeline.lifecycles` is this package's one
reader of the task events: it stitches ``task_submitted`` /
``task_scheduled`` / ``task_inputs_ready`` / ``task_finished`` into one
causal record per task execution (submit → schedule → fetch → execute).
Every other view renders those records: :meth:`Timeline.spans` (the
executions that started), exported as Chrome trace JSON (loadable in
``chrome://tracing`` / Perfetto) or as an ASCII lane chart, the
per-function :mod:`repro.tools.profiler`, and
:mod:`repro.tools.critical_path`.  With ``trace_events_enabled=False``
only ``task_finished`` is recorded, and a lifecycle carries the execution
alone.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Runtime
    from repro.gcs.tables import EventRecord

# The task-event categories, in lifecycle order.
_TASK_EVENTS = (
    "task_submitted", "task_scheduled", "task_inputs_ready", "task_finished"
)


def _nth(entries: List[Dict[str, Any]], i: int, key: str) -> Any:
    """``key`` of the ``i``-th entry, or None past the end."""
    return entries[i].get(key) if i < len(entries) else None


@dataclass(frozen=True)
class TimelineSpan:
    """One task execution: [start, start+duration) on a node."""

    name: str
    task: str
    node: str
    start: float
    duration: float
    kind: str
    status: str

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class TaskLifecycle:
    """One execution of a task, stitched from its lifecycle events.

    Timestamps are ``time.perf_counter`` values; any stage the log does
    not cover (e.g. the submit event of a reconstruction-driven replay)
    is None.  Phase durations clamp to zero so clock jitter between
    emitting threads never produces negative spans.
    """

    task: str
    name: str
    node: str
    kind: str
    status: str
    submitted: Optional[float]
    scheduled: Optional[float]
    inputs_ready: Optional[float]
    started: Optional[float]
    finished: Optional[float]

    @staticmethod
    def _delta(a: Optional[float], b: Optional[float]) -> float:
        if a is None or b is None:
            return 0.0
        return max(0.0, b - a)

    @property
    def scheduling_seconds(self) -> float:
        """Submit → placed, plus inputs-ready → worker start (queue wait)."""
        return self._delta(self.submitted, self.scheduled) + self._delta(
            self.inputs_ready, self.started
        )

    @property
    def fetch_seconds(self) -> float:
        """Placed → all inputs local (transfer / reconstruction time)."""
        return self._delta(self.scheduled, self.inputs_ready)

    @property
    def execution_seconds(self) -> float:
        return self._delta(self.started, self.finished)

    def as_dict(self) -> Dict[str, object]:
        return {
            **asdict(self),
            "scheduling_seconds": self.scheduling_seconds,
            "fetch_seconds": self.fetch_seconds,
            "execution_seconds": self.execution_seconds,
        }


class Timeline:
    """Per-task lifecycles from the GCS event log, and their renders."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime

    def lifecycles(self) -> List[TaskLifecycle]:
        """Stitch lifecycle events into one record per task *execution*.

        The one reader of the four task-event categories: spans, profiles,
        the critical path and both Chrome trace exports render its result.
        Events of each category are grouped by task and sorted by
        timestamp, then paired up by occurrence index: a reconstructed
        task that ran twice yields two lifecycles, the second pairing the
        second ``task_scheduled``/``task_inputs_ready`` with the second
        ``task_finished``.  Replays have no fresh submit event, so later
        executions carry ``submitted=None``.
        """
        gcs = self.runtime.landed_gcs()
        by_task: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
        for category in _TASK_EVENTS:
            for record in gcs.events(category):
                payload = record.as_dict()
                task = payload.get("task")
                if task is not None:
                    by_task.setdefault(str(task), {}).setdefault(
                        category, []
                    ).append(payload)

        out: List[TaskLifecycle] = []
        for task, grouped in by_task.items():
            for entries in grouped.values():
                entries.sort(key=lambda p: p.get("t", p.get("start", 0.0)))
            sub, sch, rdy, fins = (grouped.get(c, []) for c in _TASK_EVENTS)
            for i in range(max(map(len, grouped.values()))):
                fin = fins[i] if i < len(fins) else {}
                start, duration = fin.get("start"), fin.get("duration")
                started = start if isinstance(start, float) else None
                out.append(
                    TaskLifecycle(
                        task=task,
                        name=str(
                            fin.get("name")
                            or _nth(sch, i, "name")
                            or _nth(sub, i, "name")
                            or "?"
                        ),
                        node=str(fin.get("node") or _nth(sch, i, "node") or "?"),
                        kind=str(fin.get("kind", "task")),
                        status=str(fin.get("status", "pending")),
                        submitted=_nth(sub, i, "t"),
                        scheduled=_nth(sch, i, "t"),
                        inputs_ready=_nth(rdy, i, "t"),
                        started=started,
                        finished=(
                            started + duration
                            if started is not None and isinstance(duration, float)
                            else None
                        ),
                    )
                )
        out.sort(key=lambda lc: (lc.submitted or lc.scheduled or lc.started or 0.0))
        return out

    def spans(self) -> List[TimelineSpan]:
        """One span per execution that started, in start order."""
        spans = [
            TimelineSpan(
                name=lc.name,
                task=lc.task,
                node=lc.node,
                start=lc.started,
                duration=lc.execution_seconds,
                kind=lc.kind,
                status=lc.status,
            )
            for lc in self.lifecycles()
            if lc.started is not None
        ]
        return sorted(spans, key=lambda s: s.start)

    def span_count(self) -> int:
        return len(self.spans())

    def makespan(self) -> float:
        spans = self.spans()
        if not spans:
            return 0.0
        return max(s.end for s in spans) - min(s.start for s in spans)

    # -- Chrome trace export -------------------------------------------------

    def to_chrome_trace(self, marks: Sequence["EventRecord"] = ()) -> str:
        """Chrome ``trace_event`` JSON: one lane per node, one X event per
        task, microsecond timestamps relative to the first span.

        ``marks`` are GCS event records drawn as instant events on their
        node's lane, or on a ``cluster-events`` lane when their node ran no
        span.  Spans carry ``perf_counter`` times and records wall-clock
        ``ts``; the current offset between the two clocks bridges them
        (both advance in real time, so it is stable within a process).
        """
        spans = self.spans()
        epoch = min((s.start for s in spans), default=time.perf_counter())
        lanes: Dict[str, int] = {}
        events: List[Dict[str, Any]] = [
            {
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": (span.start - epoch) * 1e6,
                "dur": span.duration * 1e6,
                "pid": lanes.setdefault(f"node-{span.node}", len(lanes) + 1),
                "tid": 1,
                "args": {"task": span.task, "status": span.status},
            }
            for span in spans
        ]
        wall_to_pc = time.perf_counter() - time.time()
        for record in marks:
            if not record.ts:
                continue
            payload = record.as_dict()
            pid = lanes.get(f"node-{payload.get('node')}") or lanes.setdefault(
                "cluster-events", len(lanes) + 1
            )
            events.append(
                {
                    "name": record.category,
                    "cat": "cluster",
                    "ph": "i",
                    "s": "g",
                    "ts": max(0.0, record.ts + wall_to_pc - epoch) * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": payload,
                }
            )
        events.extend(
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": lane}}
            for lane, pid in lanes.items()
        )
        return json.dumps({"traceEvents": events})

    def save_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_chrome_trace())

    # -- terminal rendering ------------------------------------------------------

    def render_ascii(self, width: int = 72) -> str:
        """A lane-per-node ASCII chart (for quick terminal debugging)."""
        spans = self.spans()
        if not spans:
            return "(no spans)"
        epoch = min(s.start for s in spans)
        horizon = max(s.end for s in spans) - epoch
        if horizon <= 0:
            horizon = 1e-9
        by_node: Dict[str, List[TimelineSpan]] = {}
        for span in spans:
            by_node.setdefault(span.node, []).append(span)
        lines = [f"timeline: {len(spans)} tasks over {horizon * 1e3:.1f} ms"]
        for node, node_spans in sorted(by_node.items()):
            lane = [" "] * width
            for span in node_spans:
                lo = int((span.start - epoch) / horizon * (width - 1))
                hi = max(lo + 1, int((span.end - epoch) / horizon * (width - 1)))
                for i in range(lo, min(hi, width)):
                    lane[i] = "#" if lane[i] == " " else "%"
            lines.append(f"node {node}: |{''.join(lane)}|")
        return "\n".join(lines)
