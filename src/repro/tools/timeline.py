"""Task execution timeline from the GCS event log.

The paper's timeline visualization tool uses the GCS event log as its
backend (Section 7).  :class:`Timeline` reconstructs per-node execution
spans from ``task_finished`` events and exports them as Chrome trace JSON
(loadable in ``chrome://tracing`` / Perfetto) or as an ASCII lane chart.

With lifecycle tracing enabled (the default), the log also carries
``task_submitted`` / ``task_scheduled`` / ``task_inputs_ready`` events;
:meth:`Timeline.lifecycles` stitches all four into causal per-task
breakdowns (submit → schedule → fetch → execute) — the per-task overhead
decomposition that :mod:`repro.tools.critical_path` builds on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Runtime


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
            "task": self.task,
            "name": self.name,
            "node": self.node,
            "kind": self.kind,
            "status": self.status,
            "submitted": self.submitted,
            "scheduled": self.scheduled,
            "inputs_ready": self.inputs_ready,
            "started": self.started,
            "finished": self.finished,
            "scheduling_seconds": self.scheduling_seconds,
            "fetch_seconds": self.fetch_seconds,
            "execution_seconds": self.execution_seconds,
        }


class Timeline:
    """Execution spans harvested from the GCS event log."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime

    def spans(self) -> List[TimelineSpan]:
        out = []
        for record in self.runtime.landed_gcs().events("task_finished"):
            payload = record.as_dict()
            if "start" not in payload:
                continue
            out.append(
                TimelineSpan(
                    name=payload.get("name", "?"),
                    task=payload.get("task", "?"),
                    node=payload.get("node", "?"),
                    start=payload["start"],
                    duration=payload.get("duration", 0.0),
                    kind=payload.get("kind", "task"),
                    status=payload.get("status", "finished"),
                )
            )
        return sorted(out, key=lambda s: s.start)

    def lifecycles(self) -> List[TaskLifecycle]:
        """Stitch lifecycle events into one record per task *execution*.

        Events of each category are grouped by task and sorted by
        timestamp, then paired up by occurrence index: a reconstructed
        task that ran twice yields two lifecycles, the second pairing the
        second ``task_scheduled``/``task_inputs_ready`` with the second
        ``task_finished``.  Replays have no fresh submit event, so later
        executions carry ``submitted=None``.
        """
        gcs = self.runtime.landed_gcs()

        def by_task(category: str) -> Dict[str, List[Dict[str, object]]]:
            grouped: Dict[str, List[Dict[str, object]]] = {}
            for record in gcs.events(category):
                payload = record.as_dict()
                task = payload.get("task")
                if task is not None:
                    grouped.setdefault(str(task), []).append(payload)
            for entries in grouped.values():
                entries.sort(key=lambda p: p.get("t", p.get("start", 0.0)))
            return grouped

        submitted = by_task("task_submitted")
        scheduled = by_task("task_scheduled")
        ready = by_task("task_inputs_ready")
        finished = by_task("task_finished")

        out: List[TaskLifecycle] = []
        tasks = set(submitted) | set(scheduled) | set(ready) | set(finished)
        for task in tasks:
            fins = finished.get(task, [])
            runs = max(
                len(fins),
                len(scheduled.get(task, [])),
                len(ready.get(task, [])),
                len(submitted.get(task, [])),
            )
            for i in range(runs):
                sub = submitted.get(task, [])
                sch = scheduled.get(task, [])
                rdy = ready.get(task, [])
                fin = fins[i] if i < len(fins) else {}
                start = fin.get("start")
                duration = fin.get("duration")
                finish = (
                    start + duration
                    if isinstance(start, float) and isinstance(duration, float)
                    else None
                )
                out.append(
                    TaskLifecycle(
                        task=task,
                        name=str(
                            fin.get("name")
                            or (sch[i].get("name") if i < len(sch) else None)
                            or (sub[i].get("name") if i < len(sub) else None)
                            or "?"
                        ),
                        node=str(
                            fin.get("node")
                            or (sch[i].get("node") if i < len(sch) else None)
                            or "?"
                        ),
                        kind=str(fin.get("kind", "task")),
                        status=str(fin.get("status", "pending")),
                        submitted=sub[i].get("t") if i < len(sub) else None,
                        scheduled=sch[i].get("t") if i < len(sch) else None,
                        inputs_ready=rdy[i].get("t") if i < len(rdy) else None,
                        started=start if isinstance(start, float) else None,
                        finished=finish,
                    )
                )
        out.sort(key=lambda lc: (lc.submitted or lc.scheduled or lc.started or 0.0))
        return out

    def span_count(self) -> int:
        return len(self.spans())

    def makespan(self) -> float:
        spans = self.spans()
        if not spans:
            return 0.0
        return max(s.end for s in spans) - min(s.start for s in spans)

    # -- Chrome trace export -------------------------------------------------

    def to_chrome_trace(self) -> str:
        """Chrome ``trace_event`` JSON: one lane per node, one X event per
        task, microsecond timestamps relative to the first span."""
        spans = self.spans()
        if not spans:
            return json.dumps({"traceEvents": []})
        epoch = min(s.start for s in spans)
        events = []
        node_pids: Dict[str, int] = {}
        for span in spans:
            pid = node_pids.setdefault(span.node, len(node_pids) + 1)
            events.append(
                {
                    "name": span.name,
                    "cat": span.kind,
                    "ph": "X",
                    "ts": (span.start - epoch) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "args": {"task": span.task, "status": span.status},
                }
            )
        for node, pid in node_pids.items():
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "args": {"name": f"node-{node}"},
                }
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
