"""Debugging, profiling, and visualization tools riding on the GCS.

The paper (Sections 4.2.1 and 7) highlights that because the GCS holds the
entire system state, tools need no cooperation from the components they
inspect — they simply read the GCS.  These are those tools:

* :class:`~repro.tools.inspect.ClusterInspector` — live cluster state:
  tasks by status, object-table statistics, actor liveness, node
  utilization (the "Web UI / error diagnosis" box of Figure 5).
* :class:`~repro.tools.timeline.Timeline` — per-task execution timeline
  from the event log, exportable to Chrome ``chrome://tracing`` format
  (the paper's timeline visualization tool).
* :class:`~repro.tools.profiler.Profiler` — per-function aggregate
  durations and counts from the same events.
* :class:`~repro.tools.critical_path.CriticalPath` — walks task-graph
  lineage to report the chain of task executions that bounded the job's
  wall clock, attributed to scheduling / transfer / execution phases.
* :class:`~repro.tools.chaos.ChaosRunner` — drives workloads under a
  seeded deterministic fault schedule and verifies same-seed replays
  inject the identical fault sequence.
* :mod:`repro.tools.analysis` — the repo-aware concurrency lint engine
  (``python -m repro.tools.analyze``).

Every tool CLI builds its parser with :func:`build_cli_parser` and prints /
persists its result through :func:`emit_report`, so output conventions
(``-o/--output`` JSON files, ``--json`` stdout mode) stay identical across
``repro.tools.chaos`` and ``repro.tools.analyze``.
"""

import argparse
import importlib
import json as _json


def build_cli_parser(description: str) -> argparse.ArgumentParser:
    """Shared tool-CLI skeleton: every tool gets ``-o`` and ``--json``."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "-o", "--output", default=None, help="write the JSON report here"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the JSON report to stdout instead of the text view",
    )
    return parser


def emit_report(payload, output=None, text=None, as_json=False) -> None:
    """Print a report (text view unless ``as_json``/no text) and optionally
    write the JSON payload to ``output``."""
    if text is not None and not as_json:
        print(text)
    else:
        print(_json.dumps(payload, indent=2))
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            _json.dump(payload, fh, indent=2)
            fh.write("\n")


# Tool classes load on first access (PEP 562), so ``python -m
# repro.tools.<tool>`` runs its module once, as ``__main__``, not also as a
# package member imported here.
_EXPORTS = {
    "Autoscaler": "autoscaler",
    "AutoscalerConfig": "autoscaler",
    "ChaosReport": "chaos",
    "ChaosRunner": "chaos",
    "standard_workload": "chaos",
    "ClusterInspector": "inspect",
    "ClusterSnapshot": "inspect",
    "CriticalPath": "critical_path",
    "CriticalPathReport": "critical_path",
    "DashboardHead": "dashboard_head",
    "NodeReporter": "reporter",
    "Timeline": "timeline",
    "TimelineSpan": "timeline",
    "TaskLifecycle": "timeline",
    "Profiler": "profiler",
    "FunctionProfile": "profiler",
    "DashboardServer": "http_dashboard",
}

__all__ = ["build_cli_parser", "emit_report", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
