"""Per-function profiling from the GCS event log (Section 7's profiling
tools: no instrumentation beyond what the system already records)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from repro.tools.timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Runtime


@dataclass
class FunctionProfile:
    """Aggregate execution statistics for one remote function/method."""

    name: str
    calls: int = 0
    total_seconds: float = 0.0
    min_seconds: float = float("inf")
    max_seconds: float = 0.0
    failures: int = 0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    def add(self, duration: float, failed: bool) -> None:
        self.calls += 1
        self.total_seconds += duration
        self.min_seconds = min(self.min_seconds, duration)
        self.max_seconds = max(self.max_seconds, duration)
        if failed:
            self.failures += 1


class Profiler:
    """Aggregates :class:`~repro.tools.timeline.Timeline` spans by
    function name."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime

    def profiles(self) -> Dict[str, FunctionProfile]:
        out: Dict[str, FunctionProfile] = {}
        for span in Timeline(self.runtime).spans():
            profile = out.setdefault(span.name, FunctionProfile(span.name))
            profile.add(span.duration, span.status == "failed")
        return out

    def top_by_total_time(self, limit: int = 10) -> List[FunctionProfile]:
        ranked = sorted(
            self.profiles().values(), key=lambda p: p.total_seconds, reverse=True
        )
        return ranked[:limit]

    def format(self, limit: int = 10) -> str:
        lines = [
            f"{'function':<32} {'calls':>6} {'total':>9} {'mean':>9} {'max':>9} {'fail':>5}"
        ]
        for profile in self.top_by_total_time(limit):
            lines.append(
                f"{profile.name:<32} {profile.calls:>6} "
                f"{profile.total_seconds * 1e3:>8.1f}m {profile.mean_seconds * 1e3:>8.2f}m "
                f"{profile.max_seconds * 1e3:>8.2f}m {profile.failures:>5}"
            )
        return "\n".join(lines)
