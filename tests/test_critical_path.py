"""Critical-path analysis over lifecycle traces (the observability tool
that answers "what bounded this job's wall clock, and which phase?")."""

import time

import repro
from repro.tools import ClusterInspector, CriticalPath, Timeline


@repro.remote
def slow_step(x):
    time.sleep(0.02)
    return x + 1


@repro.remote
def quick(x):
    return x * 2


@repro.remote
class Tally:
    def __init__(self):
        self.total = 0

    def add(self, x):
        self.total += x
        return self.total


class TestLifecycles:
    def test_every_task_gets_full_lifecycle(self, runtime):
        repro.get([quick.remote(i) for i in range(5)])
        lifecycles = Timeline(runtime).lifecycles()
        assert len(lifecycles) == 5
        for lc in lifecycles:
            assert lc.submitted is not None
            assert lc.scheduled is not None
            assert lc.inputs_ready is not None
            assert lc.started is not None
            assert lc.finished is not None
            # Causal ordering within one execution.
            assert lc.submitted <= lc.scheduled <= lc.finished
            assert lc.scheduling_seconds >= 0
            assert lc.fetch_seconds >= 0
            assert lc.execution_seconds > 0

    def test_actor_methods_traced(self, runtime):
        tally = Tally.remote()
        repro.get([tally.add.remote(i) for i in range(3)])
        lifecycles = [
            lc for lc in Timeline(runtime).lifecycles() if lc.kind == "actor_method"
        ]
        assert len(lifecycles) == 3
        for lc in lifecycles:
            assert lc.scheduled is not None
            assert lc.inputs_ready is not None

    def test_as_dict_round_trips(self, runtime):
        repro.get(quick.remote(1))
        payload = Timeline(runtime).lifecycles()[0].as_dict()
        assert payload["task"]
        assert payload["execution_seconds"] >= 0


class TestCriticalPath:
    def test_path_follows_longest_lineage_chain(self, runtime):
        # The fixture DAG: a 4-deep chain of slow steps (the known
        # critical path) racing a swarm of instant one-shot tasks.
        chain_refs = [slow_step.remote(0)]
        for _ in range(3):
            chain_refs.append(slow_step.remote(chain_refs[-1]))
        noise = [quick.remote(i) for i in range(8)]
        assert repro.get(chain_refs[-1]) == 4
        repro.get(noise)

        expected_chain = [
            runtime.graph.producer_of(ref.object_id).hex()[:8] for ref in chain_refs
        ]
        report = CriticalPath(runtime).analyze()
        assert report.task_chain == expected_chain
        assert report.dominant_phase == "execution"

    def test_coverage_at_least_95_percent(self, runtime):
        refs = [slow_step.remote(0)]
        for _ in range(4):
            refs.append(slow_step.remote(refs[-1]))
        repro.get(refs[-1])
        report = CriticalPath(runtime).analyze()
        assert report.wall_clock_seconds > 0.08  # 5 × 20 ms of sleep
        assert report.coverage >= 0.95
        # The three phases partition the attributed time exactly.
        assert report.attributed_seconds == sum(report.phase_totals.values())

    def test_empty_runtime_reports_nothing(self, runtime):
        report = CriticalPath(runtime).analyze()
        assert report.steps == []
        assert report.wall_clock_seconds == 0.0
        assert report.dominant_phase is None
        assert "nothing to analyze" in report.format()

    def test_report_format_and_dict(self, runtime):
        repro.get(slow_step.remote(0))
        report = CriticalPath(runtime).analyze()
        text = report.format()
        assert "critical path" in text
        assert "slow_step" in text
        payload = report.as_dict()
        assert payload["task_chain"] == report.task_chain
        assert set(payload["phase_totals"]) == {"scheduling", "transfer", "execution"}

    def test_inspector_exposes_critical_path(self, runtime):
        repro.get(quick.remote(3))
        report = ClusterInspector(runtime).critical_path()
        assert len(report.steps) == 1

    def test_stateful_edges_chain_actor_methods(self, runtime):
        tally = Tally.remote()
        for i in range(3):
            last = tally.add.remote(i)
        repro.get(last)
        report = CriticalPath(runtime).analyze()
        # The terminal method's path must run back through its stateful
        # predecessors; the actor's creation is set-up, not a step.
        assert [step.kind for step in report.steps] == ["actor_method"] * 3
