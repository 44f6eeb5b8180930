"""GCS-backed tooling: inspector, timeline, profiler (paper Section 7)."""

import json
import time

import pytest

import repro
from repro.tools import ClusterInspector, DashboardHead, Profiler, Timeline


@repro.remote
def work(ms):
    time.sleep(ms / 1000.0)
    return ms


@repro.remote
def fail():
    raise ValueError("nope")


@repro.remote
class Keeper:
    def __init__(self):
        self.v = 0

    def bump(self):
        self.v += 1
        return self.v


class TestClusterInspector:
    def test_snapshot_counts_everything(self, runtime):
        keeper = Keeper.remote()
        repro.get([work.remote(1) for _ in range(5)])
        repro.get(keeper.bump.remote())
        inspector = ClusterInspector(runtime)
        snapshot = inspector.snapshot()
        assert snapshot.live_nodes == 2
        assert snapshot.tasks_by_status.get("finished", 0) >= 6
        assert snapshot.num_objects >= 6
        assert snapshot.actors_alive == 1
        assert "alive" in snapshot.format()

    def test_pending_tasks_visible(self, runtime):
        ref = work.remote(300)
        inspector = ClusterInspector(runtime)
        # The slow task should appear as pending/scheduled/running.
        assert len(inspector.pending_tasks()) >= 1
        repro.get(ref)
        assert inspector.pending_tasks() == []

    def test_objects_without_live_copies(self, runtime):
        ref = repro.put(123)
        inspector = ClusterInspector(runtime)
        assert ref.object_id not in inspector.objects_without_live_copies()
        repro.free(ref)
        assert ref.object_id in inspector.objects_without_live_copies()

    def test_dead_actor_counted(self, runtime):
        keeper = Keeper.remote()
        repro.get(keeper.bump.remote())
        repro.kill(keeper)
        # kill() marks the actor dead in the GCS actor table.
        inspector = ClusterInspector(runtime)
        deadline = time.time() + 5
        while time.time() < deadline:
            _alive, dead = inspector.actor_summary()
            if dead == 1:
                break
            time.sleep(0.02)
        assert inspector.actor_summary()[1] == 1


class TestTimeline:
    def test_spans_cover_executed_tasks(self, runtime):
        repro.get([work.remote(5) for _ in range(4)])
        timeline = Timeline(runtime)
        spans = timeline.spans()
        assert len(spans) == 4
        assert all(s.duration >= 0.004 for s in spans)
        assert timeline.makespan() > 0

    def test_actor_methods_appear_with_kind(self, runtime):
        keeper = Keeper.remote()
        repro.get(keeper.bump.remote())
        kinds = {s.kind for s in Timeline(runtime).spans()}
        assert "actor_method" in kinds

    def test_chrome_trace_is_valid_json(self, runtime, tmp_path):
        repro.get([work.remote(2) for _ in range(3)])
        timeline = Timeline(runtime)
        trace = json.loads(timeline.to_chrome_trace())
        task_events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert len(task_events) == 3
        assert all(e["dur"] > 0 for e in task_events)
        path = tmp_path / "trace.json"
        timeline.save_chrome_trace(str(path))
        assert json.loads(path.read_text())["traceEvents"]

    def test_empty_timeline(self, runtime):
        timeline = Timeline(runtime)
        assert timeline.spans() == []
        assert timeline.makespan() == 0.0
        assert json.loads(timeline.to_chrome_trace()) == {"traceEvents": []}
        assert "(no spans)" in timeline.render_ascii()

    def test_ascii_render_has_node_lanes(self, runtime):
        repro.get([work.remote(2) for _ in range(3)])
        art = Timeline(runtime).render_ascii(width=40)
        assert "node" in art
        assert "#" in art

    def test_failed_task_span_carries_status(self, runtime):
        with pytest.raises(repro.TaskExecutionError):
            repro.get(fail.remote())
        spans = Timeline(runtime).spans()
        assert [s.status for s in spans] == ["failed"]


@repro.remote(resources={"far": 1})
def far_work(ms):
    time.sleep(ms / 1000.0)
    return ms


def lanes_of(trace):
    """pid -> lane name, asserting every drawn pid has exactly one
    ``process_name`` event."""
    names = {}
    for event in trace:
        if event["ph"] == "M" and event["name"] == "process_name":
            names.setdefault(event["pid"], []).append(event["args"]["name"])
    assert all(len(lane) == 1 for lane in names.values()), names
    drawn = {e["pid"] for e in trace if e["ph"] in ("X", "i")}
    assert drawn <= set(names), (drawn, names)
    return {pid: lane[0] for pid, lane in names.items()}


class TestTimelineTraceMarks:
    """``DashboardHead.timeline_trace`` draws cluster events as instant
    marks against the task spans."""

    def _death_lanes(self, runtime):
        trace = json.loads(DashboardHead(runtime).timeline_trace())["traceEvents"]
        lanes = lanes_of(trace)
        deaths = [e for e in trace if e["ph"] == "i" and e["name"] == "node_death"]
        return [lanes[e["pid"]] for e in deaths], set(lanes.values())

    def test_death_of_a_node_that_ran_spans_lands_on_its_lane(self):
        runtime = repro.init(num_nodes=1, num_cpus_per_node=2)
        far = runtime.add_node({"CPU": 2, "far": 1})
        repro.get([work.remote(1), far_work.remote(1)])
        runtime.kill_node(far.node_id)
        deaths, lanes = self._death_lanes(runtime)
        assert deaths == [f"node-{far.node_id.short()}"]
        assert "cluster-events" not in lanes

    def test_death_of_an_idle_node_lands_on_the_cluster_lane(self):
        runtime = repro.init(num_nodes=1, num_cpus_per_node=2)
        repro.get(work.remote(1))
        far = runtime.add_node({"CPU": 2, "far": 1})
        runtime.kill_node(far.node_id)
        deaths, lanes = self._death_lanes(runtime)
        assert deaths == ["cluster-events"]
        assert f"node-{far.node_id.short()}" not in lanes


@repro.remote
def blob(i):
    return bytes(10_000) + bytes([i % 256])


class TestToolsUnderReconstruction:
    """The tools must stay truthful when tasks run more than once."""

    def _force_replay(self):
        """Tiny store: early results get evicted, re-`get` replays lineage."""
        rt = repro.init(
            num_nodes=1, num_cpus_per_node=2, object_store_capacity_bytes=45_000
        )
        refs = [blob.remote(i) for i in range(10)]
        for ref in refs:
            repro.get(ref, timeout=20)
        repro.get(refs[0], timeout=20)  # evicted by now: triggers replay
        assert rt.reconstruction.reconstructed_tasks > 0
        return rt, refs

    def test_reexecuted_task_yields_two_spans(self):
        rt, refs = self._force_replay()
        try:
            replayed = rt.graph.producer_of(refs[0].object_id).hex()[:8]
            spans = [s for s in Timeline(rt).spans() if s.task == replayed]
            # One original execution plus at least one replay (eviction
            # churn may replay more than once) — one span per execution.
            assert len(spans) >= 2
            lifecycles = [
                lc for lc in Timeline(rt).lifecycles() if lc.task == replayed
            ]
            assert len(lifecycles) == len(spans)
            # Execution #1 was a fresh submit; the replay reuses the task
            # and is re-placed without a second submit event.
            assert lifecycles[0].submitted is not None
            assert lifecycles[1].scheduled is not None
            assert lifecycles[1].finished is not None
        finally:
            repro.shutdown()

    def test_profiler_counts_each_execution_and_failure_once(self):
        rt, _refs = self._force_replay()
        try:
            with pytest.raises(repro.TaskExecutionError):
                repro.get(fail.remote())
            profiles = Profiler(rt).profiles()
            # 10 originals + at least one replay, every execution counted.
            assert profiles["blob"].calls >= 11
            assert profiles["blob"].failures == 0
            assert profiles["fail"].calls == 1
            assert profiles["fail"].failures == 1
        finally:
            repro.shutdown()


class TestProfiler:
    def test_aggregates_by_function(self, runtime):
        repro.get([work.remote(2) for _ in range(6)])
        with pytest.raises(repro.TaskExecutionError):
            repro.get(fail.remote())
        profiles = Profiler(runtime).profiles()
        assert profiles["work"].calls == 6
        assert profiles["work"].mean_seconds >= 0.002
        assert profiles["work"].max_seconds >= profiles["work"].min_seconds
        assert profiles["fail"].failures == 1

    def test_top_by_total_time(self, runtime):
        repro.get([work.remote(20) for _ in range(2)])
        repro.get([work.remote(1) for _ in range(2)])
        top = Profiler(runtime).top_by_total_time(limit=1)
        assert top[0].name == "work"
        report = Profiler(runtime).format()
        assert "work" in report
