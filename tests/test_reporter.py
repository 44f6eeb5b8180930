"""Per-node reporters: GCS snapshot rows, tombstones, disabled mode."""

import time

import pytest

import repro
from repro.tools.reporter import NodeReporter, sample_node


@repro.remote
def work(x):
    return x + 1


@pytest.fixture
def reporting_runtime():
    """A 2-node cluster with reporters on a fast interval."""
    rt = repro.init(
        num_nodes=2,
        num_cpus_per_node=4,
        reporters_enabled=True,
        reporter_interval_seconds=0.05,
    )
    try:
        yield rt
    finally:
        repro.shutdown()


class TestSampling:
    def test_sample_covers_every_pressure_surface(self, runtime):
        row = sample_node(runtime, runtime.nodes()[0])
        for key in (
            "node_id",
            "alive",
            "queue_length",
            "backlog",
            "running_tasks",
            "workers_total",
            "workers_busy",
            "workers_idle",
            "store_used_bytes",
            "store_num_objects",
            "store_utilization",
            "store_evictions",
            "store_spills",
            "store_restores",
            "transfers_inflight",
            "resources_total",
            "resources_available",
        ):
            assert key in row, key
        assert row["alive"] is True
        assert row["workers_total"] == 4.0

    def test_report_once_publishes_versioned_rows(self, runtime):
        node = runtime.nodes()[0]
        reporter = NodeReporter(runtime, node)
        first = reporter.report_once()
        second = reporter.report_once()
        assert (first["seq"], second["seq"]) == (1, 2)
        stored = runtime.gcs.get_node_report(node.node_id.hex())
        assert stored["seq"] == 2  # put-not-append: latest row wins
        assert len(runtime.gcs.node_reports()) == 1


class TestReportingRuntime:
    def test_rows_appear_and_refresh(self, reporting_runtime):
        rt = reporting_runtime
        reports = rt.gcs.node_reports()
        assert len(reports) == 2  # attach publishes a first row eagerly
        before = {h: r["seq"] for h, r in reports.items()}
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            now = {h: r["seq"] for h, r in rt.gcs.node_reports().items()}
            if all(now[h] > before[h] for h in before):
                break
            time.sleep(0.02)
        else:
            pytest.fail("reporter rows never refreshed")

    def test_kill_node_leaves_a_tombstone(self, reporting_runtime):
        rt = reporting_runtime
        victim = rt.nodes()[1]
        rt.kill_node(victim.node_id)
        row = rt.gcs.get_node_report(victim.node_id.hex())
        assert row["tombstone"] is True
        assert row["alive"] is False
        assert "tombstoned_at" in row
        # The last-seen metrics survive under the tombstone.
        assert "backlog" in row
        # The dead node's reporter is detached and its thread stopped.
        assert rt.node_reporter(victim.node_id) is None

    def test_restart_reattaches_and_revives_the_row(self, reporting_runtime):
        rt = reporting_runtime
        victim = rt.nodes()[1]
        rt.kill_node(victim.node_id)
        rt.restart_node(victim.node_id)
        row = rt.gcs.get_node_report(victim.node_id.hex())
        assert row["alive"] is True
        assert not row.get("tombstone")
        assert rt.node_reporter(victim.node_id) is not None
        # Work still completes on the rejoined cluster.
        assert repro.get(work.remote(41)) == 42

    def test_shutdown_stops_reporter_threads(self):
        rt = repro.init(
            num_nodes=2, reporters_enabled=True, reporter_interval_seconds=0.05
        )
        reporters = [rt.node_reporter(n.node_id) for n in rt.nodes()]
        assert all(r is not None for r in reporters)
        repro.shutdown()
        for reporter in reporters:
            thread = reporter.ticker.thread
            assert thread is None or not thread.is_alive()

    def test_reporter_stop_is_idempotent(self, runtime):
        reporter = NodeReporter(runtime, runtime.nodes()[0], interval=0.05)
        reporter.start()
        reporter.stop()
        reporter.stop()  # no exception, no hang


class TestDisabledMode:
    def test_disabled_is_the_default_and_publishes_nothing(self, runtime):
        assert runtime.config.reporters_enabled is False
        repro.get([work.remote(i) for i in range(8)])
        assert runtime.gcs.node_reports() == {}
        assert runtime.node_reporter(runtime.nodes()[0].node_id) is None

    def test_disabled_lifecycle_hooks_are_null(self, runtime):
        """kill/restart with reporters off must not touch the GCS
        node-report table (the null-object cost contract)."""
        victim = runtime.nodes()[1]
        runtime.kill_node(victim.node_id)
        runtime.restart_node(victim.node_id)
        assert runtime.gcs.node_reports() == {}
