"""The cluster metrics registry: primitives, exposition, and coverage.

The registry is the observability tentpole: every runtime component
registers its series at construction, so after any workload the full
documented catalog (docs/OBSERVABILITY.md) must be present and the
Prometheus exposition must be well-formed.
"""

import math
import threading

import pytest

import repro
from repro.common.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    percentile,
    percentile_rank,
    summarize,
)

# Every series the runtime documents — docs/OBSERVABILITY.md is the
# human-readable version of this list; keep the two in sync.
DOCUMENTED_SERIES = {
    # local scheduler
    "scheduler_tasks_placed_total",
    "scheduler_spillbacks_total",
    "scheduler_dispatch_seconds",
    "scheduler_queue_depth",
    # global scheduler
    "global_scheduler_decisions_total",
    "global_scheduler_estimated_wait_seconds",
    # object store
    "object_store_puts_total",
    "object_store_gets_total",
    "object_store_hits_total",
    "object_store_misses_total",
    "object_store_evictions_total",
    "object_store_evicted_bytes_total",
    "object_store_used_bytes",
    # transfer
    "transfer_objects_total",
    "transfer_bytes_total",
    "transfer_seconds",
    "fetch_seconds",
    # GCS
    "gcs_ops_total",
    "gcs_publishes_total",
    # reconstruction
    "reconstruction_tasks_total",
    "reconstruction_objects_total",
    # finish drains
    "finish_drain_errors_total",
    # runtime / event layer
    "tasks_submitted_total",
    "actor_methods_submitted_total",
    "wait_latency_seconds",
}


@repro.remote
def double(x):
    return x * 2


@repro.remote
def payload(i):
    return bytes(20_000) + bytes([i % 256])


@repro.remote
class Counter_:
    def __init__(self):
        self.n = 0

    def bump(self):
        self.n += 1
        return self.n


class TestPrimitives:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(4.5)
        assert c.value == 5.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7

    def test_gauge_callback_reads_live(self):
        box = {"v": 1}
        g = Gauge(fn=lambda: box["v"])
        assert g.value == 1
        box["v"] = 42
        assert g.value == 42

    def test_histogram_counts_and_sum(self):
        h = Histogram()
        for v in (0.001, 0.01, 0.01, 5.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(5.021)
        assert h.mean == pytest.approx(5.021 / 4)

    def test_histogram_buckets_cumulative(self):
        h = Histogram(buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 100.0):
            h.observe(v)
        # bucket_counts are per-bucket (not yet cumulative): the +Inf
        # overflow rides in the last slot.
        assert h.bucket_counts() == [1, 2, 0, 1]

    def test_histogram_percentile_returns_bucket_bound(self):
        h = Histogram(buckets=(0.1, 1.0, 10.0))
        for _ in range(99):
            h.observe(0.05)
        h.observe(5.0)
        assert h.percentile(50) == 0.1
        assert h.percentile(99) <= 10.0
        assert h.percentile(100) == 10.0

    def test_histogram_empty_percentile_is_nan(self):
        assert math.isnan(Histogram().percentile(99))

    def test_default_buckets_span_micro_to_kilo_seconds(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_BUCKETS[-1] > 1000
        assert all(
            a < b for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
        )


class TestSharedQuantileHelpers:
    def test_percentile_rank_bounds(self):
        assert percentile_rank(1, 99) == 0
        assert percentile_rank(100, 0) == 0
        assert percentile_rank(100, 100) == 99

    def test_percentile_on_sorted_samples(self):
        samples = sorted(float(i) for i in range(1, 101))
        assert percentile(samples, 50) == pytest.approx(50.0, abs=1.0)
        assert percentile(samples, 100) == 100.0

    def test_summarize_fields(self):
        s = summarize([3.0, 1.0, 2.0])
        assert s["min"] == 1.0
        assert s["max"] == 3.0
        assert s["mean"] == pytest.approx(2.0)
        assert s["p50"] == 2.0

    def test_summarize_empty_is_nan(self):
        assert all(math.isnan(v) for v in summarize([]).values())

    def test_sim_latency_stats_uses_shared_percentile(self):
        from repro.sim.metrics import LatencyStats

        stats = LatencyStats()
        for i in range(1, 101):
            stats.record(float(i))
        raw = sorted(stats.samples)
        assert stats.percentile(95) == percentile(raw, 95)


class TestRegistry:
    def test_get_or_create_returns_same_series(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "help", node="n1")
        b = reg.counter("x_total", "help", node="n1")
        assert a is b
        c = reg.counter("x_total", "help", node="n2")
        assert c is not a

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("mixed", "help")
        with pytest.raises(ValueError):
            reg.gauge("mixed", "help")

    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("x_total", "help")
        c.inc(100)
        assert c.value == 0
        assert reg.series_names() == []
        assert reg.to_prometheus_text() == ""
        assert NULL_REGISTRY.histogram("h", "help").count == 0

    def test_prometheus_text_shape(self):
        reg = MetricsRegistry()
        reg.counter("ops_total", "operations", node="a").inc(3)
        h = reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(50.0)
        text = reg.to_prometheus_text()
        assert "# HELP ops_total operations" in text
        assert "# TYPE ops_total counter" in text
        assert 'ops_total{node="a"} 3' in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text

    def test_to_dict_has_no_nonfinite(self):
        reg = MetricsRegistry()
        reg.gauge("g", "help", fn=lambda: float("inf"))
        flat = reg.to_dict()

        def walk(obj):
            if isinstance(obj, float):
                assert math.isfinite(obj)
            elif isinstance(obj, dict):
                for v in obj.values():
                    walk(v)
            elif isinstance(obj, list):
                for v in obj:
                    walk(v)

        walk(flat)


class TestRuntimeCatalog:
    def test_all_documented_series_present_after_mixed_workload(self, runtime):
        # Mixed workload: plain tasks, chained dependencies (transfer),
        # and actor methods.
        refs = [double.remote(i) for i in range(8)]
        chained = double.remote(refs[0])
        counter = Counter_.remote()
        repro.get(refs + [chained])
        repro.get([counter.bump.remote() for _ in range(3)])
        repro.get([payload.remote(i) for i in range(3)])

        names = set(runtime.metrics.series_names())
        missing = DOCUMENTED_SERIES - names
        assert not missing, f"series missing from registry: {sorted(missing)}"

    def test_counters_reflect_workload(self, runtime):
        repro.get([double.remote(i) for i in range(5)])
        flat = runtime.metrics.to_dict()
        submitted = sum(
            s["value"] for s in flat["tasks_submitted_total"]["series"]
        )
        assert submitted >= 5
        placed = sum(
            s["value"] for s in flat["scheduler_tasks_placed_total"]["series"]
        )
        assert placed >= 5

    def test_wait_latency_histogram_fed_by_event_layer(self, runtime):
        gate = threading.Event()

        @repro.remote
        def gated(x):
            assert gate.wait(10)
            return 2 * x

        ref = gated.remote(21)
        # The result cannot exist before the gate opens, so this blocks.
        assert repro.wait([ref], timeout=0.01) == ([], [ref])
        gate.set()
        assert repro.get(ref) == 42
        hist = runtime.metrics.histogram(
            "wait_latency_seconds", "Time blocked in Completion.wait"
        )
        assert hist.count >= 1

    def test_disabled_runtime_registers_nothing(self):
        rt = repro.init(
            num_nodes=1,
            num_cpus_per_node=2,
            metrics_enabled=False,
            trace_events_enabled=False,
        )
        try:
            assert repro.get(double.remote(3)) == 6
            assert rt.metrics.series_names() == []
            assert rt.metrics.to_prometheus_text() == ""
            # No lifecycle events either — only the always-on finish record.
            assert rt.gcs.events("task_submitted") == []
            assert rt.gcs.events("task_scheduled") == []
        finally:
            repro.shutdown()
