"""The closed-loop autoscaler: watermarks, hysteresis, cooldown, hooks."""

import pytest

import repro
from repro.tools.autoscaler import Autoscaler, AutoscalerConfig
from repro.tools.dashboard_head import DashboardHead


class FakeHead:
    """A DashboardHead stand-in returning scripted load observations."""

    def __init__(self, loads):
        self.loads = list(loads)

    def cluster_load(self, _default=None):
        load = self.loads.pop(0) if len(self.loads) > 1 else self.loads[0]
        return load


def load(backlog_per_node=0.0, store=0.0, num_live=2):
    return {
        "source": "fake",
        "num_live_nodes": num_live,
        "backlog_total": backlog_per_node * num_live,
        "backlog_per_node": backlog_per_node,
        "queue_total": 0,
        "store_utilization_max": store,
        "transfers_inflight": 0,
    }


def make_autoscaler(runtime, head, **cfg):
    defaults = dict(
        high_watermark=4.0,
        low_watermark=0.5,
        hysteresis=2,
        cooldown_seconds=0.0,
        min_nodes=1,
        max_nodes=4,
    )
    defaults.update(cfg)
    return Autoscaler(runtime, AutoscalerConfig(**defaults), head=head)


class TestPolicy:
    def test_hysteresis_gates_a_single_spike(self, runtime):
        scaler = make_autoscaler(runtime, FakeHead([load(10.0), load(0.0)]))
        assert scaler.tick() is None  # one observation is not a trend
        assert scaler.tick() is None  # spike ended; streak reset

    def test_sustained_pressure_scales_up(self, runtime):
        scaler = make_autoscaler(runtime, FakeHead([load(10.0)]))
        assert scaler.tick() is None
        decision = scaler.tick()
        assert decision["action"] == "scale_up"
        assert decision["backlog_per_node"] == 10.0
        assert len(runtime.live_nodes()) == 3

    def test_store_pressure_alone_scales_up(self, runtime):
        scaler = make_autoscaler(runtime, FakeHead([load(0.0, store=0.95)]))
        scaler.tick()
        decision = scaler.tick()
        assert decision["action"] == "scale_up"
        assert decision["store_utilization_max"] == 0.95

    def test_sustained_idleness_scales_down(self, runtime):
        scaler = make_autoscaler(runtime, FakeHead([load(0.0)]))
        scaler.tick()
        decision = scaler.tick()
        assert decision["action"] == "scale_down"
        assert len(runtime.live_nodes()) == 1

    def test_scale_down_never_kills_the_driver_node(self, runtime):
        scaler = make_autoscaler(runtime, FakeHead([load(0.0)]), min_nodes=1)
        for _ in range(6):
            scaler.tick()
        assert runtime.driver_node.alive
        assert len(runtime.live_nodes()) == 1  # floored at min_nodes

    def test_max_nodes_caps_growth(self, runtime):
        class LiveCountHead:
            """Constant pressure, but honest live-node counts — the cap is
            evaluated against the observed cluster size."""

            def cluster_load(self):
                return load(10.0, num_live=len(runtime.live_nodes()))

        scaler = make_autoscaler(
            runtime, LiveCountHead(), max_nodes=3, hysteresis=1
        )
        for _ in range(5):
            scaler.tick()
        assert len(runtime.live_nodes()) == 3

    def test_cooldown_spaces_actions(self, runtime):
        scaler = make_autoscaler(
            runtime, FakeHead([load(10.0)]), hysteresis=1,
            cooldown_seconds=60.0, max_nodes=8,
        )
        assert scaler.tick()["action"] == "scale_up"
        assert scaler.tick() is None  # inside the cooldown window
        assert len(runtime.live_nodes()) == 3

    def test_scale_up_prefers_restarting_a_dead_node(self, runtime):
        victim = runtime.nodes()[1]
        runtime.kill_node(victim.node_id)
        scaler = make_autoscaler(runtime, FakeHead([load(10.0)]), hysteresis=1)
        decision = scaler.tick()
        assert decision["action"] == "scale_up"
        assert runtime.node(victim.node_id).alive  # rejoined, not grown
        assert len(runtime.nodes()) == 2

    def test_decisions_land_in_the_event_timeline(self, runtime):
        scaler = make_autoscaler(runtime, FakeHead([load(10.0)]), hysteresis=1)
        scaler.tick()
        head = DashboardHead(runtime)
        events = head.events(categories=["autoscaler_decision"])["events"]
        assert len(events) == 1
        event = events[0]
        assert event["action"] == "scale_up"
        assert event["seq"] > 0
        assert event["backlog_per_node"] == 10.0
        assert event["high_watermark"] == 4.0

    def test_injected_hooks_override_node_lifecycle(self, runtime):
        actions = []

        def add():
            actions.append("add")
            return "cafe1234"

        scaler = Autoscaler(
            runtime,
            AutoscalerConfig(hysteresis=1, cooldown_seconds=0.0),
            head=FakeHead([load(10.0)]),
            add_hook=add,
        )
        decision = scaler.tick()
        assert decision["node"] == "cafe1234"
        assert actions == ["add"]
        assert len(runtime.nodes()) == 2  # runtime untouched

    def test_vetoing_hook_records_nothing(self, runtime):
        scaler = Autoscaler(
            runtime,
            AutoscalerConfig(hysteresis=1, cooldown_seconds=0.0),
            head=FakeHead([load(10.0)]),
            add_hook=lambda: None,
        )
        assert scaler.tick() is None
        assert scaler.decisions == 0


class TestLifecycle:
    def test_thread_start_stop_idempotent(self, runtime):
        scaler = make_autoscaler(runtime, FakeHead([load(1.0)]))
        scaler.start()
        scaler.start()  # second start is a no-op
        scaler.stop()
        scaler.stop()

    def test_runtime_shutdown_stops_registered_autoscaler(self):
        rt = repro.init(num_nodes=2)
        scaler = rt.register_ops(
            Autoscaler(rt, AutoscalerConfig(interval=0.05))
        )
        scaler.start()
        repro.shutdown()
        assert scaler.ticker.thread is None or not scaler.ticker.thread.is_alive()

    def test_real_head_closes_the_loop_without_reporters(self, runtime):
        """With reporters disabled the head samples the runtime directly,
        so the policy loop still sees real load numbers."""
        scaler = make_autoscaler(runtime, DashboardHead(runtime))
        assert scaler.tick() is None  # idle streak 1 of 2
        decision = scaler.tick()  # idle cluster: scales down to min+...
        assert decision is not None and decision["action"] == "scale_down"
