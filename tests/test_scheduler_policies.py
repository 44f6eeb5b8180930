"""The pluggable scheduler policy layer.

Covers the four contract points of the refactor:

* **golden trace** — the extracted ``lowest_wait`` policy reproduces the
  pre-refactor ``GlobalScheduler`` placements byte-for-byte over the
  160-decision recorded scenario (``tests/golden/``);
* **policy zoo units** — each registered policy honours its documented
  behaviour against hand-built views (locality picks the co-located node,
  power-of-two probes exactly two, round-robin cycles, central-queue takes
  the emptiest);
* **spillback hook** — the local scheduler delegates the forward/local
  decision to the configured ``SpillbackPolicy``;
* **integration + determinism** — every registry policy drives a live
  runtime end-to-end via ``repro.init(scheduler_policy=...)``, and
  same-seed simulator league runs are row-identical.
"""

from __future__ import annotations

import json
import pathlib

import pytest

import repro
from repro.core.global_scheduler import GlobalScheduler
from repro.core.scheduling import (
    AlwaysSpillback,
    ClusterView,
    LocalityPolicy,
    NeverSpillback,
    NodeView,
    Placement,
    PowerOfTwoPolicy,
    SchedulerPolicy,
    ThresholdSpillback,
    available_policies,
    available_spillbacks,
    make_policy,
    make_spillback,
    register_policy,
)
from repro.core.scheduling.view import DepInfo, TaskView

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# Hand-built view fixtures
# ---------------------------------------------------------------------------


class StubNode(NodeView):
    """A NodeView with fixed state that counts how often it is observed."""

    def __init__(self, key, index, backlog=0, free=True):
        super().__init__(key, index)
        self._backlog = backlog
        self._free = free
        self.backlog_calls = 0

    def backlog(self):
        self.backlog_calls += 1
        return self._backlog

    def can_run_now(self, resources):
        return self._free


def make_view(nodes, deps=None, avg=0.01, bandwidth=1e9):
    return ClusterView(nodes, deps or {}, avg, bandwidth)


def make_task(deps=(), resources=None):
    return TaskView(
        key="t", name="t", resources=resources or {"CPU": 1.0}, deps=tuple(deps)
    )


# ---------------------------------------------------------------------------
# Golden trace: the refactored stack replays the pre-refactor placements
# ---------------------------------------------------------------------------


class TestGoldenTrace:
    def test_refactored_scheduler_matches_recorded_trace(self):
        from tests.golden import scenario

        recorded = json.loads((GOLDEN_DIR / "scheduler_trace.json").read_text())
        replayed = scenario.run_trace(
            lambda gcs, get_nodes: GlobalScheduler(gcs, get_nodes=get_nodes)
        )
        assert replayed == recorded["placements"]

    def test_trace_exercises_every_node_and_the_death(self):
        # Guard the scenario itself: a trace that collapsed onto one node
        # would make the equivalence test vacuous.
        recorded = json.loads((GOLDEN_DIR / "scheduler_trace.json").read_text())
        placements = recorded["placements"]
        assert len(placements) == 160
        assert set(placements) == set(range(6))
        # Node 3 dies at decision 106; nothing lands there afterwards.
        assert 3 not in placements[107:]


# ---------------------------------------------------------------------------
# Policy zoo units
# ---------------------------------------------------------------------------


class TestLowestWaitPolicy:
    def test_prefers_shorter_queue(self):
        busy = StubNode("a", 0, backlog=50)
        idle = StubNode("b", 1, backlog=0)
        policy = make_policy("lowest_wait")
        assert policy.place(make_task(), make_view([busy, idle])).node is idle

    def test_saturated_node_penalized(self):
        # Equal backlog, but node "a" cannot start the task right now
        # (e.g. lifetime actor reservations invisible to the backlog).
        saturated = StubNode("a", 0, backlog=1, free=False)
        free = StubNode("b", 1, backlog=1)
        policy = make_policy("lowest_wait")
        assert policy.place(make_task(), make_view([saturated, free])).node is free

    def test_locality_term_pulls_toward_data(self):
        far = StubNode("a", 0)
        near = StubNode("b", 1)
        deps = {"obj": DepInfo(10_000_000, frozenset(["b"]))}
        policy = make_policy("lowest_wait")
        view = make_view([far, near], deps=deps, bandwidth=1e6)
        placement = policy.place(make_task(deps=["obj"]), view)
        assert placement.node is near
        assert placement.estimated_wait == pytest.approx(0.0)

    def test_ties_round_robin(self):
        nodes = [StubNode(k, i) for i, k in enumerate("abc")]
        policy = make_policy("lowest_wait")
        chosen = [policy.place(make_task(), make_view(nodes)).node.key for _ in range(6)]
        assert chosen == ["a", "b", "c", "a", "b", "c"]


class TestLocalityPolicy:
    def test_picks_colocated_node_despite_backlog(self):
        busy_with_data = StubNode("a", 0, backlog=100)
        idle_without = StubNode("b", 1, backlog=0)
        deps = {"obj": DepInfo(1_000_000, frozenset(["a"]))}
        policy = LocalityPolicy()
        view = make_view([busy_with_data, idle_without], deps=deps)
        assert policy.place(make_task(deps=["obj"]), view).node is busy_with_data

    def test_no_data_degenerates_to_least_backlog(self):
        nodes = [StubNode("a", 0, backlog=5), StubNode("b", 1, backlog=2)]
        policy = LocalityPolicy()
        assert policy.place(make_task(), make_view(nodes)).node.key == "b"


class TestPowerOfTwoPolicy:
    def test_never_scans_all_nodes(self):
        nodes = [StubNode(i, i, backlog=i) for i in range(64)]
        policy = PowerOfTwoPolicy()
        for _ in range(50):
            placement = policy.place(make_task(), make_view(nodes))
            assert placement.node in nodes
        # 50 decisions over 64 nodes probe at most 2 each — a scanning
        # policy would have touched every node's backlog 50 times.
        assert sum(n.backlog_calls for n in nodes) == 100
        assert max(n.backlog_calls for n in nodes) < 50

    def test_takes_less_loaded_probe(self):
        # With exactly two candidates both are probed; the emptier wins.
        nodes = [StubNode("a", 0, backlog=9), StubNode("b", 1, backlog=1)]
        policy = PowerOfTwoPolicy()
        for _ in range(10):
            assert policy.place(make_task(), make_view(nodes)).node.key == "b"

    def test_seeded_rng_is_replayable(self):
        nodes1 = [StubNode(i, i, backlog=i % 7) for i in range(32)]
        nodes2 = [StubNode(i, i, backlog=i % 7) for i in range(32)]
        # Same seed, fresh policy and views: identical choice sequence.
        p1, p2 = PowerOfTwoPolicy(seed=7), PowerOfTwoPolicy(seed=7)
        seq1 = [p1.place(make_task(), make_view(nodes1)).node.key for _ in range(20)]
        seq2 = [p2.place(make_task(), make_view(nodes2)).node.key for _ in range(20)]
        assert seq1 == seq2


class TestRoundRobinAndCentralQueue:
    def test_round_robin_cycles(self):
        nodes = [StubNode(k, i) for i, k in enumerate("abcd")]
        policy = make_policy("round_robin")
        chosen = [policy.place(make_task(), make_view(nodes)).node.key for _ in range(8)]
        assert chosen == list("abcdabcd")

    def test_central_queue_takes_emptiest(self):
        nodes = [
            StubNode("a", 0, backlog=3),
            StubNode("b", 1, backlog=1),
            StubNode("c", 2, backlog=2),
        ]
        policy = make_policy("central_queue")
        assert policy.place(make_task(), make_view(nodes)).node.key == "b"

    def test_central_queue_ties_round_robin(self):
        nodes = [StubNode(k, i) for i, k in enumerate("ab")]
        policy = make_policy("central_queue")
        chosen = [policy.place(make_task(), make_view(nodes)).node.key for _ in range(4)]
        assert chosen == ["a", "b", "a", "b"]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_zoo_is_registered(self):
        assert set(available_policies()) >= {
            "lowest_wait",
            "locality",
            "power_of_two",
            "round_robin",
            "central_queue",
        }
        assert set(available_spillbacks()) >= {"threshold", "always", "never"}

    def test_unknown_policy_lists_known(self):
        with pytest.raises(ValueError, match="lowest_wait"):
            make_policy("no_such_policy")
        with pytest.raises(ValueError, match="threshold"):
            make_spillback("no_such_spillback")

    def test_string_lookup_returns_fresh_instances(self):
        assert make_policy("round_robin") is not make_policy("round_robin")
        instance = LocalityPolicy()
        assert make_policy(instance) is instance
        assert isinstance(make_policy(LocalityPolicy), LocalityPolicy)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_policy("lowest_wait")(SchedulerPolicy)

    def test_threshold_parameter_forwarded(self):
        spill = make_spillback(None, threshold=3)
        assert isinstance(spill, ThresholdSpillback)
        assert spill.threshold == 3


# ---------------------------------------------------------------------------
# Spillback hook in the local scheduler
# ---------------------------------------------------------------------------


class TestSpillbackHook:
    def test_always_spillback_forwards_every_task(self):
        rt = repro.init(num_nodes=2, num_cpus_per_node=4, spillback_policy="always")
        try:
            @repro.remote
            def f(x):
                return x + 1

            assert repro.get([f.remote(i) for i in range(8)]) == list(range(1, 9))
            node = rt.nodes()[0]
            assert node.local_scheduler.forwarded > 0
            assert isinstance(node.local_scheduler._spillback, AlwaysSpillback)
        finally:
            repro.shutdown()

    def test_never_spillback_keeps_feasible_tasks_local(self):
        rt = repro.init(num_nodes=2, num_cpus_per_node=4, spillback_policy="never")
        try:
            @repro.remote
            def f(x):
                return x * 2

            assert repro.get([f.remote(i) for i in range(8)]) == [
                i * 2 for i in range(8)
            ]
            # Driver tasks submit on node 0; "never" pins them there.
            assert rt.nodes()[0].local_scheduler.forwarded == 0
        finally:
            repro.shutdown()

    def test_custom_spillback_instance_is_consulted(self):
        calls = []

        class Recording(ThresholdSpillback):
            def should_forward(self, task, node):
                calls.append(task.name)
                return False

        rt = repro.init(
            num_nodes=1, num_cpus_per_node=4, spillback_policy=Recording()
        )
        try:
            @repro.remote
            def g():
                return 1

            assert repro.get(g.remote()) == 1
            assert any("g" in name for name in calls)
        finally:
            repro.shutdown()


# ---------------------------------------------------------------------------
# Live runtime integration
# ---------------------------------------------------------------------------


class TestRuntimeIntegration:
    @pytest.mark.parametrize("policy", available_policies())
    def test_every_policy_drives_the_runtime(self, policy):
        rt = repro.init(num_nodes=3, num_cpus_per_node=2, scheduler_policy=policy)
        try:
            @repro.remote
            def add(a, b):
                return a + b

            refs = [add.remote(i, i) for i in range(20)]
            assert repro.get(refs) == [2 * i for i in range(20)]
            assert rt.global_schedulers[0].policy.name == policy
        finally:
            repro.shutdown()

    def test_decisions_metric_labeled_with_policy(self):
        rt = repro.init(
            num_nodes=2, num_cpus_per_node=2,
            scheduler_policy="round_robin", spillback_policy="always",
        )
        try:
            @repro.remote
            def f():
                return 0

            repro.get([f.remote() for _ in range(6)])
            labelled = 0.0
            for family in rt.metrics.families():
                if family.name == "global_scheduler_decisions_total":
                    for key, metric in family.series.items():
                        if ("policy", "round_robin") in key:
                            labelled += metric.value
            assert labelled > 0
        finally:
            repro.shutdown()

    def test_placement_histogram_observed(self):
        rt = repro.init(
            num_nodes=2, num_cpus_per_node=2, spillback_policy="always"
        )
        try:
            @repro.remote
            def f():
                return 0

            repro.get([f.remote() for _ in range(4)])
            names = {family.name for family in rt.metrics.families()}
            assert "scheduler_placement_seconds" in names
        finally:
            repro.shutdown()

    def test_custom_policy_class_end_to_end(self):
        class FirstNode(SchedulerPolicy):
            name = "first_node"

            def place(self, task, view):
                return Placement(view.nodes[0])

        rt = repro.init(
            num_nodes=2, num_cpus_per_node=2, scheduler_policy=FirstNode
        )
        try:
            @repro.remote
            def f(x):
                return -x

            assert repro.get([f.remote(i) for i in range(5)]) == [
                -i for i in range(5)
            ]
            assert rt.global_schedulers[0].policy.name == "first_node"
        finally:
            repro.shutdown()

    def test_unknown_policy_name_raises_at_init(self):
        with pytest.raises(ValueError, match="registered"):
            repro.init(num_nodes=1, scheduler_policy="definitely_not_a_policy")
        if repro.is_initialized():
            repro.shutdown()


# ---------------------------------------------------------------------------
# Simulator determinism
# ---------------------------------------------------------------------------


class TestLeagueDeterminism:
    def test_same_seed_same_rows(self):
        """Every registered policy finishes every league shape, and a
        same-seed rerun reproduces each row exactly."""
        from repro.sim.league import WORKLOADS, race

        kwargs = dict(
            policies=available_policies(),
            workloads=WORKLOADS,
            tasks=200,
            num_nodes=8,
            seed=11,
        )
        rows1 = race(**kwargs)
        rows2 = race(**kwargs)
        assert len(rows1) == len(available_policies()) * len(WORKLOADS)
        assert all(row["tasks"] == 200 for row in rows1)
        for row in rows1 + rows2:
            row.pop("placement_us")  # wall-clock: outside the contract
        assert rows1 == rows2

    def test_policies_actually_differ(self):
        from repro.sim.league import race_one

        locality = race_one("locality", "locality_fanin", 600, num_nodes=8, seed=3)
        blind = race_one("round_robin", "locality_fanin", 600, num_nodes=8, seed=3)
        # The point of the league: locality transfers nothing on the fan-in
        # shape while blind placement pays; makespans must separate.
        assert locality["makespan_s"] < blind["makespan_s"]

    def test_sim_and_runtime_share_policy_classes(self):
        from repro.sim.cluster import SimCluster, SimConfig

        policy = PowerOfTwoPolicy()
        cluster = SimCluster(SimConfig(num_nodes=4, scheduler_policy=policy))
        assert cluster.policy is policy
        rt = repro.init(num_nodes=2, scheduler_policy="power_of_two")
        try:
            assert type(rt.global_schedulers[0].policy) is type(policy)
        finally:
            repro.shutdown()
