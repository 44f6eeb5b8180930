"""Figure 10b — GCS memory footprint with and without flushing.

Paper setup: 50 M no-op tasks are submitted; without flushing the GCS
footprint grows linearly until memory is exhausted and the workload stalls
(the red ✗); with periodic flushing the footprint stays capped at a
user-configurable level while lineage lands on disk.

Regenerated against the real GCS + flusher with a scaled task count and a
simulated memory capacity: the shapes (linear growth to the cap vs bounded
sawtooth) are the assertion.
"""

import pytest

from benchmarks.conftest import print_table
from repro.common.ids import NodeID, TaskID
from repro.gcs.client import GlobalControlStore
from repro.gcs.flush import GcsFlusher
from repro.gcs.tables import TaskStatus

TOTAL_TASKS = 4000  # paper: 50M; scaled
MEMORY_CAPACITY_ENTRIES = 1500  # the "memory capacity of the system"
FLUSH_CAP = 400


NODE = NodeID.from_seed("node")


def submit_noop_tasks(gcs, start, count):
    for i in range(start, start + count):
        task_id = TaskID.from_seed(f"noop-{i}")
        gcs.finish_task(task_id, TaskStatus.FINISHED, NODE, [], spec=None)


def run(flushing: bool, tmp_path):
    gcs = GlobalControlStore(num_shards=2, num_replicas=1)
    flusher = (
        GcsFlusher(gcs, str(tmp_path / "flush.bin"), max_entries_in_memory=FLUSH_CAP)
        if flushing
        else None
    )
    footprint = []
    submitted = 0
    stalled_at = None
    batch = 200
    while submitted < TOTAL_TASKS:
        submit_noop_tasks(gcs, submitted, batch)
        submitted += batch
        if flusher is not None:
            flusher.maybe_flush()
        entries = gcs.num_entries()
        footprint.append((submitted, entries))
        if entries > MEMORY_CAPACITY_ENTRIES:
            stalled_at = submitted  # the paper's red ✗: OOM, workload stalls
            break
    return footprint, stalled_at, flusher


@pytest.mark.benchmark(group="fig10b")
def test_fig10b_flushing_bounds_memory(benchmark, tmp_path):
    def both():
        return run(False, tmp_path), run(True, tmp_path)

    (no_flush, stalled, _), (with_flush, stalled_flush, flusher) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    print_table(
        "Figure 10b: GCS entries vs tasks submitted",
        ["variant", "peak entries", "completed", "flushed to disk"],
        [
            (
                "no flushing",
                max(e for _s, e in no_flush),
                "STALLED (paper: x)" if stalled else "yes",
                0,
            ),
            (
                "with flushing",
                max(e for _s, e in with_flush),
                "yes" if not stalled_flush else "STALLED",
                flusher.flushed_entries,
            ),
        ],
    )
    # Without flushing: growth is ~linear and hits the memory cap → stall.
    assert stalled is not None and stalled < TOTAL_TASKS
    growth = [e for _s, e in no_flush]
    assert all(b > a for a, b in zip(growth, growth[1:]))
    # With flushing: completes, footprint bounded near the configured cap.
    assert stalled_flush is None
    assert max(e for _s, e in with_flush) <= FLUSH_CAP + 450
    assert flusher.flushed_entries >= TOTAL_TASKS * 0.8
