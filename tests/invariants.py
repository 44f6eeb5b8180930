"""Cluster invariants the kill tests check at quiescence."""

from repro.gcs.tables import TaskStatus


def assert_no_row_scheduled_on_a_dead_node(runtime):
    """No stateless task row is SCHEDULED on a dead node: a kill's sweep
    re-placed every one, and its fence kept every later placement and
    finish of the dead incarnation out.  Reads the rows once every queued
    finish has landed."""
    dead = {node.node_id for node in runtime.nodes() if not node.alive}
    stranded = [
        entry
        for entry in runtime.landed_gcs().tasks_with_status(TaskStatus.SCHEDULED)
        if entry.node_id in dead and entry.spec.actor_id is None
    ]
    assert stranded == [], stranded
