"""Shared helpers for the per-figure/table benchmark harnesses.

Every benchmark prints the rows/series the paper reports (paper value next
to our measured value) and asserts the *shape* of the result — who wins,
by roughly what factor, where crossovers fall — per the reproduction's
ground rules (our substrate is a simulator/laptop, not the authors'
testbed, so absolute numbers are not expected to match).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Sequence, Tuple

from repro import serve


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Render one paper-style results table to stdout (-s to see it)."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def fmt(value: float, unit: str = "", digits: int = 2) -> str:
    return f"{value:.{digits}f}{unit}"



def model_sleep(n_items: int) -> None:
    """Fixed cost per batch plus cost per item: batching amortizes the first."""
    time.sleep(0.003 + 0.00015 * n_items)


@serve.deployment(num_replicas=2, max_batch_size=8, batch_wait_timeout_s=0.02,
                  max_queue_per_replica=256)
class Model:
    def handle_batch(self, payloads):
        model_sleep(len(payloads))
        return [p + 1 for p in payloads]


def deploy_model(**options) -> serve.DeploymentHandle:
    """Deploy :class:`Model` with ``options`` and warm it."""
    handle = Model.options(**options).deploy()
    assert [handle.query(i, timeout=30) for i in range(8)] == list(range(1, 9))
    return handle


def closed_loop(
    clients: int, seconds: float, issue_one: Callable[[int], object]
) -> Tuple[List[Tuple[float, float]], int]:
    """``clients`` threads call ``issue_one(index)`` back to back for ``seconds``.
    Returns ``(wall-clock end, latency)`` samples and the count of calls that raised."""
    samples, errors = [], []
    deadline = time.monotonic() + seconds

    def client(index: int) -> None:
        while time.monotonic() < deadline:
            started = time.perf_counter()
            try:
                issue_one(index)
            except Exception:  # a batch whose retries ran out under a fault
                errors.append(index)
            else:
                samples.append((time.time(), time.perf_counter() - started))

    with ThreadPoolExecutor(clients) as pool:
        list(pool.map(client, range(clients)))
    return samples, len(errors)
