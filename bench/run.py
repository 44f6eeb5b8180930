"""One command for every number: ``python3 bench/run.py``.

Two ways in:

* ``--workload NAME --seed N --seconds S --trace 0|1`` — one run of one
  workload in this process (what ``BENCHMARK.json`` ``command`` names).  The
  last line of stdout is one JSON object with ``correct``, ``attempted``,
  ``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
  per-layer metrics with ``--trace 1``.  The line before it is an ``info``
  object: environment stamp, ungated extras, warnings.
* no ``--workload`` — the suite: every workload, untraced then traced, each
  run in a fresh subprocess; prints every metric by name with its unit.
  ``--repeat-check`` runs two sets back to back and exits non-zero when any
  workload x end-to-end metric differs by more than its bound.

See ``bench/README.md`` for the design and how to read a trace.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # set-up time counts imports too

import argparse
import gc
import json
import os
import platform
import queue
import statistics
import subprocess
import sys
import threading
import traceback
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path[:0] = [ROOT, SRC]  # run as a script, ``bench`` and ``repro`` are not on the path

from bench import layers, spans  # noqa: E402  (neither imports the runtime)
from bench.layers import percentile  # noqa: E402

SETUP_REPEATS = 3  # cold set-ups per run; setup_s reports their median
REPEAT_RUNS = 3  # --repeat-check: untraced runs per workload in each set
UNTRACED_SHARE = 0.25  # of a traced run's seconds, measured before install
WARMUP_BURST = 16  # open-loop warm-up sends requests in bursts of this size
LOAD_WARN = 1.5
# An open-loop run whose sender lagged more than this at p99 was disturbed.
# (The sender shares the GIL with the system it loads, so it waits out a
# 5 ms switch interval now and then; the issue's 2 ms fired on quiet runs.)
LATE_WARN_MS = 5.0

clock = time.perf_counter


def _load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# One run of one workload (in this process)
# ---------------------------------------------------------------------------


class Segment:
    """What one measured stretch of a workload produced."""

    def __init__(self, wl: Any) -> None:
        self.wl = wl
        self.latencies_ms: List[float] = []  # fully-correct ops only
        self.ops = 0
        self.units_attempted = 0
        self.units_correct = 0
        self.slo_met = 0
        self.late_ms: List[float] = []  # open loop: send time - due time
        self.observed_at: Dict[int, float] = {}  # open loop: op -> reply seen
        self.wall_s = 0.0
        self.cpu_s = 0.0  # process CPU time, every thread, over the stretch
        self.rss_start_mb = self.rss_end_mb = _rss_mb()
        # Resident set once ``wl.memory_at_op`` ops are done: memory at equal
        # work, however many ops the run's seconds hold.
        self.rss_at_op_mb: Optional[float] = None
        self._cpu_start = time.process_time()

    def record(self, latency_ms: float, correct_units: int) -> None:
        wl = self.wl
        self.ops += 1
        self.units_attempted += wl.units_per_op
        self.units_correct += correct_units
        if correct_units == wl.units_per_op:
            self.latencies_ms.append(latency_ms)
            if latency_ms <= wl.slo_ms:
                self.slo_met += 1
        if self.ops == wl.memory_at_op:
            self.rss_at_op_mb = _rss_mb()

    def finish(self, wall_s: float) -> "Segment":
        self.wall_s = wall_s
        self.cpu_s = time.process_time() - self._cpu_start
        self.rss_end_mb = _rss_mb()
        return self

    @property
    def ops_per_s(self) -> float:
        return self.units_correct / self.wall_s if self.wall_s else 0.0


_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * _PAGE / 1048576.0


def _report_failure(segment: Segment, i: int) -> None:
    if segment.units_attempted == segment.units_correct:  # first failure only
        print(f"bench: op {i} raised:\n{traceback.format_exc()}", file=sys.stderr)


def closed_loop(wl: Any, tracer: Any, first_op: int, seconds: float) -> Segment:
    segment = Segment(wl)
    t0 = clock()
    deadline = t0 + seconds
    i = first_op
    while True:
        start = clock()
        if start >= deadline:
            break
        if tracer is not None:
            tracer.op = i
        try:
            good = wl.op(i)
        except Exception:
            _report_failure(segment, i)
            good = 0
        segment.record((clock() - start) * 1e3, good)
        i += 1
    return segment.finish(clock() - t0)


def open_loop(wl: Any, tracer: Any, first_op: int, seconds: float) -> Segment:
    segment = Segment(wl)
    pending: "queue.SimpleQueue" = queue.SimpleQueue()
    interval = 1.0 / wl.rate
    count = max(1, int(wl.rate * seconds))
    t0 = clock() + 0.005
    finished = [t0]

    def collect() -> None:
        while True:
            item = pending.get()
            if item is None:
                return
            i, due, future = item
            good = 0
            if future is not None:
                try:
                    good = int(wl.check(i, future.result(timeout=30)))
                except Exception:
                    _report_failure(segment, i)
            now = clock()
            segment.observed_at[i] = now
            segment.record((now - due) * 1e3, good)
            finished[0] = now

    collector = threading.Thread(target=collect, name="bench-collector")
    collector.start()
    try:
        for k in range(count):
            due = t0 + k * interval
            now = clock()
            while now < due:
                time.sleep(due - now)
                now = clock()
            segment.late_ms.append((now - due) * 1e3)
            i = first_op + k
            if tracer is not None:
                tracer.op = i
            try:
                future = wl.send(i)
            except Exception:  # shed (BackpressureError) or a stopped router
                future = None
            pending.put((i, due, future))
    finally:
        pending.put(None)
        collector.join()
    return segment.finish(finished[0] - t0)  # first request due -> last reply seen


def warm_up(wl: Any, count: int) -> None:
    """A fixed amount of unmeasured work under the workload's hop delay."""
    if wl.rate is None:
        for i in range(count):
            if wl.op(-1 - i) != wl.units_per_op:
                raise RuntimeError(f"{wl.name}: warm-up op {i} returned a wrong value")
        return
    for first in range(0, count, WARMUP_BURST):
        ids = [-1 - i for i in range(first, min(count, first + WARMUP_BURST))]
        futures = [wl.send(i) for i in ids]
        for i, future in zip(ids, futures):
            if not wl.check(i, future.result(timeout=30)):
                raise RuntimeError(f"{wl.name}: warm-up request returned a wrong value")


def _counters(runtime: Any, wl: Any, families: Tuple[str, ...]) -> Dict[str, float]:
    exported = runtime.metrics.to_dict()
    out = {
        name: float(sum(row["value"] or 0.0 for row in exported[name]["series"]))
        for name in families
    }
    out["backstop_timeouts"] = float(runtime.wait_stats.snapshot()["backstop_timeouts"])
    out.update({f"serve.{k}": v for k, v in wl.layer_stats().items()})
    out["cpu_s"] = time.process_time()
    return out


class GcWatch:
    """Collector pauses, from ``gc.callbacks`` (traced segment only)."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = clock()
        else:
            self.pause_s += clock() - self._started
            self.gen2 += info["generation"] == 2


def _env_stamp() -> Dict[str, Any]:
    import numpy

    sha = "unknown"
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            # A checkout that is not a repository must not find one above it.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
    }


def measure_untraced(wl: Any, seconds: float) -> Tuple[Segment, Dict[str, Any], Dict[str, Any]]:
    """The end-to-end pass: (segment, metrics without setup_s, extras)."""
    loop = closed_loop if wl.rate is None else open_loop
    segment = loop(wl, None, 0, seconds)
    at_op = segment.rss_at_op_mb
    metrics = {
        "ops_per_s": (segment.ops_per_s, "ops/s"),
        "latency_ms_p50": (percentile(segment.latencies_ms, 50), "ms"),
        "latency_ms_p90": (percentile(segment.latencies_ms, 90), "ms"),
        "slo_met_share": (segment.slo_met / max(1, segment.ops), "share"),
        # A run too short (or too slow) to reach the op reports where it got.
        "rss_mb": (segment.rss_end_mb if at_op is None else at_op, "MB"),
    }
    extras = {
        "latency_ms_p99": percentile(segment.latencies_ms, 99),
        "latency_samples": len(segment.latencies_ms),
        "ops": segment.ops,
        "wall_s": segment.wall_s,
        "cpu_ms_per_op": segment.cpu_s * 1e3 / max(1, segment.units_attempted),
        "rss_at_op": wl.memory_at_op if at_op is not None else segment.ops,
        "end_rss_mb": segment.rss_end_mb,
    }
    return segment, metrics, extras


def measure_traced(
    wl: Any, runtime: Any, seconds: float, meta: Dict[str, Any]
) -> Tuple[Segment, Dict[str, Any], Dict[str, Any]]:
    """The per-layer pass: an untraced reference stretch, then a traced one."""
    loop = closed_loop if wl.rate is None else open_loop
    reference = loop(wl, None, 0, seconds * UNTRACED_SHARE)
    tracer = spans.Tracer()
    watch = GcWatch()
    tracer.install()
    gc.callbacks.append(watch)
    try:
        before = _counters(runtime, wl, layers.COUNTER_FAMILIES)
        segment = loop(wl, tracer, reference.ops, seconds * (1 - UNTRACED_SHARE))
        after = _counters(runtime, wl, layers.COUNTER_FAMILIES)
    finally:
        gc.callbacks.remove(watch)
        tracer.uninstall()
    p50 = percentile(segment.latencies_ms, 50)
    reference_p50 = percentile(reference.latencies_ms, 50)
    values = layers.per_layer(
        tracer,
        threading.get_ident(),
        max(1, segment.units_attempted),
        {key: after[key] - before[key] for key in after},
        {
            "proc.gc_pause_ms_total": watch.pause_s * 1e3,
            "proc.gc_gen2_collections": float(watch.gen2),
            # Read on the reference stretch, before the tracer's own records
            # start to pile up.
            "proc.rss_growth_kb_per_op": (
                (reference.rss_end_mb - reference.rss_start_mb)
                * 1024.0 / max(1, reference.units_attempted)
            ),
            "bench.generator_late_ms_p99": percentile(segment.late_ms, 99),
            "bench.trace_overhead_share": (
                1.0 - segment.ops_per_s / reference.ops_per_s
                if reference.ops_per_s else 0.0
            ),
            "bench.trace_latency_p50_ratio": p50 / reference_p50 if reference_p50 else 0.0,
        },
        {wl.payload(i): seen for i, seen in segment.observed_at.items()},
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace_{wl.name}.json")
    tracer.dump(trace_path, _T_START, dict(meta, ops=segment.ops, latency_ms_p50=p50))
    extras = {
        "trace_file": os.path.relpath(trace_path, ROOT),
        "spans": len(tracer.records),
        "traced_ops_per_s": segment.ops_per_s,
        "untraced_ops_per_s": reference.ops_per_s,
        "traced_latency_ms_p50": p50,
    }
    # The reference stretch counts toward correctness too.
    segment.units_attempted += reference.units_attempted
    segment.units_correct += reference.units_correct
    return segment, {name: (values[name], unit) for name, unit in layers.PER_LAYER}, extras


def _cold_setup(args: argparse.Namespace) -> float:
    """Set-up time of this workload in a fresh interpreter."""
    done = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def run_one(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash order must not differ between runs; only a fresh interpreter
        # can change it.  exec replaces this process, so nothing is left over.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: {SRC}/repro not found; run from a full checkout", file=sys.stderr)
        return 2

    import numpy as np
    import repro
    from bench import workloads

    if args.workload not in workloads.BY_NAME:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.BY_NAME[args.workload]()
    load_before = os.getloadavg()[0]
    runtime = repro.init(**wl.cluster)
    try:
        for shard in runtime.gcs.kv.shards:
            shard.hop_delay = wl.hop_delay
        wl.start(np.random.default_rng(args.seed))
        warm_up(wl, max(1, wl.warmup_ops // 10) if args.smoke else wl.warmup_ops)
        setup_s = clock() - _T_START  # cold: imports, init, start, warm-up
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = _env_stamp()
        if args.trace:
            segment, metrics, extras = measure_traced(
                wl, runtime, args.seconds,
                dict(env, workload=wl.name, seed=args.seed, seconds=args.seconds),
            )
        else:
            segment, metrics, extras = measure_untraced(wl, args.seconds)
    finally:
        repro.shutdown()
    if not args.trace:
        # Every set-up is a cold one: this process's, and further ones each in
        # a fresh interpreter, run after the measurement so nothing competes
        # with it.
        setup_times = [setup_s]
        while len(setup_times) < (1 if args.smoke else SETUP_REPEATS):
            setup_times.append(_cold_setup(args))
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        extras["setup_times_s"] = setup_times

    late_p99 = percentile(segment.late_ms, 99)
    load_after = os.getloadavg()[0]
    warnings: List[str] = []
    if max(load_before, load_after) > LOAD_WARN:
        warnings.append(
            f"1-min load average {load_before:.2f} -> {load_after:.2f} exceeds "
            f"{LOAD_WARN}: timings are suspect"
        )
    if late_p99 > LATE_WARN_MS:
        warnings.append(
            f"generator ran {late_p99:.2f} ms late at p99 (> {LATE_WARN_MS} ms): "
            "this open-loop run was disturbed"
        )
    for warning in warnings:
        print(f"bench: WARNING {wl.name}: {warning}", file=sys.stderr)
    info = dict(
        env,
        workload=wl.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        load_1min=[load_before, load_after],
        generator_late_ms_p99=late_p99,
        warnings=warnings,
        **extras,
    )
    failed = segment.units_attempted - segment.units_correct
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": segment.units_attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# The suite: every workload, each run in a fresh subprocess
# ---------------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=180,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} (trace={trace}) exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def run_set(args: argparse.Namespace, runs_each: int, traced: bool) -> Dict[str, Any]:
    """``runs_each`` untraced runs (+ one traced) per workload; medians."""
    from bench import workloads

    out: Dict[str, Any] = {}
    for cls in workloads.WORKLOADS:
        runs = [
            _child(cls.name, args.seed + k, args.seconds, 0, args.smoke)
            for k in range(runs_each)
        ]
        row: Dict[str, Any] = {
            "end_to_end": {
                name: {
                    "value": statistics.median(
                        result["metrics"][name]["value"] for _, result in runs
                    ),
                    "unit": runs[0][1]["metrics"][name]["unit"],
                }
                for name in runs[0][1]["metrics"]
            },
            "attempted": sum(result["attempted"] for _, result in runs),
            "failed": sum(result["failed"] for _, result in runs),
            "correct": all(result["correct"] for _, result in runs),
            "info": [info for info, _ in runs],
        }
        if traced:
            info, result = _child(cls.name, args.seed, args.seconds, 1, args.smoke)
            row["per_layer"] = result["metrics"]
            row["correct"] = row["correct"] and result["correct"]
            row["info"].append(info)
        out[cls.name] = row
        _print_workload(cls.name, row)
    return out


def _print_workload(name: str, row: Dict[str, Any]) -> None:
    first = row["info"][0]
    print(
        f"\n== {name}  attempted={row['attempted']} failed={row['failed']} "
        f"correct={row['correct']}  load {first['load_1min'][0]:.2f} -> "
        f"{row['info'][-1]['load_1min'][1]:.2f}"
    )
    for metric, cell in row["end_to_end"].items():
        print(f"  {metric:<36} {cell['value']:>14.4f} {cell['unit']}")
    print(
        f"  {'latency_ms_p99 (not gated)':<36} "
        f"{statistics.median(i['latency_ms_p99'] for i in row['info'] if not i['trace']):>14.4f} ms"
    )
    for metric, cell in row.get("per_layer", {}).items():
        print(f"  {metric:<36} {cell['value']:>14.4f} {cell['unit']}")
    for info in row["info"]:
        for warning in info["warnings"]:
            print(f"  WARNING: {warning}")


def repeat_check(first: Dict[str, Any], second: Dict[str, Any], spec: Dict[str, Any]) -> int:
    """Compare two sets of the same code against the benchmark's own bounds."""
    breaches = 0
    print(f"\n{'workload':<18}{'metric':<18}{'set 1':>12}{'set 2':>12}{'diff':>9}{'bound':>8}")
    for name in first:
        for metric in spec["end_to_end"]:
            a = first[name]["end_to_end"][metric["name"]]["value"]
            b = second[name]["end_to_end"][metric["name"]]["value"]
            diff = abs(b - a) / abs(a) if a else float("inf")
            breach = diff > metric["bound"]
            breaches += breach
            print(
                f"{name:<18}{metric['name']:<18}{a:>12.4f}{b:>12.4f}"
                f"{diff:>9.4f}{metric['bound']:>8.2f}{'  BREACH' if breach else ''}"
            )
    return breaches


def run_suite(args: argparse.Namespace) -> int:
    spec = _load_spec()
    if args.seconds is None:
        args.seconds = 0.6 if args.smoke else float(spec["run_seconds"])
    runs_each = REPEAT_RUNS if args.repeat_check else 1
    print(f"bench: seed={args.seed} seconds={args.seconds} runs per workload={runs_each}")
    first = run_set(args, runs_each, traced=True)
    print("\nenvironment:", json.dumps({
        key: first[next(iter(first))]["info"][0][key]
        for key in ("git_sha", "python", "numpy", "nproc", "affinity")
    }))
    ok = all(row["correct"] for row in first.values())
    if args.repeat_check:
        second = run_set(args, runs_each, traced=False)
        ok = ok and all(row["correct"] for row in second.values())
        ok = repeat_check(first, second, spec) == 0 and ok
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(first, handle, indent=1)
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny counts, one set-up")
    parser.add_argument(
        "--setup-only", action="store_true",
        help="with --workload: set up, print the set-up time, exit (how a run "
        "times further cold set-ups)",
    )
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--out", help="suite: also write the results as JSON here")
    args = parser.parse_args(argv)
    if args.workload:
        if args.seconds is None:
            args.seconds = float(_load_spec()["run_seconds"])
        return run_one(args)
    if args.setup_only:
        parser.error("--setup-only needs --workload")
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
