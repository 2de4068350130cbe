"""Run one workload: set-ups, the measured closed loop, metrics.

A run measures a fixed op sequence — ``Workload.ROUNDS`` seeded rounds on
every connection — so op counts repeat from run to run and a faster build
is measured on the same work as a slower one.  ``--seconds`` is only a
cap: a run that reaches it stops at the end of the round it is in and says
so (``capped``).  The end-to-end metrics are the plain ones: correct ops ÷
wall time, and nearest-rank percentiles over every measured op.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Optional

from . import layers, stats, trace
from .workload import OpResult, Workload

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Traced runs alternate untraced and traced windows (same system, same
#: inputs, same rounds per window) so ``obs.trace_overhead_share`` compares
#: like with like; the traced half is ~1/4 of a full run's op count.
TRACE_WINDOWS = 6
#: A connection that fails this many ops in a row is given up on.
MAX_CONSECUTIVE_FAILURES = 10


def workload_classes() -> dict[str, type[Workload]]:
    from .workloads_local import CompileRulebase, KbUpdate, LfpClosure
    from .workloads_served import ClusterRouted, ServeHot, ServeWriteRead

    return {
        cls.name: cls
        for cls in (CompileRulebase, LfpClosure, KbUpdate, ServeHot, ServeWriteRead, ClusterRouted)
    }


class Window:
    """One stretch of the measured section, all connections side by side."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.results: list[OpResult] = []
        self.started = 0.0
        self.capped = False

    @property
    def wall(self) -> float:
        return max(result.ended for result in self.results) - self.started


def _drive(
    workload: Workload,
    connection: int,
    rounds: Any,
    count: int,
    cap: float,
    gate: threading.Barrier,
    out: list,
) -> None:
    results: list[OpResult] = []
    failures = 0
    capped = False
    gate.wait()
    started = time.perf_counter()
    for done in range(1, count + 1):
        for op in next(rounds):
            result = workload.execute(connection, op)
            results.append(result)
            failures = 0 if result.ok else failures + 1
            if failures >= MAX_CONSECUTIVE_FAILURES:
                out[connection] = (started, results, True)
                return
        if done < count and time.perf_counter() - started >= cap:
            capped = True
            break
    out[connection] = (started, results, capped)


def run_window(workload: Workload, rounds: list, count: int, cap: float, traced: bool) -> Window:
    """Every connection runs ``count`` whole rounds (fewer past ``cap`` seconds)."""
    window = Window(traced)
    connections = workload.connections
    gate = threading.Barrier(connections)
    out: list = [None] * connections
    threads = [
        threading.Thread(
            target=_drive,
            args=(workload, index, rounds[index], count, cap, gate, out),
            name=f"ledger-conn-{index}",
        )
        for index in range(1, connections)
    ]
    # The generator keeps every op's record; with the system in a child
    # process, its own collector pauses would only be generator noise.
    pause_collector = workload.child_kind is not None and gc.isenabled()
    if pause_collector:
        gc.collect()
        gc.disable()
    for thread in threads:
        thread.start()
    try:
        _drive(workload, 0, rounds[0], count, cap, gate, out)
    finally:
        for thread in threads:
            thread.join()
        if pause_collector:
            gc.enable()
    if any(entry is None for entry in out):
        raise RuntimeError(f"{workload.name}: a load-generator thread died")
    window.started = min(entry[0] for entry in out)
    window.capped = any(entry[2] for entry in out)
    for entry in out:
        window.results.extend(entry[1])
    return window


def end_to_end(window: Window) -> dict[str, Any]:
    """Throughput and latency percentiles of the measured section, pooled."""
    samples = [result.latency * 1000.0 for result in window.results]
    return {
        "throughput_ops_s": sum(1 for result in window.results if result.ok) / window.wall,
        "latency_p50_ms": stats.nearest_rank(samples, 50),
        "latency_p95_ms": stats.nearest_rank(samples, 95),
        "latency_p99_ms": (
            stats.nearest_rank(samples, 99) if stats.supported(len(samples), 99) else None
        ),
        "samples": len(samples),
        "p95_supported": stats.supported(len(samples), 95),
        "wall_s": window.wall,
    }


def record_path(name: str, traced: bool) -> str:
    """Where a driver-form run leaves its full record."""
    return os.path.join(OUT_DIR, f"run_{name}_{int(traced)}.json")


def run_isolated(name: str, seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    """One run in a process of its own — the form the driver uses — so
    runs share no interpreter state, span store or resident set."""
    subprocess.run(
        [
            sys.executable, "-m", "ledger", "run", "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
        ],
        cwd=os.path.dirname(os.path.dirname(OUT_DIR)),
        check=True,
    )
    with open(record_path(name, traced), encoding="utf-8") as stream:
        return json.load(stream)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool = False,
    setups: int = SETUPS,
    keep_trace: bool = True,
    overrides: Optional[dict[str, Any]] = None,
    base: Optional[type[Workload]] = None,
) -> dict[str, Any]:
    """Set up ``setups`` times (once when traced), measure the workload's
    fixed rounds once (at most ``seconds``), tear down.

    Returns the run record: ``metrics`` (end-to-end, or per-layer when
    ``traced``), ``attempted``/``failed``, and the details a report prints.
    ``overrides`` (class attributes, i.e. sizes) and ``base`` exist for the
    self-test's tiny runs.
    """
    cls = base or workload_classes()[name]
    if overrides:
        cls = type(cls.__name__, (cls,), dict(overrides))
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"run-{name}-", dir=OUT_DIR)
    missing = trace.install() if traced else []
    trace.RECORDER.clear()
    workload: Optional[Workload] = None
    setup_times: list[float] = []
    try:
        for attempt in range(1 if traced else max(1, setups)):
            if workload is not None:
                workload.teardown()
                workload = None
            workdir = os.path.join(scratch, f"setup{attempt}")
            os.makedirs(workdir)
            started = time.perf_counter()
            workload = cls(seed, workdir, traced)
            workload.setup()
            setup_times.append(time.perf_counter() - started)

        rounds = [workload.rounds(index) for index in range(workload.connections)]
        before = workload.counters() if traced else {}
        windows: list[Window] = []
        if traced:
            per_window = -(-workload.ROUNDS // (2 * TRACE_WINDOWS))
            for index in range(TRACE_WINDOWS):
                on = index % 2 == 1
                workload.set_tracing(on)
                windows.append(
                    run_window(workload, rounds, per_window, seconds / TRACE_WINDOWS, on)
                )
            workload.set_tracing(False)
        else:
            windows.append(run_window(workload, rounds, workload.ROUNDS, seconds, False))
        after = workload.counters() if traced else {}
        ended = workload.teardown()
        finished, workload = workload, None
    finally:
        if workload is not None:
            try:
                workload.teardown()
            except Exception:
                pass
        trace.RECORDER.enabled = False
        if not traced:
            shutil.rmtree(scratch, ignore_errors=True)

    everything = [result for window in windows for result in window.results]
    failed = sum(1 for result in everything if not result.ok)
    record: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "timed_op": finished.timed_op,
        "connections": finished.connections,
        "digest": finished.digest,
        "attempted": len(everything),
        "failed": failed,
        "failed_share": failed / len(everything),
        "capped": any(window.capped for window in windows),
    }
    if traced:
        trace_path = os.path.join(OUT_DIR, f"trace_{name}.json") if keep_trace else None
        record["missing_hooks"] = sorted(set(missing) | set(finished.missing_hooks))
        record["metrics"] = layers.compute(
            finished, windows, before, after, ended, record["missing_hooks"], trace_path
        )
        record["trace_file"] = trace_path
        record["detail"] = {"samples": sum(len(w.results) for w in windows if w.traced)}
        shutil.rmtree(scratch, ignore_errors=True)
    else:
        measured = end_to_end(windows[0])
        record["metrics"] = {
            "throughput_ops_s": measured.pop("throughput_ops_s"),
            "latency_p50_ms": measured.pop("latency_p50_ms"),
            "latency_p95_ms": measured.pop("latency_p95_ms"),
            "peak_rss_mb": ended["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        record["detail"] = {**measured, "setup_times_s": setup_times}
    return record
