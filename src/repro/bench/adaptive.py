"""The adaptive-serving benchmark: inject an SLO breach, watch the watchdog.

One closed loop over a live server with the SLO watchdog enabled:

1. **steady** — bound ancestor queries, warm result cache: latency far
   under the p95 objective;
2. **degraded** — injected degradation: every query is an *unbound* deep
   recursion (the full ancestor closure) with the result cache bypassed,
   and a write lands each window so nothing warms up — windowed p95 jumps
   past the objective;
3. **recovery** — back to the steady mix; the signal decays below the
   objective and the watchdog reverts its escalations.

The run measures the two numbers that make "adaptive" a claim instead of
a vibe: **detection time** (degradation start → breach event, in seconds
and in windows) and **recovery time** (steady traffic resuming → recover
event).  The watchdog is driven by explicit ticks between load bursts, so
the measurements are about the state machine, not scheduler jitter.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..server.loadgen import QuerySpec, run_loadgen
from ..server.service import DkbServer, ServerConfig, WatchdogConfig
from .reporting import _table
from .server import _seed_dkb, ancestor_query_mix


@dataclass(frozen=True)
class AdaptivePhaseReport:
    """One phase of the loop: its traffic and the watchdog's view of it."""

    name: str
    requests: int
    errors: int
    busy: int
    p95_ms: float
    windows: int


@dataclass
class AdaptiveLoopResult:
    """Everything one adaptive-loop run produced."""

    window_seconds: float
    p95_threshold_ms: float
    phases: list[AdaptivePhaseReport] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)
    #: seconds from the start of the degraded phase to the breach event
    #: (None = the watchdog never detected the degradation).
    detection_seconds: Optional[float] = None
    #: sealed windows it took to detect (ceil of detection / width).
    detection_windows: Optional[int] = None
    #: escalations the breach applied (tracing, admission).
    breach_actions: list[str] = field(default_factory=list)
    #: seconds from the start of the recovery phase to the recover event.
    recovery_seconds: Optional[float] = None
    recovery_windows: Optional[int] = None
    #: True when every escalation was reverted by the end of the run.
    restored: bool = False

    @property
    def detected(self) -> bool:
        return self.detection_seconds is not None

    @property
    def recovered(self) -> bool:
        return self.recovery_seconds is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "window_seconds": self.window_seconds,
            "p95_threshold_ms": self.p95_threshold_ms,
            "phases": [
                {
                    "name": phase.name,
                    "requests": phase.requests,
                    "errors": phase.errors,
                    "busy": phase.busy,
                    "p95_ms": phase.p95_ms,
                    "windows": phase.windows,
                }
                for phase in self.phases
            ],
            "detection_seconds": self.detection_seconds,
            "detection_windows": self.detection_windows,
            "breach_actions": list(self.breach_actions),
            "recovery_seconds": self.recovery_seconds,
            "recovery_windows": self.recovery_windows,
            "restored": self.restored,
            "events": [dict(event) for event in self.events],
        }


def _drive_phase(
    server: DkbServer,
    queries: Sequence[QuerySpec],
    windows: int,
    window_seconds: float,
    clients: int,
    think_time: float,
    dirty: bool,
) -> AdaptivePhaseReport:
    """Drive one phase window-by-window, ticking the watchdog in between.

    ``dirty`` injects one write per window (an insert/delete pair through
    the pool's writer), bumping the D/KB version so the result cache never
    warms during the degraded phase.
    """
    host, port = server.address
    requests = errors = busy = 0
    p95 = 0.0
    for index in range(windows):
        if dirty:
            marker = f"zz_degrade_{index}"
            server.pool.load_facts("parent", [(marker, "zz_leaf")])
            server.pool.delete_facts("parent", [(marker, "zz_leaf")])
        report = run_loadgen(
            host,
            port,
            queries,
            clients=clients,
            duration=window_seconds,
            think_time=think_time,
            reconnect_every=100,
            use_processes=False,
        )
        requests += report.requests
        errors += report.errors
        busy += report.busy
        p95 = max(p95, report.latency_ms["p95"])
        assert server.watchdog is not None
        server.watchdog.tick()
    return AdaptivePhaseReport(
        name="",
        requests=requests,
        errors=errors,
        busy=busy,
        p95_ms=p95,
        windows=windows,
    )


def _first_event(
    server: DkbServer, kind: str, rule: str, since: float
) -> Optional[Any]:
    assert server.watchdog is not None
    for event in server.watchdog.events():
        if event.kind == kind and event.rule == rule and event.at >= since:
            return event
    return None


def run_adaptive_loop(
    depth: int = 7,
    window_seconds: float = 0.5,
    clients: int = 4,
    steady_windows: int = 3,
    degraded_windows: int = 8,
    recovery_windows: int = 12,
    p95_threshold_ms: float = 25.0,
    think_time: float = 0.002,
    path: Optional[str] = None,
) -> AdaptiveLoopResult:
    """Run the steady → degraded → recovery loop against a live server.

    The watchdog runs with ``auto_start=False`` and is ticked explicitly
    after every window-sized load burst, so detection/recovery times
    reflect the rule hysteresis, not background-thread scheduling.
    """
    result = AdaptiveLoopResult(
        window_seconds=window_seconds, p95_threshold_ms=p95_threshold_ms
    )
    with tempfile.TemporaryDirectory(prefix="repro_adapt_") as scratch:
        dkb_path = path or os.path.join(scratch, "dkb.sqlite")
        _seed_dkb(dkb_path, depth)
        steady_mix: list[QuerySpec] = list(ancestor_query_mix(depth))
        # The injected degradation: the full unbound closure, recomputed
        # naively (the paper's slowest strategy), never cached — each
        # request pays the whole recursion, so windowed p95 jumps well
        # past the objective instead of hovering near it.
        degraded_mix: list[QuerySpec] = [
            {"q": "?- ancestor(X, Y).", "use_cache": False, "strategy": "naive"}
        ]
        config = ServerConfig(
            path=dkb_path,
            readers=max(4, clients),
            session_timeout=60.0,
            watchdog=WatchdogConfig(
                window_seconds=window_seconds,
                p95_ms=p95_threshold_ms,
                breach_windows=2,
                recover_windows=2,
                alpha=0.7,
                min_requests=1,
                auto_start=False,
            ),
        )
        with DkbServer(config) as server:
            assert server.watchdog is not None

            assert server.timeseries is not None

            def phase(
                name: str, mix: Sequence[QuerySpec], windows: int, dirty: bool
            ) -> "tuple[float, float]":
                """Returns (wall-clock start, store offset of the first
                window this phase's traffic lands in)."""
                started = time.monotonic()
                first_window = server.timeseries.open_window().start
                report = _drive_phase(
                    server, mix, windows, window_seconds,
                    clients, think_time, dirty,
                )
                result.phases.append(
                    AdaptivePhaseReport(
                        name=name,
                        requests=report.requests,
                        errors=report.errors,
                        busy=report.busy,
                        p95_ms=report.p95_ms,
                        windows=windows,
                    )
                )
                return started, first_window

            def windows_until(event: Any, first_window: float) -> int:
                """Sealed windows from a phase's first window to the one
                the event fired on, inclusive."""
                if event.window_start is None:
                    return 0
                return (
                    int(
                        round(
                            (event.window_start - first_window)
                            / window_seconds
                        )
                    )
                    + 1
                )

            phase("steady", steady_mix, steady_windows, dirty=False)
            degraded_start, degraded_window = phase(
                "degraded", degraded_mix, degraded_windows, dirty=True
            )
            breach = _first_event(
                server, "breach", "p95_latency", degraded_start
            )
            if breach is not None:
                result.detection_seconds = breach.at - degraded_start
                result.detection_windows = windows_until(
                    breach, degraded_window
                )
                result.breach_actions = list(breach.actions)
            recovery_start, recovery_window = phase(
                "recovery", steady_mix, recovery_windows, dirty=False
            )
            recover = _first_event(
                server, "recover", "p95_latency", recovery_start
            )
            if recover is not None:
                result.recovery_seconds = recover.at - recovery_start
                result.recovery_windows = windows_until(
                    recover, recovery_window
                )
            result.restored = not server.watchdog.breached_rules()
            result.events = [
                event.to_dict() for event in server.watchdog.events()
            ]
    return result


def format_adaptive_loop(result: AdaptiveLoopResult) -> str:
    """Text tables of the adaptive-loop run."""
    phases = _table(
        ["phase", "windows", "requests", "max p95 ms", "errors", "busy"],
        [
            (
                phase.name,
                phase.windows,
                phase.requests,
                f"{phase.p95_ms:.1f}",
                phase.errors,
                phase.busy,
            )
            for phase in result.phases
        ],
    )
    outcome = _table(
        ["measure", "value"],
        [
            ("p95 objective (ms)", f"{result.p95_threshold_ms:.1f}"),
            ("window width (s)", f"{result.window_seconds:.2f}"),
            (
                "detection",
                f"{result.detection_seconds:.2f}s "
                f"(~{result.detection_windows} windows)"
                if result.detected
                else "NOT DETECTED",
            ),
            (
                "breach actions",
                ", ".join(result.breach_actions) or "-",
            ),
            (
                "recovery",
                f"{result.recovery_seconds:.2f}s "
                f"(~{result.recovery_windows} windows)"
                if result.recovered
                else "NOT RECOVERED",
            ),
            ("steady state restored", "yes" if result.restored else "NO"),
        ],
    )
    return phases + "\n\n" + outcome
