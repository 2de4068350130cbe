"""Simulated parallel LFP evaluation (paper conclusions 5 and 7).

The paper claims two things about parallelism that its testbed could not
measure (no parallel database machine was available):

* **Conclusion 7** — LFP evaluation can be sped up significantly by
  evaluating the right-hand side of each recursive equation in parallel,
  with pipelined/parallel join processing;
* **Conclusion 5** — yet "the above inefficiencies cannot be overcome using
  parallelism alone": table copying and termination checking stay a serial
  bottleneck, so their *percentage* contribution only grows with the degree
  of parallelism.

We do not have a parallel database machine either, so — per the
reproduction's substitution rule — we *simulate* one: a real evaluation is
traced statement by statement (:class:`repro.obs.StatementRecord`),
then the trace is replayed under a k-worker schedule in which the
``rhs_eval`` statements of one iteration run concurrently (longest-
processing-time assignment) while everything else remains serial.  This is
an optimistic model (no contention, perfect balancing within LPT), so the
conclusions it supports are conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import heapq

from ..obs.trace import StatementRecord
from .context import PHASE_RHS_EVAL, PHASE_TEMP_TABLES, PHASE_TERMINATION


@dataclass(frozen=True)
class SimulatedSchedule:
    """Outcome of replaying a trace on ``workers`` parallel units."""

    workers: int
    total_seconds: float
    parallel_seconds: float  # time spent in (parallelised) RHS evaluation
    serial_seconds: float  # temp tables, termination, everything else

    @property
    def serial_fraction(self) -> float:
        """Share of wall time spent in the non-parallelisable phases."""
        if not self.total_seconds:
            return 0.0
        return self.serial_seconds / self.total_seconds

    def speedup_over(self, baseline: "SimulatedSchedule") -> float:
        """Wall-clock speedup relative to ``baseline``."""
        if not self.total_seconds:
            return float("inf")
        return baseline.total_seconds / self.total_seconds


def _lpt_makespan(durations: list[float], workers: int) -> float:
    """Makespan of the longest-processing-time-first schedule."""
    if not durations:
        return 0.0
    if workers <= 1:
        return sum(durations)
    loads = [0.0] * workers
    heapq.heapify(loads)
    for duration in sorted(durations, reverse=True):
        lightest = heapq.heappop(loads)
        heapq.heappush(loads, lightest + duration)
    return max(loads)


def simulate_parallel_lfp(
    trace: Sequence[StatementRecord], workers: int
) -> SimulatedSchedule:
    """Replay ``trace`` with the RHS statements of each batch parallelised.

    Consecutive ``rhs_eval`` statements form one batch (one iteration's
    right-hand sides — paper 7a: "the right hand side of each recursive
    equation may be evaluated in parallel"); each batch is scheduled on
    ``workers`` units with LPT.  All other statements are replayed serially
    in order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    total = 0.0
    parallel = 0.0
    serial = 0.0
    batch: list[float] = []

    def flush_batch() -> None:
        nonlocal total, parallel
        if batch:
            makespan = _lpt_makespan(batch, workers)
            total += makespan
            parallel += makespan
            batch.clear()

    for event in trace:
        if event.phase == PHASE_RHS_EVAL:
            batch.append(event.seconds)
        else:
            flush_batch()
            total += event.seconds
            serial += event.seconds
    flush_batch()
    return SimulatedSchedule(workers, total, parallel, serial)


def sweep_workers(
    trace: Sequence[StatementRecord], worker_counts: tuple[int, ...] = (1, 2, 4, 8, 16)
) -> list[SimulatedSchedule]:
    """Simulate the trace across several degrees of parallelism."""
    return [simulate_parallel_lfp(trace, k) for k in worker_counts]


def lfp_phase_events(trace: Sequence[StatementRecord]) -> list[StatementRecord]:
    """Only the events of the three LFP phases (drops setup/answer noise)."""
    wanted = (PHASE_RHS_EVAL, PHASE_TEMP_TABLES, PHASE_TERMINATION)
    return [e for e in trace if e.phase in wanted]
