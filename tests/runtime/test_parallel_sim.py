"""Unit tests for the parallel-LFP schedule simulator."""

import pytest

from repro.obs.trace import StatementRecord, Tracer
from repro.runtime.context import (
    PHASE_RHS_EVAL,
    PHASE_TEMP_TABLES,
    PHASE_TERMINATION,
)
from repro.runtime.parallel_sim import (
    _lpt_makespan,
    lfp_phase_events,
    simulate_parallel_lfp,
    sweep_workers,
)


def event(phase, kind, seconds):
    return StatementRecord(phase=phase, sql="", kind=kind, seconds=seconds)


def rhs(seconds):
    return event(PHASE_RHS_EVAL, "INSERT", seconds)


def serial(seconds, phase=PHASE_TERMINATION):
    return event(phase, "SELECT", seconds)


class TestLptMakespan:
    def test_single_worker_sums(self):
        assert _lpt_makespan([1.0, 2.0, 3.0], 1) == 6.0

    def test_perfect_split(self):
        assert _lpt_makespan([2.0, 2.0], 2) == 2.0

    def test_imbalanced_jobs(self):
        # LPT puts the 3 alone, then 2+2 on the other worker.
        assert _lpt_makespan([3.0, 2.0, 2.0], 2) == pytest.approx(4.0)

    def test_more_workers_than_jobs(self):
        assert _lpt_makespan([1.0, 2.0], 8) == 2.0

    def test_empty(self):
        assert _lpt_makespan([], 4) == 0.0


class TestSimulate:
    TRACE = [
        serial(1.0, PHASE_TEMP_TABLES),
        rhs(2.0),
        rhs(2.0),
        rhs(2.0),
        rhs(2.0),
        serial(1.0),
    ]

    def test_serial_schedule_is_the_sum(self):
        schedule = simulate_parallel_lfp(self.TRACE, 1)
        assert schedule.total_seconds == pytest.approx(10.0)
        assert schedule.parallel_seconds == pytest.approx(8.0)
        assert schedule.serial_seconds == pytest.approx(2.0)

    def test_parallel_shrinks_rhs_only(self):
        schedule = simulate_parallel_lfp(self.TRACE, 4)
        assert schedule.total_seconds == pytest.approx(4.0)
        assert schedule.serial_seconds == pytest.approx(2.0)
        assert schedule.serial_fraction == pytest.approx(0.5)

    def test_batches_split_by_serial_events(self):
        # Two iterations of 2 RHS statements each cannot be merged into one
        # 4-way batch: the termination check between them is a barrier.
        trace = [rhs(2.0), rhs(2.0), serial(0.0), rhs(2.0), rhs(2.0)]
        schedule = simulate_parallel_lfp(trace, 4)
        assert schedule.total_seconds == pytest.approx(4.0)

    def test_speedup_over(self):
        base = simulate_parallel_lfp(self.TRACE, 1)
        fast = simulate_parallel_lfp(self.TRACE, 4)
        assert fast.speedup_over(base) == pytest.approx(2.5)

    def test_monotone_in_workers(self):
        schedules = sweep_workers(self.TRACE, (1, 2, 3, 4, 8))
        walls = [s.total_seconds for s in schedules]
        assert walls == sorted(walls, reverse=True)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            simulate_parallel_lfp(self.TRACE, 0)

    def test_empty_trace(self):
        schedule = simulate_parallel_lfp([], 4)
        assert schedule.total_seconds == 0.0
        assert schedule.serial_fraction == 0.0


class TestPhaseFilter:
    def test_drops_non_lfp_phases(self):
        trace = [
            event("(none)", "SELECT", 1.0),
            rhs(1.0),
            event("extract", "SELECT", 1.0),
            serial(1.0),
        ]
        kept = lfp_phase_events(trace)
        assert len(kept) == 2
        assert {e.phase for e in kept} == {PHASE_RHS_EVAL, PHASE_TERMINATION}


class TestTraceCapture:
    def test_engine_records_events(self, database):
        tracer = Tracer(capture_plans=False)
        database.set_tracer(tracer)
        with database.phase(PHASE_RHS_EVAL):
            database.execute("SELECT 1")
        database.execute("SELECT 2")
        trace = tracer.statements
        assert len(trace) == 2
        assert trace[0].phase == PHASE_RHS_EVAL
        assert trace[0].kind == "SELECT"
        assert trace[1].phase == "(none)"

    def test_trace_disabled_by_default(self, database):
        database.execute("SELECT 1")
        assert database.tracer is None
        tracer = Tracer(capture_plans=False)
        database.set_tracer(tracer)
        assert tracer.statements == []

    def test_detached_tracer_records_nothing_more(self, database):
        tracer = Tracer(capture_plans=False)
        database.set_tracer(tracer)
        database.execute("SELECT 1")
        database.set_tracer(None)
        database.execute("SELECT 2")
        assert [record.sql for record in tracer.statements] == ["SELECT 1"]
