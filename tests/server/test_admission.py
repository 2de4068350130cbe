"""Admission control: slots, bounded waiting, shedding, counters."""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.server import AdmissionController, AdmissionTimeout, ServerBusy


def test_admits_up_to_slots():
    admission = AdmissionController(slots=2, max_waiters=0)
    admission.acquire()
    admission.acquire()
    assert admission.in_use == 2
    admission.release()
    admission.release()
    assert admission.in_use == 0
    assert admission.admitted == 2
    assert admission.peak_in_use == 2


def test_sheds_when_queue_full():
    admission = AdmissionController(slots=1, max_waiters=0)
    admission.acquire()
    with pytest.raises(ServerBusy):
        admission.acquire()
    assert admission.rejected_busy == 1
    admission.release()
    # A slot freed: admission works again.
    admission.acquire()
    admission.release()


def test_times_out_waiting_for_slot():
    admission = AdmissionController(slots=1, max_waiters=4)
    admission.acquire()
    with pytest.raises(AdmissionTimeout):
        admission.acquire(timeout=0.05)
    assert admission.rejected_timeout == 1
    assert admission.waiting == 0
    admission.release()


def test_waiter_admitted_when_slot_frees():
    admission = AdmissionController(slots=1, max_waiters=4)
    admission.acquire()
    admitted = threading.Event()

    def waiter():
        admission.acquire(timeout=5.0)
        admitted.set()
        admission.release()

    thread = threading.Thread(target=waiter)
    thread.start()
    assert not admitted.wait(0.05)  # still held
    admission.release()
    assert admitted.wait(5.0)
    thread.join()
    assert admission.admitted == 2


def test_admit_context_manager_releases_on_error():
    admission = AdmissionController(slots=1, max_waiters=0)
    with pytest.raises(RuntimeError):
        with admission.admit():
            assert admission.in_use == 1
            raise RuntimeError("boom")
    assert admission.in_use == 0


def test_release_without_acquire_is_an_error():
    admission = AdmissionController(slots=1)
    with pytest.raises(RuntimeError):
        admission.release()


def test_snapshot_shape():
    admission = AdmissionController(slots=3, max_waiters=7)
    with admission.admit():
        snapshot = admission.snapshot()
    assert snapshot["slots"] == 3
    assert snapshot["max_waiters"] == 7
    assert snapshot["admitted"] == 1
    assert snapshot["in_use"] == 0 or snapshot["in_use"] == 1


def test_invalid_construction():
    with pytest.raises(ValueError):
        AdmissionController(slots=0)
    with pytest.raises(ValueError):
        AdmissionController(slots=1, max_waiters=-1)


def test_outcomes_are_mirrored_into_the_registry():
    metrics = MetricsRegistry()
    admission = AdmissionController(slots=1, max_waiters=0, metrics=metrics)
    admission.acquire()
    with pytest.raises(ServerBusy):
        admission.acquire()
    admission.release()
    counters = metrics.snapshot()["counters"]
    assert counters["server.admission.admitted"] == 1
    assert counters["server.admission.rejected_busy"] == 1
    assert "server.admission.rejected_timeout" not in counters


def test_external_timeout_counts_in_both_places():
    metrics = MetricsRegistry()
    admission = AdmissionController(slots=1, metrics=metrics)
    admission.record_rejected_timeout()
    assert admission.snapshot()["rejected_timeout"] == 1
    assert metrics.counter("server.admission.rejected_timeout").value == 1
