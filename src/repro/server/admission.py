"""Admission control: bounded concurrency with load shedding.

The server must degrade predictably under overload: a request that cannot
get a session slot either waits in a *bounded* queue or is shed immediately
with a ``SERVER_BUSY`` reply — never queued without bound.  The controller
is a counting semaphore with an explicit waiter cap and per-acquire
timeout, plus the counters the service exports through ``stats``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from ..obs.metrics import MetricsRegistry
from .protocol import ErrorCode


class AdmissionError(Exception):
    """A request the controller refused; carries the protocol error code."""

    code = ErrorCode.INTERNAL


class ServerBusy(AdmissionError):
    """All slots taken and the wait queue is full: shed the request."""

    code = ErrorCode.SERVER_BUSY


class AdmissionTimeout(AdmissionError):
    """The request waited its full time budget without getting a slot."""

    code = ErrorCode.TIMEOUT


class AdmissionController:
    """``slots`` concurrent holders, at most ``max_waiters`` queued behind.

    ``acquire`` admits immediately when a slot is free; otherwise it joins
    the wait queue unless the queue is full (``ServerBusy``) and waits up
    to ``timeout`` seconds (``AdmissionTimeout``).  Fairness follows the
    condition variable's wakeup order — good enough for a testbed service.
    """

    def __init__(
        self,
        slots: int,
        max_waiters: int = 16,
        default_timeout: float | None = 30.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        if max_waiters < 0:
            raise ValueError(f"max_waiters must be >= 0, got {max_waiters}")
        self.slots = slots  # not-shared: fixed at construction
        self.max_waiters = max_waiters  # not-shared: fixed at construction
        self.default_timeout = default_timeout
        # Mirror the outcome counters into the shared registry at the
        # moment they happen, so the /metrics exporter sees admission
        # decisions (shed rate in particular) without bespoke plumbing.
        self._metrics = metrics
        self._lock = threading.Lock()
        self._free = threading.Condition(self._lock)
        self._in_use = 0  # guarded-by: _lock
        self._waiting = 0  # guarded-by: _lock
        self.admitted = 0  # guarded-by: _lock
        self.rejected_busy = 0  # guarded-by: _lock
        self.rejected_timeout = 0  # guarded-by: _lock
        self.peak_in_use = 0  # guarded-by: _lock

    def _count(self, name: str) -> None:
        """Bump one mirrored ``server.admission.*`` counter (if wired)."""
        if self._metrics is not None:
            self._metrics.counter(name).inc()

    @property
    def in_use(self) -> int:
        """Slots currently held."""
        with self._lock:
            return self._in_use

    @property
    def waiting(self) -> int:
        """Requests currently queued for a slot."""
        with self._lock:
            return self._waiting

    def acquire(self, timeout: float | None = None) -> None:
        """Take one slot, waiting in the bounded queue if necessary.

        Args:
            timeout: seconds to wait for a slot; ``None`` uses the
                controller's default (which may itself be ``None`` =
                unbounded wait).

        Raises:
            ServerBusy: no slot free and the wait queue is full.
            AdmissionTimeout: no slot freed up within the time budget.
        """
        if timeout is None:
            timeout = self.default_timeout
        with self._lock:
            if self._in_use >= self.slots:
                if self._waiting >= self.max_waiters:
                    self.rejected_busy += 1
                    self._count("server.admission.rejected_busy")
                    raise ServerBusy(
                        f"all {self.slots} session slots busy and "
                        f"{self._waiting} requests already queued"
                    )
                self._waiting += 1
                deadline = (
                    None if timeout is None else time.monotonic() + timeout
                )
                try:
                    while self._in_use >= self.slots:
                        remaining = (
                            None
                            if deadline is None
                            else deadline - time.monotonic()
                        )
                        if remaining is not None and remaining <= 0:
                            self.rejected_timeout += 1
                            self._count("server.admission.rejected_timeout")
                            raise AdmissionTimeout(
                                f"no session slot freed within {timeout:.3f}s"
                            )
                        self._free.wait(remaining)
                finally:
                    self._waiting -= 1
            self._in_use += 1
            self.admitted += 1
            self._count("server.admission.admitted")
            self.peak_in_use = max(self.peak_in_use, self._in_use)

    def release(self) -> None:
        """Return one slot and wake a waiter."""
        with self._lock:
            if self._in_use <= 0:
                raise RuntimeError("release without a matching acquire")
            self._in_use -= 1
            self._free.notify()

    def record_rejected_timeout(self) -> None:
        """Count a timeout enforced outside the controller.

        The session pool's write path waits on its own writer lock; when
        that wait times out the rejection still belongs in these counters,
        so it lands here rather than poking the guarded attribute from
        another class.
        """
        with self._lock:
            self.rejected_timeout += 1
            self._count("server.admission.rejected_timeout")

    @contextmanager
    def admit(self, timeout: float | None = None) -> Iterator[None]:
        """``with`` form of acquire/release."""
        self.acquire(timeout)
        try:
            yield
        finally:
            self.release()

    def snapshot(self) -> dict[str, int | float | None]:
        """JSON-friendly counters for the ``stats`` op."""
        with self._lock:
            return {
                "slots": self.slots,
                "max_waiters": self.max_waiters,
                "in_use": self._in_use,
                "waiting": self._waiting,
                "admitted": self.admitted,
                "rejected_busy": self.rejected_busy,
                "rejected_timeout": self.rejected_timeout,
                "peak_in_use": self.peak_in_use,
            }
