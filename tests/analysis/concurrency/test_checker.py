"""Checker findings (CC001-CC006) on small inline programs."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.concurrency import check_sources
from repro.analysis.concurrency.codes import (
    BLOCKING_UNDER_LOCK,
    LOCK_CYCLE,
    UNANNOTATED_GUARD,
    UNGUARDED_ACCESS,
    UNKNOWN_LOCK,
    UNPROTECTED_SHARED,
)


def check(source: str, path: str = "mod.py"):
    return check_sources({path: textwrap.dedent(source)})


class TestUnguardedAccess:
    SOURCE = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0  # guarded-by: _lock

        def bump(self):
            self._count += 1

        def read(self):
            with self._lock:
                return self._count
    """

    def test_lock_free_write_is_cc001(self):
        # ``+=`` is a read and a write; both accesses are unguarded.
        findings = check(self.SOURCE).by_code(UNGUARDED_ACCESS)
        assert len(findings) == 2
        assert {f.predicate for f in findings} == {"Counter._count"}
        verbs = {("written" if "written" in f.message else "read") for f in findings}
        assert verbs == {"read", "written"}
        assert all("_lock" in f.message for f in findings)

    def test_locked_access_is_clean(self):
        clean = self.SOURCE.replace(
            "            self._count += 1",
            "            with self._lock:\n                self._count += 1",
        )
        assert clean != self.SOURCE
        assert check(clean).by_code(UNGUARDED_ACCESS) == ()

    def test_init_is_exempt(self):
        # The unlocked assignment in __init__ itself never fires.
        report = check(self.SOURCE)
        assert all(f.line != 7 for f in report.by_code(UNGUARDED_ACCESS))

    def test_condition_alias_satisfies_the_guard(self):
        report = check(
            """
            import threading

            class Waiter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition(self._lock)
                    self._ready = False  # guarded-by: _lock

                def signal(self):
                    with self._cond:
                        self._ready = True
                        self._cond.notify_all()
            """
        )
        assert report.by_code(UNGUARDED_ACCESS) == ()

    def test_cross_object_write_is_cc001(self):
        report = check(
            """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.rejected = 0  # guarded-by: _lock

            class Pool:
                def __init__(self):
                    self.stats = Stats()

                def reject(self):
                    self.stats.rejected += 1
            """
        )
        (finding,) = report.by_code(UNGUARDED_ACCESS)
        assert finding.predicate == "Stats.rejected"
        assert "Pool.reject" in finding.message


class TestSharedInference:
    def test_undisciplined_write_is_cc002(self):
        report = check(
            """
            import threading

            class Tally:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def add(self, n):
                    self.total += n
            """
        )
        (finding,) = report.by_code(UNPROTECTED_SHARED)
        assert finding.predicate == "Tally.total"

    def test_consistent_discipline_is_cc006_info(self):
        report = check(
            """
            import threading

            class Tally:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def add(self, n):
                    with self._lock:
                        self.total += n
            """
        )
        assert report.by_code(UNPROTECTED_SHARED) == ()
        (finding,) = report.by_code(UNANNOTATED_GUARD)
        assert finding.severity.value == "info"
        assert "guarded-by: _lock" in (finding.hint or "")

    def test_not_shared_annotation_suppresses(self):
        report = check(
            """
            import threading

            class Tally:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0  # not-shared: single-threaded phase

                def add(self, n):
                    self.total += n
            """
        )
        assert report.by_code(UNPROTECTED_SHARED) == ()
        assert report.by_code(UNANNOTATED_GUARD) == ()

    def test_unshared_class_is_not_inferred(self):
        report = check(
            """
            class Tally:
                def __init__(self):
                    self.total = 0

                def add(self, n):
                    self.total += n
            """
        )
        assert report.diagnostics == ()

    def test_read_only_attribute_is_clean(self):
        report = check(
            """
            import threading

            class Config:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.limit = 8

                def over(self, n):
                    return n > self.limit
            """
        )
        assert report.by_code(UNPROTECTED_SHARED) == ()
        assert report.by_code(UNANNOTATED_GUARD) == ()


class TestUnknownLock:
    def test_cc005_for_missing_lock(self):
        report = check(
            """
            import threading

            class Odd:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.n = 0  # guarded-by: _mutex
            """
        )
        (finding,) = report.by_code(UNKNOWN_LOCK)
        assert "_mutex" in finding.message
        assert "_lock" in (finding.hint or "")


LOCK_ORDER = """
import threading

class OrderAB:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def forward(self):
        with self._a:
            with self._b:
                pass

    def backward(self):
        with self._b:
            with self._a:
                pass
"""


class TestLockGraph:
    def test_ab_ba_cycle_is_cc003(self):
        (finding,) = check(LOCK_ORDER).by_code(LOCK_CYCLE)
        assert "OrderAB._a" in finding.message
        assert "OrderAB._b" in finding.message

    def test_consistent_order_is_clean(self):
        consistent = LOCK_ORDER.replace(
            "        with self._b:\n            with self._a:",
            "        with self._a:\n            with self._b:",
        )
        assert check(consistent).by_code(LOCK_CYCLE) == ()

    def test_nonreentrant_self_acquire_is_cc003(self):
        report = check(
            """
            import threading

            class Nested:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """
        )
        (finding,) = report.by_code(LOCK_CYCLE)
        assert "self-deadlock" in finding.message

    def test_rlock_self_acquire_is_fine(self):
        report = check(
            """
            import threading

            class Nested:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """
        )
        assert report.by_code(LOCK_CYCLE) == ()

    def test_cross_class_cycle_via_calls(self):
        report = check(
            """
            import threading

            class Left:
                def __init__(self):
                    self._lock = threading.Lock()

                def poke(self, other: "Right"):
                    with self._lock:
                        other.grab()

                def grab(self):
                    with self._lock:
                        pass

            class Right:
                def __init__(self):
                    self._lock = threading.Lock()

                def poke(self, other: Left):
                    with self._lock:
                        other.grab()

                def grab(self):
                    with self._lock:
                        pass
            """
        )
        findings = report.by_code(LOCK_CYCLE)
        assert findings, "cross-class AB/BA order should be reported"


class TestBlockingUnderLock:
    def test_sleep_under_lock_is_cc004(self):
        report = check(
            """
            import threading, time

            class Sleeper:
                def __init__(self):
                    self._lock = threading.Lock()

                def nap(self):
                    with self._lock:
                        time.sleep(0.1)
            """
        )
        (finding,) = report.by_code(BLOCKING_UNDER_LOCK)
        assert "sleep" in finding.message
        assert "Sleeper._lock" in finding.message

    def test_serializes_annotation_exempts(self):
        report = check(
            """
            import threading, time

            class Batcher:
                def __init__(self):
                    self._lock = threading.Lock()  # serializes: the point

                def flush(self):
                    with self._lock:
                        time.sleep(0.1)
            """
        )
        assert report.by_code(BLOCKING_UNDER_LOCK) == ()

    def test_transitive_blocking_through_a_call(self):
        report = check(
            """
            import threading, time

            class Store:
                def __init__(self, cursor):
                    self._lock = threading.Lock()
                    self._cursor = cursor

                def save(self, row):
                    with self._lock:
                        self._write(row)

                def _write(self, row):
                    self._cursor.execute("INSERT", row)
            """
        )
        findings = report.by_code(BLOCKING_UNDER_LOCK)
        assert findings
        assert any("execute" in f.message for f in findings)

    def test_blocking_through_a_calls_result(self):
        report = check(
            """
            import threading

            class Client:
                def __init__(self, sock):
                    self._sock = sock

                def ping(self):
                    return self._sock.recv(64)

            class Pool:
                def client(self, name) -> "Client":
                    return Client(None)

            class Scraper:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._pool = Pool()

                def scrape(self):
                    with self._lock:
                        return self._pool.client("a").ping()
            """
        )
        (finding,) = report.by_code(BLOCKING_UNDER_LOCK)
        assert "Client.ping()" in finding.message
        assert "recv" in finding.message

    def test_blocking_outside_lock_is_clean(self):
        report = check(
            """
            import threading, time

            class Sleeper:
                def __init__(self):
                    self._lock = threading.Lock()

                def nap(self):
                    with self._lock:
                        pass
                    time.sleep(0.1)
            """
        )
        assert report.by_code(BLOCKING_UNDER_LOCK) == ()


class TestEngineContract:
    def test_reports_are_sorted_and_deterministic(self):
        source = textwrap.dedent(TestUnguardedAccess.SOURCE) + textwrap.dedent(
            LOCK_ORDER
        )
        first = check_sources({"a.py": source, "b.py": source})
        second = check_sources({"b.py": source, "a.py": source})
        assert first == second
        keys = [d.sort_key for d in first.diagnostics]
        assert keys == sorted(keys)

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            check_sources({"bad.py": "def broken(:\n"})
