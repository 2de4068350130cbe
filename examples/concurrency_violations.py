"""Seeded lock-discipline violations for the concurrency checker.

Never imported by the testbed — this file exists so CI can prove
``python -m repro lint-concurrency`` still catches each violation class
(a negative test: the run must exit 1 and report CC001, CC002, CC003 and
CC004).  Every block below is a distilled version of a real bug the
checker is designed to stop from re-entering the server/cluster code.
"""

import threading
import time


class UnguardedCounter:
    """CC001 (annotated attribute touched lock-free) + CC002 (no discipline)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0  # guarded-by: _lock
        self._total = 0

    def bump(self) -> None:
        # CC001: guarded attribute written without holding _lock.
        self._count += 1
        # CC002: shared attribute with no lock discipline at all.
        self._total += 1

    def snapshot(self) -> tuple[int, int]:
        with self._lock:
            return self._count, self._total


class OrderAB:
    """CC003: two locks taken in opposite orders on different paths."""

    def __init__(self) -> None:
        self._a = threading.Lock()
        self._b = threading.Lock()
        self.forward = 0  # guarded-by: _a
        self.backward = 0  # guarded-by: _b

    def ab(self) -> None:
        with self._a:
            with self._b:
                self.forward += 1

    def ba(self) -> None:
        with self._b:
            with self._a:
                self.backward += 1


class SleepUnderLock:
    """CC004: SQL and sleeping inside a critical section."""

    def __init__(self, cursor) -> None:
        self._lock = threading.Lock()
        self._cursor = cursor

    def slow_query(self) -> list:
        with self._lock:
            # CC004: every other thread needing _lock stalls behind the
            # query and the sleep.
            self._cursor.execute("SELECT 1")
            time.sleep(0.05)
            return self._cursor.fetchall()


class Connection:
    def __init__(self, sock) -> None:
        self._sock = sock

    def ping(self) -> bytes:
        self._sock.sendall(b"ping\n")
        return self._sock.recv(64)


class Connections:
    def __init__(self, sock) -> None:
        self._sock = sock

    def client(self, name: str) -> Connection:
        return Connection(self._sock)


class PingUnderLock:
    """CC004 reached through a call's result: ``client()`` returns a
    ``Connection`` whose ``ping`` does socket I/O."""

    def __init__(self, sock) -> None:
        self._lock = threading.Lock()
        self._connections = Connections(sock)

    def scrape(self) -> bytes:
        with self._lock:
            # CC004: a slow backend stalls every thread needing _lock.
            return self._connections.client("a").ping()
