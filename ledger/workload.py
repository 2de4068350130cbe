"""What every workload provides to the runner.

A workload is a closed loop with zero think time: each connection issues
its next op only when the previous one has returned and been checked.
Ops come in seeded *rounds* — short fixed sequences with the workload's
full op mix.  A run measures ``ROUNDS`` rounds on every connection, so its
op count is fixed and repeats from run to run and from build to build;
``--seconds`` only caps a run that has become much slower, at the end of
the round it is in.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from . import trace

#: Op ids are ``connection * OP_STRIDE + n`` — unique across connections,
#: and what joins client spans to server spans in the traced pass.
OP_STRIDE = 10_000_000


@dataclass
class OpResult:
    """One measured op: the timed interval and whether the answer was right.

    ``requests`` lists, for served workloads, each round trip inside the op
    as ``(seconds observed by the caller, the reply's own seconds or None,
    the reply's cached flag or None)``.
    """

    op: int
    kind: str
    latency: float
    ok: bool
    requests: Sequence[tuple[float, Optional[float], Optional[bool]]] = ()
    #: ``time.perf_counter()`` when the timed interval closed.
    ended: float = 0.0


class Workload:
    """Base class; subclasses fill in inputs, the system and the op."""

    name = ""
    timed_op = ""
    connections = 1
    #: Measured rounds per connection: with the round's length, the fixed op
    #: count of a run.  Sized for ~10 s on the 2-core dev box at the seed.
    ROUNDS = 0
    #: ``"server"`` / ``"cluster"`` when the system runs in a child process.
    child_kind: Optional[str] = None

    def __init__(self, seed: int, workdir: str, traced: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.traced = traced
        self.digest = ""
        self.missing_hooks: list[str] = []
        self._next_op = [0] * self.connections

    def new_op_id(self, connection: int) -> int:
        self._next_op[connection] += 1
        return connection * OP_STRIDE + self._next_op[connection]

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> None:
        """Generate inputs, boot the system, seed the D/KB, warm up."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """One discarded round on every connection, side by side."""
        in_parallel(
            self.connections,
            lambda c: [self.execute(c, op) for op in next(self.rounds(c))],
        )

    def teardown(self) -> dict[str, Any]:
        """Stop the system; returns ``peak_rss_kb`` / ``file_bytes`` /
        ``span_files`` / ``stats`` as far as the workload has them."""
        raise NotImplementedError

    def set_tracing(self, enabled: bool) -> None:
        """Switch span recording on or off in every traced process."""
        trace.RECORDER.enabled = enabled

    def counters(self) -> dict[str, float]:
        """Cumulative counters read through the public ``stats`` op."""
        return {}

    # -- the closed loop ---------------------------------------------------

    def rounds(self, connection: int) -> Iterator[list]:
        """An endless seeded stream of rounds for one connection."""
        raise NotImplementedError

    def execute(self, connection: int, op: Any) -> OpResult:
        """Issue one op, time it, check it against the oracle."""
        raise NotImplementedError


def in_parallel(count: int, action: Callable[[int], Any]) -> None:
    """Run ``action(i)`` for each connection, one thread each; re-raise."""
    if count == 1:
        action(0)
        return
    errors: list[BaseException] = []

    def guarded(index: int) -> None:
        try:
            action(index)
        except BaseException as error:  # re-raised on the calling thread
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def start_op(op_id: int) -> tuple[Any, float]:
    """Open the generator's ``op`` span (traced windows only), start the clock."""
    token = trace.RECORDER.begin_op(op_id) if trace.RECORDER.enabled else None
    return token, time.perf_counter()


def stop_op(token: Any, started: float) -> float:
    """Stop the clock, close the ``op`` span; returns the op's seconds."""
    elapsed = time.perf_counter() - started
    if token is not None:
        trace.RECORDER.end(*token)
        token[0].op = None  # spans outside the timed interval belong to no op
    return elapsed


def finished(op_id: int, kind: str, started: float, latency: float, ok: bool,
             requests: Sequence = ()) -> OpResult:
    """The record of one op (end times give the measured section's wall time)."""
    return OpResult(op_id, kind, latency, ok, requests, started + latency)


def high_water_kb(pid: "int | str" = "self") -> int:
    """``VmHWM`` of a live process in kB: the peak resident set of *this*
    program image (``ru_maxrss`` also remembers the parent's size at fork)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError(f"no VmHWM for process {pid}")


def directory_bytes(path: str) -> int:
    """Bytes of every file under ``path`` (database, WAL and shm files)."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def chunks(items: Sequence, size: int) -> Iterator[list]:
    for start in range(0, len(items), size):
        yield list(items[start:start + size])
