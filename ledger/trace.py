"""The traced pass: spans recorded from here, around each layer's boundary.

Nothing in ``src/`` is edited.  :func:`install` replaces each target named
in :data:`HOOKS` with a wrapper that records a span (name, start, end,
parent, op id) while the process's :class:`Recorder` is enabled, and calls
straight through while it is not.  A target that no longer resolves is
reported, not fatal: its metrics come out as ``null`` and its name lands
under ``missing_hooks``, so internals can move without breaking the
untraced benchmark.

Timestamps are ``time.perf_counter_ns()`` — ``CLOCK_MONOTONIC`` on Linux,
one clock for every process on the box — so spans recorded in the
generator, a server child and its shard processes share a timeline.
"""

from __future__ import annotations

import importlib
import json
import mmap
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

_now = time.perf_counter_ns

# A span is a mutable list so the wrapper can fill ``end`` in place:
#   [name, start_ns, end_ns, parent_index, op, attrs]
# ``parent_index`` indexes the same thread's span list (-1 for a root);
# ``attrs`` is ``None`` or a dict of counts read at the same boundary.
NAME, START, END, PARENT, OP, ATTRS = range(6)


class _ThreadState:
    """One thread's open-span stack and finished spans."""

    __slots__ = ("spans", "top", "op")

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.top = -1
        self.op: Any = None


class Recorder:
    """Per-process span store; spans stay in memory until :meth:`dump`."""

    def __init__(self) -> None:
        # One anonymous shared page: processes forked from this one (the
        # cluster's shards) see the flag flip without any message.
        self._flag = mmap.mmap(-1, 1)
        self._local = threading.local()
        self._threads: dict[int, _ThreadState] = {}
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self._flag[0] == 1

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._flag[0] = 1 if value else 0

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads[threading.get_ident()] = state
        return state

    def begin_op(self, op: Any) -> tuple[_ThreadState, list, int]:
        """Open the generator's ``op`` span; spans under it carry ``op``."""
        self.state().op = op
        return self.begin("op")

    def begin(self, name: str) -> tuple[_ThreadState, list, int]:
        state = self.state()
        span = [name, 0, 0, state.top, state.op, None]
        state.spans.append(span)
        previous = state.top
        state.top = len(state.spans) - 1
        span[START] = _now()
        return state, span, previous

    @staticmethod
    def end(state: _ThreadState, span: list, previous: int) -> None:
        span[END] = _now()
        state.top = previous

    def clear(self) -> None:
        """Forget every span recorded so far (a new traced run starts)."""
        with self._lock:
            for state in self._threads.values():
                state.spans.clear()
                state.top = -1

    def threads(self) -> dict[int, list[list]]:
        with self._lock:
            return {tid: state.spans for tid, state in self._threads.items()}

    def dump(self, path: str, role: str) -> None:
        """Write every span of this process to ``path`` (JSON)."""
        payload = {
            "pid": os.getpid(),
            "role": role,
            "threads": {str(tid): spans for tid, spans in self.threads().items()},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"), default=str)


#: The process-wide recorder the installed wrappers write to.
RECORDER = Recorder()


# -- probes: counts read from arguments / return values at the boundary ------


def _attrs(span: list) -> dict:
    if span[ATTRS] is None:
        span[ATTRS] = {}
    return span[ATTRS]


def _probe_decode_sets_op(state, span, args, kwargs, result) -> None:
    """A server-side decode starts a request: its ``id`` names the op."""
    if isinstance(result, dict):
        state.op = span[OP] = result.get("id")


def _probe_compile(state, span, args, kwargs, result) -> None:
    timings = result.timings.as_dict()
    timings.pop("total", None)
    attrs = _attrs(span)
    attrs["phases"] = timings
    attrs["relevant_rules"] = result.counts.get("relevant_rules")


def _probe_update(state, span, args, kwargs, result) -> None:
    timings = result.timings.as_dict()
    timings.pop("total", None)
    _attrs(span)["phases"] = timings


def _probe_execute(state, span, args, kwargs, result) -> None:
    attrs = _attrs(span)
    attrs["iterations"] = result.total_iterations
    attrs["tuples"] = sum(result.tuples_by_predicate.values())


def _probe_answer_rows(state, span, args, kwargs, result) -> None:
    _attrs(span)["answer_rows"] = len(result.rows)


def _probe_sql(state, span, args, kwargs, result) -> None:
    if isinstance(result, list):
        _attrs(span)["fetched"] = len(result)


def _probe_request(state, span, args, kwargs, result) -> None:
    attrs = _attrs(span)
    attrs["rid"] = result.get("id")
    if "seconds" in result:
        attrs["seconds"] = result["seconds"]


def _probe_dispatch(state, span, args, kwargs, result) -> None:
    message = args[1] if len(args) > 1 else kwargs.get("message", {})
    attrs = _attrs(span)
    attrs["request"] = message.get("op")
    if "count" in result and message.get("op") == "query":
        attrs["answer_rows"] = result["count"]


def _count_statement(state, args, kwargs) -> None:
    """``Statistics.record(kind, seconds, fetched, changed, cache_hit)``:
    fold the statement's counts into the enclosing ``dbms.sql`` span."""
    if state.top < 0:
        return
    span = state.spans[state.top]
    if span[NAME] != "dbms.sql":
        return
    values = list(args[1:]) + [None] * 5
    attrs = _attrs(span)
    attrs["kind"] = kwargs.get("kind", values[0])
    attrs["changed"] = kwargs.get("changed", values[3]) or 0
    hit = kwargs.get("cache_hit", values[4])
    if hit is not None:
        attrs["cache_hit"] = bool(hit)


# -- the hook table ----------------------------------------------------------


@dataclass(frozen=True)
class Hook:
    """One layer boundary: the span it records and where the call lives.

    ``targets`` are ``module:attribute.path`` names — a function is patched
    under the name its *caller* looks it up by, so a ``from x import f``
    binding in the calling module is listed as that module's attribute.
    ``kind`` is ``call`` (span around the call), ``context`` (the call
    returns a context manager: span from call to exit, plus a
    ``<span>.wait`` child from call until the block is entered),
    ``count`` (no span; ``probe`` folds counts into the enclosing span) or
    ``after`` (no span; ``probe()`` runs once the call has returned).
    """

    span: str
    targets: tuple[str, ...]
    kind: str = "call"
    probe: Optional[Callable] = None


HOOKS: tuple[Hook, ...] = (
    Hook(
        "datalog.parse",
        (
            "repro.km.compiler:parse_query",
            "repro.km.session:parse_query",
            "repro.km.session:parse_program",
            "repro.server.cache:parse_query",
            "repro.cluster.partition:parse_query",
            "repro.cluster.router:parse_program",
        ),
    ),
    Hook("km.session.query", ("repro.km.session:Testbed.query",), probe=_probe_answer_rows),
    Hook("km.session.define", ("repro.km.session:Testbed.define",)),
    Hook("km.session.update", ("repro.km.session:Testbed.update_stored_dkb",)),
    Hook("km.session.load_facts", ("repro.km.session:Testbed.load_facts",)),
    Hook("km.session.delete_facts", ("repro.km.session:Testbed.delete_facts",)),
    Hook("km.compile", ("repro.km.compiler:QueryCompiler.compile",), probe=_probe_compile),
    Hook("km.update", ("repro.km.session:update_stored_dkb",), probe=_probe_update),
    Hook("runtime.execute", ("repro.runtime.program:QueryProgram.execute",), probe=_probe_execute),
    Hook(
        "dbms.sql",
        ("repro.dbms.engine:Database.execute", "repro.dbms.engine:Database.executemany"),
        probe=_probe_sql,
    ),
    Hook("dbms.sql", ("repro.dbms.engine:Statistics.record",), kind="count", probe=_count_statement),
    Hook("maintenance.insert", ("repro.km.session:propagate_inserts",)),
    Hook(
        "maintenance.delete",
        (
            "repro.maintenance.dred:DeleteMaintenance.overdelete",
            "repro.maintenance.dred:DeleteMaintenance.apply_and_rederive",
        ),
    ),
    Hook("maintenance.refresh", ("repro.km.session:full_refresh",)),
    Hook("maintenance.view_answer", ("repro.km.session:Testbed._answer_from_views",)),
    Hook(
        "server.protocol.decode",
        ("repro.server.service:decode_line", "repro.cluster.router:decode_line"),
        probe=_probe_decode_sets_op,
    ),
    Hook("server.protocol.decode", ("repro.server.client:decode_line",)),
    Hook(
        "server.protocol.encode",
        (
            "repro.server.service:encode_message",
            "repro.cluster.router:encode_message",
            "repro.server.client:encode_message",
        ),
    ),
    Hook("server.admission.acquire", ("repro.server.admission:AdmissionController.acquire",)),
    Hook("server.cache.get", ("repro.server.cache:VersionedResultCache.get",)),
    Hook("server.cache.put", ("repro.server.cache:VersionedResultCache.put",)),
    Hook("server.pool.write", ("repro.server.pool:SessionPool.write",), kind="context"),
    Hook("server.read", ("repro.server.pool:ReaderSession.query",)),
    Hook("server.dispatch", ("repro.server.service:DkbServer.dispatch",), probe=_probe_dispatch),
    Hook("cluster.dispatch", ("repro.cluster.router:ClusterRouter.dispatch",), probe=_probe_dispatch),
    Hook("client.request", ("repro.server.client:DkbClient.request",), probe=_probe_request),
    Hook("cluster.merge", ("repro.cluster.router:merge_rows",)),
)


def _wrap_call(function: Callable, name: str, probe: Optional[Callable]) -> Callable:
    recorder = RECORDER
    flag = recorder._flag

    def traced(*args: Any, **kwargs: Any) -> Any:
        if not flag[0]:
            return function(*args, **kwargs)
        state, span, previous = recorder.begin(name)
        try:
            result = function(*args, **kwargs)
        except BaseException:
            recorder.end(state, span, previous)
            raise
        recorder.end(state, span, previous)
        if probe is not None:
            try:
                probe(state, span, args, kwargs, result)
            except Exception:  # the result's shape moved: keep the span, drop the counts
                _attrs(span)["probe_failed"] = True
        return result

    traced.__wrapped__ = function  # type: ignore[attr-defined]
    traced.__name__ = getattr(function, "__name__", name)
    return traced


class _TracedContext:
    """Span over a context manager's whole life, with its wait as a child."""

    def __init__(self, inner: Any, state: _ThreadState, span: list, previous: int, name: str):
        self._inner = inner
        self._state = state
        self._span = span
        self._previous = previous
        self._name = name

    def __enter__(self) -> Any:
        state, wait, previous = RECORDER.begin(self._name + ".wait")
        wait[START] = self._span[START]
        try:
            return self._inner.__enter__()
        finally:
            RECORDER.end(state, wait, previous)

    def __exit__(self, *exc_info: Any) -> Any:
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            RECORDER.end(self._state, self._span, self._previous)


def _wrap_context(function: Callable, name: str) -> Callable:
    recorder = RECORDER
    flag = recorder._flag

    def traced(*args: Any, **kwargs: Any) -> Any:
        if not flag[0]:
            return function(*args, **kwargs)
        state, span, previous = recorder.begin(name)
        try:
            inner = function(*args, **kwargs)
        except BaseException:
            recorder.end(state, span, previous)
            raise
        return _TracedContext(inner, state, span, previous, name)

    traced.__wrapped__ = function  # type: ignore[attr-defined]
    return traced


def _wrap_count(function: Callable, probe: Callable) -> Callable:
    recorder = RECORDER
    flag = recorder._flag

    def counted(*args: Any, **kwargs: Any) -> Any:
        if flag[0]:
            try:
                probe(recorder.state(), args, kwargs)
            except Exception:
                pass
        return function(*args, **kwargs)

    counted.__wrapped__ = function  # type: ignore[attr-defined]
    return counted


def _wrap_after(function: Callable, then: Callable[[], Any]) -> Callable:
    def followed(*args: Any, **kwargs: Any) -> Any:
        try:
            return function(*args, **kwargs)
        finally:
            then()

    followed.__wrapped__ = function  # type: ignore[attr-defined]
    return followed


def _resolve(target: str) -> tuple[Any, str]:
    """``module:a.b`` -> (the object owning ``b``, ``"b"``); raises if gone."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if not callable(getattr(owner, leaf)):
        raise AttributeError(f"{target} is not callable")
    return owner, leaf


def install(hooks: Sequence[Hook] = HOOKS) -> list[str]:
    """Patch every resolvable target; return the targets that are gone.

    Idempotent: a target already wrapped is left alone.
    """
    missing: list[str] = []
    for hook in hooks:
        for target in hook.targets:
            try:
                owner, leaf = _resolve(target)
            except (ImportError, AttributeError):
                missing.append(target)
                continue
            function = getattr(owner, leaf)
            if getattr(function, "_ledger", False):
                continue
            if hook.kind == "context":
                wrapper = _wrap_context(function, hook.span)
            elif hook.kind == "count":
                assert hook.probe is not None
                wrapper = _wrap_count(function, hook.probe)
            elif hook.kind == "after":
                assert hook.probe is not None
                wrapper = _wrap_after(function, hook.probe)
            else:
                wrapper = _wrap_call(function, hook.span, hook.probe)
            wrapper._ledger = True  # type: ignore[attr-defined]
            setattr(owner, leaf, wrapper)
    return missing


def spans_missing(missing: Iterable[str], hooks: Sequence[Hook] = HOOKS) -> set[str]:
    """Span names none of whose targets resolved (their metrics are null)."""
    gone = set(missing)
    by_span: dict[str, list[bool]] = {}
    for hook in hooks:
        if hook.kind in ("count", "after"):
            continue
        for target in hook.targets:
            by_span.setdefault(hook.span, []).append(target in gone)
    return {span for span, flags in by_span.items() if all(flags)}


# -- span arithmetic ---------------------------------------------------------


def self_times(spans: Sequence[Sequence]) -> list[int]:
    """Per span: its duration minus the part its child spans cover.

    ``spans`` is one thread's list; children of a span run one after the
    other inside it, so the covered part is the sum of their durations.
    """
    own = [max(span[END] - span[START], 0) for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0 and span[END]:  # a span still open at the end covers nothing
            own[parent] -= span[END] - span[START]
    return own


def chrome_events(processes: Iterable[dict], limit: int = 200_000) -> list[dict]:
    """Chrome ``trace_event`` complete events for the dumped processes."""
    events: list[dict] = []
    for process in processes:
        pid = process["pid"]
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "args": {"name": process["role"]}}
        )
        for tid, spans in process["threads"].items():
            for span in spans:
                if not span[END]:
                    continue
                if len(events) >= limit:
                    return events
                args = dict(span[ATTRS] or {})
                args["op"] = span[OP]
                events.append(
                    {
                        "ph": "X",
                        "name": span[NAME],
                        "cat": span[NAME].split(".")[0],
                        "pid": pid,
                        "tid": int(tid),
                        "ts": span[START] / 1000.0,
                        "dur": (span[END] - span[START]) / 1000.0,
                        "args": args,
                    }
                )
    return events
