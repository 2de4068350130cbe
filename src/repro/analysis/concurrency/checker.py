"""Lock-discipline checks over scanned modules.

Consumes the per-module facts of :mod:`repro.analysis.concurrency.scan`
and reports :class:`~repro.analysis.diagnostics.Diagnostic` findings under
the ``CC`` codes:

* **CC001** — an access to a ``# guarded-by:`` attribute without holding
  the named lock (``__init__``/``__post_init__`` are exempt; writes to
  another object's guarded attribute are never allowed from outside).
* **CC002** — an attribute of a thread-shared class written from
  non-lifecycle methods with no consistent lock discipline and no
  annotation.
* **CC003** — a cycle in the global lock-acquisition graph, or a
  non-reentrant lock acquired while already held.
* **CC004** — a blocking call (SQL execute, socket I/O, sleep, snapshot
  copy...) while holding a lock not annotated ``# serializes:``,
  directly or through resolved calls.
* **CC005** — a ``guarded-by`` annotation naming a lock the class (or
  module) does not declare.
* **CC006** *(info)* — an attribute consistently guarded by one lock but
  not annotated; annotating it turns drift into a CC001 error.

A class is **thread-shared** when it declares a lock primitive or one of
its methods is a ``Thread``/``Timer`` target; socketserver plumbing
(request handlers, server classes) is exempt — those are per-request or
framework-managed instances.

Calls are resolved one level deep by construction site
(``self.a = ClassName(...)``), parameter annotation (``db: Database``),
bare module-function name and, for ``f(...).m(...)``, ``f``'s return
annotation, then acquisition and blocking effects propagate
to a fixpoint — so "holds ``Replicator._lock``, calls ``read_version``,
which executes SQL" is visible as a lock-graph edge and a potential
blocking-under-lock site.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diagnostics import Diagnostic, DiagnosticReport, Severity
from . import codes
from .scan import (
    Acquire,
    ClassInfo,
    LockInfo,
    MethodInfo,
    ModuleInfo,
    scan_module,
)

#: A lock's global identity: (module path, owning class or "<module>", attr).
LockUid = tuple[str, str, str]
#: A scanned function's identity: (module path, class or "<module>", method).
UnitKey = tuple[str, str, str]


@dataclass
class _Unit:
    """One scanned function with its resolution context."""

    key: UnitKey
    module: ModuleInfo
    cls: ClassInfo | None
    info: MethodInfo

    @property
    def qualname(self) -> str:
        owner = self.cls.name if self.cls is not None else self.module.path
        return f"{owner}.{self.info.name}"


@dataclass
class _Registry:
    """Cross-module resolution tables."""

    modules: list[ModuleInfo]
    units: dict[UnitKey, _Unit] = field(default_factory=dict)
    classes_by_name: dict[str, list[ClassInfo]] = field(default_factory=dict)
    locks: dict[LockUid, LockInfo] = field(default_factory=dict)

    @classmethod
    def build(cls, modules: list[ModuleInfo]) -> "_Registry":
        registry = cls(modules=modules)
        for module in modules:
            for name, lock in module.locks.items():
                registry.locks[(module.path, "<module>", name)] = lock
            for class_info in module.classes.values():
                registry.classes_by_name.setdefault(
                    class_info.name, []
                ).append(class_info)
                for attr, lock in class_info.locks.items():
                    registry.locks[
                        (module.path, class_info.name, attr)
                    ] = lock
                for method in class_info.methods.values():
                    key = (module.path, class_info.name, method.name)
                    registry.units[key] = _Unit(key, module, class_info, method)
            for function in module.functions.values():
                key = (module.path, "<module>", function.name)
                registry.units[key] = _Unit(key, module, None, function)
        return registry

    def unique_class(self, name: str | None) -> ClassInfo | None:
        if name is None:
            return None
        candidates = self.classes_by_name.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def canonical(
        self, unit: _Unit, ref: tuple[str, str]
    ) -> LockUid | None:
        """Resolve a held-set element to a lock identity, if it is one."""
        space, name = ref
        if space == "self" and unit.cls is not None:
            canonical = unit.cls.canonical_lock(name)
            if canonical is not None:
                return (unit.module.path, unit.cls.name, canonical)
            return None
        if space == "mod" and name in unit.module.locks:
            return (unit.module.path, "<module>", name)
        return None

    def held_locks(
        self, unit: _Unit, held: frozenset[tuple[str, str]]
    ) -> set[LockUid]:
        out = set()
        for ref in held:
            uid = self.canonical(unit, ref)
            if uid is not None:
                out.add(uid)
        return out

    def resolve_call(
        self, unit: _Unit, ref: tuple[str, ...]
    ) -> _Unit | None:
        """One call site -> the scanned unit it lands in (best effort)."""
        kind = ref[0]
        if kind == "self" and unit.cls is not None:
            method = unit.cls.methods.get(ref[1])
            if method is not None:
                return self.units[
                    (unit.module.path, unit.cls.name, method.name)
                ]
            return None
        if kind == "attr" and unit.cls is not None:
            attribute = unit.cls.attributes.get(ref[1])
            target = self.unique_class(
                attribute.value_class if attribute else None
            )
            if target is not None and ref[2] in target.methods:
                return self.units[(target.path, target.name, ref[2])]
            return None
        if kind == "param":
            target = self.unique_class(unit.info.param_types.get(ref[1]))
            if target is not None and ref[2] in target.methods:
                return self.units[(target.path, target.name, ref[2])]
            return None
        if kind == "name":
            name = ref[1]
            nested = f"{unit.info.name}.{name}"
            if unit.cls is not None and nested in unit.cls.methods:
                return self.units[(unit.module.path, unit.cls.name, nested)]
            if unit.cls is None and nested in unit.module.functions:
                return self.units[(unit.module.path, "<module>", nested)]
            if name in unit.module.functions:
                return self.units[(unit.module.path, "<module>", name)]
            candidates = [
                module
                for module in self.modules
                if name in module.functions
            ]
            if len(candidates) == 1:
                return self.units[(candidates[0].path, "<module>", name)]
        if kind == "result":
            inner = self.resolve_call(unit, ref[2:])
            target = self.unique_class(inner.info.returns if inner else None)
            if target is not None and ref[1] in target.methods:
                return self.units[(target.path, target.name, ref[1])]
        return None


def lock_display(uid: LockUid) -> str:
    """``ClassName._lock`` / ``module.py:_GLOBAL_LOCK`` for messages."""
    path, owner, attr = uid
    if owner == "<module>":
        return f"{path}:{attr}"
    return f"{owner}.{attr}"


@dataclass
class _Summaries:
    """Fixpoint call-effect summaries."""

    #: Locks a call into the unit may acquire (directly or transitively).
    acquires: dict[UnitKey, set[LockUid]]
    #: Blocking-call names reachable from the unit, with one witness site.
    blocking: dict[UnitKey, dict[str, tuple[str, int, str]]]
    #: Resolved callees per unit (memoized once, reused by the checks).
    callees: dict[UnitKey, list[tuple[_Unit, int, frozenset]]]


def _summarize(registry: _Registry) -> _Summaries:
    acquires: dict[UnitKey, set[LockUid]] = {}
    blocking: dict[UnitKey, dict[str, tuple[str, int, str]]] = {}
    callees: dict[UnitKey, list[tuple[_Unit, int, frozenset]]] = {}
    for key, unit in registry.units.items():
        own_acquires = set()
        for acquire in unit.info.acquires:
            uid = registry.canonical(unit, acquire.lock)
            if uid is not None:
                own_acquires.add(uid)
        acquires[key] = own_acquires
        blocking[key] = {
            event.name: (unit.module.path, event.line, unit.qualname)
            for event in unit.info.blocking
        }
        resolved = []
        for call in unit.info.calls:
            target = registry.resolve_call(unit, call.ref)
            if target is not None and target.key != key:
                resolved.append((target, call.line, call.held))
        callees[key] = resolved
    changed = True
    while changed:
        changed = False
        for key, unit in registry.units.items():
            for target, _line, _held in callees[key]:
                missing_locks = acquires[target.key] - acquires[key]
                if missing_locks:
                    acquires[key] |= missing_locks
                    changed = True
                for name, site in blocking[target.key].items():
                    if name not in blocking[key]:
                        blocking[key][name] = site
                        changed = True
    return _Summaries(acquires, blocking, callees)


def _check_guarded_attributes(
    registry: _Registry,
) -> list[Diagnostic]:
    """CC001 / CC002 / CC005 / CC006 over every scanned class."""
    out: list[Diagnostic] = []
    for module in registry.modules:
        for cls in module.classes.values():
            out.extend(_check_class_attributes(registry, module, cls))
    out.extend(_check_cross_object_writes(registry))
    return out


def _check_class_attributes(
    registry: _Registry, module: ModuleInfo, cls: ClassInfo
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    guarded: dict[str, LockUid] = {}
    for attr, info in cls.attributes.items():
        if info.guarded_by is None:
            continue
        lock_name = info.guarded_by
        canonical = cls.canonical_lock(lock_name)
        if canonical is not None:
            guarded[attr] = (module.path, cls.name, canonical)
        elif lock_name in module.locks:
            guarded[attr] = (module.path, "<module>", lock_name)
        else:
            out.append(
                Diagnostic(
                    codes.UNKNOWN_LOCK,
                    Severity.ERROR,
                    f"attribute {attr!r} is annotated guarded-by "
                    f"{lock_name!r}, but {cls.name} declares no such lock",
                    predicate=f"{cls.name}.{attr}",
                    path=module.path,
                    line=info.line,
                    hint="declare the lock in __init__ or fix the "
                    "annotation to one of: "
                    + (", ".join(sorted(cls.locks)) or "(none declared)"),
                )
            )
    # CC001: every access to a guarded attribute must hold its lock.
    for method in cls.methods.values():
        if method.name.split(".", 1)[0] in ("__init__", "__post_init__"):
            continue
        for access in method.accesses:
            if access.receiver is not None:
                continue
            lock_uid = guarded.get(access.attr)
            if lock_uid is None:
                continue
            unit = registry.units[(module.path, cls.name, method.name)]
            if lock_uid in registry.held_locks(unit, access.held):
                continue
            verb = "written" if access.write else "read"
            out.append(
                Diagnostic(
                    codes.UNGUARDED_ACCESS,
                    Severity.ERROR,
                    f"{cls.name}.{access.attr} is {verb} in "
                    f"{method.name}() without holding "
                    f"{lock_display(lock_uid)} (its guarded-by lock)",
                    predicate=f"{cls.name}.{access.attr}",
                    path=module.path,
                    line=access.line,
                    hint=f"wrap the access in 'with self."
                    f"{lock_uid[2]}:' or move it into a locked method",
                )
            )
    # CC002 / CC006: infer shared mutable attributes.
    if cls.is_thread_shared:
        out.extend(_infer_shared_attributes(registry, module, cls, guarded))
    return out


def _infer_shared_attributes(
    registry: _Registry,
    module: ModuleInfo,
    cls: ClassInfo,
    guarded: dict[str, LockUid],
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for attr, info in sorted(cls.attributes.items()):
        if (
            attr in guarded
            or info.guarded_by is not None
            or info.not_shared
            or info.synchronized
            or attr in cls.locks
        ):
            continue
        accesses: list[tuple[MethodInfo, object]] = []
        shared_write = False
        for method in cls.methods.values():
            if method.is_lifecycle:
                continue
            for access in method.accesses:
                if access.attr != attr or access.receiver is not None:
                    continue
                accesses.append((method, access))
                shared_write = shared_write or access.write
        if not shared_write:
            continue
        common: set[LockUid] | None = None
        first = None
        for method, access in accesses:
            unit = registry.units[(module.path, cls.name, method.name)]
            held = registry.held_locks(unit, access.held)
            common = held if common is None else (common & held)
            if first is None or access.write and not first[1].write:
                first = (method, access)
        assert first is not None
        if common:
            lock_uid = sorted(common)[0]
            out.append(
                Diagnostic(
                    codes.UNANNOTATED_GUARD,
                    Severity.INFO,
                    f"{cls.name}.{attr} is consistently accessed under "
                    f"{lock_display(lock_uid)} but has no guarded-by "
                    "annotation",
                    predicate=f"{cls.name}.{attr}",
                    path=module.path,
                    line=info.line,
                    hint=f"annotate the initialization with "
                    f"'# guarded-by: {lock_uid[2]}' to lock the "
                    "discipline in",
                )
            )
        else:
            method, access = first
            out.append(
                Diagnostic(
                    codes.UNPROTECTED_SHARED,
                    Severity.ERROR,
                    f"{cls.name}.{attr} is written from thread-reachable "
                    f"method {method.name}() with no consistent lock "
                    "discipline",
                    predicate=f"{cls.name}.{attr}",
                    path=module.path,
                    line=access.line,
                    hint="guard every access with one class lock and "
                    "annotate the attribute '# guarded-by: <lock>', or "
                    "mark it '# not-shared: <why>'",
                )
            )
    return out


def _check_cross_object_writes(registry: _Registry) -> list[Diagnostic]:
    """CC001 for ``self.other.attr = ...`` where ``attr`` is guarded."""
    out: list[Diagnostic] = []
    for unit in registry.units.values():
        if unit.cls is None:
            continue
        if unit.info.name.split(".", 1)[0] in ("__init__", "__post_init__"):
            continue
        for access in unit.info.accesses:
            if access.receiver is None or not access.write:
                continue
            attribute = unit.cls.attributes.get(access.receiver)
            target = registry.unique_class(
                attribute.value_class if attribute else None
            )
            if target is None:
                continue
            target_attr = target.attributes.get(access.attr)
            if target_attr is None or target_attr.guarded_by is None:
                continue
            out.append(
                Diagnostic(
                    codes.UNGUARDED_ACCESS,
                    Severity.ERROR,
                    f"{unit.qualname}() writes {target.name}."
                    f"{access.attr} directly, which is guarded by "
                    f"{target.name}.{target_attr.guarded_by} — callers "
                    "cannot hold another object's lock",
                    predicate=f"{target.name}.{access.attr}",
                    path=unit.module.path,
                    line=access.line,
                    hint=f"add a locked mutator method on {target.name} "
                    "and call that instead",
                )
            )
    return out


def _check_lock_graph(
    registry: _Registry, summaries: _Summaries
) -> list[Diagnostic]:
    """CC003: build the acquisition graph, report self-deadlocks + cycles."""
    out: list[Diagnostic] = []
    edges: dict[LockUid, set[LockUid]] = {}
    witness: dict[tuple[LockUid, LockUid], tuple[str, int, str]] = {}
    self_deadlocks: dict[tuple[LockUid, str], tuple[str, int]] = {}

    def add_edge(
        source: LockUid, dest: LockUid, site: tuple[str, int, str]
    ) -> None:
        if source == dest:
            if registry.locks[dest].kind != "RLock":
                key = (dest, site[2])
                if key not in self_deadlocks:
                    self_deadlocks[key] = (site[0], site[1])
            return
        edges.setdefault(source, set()).add(dest)
        witness.setdefault((source, dest), site)

    for key, unit in registry.units.items():
        for acquire in unit.info.acquires:
            dest = registry.canonical(unit, acquire.lock)
            if dest is None:
                continue
            for source in registry.held_locks(unit, acquire.held):
                add_edge(
                    source,
                    dest,
                    (unit.module.path, acquire.line, unit.qualname),
                )
        for target, line, held in summaries.callees[key]:
            held_uids = registry.held_locks(unit, held)
            if not held_uids:
                continue
            for dest in summaries.acquires[target.key]:
                for source in held_uids:
                    add_edge(
                        source,
                        dest,
                        (unit.module.path, line, unit.qualname),
                    )
    for (lock_uid, qualname), (path, line) in sorted(
        self_deadlocks.items()
    ):
        out.append(
            Diagnostic(
                codes.LOCK_CYCLE,
                Severity.ERROR,
                f"non-reentrant lock {lock_display(lock_uid)} "
                f"({registry.locks[lock_uid].kind}) is re-acquired in "
                f"{qualname}() while already held: guaranteed "
                "self-deadlock",
                predicate=lock_display(lock_uid),
                path=path,
                line=line,
                hint="use threading.RLock, or release before the call",
            )
        )
    for cycle in _cycles(edges):
        start = cycle[0]
        chain = " -> ".join(lock_display(uid) for uid in cycle + (start,))
        site = witness[(cycle[-1], start)]
        out.append(
            Diagnostic(
                codes.LOCK_CYCLE,
                Severity.ERROR,
                f"lock-acquisition cycle: {chain}; two threads taking "
                "these locks in opposite order deadlock",
                predicate=lock_display(start),
                path=site[0],
                line=site[1],
                hint="impose one global lock order and acquire in that "
                "order everywhere",
            )
        )
    return out


def _cycles(
    edges: dict[LockUid, set[LockUid]]
) -> list[tuple[LockUid, ...]]:
    """Strongly connected components with >1 node, as canonical cycles."""
    index = 0
    indices: dict[LockUid, int] = {}
    low: dict[LockUid, int] = {}
    stack: list[LockUid] = []
    on_stack: set[LockUid] = set()
    components: list[list[LockUid]] = []
    nodes = sorted(set(edges) | {d for dests in edges.values() for d in dests})

    def strongconnect(node: LockUid) -> None:
        nonlocal index
        indices[node] = low[node] = index
        index += 1
        stack.append(node)
        on_stack.add(node)
        for dest in sorted(edges.get(node, ())):
            if dest not in indices:
                strongconnect(dest)
                low[node] = min(low[node], low[dest])
            elif dest in on_stack:
                low[node] = min(low[node], indices[dest])
        if low[node] == indices[node]:
            component = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1:
                components.append(component)

    for node in nodes:
        if node not in indices:
            strongconnect(node)
    cycles = []
    for component in components:
        ordered = sorted(component)
        cycles.append(tuple(ordered))
    return sorted(cycles)


def _check_blocking_under_lock(
    registry: _Registry, summaries: _Summaries
) -> list[Diagnostic]:
    """CC004: blocking work while holding a non-serializing lock."""
    findings: dict[tuple[str, int], Diagnostic] = {}
    for key, unit in registry.units.items():
        for event in unit.info.blocking:
            offenders = sorted(
                uid
                for uid in registry.held_locks(unit, event.held)
                if not registry.locks[uid].serializes
            )
            if not offenders:
                continue
            site = (unit.module.path, event.line)
            if site in findings:
                continue
            findings[site] = Diagnostic(
                codes.BLOCKING_UNDER_LOCK,
                Severity.ERROR,
                f"{unit.qualname}() calls blocking {event.name}() while "
                f"holding {lock_display(offenders[0])}: every thread "
                "needing that lock stalls behind the I/O",
                predicate=lock_display(offenders[0]),
                path=unit.module.path,
                line=event.line,
                hint="move the blocking call outside the critical "
                "section, or annotate the lock '# serializes: <why>' if "
                "serializing this work is the point",
            )
        for target, line, held in summaries.callees[key]:
            blocked = summaries.blocking[target.key]
            if not blocked:
                continue
            offenders = sorted(
                uid
                for uid in registry.held_locks(unit, held)
                if not registry.locks[uid].serializes
            )
            if not offenders:
                continue
            site = (unit.module.path, line)
            if site in findings:
                continue
            name, (bpath, bline, bqual) = sorted(blocked.items())[0]
            findings[site] = Diagnostic(
                codes.BLOCKING_UNDER_LOCK,
                Severity.ERROR,
                f"{unit.qualname}() holds {lock_display(offenders[0])} "
                f"across a call to {target.qualname}(), which blocks in "
                f"{name}() ({bpath}:{bline})",
                predicate=lock_display(offenders[0]),
                path=unit.module.path,
                line=line,
                hint="call it outside the critical section, or annotate "
                "the lock '# serializes: <why>' if serializing this work "
                "is the point",
            )
    return [findings[site] for site in sorted(findings)]


def check_modules(modules: list[ModuleInfo]) -> DiagnosticReport:
    """Run every concurrency check over already-scanned modules."""
    registry = _Registry.build(modules)
    diagnostics: list[Diagnostic] = []
    checks = (
        ("attributes", lambda: _check_guarded_attributes(registry)),
        ("lock-graph", None),
        ("blocking", None),
    )
    summaries: _Summaries | None = None
    try:
        summaries = _summarize(registry)
    except Exception as error:  # pragma: no cover - defensive
        diagnostics.append(
            Diagnostic(
                codes.INTERNAL_ERROR,
                Severity.ERROR,
                f"call-summary fixpoint failed: {error}",
            )
        )
    for name, thunk in checks:
        try:
            if thunk is not None:
                diagnostics.extend(thunk())
            elif summaries is not None and name == "lock-graph":
                diagnostics.extend(_check_lock_graph(registry, summaries))
            elif summaries is not None and name == "blocking":
                diagnostics.extend(
                    _check_blocking_under_lock(registry, summaries)
                )
        except Exception as error:  # pragma: no cover - defensive
            diagnostics.append(
                Diagnostic(
                    codes.INTERNAL_ERROR,
                    Severity.ERROR,
                    f"concurrency check {name!r} failed: {error}",
                )
            )
    diagnostics.sort(key=lambda d: d.sort_key)
    return DiagnosticReport(
        tuple(diagnostics), ("concurrency-attributes", "lock-graph", "blocking")
    )


def check_sources(sources: dict[str, str]) -> DiagnosticReport:
    """Scan and check a mapping of path -> source text.

    Raises:
        SyntaxError: when a file does not parse.
    """
    modules = [
        scan_module(path, text) for path, text in sorted(sources.items())
    ]
    return check_modules(modules)


def check_files(paths: list[str]) -> DiagnosticReport:
    """Scan and check files on disk (callers expand directories first).

    Raises:
        OSError: when a file cannot be read.
        SyntaxError: when a file does not parse.
    """
    sources = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            sources[path] = handle.read()
    return check_sources(sources)
