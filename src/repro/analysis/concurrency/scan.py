"""AST scan: extract the lock-discipline facts of one Python module.

The scanner turns a source file into a :class:`ModuleInfo` — classes with
their declared locks, attributes (and ``# guarded-by:`` / ``# not-shared:``
/ ``# serializes:`` annotations), and per-method event streams: attribute
accesses, calls, blocking operations and lock acquisitions, each tagged
with the set of locks *held* at that point.  The checker
(:mod:`repro.analysis.concurrency.checker`) consumes these facts; nothing
here decides whether anything is wrong.

Held-lock tracking is flow-sensitive at statement granularity:

* ``with self._lock:`` (and multi-item ``with``) holds for the body;
* statement-level ``self._lock.acquire(...)`` — bare or assigned, as in
  ``got = self._lock.acquire(timeout=t)`` — holds until a statement-level
  ``self._lock.release()``;
* ``try`` bodies, handlers, ``else`` and ``finally`` are walked
  sequentially, so an acquire in the body pairs with a release in
  ``finally``;
* ``if`` branches are walked independently and their exit states
  intersected (a release on one branch only counts if every branch
  releases).

``threading.Condition(self._lock)`` aliases the condition attribute to the
underlying lock, so holding either name counts as holding the lock.

Annotations are trailing comments on the initializing assignment::

    self._watermark = -1          # guarded-by: _lock
    self._lock = threading.Lock() # serializes: snapshot copy is the point
    self._tracer = None           # not-shared: set before threads start

Nested function definitions become pseudo-methods named
``outer.inner`` and are scanned with an *empty* held set — they run later,
typically on another thread (``threading.Thread(target=inner)``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

#: Trailing-comment annotations the scanner honours.
ANNOTATION_RE = re.compile(
    r"#\s*(guarded-by|not-shared|serializes)\s*:\s*([^\n#]+)"
)

#: threading factories whose result is a lock-like primitive.
LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: threading/queue factories that are internally synchronized — mutating
#: them from several threads is their job, so they are exempt from
#: shared-attribute inference.
SYNCHRONIZED_FACTORIES = frozenset(
    {"Event", "Queue", "SimpleQueue", "LifoQueue", "PriorityQueue", "Barrier"}
)

#: Method names that almost certainly block (I/O, SQL, sleeping).  ``wait``
#: is deliberately absent: ``Condition.wait`` releases its lock.  ``get``
#: and ``put`` only count when the receiver is a known ``Queue`` attribute
#: (``dict.get`` is everywhere).  ``join`` is absent (``os.path.join``).
BLOCKING_CALLS = frozenset(
    {
        "accept",
        "commit",
        "connect",
        "execute",
        "executemany",
        "executescript",
        "poll",
        "read",
        "readline",
        "recv",
        "recv_into",
        "request",
        "rollback",
        "select",
        "send",
        "sendall",
        "serve_forever",
        "sleep",
        "snapshot_to",
    }
)

#: Queue methods that block only when the receiver really is a queue.
QUEUE_BLOCKING_CALLS = frozenset({"get", "put"})

#: Container methods that mutate their receiver — calling one on a guarded
#: attribute is a *write* to that attribute.
MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

#: Methods that run before the object is shared or while tearing it down;
#: writes from these do not make an attribute "shared mutable".
LIFECYCLE_METHODS = frozenset(
    {
        "__init__",
        "__post_init__",
        "__enter__",
        "__exit__",
        "__del__",
        "close",
        "finish",
        "setup",
        "shutdown",
        "start",
        "stop",
    }
)

#: Base-class name fragments marking socketserver plumbing: one instance
#: per request/thread, so their attributes are not cross-thread shared.
EXEMPT_BASE_FRAGMENTS = ("RequestHandler", "TCPServer", "UDPServer", "BaseServer")

#: A lock as held-set element: ("self", attr) or ("mod", global name).
LockRef = tuple[str, str]


@dataclass
class LockInfo:
    """One lock-like attribute (or module global) and how it is declared."""

    name: str
    kind: str  # Lock | RLock | Condition | Semaphore | BoundedSemaphore
    line: int
    serializes: bool = False
    #: For ``Condition(self._x)``: the underlying lock attribute name.
    aliases: str | None = None


@dataclass
class AttributeInfo:
    """One instance attribute and its annotation, from first assignment."""

    name: str
    line: int
    guarded_by: str | None = None
    not_shared: bool = False
    #: Class name of the assigned value when it was ``Name(...)`` — used to
    #: resolve ``self.attr.method()`` calls across classes.
    value_class: str | None = None
    #: The factory was internally synchronized (Event, Queue, ...).
    synchronized: bool = False


@dataclass
class Access:
    """One read or write of ``self.attr`` (or ``self.receiver.attr``)."""

    attr: str
    line: int
    write: bool
    held: frozenset[LockRef]
    #: Set for cross-object accesses ``self.<receiver>.<attr>``.
    receiver: str | None = None


@dataclass
class CallSite:
    """A call the checker may resolve to another scanned method.

    ``ref`` is ``("self", m)``, ``("attr", a, m)``, ``("param", p, m)``,
    ``("name", f)``, or ``("result", m, *inner)`` for ``m`` called on the
    value another call (``inner``, one of the other forms) returns.
    """

    ref: tuple[str, ...]
    line: int
    held: frozenset[LockRef]


@dataclass
class BlockingCall:
    """A call matching the blocking-name heuristics."""

    name: str
    line: int
    held: frozenset[LockRef]


@dataclass
class Acquire:
    """A lock acquisition and the locks already held when it happens."""

    lock: LockRef
    line: int
    held: frozenset[LockRef]


@dataclass
class MethodInfo:
    """Everything observed inside one function body."""

    name: str
    line: int
    accesses: list[Access] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    blocking: list[BlockingCall] = field(default_factory=list)
    acquires: list[Acquire] = field(default_factory=list)
    #: Parameter name -> annotated class name, for cross-class resolution.
    param_types: dict[str, str] = field(default_factory=dict)
    #: The class named by the return annotation, if any.
    returns: str | None = None

    @property
    def is_lifecycle(self) -> bool:
        """Whether writes here count as pre/post-sharing initialization."""
        base = self.name.split(".", 1)[0]
        return base in LIFECYCLE_METHODS


@dataclass
class ClassInfo:
    """One scanned class: locks, attributes, methods, thread entries."""

    name: str
    path: str
    line: int
    bases: list[str] = field(default_factory=list)
    locks: dict[str, LockInfo] = field(default_factory=dict)
    attributes: dict[str, AttributeInfo] = field(default_factory=dict)
    methods: dict[str, MethodInfo] = field(default_factory=dict)
    #: Method names handed to ``Thread``/``Timer`` as targets (includes
    #: ``outer.inner`` pseudo-methods).
    thread_targets: set[str] = field(default_factory=set)

    @property
    def is_exempt(self) -> bool:
        """socketserver plumbing: per-request instances, not shared state."""
        return any(
            fragment in base
            for base in self.bases
            for fragment in EXEMPT_BASE_FRAGMENTS
        )

    @property
    def is_thread_shared(self) -> bool:
        """Instances are reached by more than one thread.

        Heuristic: the class declares a lock primitive (why else?) or one
        of its methods is a ``Thread``/``Timer`` target.  Exempt
        socketserver plumbing never counts.
        """
        if self.is_exempt:
            return False
        return bool(self.locks) or bool(self.thread_targets)

    def canonical_lock(self, name: str) -> str | None:
        """Resolve ``name`` through Condition aliasing to the real lock."""
        info = self.locks.get(name)
        if info is None:
            return None
        if info.aliases is not None and info.aliases in self.locks:
            return info.aliases
        return name


@dataclass
class ModuleInfo:
    """One scanned source file."""

    path: str
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, MethodInfo] = field(default_factory=dict)
    locks: dict[str, LockInfo] = field(default_factory=dict)


def _annotation_for(lines: list[str], node: ast.stmt) -> tuple[str, str] | None:
    """The trailing annotation of ``node``, if any (checks first/last line)."""
    for lineno in {node.lineno, getattr(node, "end_lineno", node.lineno)}:
        if lineno is None or lineno > len(lines):
            continue
        match = ANNOTATION_RE.search(lines[lineno - 1])
        if match:
            return match.group(1), match.group(2).strip()
    return None


def _call_factory(node: ast.expr) -> str | None:
    """The bare factory name of a ``Call`` value (``threading.Lock`` -> Lock)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _annotation_class(node: ast.expr | None) -> str | None:
    """First class-ish identifier of a type annotation (``"Database"``)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
    else:
        try:
            text = ast.unparse(node)
        except Exception:  # pragma: no cover - malformed annotation
            return None
    match = re.search(r"[A-Za-z_][A-Za-z0-9_]*", text.split("|")[0].strip())
    if match is None:
        return None
    name = match.group(0)
    if name in {"Optional", "Union"}:
        inner = re.search(r"\[\s*([A-Za-z_][A-Za-z0-9_]*)", text)
        return inner.group(1) if inner else None
    return name


def _self_attr(node: ast.expr) -> str | None:
    """``self.X`` -> ``X`` (else None)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _MethodScanner:
    """Walk one function body, tracking held locks statement by statement."""

    def __init__(
        self,
        module: ModuleInfo,
        cls: ClassInfo | None,
        info: MethodInfo,
        lines: list[str],
    ) -> None:
        self.module = module
        self.cls = cls
        self.info = info
        self.lines = lines

    # -- entry ----------------------------------------------------------

    def scan(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for arg in list(node.args.args) + list(node.args.kwonlyargs):
            annotated = _annotation_class(arg.annotation)
            if annotated is not None:
                self.info.param_types[arg.arg] = annotated
        self.info.returns = _annotation_class(node.returns)
        self._walk_body(node.body, frozenset())

    # -- statements -----------------------------------------------------

    def _walk_body(
        self, stmts: list[ast.stmt], held: frozenset[LockRef]
    ) -> frozenset[LockRef]:
        for stmt in stmts:
            held = self._walk_stmt(stmt, held)
        return held

    def _walk_stmt(
        self, stmt: ast.stmt, held: frozenset[LockRef]
    ) -> frozenset[LockRef]:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            gained: list[LockRef] = []
            for item in stmt.items:
                ref = self._lock_ref(item.context_expr)
                if ref is not None:
                    self.info.acquires.append(
                        Acquire(ref, item.context_expr.lineno, held)
                    )
                    gained.append(ref)
                else:
                    self._visit_expr(item.context_expr, held)
            self._walk_body(stmt.body, held | frozenset(gained))
            return held
        if isinstance(stmt, ast.If):
            self._visit_expr(stmt.test, held)
            true_exit = self._walk_body(stmt.body, held)
            false_exit = self._walk_body(stmt.orelse, held)
            return true_exit & false_exit
        if isinstance(stmt, ast.Try):
            held = self._walk_body(stmt.body, held)
            for handler in stmt.handlers:
                held = self._walk_body(handler.body, held)
            held = self._walk_body(stmt.orelse, held)
            return self._walk_body(stmt.finalbody, held)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_expr(stmt.iter, held)
            self._record_store(stmt.target, held)
            self._walk_body(stmt.body, held)
            self._walk_body(stmt.orelse, held)
            return held
        if isinstance(stmt, ast.While):
            self._visit_expr(stmt.test, held)
            self._walk_body(stmt.body, held)
            self._walk_body(stmt.orelse, held)
            return held
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._scan_nested(stmt)
            return held
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return self._walk_assign(stmt, held)
        if isinstance(stmt, ast.Expr):
            acquired = self._acquire_in(stmt.value, held)
            if acquired is not None:
                return held | {acquired}
            released = self._release_in(stmt.value)
            if released is not None:
                return held - {released}
            self._visit_expr(stmt.value, held)
            return held
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_store(target, held)
            return held
        if isinstance(stmt, (ast.Return, ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._visit_expr(child, held)
            return held
        # Remaining statements (pass, break, imports, class defs...) carry
        # no events; walk their expressions generically just in case.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._visit_expr(child, held)
        return held

    def _walk_assign(
        self,
        stmt: ast.Assign | ast.AnnAssign | ast.AugAssign,
        held: frozenset[LockRef],
    ) -> frozenset[LockRef]:
        value = stmt.value
        if value is not None:
            acquired = self._acquire_in(value, held)
            if acquired is not None:
                # got = self._lock.acquire(timeout=...) — treat as held;
                # the paired statement-level release() drops it again.
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    self._record_store(target, held)
                return held | {acquired}
            self._visit_expr(value, held)
        if isinstance(stmt, ast.AugAssign):
            # += reads then writes the target.
            self._record_load_of_target(stmt.target, held)
            self._record_store(stmt.target, held)
        else:
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                self._record_store(target, held)
        return held

    def _scan_nested(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        """Nested def: a pseudo-method scanned with an empty held set."""
        name = f"{self.info.name}.{node.name}"
        nested = MethodInfo(name=name, line=node.lineno)
        owner = self.cls.methods if self.cls is not None else self.module.functions
        owner[name] = nested
        _MethodScanner(self.module, self.cls, nested, self.lines).scan(node)

    # -- locks ----------------------------------------------------------

    def _lock_ref(self, node: ast.expr) -> LockRef | None:
        """``self.X`` / bare module-lock name as a with-item or receiver."""
        attr = _self_attr(node)
        if attr is not None:
            return ("self", attr)
        if isinstance(node, ast.Name) and node.id in self.module.locks:
            return ("mod", node.id)
        return None

    def _acquire_in(
        self, node: ast.expr, held: frozenset[LockRef]
    ) -> LockRef | None:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
        ):
            ref = self._lock_ref(node.func.value)
            if ref is not None:
                self.info.acquires.append(Acquire(ref, node.lineno, held))
                return ref
        return None

    def _release_in(self, node: ast.expr) -> LockRef | None:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "release"
        ):
            return self._lock_ref(node.func.value)
        return None

    # -- expressions ----------------------------------------------------

    def _record_store(self, target: ast.expr, held: frozenset[LockRef]) -> None:
        attr = _self_attr(target)
        if attr is not None:
            self.info.accesses.append(
                Access(attr, target.lineno, True, held)
            )
            return
        if isinstance(target, ast.Attribute):
            receiver = _self_attr(target.value)
            if receiver is not None:
                # self.<receiver>.<attr> = ... — a cross-object write.
                self.info.accesses.append(
                    Access(target.attr, target.lineno, True, held, receiver)
                )
                self.info.accesses.append(
                    Access(receiver, target.lineno, False, held)
                )
                return
            self._visit_expr(target.value, held)
            return
        if isinstance(target, ast.Subscript):
            base_attr = _self_attr(target.value)
            if base_attr is not None:
                self.info.accesses.append(
                    Access(base_attr, target.lineno, True, held)
                )
            else:
                self._visit_expr(target.value, held)
            self._visit_expr(target.slice, held)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store(element, held)
            return
        if isinstance(target, ast.Starred):
            self._record_store(target.value, held)

    def _record_load_of_target(
        self, target: ast.expr, held: frozenset[LockRef]
    ) -> None:
        attr = _self_attr(target)
        if attr is not None:
            self.info.accesses.append(Access(attr, target.lineno, False, held))
            return
        if isinstance(target, ast.Attribute):
            receiver = _self_attr(target.value)
            if receiver is not None:
                self.info.accesses.append(
                    Access(target.attr, target.lineno, False, held, receiver)
                )
        elif isinstance(target, ast.Subscript):
            base_attr = _self_attr(target.value)
            if base_attr is not None:
                self.info.accesses.append(
                    Access(base_attr, target.lineno, False, held)
                )

    def _visit_expr(self, node: ast.expr, held: frozenset[LockRef]) -> None:
        if isinstance(node, ast.Call):
            self._visit_call(node, held)
            return
        attr = _self_attr(node)
        if attr is not None:
            self.info.accesses.append(Access(attr, node.lineno, False, held))
            return
        if isinstance(node, ast.Attribute):
            receiver = _self_attr(node.value)
            if receiver is not None:
                # self.<receiver>.<attr> read: the receiver is what this
                # class owns — record that; the inner attribute belongs to
                # another object and reads of it are not checked.
                self.info.accesses.append(
                    Access(receiver, node.lineno, False, held)
                )
                return
            self._visit_expr(node.value, held)
            return
        if isinstance(node, (ast.Lambda,)):
            # Lambdas run later (often on another thread); scan with an
            # empty held set, like nested defs.
            self._visit_expr_in_new_context(node.body)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._visit_expr(child, held)
            elif isinstance(child, ast.comprehension):
                self._visit_expr(child.iter, held)
                for condition in child.ifs:
                    self._visit_expr(condition, held)

    def _visit_expr_in_new_context(self, node: ast.expr) -> None:
        self._visit_expr(node, frozenset())

    def _visit_call(self, node: ast.Call, held: frozenset[LockRef]) -> None:
        func = node.func
        self._detect_thread_target(node)
        ref = self._call_ref(func)
        if ref is not None and not (ref[0] == "attr" and ref[2] in ("acquire", "release")):
            self.info.calls.append(CallSite(ref, node.lineno, held))
        if isinstance(func, ast.Name) and func.id in BLOCKING_CALLS:
            self.info.blocking.append(BlockingCall(func.id, node.lineno, held))
        if isinstance(func, ast.Attribute):
            method = func.attr
            receiver = func.value
            self_attr = _self_attr(receiver)
            if self_attr is not None:
                # self.a.m(...)
                self.info.accesses.append(
                    Access(self_attr, node.lineno, method in MUTATOR_METHODS, held)
                )
                if self._is_blocking(method, self_attr):
                    self.info.blocking.append(
                        BlockingCall(method, node.lineno, held)
                    )
            elif isinstance(receiver, ast.Name):
                name = receiver.id
                if name != "self" and (
                    name == "subprocess" or self._is_blocking(method, None)
                ):
                    self.info.blocking.append(
                        BlockingCall(
                            f"{name}.{method}"
                            if name in ("time", "subprocess", "socket")
                            else method,
                            node.lineno,
                            held,
                        )
                    )
            else:
                if self._is_blocking(method, None):
                    self.info.blocking.append(
                        BlockingCall(method, node.lineno, held)
                    )
                self._visit_expr(receiver, held)
        for argument in node.args:
            if isinstance(argument, ast.Starred):
                self._visit_expr(argument.value, held)
            else:
                self._visit_expr(argument, held)
        for keyword in node.keywords:
            self._visit_expr(keyword.value, held)

    def _call_ref(self, func: ast.expr) -> tuple[str, ...] | None:
        """The :class:`CallSite` ref of a call to ``func``, if resolvable;
        ``f(...).m(...)`` is resolved through ``f``'s return annotation."""
        if isinstance(func, ast.Name):
            return ("name", func.id)
        if not isinstance(func, ast.Attribute):
            return None
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            return ("self", func.attr)
        self_attr = _self_attr(receiver)
        if self_attr is not None:
            return ("attr", self_attr, func.attr)
        if isinstance(receiver, ast.Name) and receiver.id in self.info.param_types:
            return ("param", receiver.id, func.attr)
        if isinstance(receiver, ast.Call):
            inner = self._call_ref(receiver.func)
            if inner is not None:
                return ("result", func.attr, *inner)
        return None

    def _is_blocking(self, method: str, receiver_attr: str | None) -> bool:
        if method in BLOCKING_CALLS:
            return True
        if method in QUEUE_BLOCKING_CALLS and receiver_attr is not None:
            if self.cls is not None:
                info = self.cls.attributes.get(receiver_attr)
                if info is not None and info.value_class is not None:
                    return "Queue" in info.value_class
        return False

    def _detect_thread_target(self, node: ast.Call) -> None:
        factory = _call_factory(node)
        if factory not in ("Thread", "Timer"):
            return
        target: ast.expr | None = None
        for keyword in node.keywords:
            if keyword.arg in ("target", "function"):
                target = keyword.value
        if target is None and factory == "Timer" and len(node.args) >= 2:
            target = node.args[1]
        if target is None or self.cls is None:
            return
        attr = _self_attr(target)
        if attr is not None:
            self.cls.thread_targets.add(attr)
            return
        if isinstance(target, ast.Name):
            # A nested function of this method, handed to a thread.
            self.cls.thread_targets.add(f"{self.info.name}.{target.id}")


def _record_attribute(
    cls: ClassInfo,
    attr: str,
    stmt: ast.stmt,
    value: ast.expr | None,
    lines: list[str],
) -> None:
    """Register ``self.attr = value`` metadata (first assignment wins)."""
    annotation = _annotation_for(lines, stmt)
    factory = _call_factory(value) if value is not None else None
    if factory in LOCK_FACTORIES:
        if attr not in cls.locks:
            aliases = None
            if (
                factory == "Condition"
                and isinstance(value, ast.Call)
                and value.args
            ):
                aliases = _self_attr(value.args[0])
            cls.locks[attr] = LockInfo(
                name=attr,
                kind=factory,
                line=stmt.lineno,
                serializes=bool(annotation and annotation[0] == "serializes"),
                aliases=aliases,
            )
        return
    if attr in cls.attributes:
        existing = cls.attributes[attr]
        if existing.guarded_by is None and annotation:
            kind, text = annotation
            if kind == "guarded-by":
                existing.guarded_by = text.removeprefix("self.").strip()
            elif kind == "not-shared":
                existing.not_shared = True
        return
    info = AttributeInfo(
        name=attr,
        line=stmt.lineno,
        value_class=factory,
        synchronized=factory in SYNCHRONIZED_FACTORIES,
    )
    if annotation:
        kind, text = annotation
        if kind == "guarded-by":
            info.guarded_by = text.removeprefix("self.").strip()
        elif kind == "not-shared":
            info.not_shared = True
    cls.attributes[attr] = info


def _collect_attributes(
    cls: ClassInfo, node: ast.ClassDef, lines: list[str]
) -> None:
    """Harvest lock/attribute declarations from the whole class body."""
    for stmt in node.body:
        # Class-level declarations (dataclass fields, handler annotations).
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            attr = stmt.target.id
            _record_attribute(cls, attr, stmt, stmt.value, lines)
            annotated = _annotation_class(stmt.annotation)
            if annotated is not None and attr in cls.attributes:
                if cls.attributes[attr].value_class is None:
                    cls.attributes[attr].value_class = annotated
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    _record_attribute(cls, target.id, stmt, stmt.value, lines)
    for method in ast.walk(node):
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in ast.walk(method):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        _record_attribute(cls, attr, stmt, stmt.value, lines)
            elif isinstance(stmt, ast.AnnAssign):
                attr = _self_attr(stmt.target)
                if attr is not None:
                    _record_attribute(cls, attr, stmt, stmt.value, lines)
                    annotated = _annotation_class(stmt.annotation)
                    if (
                        annotated is not None
                        and attr in cls.attributes
                        and cls.attributes[attr].value_class is None
                    ):
                        cls.attributes[attr].value_class = annotated


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - exotic base expression
        return ""


def scan_module(path: str, source: str) -> ModuleInfo:
    """Parse and scan one file.

    Raises:
        SyntaxError: when the file does not parse.
    """
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    module = ModuleInfo(path=path)
    # Module-level locks first, so function scans can recognise them.
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            factory = _call_factory(stmt.value)
            if isinstance(target, ast.Name) and factory in LOCK_FACTORIES:
                annotation = _annotation_for(lines, stmt)
                module.locks[target.id] = LockInfo(
                    name=target.id,
                    kind=factory,
                    line=stmt.lineno,
                    serializes=bool(
                        annotation and annotation[0] == "serializes"
                    ),
                )
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            cls = ClassInfo(
                name=stmt.name,
                path=path,
                line=stmt.lineno,
                bases=[_base_name(base) for base in stmt.bases],
            )
            module.classes[stmt.name] = cls
            _collect_attributes(cls, stmt, lines)
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = MethodInfo(name=item.name, line=item.lineno)
                    cls.methods[item.name] = info
                    _MethodScanner(module, cls, info, lines).scan(item)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = MethodInfo(name=stmt.name, line=stmt.lineno)
            module.functions[stmt.name] = info
            _MethodScanner(module, None, info, lines).scan(stmt)
    return module
