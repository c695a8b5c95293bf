"""The pqlint rule catalogue: PQ002, PQ004, PQ005, PQ101, PQ102 and PQ105.

Each rule protects a property the test suite can only sample:

========  =====================  ==================================================
Rule      Name                   Invariant (paper / design anchor)
========  =====================  ==================================================
PQ002     register-width         shifts/masks derive from declared width
                                 constants, never bare magic numbers (Alg. 1,
                                 §4.1 cycle-ID arithmetic)
PQ004     error-taxonomy         ``faults/``/``engine/``/``store/`` raise the
                                 typed errors in ``errors.py``, not builtin
                                 Exception types
PQ005     api-surface            public ``PrintQueuePort``/``AnalysisProgram``
                                 options are keyword-only; no new
                                 ``DeprecationWarning`` shims — retired names
                                 raise typed errors instead (DESIGN §7)
PQ101     async-blocking         no blocking call transitively reachable from
                                 an ``async def`` in ``repro.service``
                                 (DESIGN §16/§17 event-loop liveness)
PQ102     obs-lock-discipline    every mutation of an obs instrument's state
                                 happens under that instrument's ``_lock``
                                 (audited exempt list, DESIGN §17)
PQ105     await-under-lock       no ``await`` while holding a
                                 ``threading.Lock`` (lock-scope tracking)
========  =====================  ==================================================

Two rule shapes exist.  A :class:`FileRule` sees one module at a time; a
:class:`ProjectRule` runs after every module is parsed and traverses the
shared :class:`~anlz.callgraph.ProjectIndex` the engine builds once per
run (the PQ1xx concurrency family).  Rules are pure functions of the
ASTs — pqlint never imports the code it checks.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

from anlz.callgraph import (
    ClassInfo,
    FunctionInfo,
    ProjectIndex,
    dotted_name,
    walk_shallow,
)
from anlz.contexts import async_roots, lock_scopes, propagate
from anlz.model import Finding, SourceModule

__all__ = [
    "FileRule",
    "ProjectRule",
    "RULE_REGISTRY",
    "all_rules",
    "rule_codes",
]

#: Packages holding the Algorithm-1 register arithmetic PQ002 polices.
DATA_PLANE_PACKAGES = frozenset({"core", "engine", "switch"})

#: Packages whose raise sites must use the typed hierarchy in errors.py.
TYPED_ERROR_PACKAGES = frozenset({"faults", "engine", "store"})

#: Classes whose public surface PQ005 polices.
API_CLASSES = frozenset({"PrintQueuePort", "AnalysisProgram"})


def _is_int(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


class FileRule:
    """Base class: one module in, findings out."""

    code: str = "PQ000"
    name: str = "abstract"
    summary: str = ""

    def check(self, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: SourceModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=module.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.code,
            message=message,
        )


class ProjectRule(FileRule):
    """Base class: the whole module set (plus the call graph) in, findings out.

    The engine builds one :class:`~anlz.callgraph.ProjectIndex`
    per run and hands it to every project rule.
    """

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def check(self, module: SourceModule) -> Iterator[Finding]:
        return iter(())


# ---------------------------------------------------------------------------
# PQ002 — register widths
# ---------------------------------------------------------------------------


class RegisterWidthRule(FileRule):
    """PQ002: shift amounts and masks must derive from declared widths.

    Algorithm 1 packs ``[cycle-ID | k-bit index]`` into each register
    cell; every shift and mask in that arithmetic must be expressed in
    terms of the declared constants (``k``, ``alpha``, ``cfg.shift(i)``,
    ``timestamp_bits``...) so a config change cannot silently shear the
    cell layout.  Concretely, in the data-plane packages:

    * ``x << N`` / ``x >> N`` with a literal ``N >= 2`` is a violation
      unless ``x`` is the literal ``1`` (the canonical ``1 << WIDTH``
      power-of-two constructor, where the literal *is* the declared
      width);
    * ``x & N`` / ``x | N`` with a literal ``N >= 2`` is a violation —
      masks are built as ``(1 << width) - 1``, never written out.

    Single-bit idioms (``& 1``, ``<< 1``, ``| 1``) stay legal: they
    select a flag bit, not a configurable field.
    """

    code = "PQ002"
    name = "register-width"
    summary = "shifts/masks derive from declared width constants"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.in_packages(DATA_PLANE_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.BinOp):
                continue
            if isinstance(node.op, (ast.LShift, ast.RShift)):
                if (
                    _is_int(node.right)
                    and node.right.value >= 2
                    and not (_is_int(node.left) and node.left.value == 1)
                ):
                    yield self.finding(
                        module,
                        node,
                        f"shift by magic literal {node.right.value}; use a "
                        "declared width constant (k/alpha/shift(i))",
                    )
            elif isinstance(node.op, (ast.BitAnd, ast.BitOr)):
                for operand in (node.left, node.right):
                    if _is_int(operand) and operand.value >= 2:
                        yield self.finding(
                            module,
                            node,
                            f"magic bitmask {operand.value:#x}; derive it "
                            "from a declared width: (1 << w) - 1",
                        )


# ---------------------------------------------------------------------------
# PQ004 — error taxonomy
# ---------------------------------------------------------------------------

#: Builtin exception types banned at raise sites in faults/ and engine/.
#: TypeError stays legal (API-misuse signalling), as do assertions.
_BANNED_RAISES = frozenset({"Exception", "ValueError", "RuntimeError"})


class ErrorTaxonomyRule(FileRule):
    """PQ004: ``faults/``, ``engine/`` and ``store/`` raise typed errors.

    These packages promise callers a closed error vocabulary
    (``ConfigError``, ``StoreError``, ``QueryError``, ...) so error
    handling can be exhaustive; a stray ``ValueError`` escapes every
    ``except ReproError`` fence.  Raise the matching type from
    ``repro/errors.py`` instead.
    """

    code = "PQ004"
    name = "error-taxonomy"
    summary = "faults/, engine/ and store/ raise typed errors from errors.py"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.in_packages(TYPED_ERROR_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name: Optional[str] = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in _BANNED_RAISES:
                yield self.finding(
                    module,
                    node,
                    f"bare `raise {name}` in a typed-error package; use "
                    "the matching ReproError subclass from repro/errors.py",
                )


# ---------------------------------------------------------------------------
# PQ005 — API surface
# ---------------------------------------------------------------------------


class ApiSurfaceRule(FileRule):
    """PQ005: options keyword-only on the public API; no deprecation shims.

    On ``PrintQueuePort`` and ``AnalysisProgram``, any public-method
    parameter *with a default* must sit after ``*``: required inputs may
    stay positional, but options named at the call site cannot silently
    swap meaning when a parameter is inserted (the PR-1 convention that
    made ``query()`` keyword-only).  Additionally, *no*
    ``warnings.warn(..., DeprecationWarning)`` shim may exist: retired
    names spend one release as warning shims at most, then graduate to
    raising a typed error that names the replacement (the shims removed
    alongside the snapshot store set the precedent).  A new shim would
    silently re-open the two-API era this rule closed.
    """

    code = "PQ005"
    name = "api-surface"
    summary = "public API options keyword-only; no DeprecationWarning shims"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name in API_CLASSES:
                yield from self._check_class(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_warn(module, node)

    def _check_class(
        self, module: SourceModule, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name.startswith("_"):
                continue
            args = item.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            for param in defaulted:
                yield self.finding(
                    module,
                    param,
                    f"{cls.name}.{item.name}: defaulted parameter "
                    f"{param.arg!r} must be keyword-only (move it after "
                    "`*`)",
                )

    def _check_warn(
        self, module: SourceModule, call: ast.Call
    ) -> Iterator[Finding]:
        dotted = dotted_name(call.func)
        if dotted not in ("warnings.warn", "warn"):
            return
        category: Optional[ast.AST] = None
        if len(call.args) >= 2:
            category = call.args[1]
        for kw in call.keywords:
            if kw.arg == "category":
                category = kw.value
        if not (
            isinstance(category, ast.Name)
            and category.id == "DeprecationWarning"
        ):
            return
        yield self.finding(
            module,
            call,
            "DeprecationWarning shim; retired names must raise a typed "
            "error naming the query()-style replacement instead of "
            "warning (no new shims)",
        )


# ---------------------------------------------------------------------------
# PQ1xx — cross-file concurrency rules (shared helpers)
# ---------------------------------------------------------------------------


def _ancestors(scope_node: ast.AST) -> Dict[int, ast.AST]:
    """``id(child) -> parent`` within one scope (not crossing nested defs)."""
    parents: Dict[int, ast.AST] = {}
    stack: List[ast.AST] = [scope_node]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            stack.append(child)
    return parents


# ---------------------------------------------------------------------------
# PQ101 — no blocking calls reachable from the async service
# ---------------------------------------------------------------------------

#: Fully-resolved call targets that block the calling thread outright.
_BLOCKING_EXACT = frozenset({"time.sleep", "open", "io.open", "os.open"})

#: Sync pathlib I/O attribute calls (blocking regardless of receiver).
_BLOCKING_PATH_IO = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: ``(qualname, blocking name) -> justification`` — audited exemptions.
#: Empty today: the PR that introduced this rule fixed every violation
#: instead of exempting it.  Add entries only with a one-line reason.
ASYNC_BLOCKING_EXEMPT: Dict[Tuple[str, str], str] = {}


class AsyncBlockingRule(ProjectRule):
    """PQ101: nothing reachable from a service ``async def`` may block.

    The diagnosis service (DESIGN §16) runs ingest supervision, the
    query front door, and admission control on one event loop; a single
    synchronous sleep, socket call, file read, unbounded ``Queue.get``
    or bare ``future.result()`` anywhere down the call graph stalls
    every connection at once.  The rule BFSes the project call graph
    from every ``async def`` under ``repro.service`` and flags blocking
    sites wherever they live, printing the call chain back to the event
    loop.  Calls lexically inside an ``await``-ed expression are exempt
    (awaiting ``asyncio.Queue.get()`` is the point of the API), as are
    ``.result(timeout=...)``/``.get(timeout=...)`` bounded waits —
    PR 9's bounded-wait convention, now enforced by construction.
    """

    code = "PQ101"
    name = "async-blocking"
    summary = "no blocking calls reachable from async defs in repro.service"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        reached = propagate(index, async_roots(index))
        for qualname, reach in sorted(reached.items()):
            info = index.functions.get(qualname)
            if info is None:
                continue
            awaited = self._awaited_calls(info)
            for node in walk_shallow(info.node):
                if not isinstance(node, ast.Call) or id(node) in awaited:
                    continue
                label = self._blocking_label(index, info, node)
                if label is None:
                    continue
                if (qualname, label) in ASYNC_BLOCKING_EXEMPT:
                    continue
                site = f"{info.module.rel_path}:{node.lineno}"
                yield self.finding(
                    info.module,
                    node,
                    f"blocking `{label}` on an event-loop path: "
                    f"{reach.describe(site)}; move it off-loop "
                    "(executor/thread) or use the async equivalent",
                )

    @staticmethod
    def _awaited_calls(info: FunctionInfo) -> Set[int]:
        """Call nodes inside an awaited expression (never loop-blocking)."""
        awaited: Set[int] = set()
        if not info.is_async:
            return awaited
        for node in walk_shallow(info.node):
            if isinstance(node, ast.Await):
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Call):
                        awaited.add(id(sub))
        return awaited

    def _blocking_label(
        self, index: ProjectIndex, info: FunctionInfo, call: ast.Call
    ) -> Optional[str]:
        canonical = index.canonical_call(info.module, call)
        if canonical is not None:
            if canonical in _BLOCKING_EXACT:
                return canonical
            head = canonical.split(".", 1)[0]
            if head == "socket":
                return canonical
        if not isinstance(call.func, ast.Attribute):
            return None
        attr = call.func.attr
        keywords = {kw.arg for kw in call.keywords}
        if attr == "result" and not call.args and "timeout" not in keywords:
            return ".result() without timeout"
        if attr in _BLOCKING_PATH_IO:
            return f".{attr}() sync file I/O"
        if (
            attr == "get"
            and not call.args
            and not keywords & {"timeout", "block"}
        ):
            base = dotted_name(call.func.value)
            if base is not None and "queue" in base.lower():
                return f"{base}.get() without timeout"
        return None


# ---------------------------------------------------------------------------
# PQ102 — obs instrument mutations happen under the instrument's _lock
# ---------------------------------------------------------------------------

#: Method calls that mutate a container in place.
_CONTAINER_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "clear",
        "update",
        "setdefault",
    }
)

#: ``(class name, method name) -> justification`` — audited exemptions.
#: Every entry names a method whose unlocked mutation is part of the
#: documented threading contract in ``repro/obs/metrics.py``.
OBS_LOCK_EXEMPT: Dict[Tuple[str, str], str] = {
    ("Gauge", "set"): (
        "single attribute store, atomic under the GIL (documented lock-free)"
    ),
}


class ObsLockDisciplineRule(ProjectRule):
    """PQ102: obs instrument state mutates only under the owning ``_lock``.

    PR 9 made ``repro.obs`` instruments thread-safe: the ingest thread,
    asyncio workers and the poller all tick the same ``Counter``/
    ``Histogram`` objects.  That safety is one unlocked ``+=`` away from
    silent lost updates, which no test reliably catches.  The rule finds
    every instrument class (a class in ``obs/`` that owns a ``_lock``),
    collects the attribute names those classes store state in, and flags
    any write to such an attribute — assignment, augmented assignment,
    subscript store, or in-place container mutator — that is not
    lexically inside ``with <same base>._lock:``.  Methods that *create*
    the lock (``__init__``, ``__setstate__``) are structurally exempt;
    everything else must either lock or carry an entry in
    :data:`OBS_LOCK_EXEMPT` with its one-line justification.
    """

    code = "PQ102"
    name = "obs-lock-discipline"
    summary = "obs instrument state mutates only under the owning _lock"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        instrument_classes = [
            cls
            for cls in index.classes.values()
            if "obs" in cls.module.segments[:-1] and self._owns_lock(cls)
        ]
        if not instrument_classes:
            return
        instrument_quals = {cls.qualname for cls in instrument_classes}
        tracked: Set[str] = set()
        for cls in instrument_classes:
            tracked.update(cls.slots)
            tracked.update(cls.field_sites)
        tracked = {name for name in tracked if "lock" not in name.lower()}

        for cls in sorted(instrument_classes, key=lambda c: c.qualname):
            for method in cls.methods.values():
                yield from self._check_function(
                    index, method, cls, instrument_quals, tracked
                )
        # Functions outside instrument classes (other obs code, or any
        # module) may still hold a typed reference to an instrument.
        for info in index.functions.values():
            if info.class_name is not None and any(
                info.qualname.startswith(f"{q}.") for q in instrument_quals
            ):
                continue  # already checked as a method above
            yield from self._check_function(
                index, info, None, instrument_quals, tracked
            )

    @staticmethod
    def _owns_lock(cls: ClassInfo) -> bool:
        return "_lock" in cls.slots or "_lock" in cls.field_sites

    def _check_function(
        self,
        index: ProjectIndex,
        info: FunctionInfo,
        owner: Optional[ClassInfo],
        instrument_quals: Set[str],
        tracked: Set[str],
    ) -> Iterator[Finding]:
        if owner is not None:
            exemption = OBS_LOCK_EXEMPT.get((owner.name, info.name))
            if exemption is not None:
                return
        parents = _ancestors(info.node)
        constructed = self._lock_assigning_bases(info)
        for node in walk_shallow(info.node):
            for base, attr, site in self._mutations(node):
                if attr not in tracked:
                    continue
                base_dump = ast.dump(base)
                if base_dump in constructed:
                    continue
                if not self._is_instrument_base(
                    index, info, owner, base, instrument_quals
                ):
                    continue
                if self._under_lock(parents, site, base_dump):
                    continue
                yield self.finding(
                    info.module,
                    site,
                    f"instrument state `{dotted_name(base) or '<expr>'}"
                    f".{attr}` mutated outside `with ..._lock:`; wrap the "
                    "write or add an audited OBS_LOCK_EXEMPT entry",
                )

    @staticmethod
    def _lock_assigning_bases(info: FunctionInfo) -> Set[str]:
        """AST dumps of bases whose ``_lock`` this function assigns."""
        bases: Set[str] = set()
        for node in walk_shallow(info.node):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "_lock"
                ):
                    bases.add(ast.dump(target.value))
        return bases

    @staticmethod
    def _mutations(
        node: ast.AST,
    ) -> Iterator[Tuple[ast.AST, str, ast.AST]]:
        """Yield ``(base expr, attribute, site)`` for each mutation shape."""

        def attr_of(target: ast.AST) -> Optional[ast.Attribute]:
            if isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute):
                return target
            return None

        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                attribute = attr_of(target)
                if attribute is not None:
                    yield attribute.value, attribute.attr, node
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in _CONTAINER_MUTATORS:
                attribute = attr_of(node.func.value)
                if attribute is not None:
                    yield attribute.value, attribute.attr, node

    @staticmethod
    def _is_instrument_base(
        index: ProjectIndex,
        info: FunctionInfo,
        owner: Optional[ClassInfo],
        base: ast.AST,
        instrument_quals: Set[str],
    ) -> bool:
        if (
            owner is not None
            and isinstance(base, ast.Name)
            and base.id == "self"
        ):
            return True
        return index.class_in(info, base) in instrument_quals

    @staticmethod
    def _under_lock(
        parents: Dict[int, ast.AST], site: ast.AST, base_dump: str
    ) -> bool:
        """Is ``site`` lexically inside ``with <base>._lock:``?"""
        current = site
        while id(current) in parents:
            current = parents[id(current)]
            if not isinstance(current, ast.With):
                continue
            for item in current.items:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Attribute)
                    and expr.attr == "_lock"
                    and ast.dump(expr.value) == base_dump
                ):
                    return True
        return False


# ---------------------------------------------------------------------------
# PQ105 — no await while holding a threading.Lock
# ---------------------------------------------------------------------------


class AwaitUnderLockRule(ProjectRule):
    """PQ105: an ``await`` must never sit inside ``with <threading lock>:``.

    A coroutine that awaits while holding a ``threading.Lock`` parks the
    lock across an arbitrary suspension: the ingest thread then blocks
    on a lock whose owner is waiting for the event loop, which is
    serving the connection that blocked — the classic loop/thread
    deadlock.  The rule walks every ``async def`` in the project, finds
    synchronous ``with`` blocks whose context expression looks like a
    threading lock (``self._lock``, ``threading.Lock()``, or any
    ``*_lock`` name — ``async with`` asyncio locks are exempt by
    shape), and flags any ``await`` lexically inside.  Hold the lock
    only around the synchronous critical section, or switch the shared
    state to an ``asyncio.Lock``.
    """

    code = "PQ105"
    name = "await-under-lock"
    summary = "no await while holding a threading.Lock"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for qualname in sorted(index.functions):
            info = index.functions[qualname]
            if not info.is_async:
                continue
            for with_node, lock_expr in lock_scopes(index, info):
                for stmt in with_node.body:
                    for sub in walk_shallow(stmt):
                        if isinstance(sub, ast.Await):
                            label = dotted_name(lock_expr) or "<lock>"
                            yield self.finding(
                                info.module,
                                sub,
                                f"await while holding threading lock "
                                f"`{label}` in {info.short}; release the "
                                "lock before suspending or use "
                                "asyncio.Lock",
                            )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

RULE_REGISTRY: Dict[str, Type[FileRule]] = {
    rule.code: rule
    for rule in (
        RegisterWidthRule,
        ErrorTaxonomyRule,
        ApiSurfaceRule,
        AsyncBlockingRule,
        ObsLockDisciplineRule,
        AwaitUnderLockRule,
    )
}


def rule_codes() -> List[str]:
    """Every registered rule code, sorted (``PQ002`` … ``PQ105``)."""
    return sorted(RULE_REGISTRY)


def all_rules(
    only: Optional[Iterable[str]] = None,
) -> List[FileRule]:
    """Instantiate the catalogue (optionally restricted to ``only``)."""
    if only is None:
        selected = rule_codes()
    else:
        selected = []
        for code in only:
            if code not in RULE_REGISTRY:
                raise KeyError(f"unknown pqlint rule: {code}")
            selected.append(code)
    return [RULE_REGISTRY[code]() for code in selected]
