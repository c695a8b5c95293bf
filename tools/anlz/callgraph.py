"""Project-wide symbol table and call graph for the PQ1xx rule family.

The file rules (PQ002, PQ004, PQ005) reason about one module at a time; the
concurrency rules (PQ101, PQ102, PQ105) need to know *what calls what* across
the whole tree: a blocking call three modules away from an ``async def``
is exactly as wrong as one inside it.  :func:`build_project_index`
parses every module's AST once into a :class:`ProjectIndex` — functions
and classes by qualified name, import aliases, the sites that assign
each class field, and a call graph — which the rules then traverse.

Resolution is deliberately *static and conservative*: a call edge is
added only when the target resolves to a project symbol through one of
the shapes the codebase actually uses —

* plain and aliased imports (``import x as y``, ``from a.b import c``);
* module-level functions and class constructors by name;
* methods through the class: ``self.method()``, and ``obj.method()``
  where ``obj`` is a parameter annotated with a project class (MRO walk
  through project base classes);
* ``functools.partial(f, ...)`` — the edge goes to ``f``, directly or
  through a local name bound to the partial;
* function *references* passed as call arguments (``loop.call_soon(f)``).

Anything the resolver cannot see (locals and fields whose class is
only inferable, ``Optional``/union annotations, dynamic dispatch,
``getattr``) simply contributes no edge, so the
analysis errs on the quiet side.  pqlint never imports the code it
checks; everything here is a pure function of the ASTs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from anlz.model import SourceModule

__all__ = [
    "CallEdge",
    "ClassInfo",
    "FunctionInfo",
    "ProjectIndex",
    "build_project_index",
    "dotted_name",
    "walk_shallow",
]

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested scopes.

    Nested ``def``/``async def``/``class`` bodies belong to their own
    :class:`FunctionInfo`; statements inside them must not be attributed
    to the enclosing function.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(child))


@dataclass
class FunctionInfo:
    """One function or method, addressable by qualified name."""

    qualname: str
    module: SourceModule
    node: _FunctionNode
    class_name: Optional[str] = None
    is_async: bool = False
    is_nested: bool = False

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def short(self) -> str:
        """``path.py::Class.method`` — the human-facing site name."""
        suffix = self.name if self.class_name is None else f"{self.class_name}.{self.name}"
        return f"{self.module.rel_path}::{suffix}"


@dataclass
class ClassInfo:
    """One class: methods, resolved bases, and field sites."""

    qualname: str
    name: str
    module: SourceModule
    node: ast.ClassDef
    base_names: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> the AST node that declared it (finding anchor).
    field_sites: Dict[str, ast.AST] = field(default_factory=dict)
    slots: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class CallEdge:
    """One resolved call (or function reference) site."""

    callee: str
    node: ast.AST
    #: "call" for invocations, "ref" for references passed as arguments.
    kind: str = "call"


class _ModuleScope:
    """Per-module name resolution: import aliases + top-level symbols."""

    def __init__(self, module: SourceModule, names: List[str]) -> None:
        self.module = module
        #: dotted names this module is importable as (primary last).
        self.names = names
        self.aliases: Dict[str, str] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.aliases[head] = head
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    @property
    def primary(self) -> str:
        return self.names[-1]

    def canonical(self, dotted: str) -> str:
        """Map a local dotted name through the import aliases."""
        head, _, rest = dotted.partition(".")
        canonical = self.aliases.get(head, head)
        return f"{canonical}.{rest}" if rest else canonical


def _module_names(module: SourceModule) -> List[str]:
    """Dotted names a module is addressable by, primary (root-prefixed) last.

    ``service/server.py`` under a root directory named ``repro`` yields
    ``["service.server", "repro.service.server"]`` so both fixture-style
    (``from service.server import …``) and installed-package imports
    (``from repro.service.server import …``) resolve.
    """
    parts = list(module.segments)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][:-3]  # strip .py
    root_dir = module.path
    for _ in module.segments:
        root_dir = root_dir.parent
    names: List[str] = []
    if parts:
        names.append(".".join(parts))
    root_name = root_dir.name
    if root_name and root_name.isidentifier():
        names.append(".".join([root_name, *parts]) if parts else root_name)
    return names or [module.rel_path]


class ProjectIndex:
    """Everything the cross-file rules need, built once per engine run."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.modules = list(modules)
        self._scopes: Dict[int, _ModuleScope] = {}
        #: dotted module name (any alias) -> scope.
        self._module_by_name: Dict[str, _ModuleScope] = {}
        #: primary qualname -> info.
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: any alias qualname -> primary qualname, tagged by kind.
        self._fn_alias: Dict[str, str] = {}
        self._cls_alias: Dict[str, str] = {}
        #: caller primary qualname -> resolved edges.
        self.calls: Dict[str, List[CallEdge]] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        for module in self.modules:
            scope = _ModuleScope(module, _module_names(module))
            self._scopes[id(module)] = scope
            for name in scope.names:
                self._module_by_name[name] = scope
            self._collect_symbols(scope)
        for cls in self.classes.values():
            self._resolve_bases(cls)
        for cls in self.classes.values():
            self._collect_fields(cls)
        for info in list(self.functions.values()):
            self._collect_edges(info)

    def _collect_symbols(self, scope: _ModuleScope) -> None:
        module = scope.module

        def register_function(
            node: _FunctionNode,
            qualname: str,
            class_name: Optional[str],
            nested: bool,
        ) -> FunctionInfo:
            info = FunctionInfo(
                qualname=qualname,
                module=module,
                node=node,
                class_name=class_name,
                is_async=isinstance(node, ast.AsyncFunctionDef),
                is_nested=nested,
            )
            self.functions[qualname] = info
            for nested_def in walk_shallow(node):
                if isinstance(nested_def, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    register_function(
                        nested_def,
                        f"{qualname}.<locals>.{nested_def.name}",
                        class_name,
                        True,
                    )
            return info

        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = register_function(
                    node, f"{scope.primary}.{node.name}", None, False
                )
                scope.functions[node.name] = info
                for alias_mod in scope.names:
                    self._fn_alias[f"{alias_mod}.{node.name}"] = info.qualname
            elif isinstance(node, ast.ClassDef):
                cls_qual = f"{scope.primary}.{node.name}"
                cls = ClassInfo(
                    qualname=cls_qual, name=node.name, module=module, node=node
                )
                for base in node.bases:
                    base_dotted = dotted_name(base)
                    if base_dotted is not None:
                        cls.base_names.append(scope.canonical(base_dotted))
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method = register_function(
                            item, f"{cls_qual}.{item.name}", node.name, False
                        )
                        cls.methods[item.name] = method
                    elif isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        cls.field_sites.setdefault(item.target.id, item)
                    elif isinstance(item, ast.Assign):
                        for target in item.targets:
                            if (
                                isinstance(target, ast.Name)
                                and target.id == "__slots__"
                            ):
                                cls.slots = [
                                    c.value
                                    for c in ast.walk(item.value)
                                    if isinstance(c, ast.Constant)
                                    and isinstance(c.value, str)
                                ]
                self.classes[cls_qual] = cls
                scope.classes[node.name] = cls
                for alias_mod in scope.names:
                    self._cls_alias[f"{alias_mod}.{node.name}"] = cls_qual

    def _resolve_bases(self, cls: ClassInfo) -> None:
        resolved: List[str] = []
        for base in cls.base_names:
            target = self._cls_alias.get(base)
            if target is not None:
                resolved.append(target)
        cls.base_names = resolved

    def mro(self, cls: ClassInfo) -> Iterator[ClassInfo]:
        """The class and its project base classes, nearest first."""
        seen: Set[str] = set()
        stack = [cls.qualname]
        while stack:
            qual = stack.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            info = self.classes.get(qual)
            if info is None:
                continue
            yield info
            stack.extend(info.base_names)

    def method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        for klass in self.mro(cls):
            if name in klass.methods:
                return klass.methods[name]
        return None

    # -- types -------------------------------------------------------------

    def _annotation_class(
        self, scope: _ModuleScope, node: ast.AST
    ) -> Optional[str]:
        """The project class an annotation names directly, if any."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        qual = self._cls_alias.get(scope.canonical(dotted))
        if qual is None and "." not in dotted:
            qual = self._cls_alias.get(f"{scope.primary}.{dotted}")
        return qual

    def _collect_fields(self, cls: ClassInfo) -> None:
        """Record the first ``self.attr = ...`` site of each field."""
        for method in cls.methods.values():
            for node in walk_shallow(method.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target: ast.AST = node.targets[0]
                elif isinstance(node, ast.AnnAssign):
                    target = node.target
                else:
                    continue
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    cls.field_sites.setdefault(target.attr, node)

    def _param_env(self, scope: _ModuleScope, info: FunctionInfo) -> Dict[str, str]:
        """Parameter name -> project class qualname, from annotations."""
        env: Dict[str, str] = {}
        args = info.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                qual = self._annotation_class(scope, arg.annotation)
                if qual is not None:
                    env[arg.arg] = qual
        if info.class_name is not None:
            positional = args.posonlyargs + args.args
            if positional and positional[0].arg == "self":
                owner = self._cls_alias.get(f"{scope.primary}.{info.class_name}")
                if owner is not None:
                    env["self"] = owner
        return env

    # -- call edges --------------------------------------------------------

    def _resolve_callable(
        self,
        scope: _ModuleScope,
        env: Dict[str, str],
        owner: Optional[FunctionInfo],
        func: ast.AST,
    ) -> Optional[FunctionInfo]:
        """Resolve a call/reference expression to a project function."""
        if isinstance(func, ast.Name):
            local = scope.functions.get(func.id)
            if local is not None:
                return local
            cls = scope.classes.get(func.id)
            if cls is not None:
                return self.method(cls, "__init__")
            canonical = scope.canonical(func.id)
            fn_qual = self._fn_alias.get(canonical)
            if fn_qual is not None:
                return self.functions[fn_qual]
            cls_qual = self._cls_alias.get(canonical)
            if cls_qual is not None:
                return self.method(self.classes[cls_qual], "__init__")
            if owner is not None:
                nested = self.functions.get(
                    f"{owner.qualname}.<locals>.{func.id}"
                )
                if nested is not None:
                    return nested
            return None
        if isinstance(func, ast.Attribute):
            dotted = dotted_name(func)
            if dotted is not None:
                canonical = scope.canonical(dotted)
                fn_qual = self._fn_alias.get(canonical)
                if fn_qual is not None:
                    return self.functions[fn_qual]
                cls_qual = self._cls_alias.get(canonical)
                if cls_qual is not None:
                    return self.method(self.classes[cls_qual], "__init__")
            if isinstance(func.value, ast.Name):
                cls = self.classes.get(env.get(func.value.id, ""))
                if cls is not None:
                    return self.method(cls, func.attr)
        return None

    def _resolve_target_with_env(
        self,
        scope: _ModuleScope,
        env: Dict[str, str],
        owner: FunctionInfo,
        call: ast.Call,
    ) -> Optional[FunctionInfo]:
        # functools.partial(f, ...) resolves to f (both the direct call
        # form and a local name previously bound to a partial).
        dotted = dotted_name(call.func)
        if dotted is not None and scope.canonical(dotted) in (
            "functools.partial",
            "partial",
        ):
            if call.args:
                return self._resolve_callable(scope, env, owner, call.args[0])
            return None
        if isinstance(call.func, ast.Name):
            bound = self._local_partial_target(scope, env, owner, call.func.id)
            if bound is not None:
                return bound
        return self._resolve_callable(scope, env, owner, call.func)

    def _local_partial_target(
        self,
        scope: _ModuleScope,
        env: Dict[str, str],
        owner: FunctionInfo,
        name: str,
    ) -> Optional[FunctionInfo]:
        """The partial target bound to ``name`` in ``owner``, if any."""
        for node in walk_shallow(owner.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Name) and target.id == name):
                continue
            value = node.value
            if isinstance(value, ast.Call):
                dotted = dotted_name(value.func)
                if dotted is not None and scope.canonical(dotted) in (
                    "functools.partial",
                    "partial",
                ):
                    if value.args:
                        return self._resolve_callable(
                            scope, env, owner, value.args[0]
                        )
        return None

    def _collect_edges(self, info: FunctionInfo) -> None:
        scope = self._scopes[id(info.module)]
        env = self._param_env(scope, info)
        edges: List[CallEdge] = []
        for node in walk_shallow(info.node):
            if not isinstance(node, ast.Call):
                continue
            target = self._resolve_target_with_env(scope, env, info, node)
            if target is not None:
                edges.append(CallEdge(callee=target.qualname, node=node))
            # Function references passed as arguments (call_soon(f),
            # partial(f, ...), map(f, xs)) become reachability edges too.
            for arg in node.args:
                if isinstance(arg, (ast.Name, ast.Attribute)):
                    ref = self._resolve_callable(scope, env, info, arg)
                    if ref is None and isinstance(arg, ast.Name):
                        ref = self._local_partial_target(
                            scope, env, info, arg.id
                        )
                    if ref is not None:
                        edges.append(
                            CallEdge(callee=ref.qualname, node=node, kind="ref")
                        )
        # Calling a function that defines nested defs may invoke them.
        for qual, nested in self.functions.items():
            if nested.is_nested and qual.startswith(
                f"{info.qualname}.<locals>."
            ) and qual.count(".<locals>.") == info.qualname.count(".<locals>.") + 1:
                edges.append(CallEdge(callee=qual, node=nested.node, kind="ref"))
        if edges:
            self.calls[info.qualname] = edges

    # -- convenience for the rules ----------------------------------------

    def canonical_call(
        self, module: SourceModule, call: ast.Call
    ) -> Optional[str]:
        """The alias-resolved dotted name of a call's target, if dotted."""
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        return self._scopes[id(module)].canonical(dotted)

    def class_in(self, caller: FunctionInfo, expr: ast.AST) -> Optional[str]:
        """The class qualname of a parameter name inside ``caller``."""
        if not isinstance(expr, ast.Name):
            return None
        scope = self._scopes[id(caller.module)]
        return self._param_env(scope, caller).get(expr.id)


def build_project_index(modules: Sequence[SourceModule]) -> ProjectIndex:
    """Build the cross-file index the PQ1xx rules traverse."""
    return ProjectIndex(modules)
