"""Whole-program analysis: module graph, symbol tables, call edges.

The per-file pass (:mod:`repro.lint.core`) sees one AST at a time, so
invariants that *span* modules — an RNG stream created in one subsystem
and consumed in another, a protocol terminal path whose obs event is
emitted by a helper two calls away, an import cycle — are invisible to
it.  This module adds the second pass:

* :class:`ProjectGraph` is built once per lint run from every parsed
  :class:`~repro.lint.core.FileContext`.  It holds, per module, an
  import table (aliases, ``from``-imports, top-level vs lazy vs
  ``TYPE_CHECKING``-gated edges), a symbol table of top-level
  functions/classes/string constants, and a call-graph approximation
  (resolved module-level call targets plus ``self.method`` edges).

* :class:`ProjectRule` is the two-pass rule API: ``check_project``
  receives the whole graph instead of one file.  Findings anchor to a
  concrete file/line through :meth:`ProjectGraph.finding`, so the
  existing ``# repro-lint: disable=`` suppressions apply unchanged.

Resolution is deliberately *syntactic and over-approximate*: ``import``
aliases and ``from``-imports are followed, attribute chains rooted at a
module alias resolve to dotted names, and ``self.method()`` resolves
through the class's declared bases (mix-in composition included).
Dynamic dispatch (``getattr``), re-exports through ``__init__`` and
monkey-patching are out of scope — rules built on this layer must
tolerate a missing edge, never crash on one.
"""

from __future__ import annotations

import abc
import ast
from typing import (Dict, Iterator, List, Optional, Sequence, Set, Tuple)

from repro.lint.core import FileContext, Finding, Severity


def package_of(module: str) -> str:
    """The governing package of a dotted module (``repro.net.grid`` ->
    ``repro.net``; top-level modules map to themselves)."""
    parts = module.split(".")
    return ".".join(parts[:2]) if len(parts) >= 2 else module


class ImportTable:
    """Where each local name in a module comes from.

    ``modules`` maps an alias to the module it names (``import
    repro.core.messages as m`` -> ``{"m": "repro.core.messages"}``);
    ``names`` maps a ``from``-imported local name to its dotted origin
    (``from repro.net.message import Message`` ->
    ``{"Message": "repro.net.message.Message"}``).  ``top_level`` maps
    each module imported at module scope (outside ``TYPE_CHECKING``)
    to the line of its first import — these are the edges that exist at
    runtime and feed cycle/layering analysis.
    """

    def __init__(self) -> None:
        self.modules: Dict[str, str] = {}
        self.names: Dict[str, str] = {}
        self.top_level: Dict[str, int] = {}
        self.type_checking: Set[str] = set()
        self.lazy: Set[str] = set()

    def _record_edge(self, module: str, lineno: int,
                     scope: str) -> None:
        if scope == "top":
            self.top_level.setdefault(module, lineno)
        elif scope == "type_checking":
            self.type_checking.add(module)
        else:
            self.lazy.add(module)

    def resolve(self, dotted: str) -> Optional[str]:
        """Resolve a local dotted reference to its import origin.

        ``m.COM_REQ`` (with ``import repro.core.messages as m``) ->
        ``repro.core.messages.COM_REQ``; a plain ``from``-imported name
        resolves through ``names``.  Returns ``None`` for names this
        module does not import.
        """
        head, _, rest = dotted.partition(".")
        if head in self.names:
            origin = self.names[head]
            return f"{origin}.{rest}" if rest else origin
        # Longest alias match first: ``import a.b`` binds ``a``, but a
        # reference ``a.b.c`` should resolve against ``a.b`` when both
        # are imported.
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            alias = ".".join(parts[:cut])
            if alias in self.modules:
                tail = ".".join(parts[cut:])
                base = self.modules[alias]
                return f"{base}.{tail}" if tail else base
        return None


class FunctionInfo:
    """One function or method: its AST plus approximate call edges."""

    def __init__(self, qualname: str, node: ast.AST,
                 class_name: Optional[str] = None) -> None:
        self.qualname = qualname
        self.node = node
        self.class_name = class_name
        #: methods invoked as ``self.<name>(...)``
        self.self_calls: Set[str] = set()
        #: resolved dotted call targets (imported or module-local)
        self.calls: Set[str] = set()


class ClassInfo:
    """A top-level class: methods plus resolved base-class names."""

    def __init__(self, name: str, node: ast.ClassDef) -> None:
        self.name = name
        self.node = node
        #: dotted origins of base classes where resolvable (mix-ins
        #: from sibling modules resolve through the import table).
        self.bases: List[str] = []
        self.methods: Dict[str, FunctionInfo] = {}


class ModuleInfo:
    """Symbol table and import table for one scanned module."""

    def __init__(self, name: str, ctx: FileContext) -> None:
        self.name = name
        self.ctx = ctx
        self.imports = ImportTable()
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: top-level ``NAME = <expr>`` assignments, and the string
        #: constants (``NAME = "literal"``) among them
        self.assignments: Dict[str, ast.expr] = {}
        self.constants: Dict[str, str] = {}
        self._collect()

    @property
    def package(self) -> str:
        return package_of(self.name)

    # -- reference resolution ------------------------------------------
    def resolve(self, dotted: str) -> Optional[str]:
        """Resolve a local reference to a project-wide dotted name.

        Imported names resolve through the import table; names defined
        in this module resolve to ``<module>.<name>``.
        """
        resolved = self.imports.resolve(dotted)
        if resolved is not None:
            return resolved
        head = dotted.partition(".")[0]
        if (head in self.functions or head in self.classes
                or head in self.constants):
            return f"{self.name}.{dotted}"
        return None

    def resolve_call(self, func: ast.AST) -> Optional[str]:
        """Resolve a ``Call.func`` node to a dotted target, if possible."""
        dotted = _dotted_source(func)
        if dotted is None:
            return None
        return self.resolve(dotted)

    # -- construction ---------------------------------------------------
    def _collect(self) -> None:
        body = self.ctx.tree.body
        self._walk_imports(body, "top")
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(stmt.name, stmt)
                _collect_calls(stmt, info, self.imports, self.name)
                self.functions[stmt.name] = info
            elif isinstance(stmt, ast.ClassDef):
                cls = ClassInfo(stmt.name, stmt)
                for base in stmt.bases:
                    dotted = _dotted_source(base)
                    if dotted is None:
                        continue
                    cls.bases.append(self.resolve(dotted) or dotted)
                for item in stmt.body:
                    if isinstance(item,
                                  (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qual = f"{stmt.name}.{item.name}"
                        info = FunctionInfo(qual, item,
                                            class_name=stmt.name)
                        _collect_calls(item, info, self.imports, self.name)
                        cls.methods[item.name] = info
                        self.functions[qual] = info
                    elif isinstance(item, ast.Assign):
                        # ``_handle_ch_nack = _handle_com_nack`` style
                        # method aliases: point the alias at the
                        # original's info so closures follow it.
                        if (isinstance(item.value, ast.Name)
                                and item.value.id in cls.methods):
                            original = cls.methods[item.value.id]
                            for target in item.targets:
                                if isinstance(target, ast.Name):
                                    cls.methods[target.id] = original
                self.classes[stmt.name] = cls
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets: Sequence[ast.expr] = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target])
                if (len(targets) == 1 and isinstance(targets[0], ast.Name)
                        and stmt.value is not None):
                    self.assignments[targets[0].id] = stmt.value
                    if (isinstance(stmt.value, ast.Constant)
                            and isinstance(stmt.value.value, str)):
                        self.constants[targets[0].id] = stmt.value.value

    def _walk_imports(self, body: Sequence[ast.stmt], scope: str) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    if alias.asname:
                        # ``import a.b as m`` binds ``m`` -> ``a.b``.
                        self.imports.modules[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds ``a``; record the full
                        # path too so ``a.b.c`` references resolve.
                        head = alias.name.partition(".")[0]
                        self.imports.modules.setdefault(head, head)
                        self.imports.modules.setdefault(alias.name,
                                                        alias.name)
                    self.imports._record_edge(alias.name, stmt.lineno,
                                              scope)
            elif isinstance(stmt, ast.ImportFrom):
                module = self._from_module(stmt)
                if module is None:
                    continue
                self.imports._record_edge(module, stmt.lineno, scope)
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    self.imports.names[alias.asname or alias.name] = (
                        f"{module}.{alias.name}")
            elif isinstance(stmt, ast.If):
                branch_scope = scope
                if scope == "top" and _is_type_checking(stmt.test):
                    branch_scope = "type_checking"
                self._walk_imports(stmt.body, branch_scope)
                self._walk_imports(stmt.orelse, scope)
            elif isinstance(stmt, (ast.Try, ast.With)):
                blocks: List[Sequence[ast.stmt]] = [stmt.body]
                if isinstance(stmt, ast.Try):
                    blocks += [h.body for h in stmt.handlers]
                    blocks += [stmt.orelse, stmt.finalbody]
                for block in blocks:
                    self._walk_imports(block, scope)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk_imports(stmt.body, "lazy")
            elif isinstance(stmt, ast.ClassDef):
                self._walk_imports(stmt.body, scope)

    def _from_module(self, stmt: ast.ImportFrom) -> Optional[str]:
        if not stmt.level:
            return stmt.module
        # Relative import: resolve against this module's package path.
        parts = self.name.split(".")
        anchor = parts[:-stmt.level] if len(parts) >= stmt.level else []
        if not anchor:
            return stmt.module
        if stmt.module:
            return ".".join(anchor + [stmt.module])
        return ".".join(anchor)


def _dotted_source(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if not isinstance(cursor, ast.Name):
        return None
    parts.append(cursor.id)
    return ".".join(reversed(parts))


def _is_type_checking(test: ast.AST) -> bool:
    dotted = _dotted_source(test)
    return dotted in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def _collect_calls(func: ast.AST, info: FunctionInfo,
                   imports: ImportTable, module: str) -> None:
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if isinstance(target, ast.Attribute):
            dotted = _dotted_source(target)
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            if head == "self" and rest and "." not in rest:
                info.self_calls.add(rest)
                continue
            resolved = imports.resolve(dotted)
            if resolved is not None:
                info.calls.add(resolved)
        elif isinstance(target, ast.Name):
            resolved = imports.resolve(target.id)
            info.calls.add(resolved if resolved is not None
                           else f"{module}.{target.id}")


class ProjectGraph:
    """The whole-program view: every scanned module, cross-linked."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self._by_relpath: Dict[str, FileContext] = {}
        for ctx in contexts:
            self._by_relpath[ctx.relpath] = ctx
            if ctx.module is None:
                continue
            # First spelling wins on duplicate module names (e.g. the
            # same tree passed twice); engine de-duplicates paths.
            self.modules.setdefault(ctx.module, ModuleInfo(ctx.module, ctx))

    # -- lookups --------------------------------------------------------
    def module(self, name: str) -> Optional[ModuleInfo]:
        return self.modules.get(name)

    def context_for(self, relpath: str) -> Optional[FileContext]:
        return self._by_relpath.get(relpath)

    def packages(self) -> Set[str]:
        return {mod.package for mod in self.modules.values()}

    def module_of_target(self, dotted: str) -> Optional[ModuleInfo]:
        """The scanned module that defines ``dotted`` (longest prefix)."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return self.modules[candidate]
        return None

    def class_of_target(
            self, dotted: str,
    ) -> Optional[Tuple[ModuleInfo, ClassInfo]]:
        mod = self.module_of_target(dotted)
        if mod is None:
            return None
        rest = dotted[len(mod.name) + 1:]
        cls = mod.classes.get(rest.partition(".")[0]) if rest else None
        if cls is None:
            return None
        return mod, cls

    # -- import edges ---------------------------------------------------
    def import_edges(
            self, *, include_type_checking: bool = False,
            include_lazy: bool = False,
    ) -> Iterator[Tuple[str, str, int]]:
        """Yield ``(importer, imported, lineno)`` for ``repro.*`` edges.

        Only modules under the ``repro`` namespace appear on either
        side; stdlib and third-party imports are not project edges.
        By default only *runtime, module-scope* imports are edges —
        ``TYPE_CHECKING``-gated and function-scoped imports are erased
        or deferred at runtime and are opt-in.
        """
        for mod in self.modules.values():
            table = mod.imports
            for target, lineno in sorted(table.top_level.items()):
                if _is_repro(target):
                    yield mod.name, target, lineno
            if include_type_checking:
                for target in sorted(table.type_checking):
                    if _is_repro(target):
                        yield mod.name, target, 1
            if include_lazy:
                for target in sorted(table.lazy):
                    if _is_repro(target):
                        yield mod.name, target, 1

    # -- method resolution over mix-in composition ----------------------
    def method_lookup(
            self, mod: ModuleInfo, cls: ClassInfo, method: str,
            _seen: Optional[Set[str]] = None,
    ) -> Optional[Tuple[ModuleInfo, FunctionInfo]]:
        """Find ``method`` on ``cls`` or (recursively) its bases."""
        if method in cls.methods:
            return mod, cls.methods[method]
        seen = _seen if _seen is not None else set()
        key = f"{mod.name}.{cls.name}"
        if key in seen:
            return None
        seen.add(key)
        for base in cls.bases:
            located = self.class_of_target(base)
            if located is None:
                continue
            base_mod, base_cls = located
            found = self.method_lookup(base_mod, base_cls, method,
                                       _seen=seen)
            if found is not None:
                return found
        return None

    # -- finding construction -------------------------------------------
    def finding(self, rule: "ProjectRule", mod: ModuleInfo,
                node: ast.AST, message: str) -> Finding:
        return mod.ctx.finding(rule, node, message)


def _is_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


class ProjectRule(abc.ABC):
    """One named invariant checked over the whole project graph.

    The counterpart of :class:`~repro.lint.core.Rule` for the second
    pass: ``check_project`` sees every module at once.  Findings must
    anchor to real file/line locations (via :meth:`ProjectGraph.finding`
    or ``ModuleInfo.ctx.finding``) so suppression directives and
    baselines behave identically for both rule kinds.
    """

    name: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR

    @abc.abstractmethod
    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        raise NotImplementedError


def strongly_connected_components(
        edges: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan's SCC over a string digraph; only SCCs of size > 1 (or
    self-loops) are cycles, but all components are returned in reverse
    topological order for the caller to filter."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = [0]

    def visit(root: str) -> None:
        # Iterative Tarjan: (node, iterator) frames.
        work: List[Tuple[str, Iterator[str]]] = []
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        work.append((root, iter(sorted(edges.get(root, ())))))
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in edges:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)

    for start in sorted(edges):
        if start not in index:
            visit(start)
    return components
