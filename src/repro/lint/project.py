"""Whole-program analysis: modules, classes, methods and import edges.

A rule that looks at one file at a time cannot see invariants that
*span* modules — an RNG stream created in one subsystem and consumed
in another, a protocol terminal path whose obs event is emitted by a
helper two calls away, an import cycle.  :class:`ProjectGraph` is built
once per lint run from every parsed
:class:`~repro.lint.core.FileContext` and is what every rule receives:
``files`` for rules that walk the parsed files themselves, ``modules``
for the cross-linked view — per ``repro`` module a symbol table of
top-level functions/classes/assignments, and ``self.method`` call
edges.

Resolution is deliberately *syntactic and over-approximate*: ``import``
aliases and ``from``-imports are followed, attribute chains rooted at a
module alias resolve to dotted names, and ``self.method()`` resolves
through the class's declared bases (mix-in composition included).
Dynamic dispatch (``getattr``), re-exports through ``__init__`` and
monkey-patching are out of scope — rules built on this layer must
tolerate a missing edge, never crash on one.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.core import FileContext, dotted_source


def package_of(module: str) -> str:
    """The governing package of a dotted module (``repro.net.grid`` ->
    ``repro.net``; top-level modules map to themselves)."""
    parts = module.split(".")
    return ".".join(parts[:2]) if len(parts) >= 2 else module


class FunctionInfo:
    """One function or method: its AST and the methods it invokes as
    ``self.<name>(...)``."""

    def __init__(self, node: ast.AST) -> None:
        self.node = node
        self.self_calls: Set[str] = set()
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)):
                continue
            head, _, rest = (dotted_source(call.func) or "").partition(".")
            if head == "self" and rest and "." not in rest:
                self.self_calls.add(rest)


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
    """Symbol table of one scanned ``repro`` module."""

    def __init__(self, name: str, ctx: FileContext) -> None:
        self.name = name
        self.ctx = ctx
        self.imports = ctx.imports
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
        dotted = dotted_source(func)
        if dotted is None:
            return None
        return self.resolve(dotted)

    # -- construction ---------------------------------------------------
    def _collect(self) -> None:
        for stmt in self.ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = FunctionInfo(stmt)
            elif isinstance(stmt, ast.ClassDef):
                cls = ClassInfo(stmt.name, stmt)
                for base in stmt.bases:
                    dotted = dotted_source(base)
                    if dotted is None:
                        continue
                    cls.bases.append(self.resolve(dotted) or dotted)
                for item in stmt.body:
                    if isinstance(item,
                                  (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info = FunctionInfo(item)
                        cls.methods[item.name] = info
                        self.functions[f"{stmt.name}.{item.name}"] = info
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


class ProjectGraph:
    """The whole-program view: every scanned file, and every ``repro``
    module among them cross-linked."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.files: List[FileContext] = list(contexts)
        self.modules: Dict[str, ModuleInfo] = {}
        for ctx in self.files:
            if ctx.module is None:
                continue
            # First spelling wins on duplicate module names (e.g. the
            # same tree passed twice); engine de-duplicates paths.
            self.modules.setdefault(ctx.module, ModuleInfo(ctx.module, ctx))

    # -- lookups --------------------------------------------------------
    def module(self, name: str) -> Optional[ModuleInfo]:
        return self.modules.get(name)

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

    def import_edges(self) -> Iterator[Tuple[str, str, int]]:
        """Yield ``(importer, imported, lineno)`` for every runtime,
        module-scope import between ``repro`` modules (stdlib and
        third-party imports are not project edges)."""
        for mod in self.modules.values():
            for target, lineno in sorted(mod.imports.top_level.items()):
                if target == "repro" or target.startswith("repro."):
                    yield mod.name, target, lineno

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
