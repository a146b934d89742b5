"""One parsed file: what every rule reads.

A :class:`FileContext` is one file's AST, its inferred dotted module
name and its :class:`ImportTable`; a :class:`Finding` is one violation
anchored to a line of it.  :func:`parse_tree` reads and parses the
files, once; a rule body is pure AST traversal.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Sequence


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source line.  Every finding
    fails the rule's test."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"error[{self.rule}] {self.message}")


def dotted_source(node: ast.AST) -> Optional[str]:
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
    return dotted_source(test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


class ImportTable:
    """Where each local name in a module comes from.

    ``modules`` maps an alias to the module it names (``import
    repro.core.messages as m`` -> ``{"m": "repro.core.messages"}``);
    ``names`` maps a ``from``-imported local name to its dotted origin
    (``from repro.net.message import Message`` ->
    ``{"Message": "repro.net.message.Message"}``).  Imports anywhere in
    the file count.  ``top_level`` maps each module imported at runtime
    module scope — not inside a function, not under ``if
    TYPE_CHECKING:`` — to the line of its first import: the edges that
    exist when the module loads, which the layering rule checks.
    """

    def __init__(self, tree: ast.Module, module: Optional[str]) -> None:
        self.modules: Dict[str, str] = {}
        self.names: Dict[str, str] = {}
        self.top_level: Dict[str, int] = {}
        self._module = module
        self._visit(tree, runtime=True)

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

    def _visit(self, node: ast.AST, runtime: bool) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    # ``import a.b as m`` binds ``m`` -> ``a.b``.
                    self.modules[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds ``a``; record the full path
                    # too so ``a.b.c`` references resolve.
                    head = alias.name.partition(".")[0]
                    self.modules.setdefault(head, head)
                    self.modules.setdefault(alias.name, alias.name)
                self._edge(alias.name, node.lineno, runtime)
        elif isinstance(node, ast.ImportFrom):
            module = self._from_module(node)
            if module is None:
                return
            self._edge(module, node.lineno, runtime)
            for alias in node.names:
                if alias.name != "*":
                    self.names[alias.asname or alias.name] = (
                        f"{module}.{alias.name}")
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            for stmt in node.body:
                self._visit(stmt, runtime=False)
            for stmt in node.orelse:
                self._visit(stmt, runtime)
        else:
            inner = runtime and not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for child in ast.iter_child_nodes(node):
                # Imports are statements, and no expression holds one.
                if not isinstance(child, ast.expr):
                    self._visit(child, inner)

    def _edge(self, module: str, lineno: int, runtime: bool) -> None:
        if runtime:
            self.top_level.setdefault(module, lineno)

    def _from_module(self, stmt: ast.ImportFrom) -> Optional[str]:
        if not stmt.level or self._module is None:
            return stmt.module
        # Relative import: resolve against this module's package path.
        parts = self._module.split(".")
        anchor = parts[:-stmt.level] if len(parts) >= stmt.level else []
        if not anchor:
            return stmt.module
        if stmt.module:
            return ".".join(anchor + [stmt.module])
        return ".".join(anchor)


class FileContext:
    """Everything a rule may look at for one file: its path relative to
    the scanned root, its dotted module name (``None`` outside a
    ``repro`` package), AST, every node of it in ``ast.walk`` order,
    source lines and import table."""

    def __init__(self, relpath: str, module: Optional[str], tree: ast.Module,
                 lines: List[str]) -> None:
        self.relpath = relpath
        self.module = module
        self.tree = tree
        self.nodes = list(ast.walk(tree))
        self.lines = lines
        self.imports = ImportTable(tree, module)

    def in_package(self, *prefixes: str) -> bool:
        """Does this file's module live under any of ``prefixes``?"""
        if self.module is None:
            return False
        return any(self.module == p or self.module.startswith(p + ".")
                   for p in prefixes)

    def is_module(self, *names: str) -> bool:
        return self.module is not None and self.module in names

    def finding(self, rule: str, node: object, message: str) -> Finding:
        return Finding(rule=rule, path=self.relpath,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0), message=message)


def module_name_for(path: Path) -> Optional[str]:
    """Infer the dotted module name from a file path.

    The convention is positional: the module path starts at the last
    ``repro`` directory component (``.../src/repro/core/state.py`` ->
    ``repro.core.state``), which also maps fixture trees laid out as
    ``<tmp>/src/repro/...`` in tests.  Files outside a ``repro``
    package (examples, benchmarks) have no module name; per-package
    rules skip them while path-scoped rules (hop-bound) still apply.
    """
    parts = list(path.with_suffix("").parts)
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            dotted = parts[index:]
            if dotted[-1] == "__init__":
                dotted = dotted[:-1]
            return ".".join(dotted)
    return None


def parse_source(relpath: str, source: str) -> FileContext:
    """Parse ``source`` as the file at ``relpath``; a ``SyntaxError``
    propagates with that path and the line."""
    return FileContext(relpath=relpath, module=module_name_for(Path(relpath)),
                       tree=ast.parse(source, filename=relpath),
                       lines=source.splitlines())


def parse_tree(root: Path, names: Sequence[str]) -> List[FileContext]:
    """Every ``.py`` file under ``root/<name>`` for each existing name,
    in path order, parsed once; paths are relative to ``root``."""
    return [parse_source(path.relative_to(root).as_posix(),
                         path.read_text(encoding="utf-8"))
            for name in names if (root / name).is_dir()
            for path in sorted((root / name).rglob("*.py"))]
