"""The cross-module rules that run over the :class:`ProjectGraph`.

Six invariants that no per-file pass can check:

* ``rng-taint`` — named RNG streams stay inside the subsystem that owns
  them, and generators never flow into cache-key construction.
* ``obs-coverage`` — the 18 typed obs events are constructed only by
  their declared emitter modules, every one is emitted somewhere, and
  each protocol terminal path emits exactly the terminal events the
  spec assigns it.
* ``state-machine`` — no message handler sends a message type outside
  its row of the protocol's transition table (``TABLE`` in
  :mod:`repro.core.messages`, read from that module's parsed source).
* ``counter-registry`` — every literal ``perf.incr``/``perf.get``/
  ``perf.timer`` name comes from the central registry
  (:mod:`repro.perf.counters`); dynamically-built names are errors.
* ``metric-registry`` — every literal ``metrics.record`` gauge name
  comes from the central registry (:mod:`repro.obs.metric_names`);
  dynamically-built names are errors.
* ``layering`` — runtime imports respect the layer DAG and introduce
  no module-level cycles.

All resolution is syntactic (see :mod:`repro.lint.project`); the rules
are written so a *missing* edge can only hide a violation, never invent
one — over-approximation lives in the committed spec, which is reviewed
rather than inferred at check time.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from repro.lint import protocol_spec as spec
from repro.lint.core import Finding, Severity
from repro.lint.project import (ClassInfo, FunctionInfo, ModuleInfo,
                                ProjectGraph, ProjectRule, _dotted_source,
                                package_of, strongly_connected_components)

# ---------------------------------------------------------------------------
# Shared machinery: message-send extraction for the state-machine rule
# ---------------------------------------------------------------------------

def _message_names_in(expr: ast.AST, mod: ModuleInfo,
                      local_map: Dict[str, Set[str]]) -> Set[str]:
    """Message-constant names an expression may evaluate to.

    Follows ``m.COM_REQ``-style attribute reads (resolved through the
    module's imports to the messages module), plain ``from``-imported
    names, conditional expressions, and simple local rebindings
    (``nack = m.CH_NACK if head else m.COM_NACK``).
    """
    if isinstance(expr, ast.IfExp):
        return (_message_names_in(expr.body, mod, local_map)
                | _message_names_in(expr.orelse, mod, local_map))
    if isinstance(expr, ast.BoolOp):
        out: Set[str] = set()
        for value in expr.values:
            out |= _message_names_in(value, mod, local_map)
        return out
    dotted = _dotted_source(expr)
    if dotted is None:
        return set()
    if isinstance(expr, ast.Name) and expr.id in local_map:
        return set(local_map[expr.id])
    resolved = mod.resolve(dotted)
    if resolved is not None and resolved.startswith(
            spec.MESSAGES_MODULE + "."):
        name = resolved[len(spec.MESSAGES_MODULE) + 1:]
        if "." not in name:
            return {name}
    return set()


def _local_message_bindings(func: ast.AST,
                            mod: ModuleInfo) -> Dict[str, Set[str]]:
    out: Dict[str, Set[str]] = {}
    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            names = _message_names_in(node.value, mod, {})
            if names:
                out[node.targets[0].id] = names
    return out


def direct_sends(info: FunctionInfo, mod: ModuleInfo) -> Dict[str, int]:
    """Message types this function sends directly -> first line.

    A *send* is either the mtype argument of a ``self._send`` /
    ``self._send_with_retry`` call or the ``mtype=`` keyword of a
    ``Message(...)`` construction (broadcast floods build the message
    and hand it to ``transport.send``).  Reads used purely for
    comparison (``msg.mtype == m.X``) do not count.
    """
    local_map = _local_message_bindings(info.node, mod)
    sends: Dict[str, int] = {}
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_source(node.func)
        if (dotted is not None and dotted.startswith("self.")
                and dotted[5:] in spec.SEND_HELPERS):
            if len(node.args) >= 2:
                for name in _message_names_in(node.args[1], mod, local_map):
                    sends.setdefault(name, node.lineno)
            continue
        resolved = mod.resolve_call(node.func)
        if resolved is not None and resolved.endswith(".Message"):
            for kw in node.keywords:
                if kw.arg == "mtype":
                    for name in _message_names_in(kw.value, mod, local_map):
                        sends.setdefault(name, node.lineno)
    return sends


class _Dispatch:
    """Self-call resolution including the subclass 'bounce'.

    ``self.method()`` inside a mix-in dispatches, at runtime, on the
    composed agent class.  Resolution therefore first walks the
    defining class's own bases, then falls back to any scanned class
    that (transitively) inherits the defining class.
    """

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self._subclasses: Optional[
            Dict[str, List[Tuple[ModuleInfo, ClassInfo]]]] = None

    def _subclass_map(self) -> Dict[str, List[Tuple[ModuleInfo, ClassInfo]]]:
        if self._subclasses is None:
            out: Dict[str, List[Tuple[ModuleInfo, ClassInfo]]] = {}
            for mod in self.graph.modules.values():
                for cls in mod.classes.values():
                    for ancestor in self._ancestors(mod, cls):
                        out.setdefault(ancestor, []).append((mod, cls))
            self._subclasses = out
        return self._subclasses

    def _ancestors(self, mod: ModuleInfo, cls: ClassInfo,
                   _seen: Optional[Set[str]] = None) -> Set[str]:
        seen = _seen if _seen is not None else set()
        for base in cls.bases:
            located = self.graph.class_of_target(base)
            if located is None:
                continue
            base_mod, base_cls = located
            key = f"{base_mod.name}.{base_cls.name}"
            if key in seen:
                continue
            seen.add(key)
            self._ancestors(base_mod, base_cls, _seen=seen)
        return seen

    def resolve(self, mod: ModuleInfo, cls: ClassInfo,
                method: str) -> Optional[Tuple[ModuleInfo, FunctionInfo]]:
        found = self.graph.method_lookup(mod, cls, method)
        if found is not None:
            return found
        key = f"{mod.name}.{cls.name}"
        for sub_mod, sub_cls in self._subclass_map().get(key, ()):
            found = self.graph.method_lookup(sub_mod, sub_cls, method)
            if found is not None:
                return found
        return None


def _event_calls(root: ast.AST,
                 mod: ModuleInfo) -> Iterator[Tuple[str, ast.Call]]:
    """``(event class name, call)`` for every obs event constructed
    under ``root``."""
    prefix = spec.EVENTS_MODULE + "."
    for node in ast.walk(root):
        if isinstance(node, ast.Call):
            resolved = mod.resolve_call(node.func)
            if (resolved is not None and resolved.startswith(prefix)
                    and "." not in resolved[len(prefix):]):
                yield resolved[len(prefix):], node


def direct_emits(info: FunctionInfo, mod: ModuleInfo) -> Dict[str, int]:
    """Obs event classes this function constructs directly -> first line."""
    emits: Dict[str, int] = {}
    for name, node in _event_calls(info.node, mod):
        emits.setdefault(name, node.lineno)
    return emits


def closure(graph: ProjectGraph, mod: ModuleInfo, cls: ClassInfo,
            method: str,
            visit: Callable[[FunctionInfo, ModuleInfo], Dict[str, int]],
            dispatch: Optional[_Dispatch] = None) -> Dict[str, int]:
    """What ``visit`` (:func:`direct_sends`, :func:`direct_emits`) finds
    in ``method`` and every ``self.`` helper it transitively reaches ->
    line (the visitor's own line inside the entry method; finds in
    helpers anchor to the entry method's definition line)."""
    dispatch = dispatch if dispatch is not None else _Dispatch(graph)
    entry = dispatch.resolve(mod, cls, method)
    if entry is None:
        return {}
    entry_line = getattr(entry[1].node, "lineno", 1)
    found: Dict[str, int] = {}
    visited: Set[int] = set()
    stack: List[Tuple[ModuleInfo, FunctionInfo]] = [entry]
    first = True
    while stack:
        cur_mod, cur_info = stack.pop()
        if id(cur_info) in visited:
            continue
        visited.add(id(cur_info))
        for name, lineno in visit(cur_info, cur_mod).items():
            found.setdefault(name, lineno if first else entry_line)
        for callee in sorted(cur_info.self_calls):
            located = dispatch.resolve(mod, cls, callee)
            if located is not None:
                stack.append(located)
        first = False
    return found


def transition_table(mod: ModuleInfo) -> Optional[Dict[str, Set[str]]]:
    """``received type -> sendable constant names`` from the messages
    module's ``TABLE = {CONSTANT: (CONSTANT, ...), ...}`` literal;
    ``None`` when it is missing or a row has any other shape."""
    literal = mod.assignments.get(spec.MESSAGES_TABLE)
    if not isinstance(literal, ast.Dict):
        return None
    table: Dict[str, Set[str]] = {}
    for key, row in zip(literal.keys, literal.values):
        if not isinstance(row, ast.Tuple):
            return None
        cells = [key, *row.elts]
        names = [cell.id for cell in cells
                 if isinstance(cell, ast.Name) and cell.id in mod.constants]
        if len(names) != len(cells):
            return None
        table[mod.constants[names[0]]] = set(names[1:])
    return table


# ---------------------------------------------------------------------------
# Rule 1: state-machine conformance
# ---------------------------------------------------------------------------

class StateMachineRule(ProjectRule):
    name = "state-machine"
    description = ("message handlers may only send message types the "
                   "protocol state machine allows for their state")
    severity = Severity.ERROR

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        messages = graph.module(spec.MESSAGES_MODULE)
        if messages is None:
            return
        table = transition_table(messages)
        if table is None:
            yield graph.finding(
                self, messages, messages.ctx.tree,
                f"{spec.MESSAGES_MODULE}.{spec.MESSAGES_TABLE} must be a "
                f"dict literal mapping each message constant to a tuple of "
                f"message constants; the rule cannot read it otherwise")
            return
        dispatch = _Dispatch(graph)
        for mod_name in sorted(graph.modules):
            mod = graph.modules[mod_name]
            if mod.package not in spec.STATE_MACHINE_PACKAGES:
                continue
            for cls_name in sorted(mod.classes):
                cls = mod.classes[cls_name]
                for method in sorted(cls.methods):
                    if not method.startswith("_handle_"):
                        continue
                    mtype = method[len("_handle_"):].upper()
                    # A handler without a row cannot be dispatched to:
                    # creating the agent class fails first (see
                    # repro.net.message.MessageDispatch).
                    allowed = table.get(mtype)
                    if allowed is None:
                        continue
                    sends = closure(graph, mod, cls, method, direct_sends,
                                    dispatch=dispatch)
                    for sent in sorted(set(sends) - allowed):
                        yield graph.finding(
                            self, mod, cls.methods[method].node,
                            f"{cls_name}.{method} may send {sent}, which "
                            f"the state machine does not allow in "
                            f"response to {mtype} (allowed: "
                            f"{', '.join(sorted(allowed)) or 'none'})")


# ---------------------------------------------------------------------------
# Rule 2: obs event coverage
# ---------------------------------------------------------------------------

class ObsCoverageRule(ProjectRule):
    name = "obs-coverage"
    description = ("obs events are emitted only by their declared "
                   "modules, every event type has an emitter, and "
                   "terminal paths emit exactly their assigned events")
    severity = Severity.ERROR

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        events_module = spec.EVENTS_MODULE
        constructed: Dict[str, Set[str]] = {}
        for mod_name in sorted(graph.modules):
            mod = graph.modules[mod_name]
            if mod.name == events_module:
                continue
            for event, node in _event_calls(mod.ctx.tree, mod):
                if event not in spec.EVENT_EMITTERS:
                    continue
                constructed.setdefault(event, set()).add(mod.name)
                if mod.name not in spec.EVENT_EMITTERS[event]:
                    yield graph.finding(
                        self, mod, node,
                        f"{event} is constructed outside its declared "
                        f"emitters ({', '.join(sorted(spec.EVENT_EMITTERS[event]))})")
        events_mod = graph.module(events_module)
        if events_mod is not None:
            for event in sorted(spec.EVENT_EMITTERS):
                if constructed.get(event):
                    continue
                anchor: ast.AST = events_mod.ctx.tree
                cls = events_mod.classes.get(event)
                if cls is not None:
                    anchor = cls.node
                yield graph.finding(
                    self, events_mod, anchor,
                    f"event {event} is never emitted by any scanned "
                    f"module (declared emitters: "
                    f"{', '.join(sorted(spec.EVENT_EMITTERS[event]))})")
        dispatch = _Dispatch(graph)
        for qualname in sorted(spec.TERMINAL_PATHS):
            expected = spec.TERMINAL_PATHS[qualname]
            located = graph.class_of_target(qualname)
            if located is None:
                continue
            mod, cls = located
            method = qualname.rsplit(".", 1)[1]
            info = cls.methods.get(method)
            if info is None:
                yield graph.finding(
                    self, mod, cls.node,
                    f"terminal path {qualname} listed in the spec does "
                    f"not exist; update repro/lint/protocol_spec.py")
                continue
            emitted = closure(graph, mod, cls, method, direct_emits,
                              dispatch=dispatch)
            terminal = {e for e in emitted if e in spec.TERMINAL_EVENTS}
            for missing in sorted(expected - terminal):
                yield graph.finding(
                    self, mod, info.node,
                    f"terminal path {cls.name}.{method} never emits "
                    f"{missing} (required by the emission map)")
            for extra in sorted(terminal - expected):
                yield graph.finding(
                    self, mod, info.node,
                    f"terminal path {cls.name}.{method} emits {extra}, "
                    f"which the emission map does not assign to it")


# ---------------------------------------------------------------------------
# Rule 3: RNG stream taint
# ---------------------------------------------------------------------------

_STREAM_METHODS = ("get", "fork", "spawn")


def _stream_creation(node: ast.Call,
                     mod: ModuleInfo) -> Optional[Tuple[str, Optional[str]]]:
    """``("stream", name)`` for ``*.streams.get/fork("name")`` calls,
    ``("raw", None)`` for ``generator_from_seed(...)``, else ``None``.
    The name is the literal (or f-string literal prefix) stream name."""
    dotted = _dotted_source(node.func)
    if dotted is not None:
        parts = dotted.split(".")
        if (len(parts) >= 2 and parts[-2] == "streams"
                and parts[-1] in _STREAM_METHODS):
            name: Optional[str] = None
            if node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(arg.value,
                                                                str):
                    name = arg.value
                elif isinstance(arg, ast.JoinedStr) and arg.values:
                    head = arg.values[0]
                    if (isinstance(head, ast.Constant)
                            and isinstance(head.value, str)):
                        name = head.value
            return "stream", name
    resolved = mod.resolve_call(node.func)
    if resolved is not None and resolved.endswith(".generator_from_seed"):
        return "raw", None
    return None


def _stream_owner(name: str) -> Optional[str]:
    best: Optional[str] = None
    best_len = -1
    for prefix, owner in spec.STREAM_OWNERS.items():
        if name.startswith(prefix) and len(prefix) > best_len:
            best, best_len = owner, len(prefix)
    return best


class RngTaintRule(ProjectRule):
    name = "rng-taint"
    description = ("named RNG streams stay inside their owning "
                   "subsystem; generators never reach another package "
                   "or cache-key construction undeclared")
    severity = Severity.ERROR

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for mod_name in sorted(graph.modules):
            mod = graph.modules[mod_name]
            if mod.name == spec.RNG_MODULE:
                continue
            for info in self._functions(mod):
                yield from self._check_function(graph, mod, info)

    @staticmethod
    def _functions(mod: ModuleInfo) -> Iterator[FunctionInfo]:
        seen: Set[int] = set()
        for info in mod.functions.values():
            if id(info) not in seen:
                seen.add(id(info))
                yield info

    def _check_function(self, graph: ProjectGraph, mod: ModuleInfo,
                        info: FunctionInfo) -> Iterator[Finding]:
        tainted: Set[str] = set()
        for node in ast.walk(info.node):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.value, ast.Call)):
                created = _stream_creation(node.value, mod)
                if created is None:
                    continue
                target = _dotted_source(node.targets[0])
                if target is not None:
                    tainted.add(target)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            created = _stream_creation(node, mod)
            if created is not None and created[0] == "stream":
                name = created[1]
                owner = _stream_owner(name) if name is not None else None
                if name is not None and owner is None:
                    yield graph.finding(
                        self, mod, node,
                        f"stream {name!r} has no declared owner; add it "
                        f"to STREAM_OWNERS in repro/lint/protocol_spec.py")
                elif (owner is not None and owner != mod.package
                      and (mod.package, owner) not in spec.STREAM_SHARING):
                    yield graph.finding(
                        self, mod, node,
                        f"stream {name!r} belongs to {owner}; "
                        f"{mod.package} must not consume it (declare "
                        f"the flow in protocol_spec.STREAM_SHARING if "
                        f"intentional)")
                continue
            yield from self._check_flow(graph, mod, node, tainted)

    def _check_flow(self, graph: ProjectGraph, mod: ModuleInfo,
                    node: ast.Call,
                    tainted: Set[str]) -> Iterator[Finding]:
        args: List[ast.AST] = list(node.args)
        args += [kw.value for kw in node.keywords]
        carried = []
        for arg in args:
            dotted = _dotted_source(arg)
            if dotted is not None and dotted in tainted:
                carried.append(dotted)
            elif isinstance(arg, ast.Call) and _stream_creation(arg, mod):
                carried.append("<anonymous stream>")
        if not carried:
            return
        resolved = mod.resolve_call(node.func)
        if resolved is None:
            return
        if resolved in spec.CACHE_KEY_SINKS:
            yield graph.finding(
                self, mod, node,
                f"RNG generator {carried[0]} flows into cache-key/"
                f"serialization sink {resolved}; cache keys must be "
                f"derived from seeds, never generator objects")
            return
        target_pkg = package_of(resolved)
        if (not resolved.startswith("repro.")
                or target_pkg == mod.package):
            return
        if (mod.package, target_pkg) in spec.GENERATOR_FLOWS:
            return
        yield graph.finding(
            self, mod, node,
            f"RNG generator {carried[0]} flows from {mod.package} into "
            f"{target_pkg} via {resolved}; declare the flow in "
            f"protocol_spec.GENERATOR_FLOWS or derive a child stream "
            f"at the boundary")


# ---------------------------------------------------------------------------
# Rules 4 and 5: name registries (perf counters, metric gauges)
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class RegistryRule(ProjectRule):
    """Literal names handed to a recorder come from its registry module.

    Governs ``<x>.<method>("name", ...)`` calls whose receiver chain ends
    in a component named ``receiver`` (``self.perf``, ``ctx.perf``, a
    ``metrics`` parameter, ...).
    """

    registry: str
    receiver: str
    methods: Tuple[str, ...]
    label: str      # how messages spell a governed call
    why: str        # what an unregistered name breaks
    #: (registry constant name, called method) -> is the constant a
    #: legal argument of that method
    legal: Callable[[str, str], bool]
    name: str = ""
    description: str = ""

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        registry = graph.module(self.registry)
        if registry is None:
            return
        known = {method: {value for name, value in registry.constants.items()
                          if self.legal(name, method)}
                 for method in self.methods}
        for mod_name in sorted(graph.modules):
            mod = graph.modules[mod_name]
            if mod.name == self.registry:
                continue
            for node in ast.walk(mod.ctx.tree):
                if not (isinstance(node, ast.Call) and node.args
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in self.methods):
                    continue
                dotted = _dotted_source(node.func.value)
                if dotted is None or not (
                        dotted == self.receiver
                        or dotted.endswith("." + self.receiver)):
                    continue
                arg = node.args[0]
                call = self.label.format(method=node.func.attr)
                if isinstance(arg, ast.Constant) and isinstance(arg.value,
                                                                str):
                    if arg.value not in known[node.func.attr]:
                        yield graph.finding(
                            self, mod, node,
                            f"{call}({arg.value!r}) is not in the "
                            f"{self.registry} registry — import the "
                            f"constant ({self.why})")
                elif isinstance(arg, ast.JoinedStr):
                    yield graph.finding(
                        self, mod, node,
                        f"{call}() name is built dynamically; use a "
                        f"registry constant or helper from {self.registry}")


# ---------------------------------------------------------------------------
# Rule 6: layering
# ---------------------------------------------------------------------------

class LayeringRule(ProjectRule):
    name = "layering"
    description = ("runtime imports respect the layer DAG and form no "
                   "module-level cycles")
    severity = Severity.ERROR

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        edges = list(graph.import_edges())
        for src, dst, lineno in edges:
            src_layer = self._layer(src)
            dst_layer = self._layer(dst)
            if src_layer is None or dst_layer is None:
                continue
            if src_layer < dst_layer:
                mod = graph.module(src)
                if mod is None:
                    continue
                anchor = _ImportAnchor(lineno)
                yield graph.finding(
                    self, mod, anchor,
                    f"layer violation: {src} (layer {src_layer}, "
                    f"{self._layer_name(src)}) imports {dst} (layer "
                    f"{dst_layer}, {self._layer_name(dst)}); lower "
                    f"layers must not depend on higher ones")
        yield from self._cycles(graph, edges)

    def _cycles(self, graph: ProjectGraph,
                edges: Sequence[Tuple[str, str, int]]) -> Iterator[Finding]:
        digraph: Dict[str, Set[str]] = {name: set() for name in
                                        graph.modules}
        lines: Dict[Tuple[str, str], int] = {}
        for src, dst, lineno in edges:
            if dst not in graph.modules:
                continue
            if dst == src or dst.startswith(src + "."):
                # A package __init__ importing its own submodules
                # (``from repro.x import y`` resolves to the package
                # itself when seen from inside it) is the re-export
                # idiom, not an architectural cycle.
                continue
            digraph[src].add(dst)
            lines[(src, dst)] = lineno
        for component in strongly_connected_components(digraph):
            cyclic = len(component) > 1 or (
                component[0] in digraph.get(component[0], ()))
            if not cyclic:
                continue
            members = sorted(component)
            head = members[0]
            mod = graph.module(head)
            if mod is None:
                continue
            lineno = min(
                (lines[(head, other)] for other in digraph[head]
                 if other in component and (head, other) in lines),
                default=1)
            yield graph.finding(
                self, mod, _ImportAnchor(lineno),
                f"import cycle between modules: {' -> '.join(members)} "
                f"(runtime, module-scope imports only)")

    @staticmethod
    def _layer(module: str) -> Optional[int]:
        best: Optional[int] = None
        best_len = -1
        for prefix, layer in spec.LAYERS.items():
            if ((module == prefix or module.startswith(prefix + "."))
                    and len(prefix) > best_len):
                best, best_len = layer, len(prefix)
        return best

    @staticmethod
    def _layer_name(module: str) -> str:
        layer = LayeringRule._layer(module)
        return spec.LAYER_NAMES.get(layer, "?") if layer is not None \
            else "?"


class _ImportAnchor:
    """A minimal AST-node stand-in anchoring a finding to a line."""

    def __init__(self, lineno: int) -> None:
        self.lineno = lineno
        self.col_offset = 0


PROJECT_RULES: Tuple[ProjectRule, ...] = (
    RngTaintRule(),
    ObsCoverageRule(),
    StateMachineRule(),
    RegistryRule(
        name="counter-registry",
        description=("PerfRecorder counter/timer names come from the "
                     "repro.perf.counters registry, never inline literals"),
        registry=spec.COUNTERS_MODULE, receiver="perf",
        methods=("incr", "get", "timer"), label="perf {method}",
        why="typo'd counters report zeros silently",
        # TIMER_* constants name timers, every other one a counter.
        legal=lambda name, method: (
            name.startswith("TIMER_") == (method == "timer"))),
    RegistryRule(
        name="metric-registry",
        description=("MetricsRecorder gauge names come from the "
                     "repro.obs.metric_names registry, never inline "
                     "literals"),
        registry=spec.METRIC_NAMES_MODULE, receiver="metrics",
        methods=("record",), label="metrics.{method}",
        why="unregistered names fragment the series schema across runs",
        # *_PREFIX constants are family stems consumed by the registry's
        # helper functions, not sampleable names themselves.
        legal=lambda name, method: not name.endswith("_PREFIX")),
    LayeringRule(),
)
