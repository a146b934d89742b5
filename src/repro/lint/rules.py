"""The rule suite: the checks only source analysis can make.

A :class:`Rule` is a name, a one-line description and a ``find``
function over the whole :class:`~repro.lint.project.ProjectGraph`.
Three rules walk the parsed files one at a time and read their imports
through each file's :class:`~repro.lint.core.ImportTable`:

* ``determinism`` — no wall clock, module-level ``random``, ``uuid``/
  ``secrets``, or ``random.Random`` built outside :mod:`repro.sim.rng`.
* ``hop-bound`` — topology hop queries state their search bound, and
  protocol code never floods one on purpose.
* ``no-oracle-import`` — the runtime never imports numpy, networkx or
  the test-only oracle.

Six need the cross-linked program:

* ``rng-taint`` — named RNG streams stay inside the subsystem that owns
  them, and generators never flow into cache-key construction.
* ``obs-coverage`` — the 18 typed obs events are constructed only by
  their declared emitter modules, every one is emitted somewhere, and
  each protocol terminal path emits exactly the terminal events the
  spec assigns it.
* ``state-machine`` — no message handler sends a message type outside
  its row of the protocol's transition table (``TABLE`` in
  :mod:`repro.core.messages`, read from that module's parsed source).
* ``counter-registry`` / ``metric-registry`` — every literal
  ``perf.incr``/``perf.get``/``perf.timer`` and ``metrics.record`` name
  comes from its central registry (:mod:`repro.perf.counters`,
  :mod:`repro.obs.metric_names`); dynamically-built names are findings.
* ``layering`` — runtime imports respect the layer DAG and introduce
  no module-level cycles.

Resolution is syntactic (see :mod:`repro.lint.project`); the rules are
written so a *missing* edge can only hide a violation, never invent one
— over-approximation lives in the committed spec
(:mod:`repro.lint.protocol_spec`), which is reviewed rather than
inferred at check time.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.lint import protocol_spec as spec
from repro.lint.core import FileContext, Finding, dotted_source
from repro.lint.project import (ClassInfo, FunctionInfo, ModuleInfo,
                                ProjectGraph, package_of,
                                strongly_connected_components)

#: What a rule's ``find`` yields: the file, the node the finding
#: anchors to (anything with ``lineno``/``col_offset``) and the message.
Hit = Tuple[FileContext, object, str]


@dataclasses.dataclass(frozen=True)
class Rule:
    """One named invariant, checked over the whole program."""

    name: str
    description: str
    find: Callable[[ProjectGraph], Iterator[Hit]]

    def check(self, graph: ProjectGraph) -> Iterator[Finding]:
        for ctx, node, message in self.find(graph):
            yield ctx.finding(self.name, node, message)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

# Packages whose runtime must stay deterministic and dependency-free.
# repro.perf (wall-clock timers by design), repro.experiments.sweep
# (wall-clock reporting around the cached runs), the lint CLI and
# repro.obs.profile (the subsystem profiler times event callbacks on
# the engine's behalf) are the sanctioned exceptions.
_WALLCLOCK_ALLOWED = ("repro.perf", "repro.experiments.sweep",
                      "repro.lint.cli", "repro.obs.profile")

_TIME_BANNED = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
}
_DATETIME_BANNED = {"now", "utcnow", "today"}
_RANDOM_MODULE_FNS = {
    "seed", "random", "uniform", "randint", "randrange", "getrandbits",
    "choice", "choices", "shuffle", "sample", "triangular", "betavariate",
    "binomialvariate", "expovariate", "gammavariate", "gauss",
    "lognormvariate", "normalvariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "randbytes",
}
_ENTROPY_ROOTS = {"uuid", "secrets"}
_GENERATORS = {"Random", "SystemRandom"}
_GENERATOR_ORIGINS = {f"random.{name}" for name in _GENERATORS}


def _determinism(graph: ProjectGraph) -> Iterator[Hit]:
    """Serial/parallel bit-identity and fault-injection cache safety
    both require every source of nondeterminism to flow through the
    simulated clock (:mod:`repro.sim.engine`) and named RNG streams
    (:mod:`repro.sim.rng`) — and every generator to be built in that one
    module, where each consumer gets a stream derived from the master
    seed."""
    for ctx in graph.files:
        if not ctx.in_package("repro"):
            continue
        clock = not ctx.in_package(*_WALLCLOCK_ALLOWED)
        generators = not ctx.is_module(spec.RNG_MODULE)
        for node in ast.walk(ctx.tree):
            if clock:
                yield from _clock_and_entropy(ctx, node)
            if generators and isinstance(node, ast.Call) and \
                    _builds_generator(ctx, node.func):
                yield (ctx, node,
                       "construct generators via repro.sim.rng "
                       "(RandomStreams / generator_from_seed), not ad hoc")


def _builds_generator(ctx: FileContext, func: ast.expr) -> bool:
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (ctx.imports.modules.get(func.value.id) == "random"
                and func.attr in _GENERATORS)
    if isinstance(func, ast.Name):
        return ctx.imports.names.get(func.id) in _GENERATOR_ORIGINS
    return False


def _clock_and_entropy(ctx: FileContext, node: ast.AST) -> Iterator[Hit]:
    imports = ctx.imports
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        base = imports.modules.get(node.value.id)
        origin = imports.names.get(node.value.id, "")
        if base == "time" and node.attr in _TIME_BANNED:
            yield (ctx, node,
                   f"wall-clock call time.{node.attr} is nondeterministic; "
                   "use the simulated clock (Simulator.now) instead")
        elif base == "random" and node.attr in _RANDOM_MODULE_FNS:
            yield (ctx, node,
                   f"module-level random.{node.attr} shares global state; "
                   "draw from a named repro.sim.rng stream instead")
        elif origin in ("datetime.datetime", "datetime.date") and \
                node.attr in _DATETIME_BANNED:
            yield (ctx, node,
                   f"{origin[len('datetime.'):]}.{node.attr}() reads the "
                   "wall clock; use the simulated clock instead")
    elif isinstance(node, ast.Attribute):
        chain = (dotted_source(node) or "").split(".")
        if len(chain) >= 3 and chain[-1] in _DATETIME_BANNED and \
                imports.modules.get(chain[0]) == "datetime":
            yield (ctx, node,
                   f"{'.'.join(chain)}() reads the wall clock; use the "
                   "simulated clock instead")
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        module, _, orig = imports.names.get(node.id, "").rpartition(".")
        if module == "time" and orig in _TIME_BANNED:
            yield (ctx, node,
                   f"wall-clock call {orig} (from time) is nondeterministic; "
                   "use the simulated clock (Simulator.now) instead")
        elif module == "random" and orig in _RANDOM_MODULE_FNS:
            yield (ctx, node,
                   f"module-level {orig} (from random) shares global state; "
                   "draw from a named repro.sim.rng stream instead")
    else:
        for name in _imported_modules(node):
            if name.split(".")[0] in _ENTROPY_ROOTS:
                yield (ctx, node,
                       f"import of {name!r}: correlation ids come from the "
                       "bus counter and randomness from named "
                       "repro.sim.rng streams — no entropy sources")


def _imported_modules(node: ast.AST) -> List[str]:
    """The absolute module names an import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        return [node.module]
    return []


# ---------------------------------------------------------------------------
# hop-bound
# ---------------------------------------------------------------------------

# method name -> (min positional args incl. receiver-less form,
#                 keyword that satisfies the bound)
_HOP_QUERIES = {
    "hops": (3, "max_hops"),
    "reachable": (2, "max_hops"),
    "within_hops": (2, "k"),
    "nearest": (3, "max_hops"),
}


def _hop_bound(graph: ProjectGraph) -> Iterator[Hit]:
    """``reachable`` builds the whole component's distance map unless
    ``max_hops`` stops it; ``hops`` and ``nearest`` stop at their
    answer, but a missing one is still searched for to the edge of the
    component.  An explicit ``max_hops=None`` documents a *deliberately*
    unbounded query; an absent argument is an unreviewed one.

    Inside ``repro.core`` / ``repro.quorum`` even the deliberate
    spelling is a finding for ``hops`` / ``reachable``: protocol code
    asks "same partition?" and "who is in my partition?" through the
    connectivity labels (``same_component`` in O(1),
    ``component_members`` in O(component)), which replaced every such
    flood.  Engine, instrument and oracle code may still flood."""
    for ctx in graph.files:
        # The legacy oracle keeps its own (test-only) API.
        if ctx.is_module("repro.net.oracle"):
            continue
        protocol = ctx.in_package("repro.core", "repro.quorum")
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _HOP_QUERIES):
                continue
            query = node.func.attr
            min_args, keyword = _HOP_QUERIES[query]
            if not (len(node.args) >= min_args
                    or any(kw.arg == keyword for kw in node.keywords)):
                yield (ctx, node,
                       f".{query}() without a hop bound may walk the "
                       f"whole component; pass {keyword}=... "
                       f"({keyword}=None if deliberately unbounded)")
            elif protocol and query in ("hops", "reachable") and any(
                    kw.arg == "max_hops"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is None
                    for kw in node.keywords):
                yield (ctx, node,
                       f".{query}(max_hops=None) floods the whole "
                       "component; protocol code should use same_component()"
                       " / component_members() (O(1)/O(component) label "
                       "queries) instead")


# ---------------------------------------------------------------------------
# no-oracle-import
# ---------------------------------------------------------------------------

_ORACLE_ROOTS = {"numpy", "networkx"}


def _no_oracle_import(graph: ProjectGraph) -> Iterator[Hit]:
    """The runtime stays dependency-free: numpy/networkx live behind
    the test-only oracle (:mod:`repro.net.oracle`), and only the oracle
    itself may touch them."""
    for ctx in graph.files:
        if not ctx.in_package("repro") or ctx.is_module("repro.net.oracle"):
            continue
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in _ORACLE_ROOTS or \
                            alias.name.startswith("repro.net.oracle"):
                        yield (ctx, node,
                               f"runtime import of {alias.name!r}; the "
                               "simulator runtime is dependency-free "
                               "(oracle/numpy/networkx are test-only)")
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.level == 0:
                imports_oracle = (
                    node.module == "repro.net"
                    and any(alias.name == "oracle" for alias in node.names))
                if node.module.split(".")[0] in _ORACLE_ROOTS or \
                        node.module.startswith("repro.net.oracle") or \
                        imports_oracle:
                    yield (ctx, node,
                           f"runtime import from {node.module!r}; the "
                           "simulator runtime is dependency-free "
                           "(oracle/numpy/networkx are test-only)")


# ---------------------------------------------------------------------------
# Shared machinery: what a method sends or emits, through its helpers
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
    dotted = dotted_source(expr)
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
        dotted = dotted_source(node.func)
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
# state-machine
# ---------------------------------------------------------------------------

def _state_machine(graph: ProjectGraph) -> Iterator[Hit]:
    messages = graph.module(spec.MESSAGES_MODULE)
    if messages is None:
        return
    table = transition_table(messages)
    if table is None:
        yield (messages.ctx, messages.ctx.tree,
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
                # repro.net.agent.Agent).
                allowed = table.get(mtype)
                if allowed is None:
                    continue
                sends = closure(graph, mod, cls, method, direct_sends,
                                dispatch=dispatch)
                for sent in sorted(set(sends) - allowed):
                    yield (mod.ctx, cls.methods[method].node,
                           f"{cls_name}.{method} may send {sent}, which "
                           f"the state machine does not allow in "
                           f"response to {mtype} (allowed: "
                           f"{', '.join(sorted(allowed)) or 'none'})")


# ---------------------------------------------------------------------------
# obs-coverage
# ---------------------------------------------------------------------------

def terminal_events(mod: ModuleInfo) -> Optional[Set[str]]:
    """Event class names in the events module's
    ``TERMINAL_ETYPES = frozenset({X.etype, ...})`` literal; ``None``
    when it is missing or an element is not ``<class of the module>.etype``."""
    literal = mod.assignments.get(spec.TERMINAL_SET)
    if (isinstance(literal, ast.Call) and len(literal.args) == 1
            and not literal.keywords
            and dotted_source(literal.func) == "frozenset"):
        literal = literal.args[0]
    if not isinstance(literal, ast.Set):
        return None
    names: Set[str] = set()
    for element in literal.elts:
        if not (isinstance(element, ast.Attribute)
                and element.attr == "etype"
                and isinstance(element.value, ast.Name)
                and element.value.id in mod.classes):
            return None
        names.add(element.value.id)
    return names


def _obs_coverage(graph: ProjectGraph) -> Iterator[Hit]:
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
                yield (mod.ctx, node,
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
            yield (events_mod.ctx, anchor,
                   f"event {event} is never emitted by any scanned "
                   f"module (declared emitters: "
                   f"{', '.join(sorted(spec.EVENT_EMITTERS[event]))})")
    if events_mod is None:
        return
    terminals = terminal_events(events_mod)
    if terminals is None:
        yield (events_mod.ctx, events_mod.ctx.tree,
               f"{events_module}.{spec.TERMINAL_SET} must be "
               f"frozenset({{X.etype, ...}}) over this module's event "
               f"classes; the rule cannot read it otherwise")
        return
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
            yield (mod.ctx, cls.node,
                   f"terminal path {qualname} listed in the spec does "
                   f"not exist; update repro/lint/protocol_spec.py")
            continue
        emitted = closure(graph, mod, cls, method, direct_emits,
                          dispatch=dispatch)
        terminal = {e for e in emitted if e in terminals}
        for missing in sorted(expected - terminal):
            yield (mod.ctx, info.node,
                   f"terminal path {cls.name}.{method} never emits "
                   f"{missing} (required by the emission map)")
        for extra in sorted(terminal - expected):
            yield (mod.ctx, info.node,
                   f"terminal path {cls.name}.{method} emits {extra}, "
                   f"which the emission map does not assign to it")


# ---------------------------------------------------------------------------
# rng-taint
# ---------------------------------------------------------------------------

def _stream_creation(node: ast.Call,
                     mod: ModuleInfo) -> Optional[Tuple[str, Optional[str]]]:
    """``("stream", name)`` for ``*.streams.get("name")`` calls,
    ``("raw", None)`` for ``generator_from_seed(...)``, else ``None``.
    The name is the literal (or f-string literal prefix) stream name."""
    dotted = dotted_source(node.func)
    if dotted is not None:
        parts = dotted.split(".")
        if len(parts) >= 2 and parts[-2] == "streams" and parts[-1] == "get":
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


def _rng_taint(graph: ProjectGraph) -> Iterator[Hit]:
    for mod_name in sorted(graph.modules):
        mod = graph.modules[mod_name]
        if mod.name == spec.RNG_MODULE:
            continue
        # Method aliases share one FunctionInfo; check each once.
        seen: Set[int] = set()
        for info in mod.functions.values():
            if id(info) not in seen:
                seen.add(id(info))
                yield from _rng_taint_in(mod, info)


def _rng_taint_in(mod: ModuleInfo, info: FunctionInfo) -> Iterator[Hit]:
    tainted: Set[str] = set()
    for node in ast.walk(info.node):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.value, ast.Call)
                and _stream_creation(node.value, mod) is not None):
            target = dotted_source(node.targets[0])
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
                yield (mod.ctx, node,
                       f"stream {name!r} has no declared owner; add it "
                       f"to STREAM_OWNERS in repro/lint/protocol_spec.py")
            elif (owner is not None and owner != mod.package
                  and (mod.package, owner) not in spec.STREAM_SHARING):
                yield (mod.ctx, node,
                       f"stream {name!r} belongs to {owner}; "
                       f"{mod.package} must not consume it (declare "
                       f"the flow in protocol_spec.STREAM_SHARING if "
                       f"intentional)")
            continue
        yield from _generator_flow(mod, node, tainted)


def _generator_flow(mod: ModuleInfo, node: ast.Call,
                    tainted: Set[str]) -> Iterator[Hit]:
    args: List[ast.AST] = list(node.args)
    args += [kw.value for kw in node.keywords]
    carried = []
    for arg in args:
        dotted = dotted_source(arg)
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
        yield (mod.ctx, node,
               f"RNG generator {carried[0]} flows into cache-key/"
               f"serialization sink {resolved}; cache keys must be "
               f"derived from seeds, never generator objects")
        return
    target_pkg = package_of(resolved)
    if (not resolved.startswith("repro.")
            or target_pkg == mod.package
            or (mod.package, target_pkg) in spec.GENERATOR_FLOWS):
        return
    yield (mod.ctx, node,
           f"RNG generator {carried[0]} flows from {mod.package} into "
           f"{target_pkg} via {resolved}; declare the flow in "
           f"protocol_spec.GENERATOR_FLOWS or derive a child stream "
           f"at the boundary")


# ---------------------------------------------------------------------------
# counter-registry, metric-registry
# ---------------------------------------------------------------------------

def _registry_names(
        registry: str, receiver: str, methods: Tuple[str, ...], label: str,
        why: str, legal: Callable[[str, str], bool],
) -> Callable[[ProjectGraph], Iterator[Hit]]:
    """Literal names handed to a recorder come from its registry module.

    Governs ``<x>.<method>("name", ...)`` calls whose receiver chain
    ends in a component named ``receiver`` (``self.perf``,
    ``ctx.perf``, a ``metrics`` parameter, ...).  ``label`` spells a
    governed call in messages, ``why`` says what an unregistered name
    breaks, and ``legal(constant, method)`` says whether a registry
    constant is a legal argument of that method.
    """
    def find(graph: ProjectGraph) -> Iterator[Hit]:
        module = graph.module(registry)
        if module is None:
            return
        known = {method: {value for name, value in module.constants.items()
                          if legal(name, method)}
                 for method in methods}
        for mod_name in sorted(graph.modules):
            mod = graph.modules[mod_name]
            if mod.name == registry:
                continue
            for node in ast.walk(mod.ctx.tree):
                if not (isinstance(node, ast.Call) and node.args
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in methods):
                    continue
                dotted = dotted_source(node.func.value)
                if dotted is None or not (
                        dotted == receiver
                        or dotted.endswith("." + receiver)):
                    continue
                arg = node.args[0]
                call = label.format(method=node.func.attr)
                if isinstance(arg, ast.Constant) and isinstance(arg.value,
                                                                str):
                    if arg.value not in known[node.func.attr]:
                        yield (mod.ctx, node,
                               f"{call}({arg.value!r}) is not in the "
                               f"{registry} registry — import the "
                               f"constant ({why})")
                elif isinstance(arg, ast.JoinedStr):
                    yield (mod.ctx, node,
                           f"{call}() name is built dynamically; use a "
                           f"registry constant or helper from {registry}")
    return find


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------

class _ImportAnchor:
    """A minimal AST-node stand-in anchoring a finding to a line."""

    def __init__(self, lineno: int) -> None:
        self.lineno = lineno
        self.col_offset = 0


def _layer(module: str) -> Optional[int]:
    best: Optional[int] = None
    best_len = -1
    for prefix, layer in spec.LAYERS.items():
        if ((module == prefix or module.startswith(prefix + "."))
                and len(prefix) > best_len):
            best, best_len = layer, len(prefix)
    return best


def _layering(graph: ProjectGraph) -> Iterator[Hit]:
    edges = list(graph.import_edges())
    for src, dst, lineno in edges:
        src_layer, dst_layer = _layer(src), _layer(dst)
        if src_layer is None or dst_layer is None or src_layer >= dst_layer:
            continue
        yield (graph.modules[src].ctx, _ImportAnchor(lineno),
               f"layer violation: {src} (layer {src_layer}, "
               f"{spec.LAYER_NAMES[src_layer]}) imports {dst} (layer "
               f"{dst_layer}, {spec.LAYER_NAMES[dst_layer]}); lower "
               f"layers must not depend on higher ones")
    digraph: Dict[str, Set[str]] = {name: set() for name in graph.modules}
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
        lineno = min(
            (lines[(head, other)] for other in digraph[head]
             if other in component and (head, other) in lines),
            default=1)
        yield (graph.modules[head].ctx, _ImportAnchor(lineno),
               f"import cycle between modules: {' -> '.join(members)} "
               f"(runtime, module-scope imports only)")


#: Report order; ``--select`` / ``--ignore`` match on ``Rule.name``.
RULES: Tuple[Rule, ...] = (
    Rule("determinism",
         "time.time/perf_counter/datetime.now/module-level random and "
         "uuid/secrets banned outside repro.perf, repro.experiments.sweep, "
         "repro.obs.profile and the lint CLI; random.Random()/"
         "SystemRandom() built only in repro.sim.rng",
         _determinism),
    Rule("hop-bound",
         "topology.hops()/reachable()/within_hops()/nearest() without an "
         "explicit hop bound; max_hops=None floods in repro.core/"
         "repro.quorum",
         _hop_bound),
    Rule("no-oracle-import",
         "runtime import of numpy/networkx or the test-only "
         "repro.net.oracle",
         _no_oracle_import),
    Rule("rng-taint",
         "named RNG streams stay inside their owning subsystem; "
         "generators never reach another package or cache-key "
         "construction undeclared",
         _rng_taint),
    Rule("obs-coverage",
         "obs events are emitted only by their declared modules, every "
         "event type has an emitter, and terminal paths emit exactly "
         "their assigned events",
         _obs_coverage),
    Rule("state-machine",
         "message handlers may only send message types the protocol "
         "state machine allows for their state",
         _state_machine),
    Rule("counter-registry",
         "PerfRecorder counter/timer names come from the "
         "repro.perf.counters registry, never inline literals",
         _registry_names(
             spec.COUNTERS_MODULE, "perf", ("incr", "get", "timer"),
             "perf {method}", "typo'd counters report zeros silently",
             # TIMER_* constants name timers, every other one a counter.
             lambda name, method: (
                 name.startswith("TIMER_") == (method == "timer")))),
    Rule("metric-registry",
         "MetricsRecorder gauge names come from the repro.obs.metric_names "
         "registry, never inline literals",
         _registry_names(
             spec.METRIC_NAMES_MODULE, "metrics", ("record",),
             "metrics.{method}",
             "unregistered names fragment the series schema across runs",
             # *_PREFIX constants are family stems consumed by the
             # registry's helper functions, not sampleable names.
             lambda name, method: not name.endswith("_PREFIX"))),
    Rule("layering",
         "runtime imports respect the layer DAG and form no module-level "
         "cycles",
         _layering),
)


def resolve_rules(select: Optional[Set[str]] = None,
                  ignore: Optional[Set[str]] = None) -> Tuple[Rule, ...]:
    """The active rules for a ``--select`` / ``--ignore`` pair."""
    known = {rule.name for rule in RULES}
    unknown = (set(select or ()) | set(ignore or ())) - known
    if unknown:
        raise ValueError(
            f"unknown rule(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})")
    return tuple(rule for rule in RULES
                 if (select is None or rule.name in select)
                 and (ignore is None or rule.name not in ignore))
