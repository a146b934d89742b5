"""The rule suite: the checks only source analysis can make.

A rule is a function over the whole
:class:`~tests.lint.project.ProjectGraph` that yields one ``(file,
node, message)`` hit per violation; :func:`check` turns a rule's hits
into sorted :class:`~tests.lint.core.Finding` rows named after the
function (``hop_bound`` -> ``hop-bound``).  Two rules walk the parsed
files one at a time and read their imports through each file's
:class:`~tests.lint.core.ImportTable`:

* ``determinism`` — no wall clock, module-level ``random``, ``uuid``/
  ``secrets``, or ``random.Random`` built outside :mod:`repro.sim.rng`.
* ``hop-bound`` — topology hop queries state their search bound, and
  protocol code never floods one on purpose.

Five need the cross-linked program:

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
  ``perf.timer`` and ``events.incr`` name comes from the central
  registry (:mod:`repro.perf.counters`); dynamically-built names are
  findings.
* ``layering`` — runtime imports respect the layer DAG, introduce no
  module-level cycles, and never reach numpy or networkx.

Resolution is syntactic (see :mod:`tests.lint.project`); the rules are
written so a *missing* edge can only hide a violation, never invent one
— over-approximation lives in the committed spec
(:mod:`tests.lint.protocol_spec`), which is reviewed rather than
inferred at check time.
"""

from __future__ import annotations

import ast
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Set, Tuple, TypeVar)

from tests.lint import protocol_spec as spec
from tests.lint.core import FileContext, Finding, dotted_source
from tests.lint.project import (ClassInfo, FunctionInfo, ModuleInfo,
                                ProjectGraph, package_of,
                                strongly_connected_components)

#: What a rule yields: the file, the node the finding anchors to
#: (anything with ``lineno``/``col_offset``) and the message.
Hit = Tuple[FileContext, object, str]


def rule_name(rule: Callable[[ProjectGraph], Iterator[Hit]]) -> str:
    return rule.__name__.replace("_", "-")


def check(rule: Callable[[ProjectGraph], Iterator[Hit]],
          graph: ProjectGraph) -> List[Finding]:
    """Every finding of ``rule`` over ``graph``, in path and line order."""
    name = rule_name(rule)
    found = [ctx.finding(name, node, message)
             for ctx, node, message in rule(graph)]
    return sorted(found, key=lambda f: (f.path, f.line, f.col))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

# Packages whose runtime must stay deterministic and dependency-free.
# repro.perf (wall-clock timers by design), repro.experiments.sweep
# (wall-clock reporting around the cached runs) and repro.obs.profile
# (the subsystem profiler times event callbacks on the engine's
# behalf) are the sanctioned exceptions.
_WALLCLOCK_ALLOWED = ("repro.perf", "repro.experiments.sweep",
                      "repro.obs.profile")

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


def determinism(graph: ProjectGraph) -> Iterator[Hit]:
    """time.time/perf_counter/datetime.now, module-level random and
    uuid/secrets are banned in ``repro`` outside repro.perf,
    repro.experiments.sweep and repro.obs.profile; random.Random()/
    SystemRandom() are built only in repro.sim.rng.

    Serial/parallel bit-identity and fault-injection cache safety
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
        for node in ctx.nodes:
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


def hop_bound(graph: ProjectGraph) -> Iterator[Hit]:
    """topology.hops()/reachable()/within_hops()/nearest() state an
    explicit hop bound, and repro.core/repro.quorum never pass
    max_hops=None to hops()/reachable().

    ``reachable`` builds the whole component's distance map unless
    ``max_hops`` stops it; ``hops`` and ``nearest`` stop at their
    answer, but a missing one is still searched for to the edge of the
    component.  An explicit ``max_hops=None`` documents a *deliberately*
    unbounded query; an absent argument is an unreviewed one.

    Inside ``repro.core`` / ``repro.quorum`` even the deliberate
    spelling is a finding for ``hops`` / ``reachable``: protocol code
    asks "same partition?" and "who is in my partition?" through the
    connectivity labels (``same_component`` in O(1),
    ``component_members`` in O(component)), which replaced every such
    flood.  Engine and instrument code may still flood."""
    for ctx in graph.files:
        protocol = ctx.in_package("repro.core", "repro.quorum")
        for node in ctx.nodes:
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


def _local_message_bindings(info: FunctionInfo,
                            mod: ModuleInfo) -> Dict[str, Set[str]]:
    out: Dict[str, Set[str]] = {}
    for node in info.nodes:
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
    local_map = _local_message_bindings(info, mod)
    sends: Dict[str, int] = {}
    for node in info.nodes:
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


def _event_calls(nodes: List[ast.AST],
                 mod: ModuleInfo) -> Iterator[Tuple[str, ast.Call]]:
    """``(event class name, call)`` for every obs event constructed
    among ``nodes``."""
    prefix = spec.EVENTS_MODULE + "."
    for node in nodes:
        if isinstance(node, ast.Call):
            resolved = mod.resolve_call(node.func)
            if (resolved is not None and resolved.startswith(prefix)
                    and "." not in resolved[len(prefix):]):
                yield resolved[len(prefix):], node


def direct_emits(info: FunctionInfo, mod: ModuleInfo) -> Dict[str, int]:
    """Obs event classes this function constructs directly -> first line."""
    emits: Dict[str, int] = {}
    for name, node in _event_calls(info.nodes, mod):
        emits.setdefault(name, node.lineno)
    return emits


Found = TypeVar("Found")


def closure(graph: ProjectGraph, mod: ModuleInfo, cls: ClassInfo,
            method: str,
            visit: Callable[[FunctionInfo, ModuleInfo], Iterable[Found]],
            ) -> Set[Found]:
    """What ``visit`` (:func:`direct_sends`, :func:`direct_emits`) finds
    in ``method`` of ``cls`` and every ``self.`` helper it transitively
    reaches, each ``self.`` call resolved on ``cls`` (so a mix-in's call
    dispatches on the agent composed of it)."""
    found: Set[Found] = set()
    visited: Set[int] = set()
    stack = [method]
    while stack:
        located = graph.method_lookup(mod, cls, stack.pop())
        if located is None or id(located[1]) in visited:
            continue
        visited.add(id(located[1]))
        found.update(visit(located[1], located[0]))
        stack += sorted(located[1].self_calls)
    return found


def _cells(expr: ast.expr, mod: ModuleInfo) -> Optional[FrozenSet[str]]:
    """The names one cell of the messages module's table holds: a string
    literal, a message constant, an obs event class, or a tuple of them."""
    names: Set[str] = set()
    for item in expr.elts if isinstance(expr, ast.Tuple) else [expr]:
        dotted = dotted_source(item)
        resolved = (mod.resolve(dotted) if dotted else None) or ""
        if isinstance(item, ast.Constant) and isinstance(item.value, str):
            names.add(item.value)
        elif isinstance(item, ast.Name) and item.id in mod.constants:
            names.add(item.id)
        elif resolved.startswith(spec.EVENTS_MODULE + "."):
            names.add(resolved.rpartition(".")[2])
        else:
            return None
    return frozenset(names)


_ROW_FIELDS = ("sends", "awaited", "ends")


def input_table(
        mod: ModuleInfo) -> Optional[Dict[str, Dict[str, FrozenSet[str]]]]:
    """``input -> {field: names}`` for the fields ``sends``, ``awaited``
    and ``ends`` of the messages module's ``TABLE = {KEY: Row(sends=(
    CONSTANT, ...), awaited="kind", ends=(ev.Event, ...)), ...}``, a key
    being a message constant or a method name; ``None`` when it is
    missing or a row has any other shape."""
    literal = mod.assignments.get(spec.MESSAGES_TABLE)
    if not isinstance(literal, ast.Dict):
        return None
    table: Dict[str, Dict[str, FrozenSet[str]]] = {}
    for key, row in zip(literal.keys, literal.values):
        name = None if key is None else _cells(key, mod)
        if (name is None or len(name) != 1 or not isinstance(row, ast.Call)
                or dotted_source(row.func) != "Row" or row.args):
            return None
        cells = {kw.arg: _cells(kw.value, mod) for kw in row.keywords}
        if None in cells.values() or not set(cells) <= set(_ROW_FIELDS):
            return None
        table[min(name)] = {field: cells.get(field) or frozenset()
                            for field in _ROW_FIELDS}
    return table


def terminal_events(mod: ModuleInfo) -> Optional[Set[str]]:
    """Event class names in the events module's
    ``TERMINAL_ETYPES = frozenset({X.etype, ...})`` literal; ``None``
    when it is missing or an element is not ``<class of the module>.etype``."""
    literal = mod.assignments.get("TERMINAL_ETYPES")
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


def await_calls(info: FunctionInfo) -> List[ast.Call]:
    """The ``self._await(key, ...)`` calls of a function: each arms one
    awaited reply (:class:`repro.net.agent.Agent`)."""
    return [node for node in info.nodes if isinstance(node, ast.Call)
            and dotted_source(node.func) == "self._await" and node.args]


def _key_kind(graph: ProjectGraph, mod: ModuleInfo,
              key: ast.expr) -> Optional[str]:
    """The kind of an ``_await`` key: a ``("kind", id)`` literal, or a
    name bound to one in this module or the module it is imported from."""
    literal: Optional[ast.expr] = key
    if isinstance(key, ast.Name):
        literal = mod.assignments.get(key.id)
        origin = mod.imports.resolve(key.id)
        if literal is None and origin is not None:
            owner = graph.module_of_target(origin)
            if owner is not None:
                literal = owner.assignments.get(origin.rpartition(".")[2])
    if (isinstance(literal, ast.Tuple) and literal.elts
            and isinstance(literal.elts[0], ast.Constant)
            and isinstance(literal.elts[0].value, str)):
        return literal.elts[0].value
    return None


def agent_classes(graph: ProjectGraph, cls: ClassInfo) -> List[ClassInfo]:
    """``cls`` and every scanned class it inherits, mix-ins included."""
    found: List[ClassInfo] = []
    stack = [cls]
    while stack:
        cur = stack.pop()
        if all(cur is not seen for seen in found):
            found.append(cur)
            stack += [located[1] for located in map(graph.class_of_target,
                                                    cur.bases) if located]
    return found


def entry_points(classes: List[ClassInfo]) -> List[str]:
    """The inputs of an agent composed of ``classes``: the message
    handlers, the public surface, and every method referenced as
    ``self.<method>`` without being called there (a callback)."""
    methods = {name for cls in classes for name in cls.methods}
    entries = {name for name in methods
               if name.startswith("_handle_") or not name.startswith("_")}
    for cls in classes:
        for info in cls.methods.values():
            called = {id(node.func) for node in info.nodes
                      if isinstance(node, ast.Call)}
            entries |= {node.attr for node in info.nodes
                        if isinstance(node, ast.Attribute)
                        and id(node) not in called
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and node.attr in methods}
    return sorted(entries)


# ---------------------------------------------------------------------------
# state-machine
# ---------------------------------------------------------------------------

def state_machine(graph: ProjectGraph) -> Iterator[Hit]:
    """Every input of a protocol agent that sends or ends a span has its
    row in the input table, and the input's closure keeps to it: it
    sends only what the row allows, ends exactly the spans the row
    names, and arms the ``awaited`` kind of every request it sends
    (:data:`~tests.lint.protocol_spec.UNAWAITED_SENDS` excepted).

    An agent is a class of the governed packages that no class there
    inherits; its inputs are :func:`entry_points`."""
    messages = graph.module(spec.MESSAGES_MODULE)
    if messages is None:
        return
    table = input_table(messages)
    if table is None:
        yield (messages.ctx, messages.ctx.tree,
               f"{spec.MESSAGES_MODULE}.{spec.MESSAGES_TABLE} must be a "
               f"dict literal mapping each message constant or method name "
               f"to Row(sends=(...), awaited='kind', ends=(...)) over "
               f"message constants and {spec.EVENTS_MODULE} classes; the "
               f"rule cannot read it otherwise")
        return
    events = graph.module(spec.EVENTS_MODULE)
    terminals = set() if events is None else terminal_events(events)
    if events is not None and terminals is None:
        yield (events.ctx, events.ctx.tree,
               f"{spec.EVENTS_MODULE}.TERMINAL_ETYPES must be "
               f"frozenset({{X.etype, ...}}) over this module's event "
               f"classes; the rule cannot read it otherwise")
        return

    def conduct(info: FunctionInfo, mod: ModuleInfo) -> Set[Tuple[str, str]]:
        sent = direct_sends(info, mod)
        method = getattr(info.node, "name", "")
        kinds = [_key_kind(graph, mod, call.args[0])
                 for call in await_calls(info)]
        return ({("sends", name) for name in sent}
                | {("requests", name) for name in sent
                   if (method, name) not in spec.UNAWAITED_SENDS}
                | {("ends", name) for name in direct_emits(info, mod)
                   if name in (terminals or ())}
                | {("awaits", kind) for kind in kinds if kind})

    governed = [(mod, cls) for mod in graph.modules.values()
                if mod.package in spec.STATE_MACHINE_PACKAGES
                for cls in mod.classes.values()]
    inherited = {id(base) for mod, cls in governed
                 for base in agent_classes(graph, cls)[1:]}
    inputs: Set[str] = set()
    for mod, cls in governed:
        if id(cls) in inherited:
            continue
        for method in entry_points(agent_classes(graph, cls)):
            found = closure(graph, mod, cls, method, conduct)
            done = {tag: {name for each, name in found if each == tag}
                    for tag in ("sends", "requests", "ends", "awaits")}
            handler = method.startswith("_handle_")
            key = method[len("_handle_"):].upper() if handler else method
            inputs.add(key)
            located = graph.method_lookup(mod, cls, method)
            assert located is not None    # each input is a method of cls
            hit = (located[0].ctx, located[1].node)
            where = f"{cls.name}.{method}"
            row = table.get(key)
            if row is None:
                # A handler without a row cannot be dispatched to:
                # creating the agent class fails first (see
                # repro.net.agent.Agent).
                if not handler and (done["sends"] or done["ends"]):
                    yield (*hit, f"{where} sends or ends a span but has no "
                           f"row in {spec.MESSAGES_MODULE}."
                           f"{spec.MESSAGES_TABLE}")
                continue
            allowed = ", ".join(sorted(row["sends"])) or "none"
            for sent in sorted(done["sends"] - row["sends"]):
                yield (*hit, f"{where} may send {sent}, which the state "
                       f"machine does not allow in response to {key} "
                       f"(allowed: {allowed})")
            for missing in sorted(row["ends"] - done["ends"]):
                yield (*hit, f"{where} never emits {missing}, which its row "
                       f"says it ends")
            for extra in sorted(done["ends"] - row["ends"]):
                yield (*hit, f"{where} emits {extra}, which its row does "
                       f"not say it ends")
            for request in sorted(done["requests"] & set(table)):
                for kind in sorted(table[request]["awaited"]
                                   - done["awaits"]):
                    yield (*hit, f"{where} sends {request} without "
                           f"awaiting {kind!r}")
    for key in sorted(set(table) - set(messages.constants) - inputs):
        yield (messages.ctx, messages.assignments[spec.MESSAGES_TABLE],
               f"{spec.MESSAGES_TABLE} row {key!r} is no input of any "
               f"agent; delete it")


# ---------------------------------------------------------------------------
# obs-coverage
# ---------------------------------------------------------------------------

def obs_coverage(graph: ProjectGraph) -> Iterator[Hit]:
    """Obs events are constructed only by their declared modules, and
    every event type has an emitter.  (Which spans each protocol input
    ends is its row's ``ends``, which ``state-machine`` checks.)"""
    events_module = spec.EVENTS_MODULE
    constructed: Dict[str, Set[str]] = {}
    for mod_name in sorted(graph.modules):
        mod = graph.modules[mod_name]
        if mod.name == events_module:
            continue
        for event, node in _event_calls(mod.ctx.nodes, mod):
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


def rng_taint(graph: ProjectGraph) -> Iterator[Hit]:
    """Named RNG streams stay inside their owning subsystem, and
    generators never reach another package or cache-key construction
    undeclared."""
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
    for node in info.nodes:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.value, ast.Call)
                and _stream_creation(node.value, mod) is not None):
            target = dotted_source(node.targets[0])
            if target is not None:
                tainted.add(target)
    for node in info.nodes:
        if not isinstance(node, ast.Call):
            continue
        created = _stream_creation(node, mod)
        if created is not None and created[0] == "stream":
            name = created[1]
            owner = _stream_owner(name) if name is not None else None
            if name is not None and owner is None:
                yield (mod.ctx, node,
                       f"stream {name!r} has no declared owner; add it "
                       f"to STREAM_OWNERS in tests/lint/protocol_spec.py")
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
# counter-registry
# ---------------------------------------------------------------------------

#: The governed calls, ``(receiver, method)``, and which constants of the
#: registry each may name: ``TIMER_*`` name perf timers, ``EV_*`` event
#: tallies, every other constant a perf counter.
_REGISTRY_CALLS: Dict[Tuple[str, str], str] = {
    ("perf", "incr"): "counter",
    ("perf", "get"): "counter",
    ("perf", "timer"): "timer",
    ("events", "incr"): "event",
}


def _registry_kind(constant: str) -> str:
    if constant.startswith("TIMER_"):
        return "timer"
    if constant.startswith("EV_"):
        return "event"
    return "counter"


def counter_registry(graph: ProjectGraph) -> Iterator[Hit]:
    """Literal names handed to a recorder come from the registry module
    (:mod:`repro.perf.counters`), never inline literals.

    Governs ``<x>.<method>("name", ...)`` calls whose receiver chain
    ends in ``perf`` or ``events`` (``self.perf``, ``ctx.events``, ...)
    and whose method is listed in :data:`_REGISTRY_CALLS`.
    """
    registry = spec.COUNTERS_MODULE
    module = graph.module(registry)
    if module is None:
        return
    known: Dict[str, Set[str]] = {}
    for name, value in module.constants.items():
        known.setdefault(_registry_kind(name), set()).add(value)
    for mod_name in sorted(graph.modules):
        mod = graph.modules[mod_name]
        if mod.name == registry:
            continue
        for node in mod.ctx.nodes:
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.func, ast.Attribute)):
                continue
            dotted = dotted_source(node.func.value)
            if dotted is None:
                continue
            receiver = dotted.rpartition(".")[2]
            kind = _REGISTRY_CALLS.get((receiver, node.func.attr))
            if kind is None:
                continue
            arg = node.args[0]
            call = f"{receiver}.{node.func.attr}"
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if arg.value not in known.get(kind, ()):
                    yield (mod.ctx, node,
                           f"{call}({arg.value!r}) is not a {kind} in the "
                           f"{registry} registry — import the constant "
                           f"(typo'd names report zeros silently)")
            elif isinstance(arg, ast.JoinedStr):
                yield (mod.ctx, node,
                       f"{call}() name is built dynamically; use a "
                       f"registry constant or helper from {registry}")


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


#: Third-party roots the runtime never imports: the simulator is
#: dependency-free, and numpy/networkx serve only the tests' oracle.
_TEST_ONLY_ROOTS = {"numpy", "networkx"}


def layering(graph: ProjectGraph) -> Iterator[Hit]:
    """Runtime imports respect the layer DAG, form no module-level
    cycles, and never reach numpy/networkx (test-only)."""
    for ctx in graph.files:
        if not ctx.in_package("repro"):
            continue
        for node in ctx.nodes:
            for name in _imported_modules(node):
                if name.split(".")[0] in _TEST_ONLY_ROOTS:
                    yield (ctx, node,
                           f"runtime import of {name!r}; the simulator "
                           "runtime is dependency-free (numpy/networkx "
                           "are test-only)")
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
