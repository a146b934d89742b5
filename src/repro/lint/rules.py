"""The built-in rule suite.

Each rule machine-checks one invariant the reproduction's determinism
and protocol-correctness story depends on (see docs/ARCHITECTURE.md,
"Static analysis layer").  Rules are registered in :data:`ALL_RULES`
in the order they should be reported.
"""

from __future__ import annotations

import ast
from typing import (Dict, Iterator, List, Optional, Sequence, Set, Tuple,
                    Union)

from repro.lint.core import FileContext, Finding, Rule, Severity
from repro.lint.project import ProjectRule
from repro.lint.project_rules import PROJECT_RULES

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


class _Imports:
    """Resolved import aliases of one module.

    ``modules`` maps local alias -> imported module path ("t" -> "time");
    ``names`` maps local name -> (module, original name) for
    ``from x import y [as z]``.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.modules: Dict[str, str] = {}
        self.names: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # "import a.b" binds "a"; record the root module.
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.modules[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.names[local] = (node.module, alias.name)

    def module_of(self, name: str) -> Optional[str]:
        return self.modules.get(name)

    def origin_of(self, name: str) -> Optional[Tuple[str, str]]:
        return self.names.get(name)


def _dotted(node: ast.AST) -> Optional[str]:
    """Render an ``a.b.c`` attribute/name chain, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class DeterminismRule(Rule):
    """No wall-clock or process-global randomness in simulation code.

    Serial/parallel bit-identity (PR 1) and fault-injection cache
    safety (PR 2) both require every source of nondeterminism to flow
    through the simulated clock (:mod:`repro.sim.engine`) and named RNG
    streams (:mod:`repro.sim.rng`).
    """

    name = "determinism"
    description = ("time.time/perf_counter/datetime.now/module-level "
                   "random are banned outside repro.perf, "
                   "repro.experiments.sweep, repro.obs.profile and "
                   "the lint CLI")
    severity = Severity.ERROR

    def applies(self, ctx: FileContext) -> bool:
        return (ctx.in_package("repro")
                and not ctx.in_package(*_WALLCLOCK_ALLOWED))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = _Imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                yield from self._check_attribute(ctx, imports, node)
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Load):
                yield from self._check_name(ctx, imports, node)

    def _check_attribute(self, ctx: FileContext, imports: _Imports,
                         node: ast.Attribute) -> Iterator[Finding]:
        if isinstance(node.value, ast.Name):
            base = imports.module_of(node.value.id)
            if base == "time" and node.attr in _TIME_BANNED:
                yield ctx.finding(
                    self, node,
                    f"wall-clock call time.{node.attr} is nondeterministic; "
                    "use the simulated clock (Simulator.now) instead")
            elif base == "random" and (node.attr in _RANDOM_MODULE_FNS):
                yield ctx.finding(
                    self, node,
                    f"module-level random.{node.attr} shares global state; "
                    "draw from a named repro.sim.rng stream instead")
            else:
                origin = imports.origin_of(node.value.id)
                if origin == ("datetime", "datetime") or \
                        origin == ("datetime", "date"):
                    if node.attr in _DATETIME_BANNED:
                        yield ctx.finding(
                            self, node,
                            f"{origin[1]}.{node.attr}() reads the wall "
                            "clock; use the simulated clock instead")
        else:
            chain = _dotted(node)
            if chain is not None:
                root = chain.split(".")[0]
                if imports.module_of(root) == "datetime" and \
                        chain.split(".")[-1] in _DATETIME_BANNED and \
                        len(chain.split(".")) >= 3:
                    yield ctx.finding(
                        self, node,
                        f"{chain}() reads the wall clock; use the "
                        "simulated clock instead")

    def _check_name(self, ctx: FileContext, imports: _Imports,
                    node: ast.Name) -> Iterator[Finding]:
        origin = imports.origin_of(node.id)
        if origin is None:
            return
        module, orig = origin
        if module == "time" and orig in _TIME_BANNED:
            yield ctx.finding(
                self, node,
                f"wall-clock call {orig} (from time) is nondeterministic; "
                "use the simulated clock (Simulator.now) instead")
        elif module == "random" and orig in _RANDOM_MODULE_FNS:
            yield ctx.finding(
                self, node,
                f"module-level {orig} (from random) shares global state; "
                "draw from a named repro.sim.rng stream instead")


class RngStreamRule(Rule):
    """``random.Random`` may only be constructed inside repro.sim.rng.

    Keeping every generator construction in one module is what makes
    the variance-isolation guarantee auditable: each consumer gets a
    named stream derived from the master seed, never an ad-hoc
    generator.
    """

    name = "rng-stream"
    description = ("random.Random()/SystemRandom() constructed outside "
                   "repro.sim.rng")
    severity = Severity.ERROR

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro") and \
            not ctx.is_module("repro.sim.rng")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = _Imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            hit = False
            if isinstance(func, ast.Attribute) and \
                    isinstance(func.value, ast.Name):
                hit = (imports.module_of(func.value.id) == "random"
                       and func.attr in ("Random", "SystemRandom"))
            elif isinstance(func, ast.Name):
                hit = imports.origin_of(func.id) in (
                    ("random", "Random"), ("random", "SystemRandom"))
            if hit:
                yield ctx.finding(
                    self, node,
                    "construct generators via repro.sim.rng "
                    "(RandomStreams / generator_from_seed), not ad hoc")


def _frozen_slotted_findings(rule: Rule, ctx: FileContext,
                             noun: str) -> Iterator[Finding]:
    """Findings for dataclasses in ``ctx`` that are not frozen+slotted."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        dataclass_deco = None
        has_slot_decorator = False
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = _dotted(target) or ""
            short = name.split(".")[-1]
            if short == "dataclass":
                dataclass_deco = deco
            elif "slot" in short:
                has_slot_decorator = True
        if dataclass_deco is None:
            continue
        frozen = slots = False
        if isinstance(dataclass_deco, ast.Call):
            for kw in dataclass_deco.keywords:
                value = isinstance(kw.value, ast.Constant) and \
                    kw.value.value is True
                if kw.arg == "frozen" and value:
                    frozen = True
                if kw.arg == "slots" and value:
                    slots = True
        has_body_slots = any(
            isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets)
            for stmt in node.body)
        if not frozen:
            yield ctx.finding(
                rule, node,
                f"{noun} dataclass {node.name} must be declared "
                "@dataclass(frozen=True)")
        if not (slots or has_body_slots or has_slot_decorator):
            yield ctx.finding(
                rule, node,
                f"{noun} dataclass {node.name} must be slotted "
                "(slots=True, __slots__, or an add-slots decorator)")


class FrozenMessageRule(Rule):
    """Message dataclasses must be immutable value objects.

    Frozen + slotted messages are what make fan-out deliveries safe to
    share and the transport layer free of aliasing bugs (the
    python-paxos-jepsen idiom).  Applies to the message vocabularies:
    repro.net.message and repro.core.messages.
    """

    name = "frozen-message"
    description = ("dataclasses in repro.net.message / "
                   "repro.core.messages must be frozen=True with slots")
    severity = Severity.ERROR

    _MODULES = ("repro.net.message", "repro.core.messages")

    def applies(self, ctx: FileContext) -> bool:
        return ctx.is_module(*self._MODULES)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from _frozen_slotted_findings(self, ctx, "message")


class FrozenEventRule(Rule):
    """Observability events are immutable, deterministic value objects.

    The event vocabulary (:mod:`repro.obs.events`) must be frozen +
    slotted so a recorded stream cannot be mutated after emission.  And
    the observability package may not import entropy or wall-clock
    sources (uuid/secrets/datetime): correlation ids come from the bus
    counter and timestamps from the simulated clock, which is what
    makes traces byte-identical across reruns and worker counts.
    """

    name = "frozen-event"
    description = ("repro.obs.events dataclasses must be frozen+slotted; "
                   "uuid/secrets/datetime imports banned in repro.obs")
    severity = Severity.ERROR

    _ENTROPY_ROOTS = {"uuid", "secrets", "datetime"}

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro.obs")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_module("repro.obs.events"):
            yield from _frozen_slotted_findings(self, ctx, "event")
        message = ("import of {name!r} in repro.obs; correlation ids "
                   "come from the bus counter and timestamps from the "
                   "simulated clock — no uuid/entropy/wall-clock sources")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in self._ENTROPY_ROOTS:
                        yield ctx.finding(
                            self, node, message.format(name=alias.name))
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.level == 0:
                if node.module.split(".")[0] in self._ENTROPY_ROOTS:
                    yield ctx.finding(
                        self, node, message.format(name=node.module))


class HopBoundRule(Rule):
    """Topology hop queries must state their search bound.

    ``reachable`` builds the whole component's distance map unless
    ``max_hops`` stops it (PR 3's counter-asserted BFS savings);
    ``hops`` and ``nearest`` stop at their answer, but a missing one
    is still searched for to the edge of the component.  An explicit
    ``max_hops=None`` documents a *deliberately* unbounded query; an
    absent argument is an unreviewed one.
    """

    name = "hop-bound"
    description = ("topology.hops()/reachable()/within_hops()/nearest() "
                   "without an explicit hop bound argument")
    severity = Severity.ERROR

    # method name -> (min positional args incl. receiver-less form,
    #                 keyword that satisfies the bound)
    _QUERIES = {
        "hops": (3, "max_hops"),
        "reachable": (2, "max_hops"),
        "within_hops": (2, "k"),
        "nearest": (3, "max_hops"),
    }

    def applies(self, ctx: FileContext) -> bool:
        # The legacy oracle keeps its own (test-only) API.
        return not ctx.is_module("repro.net.oracle")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._QUERIES):
                continue
            min_args, keyword = self._QUERIES[node.func.attr]
            bounded = (
                len(node.args) >= min_args
                or any(kw.arg == keyword for kw in node.keywords))
            if not bounded:
                yield ctx.finding(
                    self, node,
                    f".{node.func.attr}() without a hop bound may walk the "
                    f"whole component; pass {keyword}=... "
                    f"({keyword}=None if deliberately unbounded)")


class ConnApiRule(Rule):
    """Protocol code asks connectivity questions via component labels.

    Since the incremental connectivity layer, ``Topology`` answers
    "same partition?" in O(1) (:meth:`same_component`) and "who is in
    my partition?" in O(component) (:meth:`component_members`).  A
    ``reachable(..., max_hops=None)`` / ``hops(..., max_hops=None)``
    call in the protocol packages re-introduces the unbounded
    whole-component BFS those queries replaced, so the sibling of
    ``hop-bound`` flags the deliberate-unbounded spelling too — inside
    ``repro.core`` / ``repro.quorum`` only, where every call site was
    migrated.  Engine, instrument and oracle code may still flood.
    """

    name = "conn-api"
    description = ("unbounded topology query (max_hops=None) in protocol "
                   "code that should use the connectivity-label API")
    severity = Severity.ERROR

    _QUERIES = ("hops", "reachable")

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro.core", "repro.quorum")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._QUERIES):
                continue
            unbounded = any(
                kw.arg == "max_hops"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is None
                for kw in node.keywords)
            if unbounded:
                yield ctx.finding(
                    self, node,
                    f".{node.func.attr}(max_hops=None) floods the whole "
                    "component; protocol code should use same_component()"
                    " / component_members() (O(1)/O(component) label "
                    "queries) instead")


class TimerDisciplineRule(Rule):
    """Protocol timers are configuration, not scattered literals.

    ``T_e``/``T_d``/``T_r`` live on
    :class:`repro.core.config.ProtocolConfig`; re-declaring them as
    numeric literals anywhere else silently forks the protocol's timing
    story (and the PROTOCOL.md fault <-> timer table).
    """

    name = "timer-discipline"
    description = ("timer constants (T_e/T_d/T_r) assigned numeric "
                   "literals outside repro.core.config")
    severity = Severity.WARNING

    _TIMER_NAMES = {"te", "td", "tr", "t_e", "t_d", "t_r"}

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro") and \
            not ctx.is_module("repro.core.config")

    def _is_literal_number(self, node: Optional[ast.expr]) -> bool:
        if isinstance(node, ast.UnaryOp) and \
                isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and \
            isinstance(node.value, (int, float)) and \
            not isinstance(node.value, bool)

    def _timer_target(self, target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        else:
            return None
        return name if name.lower() in self._TIMER_NAMES else None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        message = ("timer constant {name!r} re-declared as a literal; "
                   "read it from ProtocolConfig (repro.core.config)")
        for node in ast.walk(ctx.tree):
            targets: Sequence[ast.expr] = ()
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets, value = (node.target,), node.value
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                pos = args.posonlyargs + args.args
                defaults: List[Optional[ast.expr]] = \
                    [None] * (len(pos) - len(args.defaults)) + \
                    list(args.defaults)
                for arg, default in list(zip(pos, defaults)) + \
                        list(zip(args.kwonlyargs, args.kw_defaults)):
                    if default is not None and \
                            arg.arg.lower() in self._TIMER_NAMES and \
                            self._is_literal_number(default):
                        yield ctx.finding(
                            self, default,
                            message.format(name=arg.arg))
                continue
            else:
                continue
            if not self._is_literal_number(value):
                continue
            for target in targets:
                name = self._timer_target(target)
                if name is not None:
                    yield ctx.finding(self, node, message.format(name=name))


class QuorumArithRule(Rule):
    """Quorum thresholds come from the voting helpers.

    ``w > v/2`` and the linear-voting half-set rule are implemented
    once in :mod:`repro.quorum.voting`
    (:func:`~repro.quorum.voting.majority_threshold` /
    :func:`~repro.quorum.voting.half_of`); inline ``// 2`` arithmetic
    on quorum sizes re-derives the paper's Section II-C conditions by
    hand and has historically been where off-by-one splits hide.
    """

    name = "quorum-arith"
    description = ("inline '// 2' quorum arithmetic outside "
                   "repro.quorum.voting")
    severity = Severity.WARNING

    def applies(self, ctx: FileContext) -> bool:
        return (ctx.in_package("repro.quorum", "repro.cluster")
                and not ctx.is_module("repro.quorum.voting"))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and \
                    isinstance(node.op, ast.FloorDiv) and \
                    isinstance(node.right, ast.Constant) and \
                    node.right.value == 2:
                yield ctx.finding(
                    self, node,
                    "inline halving of a quorum size; use "
                    "repro.quorum.voting.majority_threshold()/half_of() "
                    "so the w > v/2 rule lives in one place")


class NoOracleImportRule(Rule):
    """The runtime stays dependency-free.

    PR 3 moved numpy/networkx behind the test-only oracle
    (:mod:`repro.net.oracle`); only the oracle itself may touch them.
    """

    name = "no-oracle-import"
    description = ("runtime import of numpy/networkx or the test-only "
                   "repro.net.oracle")
    severity = Severity.ERROR

    _BANNED_ROOTS = {"numpy", "networkx"}

    def applies(self, ctx: FileContext) -> bool:
        return (ctx.in_package("repro")
                and not ctx.is_module("repro.net.oracle"))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self._BANNED_ROOTS or \
                            alias.name.startswith("repro.net.oracle"):
                        yield ctx.finding(
                            self, node,
                            f"runtime import of {alias.name!r}; the "
                            "simulator runtime is dependency-free "
                            "(oracle/numpy/networkx are test-only)")
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.level == 0:
                root = node.module.split(".")[0]
                from_oracle = node.module.startswith("repro.net.oracle")
                imports_oracle = (
                    node.module == "repro.net"
                    and any(alias.name == "oracle" for alias in node.names))
                if root in self._BANNED_ROOTS or from_oracle or \
                        imports_oracle:
                    yield ctx.finding(
                        self, node,
                        f"runtime import from {node.module!r}; the "
                        "simulator runtime is dependency-free "
                        "(oracle/numpy/networkx are test-only)")


#: Report order; ``--select`` / ``--ignore`` match on ``Rule.name``.
ALL_RULES: Tuple[Rule, ...] = (
    DeterminismRule(),
    RngStreamRule(),
    FrozenMessageRule(),
    FrozenEventRule(),
    HopBoundRule(),
    ConnApiRule(),
    TimerDisciplineRule(),
    QuorumArithRule(),
    NoOracleImportRule(),
)

RULES_BY_NAME: Dict[str, Rule] = {rule.name: rule for rule in ALL_RULES}


AnyRule = Union[Rule, ProjectRule]


def all_rule_names() -> Tuple[str, ...]:
    """Every known rule name, per-file and whole-program alike."""
    return tuple(rule.name for rule in ALL_RULES) + tuple(
        rule.name for rule in PROJECT_RULES)


def resolve_rules(select: Optional[Set[str]] = None,
                  ignore: Optional[Set[str]] = None,
                  project: bool = True) -> Tuple[AnyRule, ...]:
    """The active rules for a ``--select`` / ``--ignore`` pair.

    Returns a mixed tuple of per-file :class:`Rule` and whole-program
    :class:`~repro.lint.project.ProjectRule` objects (the engine
    dispatches on type); ``project=False`` drops the whole-program
    pass entirely.
    """
    known = set(all_rule_names())
    unknown = (set(select or ()) | set(ignore or ())) - known
    if unknown:
        raise ValueError(
            f"unknown rule(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})")
    candidates: Tuple[AnyRule, ...] = ALL_RULES
    if project:
        candidates = ALL_RULES + PROJECT_RULES
    active = [rule for rule in candidates
              if (select is None or rule.name in select)
              and (ignore is None or rule.name not in ignore)]
    return tuple(active)
