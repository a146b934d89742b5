"""Unit and integration tests for the subsystem attribution profiler."""

import functools

import pytest

from repro.obs.profile import OTHER, SubsystemProfiler, package_of
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer, Timer


def _net_callback():
    """Module-level target so package_of sees tests' module path."""


def test_package_of_truncates_to_two_components():
    timer = Timer(Simulator(), _net_callback)
    assert package_of(timer._fire) == package_of(_net_callback)

    class Owner:
        def method(self):
            pass

    # A bound method is charged to its class's module.
    assert package_of(Owner().method) == package_of(_net_callback)


def test_package_of_unwraps_partials_and_timer_trampolines():
    sim = Simulator()
    base = package_of(_net_callback)
    assert package_of(functools.partial(_net_callback)) == base
    assert package_of(
        functools.partial(functools.partial(_net_callback))) == base
    assert package_of(Timer(sim, _net_callback)._fire) == base
    assert package_of(
        PeriodicTimer(sim, 1.0, _net_callback)._fire) == base
    # Partial wrapping a timer trampoline unwraps through both layers.
    assert package_of(
        functools.partial(Timer(sim, _net_callback)._fire)) == base


def test_package_of_memoises_per_function_not_per_instance():
    from repro.obs import profile

    class Owner:
        def method(self):
            pass

    sim = Simulator()
    first, second = Owner(), Owner()
    base = package_of(first.method)
    code = Owner.method.__code__
    assert profile._PACKAGE_BY_CODE[code] == base
    size = len(profile._PACKAGE_BY_CODE)
    # Other instances, closures and timer wrappers of a known function
    # are answered from its entry: the table holds code objects only.
    assert package_of(second.method) == base
    assert package_of(Timer(sim, second.method)._fire) == base
    assert package_of(PeriodicTimer(sim, 1.0, first.method)._fire) == base
    assert len(profile._PACKAGE_BY_CODE) == size
    # A trampoline is never memoised under its own code: what it
    # resolves to depends on the callback it wraps.
    assert Timer._fire.__code__ not in profile._PACKAGE_BY_CODE
    assert PeriodicTimer._fire.__code__ not in profile._PACKAGE_BY_CODE
    assert package_of(Timer(sim, len)._fire) == "builtins"


def test_package_of_buckets_unowned_callables_as_other():
    # Builtins resolve to their real (non-repro) module...
    assert package_of(len) == "builtins"
    assert package_of({}.get) == "builtins"

    class Unowned:
        __module__ = ""

        def __call__(self):
            pass

    # ...and callables with no module at all land in the OTHER bucket.
    assert package_of(Unowned()) == OTHER


def test_install_twice_raises_and_uninstall_is_idempotent():
    sim = Simulator()
    profiler = SubsystemProfiler().install(sim)
    with pytest.raises(RuntimeError):
        profiler.install(sim)
    profiler.uninstall()
    profiler.uninstall()
    profiler.install(sim)
    profiler.uninstall()


def test_events_are_charged_to_the_owning_package():
    sim = Simulator()
    profiler = SubsystemProfiler().install(sim)
    sim.schedule(1.0, _net_callback)
    Timer(sim, _net_callback).start(2.0)
    sim.run(until=3.0)
    profiler.uninstall()
    packages = profiler.packages()
    bucket = package_of(_net_callback)
    # The timer-fired event is charged to the callback's package, not
    # to the repro.sim trampoline.
    assert packages[bucket]["events"] == 2
    assert packages[bucket]["wall_s"] >= 0.0


def test_cohort_members_are_charged_one_by_one():
    """Timers sharing a heap entry still reach the hook callback by
    callback; the cohort's own round is one extra ``repro.sim`` call
    charged with its self time only, parked members' re-arms included."""
    sim = Simulator()
    profiler = SubsystemProfiler().install(sim)
    spins = []

    def busy():
        spins.append(sum(range(20_000)))

    def settled():
        parker.park()

    timers = [PeriodicTimer(sim, 1.0, busy) for _ in range(4)]
    parker = PeriodicTimer(sim, 1.0, settled)
    for timer in [*timers, parker]:
        timer.start()
    assert sim.run(until=2.5) == 2          # two heap entries...
    profiler.uninstall()
    packages = profiler.packages()
    bucket = package_of(busy)
    # ...eight busy callbacks and the parker's first; its second fire
    # passes it over inside the repro.sim round.
    assert packages[bucket]["events"] == 9
    assert packages["repro.sim"]["events"] == 2
    assert sim.parked_rearms == 1
    assert len(spins) == 8
    # Nested calls are not double-counted into the round that hosts them.
    assert packages["repro.sim"]["wall_s"] < packages[bucket]["wall_s"]


def test_profiled_run_fires_identical_events_in_identical_order():
    def drive(profiled):
        sim = Simulator()
        order = []
        profiler = SubsystemProfiler().install(sim) if profiled else None
        for i in range(20):
            sim.schedule(float((i * 7) % 5) + 0.01 * i,
                         lambda i=i: order.append(i))
        ticker = PeriodicTimer(sim, 1.0, lambda: order.append("tick"))
        ticker.start()
        fired = sim.run(until=6.0)
        if profiler is not None:
            profiler.uninstall()
        return order, fired, sim.now

    assert drive(False) == drive(True)


def test_awaited_replies_are_charged_to_the_protocol():
    """An expiry fires through the agent base's record (repro.net), but
    its cost lands on the protocol code that handles the lost reply."""
    from repro.core.protocol import QuorumProtocolAgent
    from repro.geometry import Point
    from repro.mobility.base import Stationary
    from repro.net import Node
    from repro.net.context import NetworkContext

    ctx = NetworkContext.build(seed=1, transmission_range=150.0)
    node = Node(0, Stationary(Point(100.0, 100.0)))
    ctx.topology.add_node(node)
    agent = QuorumProtocolAgent(ctx, node)
    agent._await(("td", 7), 1.0, agent._on_td_expire, 7)
    agent._await(("vote", 3), 2.0, agent._on_vote_timeout, 3)
    assert {package_of(entry._fire) for entry in agent._awaited.values()} \
        == {"repro.core"}
    profiler = SubsystemProfiler().install(ctx.sim)
    assert ctx.sim.run(until=3.0) == 2
    profiler.uninstall()
    assert agent._awaited == {}
    packages = profiler.packages()
    assert packages["repro.core"]["events"] == 2
    assert "repro.net" not in packages
