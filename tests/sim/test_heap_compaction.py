"""Lazy-cancel heap compaction: tombstones are purged, semantics intact.

Heap entries are ``(time, priority, seq, event)`` tuples; a tombstone
is an entry whose event is no longer ``pending``.
"""

import heapq

from repro.sim.engine import Simulator


def test_compaction_purges_cancelled_tombstones():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
    assert len(sim._heap) == 200
    # Cancel from the back so none are removed by peek()'s top-popping.
    for handle in handles[60:]:
        sim.cancel(handle)
    assert sim.pending_events == 60
    # Compaction fires whenever tombstones exceed half the heap, so the
    # heap stays within 2x the live count instead of keeping all 140
    # cancelled entries around.
    assert len(sim._heap) < 200
    assert len(sim._heap) <= 2 * sim.pending_events
    live = sum(1 for *_key, event in sim._heap if event.pending)
    assert live == 60


def test_no_compaction_below_size_floor():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(20)]
    for handle in handles[5:]:
        sim.cancel(handle)
    # Tiny heaps are left alone — compaction overhead isn't worth it.
    assert len(sim._heap) == 20
    assert sim.pending_events == 5


def test_pending_peek_and_order_unchanged_by_compaction():
    """The compacted simulator fires exactly what an uncompacted one would."""

    def build(compact):
        sim = Simulator()
        if not compact:
            sim.COMPACT_MIN_SIZE = 1 << 30  # disable
        fired = []
        handles = []
        for i in range(300):
            handles.append(
                sim.schedule(float(i % 17) + 1.0, fired.append, i,
                             priority=i % 3))
        for i, handle in enumerate(handles):
            if i % 4 != 0:
                sim.cancel(handle)
        return sim, fired

    sim_a, fired_a = build(compact=True)
    sim_b, fired_b = build(compact=False)
    assert sim_a.pending_events == sim_b.pending_events
    assert sim_a.peek() == sim_b.peek()
    sim_a.run()
    sim_b.run()
    assert fired_a == fired_b
    assert sim_a.now == sim_b.now


def test_compacted_heap_is_a_valid_heap():
    sim = Simulator()
    handles = [sim.schedule(float(997 - i), lambda: None) for i in range(150)]
    for handle in handles[:100]:
        sim.cancel(handle)
    # The (time, priority, seq) prefix is a total order, so comparing
    # entries never reaches the Event in the last position.
    reference = sorted(sim._heap)
    verify = list(sim._heap)
    popped = [heapq.heappop(verify) for _ in range(len(verify))]
    assert popped == reference


def test_entries_are_ordered_tuples_with_fifo_seq():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    second = sim.schedule(1.0, lambda: None)
    urgent = sim.schedule(1.0, lambda: None, priority=-1)
    assert sorted(sim._heap) == [
        (1.0, -1, 2, urgent), (1.0, 0, 0, first), (1.0, 0, 1, second)]


def test_fifo_within_time_and_priority_survives_compact():
    """Same (time, priority): scheduling order, before and after the
    heap is rebuilt without its tombstones."""

    def drive(compact):
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule(float(i % 3), fired.append, i, priority=i % 2)
            for i in range(120)]
        for i, handle in enumerate(handles):
            if i % 5 == 0:
                sim.cancel(handle)
        if compact:
            sim.compact()
            assert sim.heap_size == sim.pending_events
        sim.run()
        return fired

    fired = drive(compact=False)
    assert fired == drive(compact=True)
    assert fired == sorted(fired, key=lambda i: (i % 3, i % 2, i))


def test_tombstone_cap_triggers_compaction_in_large_heaps():
    """Even while tombstones are a minority, the absolute cap bounds them."""
    sim = Simulator()
    sim.COMPACT_MAX_TOMBSTONES = 50
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(400)]
    # Cancel 100 of 400 (25% — far below the half-heap fractional rule).
    for handle in handles[300:]:
        sim.cancel(handle)
    assert sim.pending_events == 300
    assert sim.compactions >= 1
    assert sim.heap_size - sim.pending_events <= 50


def test_compactions_amortized_by_min_interval():
    """A cancel pattern hovering at a threshold must not pay the O(heap)
    rebuild per cancel — compactions are spaced by schedule count."""
    sim = Simulator()
    sim.COMPACT_MAX_TOMBSTONES = 10  # trip the absolute cap constantly
    for _ in range(8):
        handles = [sim.schedule(float(i + 1), lambda: None)
                   for i in range(256)]
        for handle in handles:
            sim.cancel(handle)
    # 2048 schedules: at most ceil(2048 / interval) compactions may run
    # (plus the primed first one), however often the cap was exceeded.
    bound = 1 + -(-sim._seq // Simulator.COMPACT_MIN_INTERVAL)
    assert 1 <= sim.compactions <= bound
    # The spacing rule bounds tombstone memory too: between compactions
    # at most COMPACT_MIN_INTERVAL extra tombstones can accumulate.
    assert sim.heap_size - sim.pending_events <= (
        sim.COMPACT_MAX_TOMBSTONES + Simulator.COMPACT_MIN_INTERVAL)


def test_min_interval_does_not_delay_first_compaction():
    sim = Simulator()
    sim.COMPACT_MAX_TOMBSTONES = 10
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    for handle in handles[30:]:
        sim.cancel(handle)
    # _last_compact_seq is primed negative, so the very first threshold
    # trip compacts immediately even though seq < COMPACT_MIN_INTERVAL.
    assert sim.compactions == 1


def test_public_compact_purges_now_and_counts():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(30)]
    for handle in handles[20:]:
        sim.cancel(handle)
    # Below COMPACT_MIN_SIZE nothing happened automatically...
    assert sim.heap_size == 30
    assert sim.compactions == 0
    sim.compact()
    assert sim.heap_size == sim.pending_events == 20
    assert sim.compactions == 1
    # ...and compacting an already-clean heap is a free no-op.
    sim.compact()
    assert sim.compactions == 1


def test_timer_restart_churn_keeps_heap_bounded():
    """Realistic churn: a constantly-restarted timeout must not grow the
    heap without bound (the original lazy-cancel leak)."""
    from repro.sim.timers import Timer

    sim = Simulator()
    fired = []
    timer = Timer(sim, fired.append)
    for i in range(500):
        timer.restart(10.0, i)  # cancels the previous schedule each time
        sim.schedule(0.001 * (i + 1), lambda: None)
    # 500 cancelled timer events + 500 live ticks: without compaction the
    # heap would hold ~1000 entries.
    assert len(sim._heap) <= 2 * sim.pending_events + Simulator.COMPACT_MIN_SIZE
    sim.run()
    assert fired[-1] == 499  # only the last restart's payload fires
