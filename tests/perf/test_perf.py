"""Unit tests for the repro.perf instrumentation layer."""

from repro.perf import PerfRecorder


def test_counters_increment_and_snapshot_sorted():
    perf = PerfRecorder()
    perf.incr("zeta")
    perf.incr("alpha", 5)
    perf.incr("zeta", 2)
    assert perf.get("zeta") == 3
    assert perf.get("alpha") == 5
    assert perf.get("never_touched") == 0
    assert list(perf.counters_snapshot()) == ["alpha", "zeta"]


def test_timer_accumulates_with_fake_clock():
    ticks = iter(range(100))
    perf = PerfRecorder(clock=lambda: float(next(ticks)))
    with perf.timer("work"):
        pass  # 0 -> 1
    with perf.timer("work"):
        pass  # 2 -> 3
    snap = perf.timings_snapshot()
    assert snap["work"]["calls"] == 2
    assert snap["work"]["total_s"] == 2.0


def test_nested_same_name_timer_counts_outermost_span_once():
    ticks = iter(range(100))
    perf = PerfRecorder(clock=lambda: float(next(ticks)))
    with perf.timer("bfs"):         # clock 0
        with perf.timer("bfs"):     # inner frame: no clock reads
            pass
    # Outer span is 0 -> 1; the re-entrant frame must not double-count.
    snap = perf.timings_snapshot()
    assert snap["bfs"]["calls"] == 2
    assert snap["bfs"]["total_s"] == 1.0


def test_one_cached_timer_object_reentered_while_it_runs():
    ticks = iter(range(100))
    perf = PerfRecorder(clock=lambda: float(next(ticks)))
    block = perf.timer("send")
    assert perf.timer("send") is block      # one object per name
    try:
        with block:                         # clock 0
            with block:                     # the same object, nested
                with perf.timer("bfs"):     # clock 1 -> 2
                    raise ValueError("boom")
    except ValueError:
        pass
    # The raise unwound all three frames: outer span 0 -> 3, once.
    with block:                             # reusable afterwards: 4 -> 5
        pass
    snap = perf.timings_snapshot()
    assert snap["send"] == {"calls": 3, "total_s": 4.0}
    assert snap["bfs"] == {"calls": 1, "total_s": 1.0}


def test_nested_distinct_timers_each_time_their_own_span():
    ticks = iter(range(100))
    perf = PerfRecorder(clock=lambda: float(next(ticks)))
    with perf.timer("outer"):           # clock 0
        with perf.timer("inner"):       # clock 1 -> 2
            pass
    # outer closes at 3.
    assert perf.timings_snapshot() == {
        "inner": {"calls": 1, "total_s": 1.0},
        "outer": {"calls": 1, "total_s": 3.0},
    }


def test_timer_survives_exceptions():
    ticks = iter(range(100))
    perf = PerfRecorder(clock=lambda: float(next(ticks)))
    try:
        with perf.timer("risky"):       # clock 0 -> 1
            raise ValueError("boom")
    except ValueError:
        pass
    with perf.timer("risky"):           # closed by the raise: 2 -> 3
        pass
    assert perf.timings_snapshot()["risky"] == {"calls": 2, "total_s": 2.0}

