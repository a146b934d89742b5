"""Event bus semantics and the typed event vocabulary."""

import dataclasses
import pickle

import pytest

from repro.obs import EventBus, events_from_jsonl, events_to_jsonl
from repro.obs import events as ev


def _vote(time=1.0, node=3, corr=7, **overrides):
    fields = dict(time=time, node=node, corr=corr, attempt=1, voter=4,
                  address=9, status="free", timestamp=2)
    fields.update(overrides)
    return ev.VoteReceived(**fields)


# --- bus -------------------------------------------------------------


def test_bus_is_falsy_without_subscribers():
    bus = EventBus()
    assert not bus
    assert not bus.enabled
    bus.subscribe(lambda e: None)
    assert bus
    assert bus.enabled


def test_emit_fans_out_in_subscribe_order():
    bus = EventBus()
    seen = []
    bus.subscribe(lambda e: seen.append(("a", e)))
    bus.subscribe(lambda e: seen.append(("b", e)))
    event = _vote()
    bus.emit(event)
    assert seen == [("a", event), ("b", event)]


def test_unsubscribe_silences_and_is_idempotent():
    bus = EventBus()
    seen = []
    sub = bus.subscribe(seen.append)
    bus.unsubscribe(sub)
    bus.unsubscribe(sub)  # no-op
    assert not bus
    bus.emit(_vote())
    assert seen == []


def test_correlation_ids_are_monotonic_from_one():
    bus = EventBus()
    assert [bus.new_correlation() for _ in range(4)] == [1, 2, 3, 4]


# --- events ----------------------------------------------------------


def test_events_are_immutable():
    event = _vote()
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.status = "assigned"


def test_etype_registry_is_complete_and_unique():
    assert len(ev.EVENT_TYPES) == 18
    for etype, cls in ev.EVENT_TYPES.items():
        assert cls.etype == etype
    assert ev.TERMINAL_ETYPES <= set(ev.EVENT_TYPES)


def test_record_round_trip_every_type():
    samples = [
        ev.MessageSend(time=0.5, node=1, corr=2, mtype="COM_REQ",
                       kind="unicast", dst=4, hops=2, category="config",
                       delivered=True),
        _vote(),
        ev.VoteTimeout(time=3.0, node=1, corr=2, attempt=1, address=5,
                       responders=1, universe=3, missing=(7, 9)),
        ev.WriteBack(time=4.0, node=1, corr=2, owner=1, address=5,
                     status="assigned", timestamp=3, targets=(2, 7)),
        ev.PartitionEvent(time=5.0, node=8, corr=0, phase="rejoin",
                          network_id=None),
    ]
    for event in samples:
        restored = ev.from_record(ev.to_record(event))
        assert restored == event
        assert type(restored) is type(event)


def test_jsonl_round_trip_and_header_lines_skipped():
    events = [_vote(time=t) for t in (1.0, 2.0)]
    text = '{"run":{"seed":1}}\n' + events_to_jsonl(events)
    assert events_from_jsonl(text) == events


def test_jsonl_is_deterministic_bytes():
    events = [_vote(), ev.WriteBack(time=4.0, node=1, corr=2, owner=1,
                                    address=5, status="assigned",
                                    timestamp=3, targets=(2, 7))]
    assert events_to_jsonl(events) == events_to_jsonl(list(events))


def test_events_pickle_for_worker_transport():
    event = ev.VoteTimeout(time=3.0, node=1, corr=2, attempt=1, address=5,
                           responders=1, universe=3, missing=(7, 9))
    assert pickle.loads(pickle.dumps(event)) == event
