"""Messages, obs events and send outcomes are immutable value objects.

Frozen and slotted is what makes one delivered message safe to share
between fan-out receivers and a recorded event stream impossible to
mutate after emission; pickling is how both reach worker processes.
The classes are inspected as built, so this also sees what the
``slotted`` decorator actually produced.
"""

import dataclasses
import pickle

import pytest

from repro.net import Message, SendOutcome
from repro.net.message import slotted
from repro.obs import events as ev


def _sample(cls):
    """An instance with every field set (dataclasses check no types)."""
    fields = dataclasses.fields(cls)
    return cls(**{field.name: index for index, field in enumerate(fields)})


def defects(value):
    """What keeps ``value`` from being a frozen, slotted dataclass."""
    cls = type(value)
    found = []
    if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen):
        found.append("not frozen")
    if hasattr(value, "__dict__"):
        found.append("not slotted")
    return found


VALUES = [Message("PING", 0, 2), SendOutcome(True, 2, ((2, 2),), 2, 2, 0)]
VALUES += [_sample(cls) for cls in ev.EVENT_TYPES.values()]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_is_a_frozen_slotted_picklable_value(value):
    cls = type(value)
    assert defects(value) == []
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, dataclasses.fields(cls)[0].name, None)
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("frozen, slots, expected", [
    (False, False, ["not frozen", "not slotted"]),
    (True, False, ["not slotted"]),
    (False, True, ["not frozen"]),
    (True, True, []),
], ids=["unfrozen-unslotted", "frozen-unslotted", "unfrozen-slotted",
        "slotted-decorator"])
def test_each_defect_is_caught(frozen, slots, expected):
    cls = dataclasses.make_dataclass("Fixture", ["mtype"], frozen=frozen)
    cls = slotted(cls) if slots else cls
    assert defects(cls("PING")) == expected
