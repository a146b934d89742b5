"""Discrete-event simulation kernel.

A small, deterministic, dependency-free discrete-event engine in the style
of SimPy: a binary-heap event queue driven by :class:`Simulator`, one-shot
and periodic :class:`~repro.sim.timers.Timer` helpers, and named,
independently seeded random streams
(:class:`~repro.sim.rng.RandomStreams`).

The paper's evaluation was run on a custom C discrete-event simulator; this
package is the equivalent substrate for the reproduction.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.rng import RandomStreams
from repro.sim.timers import PeriodicTimer, Timer

__all__ = [
    "Simulator",
    "Event",
    "RandomStreams",
    "Timer",
    "PeriodicTimer",
]
