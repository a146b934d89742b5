"""Named, independently seeded random streams.

Distributed-systems simulations want *variance isolation*: changing how
one subsystem draws randomness (say, mobility) must not perturb another
(say, departure choices).  ``RandomStreams`` hands each named consumer its
own :class:`random.Random` generator, derived deterministically from the
master seed and the stream name.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master: int, name: str) -> int:
    """Derive a stable 64-bit seed from a master seed and a stream name."""
    digest = hashlib.sha256(f"{master}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def generator_from_seed(seed: int) -> random.Random:
    """A bare ``random.Random`` seeded directly, no name derivation.

    The blessed constructor for the rare consumer that needs a raw
    generator outside the :class:`RandomStreams` registry (e.g. the
    perf ledger's population builders, whose layouts are keyed by the
    literal seed).  Centralizing construction here is what lets the
    ``determinism`` lint rule guarantee no ad-hoc generators exist
    anywhere else in the runtime.
    """
    return random.Random(seed)


def spawn_key(master: int, *parts: object) -> int:
    """Derive a 64-bit seed from a master seed and a structured key path.

    ``spawn_key(7, "fig05", "quorum", 3)`` is the seed for replicate 3
    of the quorum curve of fig05 under sweep master seed 7.  The value
    depends only on ``(master, parts)`` — never on execution order — so
    a parallel sweep that derives per-run seeds this way draws exactly
    the same randomness as the serial sweep, cell for cell.

    Each part is hashed through its ``repr`` with a type tag, so
    ``spawn_key(0, 1)`` and ``spawn_key(0, "1")`` differ.
    """
    hasher = hashlib.sha256(f"{master}".encode("utf-8"))
    for part in parts:
        hasher.update(f"|{type(part).__name__}:{part!r}".encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")


class RandomStreams:
    """A registry of named deterministic random generators.

    Example:
        >>> streams = RandomStreams(42)
        >>> a = streams.get("mobility")
        >>> b = streams.get("mobility")
        >>> a is b
        True
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return (creating if needed) the generator for ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = stream
        return stream
