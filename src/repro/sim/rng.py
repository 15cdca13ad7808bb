"""Named deterministic random streams.

Every source of randomness in a simulation draws from a *named stream*
derived from a single root seed.  This gives two essential properties:

* **Reproducibility** — the same root seed always produces the same run.
* **Isolation** — adding a new random consumer (e.g. a new protocol timer)
  does not perturb the draws seen by existing consumers, because each
  consumer owns its own generator.

Example
-------
>>> streams = RandomStreams(seed=42)
>>> a = streams.stream("mobility/node-3")
>>> b = streams.stream("workload/query/node-3")
>>> a is streams.stream("mobility/node-3")
True

A consumer that draws once and is done (a stationary host's start
position) takes :meth:`RandomStreams.one_shot` instead: same seed
derivation, same draws, but the registry keeps only the name, so the
generator's 2.5 KB of Mersenne-Twister state is freed with its last use.
"""

from __future__ import annotations

import _random
import hashlib
import random
from typing import Dict

from repro.errors import SimulationError

__all__ = ["RandomStreams", "Stream", "derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 so that textually similar names yield uncorrelated seeds.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Stream(random.Random):
    """:class:`random.Random` whose one Python-level attribute is a slot.

    ``random.Random`` keeps ``gauss_next`` in an instance ``__dict__`` —
    326 bytes per generator on top of the C state, and a world holds
    three generators per host.  Declaring the attribute as a slot leaves
    that dict unallocated; the generator, every draw, ``getstate`` /
    ``setstate``, pickling and copying are the base class's own.
    """

    __slots__ = ("gauss_next",)


#: What the registry keeps under a name it handed out through one_shot().
_SPENT = Stream(0)

_new_stream = Stream.__new__
_seed_state = _random.Random.seed


class RandomStreams:
    """Factory and registry of named :class:`random.Random` instances.

    Parameters
    ----------
    seed:
        Root seed.  Every named stream is derived deterministically from it.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, Stream] = {}
        # derive_seed hashes "<seed>:<name>": the prefix is hashed once.
        self._prefix = hashlib.sha256(f"{self._seed}:".encode("utf-8"))

    def _generator(self, name: str) -> Stream:
        """``Stream(derive_seed(self.seed, name))``, built without Python frames.

        ``random.Random``'s C ``__new__`` is the generic allocator: it
        neither seeds nor reads an argument (CPython 3.11–3.13 leave an
        all-zero state; a seed passed to it is ignored).  Seeding happens
        once, in ``__init__``, whose Python ``seed`` only type-checks an int
        and hands it to the C ``seed`` — calling that directly yields the
        same state without the two Python frames.
        """
        digest = self._prefix.copy()
        digest.update(name.encode("utf-8"))
        generator = _new_stream(Stream)
        _seed_state(generator, int.from_bytes(digest.digest()[:8], "big"))
        generator.gauss_next = None
        return generator

    def __getstate__(self) -> dict:
        # A hash object does not pickle: __setstate__ rebuilds it from the seed.
        return {"seed": self._seed, "streams": self._streams}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["seed"])
        self._streams = state["streams"]

    @property
    def seed(self) -> int:
        """The root seed this registry was created with."""
        return self._seed

    def stream(self, name: str) -> Stream:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            generator = self._streams[name] = self._generator(name)
        elif generator is _SPENT:
            raise SimulationError(
                f"stream {name!r} was handed out as one-shot; asking for it "
                "again would restart its sequence"
            )
        return generator

    def one_shot(self, name: str) -> Stream:
        """A fresh generator for ``name`` that the registry does not keep.

        For consumers that draw and are done: the caller holds the only
        reference, so the generator is freed when the caller drops it.
        The *name* is still recorded — a second request for it, through
        either method, raises rather than replaying the same draws.
        """
        if name in self._streams:
            raise SimulationError(
                f"stream {name!r} already exists; a one-shot generator of the "
                "same name would replay its sequence"
            )
        self._streams[name] = _SPENT
        return self._generator(name)

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __len__(self) -> int:
        return len(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed}, streams={len(self._streams)})"
