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

A consumer that draws at build and then perhaps never again (a host's
arrival, switching and mobility streams) takes :meth:`RandomStreams.parked`:
the stream's seed, and the registry keeps only the name.  It makes its
build-time draws from ``seeded(seed)`` and drops that generator; on its
next draw it builds ``seeded(seed)`` again and repeats the same calls,
which leaves the generator in exactly the state the build left it in
(``docs/decisions/16-streams-held-while-drawn.md``).
"""

from __future__ import annotations

import _random
import random
from typing import Dict, Optional

from repro.errors import SimulationError

# The interpreter's own SHA-256: hashlib would load OpenSSL's libcrypto
# (≈ 3.5 MiB resident) for nothing but this hash.  Same digests either way.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.11
    except ImportError:  # pragma: no cover - a build without the builtin hash
        from hashlib import sha256

__all__ = ["RandomStreams", "Stream", "derive_seed", "seeded"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 so that textually similar names yield uncorrelated seeds.
    """
    digest = sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Stream(random.Random):
    """:class:`random.Random` whose one Python-level attribute is a slot.

    ``random.Random`` keeps ``gauss_next`` in an instance ``__dict__`` —
    326 bytes per generator on top of the C state.  Declaring the
    attribute as a slot leaves that dict unallocated; the generator, every
    draw, ``getstate`` / ``setstate``, pickling and copying are the base
    class's own.
    """

    __slots__ = ("gauss_next",)


_new_stream = Stream.__new__
_seed_state = _random.Random.seed


def seeded(seed: int) -> Stream:
    """``Stream(seed)`` for an int ``seed``, built without Python frames.

    ``random.Random``'s C ``__new__`` is the generic allocator: it
    neither seeds nor reads an argument (CPython 3.11–3.13 leave an
    all-zero state; a seed passed to it is ignored).  Seeding happens
    once, in ``__init__``, whose Python ``seed`` only type-checks an int
    and hands it to the C ``seed`` — calling that directly yields the
    same state without the two Python frames.
    """
    generator = _new_stream(Stream)
    _seed_state(generator, seed)
    generator.gauss_next = None
    return generator


class RandomStreams:
    """Factory and registry of named :class:`random.Random` instances.

    Parameters
    ----------
    seed:
        Root seed.  Every named stream is derived deterministically from it.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        # None under a name handed out through one_shot() or parked().
        self._streams: Dict[str, Optional[Stream]] = {}
        # derive_seed hashes "<seed>:<name>": the prefix is hashed once.
        self._prefix = sha256(f"{self._seed}:".encode("utf-8"))

    def _derive(self, name: str) -> int:
        """``derive_seed(self.seed, name)`` from the hashed prefix."""
        digest = self._prefix.copy()
        digest.update(name.encode("utf-8"))
        return int.from_bytes(digest.digest()[:8], "big")

    def _claim(self, name: str) -> int:
        """Record ``name`` as handed out and not kept; its derived seed."""
        if name in self._streams:
            raise SimulationError(
                f"stream {name!r} already exists; handing it out again "
                "would replay its sequence"
            )
        self._streams[name] = None
        return self._derive(name)

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
            if name in self._streams:
                raise SimulationError(
                    f"stream {name!r} was handed out one-shot or parked; "
                    "asking for it again would restart its sequence"
                )
            generator = self._streams[name] = seeded(self._derive(name))
        return generator

    def one_shot(self, name: str) -> Stream:
        """A fresh generator for ``name`` that the registry does not keep.

        For consumers that draw and are done: the caller holds the only
        reference, so the generator is freed when the caller drops it.
        The *name* is still recorded — a second request for it, through
        any method, raises rather than replaying the same draws.
        """
        return seeded(self._claim(name))

    def parked(self, name: str) -> int:
        """The seed of ``name``'s stream, for a consumer that keeps it parked.

        The consumer builds ``seeded(seed)`` for the draws it makes at
        build and drops it; when it draws again it builds ``seeded(seed)``
        anew and repeats those calls before its next draw, so every draw
        is the one :meth:`stream` would have given.  The registry keeps
        only the name, and a second request for it, through any method,
        raises.
        """
        return self._claim(name)

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __len__(self) -> int:
        return len(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed}, streams={len(self._streams)})"
