"""Deterministic random-number-generator management.

Parallel algorithms that sample independently on every simulated processor
need *statistically independent but reproducible* random streams.  NumPy's
``SeedSequence.spawn`` gives exactly that: child sequences are independent by
construction and fully determined by the parent seed.  Everything random in
this library flows through :class:`RngTree` so a single integer seed pins the
entire experiment.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["RngTree", "spawn_rngs"]


@functools.lru_cache(maxsize=1024)
def _name_words(name: str) -> tuple[int, int]:
    """A stream name's 64-bit FNV-1a hash as two 32-bit spawn-key words.

    Python's salted ``hash`` would differ between interpreters.  The few
    stream names recur for every rank of every run, so the byte loop is
    memoized.
    """
    h = 0xCBF29CE484222325
    for byte in name.encode():
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h & 0xFFFFFFFF, (h >> 32) & 0xFFFFFFFF


class RngTree:
    """A tree of named, reproducible random generators.

    Each distinct ``name`` (optionally with an integer index, e.g. a rank)
    deterministically maps to an independent :class:`numpy.random.Generator`.
    Requesting the same name twice returns generators seeded identically, so
    components can re-derive their stream without threading generator objects
    through every call.

    Examples
    --------
    >>> tree = RngTree(1234)
    >>> g1 = tree.generator("sampling", 0)
    >>> g2 = tree.generator("sampling", 1)
    >>> bool(g1.integers(100) == RngTree(1234).generator("sampling", 0).integers(100))
    True
    """

    def __init__(self, seed: int | None = 0) -> None:
        self._seed = seed
        self._root = np.random.SeedSequence(seed)

    @property
    def seed(self) -> int | None:
        """The root seed this tree was constructed with."""
        return self._seed

    def _child(self, *key: object) -> np.random.SeedSequence:
        # Hash the key path into spawn_key-compatible integers.
        ints: list[int] = []
        for part in key:
            if isinstance(part, (int, np.integer)):
                ints.append(int(part) & 0xFFFFFFFF)
            else:
                ints.extend(_name_words(str(part)))
        return np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=tuple(self._root.spawn_key) + tuple(ints),
        )

    def generator(self, name: str, index: int = 0) -> np.random.Generator:
        """Return the generator for stream ``(name, index)``."""
        return np.random.default_rng(self._child(name, index))

    def generators(self, name: str, count: int) -> list[np.random.Generator]:
        """Return ``count`` independent generators for ranks ``0..count-1``."""
        return [self.generator(name, i) for i in range(count)]

    def subtree(self, name: str) -> "RngTree":
        """Derive an independent child tree (for nested components)."""
        child = RngTree.__new__(RngTree)
        child._seed = None
        child._root = self._child("subtree", name)
        return child


def spawn_rngs(seed: int | None, count: int) -> list[np.random.Generator]:
    """Spawn ``count`` independent generators from one seed.

    Convenience wrapper used where a flat list of per-rank generators is all
    that is needed.
    """
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(count)]


def rng_or_default(
    rng: np.random.Generator | int | None,
) -> np.random.Generator:
    """Coerce ``rng`` into a Generator (int = seed, None = fresh default)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
