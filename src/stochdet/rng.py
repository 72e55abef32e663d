"""Deterministic, splittable random streams.

Every stochastic draw in this package is a pure function of a base seed
plus a path of labels (pass index, layer index, filter index, ...).
Streams are backed by the counter-based Philox generator, keyed through
``numpy.random.SeedSequence`` spawn keys, so independent substreams can
be opened in any order -- including concurrently -- and always produce
the same values.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_POOL_WORDS = 4  # SeedSequence's pool size, in uint32 words


@lru_cache(maxsize=256)
def _str_label_words(label: str) -> tuple[int, int]:
    # Python's builtin hash() is salted per process, so strings go through
    # blake2b for cross-run stability
    v = int.from_bytes(hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "little")
    return v >> 32, v & _MASK32


def _label_words(label: int | str) -> tuple[int, int]:
    """The two uint32 words a path label adds to a SeedSequence spawn key."""
    if isinstance(label, str):
        return _str_label_words(label)
    if isinstance(label, (int, np.integer)):
        v = int(label) & _MASK64
        return v >> 32, v & _MASK32
    raise TypeError(f"stream path labels must be int or str, got {type(label)!r}")


def _seed_sequence(base_seed: int, path: tuple[int | str, ...]) -> np.random.SeedSequence:
    """SeedSequence(entropy=base_seed mod 2**64, spawn_key=the path's words), built faster.

    numpy assembles that sequence's entropy as the base seed's
    little-endian uint32 words, zero-padded to the pool size when a spawn
    key follows, then the spawn key's words. Handing it that array directly
    gives the same state without numpy's per-element coercion.
    """
    if isinstance(base_seed, bool) or not isinstance(base_seed, (int, np.integer)):
        raise TypeError(f"base seed must be an integer, got {base_seed!r}")
    v = int(base_seed) & _MASK64
    words = [v & _MASK32, v >> 32] if v >> 32 else [v]
    if path:
        words += [0] * (_POOL_WORDS - len(words))
        for label in path:
            words += _label_words(label)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def substream(base_seed: int, *path: int | str) -> np.random.Generator:
    """A Generator whose output depends only on (base_seed, path)."""
    return np.random.Generator(np.random.Philox(_seed_sequence(base_seed, path)))


def derive_seed(base_seed: int, *path: int | str) -> int:
    """A 64-bit seed derived deterministically from (base_seed, path).

    Used to hand independent sub-seeds to components that key their own
    substreams (e.g. one seed per noisy inference pass).
    """
    state = _seed_sequence(base_seed, path).generate_state(2, dtype=np.uint32)
    return int(state[0]) << 32 | int(state[1])
