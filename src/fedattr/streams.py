"""Seeded RNG stream derivation.

A single master seed fans out into independent, reproducible streams keyed by
(master, role, *indices).  Client streams are keyed by client id and round, so
adding or removing clients never perturbs the streams of the remaining ones.
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np

_MASK_63 = (1 << 63) - 1


def stream(master_seed: int, role: str, *indices: int) -> np.random.Generator:
    """Return the generator for the (master, role, indices) stream."""
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    if any(i < 0 for i in indices):
        raise ValueError("stream indices must be non-negative")
    return np.random.default_rng(_sequence(master_seed, role, *indices))


@lru_cache(maxsize=128)
def _sequence(master_seed: int, role: str, *indices: int) -> np.random.SeedSequence:
    """Cached: a lockstep round's runs reopen its <= 100 client streams.  Never spawn from it."""
    return np.random.SeedSequence([master_seed, zlib.crc32(role.encode("utf-8")), *indices])


def child_seed(master_seed: int, role: str, *indices: int) -> int:
    """Derive a plain integer seed (63-bit) from a stream, e.g. for sgd_train."""
    return int(stream(master_seed, role, *indices).integers(0, _MASK_63))
