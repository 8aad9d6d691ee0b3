"""Deterministic seed derivation.

Every run owns a single master seed.  Each randomness consumer (data
generation, weight init, batch shuffling, mixup draws, Shapley permutations,
...) derives its own child seed from the master plus a string/int path, so
subsystems never share or race a stream and results are reproducible across
platforms.
"""

from __future__ import annotations

import hashlib

import numpy as np

# numpy 2 loads its random module on first attribute access.  Loading it here
# keeps that cost in start-up, out of the commands' work: every command draws
# from a Generator.
import numpy.random  # noqa: F401


def derive_seed(master: int, *path: str | int) -> int:
    """Stable 63-bit child seed for (master, path)."""
    key = str(int(master)) + "/" + "/".join(str(p) for p in path)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def rng_for(master: int, *path: str | int) -> np.random.Generator:
    """Generator seeded from the derived child seed."""
    return np.random.default_rng(derive_seed(master, *path))
