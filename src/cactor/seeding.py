"""Deterministic seed derivation.

All randomness in the package flows from a master seed through this one
function: every stage, episode, and sweep point names its stream with a
string path, and the derived 64-bit seed feeds a fresh PCG64 generator.

Simulator rollouts keep one contract (``sim.SessionSimulator``,
``sim.rollout``): each episode draws from its own stream, named by
(simulator seed, "episode", episode_seed), and the one action stream of a
training stage or logging run serves the episodes in episode order, every
step of episode e before any step of episode e+1.  Stepping the sessions of
an iteration in lockstep therefore gives the same bits as rolling them one
after another.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master: int, *path) -> int:
    """Stable 64-bit seed for the stream named by (master, *path)."""
    text = str(int(master)) + "".join(f"/{p}" for p in path)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def rng_for(master: int, *path) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed(master, *path)))
