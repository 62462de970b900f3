"""Deterministic seed derivation.

All randomness in the package flows from a master seed through this one
function: every stage, episode, and sweep point names its stream with a
string path, and the derived 64-bit seed feeds a fresh PCG64 generator.

Simulator rollouts keep one contract (``sim.SessionSimulator``,
``sim.rollout``): each episode draws from its own stream, named by
(simulator seed, "episode", episode_seed), and the action stream of each
learner or logging run serves that learner's episodes in episode order,
every step of episode e before any step of episode e+1.  Stepping the
sessions of an iteration in lockstep therefore gives the same bits as
rolling them one after another.  The same holds when several learners share
one rollout (online stage one rolls every auxiliary together): each keeps
its own action stream, (master seed, "s1-actions", response), drawn only
for its own episodes, so each learner's episodes and the state of its
stream afterwards are those of a rollout of that learner alone.
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
