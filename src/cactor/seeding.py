"""Deterministic seed derivation.

All randomness in the package flows from a master seed through this one
function: every stage, episode, and sweep point names its stream with a
string path, and the derived 64-bit seed feeds a fresh PCG64 generator.

Simulator rollouts keep one contract (v2; ``sim.SessionSimulator``,
``sim.rollout``): each episode draws from its own stream, named by
(simulator seed, "episode", episode_seed), and makes all its draws when it
starts, one call per kind in this order: the session length, the initial
core features, the (length,) block of dense noise (only when the noise is
on) and the (length, m-1) block of sparse uniforms.  A rollout starts each
distinct episode seed once and shares its blocks.  The action stream of
each learner or logging run serves that learner's episodes in episode order,
every step of episode e before any step of episode e+1.  Stepping the
sessions of an iteration in lockstep therefore gives the same bits as
rolling them one after another.  The same holds when several learners share
one rollout (``stochastic.collect_batch``): each keeps its own action stream,
drawn only for its own episodes, so each learner's episodes and the state of
its stream afterwards are those of a rollout of that learner alone.  In the
online loop (``stochastic._actor_critic``), stage one
(``stochastic.train_stage_one``) names auxiliary i's streams (master seed,
"s1-actor" | "s1-critic" | "s1-actions", i), and episode e of iteration it
(master seed, "s1-ep", it, e) for every auxiliary: all of them roll the
same episodes, each with its own actions.  Stage two
(``stochastic.train_stage_two``) names the main pair's streams the same
way without i, under "s2-".  ``train_two_stage`` runs the two stages in
turn, so each stage draws the same bits alone as in a full run.
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
