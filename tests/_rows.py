"""Test data built the way the library builds datasets: columns into
``ReplayDataset.from_columns``."""

import numpy as np

from cactor.core import _COLUMNS, ReplayDataset


def session(states, responses, actions=-1, probs=None, sid="s"):
    """One session as (sid, columns): its (T, state_dim) states and (T, m)
    responses, and actions (-1: unknown) and probs (None: unknown), one per
    step or one for all.  Each step leads to the next one's state; the last
    ends done, with a zero next state."""
    states = np.array(states, dtype=np.float64)
    n = len(states)
    next_states = np.zeros_like(states)
    next_states[:-1] = states[1:]
    ends = np.arange(n) == n - 1
    return sid, {"states": states, "next_states": next_states, "next_terminal": ends,
                 "done": ends, "responses": np.array(responses, dtype=np.float64),
                 "action_index": np.broadcast_to(actions, n),
                 "behavior_prob": np.broadcast_to(np.array(probs, dtype=np.float64), n)}


def dataset(*sessions, metadata=None):
    """A ReplayDataset of ``sessions`` (each from ``session``), in order."""
    cols = {name: np.concatenate([c[name] for _, c in sessions]) for name in _COLUMNS}
    return ReplayDataset.from_columns(
        **cols, offsets=np.cumsum([0] + [len(c["done"]) for _, c in sessions]),
        session_ids=[sid for sid, _ in sessions], m=cols["responses"].shape[1],
        metadata=metadata)


def rebuilt(ds, **changes):
    """``ds`` built again, with ``changes`` to its columns or other arguments."""
    kept = {name: getattr(ds, name) for name in (*_COLUMNS, "offsets", "session_ids", "m")}
    return ReplayDataset.from_columns(**{**kept, "metadata": dict(ds.metadata), **changes})


def terminal_batch(states, actions, responses):
    """The (S, a_idx, R, S_next, done) tuple of one-step sessions."""
    s = np.array(states, dtype=np.float64)
    return (s, np.array(actions, dtype=np.intp), np.array(responses, dtype=np.float64),
            np.zeros_like(s), np.ones(len(s), dtype=bool))
