"""Vector-reward MDP vocabulary: states, transitions, trajectories, TD
targets, and the columnar dataset that holds logged sessions.

Conventions used throughout the package:
  * rewards are length-m response vectors and element 0 is the main response;
  * each response i carries its own discount factor gamma_i in [0, 1);
  * terminal states bootstrap with value 0.

The dataset.  A ReplayDataset is a struct of arrays with one row per logged
step, each session's rows contiguous and in step order:

  states (n, state_dim)        next_states (n, state_dim)
  next_terminal (n,) bool      done (n,) bool
  action_index (n,) intp       -1 where the logged action is unknown
  behavior_prob (n,) float64   nan where the logging probability is unknown
  responses (n, m)
  offsets (n_sessions + 1,)    session k is rows offsets[k]:offsets[k + 1]
  session_ids                  one per session

One builder.  ``ReplayDataset.from_columns`` builds every dataset
(``load_dataset``, ``sim.rollout``, ``sim.run_episode`` and the review
corpus call it) and checks whole columns once: a coded column (action_index,
done, next_terminal) that arrives with another dtype keeps every value in
the cast to its own (an action index of 1.7 or a done of 2 is rejected,
not stored as 1 or True), finite features and responses, behavior_prob in
(0, 1], a done row leads to a terminal state and ends its session, no empty
session, and ``next_states[k] == states[k + 1]`` inside each session.  A
column that arrives C-contiguous with its own dtype is neither copied nor
cast.

Views.  A Trajectory is a read-only view of one session of a dataset, a
Transition of one row, and a State, a plain (features, terminal) pair, of
one row of states or next_states.  None of them holds a copy: reading an
attribute reads the columns.  A dataset holds no reference to its views, so
it is freed as soon as it and the last of its views are dropped.  Logged
sessions are read, not edited: a changed dataset is built with
``from_columns``, or its columns are written directly
(``ds.responses[k, 1] = 0.0``).  One attribute stays writable, because a
benchmark self-test edits a loaded dataset through a row: ``tr.behavior_prob
= p`` checks p as a build would (in (0, 1], or None for unknown) and writes
it into the column.  In-place edits of a row's arrays (``tr.response[1] =
0.0``, ``tr.state.features[:] = x``) and writes into the columns are not
checked.  states and next_states are separate columns, so editing one row's
state does not move the previous row's next_state.

Files.  Format 2 only: binary columns (laid out above save_dataset), which
``save_dataset`` writes and ``load_dataset`` reads.  ``load_dataset`` goes by
the file's content, never its name, and rejects a file that is not a zip.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass

import numpy as np

_COLUMNS = ("states", "next_states", "next_terminal", "action_index",
            "behavior_prob", "responses", "done")
_DTYPES = {"next_terminal": bool, "done": bool, "action_index": np.intp}  # the rest float64


@dataclass(frozen=True)
class State:
    """One session state: a view of a row of a dataset's states or
    next_states, or the simulator's current state."""

    features: np.ndarray
    terminal: bool = False


def _raise_first(checks, where):
    """Raise the ValueError of the lowest flagged row over ``checks``, a list
    of (row mask, row -> message); ties go to the earlier check.  ``where``
    maps a row to the prefix that names it."""
    first = None
    for bad, message in checks:
        if bad.any():
            k = int(np.argmax(bad))
            if first is None or k < first[0]:
                first = (k, message)
    if first is not None:
        raise ValueError(where(first[0]) + first[1](first[0]))


def _num(x: float):
    return int(x) if np.isfinite(x) and x == int(x) else x


class Transition:
    """One logged step: a read-only view of row ``row`` of ``store`` (module
    docstring), with behavior_prob the one writable attribute.

    behavior_prob is the probability the logging policy assigned to the
    action; it must be present on data fed to debiased offline updates and
    importance-ratio evaluators."""

    __slots__ = ("_store", "_row")

    def __init__(self, store: ReplayDataset, row: int):
        self._store, self._row = store, row

    @property
    def state(self) -> State:
        return State(self._store.states[self._row])

    @property
    def next_state(self) -> State:
        st, k = self._store, self._row
        return State(st.next_states[k], bool(st.next_terminal[k]))

    @property
    def response(self) -> np.ndarray:
        return self._store.responses[self._row]

    @property
    def done(self) -> bool:
        return bool(self._store.done[self._row])

    @property
    def action_index(self) -> int | None:
        a = int(self._store.action_index[self._row])
        return None if a < 0 else a

    @property
    def behavior_prob(self) -> float | None:
        p = float(self._store.behavior_prob[self._row])
        return None if p != p else p

    @behavior_prob.setter
    def behavior_prob(self, value):
        p = np.nan if value is None else float(value)
        if value is not None and not 0.0 < p <= 1.0:  # NaN fails too
            raise ValueError(f"{self._store.where(self._row)}behavior_prob {p} outside (0, 1]")
        self._store.behavior_prob[self._row] = p

    def __repr__(self):
        return f"Transition({self._store.where(self._row)[:-2]})"


class Trajectory:
    """One session: a read-only view of session ``k`` of ``store``, its rows
    offsets[k]:offsets[k + 1] (module docstring)."""

    __slots__ = ("_store", "_k", "_lo", "_hi")

    def __init__(self, store: ReplayDataset, k: int):
        self._store, self._k = store, k
        self._lo, self._hi = int(store.offsets[k]), int(store.offsets[k + 1])

    @property
    def session_id(self) -> str:
        return self._store.session_ids[self._k]

    @property
    def transitions(self) -> list[Transition]:
        """A fresh view of each row, built on every read."""
        return [Transition(self._store, k) for k in range(self._lo, self._hi)]

    def __len__(self) -> int:
        return self._hi - self._lo

    def __repr__(self):
        return f"Trajectory({self.session_id!r}, {len(self)} steps)"


class ReplayDataset:
    """Logged sessions as columns (module docstring), checked when built by
    ``from_columns``, the one builder."""

    __slots__ = (*_COLUMNS, "offsets", "session_ids", "m", "metadata", "__weakref__")

    @classmethod
    def from_columns(cls, *, offsets, session_ids, m: int, metadata: dict | None = None,
                     **columns) -> ReplayDataset:
        """A dataset over ``columns``, one keyword per column, checked once
        (module docstring); a column that is already C-contiguous with its
        dtype is not copied.  Error messages name a bad row by session and
        step."""
        if set(columns) != set(_COLUMNS):
            raise ValueError(f"columns {sorted(columns)}, expected {sorted(_COLUMNS)}")
        cols = {name: np.asarray(columns[name]) for name in _COLUMNS}
        n = cols["done"].size
        dim = cols["states"].shape[-1] if cols["states"].ndim == 2 else "state_dim"
        for name, col in cols.items():
            want = {"states": (n, dim), "next_states": (n, dim), "responses": (n, m)}.get(
                name, (n,))
            if col.shape != want:
                raise ValueError(f"{name} has shape {col.shape}, expected {want}")
        data = cls.__new__(cls)
        data.offsets = np.asarray(offsets, dtype=np.intp)
        data.session_ids, data.m = list(session_ids), m
        data.metadata = {} if metadata is None else metadata
        if (data.offsets.ndim != 1 or data.offsets.size != len(data.session_ids) + 1
                or data.offsets[0] != 0 or data.offsets[-1] != n):
            raise ValueError(f"offsets must run from 0 to {n} with one entry per session "
                             "plus one")
        empty = np.diff(data.offsets) <= 0
        if empty.any():
            raise ValueError(f"session {data.session_ids[int(np.argmax(empty))]}: "
                             "empty trajectory")
        checks = []  # (row mask, row -> message): first each row whose value a cast changes
        with np.errstate(invalid="ignore"):  # NaN or inf cast to intp: flagged below
            for name, raw in cols.items():
                col = np.ascontiguousarray(raw, dtype=_DTYPES.get(name, np.float64))
                if name in _DTYPES and raw.dtype != col.dtype:  # e.g. action index 1.7 to 1
                    what = "an integer" if name == "action_index" else "0 or 1"
                    checks.append((col != raw, lambda k, raw=raw, name=name, what=what:
                                   f"{name} {_num(raw[k])} is not {what}"))
                setattr(data, name, col)
        offsets, bp, a, done = data.offsets, data.behavior_prob, data.action_index, data.done
        last = np.zeros(n, dtype=bool)
        last[offsets[1:] - 1] = True
        chain = np.zeros(n, dtype=bool)  # row k: the chain from row k - 1 is broken
        chain[1:] = ~last[:-1] & np.any(data.next_states[:-1] != data.states[1:], axis=1)
        step = np.arange(n) - np.repeat(offsets[:-1], np.diff(offsets))
        _raise_first([
            *checks,
            (~np.all(np.isfinite(data.states), axis=1), lambda k: "non-finite state features"),
            (~np.all(np.isfinite(data.next_states), axis=1),
             lambda k: "non-finite next_state features"),
            (~np.all(np.isfinite(data.responses), axis=1),
             lambda k: "non-finite response values"),
            ((bp <= 0.0) | (bp > 1.0), lambda k: f"behavior_prob {float(bp[k])} outside (0, 1]"),
            (a < -1, lambda k: f"negative action index {int(a[k])}"),
            (done & ~data.next_terminal,
             lambda k: "done transition must lead to a terminal state"),
            (done & ~last, lambda k: "only the last transition may be terminal"),
            (chain, lambda k: f"state chain broken between steps {step[k] - 1} and {step[k]}"),
        ], data.where)
        return data

    def where(self, row: int) -> str:
        """'session <id> step <t>: ', the prefix that names ``row``."""
        k = int(np.searchsorted(self.offsets, row, side="right")) - 1
        return f"session {self.session_ids[k]} step {row - int(self.offsets[k])}: "

    @property
    def trajectories(self) -> list[Trajectory]:
        """A fresh view of each session, built on every read: the dataset
        holds no reference to its views, so it is freed as soon as the last
        of them is dropped."""
        return [Trajectory(self, k) for k in range(len(self.session_ids))]

    def all_transitions(self) -> list[Transition]:
        return [Transition(self, k) for k in range(self.n_transitions)]

    @property
    def n_transitions(self) -> int:
        return self.done.size

    def arrays(self, rows=slice(None)):
        """The (S, a_idx, R, S_next, done) tuple every update takes, of
        ``rows``: views of the columns for a slice (the default is every
        row), copies for an index array.  a_idx is None when some row has
        no action index."""
        a = self.action_index[rows]
        return (self.states[rows], None if np.any(a < 0) else a, self.responses[rows],
                self.next_states[rows], self.done[rows])


def check_config(cfg, iterations=(), counts=(), positive=(), rules=()) -> None:
    """Raise ValueError naming the first field of ``cfg`` that breaks its
    rule: ``iterations`` and ``counts`` must be integers (not a bool or 8.0),
    ``iterations`` >= 0, ``counts`` >= 1 and ``positive`` > 0; ``rules``
    adds (message, holds) pairs.  Every rule is written so that NaN fails it.
    A tuple or list field is checked entry by entry, named ``field[i]``."""
    def entries(fields):
        for f in fields:
            v = getattr(cfg, f)
            yield from (((f"{f}[{i}]", x) for i, x in enumerate(v))
                        if isinstance(v, (tuple, list)) else [(f, v)])
    iterations, counts = list(entries(iterations)), list(entries(counts))
    for f, v in (*iterations, *counts):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{f} must be an integer")
    checks = [(f"{f} must be >= 0", v >= 0) for f, v in iterations]
    checks += [(f"{f} must be >= 1", v >= 1) for f, v in counts]
    checks += [(f"{f} must be > 0", getattr(cfg, f) > 0) for f in positive]
    for message, holds in [*checks, *rules]:
        if not holds:
            raise ValueError(message)


def check_discounts(gammas, m: int) -> np.ndarray:
    gammas = np.asarray(gammas, dtype=np.float64)
    if gammas.ndim != 1:
        raise ValueError("discount vector must be 1-D")
    if gammas.size != m:
        raise ValueError(f"discount vector has length {gammas.size}, expected {m}")
    if not np.all((gammas >= 0.0) & (gammas < 1.0)):  # NaN fails too
        raise ValueError("every discount must lie in [0, 1)")
    return gammas


def td_target(response_i, gamma_i: float, v_next, done):
    """response_i + gamma_i * V(s'), bootstrapping 0 past the end of a session.

    Elementwise over a batch of rewards, next values and done flags, or on
    scalars.  ``gamma_i`` may be an array that broadcasts against them, e.g.
    a (k, 1) column of per-member discounts for (k, batch) rows; every entry
    must lie in [0, 1)."""
    in_range = (0.0 <= gamma_i) & (gamma_i < 1.0)
    if in_range is not True and not np.all(in_range):  # np.all only for arrays
        raise ValueError("gamma must lie in [0, 1)")
    return response_i + gamma_i * np.where(done, 0.0, v_next)


# ---------------------------------------------------------------------------
# Dataset files.
#
# Format 2, the only format, is one zip made by ``np.savez``:
# one .npy array per column as stored (bit for bit), offsets, session_ids (a
# numpy str array) and header, a 0-d str array of the JSON text {"format":
# "cactor-dataset 2", "m": m, "metadata": {...}}.  No array holds objects, so
# the file loads with allow_pickle=False, and a truncated session (its last
# row not done) keeps its true non-terminal next_state.
# ---------------------------------------------------------------------------

_FORMAT = "cactor-dataset 2"
_ARRAYS = (*_COLUMNS, "offsets", "session_ids", "header")


def save_dataset(path, dataset: ReplayDataset) -> None:
    """Write ``dataset`` to ``path``, as given, in format 2 (above).

    Raises ValueError, before the file is opened, for a session id that a
    numpy str array would change (a trailing NUL is dropped) and for
    metadata that would not load back equal from its JSON text (a key that
    is not a str, a value JSON cannot hold)."""
    ids = np.array(dataset.session_ids, dtype=str)
    bad = [sid for sid, kept in zip(dataset.session_ids, ids.tolist()) if sid != kept]
    if bad:
        raise ValueError(f"session id {bad[0]!r} does not survive a numpy str array")
    header = json.dumps({"format": _FORMAT, "m": int(dataset.m), "metadata": dataset.metadata},
                        default=repr, skipkeys=True)  # then fails the check below
    if json.loads(header)["metadata"] != dataset.metadata:
        raise ValueError(f"metadata {dataset.metadata!r} does not load back equal from JSON")
    with open(path, "wb") as fh:
        np.savez(fh, **{name: getattr(dataset, name) for name in _COLUMNS},
                 offsets=dataset.offsets, session_ids=ids, header=np.array(header))


def load_dataset(path) -> ReplayDataset:
    """Read a format 2 file (above), and only format 2: a file that is not a
    zip is rejected by its content, whatever its name.  Every error is a ValueError naming the
    file, and the session and step of a bad row.  The arrays load writable,
    C-contiguous and in their own dtypes: none is copied."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise ValueError(f"{path}: not a zip file; expected a {_FORMAT!r} (zip) dataset")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                if sorted(npz.files) != sorted(_ARRAYS):
                    raise ValueError(f"arrays {sorted(npz.files)}, expected {sorted(_ARRAYS)}")
                arrays = {name: npz[name] for name in _ARRAYS}
            header = json.loads(arrays.pop("header").item())
            if not (isinstance(header, dict) and header.keys() == {"format", "m", "metadata"}
                    and header["format"] == _FORMAT and isinstance(header["metadata"], dict)):
                raise ValueError(f"header {header!r} is not a {_FORMAT!r} header")
            ids = arrays.pop("session_ids").tolist()
            data = ReplayDataset.from_columns(**arrays, session_ids=ids, m=header["m"],
                                              metadata=header["metadata"])
            n_items, a = int(data.metadata.get("n_items", 0)), data.action_index
            _raise_first([((n_items > 0) & (a >= n_items),
                           lambda k: f"action index {a[k]} outside [0, {n_items})")], data.where)
        except (ValueError, TypeError, zipfile.BadZipFile, EOFError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return data
