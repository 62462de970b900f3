"""Vector-reward MDP vocabulary: states, transitions, trajectories, returns,
and the columnar store that holds logged sessions.

Conventions used throughout the package:
  * rewards are length-m response vectors and element 0 is the main response;
  * each response i carries its own discount factor gamma_i in [0, 1);
  * terminal states bootstrap with value 0.

The store.  A ReplayDataset is a struct of arrays with one row per logged
step, each session's rows contiguous and in step order:

  states (n, state_dim)        next_states (n, state_dim)
  next_terminal (n,) bool      done (n,) bool
  action_index (n,) intp       -1 where the logged action is unknown
  behavior_prob (n,) float64   nan where the logging probability is unknown
  responses (n, m)
  offsets (n_sessions + 1,)    session k is rows offsets[k]:offsets[k + 1]
  session_ids                  one per session

Every way of building a store (``ReplayDataset.from_columns``,
``ReplayDataset(trajectories)``, ``Trajectory(transitions)``,
``Transition(...)``, ``load_dataset``, ``sim.rollout``) checks whole columns
once: finite features and responses, behavior_prob in (0, 1], a done row
leads to a terminal state and ends its session, no empty session, and
``next_states[k] == states[k + 1]`` inside each session.

Views.  A Trajectory is a view of one session of a store and a Transition a
view of one row; neither holds a copy.  Reading an attribute reads the
store.  Assigning one (``tr.behavior_prob = p``, ``tr.response = r``,
``tr.state = State(x)``, ``tr.next_state = ...``, ``tr.action_index = a``)
checks the new value as a constructor would, then writes it into the store,
so every later pass over the dataset sees it.  In-place edits of a row's
arrays (``tr.response[1] = 0.0``, ``tr.state.features[:] = x``) and writes
into the columns themselves reach the store directly and are not checked.
``done`` is read-only: it fixes where a session ends.  states and
next_states are separate columns, so editing one row's state does not move
the previous row's next_state.

Adoption.  ``Trajectory(transitions)`` and ``ReplayDataset(trajectories)``
copy the rows into a new store.  A Transition or Trajectory that still owns
the store its constructor made is re-pointed into the new store, so edits
through it stay visible there; one that is already part of another store is
copied and left where it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_COLUMNS = ("states", "next_states", "next_terminal", "action_index",
            "behavior_prob", "responses", "done")


@dataclass(frozen=True)
class State:
    features: np.ndarray
    terminal: bool = False

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        if self.features.ndim != 1:
            raise ValueError("state features must be a 1-D vector")
        if not np.isfinite(self.features).all():
            raise ValueError("non-finite state features")

    @classmethod
    def _view(cls, features: np.ndarray, terminal: bool = False) -> State:
        """A State over one row of a checked store: no copy, no re-check."""
        state = object.__new__(cls)
        object.__setattr__(state, "features", features)
        object.__setattr__(state, "terminal", terminal)
        return state


def terminal_state(state_dim: int) -> State:
    return State(np.zeros(state_dim), terminal=True)


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


def _check_columns(cols: dict, offsets: np.ndarray, where):
    """The store's invariants over whole columns (see the module docstring)."""
    n = cols["done"].size
    last = np.zeros(n, dtype=bool)
    last[offsets[1:] - 1] = True
    bp, a = cols["behavior_prob"], cols["action_index"]
    chain = np.zeros(n, dtype=bool)  # row k: the chain from row k - 1 is broken
    chain[1:] = ~last[:-1] & np.any(cols["next_states"][:-1] != cols["states"][1:], axis=1)
    step = np.arange(n) - np.repeat(offsets[:-1], np.diff(offsets))
    _raise_first([
        (~np.all(np.isfinite(cols["states"]), axis=1), lambda k: "non-finite state features"),
        (~np.all(np.isfinite(cols["next_states"]), axis=1),
         lambda k: "non-finite next_state features"),
        (~np.all(np.isfinite(cols["responses"]), axis=1),
         lambda k: "non-finite response values"),
        ((bp <= 0.0) | (bp > 1.0), lambda k: f"behavior_prob {float(bp[k])} outside (0, 1]"),
        (a < -1, lambda k: f"negative action index {int(a[k])}"),
        (cols["done"] & ~cols["next_terminal"],
         lambda k: "done transition must lead to a terminal state"),
        (cols["done"] & ~last, lambda k: "only the last transition may be terminal"),
        (chain, lambda k: f"state chain broken between steps {step[k] - 1} and {step[k]}"),
    ], where)


def _empty_columns(state_dim: int, m: int) -> dict:
    return {"states": np.zeros((0, state_dim)), "next_states": np.zeros((0, state_dim)),
            "next_terminal": np.zeros(0, dtype=bool),
            "action_index": np.zeros(0, dtype=np.intp), "behavior_prob": np.zeros(0),
            "responses": np.zeros((0, m)), "done": np.zeros(0, dtype=bool)}


def _concat(parts, state_dim: int, m: int) -> dict:
    """Columns of the row ranges ``parts`` = [(store, lo, hi), ...], in order."""
    if not parts:
        return _empty_columns(state_dim, m)
    return {name: np.concatenate([getattr(st, name)[lo:hi] for st, lo, hi in parts])
            for name in _COLUMNS}


def _session_columns(trajectories, state_dim: int, m: int) -> dict:
    """``_Store`` arguments holding a copy of each trajectory's rows."""
    lengths = [len(t) for t in trajectories]
    return dict(_concat([(t._store, t._lo, t._hi) for t in trajectories], state_dim, m),
                offsets=np.concatenate([[0], np.cumsum(lengths, dtype=np.intp)]),
                session_ids=[t.session_id for t in trajectories], m=m)


class _Store:
    """The columns, offsets and session ids of logged sessions (module
    docstring), checked when built.  It holds no reference to its views, so
    a store and its views are freed as soon as the last of them is dropped."""

    __slots__ = (*_COLUMNS, "offsets", "session_ids", "m")

    def __init__(self, *, offsets, session_ids, m: int, where=None, **cols):
        if set(cols) != set(_COLUMNS):
            raise ValueError(f"columns {sorted(cols)}, expected {sorted(_COLUMNS)}")
        dtypes = {"next_terminal": bool, "done": bool, "action_index": np.intp}
        cols = {name: np.ascontiguousarray(cols[name], dtype=dtypes.get(name, np.float64))
                for name in _COLUMNS}
        n = cols["done"].size
        dim = cols["states"].shape[-1] if cols["states"].ndim == 2 else "state_dim"
        for name, col in cols.items():
            want = {"states": (n, dim), "next_states": (n, dim), "responses": (n, m)}.get(
                name, (n,))
            if col.shape != want:
                raise ValueError(f"{name} has shape {col.shape}, expected {want}")
            setattr(self, name, col)
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.session_ids, self.m = list(session_ids), m
        if (self.offsets.ndim != 1 or self.offsets.size != len(self.session_ids) + 1
                or self.offsets[0] != 0 or self.offsets[-1] != n):
            raise ValueError(f"offsets must run from 0 to {n} with one entry per session "
                             "plus one")
        empty = np.diff(self.offsets) <= 0
        if empty.any():
            raise ValueError(f"session {self.session_ids[int(np.argmax(empty))]}: "
                             "empty trajectory")
        _check_columns(cols, self.offsets, where or self.where)

    def where(self, row: int) -> str:
        """'session <id> step <t>: ', or '' for a row of no named session."""
        k = self.session_of(row)
        sid = self.session_ids[k]
        return "" if sid is None else f"session {sid} step {row - int(self.offsets[k])}: "

    def session_of(self, row: int) -> int:
        return int(np.searchsorted(self.offsets, row, side="right")) - 1

    def arrays(self, rows=slice(None)):
        """The (S, a_idx, R, S_next, done) tuple every update takes, of
        ``rows``: views of the columns for a slice (the default is every
        row), copies for an index array.  a_idx is None when some row has
        no action index."""
        a = self.action_index[rows]
        return (self.states[rows], None if np.any(a < 0) else a, self.responses[rows],
                self.next_states[rows], self.done[rows])


def _action_code(a) -> int:
    if a is None:
        return -1
    if int(a) != a or a < 0:
        raise ValueError(f"action index {a} is not a nonnegative integer")
    return int(a)


def _prob_code(p) -> float:
    if p is None:
        return np.nan
    if p != p:
        raise ValueError(f"behavior_prob {p} outside (0, 1]")
    return float(p)


class Transition:
    """One logged step: a view of one row of a store (module docstring).

    behavior_prob is the probability the logging policy assigned to the
    action; it must be present on data fed to debiased offline updates and
    importance-ratio evaluators."""

    __slots__ = ("_store", "_row", "_own")

    def __init__(self, state: State, response, next_state: State, done: bool,
                 action_index: int | None = None, behavior_prob: float | None = None):
        if state.terminal:
            raise ValueError("a transition cannot start from a terminal state")
        response = np.asarray(response, dtype=np.float64)
        if response.ndim != 1:
            raise ValueError("response must be a 1-D vector")
        self._store = _Store(
            states=state.features[None], next_states=next_state.features[None],
            next_terminal=[next_state.terminal], action_index=[_action_code(action_index)],
            behavior_prob=[_prob_code(behavior_prob)], responses=response[None],
            done=[done], offsets=[0, 1], session_ids=[None], m=response.size)
        self._row, self._own = 0, True

    @classmethod
    def _view(cls, store: _Store, row: int) -> Transition:
        tr = object.__new__(cls)
        tr._store, tr._row, tr._own = store, row, False
        return tr

    def _ref(self) -> tuple[Trajectory, int]:
        """This row's session and step."""
        k = self._store.session_of(self._row)
        return Trajectory._view(self._store, k), self._row - int(self._store.offsets[k])

    def _write(self, **values):
        """Check the row with ``values`` replaced, as a store build would,
        then write them into the store."""
        st, k = self._store, self._row
        row = {name: getattr(st, name)[k:k + 1].copy() for name in _COLUMNS}
        for name, v in values.items():
            v = np.asarray(v, dtype=row[name].dtype)
            if v.shape != row[name].shape[1:]:
                what = ("responses", f"m={st.m}") if name == "responses" else \
                    ("features", f"state_dim={st.states.shape[1]}")
                raise ValueError(f"{st.where(k)}{v.size} {what[0]}, dataset has {what[1]}")
            row[name][0] = v
        _check_columns(row, np.array([0, 1]), lambda _: st.where(k))
        for name in values:
            getattr(st, name)[k] = row[name][0]

    @property
    def state(self) -> State:
        return State._view(self._store.states[self._row])

    @state.setter
    def state(self, value: State):
        if value.terminal:
            raise ValueError(f"{self._store.where(self._row)}a transition cannot start "
                             "from a terminal state")
        self._write(states=value.features)

    @property
    def next_state(self) -> State:
        st, k = self._store, self._row
        return State._view(st.next_states[k], bool(st.next_terminal[k]))

    @next_state.setter
    def next_state(self, value: State):
        self._write(next_states=value.features, next_terminal=value.terminal)

    @property
    def response(self) -> np.ndarray:
        return self._store.responses[self._row]

    @response.setter
    def response(self, value):
        self._write(responses=value)

    @property
    def done(self) -> bool:
        return bool(self._store.done[self._row])

    @property
    def action_index(self) -> int | None:
        a = int(self._store.action_index[self._row])
        return None if a < 0 else a

    @action_index.setter
    def action_index(self, value):
        self._write(action_index=_action_code(value))

    @property
    def behavior_prob(self) -> float | None:
        p = float(self._store.behavior_prob[self._row])
        return None if p != p else p

    @behavior_prob.setter
    def behavior_prob(self, value):
        self._write(behavior_prob=_prob_code(value))

    def __repr__(self):
        return f"Transition({self._store.where(self._row)[:-2] or 'free row'})"


class Trajectory:
    """One session: a view of rows [lo, hi) of a store (module docstring)."""

    __slots__ = ("_store", "_k", "_lo", "_hi", "_rows", "_own")

    def __init__(self, transitions, session_id: str = "session-0"):
        transitions = list(transitions)
        if not transitions:
            raise ValueError("empty trajectory")
        first = transitions[0]._store
        self._point(_Store(**_concat([(tr._store, tr._row, tr._row + 1) for tr in transitions],
                                     first.states.shape[1], first.m),
                           offsets=[0, len(transitions)], session_ids=[session_id],
                           m=first.m), 0)
        self._rows, self._own = _adopt(transitions, self._store, 0), True

    @classmethod
    def _view(cls, store: _Store, k: int) -> Trajectory:
        traj = object.__new__(cls)
        traj._point(store, k)
        traj._rows, traj._own = None, False
        return traj

    def _point(self, store: _Store, k: int):
        self._store, self._k = store, k
        self._lo, self._hi = int(store.offsets[k]), int(store.offsets[k + 1])

    @property
    def session_id(self) -> str:
        return self._store.session_ids[self._k]

    @session_id.setter
    def session_id(self, value: str):
        self._store.session_ids[self._k] = value

    @property
    def transitions(self) -> list[Transition]:
        if self._rows is None:
            self._rows = [Transition._view(self._store, k) for k in range(self._lo, self._hi)]
        return self._rows

    @property
    def responses(self) -> np.ndarray:
        return self._store.responses[self._lo:self._hi]

    def __len__(self) -> int:
        return self._hi - self._lo

    @property
    def m(self) -> int:
        return self._store.m

    def __repr__(self):
        return f"Trajectory({self.session_id!r}, {len(self)} steps)"


def _adopt(transitions, store: _Store, lo: int) -> list[Transition]:
    """Row views of ``store`` from row ``lo`` on: the given transitions where
    they still own the store their constructor made (re-pointed), new views
    elsewhere."""
    rows = []
    for k, tr in enumerate(transitions, start=lo):
        if tr._own:
            tr._store, tr._row, tr._own = store, k, False
        else:
            tr = Transition._view(store, k)
        rows.append(tr)
    return rows


class ReplayDataset:
    """Logged sessions in one columnar store (module docstring): the columns,
    ``offsets``, ``session_ids`` and ``m`` are read-through attributes of the
    store, and ``trajectories`` lists one view per session.  Building a
    dataset with different sessions means building a new one."""

    def __init__(self, trajectories, m: int, metadata: dict | None = None):
        trajectories = list(trajectories)
        for traj in trajectories:
            if traj.m != m:
                raise ValueError(f"trajectory {traj.session_id} has m={traj.m}, dataset m={m}")
        metadata = {} if metadata is None else metadata
        state_dim = (trajectories[0]._store.states.shape[1] if trajectories
                     else int(metadata.get("state_dim", 0)))
        self._set(_Store(**_session_columns(trajectories, state_dim, m)), metadata)
        self.trajectories = []
        for k, traj in enumerate(trajectories):
            if traj._own:
                traj._point(self._store, k)
                traj._own = False
                for t, tr in enumerate(traj._rows or (), start=traj._lo):
                    tr._store, tr._row = self._store, t
            else:
                traj = Trajectory._view(self._store, k)
            self.trajectories.append(traj)

    @classmethod
    def from_columns(cls, *, offsets, session_ids, m: int, metadata: dict | None = None,
                     where=None, **columns) -> ReplayDataset:
        """A dataset over ``columns``, one keyword per store column (module
        docstring), checked once; a column that is already C-contiguous with
        the store's dtype is not copied.  ``where(row)`` names a row in error
        messages, e.g. by file and line; by default rows are named by session
        and step."""
        data = cls.__new__(cls)
        data._set(_Store(offsets=offsets, session_ids=session_ids, m=m, where=where,
                         **columns), {} if metadata is None else metadata)
        data.trajectories = [Trajectory._view(data._store, k)
                             for k in range(len(data.session_ids))]
        return data

    def _set(self, store: _Store, metadata: dict):
        self._store, self.metadata = store, metadata
        for name in _Store.__slots__:
            setattr(self, name, getattr(store, name))

    def all_transitions(self) -> list[Transition]:
        return [tr for traj in self.trajectories for tr in traj.transitions]

    @property
    def n_transitions(self) -> int:
        return self.done.size

    def arrays(self, rows=slice(None)):
        """The ``batch_arrays`` tuple of ``rows`` (see ``_Store.arrays``)."""
        return self._store.arrays(rows)


def check_config(cfg, iterations=(), counts=(), positive=(), rules=()) -> None:
    """Raise ValueError naming the first field of ``cfg`` that breaks its
    rule: ``iterations`` must be >= 0, ``counts`` >= 1 and ``positive``
    > 0; ``rules`` adds (message, holds) pairs.  Every rule is written so
    that NaN fails it."""
    checks = [(f"{f} must be >= 0", getattr(cfg, f) >= 0) for f in iterations]
    checks += [(f"{f} must be >= 1", getattr(cfg, f) >= 1) for f in counts]
    checks += [(f"{f} must be > 0", getattr(cfg, f) > 0) for f in positive]
    for message, holds in [*checks, *rules]:
        if not holds:
            raise ValueError(message)


def check_discounts(gammas, m: int | None = None) -> np.ndarray:
    gammas = np.asarray(gammas, dtype=np.float64)
    if gammas.ndim != 1:
        raise ValueError("discount vector must be 1-D")
    if m is not None and gammas.size != m:
        raise ValueError(f"discount vector has length {gammas.size}, expected {m}")
    if np.any(gammas < 0.0) or np.any(gammas >= 1.0):
        raise ValueError("every discount must lie in [0, 1)")
    return gammas


def discounted_returns(data, discounts) -> np.ndarray:
    """Per-step vector returns of a Trajectory or of every session of a
    ReplayDataset: returns[t] = response[t] + gammas * returns[t+1] inside a
    session, zero past its final step.  Shape (rows, m).

    All sessions step back from their ends together, with the arithmetic of
    a one-session loop, so each session's returns do not depend on the
    others."""
    gammas = check_discounts(discounts, data.m)
    rewards = data.responses
    offsets = data.offsets if isinstance(data, ReplayDataset) else np.array([0, len(data)])
    ends, lengths = offsets[1:], np.diff(offsets)
    out = np.zeros_like(rewards)
    acc = np.zeros((lengths.size, data.m))
    for back in range(int(lengths.max(initial=0))):
        live = np.flatnonzero(lengths > back)
        rows = ends[live] - 1 - back
        acc[live] = rewards[rows] + gammas * acc[live]
        out[rows] = acc[live]
    return out


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


def advantage(response_i: float, gamma_i: float, v_next: float, v_curr: float, done: bool) -> float:
    """TD residual: td_target(...) - V(s)."""
    return td_target(response_i, gamma_i, v_next, done) - float(v_curr)


def rank_items(action: np.ndarray, item_embeddings: np.ndarray) -> int:
    """Index of the candidate with the largest dot product against the action
    embedding; ties break toward the lowest index."""
    action = np.asarray(action, dtype=np.float64)
    items = np.asarray(item_embeddings, dtype=np.float64)
    if items.ndim != 2 or items.shape[0] == 0:
        raise ValueError("item_embeddings must be a non-empty (n_items, dim) matrix")
    if items.shape[1] != action.size:
        raise ValueError("action and item embeddings disagree on dimension")
    return int(np.argmax(items @ action))


# ---------------------------------------------------------------------------
# Line-oriented dataset text format.
#
# Header lines:
#   # cactor-dataset 1
#   # m=<int> state_dim=<int> n_items=<int>
#   # meta <key>=<value>            (zero or more; no "=" in a key, and a
#                                    "# meta " line without "=" is an error)
# Transition lines, comma-separated, in this fixed order:
#   session_id, t, <state_dim state features>, action_index, behavior_prob,
#   <m response values>, done
# action_index and behavior_prob are "-" when unknown; done is 0 or 1.  A
# session id holds no comma or line break and does not start with '#' (its
# rows could read as header lines), and a meta line holds no line break.  A
# session's rows may interleave with other sessions' but keep step order.
# The state of step t+1 is the next_state of step t.  The next_state of a
# session's last row is stored as a zero feature vector, terminal when the
# row is done.  A session whose last row is not done (a truncated session)
# therefore gets a non-terminal zero next_state that critics bootstrap
# from: a known silent bias of this version of the format.
# ---------------------------------------------------------------------------

_DATASET_HEADER = "# cactor-dataset 1"


def _parse_dims(lineno: int, line: str, path, keys) -> dict[str, int]:
    """The nonnegative integers ``keys`` of a '# k1=<int> k2=<int> ...' line;
    extra keys are ignored.  Errors name ``path:lineno``."""
    fields = {}
    for token in line.strip().lstrip("# ").split():
        key, eq, val = token.partition("=")
        if not eq:
            raise ValueError(f"{path}:{lineno}: {token!r} is not <key>=<int>")
        fields[key] = val
    dims = {}
    for key in keys:
        if key not in fields:
            raise ValueError(f"{path}:{lineno}: missing {key}=<int>")
        try:
            dims[key] = int(fields[key])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key}={fields[key]} is not an integer") from None
        if dims[key] < 0:
            raise ValueError(f"{path}:{lineno}: {key}={dims[key]} is negative")
    return dims


def _value_texts(block: np.ndarray) -> np.ndarray:
    """The '%.17g,' text of each value of the float64 array ``block``, as an
    object array of its shape.  Each distinct bit pattern is formatted once
    (logged columns often hold few distinct values); bits, not values, keep
    -0.0 apart from 0.0, and flattening first gives the inverse one shape on
    every numpy."""
    bits, inverse = np.unique(block.view(np.uint64).ravel(), return_inverse=True)
    values = bits.view(np.float64).tolist()
    texts = ("%.17g,\n" * len(values) % tuple(values)).split("\n")[:-1]
    return np.array(texts, dtype=object)[inverse].reshape(block.shape)


def save_dataset(path, dataset: ReplayDataset) -> None:
    """Write ``dataset`` to ``path`` in the text format above.

    Every float is written as its ``%.17g`` text, which reads back to the
    same bits (-0.0 and subnormals included).  Each distinct value of a
    column block is formatted once and its text reused, which gives the
    same bytes as formatting each value in turn.

    Raises ValueError, before the file is opened, for a session id that
    contains ',' or a line break or starts with '#', a metadata key that
    contains '=', and a metadata key or value with a line break: each would
    write a file that does not load back into the same dataset."""
    d = dataset
    state_dim = d.states.shape[1]
    n_items = int(d.metadata.get("n_items", 0))
    bad = [sid for sid in map(str, d.session_ids)
           if "," in sid or "\n" in sid or "\r" in sid or sid.startswith("#")]
    if bad:
        raise ValueError(f"session id {bad[0]!r} must not contain ',' or a line break, "
                         "or start with '#'")
    lines = [_DATASET_HEADER, f"# m={d.m} state_dim={state_dim} n_items={n_items}"]
    for key in sorted(d.metadata):
        if key in ("state_dim", "n_items"):
            continue
        line = f"{key}={d.metadata[key]}"
        if "=" in str(key) or "\n" in line or "\r" in line:
            raise ValueError(f"metadata {key!r}: a key must not contain '=', and neither a "
                             "key nor a value a line break")
        lines.append(f"# meta {line}")
    # 17 significant digits round-trip every float64; each value is followed
    # by its comma, so that an empty block adds none
    lengths = np.diff(d.offsets)
    sids = [sid for sid, n in zip(d.session_ids, lengths.tolist()) for _ in range(n)]
    steps = (np.arange(d.n_transitions) - np.repeat(d.offsets[:-1], lengths)).tolist()
    feats = ["".join(row) for row in _value_texts(d.states).tolist()]
    acts = ["-" if a < 0 else str(a) for a in d.action_index.tolist()]
    bps = _value_texts(d.behavior_prob)
    bps[np.isnan(d.behavior_prob)] = "-,"
    resps = ["".join(row) for row in _value_texts(d.responses).tolist()]
    dones = d.done.astype(np.int8).tolist()
    lines.extend(f"{sid},{t},{f}{a},{bp}{r}{dn}" for sid, t, f, a, bp, r, dn
                 in zip(sids, steps, feats, acts, bps.tolist(), resps, dones))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_header(numbered, path):
    if not numbered or numbered[0][1].strip() != _DATASET_HEADER:
        raise ValueError(f"{path}: missing dataset header")
    if len(numbered) < 2:
        raise ValueError(f"{path}:{numbered[0][0]}: the header is not followed by "
                         "'# m=<int> state_dim=<int> n_items=<int>'")
    dims = _parse_dims(*numbered[1], path, ("m", "state_dim", "n_items"))
    metadata = {"state_dim": dims["state_dim"], "n_items": dims["n_items"]}
    body_start = 2
    for lineno, ln in numbered[2:]:
        if ln.startswith("# meta "):
            key, eq, val = ln[len("# meta "):].partition("=")
            if not eq:
                raise ValueError(f"{path}:{lineno}: meta line {ln!r} is not "
                                 "'# meta <key>=<value>'")
            metadata[key] = val
            body_start += 1
        else:
            break
    return dims["m"], dims["state_dim"], dims["n_items"], metadata, body_start


def _missing_or_float(field: str) -> float:
    """'-' marks an unknown action or probability (nan); a literal nan does not."""
    if field == "-":
        return np.nan
    value = float(field)
    if value != value:
        raise ValueError(f"{field!r} is neither a number nor '-'")
    return value


def _parse_numbers(rest, linenos, path, state_dim: int) -> np.ndarray:
    """Every field after the session id, as float64 rows (C parser)."""
    conv = {1 + state_dim: _missing_or_float, 2 + state_dim: _missing_or_float}

    def parse(rows):
        return np.loadtxt(rows, delimiter=",", comments=None, converters=conv,
                          dtype=np.float64, ndmin=2)

    try:
        return parse(rest)
    except ValueError:
        for lineno, row in zip(linenos, rest):  # name the first line that fails alone
            try:
                parse([row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        raise


def _num(x: float):
    return int(x) if np.isfinite(x) and x == int(x) else x


def load_dataset(path) -> ReplayDataset:
    """Strict parser for the documented format: whole columns, checked once.
    Every error names the file and line."""
    with open(path) as fh:
        numbered = [(k, ln.rstrip("\n")) for k, ln in enumerate(fh, start=1) if ln.strip()]
    m, state_dim, n_items, metadata, body_start = _parse_header(numbered, path)
    body = numbered[body_start:]
    n_fields = 2 + state_dim + 2 + m + 1
    for lineno, ln in body:
        if ln.count(",") != n_fields - 1:
            raise ValueError(f"{path}:{lineno}: got {ln.count(',') + 1} fields, "
                             f"expected {n_fields}")
    if not body:
        return ReplayDataset.from_columns(**_empty_columns(state_dim, m), offsets=[0],
                                          session_ids=[], m=m, metadata=metadata)
    linenos = [lineno for lineno, _ in body]
    heads = [ln.split(",", 1) for _, ln in body]
    values = _parse_numbers([h[1] for h in heads], linenos, path, state_dim)
    sids = [h[0] for h in heads]

    t, a, done = values[:, 0], values[:, 1 + state_dim], values[:, -1]
    index: dict[str, int] = {}
    session = np.array([index.setdefault(sid, len(index)) for sid in sids])
    order = np.argsort(session, kind="stable")  # sessions in order of first row
    offsets = np.concatenate([[0], np.cumsum(np.bincount(session))])
    rank = np.empty(len(body))
    rank[order] = np.arange(len(body)) - offsets[session[order]]
    a_bad = ~np.isnan(a) & (~np.isfinite(a) | (a != np.floor(a)) | (a < 0)
                            | (n_items > 0) & (a >= n_items))
    _raise_first([
        (t != rank, lambda k: f"step index {_num(t[k])} out of order for session {sids[k]}"),
        (a_bad, lambda k: f"action index {_num(a[k])} outside [0, {n_items or 'inf'})"),
        ((done != 0.0) & (done != 1.0), lambda k: f"done field {_num(done[k])} is not 0 or 1"),
    ], lambda k: f"{path}:{linenos[k]}: ")

    values = values[order]
    states = values[:, 1:1 + state_dim]
    done = values[:, -1] == 1.0
    next_states = np.zeros_like(states)
    next_states[:-1] = states[1:]
    next_states[offsets[1:] - 1] = 0.0  # each session's last row
    return ReplayDataset.from_columns(
        states=states, next_states=next_states, next_terminal=done,
        action_index=np.where(np.isnan(values[:, 1 + state_dim]), -1,
                              values[:, 1 + state_dim]).astype(np.intp),
        behavior_prob=values[:, 2 + state_dim], responses=values[:, 3 + state_dim:-1],
        done=done, offsets=offsets, session_ids=list(index), m=m, metadata=metadata,
        where=lambda k: f"{path}:{linenos[order[k]]}: ")
