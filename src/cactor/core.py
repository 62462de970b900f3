"""Vector-reward MDP vocabulary: states, transitions, trajectories, returns,
and the columnar dataset that holds logged sessions.

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
"""

from __future__ import annotations

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


def _empty_columns(state_dim: int, m: int) -> dict:
    return {"states": np.zeros((0, state_dim)), "next_states": np.zeros((0, state_dim)),
            "next_terminal": np.zeros(0, dtype=bool),
            "action_index": np.zeros(0, dtype=np.intp), "behavior_prob": np.zeros(0),
            "responses": np.zeros((0, m)), "done": np.zeros(0, dtype=bool)}


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


class ReplayDataset:
    """Logged sessions as columns (module docstring), checked when built by
    ``from_columns``, the one builder."""

    __slots__ = (*_COLUMNS, "offsets", "session_ids", "m", "metadata", "__weakref__")

    @classmethod
    def from_columns(cls, *, offsets, session_ids, m: int, metadata: dict | None = None,
                     where=None, **columns) -> ReplayDataset:
        """A dataset over ``columns``, one keyword per column, checked once
        (module docstring); a column that is already C-contiguous with its
        dtype is not copied.  ``where(row)`` names a row in error messages,
        e.g. by file and line; by default rows are named by session and step."""
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
        ], where or data.where)
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
    if not np.all((gammas >= 0.0) & (gammas < 1.0)):  # NaN fails too
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
