"""Synthetic environments: a short-session simulator with one dense and
several sparse responses, and a review-corpus generator (its datasets, like
every other, are saved in dataset format 2 only).

The session simulator models the asymmetry that motivates everything else
in this package: response 0 (the dense one, a watch-time analog) is
observed on essentially every step, while responses 1..m-1 (interaction
analogs) are Bernoulli events firing on a small fraction of steps.  Item
choice trades off immediate appeal against a hidden per-item quality that
drives the user's engagement level up or down, so far-sighted policies
genuinely outperform myopic ones on the dense response.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import ReplayDataset, State, Trajectory, check_config
from .seeding import rng_for

REVIEW_M = 8
# Score column order of the corpus; responses are stored main-first, i.e.
# ("overall", "service", ..., "location").
REVIEW_ASPECTS = ("service", "business", "cleanliness", "checkin",
                  "value", "rooms", "location", "overall")
_SUM_TOL = np.sqrt(np.finfo(np.float64).eps)  # Generator.choice's tolerance on sum(p)

# Fixed constants of the session model: the item-embedding width, the
# sparse fire probability scale * sigmoid(slope * affinity - offset), the
# dense level's base, the engagement step per unit of item quality, and how
# strongly quality anti-correlates with immediate appeal.
_EMBED_DIM = 4
_SPARSE_PROB_SCALE = 0.5
_SPARSE_SLOPE = 8.0
_SPARSE_OFFSET = 6.0
_DENSE_BASE = 1.0
_ENGAGEMENT_GAIN = 0.2
_APPEAL_QUALITY_TRADEOFF = 0.8


def _fire_probability(x):
    """scale * sigmoid(slope * x - offset) at affinity x, with sigmoid(z) =
    (1 + tanh(z / 2)) / 2 and each halving folded into a constant: halving
    is exact, so the bits are those of the sigmoid form."""
    return (0.5 * _SPARSE_PROB_SCALE) * (1.0 + np.tanh((0.5 * _SPARSE_SLOPE) * x
                                                       - 0.5 * _SPARSE_OFFSET))


@dataclass(frozen=True)
class SimConfig:
    n_items: int = 30
    state_dim: int = 10
    m: int = 4
    session_length_range: tuple[int, int] = (12, 20)
    seed: int = 0
    dense_noise_std: float = 0.1

    def __post_init__(self):
        check_config(self, counts=("n_items", "m", "state_dim", "session_length_range"))
        lo, hi = self.session_length_range
        check_config(self, rules=(
            ("need at least one auxiliary response (m >= 2)", self.m >= 2),
            ("session_length_range must satisfy 0 < min <= max", 0 < lo <= hi),
            ("state_dim must be at least 4", self.state_dim >= 4),
            ("dense_noise_std must be finite and nonnegative",
             0 <= self.dense_noise_std < math.inf)))


class SessionSimulator:
    """User sessions.  ``reset``/``step`` drive one session; ``rollout``
    steps many together and runs the same arithmetic (``step`` is its
    one-row case), so both give bit-identical trajectories.  Both step
    through ``_advance``, which writes a step's responses and next features
    into the two arrays it is given (``step`` passes fresh ones, ``rollout``
    the step's slices of its time-major buffers) and writes nothing else;
    its ``_response_terms`` runs one gemv per row against the m preference
    maps stacked once (``_pref_stack``), so a row's bits do not depend on
    how many rows step together.

    RNG contract (v2): every draw of an episode comes from its own stream,
    named by (config.seed, "episode", episode_seed), and all of them are made
    when the episode starts (``_start``), one call per kind in this order:
    the session length, the initial core features, the whole (length,)
    block of dense noise (drawn only when dense_noise_std > 0, else zeros)
    and the whole (length, m-1) block of sparse uniforms.  Step t reads row
    t of each block.  An episode's trajectory therefore depends only on that
    pair and on the items chosen, never on which sessions step beside it,
    nor on which member of a multi-member ``rollout`` owns it (members that
    share an episode seed share its blocks).  reset/step keep one session's
    state on the instance; the tables are read-only after construction."""

    def __init__(self, config: SimConfig):
        self.config = config
        rng = rng_for(config.seed, "sim-tables")
        c = config
        k = c.state_dim - 2  # core features; slots -2/-1 hold engagement and progress
        self._core_dim = k
        e = _EMBED_DIM
        self.item_embed = rng.normal(size=(c.m, c.n_items, e)) / np.sqrt(e)
        self.pref_maps = rng.normal(size=(c.m, e, c.state_dim)) / np.sqrt(c.state_dim)
        self.appeal = rng.normal(scale=0.6, size=c.n_items)
        self.sparse_bias = rng.normal(scale=1.0, size=(c.m - 1, c.n_items))
        # quality anti-correlates with immediate appeal: chasing appeal erodes engagement
        rho = _APPEAL_QUALITY_TRADEOFF
        noise = rng.normal(size=c.n_items)
        z = (self.appeal - self.appeal.mean()) / max(self.appeal.std(), 1e-12)
        self.quality = np.tanh(-rho * z + np.sqrt(max(1.0 - rho * rho, 0.0)) * noise)
        self.fold_map = rng.normal(size=(k, e)) / np.sqrt(e)
        self.fold_resp = rng.normal(scale=1.0, size=k)
        # per-item constants of the dynamics, item first so that a step
        # gathers each with one index: the affinity bias of each response
        # (n_items, m), the embeddings (n_items, m, embed_dim), each item's
        # push on the core features and its step of the engagement level
        self._bias_rows = np.ascontiguousarray(np.vstack([self.appeal, self.sparse_bias]).T)
        self._embed_rows = np.ascontiguousarray(self.item_embed.transpose(1, 0, 2))
        fold = 0.4 * self.fold_map
        self._fold_push = np.stack([fold @ self.item_embed[0, j] for j in range(c.n_items)])
        self._engagement_step = _ENGAGEMENT_GAIN * self.quality
        # the m preference maps as one (m * embed_dim, state_dim) matrix: one gemv per row
        self._pref_stack = np.ascontiguousarray(self.pref_maps.reshape(c.m * e, c.state_dim))

        self._noise = self._fire = None
        self._features = None
        self._t = 0
        self._length = 0

    # -- episode control ---------------------------------------------------

    def _start(self, episode_seed: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """The episode's length, its initial features, its dense noise
        (length,) and its sparse uniforms (length, m-1), drawn in the
        contract's order."""
        cfg = self.config
        rng = rng_for(cfg.seed, "episode", episode_seed)
        lo, hi = cfg.session_length_range
        length = int(rng.integers(lo, hi + 1))
        core = rng.normal(size=self._core_dim)
        std = cfg.dense_noise_std
        noise = rng.normal(0.0, std, size=length) if std > 0 else np.zeros(length)
        fire = rng.random((length, cfg.m - 1))
        return length, np.concatenate([core, [1.0], [0.0]]), noise, fire

    def reset(self, episode_seed: int) -> State:
        self._length, self._features, self._noise, self._fire = self._start(episode_seed)
        self._t = 0
        return State(self._features.copy())

    def step(self, item: int) -> tuple[State, np.ndarray, bool]:
        if self._features is None:
            raise RuntimeError("reset() must be called before step()")
        if self._t >= self._length:
            raise RuntimeError("stepping a terminal state")
        t = self._t
        response, features = np.empty((1, self.config.m)), np.empty((1, self.config.state_dim))
        self._advance(self._features[None], self._items(item), self._noise[t:t + 1],
                      self._fire[t:t + 1], t + 1, np.array([self._length]), response, features)
        self._t = t + 1  # only once the item is checked
        done = self._t >= self._length
        self._features = features[0]
        return State(self._features.copy(), terminal=done), response[0], done

    def _items(self, item) -> np.ndarray:
        """``item`` as a one-row index array; 2.0 acts as 2, as in ``from_columns``."""
        raw = np.asarray(item)
        if raw.shape != () or raw.dtype.kind not in "iuf" or raw != np.trunc(raw):  # NaN too
            raise ValueError(f"item index {item!r} is not an integer")
        if not 0 <= raw < self.config.n_items:
            raise ValueError(f"item index {item} out of range [0, {self.config.n_items})")
        return raw.astype(np.intp)[None]

    def _advance(self, features, items, noise, fire, t, lengths, response, nxt) -> None:
        """One step of every row: ``features`` (k, state_dim), the items
        shown, each row's dense noise (k,) and sparse uniforms (k, m-1) for
        this step, the step count after this step and the session lengths.
        Writes the responses into ``response`` (k, m) and the next features
        into ``nxt`` (k, state_dim), which must overlap no input, and writes
        nothing else."""
        affinity, sparse_p = self._response_terms(features, items)
        g = features[:, -2]
        level = _DENSE_BASE + affinity + noise
        # the rectifier: level is finite (so is the noise) and never -0.0 (a sum is -0.0
        # only if both terms are, and 1 + affinity is not), so np.maximum's bits are
        # np.where(level > 0.0, level, 0.0)'s
        np.multiply(g, np.maximum(level, 0.0, out=level), out=response[:, 0])
        np.less(fire, sparse_p, out=response[:, 1:])
        k = self._core_dim
        np.tanh(0.85 * features[:, :k] + self._fold_push.take(items, axis=0)
                + (0.1 * response.sum(axis=1))[:, None] * self.fold_resp, out=nxt[:, :k])
        # np.clip's bits, without its wrapper's cost
        np.minimum(np.maximum(g + self._engagement_step[items], 0.25), 2.0,
                   out=nxt[:, k])
        np.divide(t, lengths, out=nxt[:, k + 1])

    # -- response model (also used by tests and oracles) ----------------------

    def _response_terms(self, features, items) -> tuple[np.ndarray, np.ndarray]:
        """Dense affinity (k,) and sparse fire probabilities (k, m-1) at each
        row's (state, item).  Each row runs one gemv against all m
        preference maps stacked (``_pref_stack``), then one dot per
        response; both are the one-row kernels, so a row's bits do not
        depend on how many rows run together."""
        k, (m, e, _) = len(features), self.pref_maps.shape
        pref = (self._pref_stack @ features[:, :, None]).reshape(k, m, 1, e)
        x = np.tanh((pref @ self._embed_rows.take(items, axis=0)[..., None])[..., 0, 0]
                    + self._bias_rows.take(items, axis=0))
        return x[:, 0], _fire_probability(x[:, 1:])

    def response_probs(self, features, item) -> tuple[float, np.ndarray]:
        """Expected dense response and sparse fire probabilities at (state, item).

        The dense response is g * max(0, mu + noise) with noise ~ N(0, sigma^2),
        so its mean is that of a rectified normal, g * (mu Phi(mu / sigma) +
        sigma phi(mu / sigma)), and g * max(0, mu) when sigma = 0."""
        affinity, sparse = self._response_terms(np.asarray(features)[None], self._items(item))
        mu, sigma = _DENSE_BASE + float(affinity[0]), self.config.dense_noise_std
        if sigma == 0.0:
            return features[-2] * max(0.0, mu), sparse[0]
        z = mu / sigma
        cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return features[-2] * (mu * cdf + sigma * pdf), sparse[0]


class UniformRandomPolicy:
    """Behavior policy assigning 1/n to every item."""

    def __init__(self, n_items: int):
        self.n_items = n_items

    def probs(self, features) -> np.ndarray:
        return np.full(self.n_items, 1.0 / self.n_items)


def inverse_cdf(p, u):
    """The index ``Generator.choice(n, p=p)`` returns when its one
    ``random()`` draw is ``u`` (so u lies in [0, 1)): the first entry of
    the cumulative sum, normalised by its last entry, that exceeds u.

    ``p`` is one distribution with a scalar ``u``, or a stack of rows with
    one draw per row.  Raises ValueError where choice does: on NaN, on a
    negative entry, or on a sum more than sqrt(eps) away from 1 (checked in
    that order, see ``_reject``).
    """
    p = np.asarray(p, dtype=np.float64)
    # one pass decides validity: NaN fails both comparisons (a reduction of a
    # NaN is NaN; initial keeps an empty stack valid), and with no negative
    # entry the sum cannot meet inf - inf
    if not (p.min(initial=0.0) >= 0.0
            and abs(p.sum(axis=-1) - 1.0).max(initial=0.0) <= _SUM_TOL):
        _reject(p)
    cdf = p.cumsum(axis=-1)
    cdf = cdf / cdf[..., -1:]  # in place, the overlapping last column would cost a copy
    # cdf does not decrease and ends at 1 > u, so the first entry above u is at
    # the count of those at or below it
    return (cdf > np.asarray(u)[..., None]).argmax(axis=-1)


def _reject(p):
    """Raise choice's error for probabilities ``inverse_cdf`` found invalid."""
    with np.errstate(invalid="ignore"):  # inf - inf: reported as NaN
        total = p.sum(axis=-1)
    if np.any(np.isnan(total)):
        raise ValueError("probabilities contain NaN")
    if np.any(p < 0.0):
        raise ValueError("probabilities are not non-negative")
    raise ValueError(f"probabilities do not sum to 1 (sums {total})")


def run_episode(sim: SessionSimulator, select, episode_seed: int,
                session_id: str | None = None) -> Trajectory:
    """Roll one session.  ``select(features) -> (item, behavior_prob | None)``.

    The session draws from its own episode stream (see SessionSimulator);
    any action stream belongs to ``select``.  ``rollout`` steps many sessions
    together and gives the same trajectories.  The terminal next_state is
    canonicalized to a zero feature vector (its value is never bootstrapped).
    """
    state = sim.reset(episode_seed)
    steps = []
    done = False
    while not done:
        item, prob = select(state.features)
        if prob is not None and not prob > 0.0:  # NaN fails too
            raise ValueError(f"behavior policy assigned probability {prob} to item {item}")
        features = state.features
        state, response, done = sim.step(item)
        steps.append((features, item, np.nan if prob is None else prob, response))
    states, items, probs, responses = map(np.array, zip(*steps))
    ends = np.arange(len(steps)) == len(steps) - 1
    return ReplayDataset.from_columns(
        states=states, next_states=np.concatenate([states[1:], np.zeros_like(states[:1])]),
        next_terminal=ends, action_index=items, behavior_prob=probs, responses=responses,
        done=ends, offsets=[0, len(steps)], session_ids=[session_id or f"ep-{episode_seed}"],
        m=sim.config.m).trajectories[0]


def rollout(sim: SessionSimulator, probs, rngs, episode_seeds,
            session_ids=None) -> ReplayDataset:
    """Roll the sessions of k members in lockstep, one session per episode
    seed, writing the dataset's columns directly.

    Member j has its own action generator ``rngs[j]`` and episode seeds
    ``episode_seeds[j]``; every member rolls the same number E of sessions.
    Sessions are laid out member-major: member j's sessions are sessions
    j*E .. (j+1)*E - 1 of the dataset, in seed order, so its rows are one
    contiguous block.  ``probs(features)`` takes the (k, E, state_dim)
    features of every session and returns all k*E rows of (k*E, n_items)
    action probabilities; a row must depend only on its own session's
    features and member (``approximator.row_evaluator``).  Each session's
    item is drawn by ``inverse_cdf`` from one uniform of its member's
    generator.

    Every session steps on every step, with the same arithmetic as
    ``step``, until the longest has ended; a finished session keeps its
    last features.  Features, responses, actions and behavior
    probabilities live in time-major (steps, sessions, ...) buffers that
    step t writes by slice (``probs`` sees a read-only view of step t's
    features).  After the last step one ``take`` per column gathers each
    session's steps into dataset row order: fresh C-contiguous columns,
    which ``from_columns`` does not copy and which hold no slot past a
    session's end.  An invalid probability row raises ``inverse_cdf``'s
    error for the first bad row, prefixed 'session <id> step <t>: ', t
    counting lockstep steps (past a finished session's end, too).

    RNG contract: each session draws from its own episode stream (see
    SessionSimulator): ``sim._start`` runs once per distinct episode seed,
    so members that share a seed share its draws (common random numbers),
    and each session's noise and uniform blocks are laid into (steps,
    sessions) buffers once, before the first step; past its end a session
    reads zeros.  ``rngs[j]`` is drawn once, one uniform per step of each
    of member j's sessions, and session e's step t takes draw offset_e + t,
    where offset_e is the summed length of member j's sessions before e:
    the order of rolling that member's sessions one after another with
    ``choice(n, p=p)`` on ``rngs[j]``.  So each member's rows, and the
    state of its generator afterwards, are bit-identical to that
    sequential run, whatever the other members do.  Session ids default to
    ``ep-<seed>``.
    """
    c = sim.config
    seeds = [list(member) for member in episode_seeds]
    k, width = len(seeds), len(seeds[0]) if seeds else 0
    if len(rngs) != k or any(len(member) != width for member in seeds):
        raise ValueError("rollout needs one action generator per member and the same "
                         "number of episode seeds for every member")
    flat = [s for member in seeds for s in member]
    ids = [f"ep-{s}" for s in flat] if session_ids is None else list(session_ids)
    if len(ids) != len(flat):
        raise ValueError(f"rollout got {len(ids)} session ids for {len(flat)} episode seeds")
    starts = {s: sim._start(s) for s in dict.fromkeys(flat)}  # one per distinct seed
    sessions = [starts[s] for s in flat]
    count = len(flat)
    lengths = np.array([length for length, _, _, _ in sessions], dtype=np.intp)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    n, steps = int(offsets[-1]), int(lengths.max(initial=0))
    # dataset row offsets[e] + t is slot t * count + e of the time-major buffers
    session = np.repeat(np.arange(count), lengths)
    slots = (np.arange(n) - offsets[session]) * count + session

    def time_major(column):  # a row-order column as (steps, sessions, ...), zeros past ends
        out = np.zeros((steps * count, *column.shape[1:]))
        out[slots] = column
        return out.reshape(steps, count, *column.shape[1:])

    # each session's draws in row order (an empty block keeps concatenate defined)
    noise = time_major(np.concatenate([x for _, _, x, _ in sessions] + [np.zeros(0)]))
    fire = time_major(np.concatenate([u for _, _, _, u in sessions]
                                     + [np.zeros((0, c.m - 1))]))
    uniforms = np.empty(n)  # drawn in row order
    bounds = offsets[np.arange(k + 1) * width]  # member j's rows: bounds[j]:bounds[j + 1]
    for r, lo, hi in zip(rngs, bounds[:-1], bounds[1:]):
        r.random(out=uniforms[lo:hi])
    uniforms = time_major(uniforms)
    features = np.empty((steps + 1, count, c.state_dim))  # step t reads t, writes t + 1
    features[0] = np.reshape([f for _, f, _, _ in sessions], (count, c.state_dim))
    grid = features.reshape(steps + 1, k, width, c.state_dim)  # what probs sees
    grid.setflags(write=False)
    responses, behavior_prob = np.empty((steps, count, c.m)), np.empty((steps, count))
    action_index = np.empty((steps, count), dtype=np.intp)
    ended = (np.arange(steps)[:, None] >= lengths)[:, :, None]  # finished before step t
    first_entry = np.arange(count) * c.n_items  # of each row of p, flattened
    for t in range(steps):
        p = np.asarray(probs(grid[t]), dtype=np.float64)
        if p.shape != (count, c.n_items):
            raise ValueError(f"probs returned shape {p.shape}, expected ({count}, "
                             f"{c.n_items})")
        try:
            items = inverse_cdf(p, uniforms[t])
        except ValueError as err:
            raise _first_rejected_row(p, ids, t) from err
        action_index[t] = items
        behavior_prob[t] = p.take(first_entry + items)  # p[row, items[row]]
        sim._advance(features[t], items, noise[t], fire[t], t + 1, lengths, responses[t],
                     features[t + 1])
        np.copyto(features[t + 1], features[t], where=ended[t])  # keeps last features
    del starts, sessions, noise, fire, uniforms  # their memory serves the gathers below
    done = np.zeros(n, dtype=bool)
    done[offsets[1:] - 1] = True
    next_states = features[1:].reshape(-1, c.state_dim).take(slots, axis=0)
    next_states[done] = 0.0  # the terminal next_state is canonicalized to zeros
    return ReplayDataset.from_columns(
        states=features[:-1].reshape(-1, c.state_dim).take(slots, axis=0),
        next_states=next_states, next_terminal=done,
        action_index=action_index.reshape(-1).take(slots),
        behavior_prob=behavior_prob.reshape(-1).take(slots),
        responses=responses.reshape(-1, c.m).take(slots, axis=0), done=done, offsets=offsets,
        session_ids=ids, m=c.m, metadata={"state_dim": c.state_dim, "n_items": c.n_items})


def _first_rejected_row(p, ids, t) -> ValueError:
    """``inverse_cdf``'s error for the first row of step t's ``p`` that
    breaks its checks (run on the same sums), prefixed by that row's session
    and step."""
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN sum, which fails below
        total = p.sum(axis=-1)
    row = int(np.argmax(~((p >= 0.0).all(axis=-1) & (abs(total - 1.0) <= _SUM_TOL))))
    try:
        _reject(p[row])
    except ValueError as err:
        return ValueError(f"session {ids[row]} step {t}: {err}")


def generate_offline_dataset(config: SimConfig, behavior,
                             n_trajectories: int) -> ReplayDataset:
    """Log sessions under a stochastic behavior policy.

    The sessions are rolled in lockstep (``rollout``) with one action
    stream, (config.seed, "behavior-actions"), so ``behavior.probs`` is asked
    about every session on every step, a finished session's last features
    included.  It must put positive probability on every item at each of
    them, or the error names the first row that does not by session and
    lockstep step; each transition records the probability the behavior
    assigned to the logged action.
    """
    check_config(SimpleNamespace(n_trajectories=n_trajectories), iterations=("n_trajectories",))
    sim = SessionSimulator(config)
    action_rng = rng_for(config.seed, "behavior-actions")

    calls = itertools.count()  # the lockstep step of each call

    def probs(features):
        t = next(calls)
        p = np.array([behavior.probs(f) for f in features.reshape(-1, config.state_dim)])
        if np.any(p <= 0.0):
            row = int(np.argmax(np.any(p <= 0.0, axis=1)))
            raise ValueError(f"session sim-{row} step {t}: behavior policy assigns zero "
                             f"probability to item {int(np.argmin(p[row]))}")
        return p

    dataset = rollout(sim, probs, [action_rng], [range(n_trajectories)],
                      [f"sim-{k}" for k in range(n_trajectories)])
    dataset.metadata["source"] = "sim"
    return dataset


# ---------------------------------------------------------------------------
# Review-style corpus: users score items on 7 aspects plus an overall rating.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReviewDatasetConfig:
    n_users: int = 40
    n_items: int = 25
    n_reviews: int = 2400
    min_trajectory_length: int = 20
    history_window: int = 3
    seed: int = 0

    def __post_init__(self):
        check_config(self, counts=("n_users", "n_items", "n_reviews", "min_trajectory_length",
                                   "history_window"))


def _review_columns(config: ReviewDatasetConfig):
    """The corpus as columns: users (n,), items (n,), aspect-ordered scores
    (n, REVIEW_M) and behavior_prob (n,), the probability of the reviewed
    item under the user's choice row.

    Aspect scores are integers in 1..5; "business" and "checkin" are missing
    with some probability and encoded as -1, which is why their corpus means
    come out negative.

    RNG contract: the stream (config.seed, "reviews") draws the tables, then
    per review, in this order: ``integers(n_users)`` (the user), one
    ``random()`` (the item: ``inverse_cdf`` of the user's choice row, which
    is what ``Generator.choice`` returns for that uniform), 8 standard
    normals z (the aspects' noise, then the overall's, each entering as
    ``0.0 + scale * z``, as ``Generator.normal`` makes it) and 2 uniforms
    (business, then checkin, is missing if below 0.55).
    """
    rng = rng_for(config.seed, "reviews")
    d = 4
    user_embed = rng.normal(size=(config.n_users, d))
    harshness = rng.normal(scale=0.3, size=config.n_users)
    item_embed = rng.normal(size=(config.n_items, d))
    quality = rng.normal(scale=0.7, size=config.n_items)
    aspect_dev = rng.normal(scale=0.4, size=(config.n_items, REVIEW_M - 1))

    affinity = user_embed @ item_embed.T / np.sqrt(d)
    logits = 1.5 * (affinity + quality)
    shifted = logits - logits.max(axis=1, keepdims=True)
    choice_probs = np.exp(shifted)
    choice_probs /= choice_probs.sum(axis=1, keepdims=True)

    n = config.n_reviews
    users = np.empty(n, dtype=np.intp)
    picks, noise, missing = np.empty(n), np.empty((n, REVIEW_M)), np.empty((n, 2))
    for k in range(n):  # per review, in order: integers and normals take a variable count
        users[k] = rng.integers(config.n_users)
        picks[k] = rng.random()
        rng.standard_normal(out=noise[k])
        rng.random(out=missing[k])
    items = inverse_cdf(choice_probs[users], picks)
    base = (3.4 + quality[items] + 0.35 * affinity[users, items] - harshness[users])[:, None]
    dev = np.concatenate([aspect_dev, 0.5 * aspect_dev.mean(axis=1, keepdims=True)], axis=1)
    scale = np.array([0.4] * (REVIEW_M - 1) + [0.3])
    scores = np.clip(np.rint(base + dev[items] + (0.0 + scale * noise)), 1, 5)  # as round()
    gaps = [REVIEW_ASPECTS.index("business"), REVIEW_ASPECTS.index("checkin")]
    scores[:, gaps] = np.where(missing < 0.55, -1.0, scores[:, gaps])
    return users, items, scores, choice_probs[users, items]


def _reviews_to_dataset(users, items, scores, probs, n_users, n_items, min_len,
                        window) -> ReplayDataset:
    """One session per user with at least ``min_len`` reviews, in order of
    each user's first review.  The state of step t holds the user id and
    the last ``window`` reviewed items with their scores (oldest in slot 0)."""
    index: dict[int, int] = {}
    session = np.array([index.setdefault(u, len(index)) for u in users.tolist()],
                       dtype=np.intp)
    counts = np.bincount(session, minlength=len(index))
    kept = counts[session] >= min_len
    order = np.flatnonzero(kept)[np.argsort(session[kept], kind="stable")]
    lengths = counts[counts >= min_len]
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    n = int(offsets[-1])
    items, scores, probs = items[order], scores[order], probs[order]
    lo = np.repeat(offsets[:-1], lengths)
    step = np.arange(n) - lo

    state_dim = 1 + window * (1 + REVIEW_M)
    states = np.zeros((n, state_dim))
    states[:, 0] = users[order] / n_users
    for slot in range(window):
        # slot j holds review max(0, t - window) + j of the session, once t > j
        has = step > slot
        src = (lo + np.maximum(step - window, 0) + slot)[has]
        off = 1 + slot * (1 + REVIEW_M)
        states[has, off] = items[src] / n_items
        states[has, off + 1: off + 1 + REVIEW_M] = scores[src] / 5.0
    done = np.zeros(n, dtype=bool)
    done[offsets[1:] - 1] = True
    next_states = np.zeros_like(states)
    next_states[:-1][~done[:-1]] = states[1:][~done[:-1]]
    # responses are stored main-first: overall rating, then the aspects
    responses = np.concatenate([scores[:, -1:], scores[:, :-1]], axis=1)
    kept_users = [u for u, k in index.items() if counts[k] >= min_len]
    meta = {"state_dim": state_dim, "n_items": n_items, "n_users": n_users,
            "source": "reviews",
            "response_names": "overall," + ",".join(REVIEW_ASPECTS[:-1])}
    return ReplayDataset.from_columns(
        states=states, next_states=next_states, next_terminal=done, action_index=items,
        behavior_prob=probs, responses=responses, done=done, offsets=offsets,
        session_ids=[f"user-{u}" for u in kept_users], m=REVIEW_M, metadata=meta)


def generate_review_dataset(config: ReviewDatasetConfig) -> ReplayDataset:
    return _reviews_to_dataset(*_review_columns(config), config.n_users, config.n_items,
                               config.min_trajectory_length, config.history_window)
