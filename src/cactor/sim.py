"""Synthetic environments: a short-session simulator with one dense and
several sparse responses, and a review-corpus generator/loader.

The session simulator models the asymmetry that motivates everything else
in this package: response 0 (the dense one, a watch-time analog) is
observed on essentially every step, while responses 1..m-1 (interaction
analogs) are Bernoulli events firing on a small fraction of steps.  Item
choice trades off immediate appeal against a hidden per-item quality that
drives the user's engagement level up or down, so far-sighted policies
genuinely outperform myopic ones on the dense response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ReplayDataset, State, Trajectory, _parse_dims, check_config
from .seeding import derive_seed

REVIEW_M = 8
# Review file column order; internally responses are reordered main-first,
# i.e. ("overall", "service", ..., "location").
REVIEW_ASPECTS = ("service", "business", "cleanliness", "checkin",
                  "value", "rooms", "location", "overall")
_REVIEW_HEADER = "# cactor-reviews 1"
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


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


@dataclass(frozen=True)
class SimConfig:
    n_items: int = 30
    state_dim: int = 10
    m: int = 4
    session_length_range: tuple[int, int] = (12, 20)
    seed: int = 0
    dense_noise_std: float = 0.1

    def __post_init__(self):
        lo, hi = self.session_length_range
        check_config(self, counts=("n_items",), rules=(
            ("need at least one auxiliary response (m >= 2)", self.m >= 2),
            ("session_length_range must satisfy 0 < min <= max", 0 < lo <= hi),
            ("state_dim must be at least 4", self.state_dim >= 4),
            ("dense_noise_std must be nonnegative", self.dense_noise_std >= 0)))


class SessionSimulator:
    """User sessions.  ``reset``/``step`` drive one session; ``rollout``
    steps many together and runs the same arithmetic (``step`` is its
    one-row case), so both give bit-identical trajectories.

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
        rng = np.random.Generator(np.random.PCG64(derive_seed(config.seed, "sim-tables")))
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
        # (n_items, m), the embeddings (n_items, m, embed_dim), and each
        # item's push on the core features
        self._bias_rows = np.ascontiguousarray(np.vstack([self.appeal, self.sparse_bias]).T)
        self._embed_rows = np.ascontiguousarray(self.item_embed.transpose(1, 0, 2))
        fold = 0.4 * self.fold_map
        self._fold_push = np.stack([fold @ self.item_embed[0, j] for j in range(c.n_items)])

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
        rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, "episode", episode_seed)))
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
        cfg = self.config
        if self._features is None:
            raise RuntimeError("reset() must be called before step()")
        if self._t >= self._length:
            raise RuntimeError("stepping a terminal state")
        if not (0 <= item < cfg.n_items):
            raise ValueError(f"item index {item} out of range [0, {cfg.n_items})")
        t = self._t
        self._t += 1
        response, features = self._advance(self._features[None], np.array([item]),
                                           self._noise[t:t + 1], self._fire[t:t + 1], self._t,
                                           np.array([self._length]))
        done = self._t >= self._length
        self._features = features[0]
        return State(self._features.copy(), terminal=done), response[0], done

    def _advance(self, features, items, noise, fire, t, lengths) -> tuple[np.ndarray, np.ndarray]:
        """One step of every row: ``features`` (k, state_dim), the items
        shown, each row's dense noise (k,) and sparse uniforms (k, m-1) for
        this step, the step count after this step and the session lengths.
        Returns responses (k, m) and the next features (k, state_dim)."""
        affinity, sparse_p = self._response_terms(features, items)
        g = features[:, -2]
        level = _DENSE_BASE + affinity + noise
        dense = g * np.where(level > 0.0, level, 0.0)
        response = np.concatenate([dense[:, None], (fire < sparse_p).astype(np.float64)],
                                  axis=1)
        new_core = np.tanh(0.85 * features[:, :self._core_dim] + self._fold_push[items]
                           + (0.1 * response.sum(axis=1))[:, None] * self.fold_resp)
        # np.clip's bits, without its wrapper's cost
        new_g = np.minimum(np.maximum(g + _ENGAGEMENT_GAIN * self.quality[items], 0.25), 2.0)
        progress = t / lengths
        return response, np.concatenate([new_core, new_g[:, None], progress[:, None]], axis=1)

    # -- response model (also used by tests and oracles) ----------------------

    def _response_terms(self, features, items) -> tuple[np.ndarray, np.ndarray]:
        """Dense affinity (k,) and sparse fire probabilities (k, m-1) at each
        row's (state, item).  Every product is stacked so that each row and
        response runs the one-row kernels (gemv, then dot)."""
        pref = self.pref_maps @ features[:, None, :, None]  # (k, m, embed_dim, 1)
        x = np.tanh((pref.swapaxes(-1, -2) @ self._embed_rows[items][..., None])[..., 0, 0]
                    + self._bias_rows[items])
        sparse = _SPARSE_PROB_SCALE * _sigmoid(_SPARSE_SLOPE * x[:, 1:] - _SPARSE_OFFSET)
        return x[:, 0], sparse

    def response_probs(self, features, item) -> tuple[float, np.ndarray]:
        """Expected dense response and sparse fire probabilities at (state, item).

        The dense response is g * max(0, mu + noise) with noise ~ N(0, sigma^2),
        so its mean is that of a rectified normal, g * (mu Phi(mu / sigma) +
        sigma phi(mu / sigma)), and g * max(0, mu) when sigma = 0."""
        affinity, sparse = self._response_terms(np.asarray(features)[None], np.array([item]))
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
    ``random()`` draw is ``u``: the first entry of the cumulative sum,
    normalised by its last entry, that exceeds u.

    ``p`` is one distribution with a scalar ``u``, or a stack of rows with
    one draw per row.  Raises ValueError where choice does: on NaN, on a
    negative entry, or on a sum more than sqrt(eps) away from 1 (checked in
    that order, see ``_reject``).
    """
    p = np.asarray(p, dtype=np.float64)
    # one pass decides validity: NaN fails both comparisons, and with no
    # negative entry the sum cannot meet inf - inf
    if not ((p >= 0.0).all() and (abs(p.sum(axis=-1) - 1.0) <= _SUM_TOL).all()):
        _reject(p)
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return (cdf <= np.asarray(u)[..., None]).sum(axis=-1)


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
    canonicalized to a zero feature vector (its value is never bootstrapped),
    which keeps the text format round trip exact.
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
    contiguous block.  ``probs(features, live)`` takes the (k, E, state_dim)
    features of every session (a finished one keeps its last features) and
    the flat indices of the sessions still running, and returns their
    (len(live), n_items) action probabilities; a row must depend only on its
    own session's features and member (``approximator.row_evaluator``).  Each
    session's item is drawn by ``inverse_cdf`` from one uniform of its
    member's generator.

    RNG contract: each session draws from its own episode stream (see
    SessionSimulator): ``sim._start`` runs once per distinct episode seed,
    so members that share a seed share its draws (common random numbers),
    and each session's noise and uniform blocks are laid out at its dataset
    rows once, before the first step.  ``rngs[j]`` is drawn once, one
    uniform per step of each of member j's sessions, and session e's step t
    takes draw offset_e + t, where offset_e is the summed length of member
    j's sessions before e: the order of rolling that member's sessions one
    after another with ``choice(n, p=p)`` on ``rngs[j]``.  So each member's rows, and the
    state of its generator afterwards, are bit-identical to that sequential
    run, whatever the other members do.  Session ids default to ``ep-<seed>``.
    """
    c = sim.config
    seeds = [list(member) for member in episode_seeds]
    k, width = len(seeds), len(seeds[0]) if seeds else 0
    if len(rngs) != k or any(len(member) != width for member in seeds):
        raise ValueError("rollout needs one action generator per member and the same "
                         "number of episode seeds for every member")
    flat = [s for member in seeds for s in member]
    ids = [f"ep-{s}" for s in flat] if session_ids is None else list(session_ids)
    starts = {s: sim._start(s) for s in dict.fromkeys(flat)}  # one per distinct seed
    sessions = [starts[s] for s in flat]
    lengths = np.array([length for length, _, _, _ in sessions], dtype=np.intp)
    features = np.array([f for _, f, _, _ in sessions]).reshape(k, width, c.state_dim)
    current = features.reshape(-1, c.state_dim)  # a view: one row per session
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    n = int(offsets[-1])
    # each session's draws at its dataset rows: step t of session e reads row offsets[e] + t
    noise = np.concatenate([np.empty(0)] + [x for _, _, x, _ in sessions])
    fire = np.concatenate([np.empty((0, c.m - 1))] + [u for _, _, _, u in sessions])
    uniforms = np.empty(n)
    bounds = offsets[np.arange(k + 1) * width]  # member j's rows: bounds[j]:bounds[j + 1]
    for r, lo, hi in zip(rngs, bounds[:-1], bounds[1:]):
        r.random(out=uniforms[lo:hi])
    states, next_states = np.empty((n, c.state_dim)), np.zeros((n, c.state_dim))
    responses, behavior_prob = np.empty((n, c.m)), np.empty(n)
    action_index = np.empty(n, dtype=np.intp)
    every = np.arange(len(flat))
    for t in range(int(lengths.max(initial=0))):
        live = np.flatnonzero(lengths > t)
        f = current[live]
        rows = offsets[live] + t
        p = np.asarray(probs(features, live), dtype=np.float64)
        if p.shape != (live.size, c.n_items):
            raise ValueError(f"probs returned shape {p.shape}, expected ({live.size}, {c.n_items})")
        items = inverse_cdf(p, uniforms[rows])
        states[rows] = f
        action_index[rows] = items
        behavior_prob[rows] = p[every[:live.size], items]
        responses[rows], f = sim._advance(f, items, noise[rows], fire[rows], t + 1,
                                          lengths[live])
        current[live] = f
        next_states[rows] = f
    done = np.zeros(n, dtype=bool)
    done[offsets[1:] - 1] = True
    next_states[done] = 0.0  # the terminal next_state is canonicalized to zeros
    return ReplayDataset.from_columns(
        states=states, next_states=next_states, next_terminal=done,
        action_index=action_index, behavior_prob=behavior_prob, responses=responses,
        done=done, offsets=offsets, session_ids=ids, m=c.m,
        metadata={"state_dim": c.state_dim, "n_items": c.n_items})


def generate_offline_dataset(config: SimConfig, behavior,
                             n_trajectories: int) -> ReplayDataset:
    """Log sessions under a stochastic behavior policy.

    The behavior must put positive probability on every item; each
    transition records the probability the behavior assigned to the logged
    action.  The sessions are rolled in lockstep (``rollout``) with one
    action stream, (config.seed, "behavior-actions").
    """
    sim = SessionSimulator(config)
    action_rng = np.random.Generator(np.random.PCG64(derive_seed(config.seed, "behavior-actions")))

    def probs(features, live):
        p = np.array([behavior.probs(f) for f in features.reshape(-1, config.state_dim)[live]])
        zero = np.any(p <= 0.0, axis=1)
        if np.any(zero):
            bad = int(np.argmin(p[zero][0]))
            raise ValueError(f"behavior policy assigns zero probability to item {bad}")
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


def review_state_dim(config: ReviewDatasetConfig) -> int:
    return 1 + config.history_window * (1 + REVIEW_M)


def generate_reviews(config: ReviewDatasetConfig) -> list[tuple[int, int, np.ndarray, float]]:
    """Raw (user, item, aspect-ordered scores, behavior_prob) records.

    Aspect scores are integers in 1..5; "business" and "checkin" are missing
    with some probability and encoded as -1, which is why their corpus means
    come out negative.
    """
    rng = np.random.Generator(np.random.PCG64(derive_seed(config.seed, "reviews")))
    d = 4
    users = rng.normal(size=(config.n_users, d))
    harshness = rng.normal(scale=0.3, size=config.n_users)
    items = rng.normal(size=(config.n_items, d))
    quality = rng.normal(scale=0.7, size=config.n_items)
    aspect_dev = rng.normal(scale=0.4, size=(config.n_items, REVIEW_M - 1))

    affinity = users @ items.T / np.sqrt(d)
    logits = 1.5 * (affinity + quality)
    shifted = logits - logits.max(axis=1, keepdims=True)
    choice_probs = np.exp(shifted)
    choice_probs /= choice_probs.sum(axis=1, keepdims=True)

    records = []
    for _ in range(config.n_reviews):
        u = int(rng.integers(config.n_users))
        h = int(rng.choice(config.n_items, p=choice_probs[u]))
        base = 3.4 + quality[h] + 0.35 * affinity[u, h] - harshness[u]
        scores = np.empty(REVIEW_M)
        for i in range(REVIEW_M - 1):
            scores[i] = np.clip(round(base + aspect_dev[h, i] + rng.normal(scale=0.4)), 1, 5)
        scores[REVIEW_M - 1] = np.clip(
            round(base + 0.5 * aspect_dev[h].mean() + rng.normal(scale=0.3)), 1, 5)
        for i, name in enumerate(REVIEW_ASPECTS[:-1]):
            if name in ("business", "checkin") and rng.random() < 0.55:
                scores[i] = -1.0
        records.append((u, h, scores, float(choice_probs[u, h])))
    return records


def save_review_file(path, config: ReviewDatasetConfig,
                     records: list[tuple[int, int, np.ndarray, float | None]]) -> None:
    """Write records in the format ``load_review_dataset`` reads; a record
    whose probability is None gets the 2+M-field form without one."""
    lines = [_REVIEW_HEADER, f"# n_users={config.n_users} n_items={config.n_items}"]
    for u, h, scores, prob in records:
        s = ",".join(f"{v:.17g}" for v in scores)
        lines.append(f"{u},{h},{s}" if prob is None else f"{u},{h},{s},{prob:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _reviews_to_dataset(records, n_users, n_items, min_len, window) -> ReplayDataset:
    """One session per user with at least ``min_len`` records, in order of
    each user's first record.  The state of step t holds the user id and the
    last ``window`` reviewed items with their scores (oldest in slot 0)."""
    users = np.array([rec[0] for rec in records], dtype=np.intp)
    index: dict[int, int] = {}
    session = np.array([index.setdefault(u, len(index)) for u in users.tolist()],
                       dtype=np.intp)
    counts = np.bincount(session, minlength=len(index))
    kept = counts[session] >= min_len
    order = np.flatnonzero(kept)[np.argsort(session[kept], kind="stable")]
    lengths = counts[counts >= min_len]
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    n = int(offsets[-1])
    items = np.array([records[k][1] for k in order], dtype=np.intp)
    scores = np.array([records[k][2] for k in order], dtype=np.float64).reshape(n, REVIEW_M)
    probs = np.array([np.nan if records[k][3] is None else records[k][3] for k in order],
                     dtype=np.float64)
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
    return _reviews_to_dataset(generate_reviews(config), config.n_users, config.n_items,
                               config.min_trajectory_length, config.history_window)


def load_review_dataset(path, min_trajectory_length: int = 20,
                        history_window: int = 3) -> ReplayDataset:
    """Parse a review file and assemble trajectories, dropping short ones."""
    with open(path) as fh:
        numbered = [(k, ln.rstrip("\n")) for k, ln in enumerate(fh, start=1) if ln.strip()]
    if not numbered or numbered[0][1] != _REVIEW_HEADER:
        raise ValueError(f"{path}: missing review-file header")
    if len(numbered) < 2:
        raise ValueError(f"{path}:{numbered[0][0]}: the header is not followed by "
                         "'# n_users=<int> n_items=<int>'")
    dims = _parse_dims(*numbered[1], path, ("n_users", "n_items"))
    n_users, n_items = dims["n_users"], dims["n_items"]

    records = []
    for lineno, ln in numbered[2:]:
        parts = ln.split(",")
        if len(parts) not in (2 + REVIEW_M, 3 + REVIEW_M):
            raise ValueError(f"{path}:{lineno}: got {len(parts)} fields, "
                             f"expected {2 + REVIEW_M} or {3 + REVIEW_M}")
        try:
            u, h = int(parts[0]), int(parts[1])
            scores = np.array([float(v) for v in parts[2 : 2 + REVIEW_M]])
            prob = float(parts[2 + REVIEW_M]) if len(parts) == 3 + REVIEW_M else None
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if not (0 <= u < n_users and 0 <= h < n_items):
            raise ValueError(f"{path}:{lineno}: user or item id out of range")
        if not np.isfinite(scores).all():
            raise ValueError(f"{path}:{lineno}: non-finite score")
        if prob is not None and prob != prob:
            raise ValueError(f"{path}:{lineno}: probability {parts[-1]!r} is not a number; "
                             f"an unknown probability is written as the {2 + REVIEW_M}-field "
                             "form without one")
        if prob is not None and not 0.0 < prob <= 1.0:
            raise ValueError(f"{path}:{lineno}: probability {prob} outside (0, 1]")
        records.append((u, h, scores, prob))
    return _reviews_to_dataset(records, n_users, n_items,
                               min_trajectory_length, history_window)
