"""Debiased offline policy learning and off-policy evaluation.

Offline actor updates correct the distribution mismatch between the logged
behavior policy and the policy being optimized with importance ratios:
either the full trajectory product (unbiased, high variance) or its
single-step first-order approximation.  Policies are scored on logged data
with normalized capped importance sampling (NCIS): per response,
sum(w * r) / sum(w) with w = min(pi(a|s) / pi_beta(a|s), cap).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import approximator as ap
from .core import (ReplayDataset, Trajectory, check_config, check_discounts,
                   discounted_returns)
from .seeding import derive_seed
from .stochastic import (CriticV, PolicySet, StochasticPolicy, _check_critic_loss,
                         actor_update_main, critic_loss_grad, gather, loglik_ascent,
                         make_critic, td_errors)
from .stochastic import constrained_weights_batch  # noqa: F401  (bench/tracer.py wraps it)


@dataclass(frozen=True)
class ISConfig:
    mode: str = "first_order"
    ratio_clip: float = 10.0
    min_behavior_prob: float = 1e-6

    def __post_init__(self):
        check_config(self, rules=(
            (f"unknown importance-sampling mode {self.mode!r}",
             self.mode in ("first_order", "full_product")),
            ("ratio_clip must be >= 1", self.ratio_clip >= 1.0),
            ("min_behavior_prob must lie in (0, 1]", 0.0 < self.min_behavior_prob <= 1.0)))


@dataclass(frozen=True)
class NCISConfig:
    cap: float = 10.0

    def __post_init__(self):
        check_config(self, positive=("cap",))


def _check_behavior_prob(p: float, cfg: ISConfig) -> None:
    """A logged probability (nan when unknown) that debiased learning may use."""
    if p != p:
        raise ValueError("transition is missing behavior_prob; debiased learning "
                         "requires logged action probabilities")
    if p < cfg.min_behavior_prob:
        raise ValueError(f"behavior_prob {p} below the {cfg.min_behavior_prob} floor")


def full_trajectory_ratio(traj: Trajectory, t: int, policy: StochasticPolicy,
                          cfg: ISConfig) -> float:
    """Product of per-step pi(a|s)/pi_beta(a|s) over steps 0..t, clipped."""
    return float(_ratios([(traj, t)], policy, replace(cfg, mode="full_product"))[0])


def _locate(batch_refs):
    """The dataset holding the sessions of ``batch_refs`` (Trajectory, t),
    and per ref its session's first row, its session's length and t.  Every
    ref must be a session of one dataset."""
    if not batch_refs:
        raise ValueError("empty batch")
    store = batch_refs[0][0]._store
    if any(traj._store is not store for traj, _ in batch_refs):
        raise ValueError("batch refs span several datasets; build one dataset of their "
                         "sessions' columns and take the refs from its trajectories")
    lo = np.array([traj._lo for traj, _ in batch_refs], dtype=np.intp)
    n = np.array([traj._hi for traj, _ in batch_refs], dtype=np.intp) - lo
    return store, lo, n, np.array([t for _, t in batch_refs], dtype=np.intp)


def _raise_first_bad_ref(store, lo, n, ts, full: bool, cfg: ISConfig):
    """Raise the ValueError of the first bad ref in batch order: t out of
    range, or a row its ratio reads whose behavior_prob is missing or below
    the floor."""
    for lo_k, n_k, t in zip(lo.tolist(), n.tolist(), ts.tolist()):
        if not (0 <= t < n_k):
            raise ValueError(f"step {t} outside trajectory of length {n_k}")
        for p in store.behavior_prob[lo_k if full else lo_k + t: lo_k + t + 1].tolist():
            _check_behavior_prob(p, cfg)


def _ref_rows(batch_refs, cfg: ISConfig):
    """The rows the importance ratios of ``batch_refs`` read, checked.

    Returns the store, the rows, each ref's position ``at`` in them (so
    ``rows[at]`` are the refs' own rows), and for full_product the segment
    bounds of each distinct session's prefix, steps 0 up to the largest t
    asked of it (None for first_order, which reads step t alone)."""
    store, lo, n, ts = _locate(batch_refs)
    # clipped into range so every ref can be gathered; bad refs are named below
    step = np.clip(ts, 0, n - 1)
    full = cfg.mode == "full_product"
    if full:
        heads, seg = np.unique(lo, return_inverse=True)
        upto = np.zeros(heads.size, dtype=np.intp)
        np.maximum.at(upto, seg, step)
        starts = np.concatenate([[0], np.cumsum(upto + 1)])
        rows = np.repeat(heads - starts[:-1], upto + 1) + np.arange(starts[-1])
        at = starts[seg] + step
    else:
        starts = None
        rows = lo + step
        at = np.arange(rows.size)
    bp = store.behavior_prob[rows]
    if np.any(step != ts) or np.any(np.isnan(bp) | (bp < cfg.min_behavior_prob)):
        _raise_first_bad_ref(store, lo, n, ts, full, cfg)
    return store, rows, at, starts


def _ratios_at(policy: StochasticPolicy, cfg: ISConfig, store, rows, at, starts):
    a = store.action_index[rows]
    if np.any(a < 0):
        raise ValueError("batch lacks action indices")
    p = ap.forward_rows(policy.spec, policy.params, store.states[rows])
    ratio = p[np.arange(a.size), a] / store.behavior_prob[rows]
    if starts is not None:
        with np.errstate(over="ignore"):  # an overflowed product is clipped below
            for lo, hi in zip(starts[:-1], starts[1:]):
                ratio[lo:hi] = np.multiply.accumulate(ratio[lo:hi])
    return np.minimum(ratio[at], cfg.ratio_clip)


def _ratios(batch_refs, policy: StochasticPolicy, cfg: ISConfig) -> np.ndarray:
    """Clipped importance ratios of (Trajectory, t) refs from one net pass.

    first_order evaluates each ref's step t.  full_product evaluates each
    distinct session's prefix once, up to the largest t asked of it, and
    takes every ref's product from a left-to-right ``multiply.accumulate``
    over that prefix: the same multiplications, in the same order, as a
    scalar ``prod *= p / bp`` loop, so the ratios equal that loop's bit for
    bit (a cumulative sum of log-ratios would not).  ``forward_rows`` keeps
    each probability equal to a one-row ``forward``.
    """
    return _ratios_at(policy, cfg, *_ref_rows(batch_refs, cfg))


def offline_actor_update_aux(policy: StochasticPolicy, critic: CriticV, batch_refs,
                             is_cfg: ISConfig, opt: ap.OptState):
    """Ascent on mean(ratio * A_i * log pi(a|s)).  With behavior equal to the
    current policy the ratios are exactly 1 and this reproduces the online
    update bit for bit."""
    store, rows, at, starts = _ref_rows(batch_refs, is_cfg)
    ratios = _ratios_at(policy, is_cfg, store, rows, at, starts)
    s, a_idx, r, s2, done = store.arrays(rows[at])
    v, target = td_errors(critic, s, r[:, critic.response_index], s2, done)
    policy, opt, objective, _ = loglik_ascent(policy, s, a_idx, ratios * (target - v), opt)
    return policy, opt, {"objective": objective, "mean_ratio": float(ratios.mean())}


def offline_actor_update_main(policy_set: PolicySet, batch_refs, is_cfg: ISConfig,
                              opt: ap.OptState, clip_max: float = 20.0,
                              weight_floor: float = 0.0):
    """Debiased constrained update: the logged behavior probability replaces
    the current-policy probability in the ratio product,

        prod_i (pi_aux_i(a|s) / pi_beta(a|s)) ** (lambda_i/sum) * exp(A_0/sum).

    Rows with a non-finite advantage are dropped first, as online."""
    store, rows, _, _ = _ref_rows(batch_refs, replace(is_cfg, mode="first_order"))
    return actor_update_main(policy_set, store.arrays(rows), opt, clip_max, weight_floor,
                             behavior_prob=store.behavior_prob[rows])


# ---------------------------------------------------------------------------
# multi-critic training on a shared offline dataset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiCriticConfig:
    iters: int = 3000
    batch_size: int = 64
    lr: float = 5e-3
    hidden: tuple[int, ...] = (32,)
    share_bottom: bool = False

    def __post_init__(self):
        check_config(self, iterations=("iters",), counts=("batch_size",), positive=("lr",))


def multi_critic_train(dataset: ReplayDataset, gammas, mode: str,
                       cfg: MultiCriticConfig, master_seed: int,
                       shared_gamma: float = 0.95):
    """Train critics on one shared offline dataset.

    mode="separate": one critic per response, each on its own reward and
    discount; zeroing response j's rewards provably touches only critic j
    (unless share_bottom couples their first layers).
    mode="single_summed": one critic on sum_i r_i with one shared discount.
    Returns a list of critics (length m, or 1 for single_summed).  The
    critics step as one bank on each shared minibatch.  A non-finite critic
    loss raises TrainingDiverged naming the response and the iteration (the
    lowest response when several diverge at once).
    """
    if mode not in ("separate", "single_summed"):
        raise ValueError(f"unknown mode {mode!r}")
    if not dataset.n_transitions:
        raise ValueError("dataset has no transitions")
    data = dataset.arrays()
    state_dim = data[0].shape[1]
    rng = np.random.Generator(np.random.PCG64(derive_seed(master_seed, "mc-batches")))

    if mode == "single_summed":
        check_discounts([shared_gamma], 1)
        critics = [make_critic(state_dim, cfg.hidden, derive_seed(master_seed, "mc", 0),
                               -1, shared_gamma)]
        names = ["the summed response"]
    else:
        gammas = check_discounts(gammas, dataset.m)
        critics = [make_critic(state_dim, cfg.hidden, derive_seed(master_seed, "mc", i),
                               i, gammas[i])
                   for i in range(dataset.m)]
        names = [f"response {i}" for i in range(dataset.m)]
    bank = ap.bank(critics, gamma=np.array([[c.gamma] for c in critics]))
    opt = ap.init_opt_state(bank.params.shape, cfg.lr)
    # share_bottom: every critic starts from critic 0's first layer and steps
    # it on the gradient summed over critics; Adam is elementwise, so the
    # copies stay equal bit for bit
    fl = ap.first_layer_size(bank.spec) if cfg.share_bottom else 0
    bank.params[1:, :fl] = bank.params[0, :fl]

    for it in range(cfg.iters):
        s, _, r, s2, done = gather(data, rng.integers(len(data[0]), size=cfg.batch_size))
        # one reward row per critic
        r = r.sum(axis=1)[None, :] if mode == "single_summed" else r.T
        losses, grads = critic_loss_grad(bank, s, r, s2, done)
        for name, loss in zip(names, losses):
            _check_critic_loss(loss, name, it)
        if fl:
            grads[:, :fl] = sum(grads[:, :fl], np.zeros(fl))  # left to right, from zeros
        params, opt = ap.optimizer_step(bank.params, grads, opt, "minimize")
        bank = replace(bank, params=params)
    return [replace(c, params=bank.params[i]) for i, c in enumerate(critics)]


def pearson(x, y) -> float | None:
    """Pearson correlation; None when either side has zero variance."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sx, sy = x.std(), y.std()
    if sx == 0.0 or sy == 0.0:
        return None
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))


def critic_return_correlation(critics, dataset: ReplayDataset, discounts,
                              responses=None) -> dict[int, float | None]:
    """Pearson correlation between predicted state values and realized
    Monte Carlo discounted returns, per response.

    ``critics`` is either a list with one critic per response (separate
    mode) or a single critic whose predictions are compared against every
    requested response's return (single_summed mode).  Zero-variance
    predictions yield None, not 0.
    """
    gammas = check_discounts(discounts, dataset.m)
    responses = list(range(dataset.m)) if responses is None else list(responses)
    s = dataset.states
    ret = discounted_returns(dataset, gammas)

    single = isinstance(critics, CriticV)
    out = {}
    for i in responses:
        critic = critics if single else critics[i]
        pred = ap.forward(critic.spec, critic.params, s)[:, 0]
        out[i] = pearson(pred, ret[:, i])
    return out


def summed_value_correlation(critics, dataset: ReplayDataset, discounts) -> float | None:
    """Correlation of the summed separate-critic prediction (V_sep = sum_i V_i)
    with the Monte Carlo return of the summed reward."""
    gammas = check_discounts(discounts, dataset.m)
    s = dataset.states
    mc = discounted_returns(dataset, gammas).sum(axis=1)
    pred = np.zeros(s.shape[0])
    for critic in critics:
        pred += ap.forward(critic.spec, critic.params, s)[:, 0]
    return pearson(pred, mc)


# ---------------------------------------------------------------------------
# NCIS evaluation
# ---------------------------------------------------------------------------

def ncis_from_weights(weights, rewards) -> np.ndarray:
    """sum(w * r) / sum(w) per response column; invariant to rescaling w.
    The weights must be finite and nonnegative, with a positive sum."""
    weights = np.asarray(weights, dtype=np.float64)
    rewards = np.atleast_2d(np.asarray(rewards, dtype=np.float64))
    if not np.all((weights >= 0.0) & (weights < np.inf)):  # NaN fails too
        raise ValueError("weights must be finite and nonnegative")
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("weights must have positive sum")
    return weights @ rewards / total


def ncis_evaluate(prob_fn, dataset: ReplayDataset, cfg: NCISConfig) -> dict:
    """Normalized capped importance sampling over all logged transitions.

    Each row is one sample, weighted by its one-step ratio
    min(pi(a|s) / pi_beta(a|s), cap), so the scores estimate the per-step
    mean reward under the evaluated policy's action choice at the logged
    states, not a session return: no ratio product over a session's earlier
    steps and no discounting.

    prob_fn(states) -> (batch, n_actions) action probabilities of the policy
    under evaluation; behavior probabilities come from the log.  Returns
    per-response scores plus weight diagnostics (mean, max, effective
    sample size).
    """
    if not dataset.n_transitions:
        raise ValueError("cannot evaluate on an empty dataset")
    s, a, r, _, _ = dataset.arrays()
    if a is None:
        raise ValueError("dataset lacks action indices")
    p = np.asarray(prob_fn(s), dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != a.size or p.shape[1] <= a.max(initial=0):
        raise ValueError(f"prob_fn returned shape {p.shape}, expected ({a.size}, n_items) "
                         f"with n_items > {a.max(initial=0)}")
    bad = ~(np.isfinite(p) & (p >= 0.0)).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"{dataset.where(row)}prob_fn returned {p[row].tolist()} at "
                         f"row {row}; probabilities must be finite and nonnegative")
    p = p[np.arange(a.size), a]
    bp = dataset.behavior_prob
    if np.any(np.isnan(bp)):
        raise ValueError("dataset lacks behavior probabilities")
    if np.any(bp <= 0.0):
        raise ValueError("behavior probabilities must be positive")
    w = np.minimum(p / bp, cfg.cap)
    scores = ncis_from_weights(w, r)
    return {
        "scores": {i: float(scores[i]) for i in range(dataset.m)},
        "mean_weight": float(w.mean()),
        "max_weight": float(w.max()),
        "ess": float(w.sum() ** 2 / np.sum(w * w)),
        "n": int(w.size),
    }
