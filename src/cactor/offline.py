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
from .core import ReplayDataset, Trajectory, check_discounts, discounted_returns
from .seeding import derive_seed
from .stochastic import (CriticV, PolicySet, StochasticPolicy, _check_critic_loss,
                         _logged_probs, batch_arrays, constrained_weights_batch,
                         critic_loss_grad, gather, loglik_ascent, make_critic, td_errors)


@dataclass(frozen=True)
class ISConfig:
    mode: str = "first_order"
    ratio_clip: float = 10.0
    min_behavior_prob: float = 1e-6

    def __post_init__(self):
        if self.mode not in ("first_order", "full_product"):
            raise ValueError(f"unknown importance-sampling mode {self.mode!r}")
        if self.ratio_clip < 1.0:
            raise ValueError("ratio_clip must be >= 1")
        if not (0.0 < self.min_behavior_prob <= 1.0):
            raise ValueError("min_behavior_prob must lie in (0, 1]")


@dataclass(frozen=True)
class NCISConfig:
    cap: float = 10.0

    def __post_init__(self):
        if self.cap <= 0.0:
            raise ValueError("cap must be positive")


def _behavior_prob(tr, cfg: ISConfig) -> float:
    if tr.behavior_prob is None:
        raise ValueError("transition is missing behavior_prob; debiased learning "
                         "requires logged action probabilities")
    if tr.behavior_prob < cfg.min_behavior_prob:
        raise ValueError(f"behavior_prob {tr.behavior_prob} below the "
                         f"{cfg.min_behavior_prob} floor")
    return tr.behavior_prob


def full_trajectory_ratio(traj: Trajectory, t: int, policy: StochasticPolicy,
                          cfg: ISConfig) -> float:
    """Product of per-step pi(a|s)/pi_beta(a|s) over steps 0..t, clipped."""
    return float(_ratios([(traj, t)], policy, replace(cfg, mode="full_product"))[0])


def first_order_ratio(transition, policy: StochasticPolicy, cfg: ISConfig) -> float:
    """Single-step pi(a|s)/pi_beta(a|s), clipped."""
    return float(_ratios([(Trajectory([transition]), 0)], policy, cfg)[0])


def _raise_first_bad_ref(batch_refs, cfg: ISConfig):
    """Raise the ValueError of the first bad (traj, t) in batch order: t out
    of range, or a step whose behavior_prob is missing or below the floor."""
    for traj, t in batch_refs:
        if not (0 <= t < len(traj)):
            raise ValueError(f"step {t} outside trajectory of length {len(traj)}")
        lo = 0 if cfg.mode == "full_product" else t
        for tr in traj.transitions[lo: t + 1]:
            _behavior_prob(tr, cfg)


def _ratios(batch_refs, policy: StochasticPolicy, cfg: ISConfig) -> np.ndarray:
    """Clipped importance ratios of (Trajectory, t) refs from one net pass.

    first_order evaluates each ref's step t.  full_product evaluates each
    distinct trajectory's prefix once, up to the largest t asked of it, and
    takes every ref's product from a left-to-right ``multiply.accumulate``
    over that prefix: the same multiplications, in the same order, as a
    scalar ``prod *= p / bp`` loop, so the ratios equal that loop's bit for
    bit (a cumulative sum of log-ratios would not).  ``forward_rows`` keeps
    each probability equal to a one-row ``forward``.
    """
    if not batch_refs:
        raise ValueError("empty batch")
    ts = np.array([t for _, t in batch_refs], dtype=np.intp)
    # clipped into range so every ref can be gathered; bad refs are named below
    step = np.clip(ts, 0, np.array([len(traj) for traj, _ in batch_refs]) - 1)
    full = cfg.mode == "full_product"
    if full:
        seg_of: dict[int, int] = {}
        seg = np.array([seg_of.setdefault(id(traj), len(seg_of)) for traj, _ in batch_refs])
        heads = np.unique(seg, return_index=True)[1]  # each segment's first ref
        upto = np.zeros(heads.size, dtype=np.intp)
        np.maximum.at(upto, seg, step)
        starts = np.concatenate([[0], np.cumsum(upto + 1)])
        rows = [tr for k, u in zip(heads, upto) for tr in batch_refs[k][0].transitions[: u + 1]]
        at = starts[seg] + step
    else:
        rows = [traj.transitions[k] for (traj, _), k in zip(batch_refs, step)]
        at = np.arange(len(rows))
    bp = np.array([tr.behavior_prob for tr in rows], dtype=np.float64)  # None -> nan
    if np.any(step != ts) or np.any(np.isnan(bp) | (bp < cfg.min_behavior_prob)):
        _raise_first_bad_ref(batch_refs, cfg)
    x = np.array([tr.state.features for tr in rows])
    a = np.array([tr.action_index for tr in rows], dtype=np.intp)
    ratio = ap.forward_rows(policy.spec, policy.params, x)[np.arange(a.size), a] / bp
    if full:
        with np.errstate(over="ignore"):  # an overflowed product is clipped below
            for lo, hi in zip(starts[:-1], starts[1:]):
                ratio[lo:hi] = np.multiply.accumulate(ratio[lo:hi])
    return np.minimum(ratio[at], cfg.ratio_clip)


def offline_actor_update_aux(policy: StochasticPolicy, critic: CriticV, batch_refs,
                             is_cfg: ISConfig, opt: ap.OptState):
    """Ascent on mean(ratio * A_i * log pi(a|s)).  With behavior equal to the
    current policy the ratios are exactly 1 and this reproduces the online
    update bit for bit."""
    ratios = _ratios(batch_refs, policy, is_cfg)
    s, a_idx, r, s2, done = batch_arrays([traj.transitions[t] for traj, t in batch_refs])
    v, target = td_errors(critic, s, r[:, critic.response_index], s2, done)
    policy, opt, objective, _ = loglik_ascent(policy, s, a_idx, ratios * (target - v), opt)
    return policy, opt, {"objective": objective, "mean_ratio": float(ratios.mean())}


def offline_actor_update_main(policy_set: PolicySet, batch_refs, is_cfg: ISConfig,
                              opt: ap.OptState, clip_max: float = 20.0,
                              weight_floor: float = 0.0):
    """Debiased constrained update: the logged behavior probability replaces
    the current-policy probability in the ratio product,

        prod_i (pi_aux_i(a|s) / pi_beta(a|s)) ** (lambda_i/sum) * exp(A_0/sum).
    """
    policy, critic = policy_set.main
    trs = [traj.transitions[t] for traj, t in batch_refs]
    s, a_idx, r, s2, done = batch_arrays(trs)
    v, target = td_errors(critic, s, r[:, 0], s2, done)
    bp = np.array([_behavior_prob(tr, is_cfg) for tr in trs])
    aux = _logged_probs([p for p, _ in policy_set.auxiliaries], s, a_idx)
    w = constrained_weights_batch(aux, bp, policy_set.lambdas, target - v,
                                  clip_max, weight_floor)
    policy, opt, objective, mean_weight = loglik_ascent(policy, s, a_idx, w, opt)
    return policy, opt, {"objective": objective, "mean_weight": mean_weight}


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


def multi_critic_train(dataset: ReplayDataset, gammas, mode: str,
                       cfg: MultiCriticConfig, master_seed: int,
                       shared_gamma: float = 0.95):
    """Train critics on one shared offline dataset.

    mode="separate": one critic per response, each on its own reward and
    discount; zeroing response j's rewards provably touches only critic j
    (unless share_bottom couples their first layers).
    mode="single_summed": one critic on sum_i r_i with one shared discount.
    Returns a list of critics (length m, or 1 for single_summed).  A
    non-finite critic loss raises TrainingDiverged naming the response and
    the iteration.
    """
    if mode not in ("separate", "single_summed"):
        raise ValueError(f"unknown mode {mode!r}")
    transitions = dataset.all_transitions()
    if not transitions:
        raise ValueError("dataset has no transitions")
    data = batch_arrays(transitions)
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
    opts = [ap.init_opt_state(c.params.size, cfg.lr) for c in critics]
    # share_bottom: every critic starts from critic 0's first layer and steps
    # it on the gradient summed over critics; Adam is elementwise, so the
    # copies stay equal bit for bit
    fl = ap.first_layer_size(critics[0].spec) if cfg.share_bottom else 0
    for c in critics[1:]:
        c.params[:fl] = critics[0].params[:fl]

    for it in range(cfg.iters):
        s, _, r, s2, done = gather(data, rng.integers(len(transitions), size=cfg.batch_size))
        if mode == "single_summed":
            r = r.sum(axis=1)[:, None]
        grads = []
        for i, critic in enumerate(critics):
            loss, g = critic_loss_grad(critic, s, r[:, i], s2, done)
            _check_critic_loss(loss, names[i], it)
            grads.append(g)
        shared = sum((g[:fl] for g in grads), np.zeros(fl))
        for i, (critic, g) in enumerate(zip(critics, grads)):
            g[:fl] = shared
            params, opts[i] = ap.optimizer_step(critic.params, g, opts[i], "minimize")
            critics[i] = replace(critic, params=params)
    return critics


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
    s = batch_arrays(dataset.all_transitions())[0]
    ret = np.vstack([discounted_returns(traj, gammas) for traj in dataset.trajectories])

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
    s = batch_arrays(dataset.all_transitions())[0]
    mc = np.concatenate([discounted_returns(traj, gammas).sum(axis=1)
                         for traj in dataset.trajectories])
    pred = np.zeros(s.shape[0])
    for critic in critics:
        pred += ap.forward(critic.spec, critic.params, s)[:, 0]
    return pearson(pred, mc)


# ---------------------------------------------------------------------------
# NCIS evaluation
# ---------------------------------------------------------------------------

def ncis_from_weights(weights, rewards) -> np.ndarray:
    """sum(w * r) / sum(w) per response column; invariant to rescaling w."""
    weights = np.asarray(weights, dtype=np.float64)
    rewards = np.atleast_2d(np.asarray(rewards, dtype=np.float64))
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("weights must have positive sum")
    return weights @ rewards / total


def ncis_evaluate(prob_fn, dataset: ReplayDataset, cfg: NCISConfig) -> dict:
    """Normalized capped importance sampling over all logged transitions.

    prob_fn(states) -> (batch, n_actions) action probabilities of the policy
    under evaluation; behavior probabilities come from the log.  Returns
    per-response scores plus weight diagnostics (mean, max, effective
    sample size).
    """
    transitions = dataset.all_transitions()
    if not transitions:
        raise ValueError("cannot evaluate on an empty dataset")
    s, a, r, _, _ = batch_arrays(transitions)
    if a is None:
        raise ValueError("dataset lacks action indices")
    p = np.asarray(prob_fn(s))[np.arange(a.size), a]
    if any(tr.behavior_prob is None for tr in transitions):
        raise ValueError("dataset lacks behavior probabilities")
    bp = np.array([tr.behavior_prob for tr in transitions])
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
