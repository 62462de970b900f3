"""Two-stage constrained actor-critic with softmax policies.

Stage one trains an independent advantage actor-critic per auxiliary
response.  Stage two trains the main policy by regression toward the
closed-form optimum of "maximize main advantage subject to KL balls
around the auxiliary policies": each logged action is reweighted by

    prod_i (pi_aux_i(a|s) / pi_main(a|s)) ** (lambda_i / sum(lambda))
        * exp(A_main / sum(lambda))

with the product clipped for variance control, and one ascent step is
taken on the weighted log-likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import approximator as ap
from .core import check_discounts, td_target
from .seeding import derive_seed, rng_for
from .sim import SessionSimulator, inverse_cdf, rollout


class TrainingDiverged(RuntimeError):
    """Raised when a critic loss stays above the divergence threshold or
    turns non-finite."""


def _check_critic_loss(loss: float, response: str, iteration: int):
    if not np.isfinite(loss):
        raise TrainingDiverged(f"critic for {response} diverged at iteration {iteration}: "
                               f"loss {loss}")


@dataclass
class StochasticPolicy:
    """Softmax policy over a discrete item set.  ``response_index`` names the
    response this policy was trained to optimize (0 = main)."""

    spec: ap.ApproxSpec
    params: np.ndarray
    response_index: int = 0

    @property
    def n_items(self) -> int:
        return self.spec.output_dim

    def probs(self, features) -> np.ndarray:
        return ap.forward(self.spec, self.params, features)

    def sample(self, features, rng: np.random.Generator) -> tuple[int, float]:
        """The item ``rng.choice(n_items, p=probs)`` would draw, and its probability."""
        p = self.probs(features)
        item = int(inverse_cdf(p, rng.random()))
        return item, float(p[item])


@dataclass
class CriticV:
    spec: ap.ApproxSpec
    params: np.ndarray
    response_index: int
    gamma: float

    def value(self, features):
        out = ap.forward(self.spec, self.params, features)
        return out[..., 0] if out.ndim > 1 else float(out[0])


def make_policy(state_dim, n_items, hidden, seed, response_index=0) -> StochasticPolicy:
    spec = ap.ApproxSpec(state_dim, tuple(hidden), n_items, "softmax", seed)
    return StochasticPolicy(spec, ap.init_params(spec), response_index)


def make_critic(state_dim, hidden, seed, response_index, gamma) -> CriticV:
    spec = ap.ApproxSpec(state_dim, tuple(hidden), 1, "linear", seed)
    return CriticV(spec, ap.init_params(spec), response_index, float(gamma))


@dataclass
class PolicySet:
    """Main actor-critic pair plus one frozen-at-stage-two pair per auxiliary
    response, with the Lagrange multipliers tying them together."""

    main: tuple[StochasticPolicy, CriticV]
    auxiliaries: list[tuple[StochasticPolicy, CriticV]]
    lambdas: np.ndarray
    discounts: np.ndarray

    def __post_init__(self):
        self.lambdas = validate_lambdas(self.lambdas, len(self.auxiliaries))
        self.discounts = check_discounts(self.discounts, len(self.auxiliaries) + 1)


def validate_lambdas(lambdas, n_aux: int | None = None) -> np.ndarray:
    lam = np.asarray(lambdas, dtype=np.float64)
    if lam.ndim != 1:
        raise ValueError("lambdas must be a 1-D vector")
    if n_aux is not None and lam.size != n_aux:
        raise ValueError(f"need {n_aux} multipliers, got {lam.size}")
    if np.any(lam < 0):
        raise ValueError("Lagrange multipliers must be nonnegative")
    return lam


def build_policy_set(state_dim, n_items, m, lambdas, gammas, hidden, seed) -> PolicySet:
    main = (make_policy(state_dim, n_items, hidden, derive_seed(seed, "actor", 0), 0),
            make_critic(state_dim, hidden, derive_seed(seed, "critic", 0), 0, gammas[0]))
    aux = [(make_policy(state_dim, n_items, hidden, derive_seed(seed, "actor", i), i),
            make_critic(state_dim, hidden, derive_seed(seed, "critic", i), i, gammas[i]))
           for i in range(1, m)]
    return PolicySet(main, aux, np.asarray(lambdas, dtype=np.float64),
                     np.asarray(gammas, dtype=np.float64))


# ---------------------------------------------------------------------------
# batch plumbing
# ---------------------------------------------------------------------------

def batch_arrays(batch):
    """Stack Transitions into the (S, a_idx, R, S_next, done) tuple every
    update takes; a_idx is None when some transition has no action index."""
    if not batch:
        raise ValueError("empty batch")
    # np.array copies a list of equal-length rows 3x faster than np.stack
    s = np.array([tr.state.features for tr in batch])
    actions = [tr.action_index for tr in batch]
    a = None if None in actions else np.array(actions, dtype=np.intp)
    r = np.array([tr.response for tr in batch])
    s2 = np.array([tr.next_state.features for tr in batch])
    done = np.array([tr.done for tr in batch], dtype=bool)
    return s, a, r, s2, done


def gather(data, idx):
    """Rows ``idx`` of every array of a ``batch_arrays`` tuple (None stays None)."""
    return tuple(None if x is None else x[idx] for x in data)


def td_errors(critic: CriticV, s, r_i, s2, done):
    """TD residuals with V(s') from the critic's current (frozen) parameters."""
    v = ap.forward(critic.spec, critic.params, s)[:, 0]
    v2 = ap.forward(critic.spec, critic.params, s2)[:, 0]
    return v, td_target(r_i, critic.gamma, v2, done)


def critic_loss_grad(critic: CriticV, s, r_i, s2, done):
    """Squared Bellman error of a batch and its parameter gradient, with V(s')
    held fixed; the gradient is None when the loss is not finite."""
    v, pullback = ap.forward_pullback(critic.spec, critic.params, s)
    v2 = ap.forward(critic.spec, critic.params, s2)[:, 0]
    err = v[:, 0] - td_target(r_i, critic.gamma, v2, done)
    loss = float(np.mean(err * err))
    if not np.isfinite(loss):
        return loss, None
    return loss, pullback((2.0 * err / err.size)[:, None])[0]


def _logged_probs(policies, s, a_idx) -> np.ndarray:
    """(len(policies), batch) probabilities each policy gives the logged actions."""
    if a_idx is None:
        raise ValueError("batch lacks action indices")
    rows = np.arange(a_idx.size)
    return np.stack([ap.forward(p.spec, p.params, s)[rows, a_idx] for p in policies])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def critic_update(critic: CriticV, batch, opt: ap.OptState):
    """One step on the squared Bellman error of ``batch`` (a ``batch_arrays``
    tuple) with V(s') from the pre-update parameters.  A non-finite loss
    skips the step and is reported to the caller via the returned loss."""
    s, _, r, s2, done = batch
    loss, grads = critic_loss_grad(critic, s, r[:, critic.response_index], s2, done)
    if grads is None:
        return critic, opt, loss
    new_params, opt = ap.optimizer_step(critic.params, grads, opt, "minimize")
    return replace(critic, params=new_params), opt, loss


def _policy_loglik_grad(policy: StochasticPolicy, s, a_idx, weights):
    """Gradient of mean_b weights_b * log pi(a_b | s_b) wrt policy params."""
    p, pullback = ap.forward_pullback(policy.spec, policy.params, s)
    chosen = p[np.arange(a_idx.size), a_idx]
    upstream = np.zeros_like(p)
    upstream[np.arange(a_idx.size), a_idx] = weights / (a_idx.size * chosen)
    return pullback(upstream)[0], chosen


def loglik_ascent(policy: StochasticPolicy, s, a_idx, w, opt: ap.OptState):
    """One Adam ascent step on mean_b w_b * log pi(a_b | s_b), the actor step
    of every weighted log-likelihood update.  Rows with a non-finite weight
    are dropped first.  Returns the new policy, the optimizer state, the
    objective and the mean kept weight (both nan when no row is left)."""
    if a_idx is None:
        raise ValueError("batch lacks action indices")
    keep = np.isfinite(w)
    if not np.all(keep):
        s, a_idx, w = gather((s, a_idx, w), keep)
    if a_idx.size == 0:
        return policy, opt, float("nan"), float("nan")
    grads, chosen = _policy_loglik_grad(policy, s, a_idx, w)
    new_params, opt = ap.optimizer_step(policy.params, grads, opt, "maximize")
    return (replace(policy, params=new_params), opt,
            float(np.mean(w * np.log(chosen))), float(w.mean()))


def actor_update_aux(policy: StochasticPolicy, critic: CriticV, batch, opt: ap.OptState):
    """Ascent on mean(A_i * log pi(a|s)) over ``batch``, a ``batch_arrays``
    tuple; the advantage comes from the current critic and is treated as a
    constant."""
    s, a_idx, r, s2, done = batch
    v, target = td_errors(critic, s, r[:, critic.response_index], s2, done)
    policy, opt, objective, mean_adv = loglik_ascent(policy, s, a_idx, target - v, opt)
    return policy, opt, {"objective": objective, "mean_adv": mean_adv}


def constrained_weights_batch(aux_probs, cur_probs, lambdas, advantages,
                              clip_max, floor=0.0) -> np.ndarray:
    """Closed-form reweighting factor of each logged action in a batch:

        min(clip_max, prod_i (aux_i / cur) ** (lambda_i / sum(lambda))
                        * exp(advantage / sum(lambda)))

    aux_probs has shape (n_aux, batch).  Requires sum(lambda) > 0 and
    positive probabilities; with lambda_i = 0 the factor is independent of
    auxiliary i.  Computed in log space; always strictly positive.
    ``floor`` optionally raises tiny weights to a positive constant
    (variance control; 0 disables it)."""
    lam = validate_lambdas(lambdas, aux_probs.shape[0])
    total = lam.sum()
    if total <= 0.0:
        raise ValueError("sum of Lagrange multipliers must be positive; "
                         "use the unconstrained update when all are zero")
    if np.any(cur_probs <= 0.0) or np.any(aux_probs <= 0.0):
        raise ValueError("probabilities must be positive")
    log_w = (lam / total) @ (np.log(aux_probs) - np.log(cur_probs)[None, :])
    log_w = log_w + advantages / total
    # past 700 exp would overflow; the clip binds anyway
    w = np.minimum(np.exp(np.minimum(log_w, 700.0)), clip_max)
    if floor > 0.0:
        w = np.maximum(w, floor)
    return w


def actor_update_main(policy_set: PolicySet, batch, opt: ap.OptState,
                      clip_max: float = 20.0, weight_floor: float = 0.0,
                      behavior_prob=None):
    """One constrained ascent step for the main policy over ``batch`` (a
    ``batch_arrays`` tuple), the actor step of both stage-two updates.

    The ratio's denominator is the current main probability, or the logged
    ``behavior_prob`` of each row (the debiased offline update).  Rows with a
    non-finite advantage are dropped first.  Auxiliaries, the critic and the
    denominator are constants."""
    policy, critic = policy_set.main
    s, a_idx, r, s2, done = batch
    v, target = td_errors(critic, s, r[:, 0], s2, done)
    adv = target - v
    keep = np.isfinite(adv)
    if not np.all(keep):
        s, a_idx, adv, behavior_prob = gather((s, a_idx, adv, behavior_prob), keep)
    aux = [p for p, _ in policy_set.auxiliaries]
    if behavior_prob is None:
        p = _logged_probs([policy] + aux, s, a_idx)
        cur, aux_p = p[0], p[1:]
    else:
        cur, aux_p = behavior_prob, _logged_probs(aux, s, a_idx)
    w = constrained_weights_batch(aux_p, cur, policy_set.lambdas, adv, clip_max, weight_floor)
    policy, opt, objective, mean_weight = loglik_ascent(policy, s, a_idx, w, opt)
    return policy, opt, {"objective": objective, "mean_weight": mean_weight}


def policy_kl(p_policy: StochasticPolicy, q_policy: StochasticPolicy, states) -> float:
    """Mean over states of KL(p || q), computed exactly per state."""
    p = ap.forward(p_policy.spec, p_policy.params, states)
    q = ap.forward(q_policy.spec, q_policy.params, states)
    return float(np.mean(np.sum(p * (np.log(p) - np.log(q)), axis=1)))


# ---------------------------------------------------------------------------
# the two-stage loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoStageConfig:
    stage1_iters: int = 300
    stage2_iters: int = 300
    episodes_per_iter: int = 8
    critic_steps: int = 2
    actor_lr: float = 5e-3
    critic_lr: float = 1e-2
    hidden: tuple[int, ...] = (32,)
    clip_max: float = 20.0
    weight_floor: float = 0.05
    divergence_threshold: float = 1e6
    divergence_patience: int = 20


def collect_batch(sim: SessionSimulator, policy: StochasticPolicy,
                  rng: np.random.Generator, n_episodes: int,
                  episode_seeds) -> tuple[tuple, np.ndarray]:
    """Fresh on-policy episodes, rolled in lockstep; returns their
    ``batch_arrays`` tuple (views of the rollout's columns) plus the mean
    over episodes of the cumulative reward vectors.

    RNG contract (``sim.rollout``): each episode draws from its own stream,
    and ``rng`` serves the actions in episode order, so the result is
    bit-identical to running the episodes one after another with
    ``policy.sample(features, rng)``."""
    data = rollout(sim, lambda f: ap.forward_rows(policy.spec, policy.params, f), rng,
                   [episode_seeds[e] for e in range(n_episodes)])
    totals = np.zeros((n_episodes, sim.config.m))
    for e, (lo, hi) in enumerate(zip(data.offsets[:-1], data.offsets[1:])):
        totals[e] = data.responses[lo:hi].sum(axis=0)
    return data.arrays(), totals.mean(axis=0)


class _DivergenceWatch:
    def __init__(self, threshold, patience):
        self.threshold, self.patience, self.run = threshold, patience, 0

    def check(self, loss, where):
        self.run = self.run + 1 if (not np.isfinite(loss) or loss > self.threshold) else 0
        if self.run >= self.patience:
            raise TrainingDiverged(
                f"critic loss above {self.threshold} for {self.run} consecutive "
                f"iterations during {where} (last loss {loss})")


def train_stage_one(sim: SessionSimulator, response_index: int, gamma: float,
                    cfg: TwoStageConfig, master_seed: int,
                    metrics: list | None = None):
    """Advantage actor-critic for one auxiliary response.  Returns the trained
    (policy, critic) pair."""
    c = sim.config
    policy = make_policy(c.state_dim, c.n_items, cfg.hidden,
                         derive_seed(master_seed, "s1-actor", response_index), response_index)
    critic = make_critic(c.state_dim, cfg.hidden,
                         derive_seed(master_seed, "s1-critic", response_index),
                         response_index, gamma)
    a_opt = ap.init_opt_state(policy.params.size, cfg.actor_lr)
    c_opt = ap.init_opt_state(critic.params.size, cfg.critic_lr)
    rng = rng_for(master_seed, "s1-actions", response_index)
    watch = _DivergenceWatch(cfg.divergence_threshold, cfg.divergence_patience)

    for it in range(cfg.stage1_iters):
        seeds = [derive_seed(master_seed, "s1-ep", response_index, it, e)
                 for e in range(cfg.episodes_per_iter)]
        batch, mean_rewards = collect_batch(sim, policy, rng, cfg.episodes_per_iter, seeds)
        loss = float("nan")
        for _ in range(cfg.critic_steps):
            critic, c_opt, loss = critic_update(critic, batch, c_opt)
        watch.check(loss, f"stage one (response {response_index})")
        policy, a_opt, info = actor_update_aux(policy, critic, batch, a_opt)
        if metrics is not None:
            row = {"iteration": it, "stage": 1, "response": response_index,
                   "critic_loss": loss, "actor_objective": info["objective"],
                   "mean_weight": ""}
            for i in range(c.m):
                row[f"reward_{i}"] = mean_rewards[i]
            metrics.append(row)
    return policy, critic


def train_two_stage(sim: SessionSimulator, lambdas, gammas, cfg: TwoStageConfig,
                    master_seed: int, pretrained_aux=None,
                    metrics: list | None = None) -> PolicySet:
    """Full two-stage run on a simulator.

    Stage one fits one actor-critic pair per auxiliary response (skipped if
    ``pretrained_aux`` supplies them, e.g. when sweeping multipliers that
    only affect stage two).  Stage two trains the main pair with auxiliaries
    frozen, logging per-iteration rewards, losses, mean constrained weight,
    and the KL from the main policy to each auxiliary.
    """
    c = sim.config
    gammas = check_discounts(gammas, c.m)
    lam = validate_lambdas(lambdas, c.m - 1)

    if pretrained_aux is None:
        aux_pairs = [train_stage_one(sim, i, gammas[i], cfg, master_seed, metrics)
                     for i in range(1, c.m)]
    else:
        if len(pretrained_aux) != c.m - 1:
            raise ValueError("pretrained_aux must supply one pair per auxiliary response")
        aux_pairs = list(pretrained_aux)

    policy = make_policy(c.state_dim, c.n_items, cfg.hidden,
                         derive_seed(master_seed, "s2-actor"), 0)
    critic = make_critic(c.state_dim, cfg.hidden, derive_seed(master_seed, "s2-critic"),
                         0, gammas[0])
    pset = PolicySet((policy, critic), aux_pairs, lam, gammas)
    a_opt = ap.init_opt_state(policy.params.size, cfg.actor_lr)
    c_opt = ap.init_opt_state(critic.params.size, cfg.critic_lr)
    rng = rng_for(master_seed, "s2-actions")
    watch = _DivergenceWatch(cfg.divergence_threshold, cfg.divergence_patience)

    for it in range(cfg.stage2_iters):
        seeds = [derive_seed(master_seed, "s2-ep", it, e)
                 for e in range(cfg.episodes_per_iter)]
        batch, mean_rewards = collect_batch(sim, pset.main[0], rng,
                                            cfg.episodes_per_iter, seeds)
        loss = float("nan")
        for _ in range(cfg.critic_steps):
            critic, c_opt, loss = critic_update(pset.main[1], batch, c_opt)
            pset.main = (pset.main[0], critic)
        watch.check(loss, "stage two")
        policy, a_opt, info = actor_update_main(pset, batch, a_opt,
                                                cfg.clip_max, cfg.weight_floor)
        pset.main = (policy, pset.main[1])
        if metrics is not None:
            row = {"iteration": it, "stage": 2, "response": 0,
                   "critic_loss": loss, "actor_objective": info["objective"],
                   "mean_weight": info["mean_weight"]}
            for i in range(c.m):
                row[f"reward_{i}"] = mean_rewards[i]
            for j, (aux_p, _) in enumerate(pset.auxiliaries, start=1):
                row[f"kl_aux_{j}"] = policy_kl(policy, aux_p, batch[0])
            metrics.append(row)
    return pset
