"""Deterministic-policy trainers for the offline setting.

Contains a DDPG-style learner with weighted-sum reward, an RCPO-style
multi-critic learner (actor ascends a multiplier-weighted sum of critics),
the softly constrained variant (stage-one auxiliary actors pull the main
actor through a closeness kernel h), and a behavior-cloning baseline.

Actors emit action embeddings in (-1, 1)^d through a tanh head; embeddings
map to items with core.rank_items against a per-pipeline item-embedding
table that is learned jointly with the critics.  The closeness kernel is
h(a, b) = exp(-||a - b||^2 / 2), so h(a, a) = 1 and 0 < h <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import approximator as ap
from .core import ReplayDataset, check_discounts, td_target
from .seeding import derive_seed
from .stochastic import (StochasticPolicy, _check_critic_loss, gather, loglik_ascent,
                         make_policy, validate_lambdas)
from .stochastic import batch_arrays  # noqa: F401  (a binding bench/tracer.py wraps)


@dataclass
class DeterministicPolicy:
    spec: ap.ApproxSpec
    params: np.ndarray
    exploration_noise_std: float = 0.1
    response_index: int = 0

    def act(self, features) -> np.ndarray:
        return ap.forward(self.spec, self.params, features)

    def act_noisy(self, features, rng: np.random.Generator) -> np.ndarray:
        """Exploration noise is for data collection only, never for updates."""
        a = self.act(features)
        return a + rng.normal(0.0, self.exploration_noise_std, size=a.shape)


@dataclass
class CriticQ:
    """Q(s, a): input is the concatenation of state features and the action
    embedding."""

    spec: ap.ApproxSpec
    params: np.ndarray
    response_index: int
    gamma: float

    def q_value(self, features, actions) -> np.ndarray:
        x = np.concatenate([np.atleast_2d(features), np.atleast_2d(actions)], axis=1)
        return ap.forward(self.spec, self.params, x)[:, 0]


def make_det_policy(state_dim, embed_dim, hidden, seed, noise_std=0.1,
                    response_index=0) -> DeterministicPolicy:
    spec = ap.ApproxSpec(state_dim, tuple(hidden), embed_dim, "tanh", seed)
    return DeterministicPolicy(spec, ap.init_params(spec), noise_std, response_index)


def make_q_critic(state_dim, embed_dim, hidden, seed, response_index, gamma) -> CriticQ:
    spec = ap.ApproxSpec(state_dim + embed_dim, tuple(hidden), 1, "linear", seed)
    return CriticQ(spec, ap.init_params(spec), response_index, float(gamma))


def init_item_table(n_items, embed_dim, seed) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    bound = 1.0 / np.sqrt(embed_dim)
    return rng.uniform(-bound, bound, size=(n_items, embed_dim))


def closeness(a, b) -> np.ndarray:
    """h(a, b) = exp(-||a - b||^2 / 2) over embedding vectors, batched."""
    d = np.atleast_2d(a) - np.atleast_2d(b)
    return np.exp(-0.5 * np.sum(d * d, axis=1))


# ---------------------------------------------------------------------------
# update operations
# ---------------------------------------------------------------------------

def q_critic_update(critic: CriticQ, target_critic: CriticQ,
                    target_policy: DeterministicPolicy, items: np.ndarray,
                    batch, opt: ap.OptState, reward_override=None):
    """One step on (r_i + gamma * Q_target(s', pi_target(s')) - Q(s, a))^2.

    ``batch`` is a ``batch_arrays`` tuple.  Logged actions are embedded
    through the item table; the returned item-table gradient lets callers
    learn the table jointly with the critic.  ``reward_override``
    substitutes a precomputed scalar reward per sample (used for
    weighted-sum training).
    """
    s, a_idx, r, s2, done = batch
    if a_idx is None:
        raise ValueError("batch lacks action indices")
    r_i = reward_override if reward_override is not None else r[:, critic.response_index]
    a_emb = items[a_idx]
    a2 = target_policy.act(s2)
    q2 = target_critic.q_value(s2, a2)
    y = td_target(r_i, critic.gamma, q2, done)
    q, pullback = ap.forward_pullback(critic.spec, critic.params,
                                      np.concatenate([s, a_emb], axis=1))
    err = q[:, 0] - y
    loss = float(np.mean(err * err))
    if not np.isfinite(loss):
        return critic, opt, loss, np.zeros_like(items)
    grads, in_grad = pullback((2.0 * err / err.size)[:, None], want_input=True)
    item_grad = np.zeros_like(items)
    np.add.at(item_grad, a_idx, in_grad[:, s.shape[1]:])
    new_params, opt = ap.optimizer_step(critic.params, grads, opt, "minimize")
    return replace(critic, params=new_params), opt, loss, item_grad


def ddpg_actor_update(policy: DeterministicPolicy, critic: CriticQ, batch,
                      opt: ap.OptState, lambdas_for_extra=None, extra_critics=()):
    """Ascent on mean_b Q(s_b, pi(s_b)) over the states of ``batch``, a
    ``batch_arrays`` tuple, through the chain rule, critic frozen.

    With ``extra_critics`` the objective becomes Q_0 + sum_i lambda_i * Q_i
    (the RCPO-style combination)."""
    s = batch[0]
    a, policy_pullback = ap.forward_pullback(policy.spec, policy.params, s)
    x = np.concatenate([s, a], axis=1)
    ones = np.full((s.shape[0], 1), 1.0 / s.shape[0])
    q, critic_pullback = ap.forward_pullback(critic.spec, critic.params, x)
    dq_da = critic_pullback(ones, want_input=True)[1][:, s.shape[1]:]
    mean_q = float(np.mean(q[:, 0]))
    if extra_critics:
        lam = validate_lambdas(lambdas_for_extra, len(extra_critics))
        for lam_i, extra in zip(lam, extra_critics):
            dq_da += lam_i * ap.input_gradient(extra.spec, extra.params, x, ones)[:, s.shape[1]:]
    grads = policy_pullback(dq_da)[0]
    new_params, opt = ap.optimizer_step(policy.params, grads, opt, "maximize")
    return replace(policy, params=new_params), opt, mean_q


def constrained_det_objective(features, policy: DeterministicPolicy,
                              aux_policies, critic: CriticQ, lambdas) -> float:
    """Mean over states of  prod_i h(pi(s), pi_aux_i(s))^(lambda_i/sum)
    * Q(s, pi(s)) / sum(lambda)."""
    lam = validate_lambdas(lambdas, len(aux_policies))
    total = lam.sum()
    if total <= 0.0:
        raise ValueError("sum of Lagrange multipliers must be positive; "
                         "use ddpg_actor_update when unconstrained")
    s = np.atleast_2d(np.asarray(features, dtype=np.float64))
    a = policy.act(s)
    log_h = np.zeros(s.shape[0])
    for lam_i, aux in zip(lam, aux_policies):
        d = a - aux.act(s)
        log_h += (lam_i / total) * (-0.5 * np.sum(d * d, axis=1))
    q = critic.q_value(s, a)
    return float(np.mean(np.exp(log_h) * q / total))


def constrained_det_actor_update(policy: DeterministicPolicy, aux_policies,
                                 critic: CriticQ, lambdas, batch, opt: ap.OptState):
    """Gradient ascent on constrained_det_objective over the states of
    ``batch``, a ``batch_arrays`` tuple; auxiliary actors and the critic are
    frozen."""
    lam = validate_lambdas(lambdas, len(aux_policies))
    total = lam.sum()
    if total <= 0.0:
        raise ValueError("sum of Lagrange multipliers must be positive")
    s = batch[0]
    n = s.shape[0]
    a, policy_pullback = ap.forward_pullback(policy.spec, policy.params, s)
    aux_actions = [aux.act(s) for aux in aux_policies]
    log_h = np.zeros(n)
    pull = np.zeros_like(a)  # sum_i w_i * (a - a_i), the gradient of -log H
    for lam_i, a_i in zip(lam, aux_actions):
        d = a - a_i
        w_i = lam_i / total
        log_h += w_i * (-0.5 * np.sum(d * d, axis=1))
        pull += w_i * d
    h = np.exp(log_h)

    q, critic_pullback = ap.forward_pullback(critic.spec, critic.params,
                                             np.concatenate([s, a], axis=1))
    q = q[:, 0]
    dq_da = critic_pullback(np.full((n, 1), 1.0), want_input=True)[1][:, s.shape[1]:]
    # d/da of h(a)*q(a)/total, averaged over the batch
    d_obj_da = (h / total)[:, None] * (dq_da - q[:, None] * pull) / n
    grads = policy_pullback(d_obj_da)[0]
    new_params, opt = ap.optimizer_step(policy.params, grads, opt, "maximize")
    info = {"mean_h": float(h.mean()), "mean_q": float(q.mean()),
            "objective": float(np.mean(h * q / total))}
    return replace(policy, params=new_params), opt, info


def behavior_clone_update(policy: StochasticPolicy, batch, opt: ap.OptState):
    """One step minimizing mean negative log-likelihood of the logged actions
    of ``batch``, a ``batch_arrays`` tuple."""
    s, a_idx = batch[0], batch[1]
    policy, opt, objective, _ = loglik_ascent(policy, s, a_idx, np.ones(len(s)), opt)
    return policy, opt, -objective


def det_policy_item_probs(policy: DeterministicPolicy, items: np.ndarray,
                          features, bandwidth: float = 0.5) -> np.ndarray:
    """Discrete action distribution induced by a deterministic policy: a
    Gaussian kernel around pi(s), normalized over the item-embedding table.
    Used by the off-policy evaluators, which need probabilities."""
    a = np.atleast_2d(policy.act(features))
    d2 = (np.sum(a * a, axis=1, keepdims=True)
          + np.sum(items * items, axis=1)[None, :]
          - 2.0 * a @ items.T)
    logits = -d2 / (2.0 * bandwidth * bandwidth)
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# offline trainers (uniform minibatches over a ReplayDataset)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DDPGConfig:
    updates: int = 2000
    batch_size: int = 64
    actor_lr: float = 1e-3
    critic_lr: float = 3e-3
    items_lr: float = 1e-3
    hidden: tuple[int, ...] = (32,)
    embed_dim: int = 6
    target_refresh: int = 100
    exploration_noise_std: float = 0.1
    log_every: int = 50


@dataclass
class DDPGPipeline:
    """A trained deterministic pipeline: actor, critics, and the item table
    shared by all of them."""

    policy: DeterministicPolicy
    critics: list[CriticQ]
    items: np.ndarray
    metrics: list


def _train_ddpg_core(data, n_items, gammas_per_critic, reward_fn, cfg: DDPGConfig,
                     master_seed, lambdas=None, aux_policies=None, stage_label=2,
                     response_label=0, items=None):
    """Shared loop for the DDPG-family trainers on ``data``, the
    ``batch_arrays`` tuple of a whole dataset; each update gathers one
    uniform minibatch from it.

    With ``aux_policies`` the actor takes the constrained step (kernel pull
    toward them); otherwise it ascends Q_0 + sum_j lambdas_j * Q_j over the
    other critics (plain DDPG with one critic, RCPO with several).
    reward_fn maps the (batch, m) response matrix to the scalar reward for
    critic j, or None to use response j directly.  A non-finite critic loss
    raises TrainingDiverged naming the response, the stage and the step.
    """
    state_dim = data[0].shape[1]
    if items is None:
        items = init_item_table(n_items, cfg.embed_dim, derive_seed(master_seed, "items"))
    items_opt = ap.init_opt_state(items.size, cfg.items_lr)

    policy = make_det_policy(state_dim, cfg.embed_dim, cfg.hidden,
                             derive_seed(master_seed, "actor", response_label),
                             cfg.exploration_noise_std, response_label)
    critics = [make_q_critic(state_dim, cfg.embed_dim, cfg.hidden,
                             derive_seed(master_seed, "critic", response_label, j),
                             j, g)
               for j, g in enumerate(gammas_per_critic)]
    # a diverged critic is named by its response: rcpo's critic j learns
    # response j, a lone critic the pipeline's own
    names = [f"response {j if len(critics) > 1 else response_label} in stage {stage_label}"
             for j in range(len(critics))]
    target_policy = replace(policy)
    target_critics = [replace(c) for c in critics]
    c_opts = [ap.init_opt_state(c.params.size, cfg.critic_lr) for c in critics]
    a_opt = ap.init_opt_state(policy.params.size, cfg.actor_lr)
    rng = np.random.Generator(np.random.PCG64(
        derive_seed(master_seed, "ddpg-batches", response_label)))

    metrics = []
    for step in range(cfg.updates):
        batch = gather(data, rng.integers(len(data[0]), size=cfg.batch_size))
        losses = []
        for j, critic in enumerate(critics):
            override = reward_fn(batch[2], j) if reward_fn else None
            critic, c_opts[j], loss, item_grad = q_critic_update(
                critic, target_critics[j], target_policy, items, batch, c_opts[j],
                reward_override=override)
            _check_critic_loss(loss, names[j], step)
            critics[j] = critic
            losses.append(loss)
            flat, items_opt = ap.optimizer_step(items.ravel(), item_grad.ravel(),
                                                items_opt, "minimize")
            items = flat.reshape(items.shape)

        if aux_policies is not None:
            policy, a_opt, info = constrained_det_actor_update(
                policy, aux_policies, critics[0], lambdas, batch, a_opt)
        else:
            policy, a_opt, mean_q = ddpg_actor_update(policy, critics[0], batch, a_opt,
                                                      lambdas, critics[1:])
            info = {"mean_q": mean_q}

        if step % cfg.target_refresh == cfg.target_refresh - 1:
            target_policy = replace(policy)
            target_critics = [replace(c) for c in critics]

        if step % cfg.log_every == cfg.log_every - 1:
            row = {"iteration": step, "stage": stage_label, "response": response_label,
                   "critic_loss": float(np.mean(losses)),
                   "mean_q": info.get("mean_q", ""), "mean_h": info.get("mean_h", "")}
            for i in range(batch[2].shape[1]):
                row[f"reward_{i}"] = float(batch[2][:, i].mean())
            metrics.append(row)
    return DDPGPipeline(policy, critics, items, metrics)


def train_ddpg_weighted(dataset: ReplayDataset, weights, gamma: float,
                        cfg: DDPGConfig, master_seed: int) -> DDPGPipeline:
    """Single critic on the weighted-sum reward sum_i weights_i * r_i."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size != dataset.m:
        raise ValueError("need one reward weight per response")
    check_discounts([gamma], 1)
    return _train_ddpg_core(dataset.arrays(),
                            int(dataset.metadata["n_items"]), [gamma],
                            lambda r, j: r @ weights, cfg, master_seed)


def train_rcpo(dataset: ReplayDataset, lambdas, gammas, cfg: DDPGConfig,
               master_seed: int) -> DDPGPipeline:
    """One critic per response; the actor ascends Q_0 + sum_i lambda_i Q_i."""
    gammas = check_discounts(gammas, dataset.m)
    lam = validate_lambdas(lambdas, dataset.m - 1)
    return _train_ddpg_core(dataset.arrays(),
                            int(dataset.metadata["n_items"]), list(gammas), None, cfg,
                            master_seed, lambdas=lam)


def train_constrained_ddpg(dataset: ReplayDataset, lambdas, gammas,
                           cfg: DDPGConfig, master_seed: int,
                           stage1_updates: int | None = None) -> DDPGPipeline:
    """Two-stage deterministic variant.

    Stage one trains one DDPG pair per auxiliary response on its own reward
    and discount.  Stage two trains the main critic and pulls the main actor
    toward the frozen auxiliary actors through the closeness kernel, scaled
    by the multipliers.
    """
    gammas = check_discounts(gammas, dataset.m)
    lam = validate_lambdas(lambdas, dataset.m - 1)
    s1_cfg = cfg if stage1_updates is None else replace(cfg, updates=stage1_updates)

    data = dataset.arrays()
    n_items = int(dataset.metadata["n_items"])
    metrics = []
    aux_policies = []
    items = init_item_table(n_items, cfg.embed_dim, derive_seed(master_seed, "items"))
    for i in range(1, dataset.m):
        pipe = _train_ddpg_core(data, n_items, [gammas[i]], lambda r, j, i=i: r[:, i],
                                s1_cfg, master_seed, stage_label=1, response_label=i,
                                items=items.copy())
        aux_policies.append(pipe.policy)
        metrics.extend(pipe.metrics)

    pipe = _train_ddpg_core(data, n_items, [gammas[0]], None, cfg, master_seed,
                            lambdas=lam, aux_policies=aux_policies, items=items.copy())
    metrics.extend(pipe.metrics)
    return DDPGPipeline(pipe.policy, pipe.critics, pipe.items, metrics)


@dataclass(frozen=True)
class BCConfig:
    updates: int = 1500
    batch_size: int = 64
    lr: float = 5e-3
    hidden: tuple[int, ...] = (32,)
    log_every: int = 50


def train_behavior_clone(dataset: ReplayDataset, cfg: BCConfig,
                         master_seed: int) -> tuple[StochasticPolicy, list]:
    data = dataset.arrays()
    policy = make_policy(data[0].shape[1], int(dataset.metadata["n_items"]), cfg.hidden,
                         derive_seed(master_seed, "bc"))
    opt = ap.init_opt_state(policy.params.size, cfg.lr)
    rng = np.random.Generator(np.random.PCG64(derive_seed(master_seed, "bc-batches")))
    metrics = []
    for step in range(cfg.updates):
        batch = gather(data, rng.integers(len(data[0]), size=cfg.batch_size))
        policy, opt, loss = behavior_clone_update(policy, batch, opt)
        if step % cfg.log_every == cfg.log_every - 1:
            metrics.append({"iteration": step, "stage": 0, "response": -1,
                            "critic_loss": loss})
    return policy, metrics
