"""Deterministic-policy trainers for the offline setting.

Contains a DDPG-style learner with weighted-sum reward, an RCPO-style
multi-critic learner (actor ascends a multiplier-weighted sum of critics),
the softly constrained variant (stage-one auxiliary actors pull the main
actor through a closeness kernel h), and a behavior-cloning baseline.

Actors emit action embeddings in (-1, 1)^d through a tanh head; embeddings
map to items with core.rank_items against a per-pipeline item-embedding
table that is learned jointly with the critics.  The closeness kernel is
h(a, b) = exp(-||a - b||^2 / 2), so h(a, a) = 1 and 0 < h <= 1.

The updates also take a bank of pipelines (``approximator.bank``): params,
optimizer moments, item tables and batches carry a leading member axis,
and losses and diagnostics come back as one float per member.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import approximator as ap
from .core import ReplayDataset, check_config, check_discounts, td_target
from .seeding import derive_seed
from .stochastic import (StochasticPolicy, _check_critic_loss, gather, loglik_ascent,
                         make_policy, validate_lambdas)
from .stochastic import batch_arrays  # noqa: F401  (a binding bench/tracer.py wraps)


@dataclass
class DeterministicPolicy:
    spec: ap.ApproxSpec
    params: np.ndarray
    response_index: int = 0

    def act(self, features) -> np.ndarray:
        return ap.forward(self.spec, self.params, features)


@dataclass
class CriticQ:
    """Q(s, a): input is the concatenation of state features and the action
    embedding.  A bank's gamma is a (k, 1) column, one discount per member."""

    spec: ap.ApproxSpec
    params: np.ndarray
    response_index: int
    gamma: float

    def q_value(self, features, actions) -> np.ndarray:
        x = np.concatenate([np.atleast_2d(features), np.atleast_2d(actions)], axis=-1)
        return ap.forward(self.spec, self.params, x)[..., 0]


def make_det_policy(state_dim, embed_dim, hidden, seed, response_index=0) -> DeterministicPolicy:
    spec = ap.ApproxSpec(state_dim, tuple(hidden), embed_dim, "tanh", seed)
    return DeterministicPolicy(spec, ap.init_params(spec), response_index)


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
    r_i = reward_override if reward_override is not None else r[..., critic.response_index]
    # the rows of each member's own item table that its logged actions name
    rows = (*np.indices(a_idx.shape, sparse=True)[:-1], a_idx)
    a2 = target_policy.act(s2)
    q2 = target_critic.q_value(s2, a2)
    y = td_target(r_i, critic.gamma, q2, done)
    q, pullback = ap.forward_pullback(critic.spec, critic.params,
                                      np.concatenate([s, items[rows]], axis=-1))
    err = q[..., 0] - y
    loss = np.mean(err * err, axis=-1)
    if not np.isfinite(loss).all():
        return critic, opt, loss.tolist(), np.zeros_like(items)
    grads, in_grad = pullback((2.0 * err / err.shape[-1])[..., None], want_input=True)
    item_grad = np.zeros_like(items)
    np.add.at(item_grad, rows, in_grad[..., s.shape[-1]:])
    new_params, opt = ap.optimizer_step(critic.params, grads, opt, "minimize")
    return replace(critic, params=new_params), opt, loss.tolist(), item_grad


def ddpg_actor_update(policy: DeterministicPolicy, critic: CriticQ, batch,
                      opt: ap.OptState, lambdas_for_extra=None, extra_critics=()):
    """Ascent on mean_b Q(s_b, pi(s_b)) over the states of ``batch``, a
    ``batch_arrays`` tuple, through the chain rule, critic frozen.

    With ``extra_critics`` the objective becomes Q_0 + sum_i lambda_i * Q_i
    (the RCPO-style combination)."""
    s = batch[0]
    d = s.shape[-1]
    a, policy_pullback = ap.forward_pullback(policy.spec, policy.params, s)
    x = np.concatenate([s, a], axis=-1)
    ones = np.full((*s.shape[:-1], 1), 1.0 / s.shape[-2])
    q, critic_pullback = ap.forward_pullback(critic.spec, critic.params, x)
    dq_da = critic_pullback(ones, want_input=True)[1][..., d:]
    mean_q = np.mean(q[..., 0], axis=-1).tolist()
    if extra_critics:
        lam = validate_lambdas(lambdas_for_extra, len(extra_critics))
        for lam_i, extra in zip(lam, extra_critics):
            dq_da += lam_i * ap.input_gradient(extra.spec, extra.params, x, ones)[..., d:]
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
    frozen.  The auxiliary actions come from one stacked pass."""
    lam = validate_lambdas(lambdas, len(aux_policies))
    total = lam.sum()
    if total <= 0.0:
        raise ValueError("sum of Lagrange multipliers must be positive")
    s = batch[0]
    n = s.shape[-2]
    a, policy_pullback = ap.forward_pullback(policy.spec, policy.params, s)
    aux = ap.bank(aux_policies)
    # auxiliary axis first, then the member axes of s: (n_aux, ..., batch, embed)
    aux_actions = ap.forward(aux.spec, np.expand_dims(aux.params, tuple(range(1, s.ndim - 1))),
                             s)
    log_h = np.zeros(a.shape[:-1])
    pull = np.zeros_like(a)  # sum_i w_i * (a - a_i), the gradient of -log H
    for lam_i, a_i in zip(lam, aux_actions):
        d = a - a_i
        w_i = lam_i / total
        log_h += w_i * (-0.5 * np.sum(d * d, axis=-1))
        pull += w_i * d
    h = np.exp(log_h)

    q, critic_pullback = ap.forward_pullback(critic.spec, critic.params,
                                             np.concatenate([s, a], axis=-1))
    q = q[..., 0]
    dq_da = critic_pullback(np.ones((*q.shape, 1)), want_input=True)[1][..., s.shape[-1]:]
    # d/da of h(a)*q(a)/total, averaged over the batch
    d_obj_da = (h / total)[..., None] * (dq_da - q[..., None] * pull) / n
    grads = policy_pullback(d_obj_da)[0]
    new_params, opt = ap.optimizer_step(policy.params, grads, opt, "maximize")
    info = {"mean_h": np.mean(h, axis=-1).tolist(), "mean_q": np.mean(q, axis=-1).tolist(),
            "objective": np.mean(h * q / total, axis=-1).tolist()}
    return replace(policy, params=new_params), opt, info


def behavior_clone_update(policy: StochasticPolicy, batch, opt: ap.OptState):
    """One step minimizing mean negative log-likelihood of the logged actions
    of ``batch``, a ``batch_arrays`` tuple."""
    s, a_idx = batch[0], batch[1]
    policy, opt, objective, _ = loglik_ascent(policy, s, a_idx, np.ones(len(s)), opt)
    return policy, opt, -objective


_ITEM_BANDWIDTH = 0.5


def det_policy_item_probs(policy: DeterministicPolicy, items: np.ndarray,
                          features) -> np.ndarray:
    """Discrete action distribution induced by a deterministic policy: a
    Gaussian kernel of bandwidth 0.5 around pi(s), normalized over the
    item-embedding table.  Used by the off-policy evaluators, which need
    probabilities."""
    a = np.atleast_2d(policy.act(features))
    d2 = (np.sum(a * a, axis=1, keepdims=True)
          + np.sum(items * items, axis=1)[None, :]
          - 2.0 * a @ items.T)
    logits = -d2 / (2.0 * _ITEM_BANDWIDTH * _ITEM_BANDWIDTH)
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
    log_every: int = 50

    def __post_init__(self):
        check_config(self, iterations=("updates",),
                     counts=("batch_size", "embed_dim", "target_refresh", "log_every"),
                     positive=("actor_lr", "critic_lr", "items_lr"))


@dataclass
class DDPGPipeline:
    """A trained deterministic pipeline: actor, critics, and the item table
    shared by all of them."""

    policy: DeterministicPolicy
    critics: list[CriticQ]
    items: np.ndarray
    metrics: list


def _train_ddpg_core(data, n_items, gammas, reward_fn, cfg: DDPGConfig, master_seed,
                     labels, stage_label=2, lambdas=None, aux_policies=None, items=None):
    """Shared loop of the DDPG-family trainers on ``data``, the
    ``batch_arrays`` tuple of a whole dataset.  Trains one pipeline per
    entry of ``labels`` (the response each is named for) as one bank: each
    step updates every member in one call per critic and one actor call,
    each member on its own uniform minibatch.  Returns one DDPGPipeline per
    member.

    ``gammas[i][j]`` is member i's discount for critic j.  ``reward_fn``
    maps the (k, batch, m) responses and a critic index j to critic j's
    (k, batch) rewards; by default critic j learns response j, or a lone
    critic its member's own.  With ``aux_policies`` the actor takes the
    constrained step (kernel pull toward them); otherwise it ascends
    Q_0 + sum_j lambdas_j * Q_j over the other critics (plain DDPG with one
    critic, RCPO with several).

    Each member keeps its own seeds, minibatch stream, copy of ``items``
    (else a fresh table), targets and metric rows, so it ends as if trained
    alone.  A non-finite critic loss raises TrainingDiverged naming the
    response, the stage and the step; when several members diverge, the
    earliest step is named, and on a tie the first member.
    """
    k, n_critics = len(labels), len(gammas[0])
    state_dim = data[0].shape[1]
    if items is None:
        items = init_item_table(n_items, cfg.embed_dim, derive_seed(master_seed, "items"))
    items = np.stack([items] * k)
    items_opt = ap.init_opt_state((k, items[0].size), cfg.items_lr)

    policies = [make_det_policy(state_dim, cfg.embed_dim, cfg.hidden,
                                derive_seed(master_seed, "actor", label), label)
                for label in labels]
    critics = [[make_q_critic(state_dim, cfg.embed_dim, cfg.hidden,
                              derive_seed(master_seed, "critic", label, j), j, g)
                for j, g in enumerate(member_gammas)]
               for label, member_gammas in zip(labels, gammas)]
    # the response each critic learns, which also names it when it diverges
    responses = np.array([[j if n_critics > 1 else label for j in range(n_critics)]
                          for label in labels])
    policy = ap.bank(policies)
    banks = [ap.bank(cs, gamma=np.array([[c.gamma] for c in cs])) for cs in zip(*critics)]
    target_policy = replace(policy)
    target_banks = [replace(c) for c in banks]
    c_opts = [ap.init_opt_state(c.params.shape, cfg.critic_lr) for c in banks]
    a_opt = ap.init_opt_state(policy.params.shape, cfg.actor_lr)
    rngs = [np.random.Generator(np.random.PCG64(derive_seed(master_seed, "ddpg-batches", label)))
            for label in labels]
    members = np.arange(k)

    metrics = [[] for _ in labels]
    for step in range(cfg.updates):
        batch = gather(data, np.stack([rng.integers(len(data[0]), size=cfg.batch_size)
                                       for rng in rngs]))
        losses = []
        for j, critic in enumerate(banks):
            rewards = (reward_fn(batch[2], j) if reward_fn
                       else batch[2][members, :, responses[:, j]])
            banks[j], c_opts[j], loss, item_grad = q_critic_update(
                critic, target_banks[j], target_policy, items, batch, c_opts[j],
                reward_override=rewards)
            for i, loss_i in enumerate(loss):
                _check_critic_loss(loss_i, f"response {responses[i, j]} in stage {stage_label}",
                                   step)
            losses.append(loss)
            flat, items_opt = ap.optimizer_step(items.reshape(k, -1), item_grad.reshape(k, -1),
                                                items_opt, "minimize")
            items = flat.reshape(items.shape)

        if aux_policies is not None:
            policy, a_opt, info = constrained_det_actor_update(
                policy, aux_policies, banks[0], lambdas, batch, a_opt)
        else:
            policy, a_opt, mean_q = ddpg_actor_update(policy, banks[0], batch, a_opt,
                                                      lambdas, banks[1:])
            info = {"mean_q": mean_q}

        if step % cfg.target_refresh == cfg.target_refresh - 1:
            target_policy = replace(policy)
            target_banks = [replace(c) for c in banks]

        if step % cfg.log_every == cfg.log_every - 1:
            for i, label in enumerate(labels):
                row = {"iteration": step, "stage": stage_label, "response": label,
                       "critic_loss": float(np.mean([loss[i] for loss in losses])),
                       "mean_q": info["mean_q"][i] if "mean_q" in info else "",
                       "mean_h": info["mean_h"][i] if "mean_h" in info else ""}
                for c in range(batch[2].shape[-1]):
                    row[f"reward_{c}"] = float(batch[2][i, :, c].mean())
                metrics[i].append(row)
    return [DDPGPipeline(replace(p, params=policy.params[i]),
                         [replace(c, params=b.params[i]) for c, b in zip(critics[i], banks)],
                         items[i], metrics[i])
            for i, p in enumerate(policies)]


def train_ddpg_weighted(dataset: ReplayDataset, weights, gamma: float,
                        cfg: DDPGConfig, master_seed: int) -> DDPGPipeline:
    """Single critic on the weighted-sum reward sum_i weights_i * r_i."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size != dataset.m:
        raise ValueError("need one reward weight per response")
    check_discounts([gamma], 1)
    return _train_ddpg_core(dataset.arrays(), int(dataset.metadata["n_items"]), [[gamma]],
                            lambda r, j: r @ weights, cfg, master_seed, [0])[0]


def train_rcpo(dataset: ReplayDataset, lambdas, gammas, cfg: DDPGConfig,
               master_seed: int) -> DDPGPipeline:
    """One critic per response; the actor ascends Q_0 + sum_i lambda_i Q_i."""
    gammas = check_discounts(gammas, dataset.m)
    lam = validate_lambdas(lambdas, dataset.m - 1)
    return _train_ddpg_core(dataset.arrays(), int(dataset.metadata["n_items"]), [gammas],
                            None, cfg, master_seed, [0], lambdas=lam)[0]


def train_constrained_ddpg(dataset: ReplayDataset, lambdas, gammas,
                           cfg: DDPGConfig, master_seed: int,
                           stage1_updates: int | None = None) -> DDPGPipeline:
    """Two-stage deterministic variant.

    Stage one trains one DDPG pair per auxiliary response on its own reward
    and discount, all of them as one bank.  Stage two trains the main critic
    and pulls the main actor toward the frozen auxiliary actors through the
    closeness kernel, scaled by the multipliers.
    """
    gammas = check_discounts(gammas, dataset.m)
    lam = validate_lambdas(lambdas, dataset.m - 1)
    s1_cfg = cfg if stage1_updates is None else replace(cfg, updates=stage1_updates)

    data = dataset.arrays()
    n_items = int(dataset.metadata["n_items"])
    items = init_item_table(n_items, cfg.embed_dim, derive_seed(master_seed, "items"))
    stage_one = _train_ddpg_core(data, n_items, gammas[1:, None], None, s1_cfg, master_seed,
                                 range(1, dataset.m), stage_label=1,
                                 items=items) if dataset.m > 1 else []
    pipe, = _train_ddpg_core(data, n_items, gammas[:1, None], None, cfg, master_seed, [0],
                             lambdas=lam, aux_policies=[p.policy for p in stage_one],
                             items=items)
    metrics = [row for p in stage_one + [pipe] for row in p.metrics]
    return DDPGPipeline(pipe.policy, pipe.critics, pipe.items, metrics)


@dataclass(frozen=True)
class BCConfig:
    updates: int = 1500
    batch_size: int = 64
    lr: float = 5e-3
    hidden: tuple[int, ...] = (32,)
    log_every: int = 50

    def __post_init__(self):
        check_config(self, iterations=("updates",), counts=("batch_size", "log_every"),
                     positive=("lr",))


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
