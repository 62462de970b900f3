"""Deterministic-policy trainers for the offline setting.

Contains a DDPG-style learner with weighted-sum reward, an RCPO-style
multi-critic learner (actor ascends a multiplier-weighted sum of critics),
the softly constrained variant (stage-one auxiliary actors pull the main
actor through a closeness kernel h), and a behavior-cloning baseline.

Actors emit action embeddings in (-1, 1)^d through a tanh head, scored
against a per-pipeline item-embedding table learned jointly with the
critics.  An embedding maps to items through ``det_policy_item_probs``,
which favours the nearest item.  The closeness kernel is
h(a, b) = exp(-||a - b||^2 / 2), so h(a, a) = 1 and 0 < h <= 1.

The critics are ``stochastic.CriticV`` nets on state and action
(``q_value``), each learning ``r @ weights`` for its own reward row.

The updates also take a bank of pipelines (``approximator.bank``;
``stochastic.critic_bank`` for critics): params, optimizer moments, item
tables and batches carry a leading member axis, and losses and
diagnostics come back as one float per member.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import approximator as ap
from .core import ReplayDataset, check_config, check_discounts, td_target
from .seeding import derive_seed, rng_for
from .stochastic import (CriticV, StochasticPolicy, _check_critic_loss, constrained_lambdas,
                         critic_bank, critic_rewards, gather, loglik_ascent, make_critic,
                         make_policy, validate_lambdas)
from .stochastic import batch_arrays  # noqa: F401  (a binding bench/tracer.py wraps)


@dataclass
class DeterministicPolicy:
    spec: ap.ApproxSpec
    params: np.ndarray

    def act(self, features) -> np.ndarray:
        return ap.forward(self.spec, self.params, features)


def make_det_policy(state_dim, embed_dim, hidden, seed) -> DeterministicPolicy:
    spec = ap.ApproxSpec(state_dim, tuple(hidden), embed_dim, "tanh", seed)
    return DeterministicPolicy(spec, ap.init_params(spec))


def q_value(critic: CriticV, features, actions) -> np.ndarray:
    """Q(s, a): the critic on the concatenated state features and action embedding."""
    x = np.concatenate([features, actions], axis=-1)
    return ap.forward(critic.spec, critic.params, x)[..., 0]


def init_item_table(n_items, embed_dim, seed) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    bound = 1.0 / np.sqrt(embed_dim)
    return rng.uniform(-bound, bound, size=(n_items, embed_dim))


# ---------------------------------------------------------------------------
# update operations
# ---------------------------------------------------------------------------

@lru_cache
def member_rows(lead: tuple) -> tuple:
    """Read-only sparse index of an item-table bank's member axes ``lead``, built once."""
    return tuple(np.broadcast_to(ix, ix.shape) for ix in np.indices((*lead, 1), sparse=True)[:-1])


def item_table_grad(items: np.ndarray, rows, row_grads) -> np.ndarray:
    """Zeros like ``items`` (an item table or a bank of them) with each row
    of ``row_grads`` added to the table row that ``rows`` names, in order:
    ``np.add.at``'s sums and bits, from one ``np.bincount`` over the flat
    (member, item, column) cells."""
    e = items.shape[-1]
    cells = np.ravel_multi_index(rows, items.shape[:-1])[..., None] * e + np.arange(e)
    return np.bincount(cells.ravel(), row_grads.ravel(), items.size).reshape(items.shape)


def q_critic_update(critic: CriticV, target_critic: CriticV,
                    target_policy: DeterministicPolicy, items: np.ndarray,
                    batch, opt: ap.OptState):
    """One step on (r + gamma * Q_target(s', pi_target(s')) - Q(s, a))^2.

    ``batch`` is a ``batch_arrays`` tuple, and r is ``critic_rewards`` of
    its responses.  Logged actions are embedded through the item table; the
    returned item-table gradient lets callers learn the table jointly with
    the critic."""
    s, a_idx, r, s2, done = batch
    if a_idx is None:
        raise ValueError("batch lacks action indices")
    # the rows of each member's own item table that its logged actions name
    rows = (*member_rows(a_idx.shape[:-1]), a_idx)
    a2 = target_policy.act(s2)
    q2 = q_value(target_critic, s2, a2)
    y = td_target(critic_rewards(critic, r), critic.gamma, q2, done)
    q, pullback = ap.forward_pullback(critic.spec, critic.params,
                                      np.concatenate([s, items[rows]], axis=-1))
    err = q[..., 0] - y
    loss = np.add.reduce(err * err, -1) / err.shape[-1]  # np.mean's bits
    if not np.isfinite(loss).all():
        return critic, opt, loss.tolist(), np.zeros_like(items)
    grads, in_grad = pullback((2.0 * err / err.shape[-1])[..., None], wrt="both")
    item_grad = item_table_grad(items, rows, in_grad[..., s.shape[-1]:])
    new_params, opt = ap.optimizer_step(critic.params, grads, opt, "minimize")
    return replace(critic, params=new_params), opt, loss.tolist(), item_grad


def ddpg_actor_update(policy: DeterministicPolicy, critic: CriticV, batch,
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
    dq_da = critic_pullback(ones, wrt="input")[1][..., d:]
    mean_q = (np.add.reduce(q[..., 0], -1) / s.shape[-2]).tolist()
    if extra_critics:
        lam = validate_lambdas(lambdas_for_extra, len(extra_critics))
        for lam_i, extra in zip(lam, extra_critics):
            dq_da += lam_i * ap.input_gradient(extra.spec, extra.params, x, ones)[..., d:]
    grads = policy_pullback(dq_da)[0]
    new_params, opt = ap.optimizer_step(policy.params, grads, opt, "maximize")
    return replace(policy, params=new_params), opt, mean_q


def constrained_det_actor_update(policy: DeterministicPolicy, aux: DeterministicPolicy,
                                 critic: CriticV, lambdas, batch, opt: ap.OptState):
    """Gradient ascent on the mean over the states of ``batch`` (a
    ``batch_arrays`` tuple) of prod_i h(pi(s), pi_aux_i(s))^(lambda_i/sum) *
    Q(s, pi(s)) / sum(lambda); the bank ``aux`` of auxiliary actors and the
    critic are frozen.  The auxiliary actions come from one stacked pass."""
    lam = constrained_lambdas(lambdas, len(aux.params))
    total = lam.sum()
    s = batch[0]
    n = s.shape[-2]
    a, policy_pullback = ap.forward_pullback(policy.spec, policy.params, s)
    # auxiliary axis first, then the member axes of s: (n_aux, ..., batch, embed)
    aux_actions = ap.forward(aux.spec, aux.params.reshape(len(lam), *(1,) * (s.ndim - 2), -1), s)
    log_h = np.zeros(a.shape[:-1])
    pull = np.zeros_like(a)  # sum_i w_i * (a - a_i), the gradient of -log H
    for lam_i, a_i in zip(lam, aux_actions):
        d = a - a_i
        w_i = lam_i / total
        log_h += w_i * (-0.5 * np.add.reduce(d * d, -1))
        pull += w_i * d
    h = np.exp(log_h)

    q, critic_pullback = ap.forward_pullback(critic.spec, critic.params,
                                             np.concatenate([s, a], axis=-1))
    q = q[..., 0]
    dq_da = critic_pullback(np.ones((*q.shape, 1)), wrt="input")[1][..., s.shape[-1]:]
    # d/da of h(a)*q(a)/total, averaged over the batch
    d_obj_da = (h / total)[..., None] * (dq_da - q[..., None] * pull) / n
    grads = policy_pullback(d_obj_da)[0]
    new_params, opt = ap.optimizer_step(policy.params, grads, opt, "maximize")
    means = (np.add.reduce([h, q, h * q / total], -1) / n).tolist()  # np.mean's bits
    info = dict(zip(("mean_h", "mean_q", "objective"), means))
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
    probabilities.  Its mode is the item nearest to pi(s)."""
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
                     counts=("batch_size", "embed_dim", "target_refresh", "log_every", "hidden"),
                     positive=("actor_lr", "critic_lr", "items_lr"))


@dataclass
class DDPGPipeline:
    """A trained deterministic pipeline: actor, critics, and the item table
    shared by all of them."""

    policy: DeterministicPolicy
    critics: list[CriticV]
    items: np.ndarray
    metrics: list


def reward_name(weights) -> str:
    """How a divergence error names a critic: "response i" for the one-hot
    reward row e_i, else "reward weights" and the row."""
    weights = np.asarray(weights, dtype=np.float64)
    i = int(np.argmax(weights))
    if np.array_equal(weights, np.eye(len(weights))[i]):
        return f"response {i}"
    return f"reward weights {weights.tolist()}"


def _train_ddpg_core(data, n_items, gammas, weights, cfg: DDPGConfig, master_seed,
                     labels, stage_label=2, lambdas=None, aux=None):
    """Shared loop of the DDPG-family trainers on ``data``, the
    ``batch_arrays`` tuple of a whole dataset.  Trains one pipeline per
    entry of ``labels`` (the response each is named for) as one bank: each
    step updates every member in one call per critic and one actor call,
    each member on its own uniform minibatch.  Returns one DDPGPipeline per
    member.

    ``gammas[i][j]`` and ``weights[i][j]`` are member i's discount and reward
    row for critic j; ``reward_name`` of the row names the critic.  With
    ``aux``, a bank of frozen auxiliary actors, the actor takes the
    constrained step (kernel pull toward them); otherwise
    it ascends Q_0 + sum_j lambdas_j * Q_j over the other critics (plain DDPG
    with one critic, RCPO with several).

    Each member keeps its own seeds, minibatch stream, copy of the item
    table (all start from the one named "items"), targets and metric rows,
    so it ends as if trained alone.  A non-finite critic loss raises
    TrainingDiverged naming the critic, the stage and the step; when
    several members diverge, the earliest step is named, and on a tie the
    first member.
    """
    k = len(labels)
    state_dim = data[0].shape[1]
    items = np.stack([init_item_table(n_items, cfg.embed_dim,
                                      derive_seed(master_seed, "items"))] * k)
    items_opt = ap.init_opt_state((k, items[0].size), cfg.items_lr)

    policies = [make_det_policy(state_dim, cfg.embed_dim, cfg.hidden,
                                derive_seed(master_seed, "actor", label))
                for label in labels]
    critics = [[make_critic(state_dim + cfg.embed_dim, cfg.hidden,
                            derive_seed(master_seed, "critic", label, j), w, g)
                for j, (w, g) in enumerate(zip(member_weights, member_gammas))]
               for label, member_weights, member_gammas in zip(labels, weights, gammas)]
    policy = ap.bank(policies)
    banks = [critic_bank(cs) for cs in zip(*critics)]
    target_policy = replace(policy)
    target_banks = [replace(c) for c in banks]
    c_opts = [ap.init_opt_state(c.params.shape, cfg.critic_lr) for c in banks]
    a_opt = ap.init_opt_state(policy.params.shape, cfg.actor_lr)
    rngs = [rng_for(master_seed, "ddpg-batches", label) for label in labels]
    names = [[f"{reward_name(w)} in stage {stage_label}" for w in rows]
             for rows in zip(*weights)]

    metrics = [[] for _ in labels]
    for step in range(cfg.updates):
        batch = gather(data, np.array([rng.integers(len(data[0]), size=cfg.batch_size)
                                       for rng in rngs]))
        losses = []
        for j, critic in enumerate(banks):
            banks[j], c_opts[j], loss, item_grad = q_critic_update(
                critic, target_banks[j], target_policy, items, batch, c_opts[j])
            for loss_i, name in zip(loss, names[j]):
                _check_critic_loss(loss_i, name, step)
            losses.append(loss)
            flat, items_opt = ap.optimizer_step(items.reshape(k, -1), item_grad.reshape(k, -1),
                                                items_opt, "minimize")
            items = flat.reshape(items.shape)

        if aux is not None:
            policy, a_opt, info = constrained_det_actor_update(
                policy, aux, banks[0], lambdas, batch, a_opt)
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
    if weights.shape != (dataset.m,) or not np.isfinite(weights).all():
        raise ValueError(f"weights must be a finite 1-D vector of {dataset.m} reward weights, "
                         f"one per response; got {weights.tolist()}")
    check_discounts([gamma], 1)
    return _train_ddpg_core(dataset.arrays(), int(dataset.metadata["n_items"]), [[gamma]],
                            [[weights]], cfg, master_seed, [0])[0]


def train_rcpo(dataset: ReplayDataset, lambdas, gammas, cfg: DDPGConfig,
               master_seed: int) -> DDPGPipeline:
    """One critic per response; the actor ascends Q_0 + sum_i lambda_i Q_i."""
    gammas = check_discounts(gammas, dataset.m)
    lam = validate_lambdas(lambdas, dataset.m - 1)
    return _train_ddpg_core(dataset.arrays(), int(dataset.metadata["n_items"]), [gammas],
                            [np.eye(dataset.m)], cfg, master_seed, [0], lambdas=lam)[0]


def train_constrained_ddpg(dataset: ReplayDataset, lambdas, gammas,
                           cfg: DDPGConfig, master_seed: int) -> DDPGPipeline:
    """Two-stage deterministic variant.

    Stage one trains one DDPG pair per auxiliary response on its own reward
    and discount, all of them as one bank.  Stage two trains the main critic
    and pulls the main actor toward the frozen auxiliary actors through the
    closeness kernel, scaled by the multipliers.  Each stage runs ``cfg.updates``.
    """
    if dataset.m < 2:
        raise ValueError(f"need at least one auxiliary response (m >= 2), got m={dataset.m}")
    gammas = check_discounts(gammas, dataset.m)
    lam = constrained_lambdas(lambdas, dataset.m - 1)

    data = dataset.arrays()
    n_items = int(dataset.metadata["n_items"])
    rows = np.eye(dataset.m)[:, None]  # member i's one critic: response i
    stage_one = _train_ddpg_core(data, n_items, gammas[1:, None], rows[1:], cfg, master_seed,
                                 range(1, dataset.m), stage_label=1)
    pipe, = _train_ddpg_core(data, n_items, gammas[:1, None], rows[:1], cfg, master_seed, [0],
                             lambdas=lam, aux=ap.bank([p.policy for p in stage_one]))
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
        check_config(self, iterations=("updates",), counts=("batch_size", "log_every", "hidden"),
                     positive=("lr",))


def train_behavior_clone(dataset: ReplayDataset, cfg: BCConfig,
                         master_seed: int) -> tuple[StochasticPolicy, list]:
    data = dataset.arrays()
    policy = make_policy(data[0].shape[1], int(dataset.metadata["n_items"]), cfg.hidden,
                         derive_seed(master_seed, "bc"))
    opt = ap.init_opt_state(policy.params.size, cfg.lr)
    rng = rng_for(master_seed, "bc-batches")
    metrics = []
    for step in range(cfg.updates):
        batch = gather(data, rng.integers(len(data[0]), size=cfg.batch_size))
        policy, opt, loss = behavior_clone_update(policy, batch, opt)
        if step % cfg.log_every == cfg.log_every - 1:
            metrics.append({"iteration": step, "stage": 0, "response": -1,
                            "critic_loss": loss})
    return policy, metrics
