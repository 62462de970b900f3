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
from .core import check_config, check_discounts, td_target
from .seeding import derive_seed, rng_for
from .sim import SessionSimulator, inverse_cdf, rollout


class TrainingDiverged(RuntimeError):
    """Raised when a critic loss stays above the divergence threshold or
    turns non-finite."""


def _check_critic_loss(loss: float, response: str, iteration: int):
    """The offline divergence rule: raise at the first non-finite critic
    loss.  Online training waits instead (``_DivergenceWatch`` says why)."""
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

    def probs(self, features) -> np.ndarray:
        return ap.forward(self.spec, self.params, features)

    def sample(self, features, rng: np.random.Generator) -> tuple[int, float]:
        """The item ``rng.choice(len(probs), p=probs)`` would draw, and its probability."""
        p = self.probs(features)
        item = int(inverse_cdf(p, rng.random()))
        return item, float(p[item])


@dataclass
class CriticV:
    spec: ap.ApproxSpec
    params: np.ndarray
    response_index: int
    gamma: float


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
    if not np.all((lam >= 0.0) & (lam < np.inf)):  # NaN fails too
        raise ValueError("Lagrange multipliers must be finite and nonnegative")
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
    held fixed; the gradient is None when the loss is not finite.

    A bank of k critics (``approximator.bank``, gamma a (k, 1) column) takes
    shared states and (k, batch) rewards, and returns one loss per member (a
    list) and the (k, n) gradient, None when some loss is not finite."""
    v, pullback = ap.forward_pullback(critic.spec, critic.params, s)
    v2 = ap.forward(critic.spec, critic.params, s2)[..., 0]
    err = v[..., 0] - td_target(r_i, critic.gamma, v2, done)
    loss = np.mean(err * err, axis=-1)
    if not np.isfinite(loss).all():
        return loss.tolist(), None
    return loss.tolist(), pullback((2.0 * err / err.shape[-1])[..., None])[0]


def _logged_probs(policies, s, a_idx) -> np.ndarray:
    """(len(policies), batch) probabilities each policy gives the logged
    actions, from one stacked pass."""
    if a_idx is None:
        raise ValueError("batch lacks action indices")
    policies = ap.bank(policies)
    p = ap.forward(policies.spec, policies.params, s)
    # take_along_axis keeps the rows C-ordered; p[:, rows, a_idx] would not,
    # and constrained_weights_batch's matmul sums in memory order
    return np.take_along_axis(p, a_idx[None, :, None], axis=-1)[..., 0]


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


def _policy_loglik_grad(policy: StochasticPolicy, s, a_idx, weights, forward=None):
    """Gradient of mean_b weights_b * log pi(a_b | s_b) wrt policy params,
    from ``forward`` (the policy's ``forward_pullback`` on s) if given."""
    p, pullback = forward or ap.forward_pullback(policy.spec, policy.params, s)
    chosen = p[np.arange(a_idx.size), a_idx]
    upstream = np.zeros_like(p)
    upstream[np.arange(a_idx.size), a_idx] = weights / (a_idx.size * chosen)
    return pullback(upstream)[0], chosen


def loglik_ascent(policy: StochasticPolicy, s, a_idx, w, opt: ap.OptState, forward=None):
    """One Adam ascent step on mean_b w_b * log pi(a_b | s_b), the actor step
    of every weighted log-likelihood update.  Rows with a non-finite weight
    are dropped first.  Returns the new policy, the optimizer state, the
    objective and the mean kept weight (both nan when no row is left).

    ``forward`` is the policy's ``forward_pullback`` on ``s`` when the caller
    has run it already; it is used unless rows are dropped."""
    if a_idx is None:
        raise ValueError("batch lacks action indices")
    keep = np.isfinite(w)
    if not np.all(keep):
        s, a_idx, w = gather((s, a_idx, w), keep)
        forward = None
    if a_idx.size == 0:
        return policy, opt, float("nan"), float("nan")
    grads, chosen = _policy_loglik_grad(policy, s, a_idx, w, forward)
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
    (variance control; 0 disables it).  Requires clip_max > 0 and 0 <= floor
    <= clip_max, as ``TwoStageConfig`` does."""
    if not (clip_max > 0.0 and 0.0 <= floor <= clip_max):  # NaN fails too
        raise ValueError(f"need clip_max > 0 and 0 <= floor <= clip_max, got "
                         f"clip_max={clip_max} and floor={floor}")
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
    denominator are constants.  The main policy runs once, for both the
    denominator and the ascent step, and the auxiliaries as one stacked pass."""
    policy, critic = policy_set.main
    s, a_idx, r, s2, done = batch
    v, target = td_errors(critic, s, r[:, 0], s2, done)
    adv = target - v
    keep = np.isfinite(adv)
    if not np.all(keep):
        s, a_idx, adv, behavior_prob = gather((s, a_idx, adv, behavior_prob), keep)
    aux_p = _logged_probs([p for p, _ in policy_set.auxiliaries], s, a_idx)
    forward = ap.forward_pullback(policy.spec, policy.params, s)
    cur = forward[0][np.arange(a_idx.size), a_idx] if behavior_prob is None else behavior_prob
    w = constrained_weights_batch(aux_p, cur, policy_set.lambdas, adv, clip_max, weight_floor)
    policy, opt, objective, mean_weight = loglik_ascent(policy, s, a_idx, w, opt, forward)
    return policy, opt, {"objective": objective, "mean_weight": mean_weight}


def policy_kl(p_policy: StochasticPolicy, q_policy: StochasticPolicy, states):
    """Mean over states of KL(p || q), computed exactly per state.  A bank
    of q policies (``approximator.bank``) gives one KL per member, as a
    list, from one pass of p and one stacked pass of q."""
    p = ap.forward(p_policy.spec, p_policy.params, states)
    q = ap.forward(q_policy.spec, q_policy.params, states)
    return np.mean(np.sum(p * (np.log(p) - np.log(q)), axis=-1), axis=-1).tolist()


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

    def __post_init__(self):
        check_config(self, iterations=("stage1_iters", "stage2_iters"),
                     counts=("episodes_per_iter", "critic_steps", "divergence_patience"),
                     positive=("actor_lr", "critic_lr", "clip_max", "divergence_threshold"),
                     rules=(("weight_floor must lie in [0, clip_max]",
                             0 <= self.weight_floor <= self.clip_max),))


def collect_batch(sim: SessionSimulator, policies, rngs, episode_seeds) -> list:
    """Fresh on-policy episodes for a bank of same-shape policies, rolled in
    lockstep: member j rolls one episode per seed in ``episode_seeds[j]``,
    drawing its actions from ``rngs[j]``.  Returns one ``(batch,
    mean_rewards)`` per member: its ``batch_arrays`` tuple (views of the
    rollout's columns) and the mean over its episodes of the cumulative
    reward vectors.

    RNG contract (``sim.rollout``): each episode draws, from its own stream
    and when it starts, its length, its initial features, its dense-noise
    block and its sparse-uniform block, once per distinct seed, so members
    given the same seeds (as stage one's auxiliaries are) roll the same
    episodes.  ``rngs[j]`` serves member j's actions in episode order, so
    each member's batch, and the state of its generator afterwards, are
    bit-identical to running its episodes one after another with
    ``policy.sample(features, rngs[j])``, whatever the other members do."""
    bank = ap.bank(policies)
    rows = ap.row_evaluator(bank.spec, bank.params)  # one stacked pass per step
    n = bank.spec.output_dim
    data = rollout(sim, lambda features, live: rows(features).reshape(-1, n)[live],
                   rngs, episode_seeds)
    width = len(data.session_ids) // len(policies)
    out = []
    for j in range(len(policies)):
        bounds = data.offsets[j * width:(j + 1) * width + 1]
        totals = [data.responses[lo:hi].sum(axis=0) for lo, hi in zip(bounds[:-1], bounds[1:])]
        out.append((data.arrays(slice(bounds[0], bounds[-1])), np.mean(totals, axis=0)))
    return out


class _DivergenceWatch:
    """The online divergence rule: raise once the critic loss has been above
    ``threshold``, or non-finite, for ``patience`` iterations in a row.

    The two rules differ because their losses do.  Online, each iteration's
    loss is taken on a fresh on-policy batch whose states and rewards move
    with the policy, so one large loss may be a batch of rare large returns
    that the critic then fits; only a run of them marks divergence, and the
    scale that counts as large is a config field.  Offline
    (``_check_critic_loss``), every minibatch comes from one fixed logged
    dataset, so no threshold on the loss's size holds across datasets, and
    the one loss that cannot recover is a non-finite one: it reaches the
    parameters at the next step.  Waiting would only spend updates, so the
    offline rule raises at once, naming the response and step."""

    def __init__(self, threshold, patience):
        self.threshold, self.patience, self.run = threshold, patience, 0

    def check(self, loss, where):
        self.run = self.run + 1 if (not np.isfinite(loss) or loss > self.threshold) else 0
        if self.run >= self.patience:
            raise TrainingDiverged(
                f"critic loss above {self.threshold} for {self.run} consecutive "
                f"iterations during {where} (last loss {loss})")


def _actor_critic(sim: SessionSimulator, stage: int, responses, gammas, iters: int,
                  cfg: TwoStageConfig, master_seed: int, actor_step, metrics: list | None):
    """The on-policy actor-critic loop of both stages, for a bank of
    independent learners, one per entry of ``responses`` (seed streams as
    ``seeding`` names them); returns their trained (policy, critic) pairs.

    Each iteration rolls one set of episodes, named without the response
    and shared by every member (common random numbers: equal batch lengths
    and first states), in one ``collect_batch``; each member draws its
    actions from its own stream.  Then each member in turn, on its own
    batch, takes ``cfg.critic_steps`` critic steps, checks its divergence
    watch, takes the actor step ``actor_step(policy, critic, batch, opt) ->
    (policy, opt, fields)`` and appends its metric row, with ``fields``
    after the critic loss.  A diverging member raises TrainingDiverged
    naming its response and iteration; the earliest iteration wins, then
    the first member."""
    c, s, name = sim.config, f"s{stage}", ("one", "two")[stage - 1]
    paths = [(i,) if i else () for i in responses]
    policies = [make_policy(c.state_dim, c.n_items, cfg.hidden,
                            derive_seed(master_seed, f"{s}-actor", *path), i)
                for path, i in zip(paths, responses)]
    critics = [make_critic(c.state_dim, cfg.hidden,
                           derive_seed(master_seed, f"{s}-critic", *path), i, gammas[i])
               for path, i in zip(paths, responses)]
    a_opts = [ap.init_opt_state(p.params.size, cfg.actor_lr) for p in policies]
    c_opts = [ap.init_opt_state(v.params.size, cfg.critic_lr) for v in critics]
    rngs = [rng_for(master_seed, f"{s}-actions", *path) for path in paths]
    watches = [_DivergenceWatch(cfg.divergence_threshold, cfg.divergence_patience)
               for _ in paths]

    for it in range(iters):
        episodes = [derive_seed(master_seed, f"{s}-ep", it, e)
                    for e in range(cfg.episodes_per_iter)]
        batches = collect_batch(sim, policies, rngs, [episodes] * len(paths))
        for j, (batch, mean_rewards) in enumerate(batches):
            loss = float("nan")
            for _ in range(cfg.critic_steps):
                critics[j], c_opts[j], loss = critic_update(critics[j], batch, c_opts[j])
            where = ", ".join([f"response {i}" for i in paths[j]] + [f"iteration {it}"])
            watches[j].check(loss, f"stage {name} ({where})")
            policies[j], a_opts[j], fields = actor_step(policies[j], critics[j], batch,
                                                        a_opts[j])
            if metrics is not None:
                row = {"iteration": it, "stage": stage, "response": responses[j],
                       "critic_loss": loss, **fields}
                row.update((f"reward_{r}", x) for r, x in enumerate(mean_rewards))
                metrics.append(row)
    return list(zip(policies, critics))


def _aux_step(policy, critic, batch, opt):
    """Stage one's actor step: ``actor_update_aux``, with its row fields."""
    policy, opt, info = actor_update_aux(policy, critic, batch, opt)
    return policy, opt, {"actor_objective": info["objective"], "mean_weight": ""}


def _check_pretrained_aux(pairs, c) -> list:
    """``pretrained_aux`` as a list, checked against the simulator: pair j
    must be response j + 1's, with nets that fit its state and item counts."""
    pairs = list(pairs)
    if len(pairs) != c.m - 1:
        raise ValueError("pretrained_aux must supply one pair per auxiliary response")
    for j, (policy, critic) in enumerate(pairs):
        got = (policy.response_index, critic.response_index, policy.spec.input_dim,
               policy.spec.output_dim, critic.spec.input_dim)
        want = (j + 1, j + 1, c.state_dim, c.n_items, c.state_dim)
        if got != want:
            raise ValueError(f"pretrained_aux[{j}]: (policy response, critic response, policy "
                             f"features, items, critic features) is {got}, expected {want}")
    return pairs


def train_two_stage(sim: SessionSimulator, lambdas, gammas, cfg: TwoStageConfig,
                    master_seed: int, pretrained_aux=None,
                    metrics: list | None = None) -> PolicySet:
    """Full two-stage run on a simulator, both stages on one actor-critic
    loop (``_actor_critic``).

    Stage one fits one actor-critic pair per auxiliary response, as one bank
    whose actor step is ``actor_update_aux``; it is skipped if
    ``pretrained_aux`` supplies the pairs (response 1's first), e.g. when
    sweeping multipliers that only affect stage two.  Stage two trains the
    main pair as a bank of one whose actor step is ``actor_update_main``
    against the frozen auxiliaries.

    ``metrics`` receives one row per auxiliary and stage-one iteration,
    iteration-major (every auxiliary's row of iteration 0 in response order,
    then iteration 1, ...), then one row per stage-two iteration, which adds
    the mean constrained weight and the KL from the main policy to each
    auxiliary (``kl_aux_<j>``).
    """
    c = sim.config
    gammas = check_discounts(gammas, c.m)
    lam = validate_lambdas(lambdas, c.m - 1)

    if pretrained_aux is None:
        aux_pairs = _actor_critic(sim, 1, range(1, c.m), gammas, cfg.stage1_iters, cfg,
                                  master_seed, _aux_step, metrics)
    else:
        aux_pairs = _check_pretrained_aux(pretrained_aux, c)
    aux_bank = ap.bank([p for p, _ in aux_pairs])

    def constrained_step(policy, critic, batch, opt):
        pset = PolicySet((policy, critic), aux_pairs, lam, gammas)
        policy, opt, info = actor_update_main(pset, batch, opt, cfg.clip_max, cfg.weight_floor)
        fields = {"actor_objective": info["objective"], "mean_weight": info["mean_weight"]}
        if metrics is not None:
            kls = policy_kl(policy, aux_bank, batch[0])
            fields.update((f"kl_aux_{j}", kl) for j, kl in enumerate(kls, start=1))
        return policy, opt, fields

    main, = _actor_critic(sim, 2, [0], gammas, cfg.stage2_iters, cfg, master_seed,
                          constrained_step, metrics)
    return PolicySet(main, aux_pairs, lam, gammas)
