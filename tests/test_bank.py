"""Banks of same-shape nets: k members stacked on a leading axis of the
params give exactly (==) what k separate nets give.

The oracles below are the sequential trainer loops that preceded the bank
(one stage-one pipeline after another, one critic step after another),
kept verbatim apart from their names and their critics' weight rows; the
updates they call run unbanked.  They read each critic's reward as a
response column (``r @ w`` only for a weighted sum), and the DDPG loop
takes its critic step from ``test_one_pass.ref_q_critic_update``, so they
stay independent of ``stochastic.critic_rewards``.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactor import approximator as ap
from cactor import deterministic as det
from cactor import offline as off
from cactor import stochastic as stx
from cactor.core import check_discounts, td_target
from cactor.seeding import derive_seed
from cactor.sim import (ReviewDatasetConfig, SimConfig, UniformRandomPolicy,
                        generate_offline_dataset, generate_review_dataset)
from test_one_pass import assert_same, ref_loglik_ascent, ref_q_critic_update

# ---------------------------------------------------------------------------
# sequential oracles
# ---------------------------------------------------------------------------


def ref_rewards(r, w):
    """The rewards of weight row ``w``: a response column when ``w`` is one-hot."""
    hot = np.flatnonzero(w)
    return r[:, hot[0]] if hot.size == 1 and w[hot[0]] == 1.0 else r @ w


def ref_train_ddpg_core(data, n_items, gammas_per_critic, weights_per_critic, cfg,
                        master_seed, lambdas=None, aux_policies=None, stage_label=2,
                        response_label=0, items=None):
    state_dim = data[0].shape[1]
    if items is None:
        items = det.init_item_table(n_items, cfg.embed_dim, derive_seed(master_seed, "items"))
    items_opt = ap.init_opt_state(items.size, cfg.items_lr)

    policy = det.make_det_policy(state_dim, cfg.embed_dim, cfg.hidden,
                                 derive_seed(master_seed, "actor", response_label))
    critics = [stx.make_critic(state_dim + cfg.embed_dim, cfg.hidden,
                               derive_seed(master_seed, "critic", response_label, j), w, g)
               for j, (w, g) in enumerate(zip(weights_per_critic, gammas_per_critic))]
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
        batch = stx.gather(data, rng.integers(len(data[0]), size=cfg.batch_size))
        losses = []
        for j, critic in enumerate(critics):
            rewards = ref_rewards(batch[2], critic.weights)
            critic, c_opts[j], loss, item_grad = ref_q_critic_update(
                critic, target_critics[j], target_policy, items, batch, rewards, c_opts[j])
            stx._check_critic_loss(loss, names[j], step)
            critics[j] = critic
            losses.append(loss)
            flat, items_opt = ap.optimizer_step(items.ravel(), item_grad.ravel(),
                                                items_opt, "minimize")
            items = flat.reshape(items.shape)

        if aux_policies is not None:
            policy, a_opt, info = det.constrained_det_actor_update(
                policy, ap.bank(aux_policies), critics[0], lambdas, batch, a_opt)
        else:
            policy, a_opt, mean_q = det.ddpg_actor_update(policy, critics[0], batch, a_opt,
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
    return det.DDPGPipeline(policy, critics, items, metrics)


def ref_train_constrained_ddpg(dataset, lambdas, gammas, cfg, master_seed):
    gammas = check_discounts(gammas, dataset.m)
    lam = stx.validate_lambdas(lambdas, dataset.m - 1)

    data = dataset.arrays()
    n_items = int(dataset.metadata["n_items"])
    metrics = []
    aux_policies = []
    items = det.init_item_table(n_items, cfg.embed_dim, derive_seed(master_seed, "items"))
    rows = np.eye(dataset.m)
    for i in range(1, dataset.m):
        pipe = ref_train_ddpg_core(data, n_items, [gammas[i]], [rows[i]], cfg, master_seed,
                                   stage_label=1, response_label=i, items=items.copy())
        aux_policies.append(pipe.policy)
        metrics.extend(pipe.metrics)

    pipe = ref_train_ddpg_core(data, n_items, [gammas[0]], [rows[0]], cfg, master_seed,
                               lambdas=lam, aux_policies=aux_policies, items=items.copy())
    metrics.extend(pipe.metrics)
    return det.DDPGPipeline(pipe.policy, pipe.critics, pipe.items, metrics)


def ref_multi_critic_train(dataset, gammas, mode, cfg, master_seed):
    data = dataset.arrays()
    state_dim = data[0].shape[1]
    rng = np.random.Generator(np.random.PCG64(derive_seed(master_seed, "mc-batches")))

    if mode == "single_summed":
        gamma, = check_discounts(gammas, 1)
        critics = [stx.make_critic(state_dim, cfg.hidden, derive_seed(master_seed, "mc", 0),
                                   np.ones(dataset.m), gamma)]
        names = ["the summed response"]
    else:
        gammas = check_discounts(gammas, dataset.m)
        critics = [stx.make_critic(state_dim, cfg.hidden, derive_seed(master_seed, "mc", i),
                                   np.eye(dataset.m)[i], gammas[i])
                   for i in range(dataset.m)]
        names = [f"response {i}" for i in range(dataset.m)]
    opts = [ap.init_opt_state(c.params.size, cfg.lr) for c in critics]

    for it in range(cfg.iters):
        s, _, r, s2, done = stx.gather(data, rng.integers(len(data[0]), size=cfg.batch_size))
        if mode == "single_summed":
            r = r.sum(axis=1)[:, None]
        grads = []
        for i, critic in enumerate(critics):
            loss, g = stx.critic_loss_grad(critic, s, r[:, i], s2, done)
            stx._check_critic_loss(loss, names[i], it)
            grads.append(g)
        for i, (critic, g) in enumerate(zip(critics, grads)):
            params, opts[i] = ap.optimizer_step(critic.params, g, opts[i], "minimize")
            critics[i] = replace(critic, params=params)
    return critics


def ref_logged_probs(policies, s, a_idx):
    rows = np.arange(a_idx.size)
    return np.stack([ap.forward(p.spec, p.params, s)[rows, a_idx] for p in policies])


def ref_actor_update_main(policy_set, batch, opt, clip_max=20.0, weight_floor=0.0,
                          behavior_prob=None):
    policy, critic = policy_set.main
    s, a_idx, r, s2, done = batch
    v, target = stx.td_errors(critic, s, r[:, 0], s2, done)
    adv = target - v
    keep = np.isfinite(adv)
    if not np.all(keep):
        s, a_idx, adv, behavior_prob = stx.gather((s, a_idx, adv, behavior_prob),
                                                    np.flatnonzero(keep))
    aux = [p for p, _ in policy_set.auxiliaries]
    if behavior_prob is None:
        p = ref_logged_probs([policy] + aux, s, a_idx)
        cur, aux_p = p[0], p[1:]
    else:
        cur, aux_p = behavior_prob, ref_logged_probs(aux, s, a_idx)
    w = stx.constrained_weights_batch(aux_p, cur, policy_set.lambdas, adv, clip_max,
                                      weight_floor)
    policy, opt, objective, mean_weight = ref_loglik_ascent(policy, s, a_idx, w, opt)
    return policy, opt, {"objective": objective, "mean_weight": mean_weight}


# ---------------------------------------------------------------------------
# the net and the optimizer
# ---------------------------------------------------------------------------


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(ap.ACTIVATIONS), st.integers(0, 2),
       st.integers(1, 70), st.integers(1, 5), st.sampled_from(["shared", "member", "1-d"]))
def test_stacked_forward_pullback_equals_single_calls(seed, head, depth, batch, k, inputs):
    rng = np.random.default_rng(seed)
    hidden = tuple(int(rng.integers(1, 20)) for _ in range(depth))
    spec = ap.ApproxSpec(int(rng.integers(1, 12)), hidden, int(rng.integers(1, 12)), head,
                         seed=seed)
    params = np.stack([ap.init_params(replace(spec, seed=seed + i)) * rng.uniform(0.5, 3.0)
                       for i in range(k)])
    d, o = spec.input_dim, spec.output_dim
    shape = {"shared": (batch, d), "member": (k, batch, d), "1-d": (d,)}[inputs]
    x = rng.normal(size=shape) * 2
    upstream = rng.normal(size=(k, o) if inputs == "1-d" else (k, batch, o))

    out, pullback = ap.forward_pullback(spec, params, x)
    param_grad, input_grad = pullback(upstream, wrt="both")
    assert out.shape == upstream.shape and param_grad.shape == params.shape
    assert input_grad.shape == ((k, d) if inputs == "1-d" else (k, batch, d))
    for i in range(k):
        x_i = x[i] if inputs == "member" else x
        out_i, pullback_i = ap.forward_pullback(spec, params[i], x_i)
        assert_same(out[i], out_i)
        assert_same((param_grad[i], input_grad[i]), pullback_i(upstream[i], wrt="both"))
        assert_same(pullback(upstream)[0][i], pullback_i(upstream[i])[0])


def test_optimizer_step_on_a_bank_equals_single_steps():
    rng = np.random.default_rng(0)
    params = rng.normal(size=(4, 9))
    bank_opt = ap.init_opt_state(params.shape, 0.01)
    singles = [(params[i], ap.init_opt_state(9, 0.01)) for i in range(4)]
    for step in range(5):
        grads = rng.normal(size=params.shape)
        direction = ("minimize", "maximize")[step % 2]
        params, bank_opt = ap.optimizer_step(params, grads, bank_opt, direction)
        singles = [ap.optimizer_step(p, g, o, direction) for (p, o), g in zip(singles, grads)]
        for i, (p, o) in enumerate(singles):
            assert_same(params[i], p)
            assert_same((bank_opt.first_moment[i], bank_opt.second_moment[i]),
                        (o.first_moment, o.second_moment))
            assert bank_opt.step_count == o.step_count


def test_bank_rejects_members_of_different_architectures():
    a = stx.make_policy(3, 4, (5,), seed=0)
    b = stx.make_policy(3, 4, (6,), seed=1)
    assert ap.bank([a, replace(a, spec=replace(a.spec, seed=9))]).params.shape == (2, 44)
    with pytest.raises(ValueError, match="share one architecture"):
        ap.bank([a, b])
    with pytest.raises(ValueError, match="at least one member"):
        ap.bank([])


def test_td_target_takes_a_per_member_gamma_column():
    rng = np.random.default_rng(1)
    r, v, done = rng.normal(size=(3, 8)), rng.normal(size=(3, 8)), rng.random((3, 8)) < 0.3
    gammas = np.array([0.0, 0.5, 0.99])
    got = td_target(r, gammas[:, None], v, done)
    for i, g in enumerate(gammas):
        assert_same(got[i], td_target(r[i], g, v[i], done[i]))
    for bad in (1.0, -0.1, np.nan):
        with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\)"):
            td_target(r, np.array([[0.5], [bad], [0.9]]), v, done)


# ---------------------------------------------------------------------------
# banked updates against their members
# ---------------------------------------------------------------------------


def ref_item_grad(critic, target_critic, target_policy, items, batch, rewards):
    """``q_critic_update``'s item-table gradient, scattered through the
    ``np.indices`` row index it was built with before ``member_rows``."""
    s, a_idx, _, s2, done = batch
    rows = (*np.indices(a_idx.shape, sparse=True)[:-1], a_idx)
    q2 = det.q_value(target_critic, s2, target_policy.act(s2))
    y = td_target(rewards, critic.gamma, q2, done)
    q, pullback = ap.forward_pullback(critic.spec, critic.params,
                                      np.concatenate([s, items[rows]], axis=-1))
    err = q[..., 0] - y
    in_grad = pullback((2.0 * err / err.shape[-1])[..., None], wrt="both")[1]
    item_grad = np.zeros_like(items)
    np.add.at(item_grad, rows, in_grad[..., s.shape[-1]:])
    return item_grad


@pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 3)], ids=str)
def test_member_rows_equal_the_np_indices_row_index(lead):
    rows = det.member_rows(lead)
    want = np.indices((*lead, 24), sparse=True)[:-1]
    assert len(rows) == len(want) == len(lead)
    for got, ix in zip(rows, want):
        assert got.dtype == ix.dtype and got.shape == ix.shape and (got == ix).all()
        assert not got.flags.writeable
    assert det.member_rows(lead) is rows  # built once per shape


@pytest.mark.parametrize("k", [None, 1, 3], ids=["lone", "bank-of-1", "bank-of-3"])
def test_q_critic_update_item_gradient_equals_np_indices_scatter(k):
    rng = np.random.default_rng(5)
    n, state_dim, embed, n_items = 24, 5, 3, 7  # few items, so rows repeat
    lead = () if k is None else (k,)
    members = range(k or 1)
    policies = [det.make_det_policy(state_dim, embed, (6,), seed=i) for i in members]
    critics = [stx.make_critic(state_dim + embed, (6,), 10 + i, [1.0, 0.0], 0.9)
               for i in members]
    critic, policy = (critics[0], policies[0]) if k is None else (
        stx.critic_bank(critics), ap.bank(policies))
    items = rng.normal(size=(*lead, n_items, embed))
    batch = (rng.normal(size=(*lead, n, state_dim)), rng.integers(n_items, size=(*lead, n)),
             rng.normal(size=(*lead, n, 2)), rng.normal(size=(*lead, n, state_dim)),
             rng.random((*lead, n)) < 0.2)
    opt = ap.init_opt_state(critic.params.shape)
    got = det.q_critic_update(critic, critic, policy, items, batch, opt)[3]
    assert_same(got, ref_item_grad(critic, critic, policy, items, batch, batch[2][..., 0]))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(), (1,), (3,), (2, 3)]),
       st.integers(1, 5), st.integers(1, 40), st.integers(1, 4))
def test_item_table_grad_equals_np_add_at(seed, lead, n_items, n, embed):
    """bincount's sums start from +0.0 and add in row order, as np.add.at's
    do, so the bits agree, signed zeros included; few items repeat rows."""
    rng = np.random.default_rng(seed)
    items = rng.normal(size=(*lead, n_items, embed))
    rows = (*det.member_rows(lead), rng.integers(n_items, size=(*lead, n)))
    row_grads = rng.normal(size=(*lead, n, embed))
    zeros = rng.random(row_grads.shape)
    row_grads[zeros < 0.3] = 0.0
    row_grads[zeros > 0.7] = -0.0
    want = np.zeros_like(items)
    np.add.at(want, rows, row_grads)
    got = det.item_table_grad(items, rows, row_grads)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_q_critic_update_on_a_bank_with_member_rewards_equals_member_calls():
    rng = np.random.default_rng(7)
    k, n, state_dim, embed, n_items = 3, 20, 5, 3, 7
    gammas = (0.9, 0.5, 0.7)
    policies = [det.make_det_policy(state_dim, embed, (6,), seed=i) for i in range(k)]
    critics = [stx.make_critic(state_dim + embed, (6,), 10 + i, np.eye(k)[i], g)
               for i, g in enumerate(gammas)]
    targets = [stx.make_critic(state_dim + embed, (6,), 20 + i, np.eye(k)[i], g)
               for i, g in enumerate(gammas)]
    items = rng.normal(size=(k, n_items, embed))
    batch = (rng.normal(size=(k, n, state_dim)), rng.integers(n_items, size=(k, n)),
             rng.normal(size=(k, n, k)), rng.normal(size=(k, n, state_dim)),
             rng.random((k, n)) < 0.2)
    got = det.q_critic_update(stx.critic_bank(critics), stx.critic_bank(targets),
                              ap.bank(policies), items, batch,
                              ap.init_opt_state((k, critics[0].params.size), 3e-3))
    for i in range(k):
        want = det.q_critic_update(critics[i], targets[i], policies[i], items[i],
                                   tuple(x[i] for x in batch),
                                   ap.init_opt_state(critics[i].params.size, 3e-3))
        assert_same(got[0].params[i], want[0].params)
        assert_same((got[1].first_moment[i], got[1].second_moment[i]),
                    (want[1].first_moment, want[1].second_moment))
        assert got[2][i] == want[2]
        assert_same(got[3][i], want[3])


def two_critic_bank(ds):
    """Critics of ``ds``'s responses 1 and 2 (discounts 0.9 and 0.5) and their bank."""
    rows, state_dim = np.eye(ds.m), ds.states.shape[1]
    critics = [stx.make_critic(state_dim, (5,), seed=1, weights=rows[1], gamma=0.9),
               stx.make_critic(state_dim, (5,), seed=2, weights=rows[2], gamma=0.5)]
    return critics, stx.critic_bank(critics)


def test_critic_update_on_a_bank_equals_member_calls():
    ds = review_dataset()
    critics, bank = two_critic_bank(ds)
    batch = stx.batch_arrays(ds.trajectories[0].transitions)
    got = stx.critic_update(bank, batch, ap.init_opt_state(bank.params.shape, 1e-2))
    for i, critic in enumerate(critics):
        want = stx.critic_update(critic, batch, ap.init_opt_state(critic.params.size, 1e-2))
        assert_same(got[0].params[i], want[0].params)
        assert_same((got[1].first_moment[i], got[1].second_moment[i]),
                    (want[1].first_moment, want[1].second_moment))
        assert got[2][i] == want[2]


@pytest.mark.parametrize("update", ["actor_update_aux", "offline_actor_update_aux",
                                    "actor_update_main"])
def test_actor_updates_reject_a_critic_bank(update):
    """These updates pair one policy with one critic, and ``td_errors``
    reads one value column, so a bank is an error."""
    ds = review_dataset()
    _, bank = two_critic_bank(ds)
    n_items = int(ds.metadata["n_items"])
    pset = stx.build_policy_set(ds.states.shape[1], n_items, ds.m, np.ones(ds.m - 1),
                                np.full(ds.m, 0.9), (5,), seed=3)
    policy = pset.main[0]
    pset.main = (policy, bank)
    traj = ds.trajectories[0]
    batch = stx.batch_arrays(traj.transitions)
    opt = ap.init_opt_state(policy.params.size)
    calls = {
        "actor_update_aux": lambda: stx.actor_update_aux(policy, bank, batch, opt),
        "offline_actor_update_aux": lambda: off.offline_actor_update_aux(
            policy, bank, [(traj, t) for t in range(len(traj))], off.ISConfig(), opt),
        "actor_update_main": lambda: stx.actor_update_main(pset, batch, opt),
    }
    with pytest.raises(ValueError, match="^td_errors takes one critic, not a bank"):
        calls[update]()


def weighted_critics(rows):
    """One critic per weight row (``make_critic``'s 3 features, no hidden layer)."""
    return [stx.make_critic(3, (), seed=0, weights=w, gamma=0.9) for w in rows]


def test_critic_rewards_rejects_weights_that_do_not_fit():
    lone, = weighted_critics([np.ones(4)])
    with pytest.raises(ValueError, match=re.escape("have shape (4,), expected (2,)")):
        stx.critic_rewards(lone, np.zeros((5, 2)))
    # approximator.bank alone keeps member 0's row: loud, not shared
    bank = ap.bank(weighted_critics(np.eye(2)))
    with pytest.raises(ValueError, match=re.escape("have shape (2,), expected (2, 2)")):
        stx.critic_rewards(bank, np.zeros((5, 2)))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(1, 6), st.integers(1, 40), st.sampled_from([None, 1, 3]), st.booleans(),
       st.data())
def test_one_hot_rewards_equal_the_response_column(m, batch, k, shared, data):
    """``r @ e_i`` is ``r[..., i]`` in dtype, shape and bytes, for one critic
    and for a bank on shared or per-member responses.  Responses are finite
    (a dataset's must be), and zeros are drawn as +0.0: the product's sum
    reads -0.0 as 0.0."""
    shape = (batch, m) if shared or k is None else (k, batch, m)
    finite = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0)
    size = int(np.prod(shape))
    r = np.array(data.draw(st.lists(finite, min_size=size, max_size=size))).reshape(shape)
    cols = data.draw(st.lists(st.integers(0, m - 1), min_size=k or 1, max_size=k or 1))
    critics = weighted_critics(np.eye(m)[cols])
    if k is None:
        got, want = stx.critic_rewards(critics[0], r), r[:, cols[0]]
    else:
        got = stx.critic_rewards(stx.critic_bank(critics), r)
        want = np.stack([(r if shared else r[j])[:, c] for j, c in enumerate(cols)])
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_stage_one_critics_are_named_for_their_own_response():
    ds = ddpg_dataset()
    pipes = det._train_ddpg_core(ds.arrays(), int(ds.metadata["n_items"]), [[0.9], [0.8]],
                                 np.eye(3)[1:, None], SMALL_DDPG, 3, [1, 2], stage_label=1)
    assert [p.critics[0].weights.tolist() for p in pipes] == [[0, 1, 0], [0, 0, 1]]
    assert [p.critics[0].gamma for p in pipes] == [0.9, 0.8]


def test_constrained_det_actor_update_on_a_bank_equals_member_updates():
    rng = np.random.default_rng(2)
    k, n, state_dim, embed = 3, 20, 5, 3
    policies = [det.make_det_policy(state_dim, embed, (6,), seed=i) for i in range(k)]
    critics = [stx.make_critic(state_dim + embed, (6,), 10 + i, [1.0], 0.9) for i in range(k)]
    aux = [det.make_det_policy(state_dim, embed, (6,), seed=20 + i) for i in range(2)]
    s = rng.normal(size=(k, n, state_dim))
    lam = np.array([0.5, 1.5])
    opt = ap.init_opt_state((k, policies[0].params.size))
    got = det.constrained_det_actor_update(ap.bank(policies), ap.bank(aux),
                                           stx.critic_bank(critics), lam, (s,), opt)
    for i in range(k):
        want = det.constrained_det_actor_update(policies[i], ap.bank(aux), critics[i], lam,
                                                (s[i],),
                                                ap.init_opt_state(policies[i].params.size))
        assert_same(got[0].params[i], want[0].params)
        assert_same({key: v[i] for key, v in got[2].items()}, want[2])


@pytest.mark.parametrize("behavior", [False, True])
@pytest.mark.parametrize("bad_rows", [[], [3, 17]])
@pytest.mark.parametrize("m", [3, 8])
def test_actor_update_main_equals_two_pass_original(behavior, bad_rows, m):
    pset = stx.build_policy_set(5, 7, m, np.linspace(0.6, 1.4, m - 1), np.full(m, 0.9), (6,),
                                seed=4)
    rng = np.random.default_rng(3)
    batch = (rng.normal(size=(64, 5)), rng.integers(7, size=64).astype(np.intp),
             rng.normal(size=(64, m)), rng.normal(size=(64, 5)), rng.random(64) < 0.2)
    batch[2][bad_rows, 0] = np.inf  # non-finite advantages: the rows are dropped
    bp = rng.uniform(0.05, 1.0, size=64) if behavior else None
    opt = ap.init_opt_state(pset.main[0].params.size, 5e-3)
    assert_same(stx.actor_update_main(pset, batch, opt, 20.0, 0.05, bp),
                ref_actor_update_main(pset, batch, opt, 20.0, 0.05, bp))


def test_policy_kl_of_a_bank_equals_one_kl_per_member():
    rng = np.random.default_rng(5)
    main = stx.make_policy(4, 6, (5,), seed=0)
    aux = [stx.make_policy(4, 6, (5,), seed=i) for i in (1, 2, 3)]
    states = rng.normal(size=(17, 4))
    assert_same(stx.policy_kl(main, ap.bank(aux), states),
                [stx.policy_kl(main, q, states) for q in aux])


# ---------------------------------------------------------------------------
# banked trainers against the sequential loops
# ---------------------------------------------------------------------------


def ddpg_dataset():
    cfg = SimConfig(seed=11, n_items=8, state_dim=5, m=3, session_length_range=(4, 7))
    return generate_offline_dataset(cfg, UniformRandomPolicy(cfg.n_items), 25)


SMALL_DDPG = det.DDPGConfig(updates=12, batch_size=16, hidden=(8,), embed_dim=3,
                            target_refresh=5, log_every=4)


@pytest.mark.parametrize("master_seed", [1, 2, 3])
def test_train_constrained_ddpg_equals_sequential_pipelines(master_seed):
    ds = ddpg_dataset()
    args = (ds, [0.7, 1.3], [0.9, 0.8, 0.6], SMALL_DDPG, master_seed)
    assert_same(det.train_constrained_ddpg(*args), ref_train_constrained_ddpg(*args))


def test_rcpo_and_weighted_sum_equal_their_sequential_loops():
    ds = ddpg_dataset()
    data, n_items = ds.arrays(), int(ds.metadata["n_items"])
    weights = np.array([0.5, 0.3, 0.2])
    assert_same(det.train_ddpg_weighted(ds, weights, 0.9, SMALL_DDPG, 4),
                ref_train_ddpg_core(data, n_items, [0.9], [weights], SMALL_DDPG, 4))
    assert_same(det.train_rcpo(ds, [0.4, 0.9], [0.9, 0.8, 0.7], SMALL_DDPG, 5),
                ref_train_ddpg_core(data, n_items, [0.9, 0.8, 0.7], np.eye(3), SMALL_DDPG, 5,
                                    lambdas=np.array([0.4, 0.9])))


def review_dataset():
    return generate_review_dataset(ReviewDatasetConfig(n_users=6, n_items=5, n_reviews=150,
                                                       min_trajectory_length=4, seed=2))


@pytest.mark.parametrize("mode", ["separate", "single_summed"])
def test_multi_critic_train_equals_sequential_critics(mode):
    ds = review_dataset()
    gammas = np.linspace(0.5, 0.95, ds.m) if mode == "separate" else [0.8]
    cfg = off.MultiCriticConfig(iters=25, batch_size=16, hidden=(6,))
    assert_same(off.multi_critic_train(ds, gammas, mode, cfg, 7),
                ref_multi_critic_train(ds, gammas, mode, cfg, 7))


# ---------------------------------------------------------------------------
# divergence in a bank
# ---------------------------------------------------------------------------


def first_draws(master_seed, label, n_rows, updates, batch_size):
    """Step at which the stage-one member named ``label`` first draws each row."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(master_seed, "ddpg-batches", label)))
    first = {}
    for step in range(updates):
        for row in rng.integers(n_rows, size=batch_size).tolist():
            first.setdefault(row, step)
    return first


def poisoned_run(steps):
    """Stage one of train_constrained_ddpg with response i poisoned (1e300)
    at a row that member i first draws at step ``steps[i]``."""
    ds = ddpg_dataset()
    for label, step in steps.items():
        first = first_draws(9, label, ds.n_transitions, SMALL_DDPG.updates,
                            SMALL_DDPG.batch_size)
        row = min(r for r, t in first.items() if t == step)
        ds.responses[row, label] = 1e300
    det.train_constrained_ddpg(ds, [1.0, 1.0], [0.9, 0.9, 0.9], SMALL_DDPG, 9)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("steps,named", [
    ({1: 7, 2: 3}, "response 2 in stage 1 diverged at iteration 3"),
    ({1: 2, 2: 6}, "response 1 in stage 1 diverged at iteration 2"),
    ({1: 4, 2: 4}, "response 1 in stage 1 diverged at iteration 4"),
])
def test_bank_names_the_earliest_divergence_and_on_a_tie_the_lowest_response(steps, named):
    with pytest.raises(stx.TrainingDiverged, match=f"critic for {named}: loss inf"):
        poisoned_run(steps)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_multi_critic_bank_names_the_lowest_response_of_a_tie():
    ds = review_dataset()
    ds.responses[:, [2, 5]] = 1e300
    with pytest.raises(stx.TrainingDiverged,
                       match="critic for response 2 diverged at iteration 0: loss inf"):
        off.multi_critic_train(ds, np.full(ds.m, 0.9), "separate",
                               off.MultiCriticConfig(iters=3, hidden=(4,)), 1)
