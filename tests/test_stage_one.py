"""Online stage one as one bank: the auxiliaries share one lockstep rollout
per iteration.  Checked against the sequential loop it replaced, with every
episode rolled one row at a time by ``policy.sample``."""

import re
from collections import Counter

import numpy as np
import pytest

from cactor import approximator as ap
from cactor import stochastic as stx
from cactor.seeding import derive_seed, rng_for
from cactor.sim import SessionSimulator, SimConfig, run_episode

CONFIGS = [
    SimConfig(),
    SimConfig(m=2, seed=3),  # a bank of one
    SimConfig(m=6, state_dim=7, seed=5),
    SimConfig(session_length_range=(1, 20), seed=13),
    SimConfig(session_length_range=(5, 5), seed=9),
    SimConfig(dense_noise_std=0.0, seed=7),
]


def sequential_stage_one(sim, i, gamma, cfg, master_seed, metrics):
    """Stage one for response i alone, as it ran before banking; returns the
    pair and its action generator."""
    c = sim.config
    policy = stx.make_policy(c.state_dim, c.n_items, cfg.hidden,
                             derive_seed(master_seed, "s1-actor", i), i)
    critic = stx.make_critic(c.state_dim, cfg.hidden, derive_seed(master_seed, "s1-critic", i),
                             i, gamma)
    a_opt = ap.init_opt_state(policy.params.size, cfg.actor_lr)
    c_opt = ap.init_opt_state(critic.params.size, cfg.critic_lr)
    rng = rng_for(master_seed, "s1-actions", i)
    watch = stx._DivergenceWatch(cfg.divergence_threshold, cfg.divergence_patience)
    for it in range(cfg.stage1_iters):
        seeds = [derive_seed(master_seed, "s1-ep", i, it, e)
                 for e in range(cfg.episodes_per_iter)]
        trajs = [run_episode(sim, lambda f: policy.sample(f, rng), s) for s in seeds]
        batch = stx.batch_arrays([tr for t in trajs for tr in t.transitions])
        totals = [np.sum([tr.response for tr in t.transitions], axis=0) for t in trajs]
        mean_rewards = np.mean(totals, axis=0)
        loss = float("nan")
        for _ in range(cfg.critic_steps):
            critic, c_opt, loss = stx.critic_update(critic, batch, c_opt)
        watch.check(loss, f"stage one (response {i})")
        policy, a_opt, info = stx.actor_update_aux(policy, critic, batch, a_opt)
        row = {"iteration": it, "stage": 1, "response": i, "critic_loss": loss,
               "actor_objective": info["objective"], "mean_weight": ""}
        for r in range(c.m):
            row[f"reward_{r}"] = mean_rewards[r]
        metrics.append(row)
    return policy, critic, rng


@pytest.mark.parametrize("iters", [1, 3])
@pytest.mark.parametrize("sim_cfg", CONFIGS, ids=lambda c: f"m{c.m}-seed{c.seed}")
def test_banked_stage_one_equals_the_sequential_loop(sim_cfg, iters, monkeypatch):
    sim = SessionSimulator(sim_cfg)
    m = sim_cfg.m
    gammas = np.linspace(0.9, 0.5, m)  # one discount per response, so mixing shows
    cfg = stx.TwoStageConfig(stage1_iters=iters, stage2_iters=0, episodes_per_iter=3,
                             hidden=(16,))
    made = {}

    def recording(master, *path):
        made[path] = rng_for(master, *path)
        return made[path]
    monkeypatch.setattr(stx, "rng_for", recording)
    rows = []
    pset = stx.train_two_stage(sim, np.ones(m - 1), gammas, cfg, 5, metrics=rows)

    want_rows = []
    for i in range(1, m):
        policy, critic, rng = sequential_stage_one(sim, i, gammas[i], cfg, 5, want_rows)
        got_policy, got_critic = pset.auxiliaries[i - 1]
        assert got_policy.response_index == got_critic.response_index == i
        assert np.array_equal(got_policy.params, policy.params)
        assert np.array_equal(got_critic.params, critic.params)
        assert got_critic.gamma == critic.gamma
        assert made[("s1-actions", i)].random() == rng.random()

    def key(r):
        return r["stage"], r["response"], r["iteration"]
    assert sorted(rows, key=key) == sorted(want_rows, key=key)
    # the documented order: iteration-major, responses ascending
    assert [(r["iteration"], r["response"]) for r in rows] == [
        (it, i) for it in range(iters) for i in range(1, m)]


@pytest.mark.parametrize("poison, named", [
    ({1: 3, 2: 1}, "response 2, iteration 1"),
    ({1: 1, 3: 2}, "response 1, iteration 1"),
    ({2: 2, 3: 2}, "response 2, iteration 2"),
], ids=["later-response-first", "lower-response-first", "tie"])
def test_divergence_names_the_earliest_iteration_then_the_lowest_response(
        monkeypatch, poison, named):
    """Two members diverge, at the iterations ``poison`` gives."""
    cfg = stx.TwoStageConfig(stage1_iters=5, stage2_iters=0, episodes_per_iter=2,
                             divergence_patience=2, hidden=(8,))
    calls = Counter()
    real = stx.critic_update

    def poisoned(critic, batch, opt):
        i = critic.response_index
        it = calls[i] // cfg.critic_steps
        calls[i] += 1
        critic, opt, loss = real(critic, batch, opt)
        # above the threshold from the iteration before the named one on
        return critic, opt, (float("inf") if it >= poison.get(i, 99) - 1 else loss)
    monkeypatch.setattr(stx, "critic_update", poisoned)
    sim = SessionSimulator(SimConfig(n_items=8, state_dim=6, seed=21))
    with pytest.raises(stx.TrainingDiverged,
                       match=re.escape(f"2 consecutive iterations during stage one ({named})")):
        stx.train_two_stage(sim, [1.0, 1.0, 1.0], [0.9] * 4, cfg, 3)


@pytest.mark.parametrize("field, value", [
    ("stage1_iters", -1),
    ("stage2_iters", -1),
    ("episodes_per_iter", 0),
    ("critic_steps", 0),
    ("divergence_patience", 0),
    ("actor_lr", 0.0),
    ("critic_lr", -1e-3),
    ("clip_max", -1.0),
    ("weight_floor", -0.01),
    ("weight_floor", 21.0),
    ("clip_max", float("nan")),
])
def test_config_rejects_values_that_would_run_silently_wrong(field, value):
    with pytest.raises(ValueError, match=field):
        stx.TwoStageConfig(**{field: value})


def test_config_accepts_its_bounds():
    stx.TwoStageConfig(stage1_iters=0, stage2_iters=0, episodes_per_iter=1, critic_steps=1,
                       divergence_patience=1, weight_floor=0.0)
    stx.TwoStageConfig(clip_max=0.5, weight_floor=0.5)
