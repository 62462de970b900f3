"""Both online stages on one actor-critic loop.  Stage one, the auxiliaries
as one bank sharing one lockstep rollout per iteration, and stage two, the
main pair as a bank of one, are checked against the loops they replaced,
with every episode rolled one row at a time by ``policy.sample``."""

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


def recorded_streams(monkeypatch) -> dict:
    """Each generator that ``stx.rng_for`` makes from now on, by stream path."""
    made = {}

    def recording(master, *path):
        made[path] = rng_for(master, *path)
        return made[path]
    monkeypatch.setattr(stx, "rng_for", recording)
    return made


def sequential_stage_one(sim, i, gamma, cfg, master_seed, metrics):
    """Stage one for response i alone, as it ran before banking; returns the
    pair and its action generator."""
    c = sim.config
    policy = stx.make_policy(c.state_dim, c.n_items, cfg.hidden,
                             derive_seed(master_seed, "s1-actor", i))
    critic = stx.make_critic(c.state_dim, cfg.hidden, derive_seed(master_seed, "s1-critic", i),
                             np.eye(c.m)[i], gamma)
    a_opt = ap.init_opt_state(policy.params.size, cfg.actor_lr)
    c_opt = ap.init_opt_state(critic.params.size, cfg.critic_lr)
    rng = rng_for(master_seed, "s1-actions", i)
    watch = stx._DivergenceWatch(cfg.divergence_threshold, cfg.divergence_patience)
    for it in range(cfg.stage1_iters):
        seeds = [derive_seed(master_seed, "s1-ep", it, e)
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
    made = recorded_streams(monkeypatch)
    rows = []
    pset = stx.train_two_stage(sim, np.ones(m - 1), gammas, cfg, 5, metrics=rows)

    want_rows = []
    for i in range(1, m):
        policy, critic, rng = sequential_stage_one(sim, i, gammas[i], cfg, 5, want_rows)
        got_policy, got_critic = pset.auxiliaries[i - 1]
        assert np.array_equal(got_critic.weights, np.eye(m)[i])
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


def test_auxiliaries_share_episodes_and_draw_their_own_actions(monkeypatch):
    """In one stage-one iteration every auxiliary's batch has the same
    length, episode boundaries and first state of each episode, while its
    actions come from its own policy and its own "s1-actions" stream."""
    sim = SessionSimulator(SimConfig(seed=17))
    c = sim.config
    cfg = stx.TwoStageConfig(stage1_iters=1, stage2_iters=0, episodes_per_iter=4, hidden=(16,))
    seen = []
    real = stx.collect_batch

    def recording(*args):
        out = real(*args)
        seen.append([batch for batch, _ in out])
        return out
    monkeypatch.setattr(stx, "collect_batch", recording)
    stx.train_two_stage(sim, np.ones(c.m - 1), [0.9] * c.m, cfg, 8)

    batches, = seen  # stage one's one iteration; stage two runs none
    assert len(batches) == c.m - 1
    s0, a0, _, _, done0 = batches[0]
    starts = np.concatenate([[0], np.flatnonzero(done0)[:-1] + 1])
    assert starts.size == cfg.episodes_per_iter
    for i, (s, a, _, _, done) in enumerate(batches, start=1):
        assert np.array_equal(done, done0)
        assert np.array_equal(s[starts], s0[starts])
        policy = stx.make_policy(c.state_dim, c.n_items, cfg.hidden,
                                 derive_seed(8, "s1-actor", i))
        rng = rng_for(8, "s1-actions", i)
        assert a.tolist() == [policy.sample(f, rng)[0] for f in s]
    assert not all(np.array_equal(a0, batch[1]) for batch in batches[1:])


def sequential_stage_two(sim, aux_pairs, lambdas, gammas, cfg, master_seed, metrics):
    """Stage two as its own loop ran it before both stages shared one;
    returns the main pair and its action generator."""
    c = sim.config
    policy = stx.make_policy(c.state_dim, c.n_items, cfg.hidden,
                             derive_seed(master_seed, "s2-actor"))
    critic = stx.make_critic(c.state_dim, cfg.hidden, derive_seed(master_seed, "s2-critic"),
                             np.eye(c.m)[0], gammas[0])
    pset = stx.PolicySet((policy, critic), aux_pairs, lambdas, gammas)
    aux_bank = ap.bank([p for p, _ in aux_pairs])
    a_opt = ap.init_opt_state(policy.params.size, cfg.actor_lr)
    c_opt = ap.init_opt_state(critic.params.size, cfg.critic_lr)
    rng = rng_for(master_seed, "s2-actions")
    watch = stx._DivergenceWatch(cfg.divergence_threshold, cfg.divergence_patience)
    for it in range(cfg.stage2_iters):
        seeds = [derive_seed(master_seed, "s2-ep", it, e) for e in range(cfg.episodes_per_iter)]
        trajs = [run_episode(sim, lambda f: pset.main[0].sample(f, rng), s) for s in seeds]
        batch = stx.batch_arrays([tr for t in trajs for tr in t.transitions])
        totals = [np.sum([tr.response for tr in t.transitions], axis=0) for t in trajs]
        mean_rewards = np.mean(totals, axis=0)
        loss = float("nan")
        for _ in range(cfg.critic_steps):
            critic, c_opt, loss = stx.critic_update(pset.main[1], batch, c_opt)
            pset.main = (pset.main[0], critic)
        watch.check(loss, f"stage two (iteration {it})")
        policy, a_opt, info = stx.actor_update_main(pset, batch, a_opt,
                                                    cfg.clip_max, cfg.weight_floor)
        pset.main = (policy, pset.main[1])
        row = {"iteration": it, "stage": 2, "response": 0, "critic_loss": loss,
               "actor_objective": info["objective"], "mean_weight": info["mean_weight"]}
        for r in range(c.m):
            row[f"reward_{r}"] = mean_rewards[r]
        for j, kl in enumerate(stx.policy_kl(policy, aux_bank, batch[0]), start=1):
            row[f"kl_aux_{j}"] = kl
        metrics.append(row)
    return pset.main, rng


@pytest.mark.parametrize("iters", [0, 1, 3])
@pytest.mark.parametrize("sim_cfg", CONFIGS, ids=lambda c: f"m{c.m}-seed{c.seed}")
def test_stage_two_equals_its_own_loop(sim_cfg, iters, monkeypatch):
    sim = SessionSimulator(sim_cfg)
    m = sim_cfg.m
    gammas = np.linspace(0.9, 0.5, m)
    lambdas = np.linspace(0.5, 2.0, m - 1)  # one multiplier per auxiliary, so mixing shows
    cfg = stx.TwoStageConfig(stage1_iters=1, stage2_iters=iters, episodes_per_iter=3,
                             hidden=(16,))
    made = recorded_streams(monkeypatch)
    rows = []
    pset = stx.train_two_stage(sim, lambdas, gammas, cfg, 5, metrics=rows)

    want_rows = []
    (policy, critic), rng = sequential_stage_two(sim, pset.auxiliaries, lambdas, gammas, cfg,
                                                 5, want_rows)
    got_policy, got_critic = pset.main
    assert np.array_equal(got_critic.weights, np.eye(m)[0])
    assert np.array_equal(got_policy.params, policy.params)
    assert np.array_equal(got_critic.params, critic.params)
    assert got_critic.gamma == critic.gamma
    assert made[("s2-actions",)].random() == rng.random()
    assert [r for r in rows if r["stage"] == 2] == want_rows
    assert [r["stage"] for r in rows] == [1] * (m - 1) + [2] * iters


LAMBDAS, GAMMAS = [1.0, 0.5, 2.0], [0.9, 0.8, 0.7, 0.6]


@pytest.fixture(scope="module")
def full_run():
    """A two-stage run, its metric rows and the next draw of each stream it made."""
    sim = SessionSimulator(SimConfig(m=4, state_dim=5, n_items=7, seed=11))
    cfg = stx.TwoStageConfig(stage1_iters=2, stage2_iters=3, episodes_per_iter=3,
                             hidden=(8,))
    rows = []
    with pytest.MonkeyPatch.context() as mp:
        made = recorded_streams(mp)
        pset = stx.train_two_stage(sim, LAMBDAS, GAMMAS, cfg, 4, metrics=rows)
    return sim, cfg, pset, rows, next_draws(made)


def next_draws(made):
    return {path: rng.random() for path, rng in made.items()}


def params(pset):
    return [x.params for pair in [pset.main, *pset.auxiliaries] for x in pair]


def test_two_stage_is_stage_one_then_stage_two(full_run, monkeypatch):
    sim, cfg, full, rows, draws = full_run
    made = recorded_streams(monkeypatch)
    split_rows = []
    aux = stx.train_stage_one(sim, GAMMAS, cfg, 4, split_rows)
    split = stx.train_stage_two(sim, aux, LAMBDAS, GAMMAS, cfg, 4, split_rows)
    assert len(params(split)) == len(params(full)) == 8
    assert all(np.array_equal(a, b) for a, b in zip(params(split), params(full)))
    assert split_rows == rows
    assert next_draws(made) == draws


def test_pretrained_aux_gives_the_full_runs_stage_two(full_run, monkeypatch):
    sim, cfg, full, rows, draws = full_run
    made = recorded_streams(monkeypatch)
    again_rows = []
    again = stx.train_stage_two(sim, full.auxiliaries, LAMBDAS, GAMMAS, cfg, 4,
                                metrics=again_rows)
    assert np.array_equal(again.main[0].params, full.main[0].params)
    assert np.array_equal(again.main[1].params, full.main[1].params)
    assert again.auxiliaries == full.auxiliaries
    assert again_rows == [r for r in rows if r["stage"] == 2] != []
    assert list(made) == [("s2-actions",)]
    assert next_draws(made) == {("s2-actions",): draws[("s2-actions",)]}


def _resized(pair, state_dim, n_items):
    policy, critic = pair
    return (stx.make_policy(state_dim, n_items, (8,), 1),
            stx.make_critic(state_dim, (8,), 2, critic.weights, critic.gamma))


@pytest.mark.parametrize("edit, message", [
    (lambda aux: aux[:2], "aux_pairs must supply one pair per auxiliary response"),
    (lambda aux: aux[::-1], "aux_pairs[0]: (critic weights, policy features, items, critic "
                            "features) is ([0.0, 0.0, 0.0, 1.0], 5, 7, 5), expected "
                            "([0.0, 1.0, 0.0, 0.0], 5, 7, 5)"),
    (lambda aux: [aux[0], (aux[1][0], aux[2][1]), aux[2]],
     "aux_pairs[1]: (critic weights, policy features, items, critic features) is "
     "([0.0, 0.0, 0.0, 1.0], 5, 7, 5), expected ([0.0, 0.0, 1.0, 0.0], 5, 7, 5)"),
    (lambda aux: [aux[0], _resized(aux[1], 5, 8), aux[2]],
     "is ([0.0, 0.0, 1.0, 0.0], 5, 8, 5), expected"),
    (lambda aux: [aux[0], aux[1], _resized(aux[2], 6, 7)],
     "is ([0.0, 0.0, 0.0, 1.0], 6, 7, 6), expected"),
    (lambda aux: [(aux[0][0], _resized(aux[0], 6, 7)[1]), aux[1], aux[2]],
     "is ([0.0, 1.0, 0.0, 0.0], 5, 7, 6), expected"),
], ids=["count", "reversed", "mixed-pair", "items", "features", "critic-features"])
def test_pretrained_aux_is_checked_against_the_simulator(full_run, edit, message):
    sim, cfg, full, _, _ = full_run
    with pytest.raises(ValueError, match=re.escape(message)):
        stx.train_stage_two(sim, edit(full.auxiliaries), LAMBDAS, GAMMAS, cfg, 4)


@pytest.mark.parametrize("stage_one", [True, False], ids=["two-stage", "stage-two"])
def test_all_zero_multipliers_fail_before_any_rollout(full_run, monkeypatch, stage_one):
    sim, cfg, full, _, _ = full_run

    def no_rollout(*args):
        raise AssertionError("an iteration started")
    monkeypatch.setattr(stx, "collect_batch", no_rollout)
    with pytest.raises(ValueError, match="sum of Lagrange multipliers must be positive"):
        if stage_one:
            stx.train_two_stage(sim, [0.0, 0.0, 0.0], GAMMAS, cfg, 4)
        else:
            stx.train_stage_two(sim, full.auxiliaries, [0.0, 0.0, 0.0], GAMMAS, cfg, 4)


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
        i = int(np.argmax(critic.weights))
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
