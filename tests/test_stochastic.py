import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactor import approximator as ap
from cactor import stochastic as stx
from cactor.sim import SessionSimulator, SimConfig, run_episode

from _rows import terminal_batch


def chain_batch(rewards, state_dim=None, m=1):
    """Deterministic chain s0 -> s1 -> ... with scalar rewards on response 0,
    as a batch tuple."""
    n = len(rewards)
    s = np.eye(n, state_dim or n)
    s2 = np.zeros_like(s)
    s2[:-1] = s[1:]
    r = np.zeros((n, m))
    r[:, 0] = rewards
    return s, np.zeros(n, dtype=np.intp), r, s2, np.arange(n) == n - 1


def single_state_batch(action_indices, responses, state, m=1):
    """One-step sessions from ``state``, with rewards on response 0."""
    r = np.zeros((len(responses), m))
    r[:, 0] = responses
    return terminal_batch([state] * len(responses), action_indices, r)


def actor_objective(spec, params, s, a_idx, weights):
    p = ap.forward(spec, params, s)
    return float(np.mean(weights * np.log(p[np.arange(a_idx.size), a_idx])))


class TestCriticUpdate:
    def test_bellman_fixed_point_leaves_params(self):
        critic = stx.make_critic(3, (), seed=0, response_index=0, gamma=0.0)
        critic.params[:] = 0.0
        batch = chain_batch([0.0, 0.0, 0.0])
        opt = ap.init_opt_state(critic.params.size)
        new_critic, _, loss = stx.critic_update(critic, batch, opt)
        assert loss == 0.0
        assert np.array_equal(new_critic.params, critic.params)

    def test_chain_converges_to_linear_system_solution(self):
        critic = stx.make_critic(3, (), seed=1, response_index=0, gamma=0.9)
        opt = ap.init_opt_state(critic.params.size, step_size=1e-2)
        batch = chain_batch([0.0, 0.0, 1.0])
        for _ in range(4000):
            critic, opt, _ = stx.critic_update(critic, batch, opt)
        v = ap.forward(critic.spec, critic.params, np.eye(3))[:, 0]
        assert np.allclose(v, [0.81, 0.9, 1.0], atol=0.01)

    def test_zero_gamma_regresses_to_constant_reward(self):
        critic = stx.make_critic(2, (), seed=2, response_index=0, gamma=0.0)
        opt = ap.init_opt_state(critic.params.size, step_size=2e-2)
        batch = chain_batch([0.7, 0.7], state_dim=2)
        for _ in range(2000):
            critic, opt, _ = stx.critic_update(critic, batch, opt)
        v = ap.forward(critic.spec, critic.params, np.eye(2))[:, 0]
        assert np.allclose(v, 0.7, atol=0.01)


class TestActorUpdateAux:
    def test_zero_advantages_give_zero_gradient(self):
        policy = stx.make_policy(2, 3, (4,), seed=3)
        critic = stx.make_critic(2, (), seed=4, response_index=0, gamma=0.0)
        critic.params[:] = 0.0  # V == 0 everywhere
        batch = single_state_batch([0, 1, 2], [0.0, 0.0, 0.0], [1.0, -1.0])
        new_policy, _, _ = stx.actor_update_aux(
            policy, critic, batch, ap.init_opt_state(policy.params.size))
        assert np.array_equal(new_policy.params, policy.params)

    def test_positive_advantage_increases_action_probability(self):
        policy = stx.make_policy(2, 2, (), seed=5)
        critic = stx.make_critic(2, (), seed=6, response_index=0, gamma=0.0)
        critic.params[:] = 0.0
        state = np.array([1.0, 0.5])
        batch = single_state_batch([0], [1.0], state)  # advantage = +1
        before = policy.probs(state)[0]
        new_policy, _, _ = stx.actor_update_aux(
            policy, critic, batch, ap.init_opt_state(policy.params.size))
        assert new_policy.probs(state)[0] > before

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        policy = stx.make_policy(3, 4, (5,), seed=8)
        s = rng.normal(size=(6, 3))
        a_idx = rng.integers(4, size=6)
        w = rng.normal(size=6)
        analytic, _ = stx._policy_loglik_grad(policy, s, a_idx, w)
        h = 1e-5
        numeric = np.zeros_like(policy.params)
        for k in range(policy.params.size):
            up = policy.params.copy(); up[k] += h
            dn = policy.params.copy(); dn[k] -= h
            numeric[k] = (actor_objective(policy.spec, up, s, a_idx, w)
                          - actor_objective(policy.spec, dn, s, a_idx, w)) / (2 * h)
        denom = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def one_weight(aux_probs, cur_prob, lambdas, advantage, clip_max):
    """constrained_weights_batch on a batch of one logged action."""
    w = stx.constrained_weights_batch(np.array(aux_probs, dtype=np.float64)[:, None],
                                      np.array([cur_prob]), np.array(lambdas),
                                      np.array([advantage]), clip_max)
    assert w.shape == (1,)
    return w[0]


class TestConstrainedWeight:
    def test_neutral_point_is_exactly_one(self):
        w = one_weight([0.3, 0.3], 0.3, [1.0, 1.0], 0.0, clip_max=20.0)
        assert w == pytest.approx(1.0, abs=1e-12)

    def test_exp_ln2_case(self):
        w = one_weight([0.4], 0.4, [1.0], math.log(2.0), clip_max=20.0)
        assert w == pytest.approx(2.0, abs=1e-12)

    def test_zero_multiplier_removes_the_constraint(self):
        a = one_weight([0.9, 0.2], 0.3, [0.0, 1.0], 0.5, clip_max=20.0)
        b = one_weight([0.0001, 0.2], 0.3, [0.0, 1.0], 0.5, clip_max=20.0)
        assert a == pytest.approx(b, abs=1e-12)

    def test_clip_max_binds(self):
        w = one_weight([0.5], 0.5, [1.0], 100.0, clip_max=7.5)
        assert w == 7.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_multipliers_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            stx.validate_lambdas([bad, 1.0])
        assert stx.validate_lambdas([0.0, 1.0]).tolist() == [0.0, 1.0]

    def test_all_zero_multipliers_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            one_weight([0.5], 0.5, [0.0], 0.0, clip_max=20.0)

    def test_nonpositive_probability_rejected(self):
        with pytest.raises(ValueError, match="probabilities must be positive"):
            one_weight([0.0], 0.5, [1.0], 0.0, clip_max=20.0)
        with pytest.raises(ValueError, match="probabilities must be positive"):
            one_weight([0.5], 0.0, [1.0], 0.0, clip_max=20.0)

    @settings(max_examples=60, derandomize=True)
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_strictly_increasing_in_advantage(self, a1, a2):
        # closer advantages can move log_w by less than one ulp of it
        if abs(a1 - a2) <= 1e-9:
            return
        lo, hi = sorted([a1, a2])
        w_lo = one_weight([0.2, 0.5], 0.4, [0.7, 0.3], lo, clip_max=1e9)
        w_hi = one_weight([0.2, 0.5], 0.4, [0.7, 0.3], hi, clip_max=1e9)
        assert w_lo < w_hi

    @settings(max_examples=60, derandomize=True)
    @given(st.floats(0.01, 100.0))
    def test_homogeneity_with_zero_advantage(self, c):
        base = one_weight([0.2, 0.5], 0.4, [0.7, 0.3], 0.0, clip_max=1e9)
        scaled = one_weight([0.2, 0.5], 0.4, [0.7 * c, 0.3 * c], 0.0, clip_max=1e9)
        assert scaled == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("clip_max,floor", [
        (np.nan, 0.0), (-1.0, 0.0), (0.0, 0.0), (2.0, 5.0), (2.0, -0.1), (2.0, np.nan)])
    def test_clip_and_floor_must_be_ordered_bounds(self, clip_max, floor):
        """NaN would give NaN weights (rows that the ascent drops), a negative
        clip turns ascent into descent, and a floor above the clip overrides it."""
        args = np.array([[0.5]]), np.array([0.5]), np.array([1.0]), np.array([0.0])
        with pytest.raises(ValueError, match=re.escape(
                f"need clip_max > 0 and 0 <= floor <= clip_max, got clip_max={clip_max} "
                f"and floor={floor}")):
            stx.constrained_weights_batch(*args, clip_max=clip_max, floor=floor)
        pset = small_policy_set(seed=7)
        batch = single_state_batch([0], [1.0], np.array([0.5, 0.5]), m=2)
        with pytest.raises(ValueError, match="need clip_max > 0"):
            stx.actor_update_main(pset, batch, ap.init_opt_state(pset.main[0].params.size),
                                  clip_max, floor)
        assert stx.constrained_weights_batch(*args, clip_max=2.0, floor=2.0).tolist() == [2.0]

    def test_weight_is_positive_even_for_huge_negative_advantage(self):
        w = one_weight([0.5], 0.5, [1.0], -500.0, clip_max=20.0)
        assert w > 0.0

    def test_batch_floor_applies(self):
        w = stx.constrained_weights_batch(np.array([[0.5]]), np.array([0.5]),
                                          np.array([1.0]), np.array([-500.0]),
                                          clip_max=20.0, floor=0.05)
        assert w[0] == 0.05


def small_policy_set(seed=0, n_items=3, state_dim=2, lambdas=(1.0,), m=2,
                     copy_main_to_aux=False):
    pset = stx.build_policy_set(state_dim, n_items, m, np.array(lambdas),
                                np.array([0.9] + [0.0] * (m - 1)), (4,), seed)
    if copy_main_to_aux:
        for aux_p, _ in pset.auxiliaries:
            aux_p.params[:] = pset.main[0].params
    return pset


class TestActorUpdateMain:
    def test_self_ratio_reduces_to_exponentiated_advantage(self):
        pset = small_policy_set(seed=1, copy_main_to_aux=True)
        rng = np.random.default_rng(2)
        s = rng.normal(size=(5, 2))
        actions, rewards = [], []
        for _ in range(5):
            actions.append(int(rng.integers(3)))
            rewards.append([rng.normal(), 0.0])
        batch = terminal_batch(s, actions, rewards)
        # expected: weights = exp(A / lambda) since the probability ratio is 1
        policy, critic = pset.main
        sa, a_idx, r, s2, done = batch
        v, target = stx.td_errors(critic, sa, r[:, 0], s2, done)
        adv = target - v
        expected_w = np.minimum(np.exp(adv / 1.0), 20.0)
        grads, _ = stx._policy_loglik_grad(policy, sa, a_idx, expected_w)
        expected_params, _ = ap.optimizer_step(
            policy.params, grads, ap.init_opt_state(policy.params.size), "maximize")

        new_policy, _, info = stx.actor_update_main(
            pset, batch, ap.init_opt_state(policy.params.size), clip_max=20.0)
        assert np.allclose(new_policy.params, expected_params, atol=1e-12)
        assert info["mean_weight"] == pytest.approx(float(expected_w.mean()), rel=1e-12)

    def test_neutral_configuration_gives_unit_weights(self):
        pset = small_policy_set(seed=3, copy_main_to_aux=True)
        # critic == 0 and zero rewards -> advantage 0; aux == main -> ratio 1
        pset.main[1].params[:] = 0.0
        state = np.array([0.3, -0.8])
        batch = single_state_batch([0, 1, 2], [0.0, 0.0, 0.0], state, m=2)
        _, _, info = stx.actor_update_main(pset, batch,
                                           ap.init_opt_state(pset.main[0].params.size))
        assert info["mean_weight"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_lambda_perturbation_independence(self):
        pset = small_policy_set(seed=4, lambdas=(1.0, 0.0), m=3)
        state = np.array([0.5, 0.5])
        batch = single_state_batch([1], [1.0], state, m=3)
        opt = ap.init_opt_state(pset.main[0].params.size)
        a, _, _ = stx.actor_update_main(pset, batch, opt)
        # perturb the lambda=0 auxiliary policy arbitrarily
        pset.auxiliaries[1][0].params[:] = 123.0
        b, _, _ = stx.actor_update_main(pset, batch, opt)
        assert np.array_equal(a.params, b.params)

    def test_policy_stays_a_distribution_after_updates(self):
        pset = small_policy_set(seed=5)
        rng = np.random.default_rng(6)
        opt = ap.init_opt_state(pset.main[0].params.size)
        for _ in range(20):
            state = rng.normal(size=2)
            batch = single_state_batch([int(rng.integers(3))], [rng.normal()], state, m=2)
            policy, opt, _ = stx.actor_update_main(pset, batch, opt)
            pset.main = (policy, pset.main[1])
            p = policy.probs(rng.normal(size=2))
            assert np.all(p > 0) and abs(p.sum() - 1.0) < 1e-9


COLLECT_CONFIGS = [
    SimConfig(),
    SimConfig(m=2, seed=3),
    SimConfig(m=6, state_dim=7, n_items=12, seed=5),
    SimConfig(dense_noise_std=0.0, seed=7),
    SimConfig(session_length_range=(5, 5), seed=9),
    SimConfig(session_length_range=(1, 20), seed=13),
]


class TestCollectBatch:
    """Lockstep collection against one episode at a time with
    policy.sample on the same action generator."""

    @pytest.mark.parametrize("cfg", COLLECT_CONFIGS, ids=lambda c: f"seed{c.seed}")
    def test_matches_sequential_sampling_bit_for_bit(self, cfg):
        sim = SessionSimulator(cfg)
        policy = stx.make_policy(cfg.state_dim, cfg.n_items, (32,), seed=cfg.seed + 1)
        policy.params = policy.params * 4.0  # peaked, so items differ across states
        seeds = [31, 4, 1000, 8, 77, 3, 12, 6]
        seq_rng = np.random.default_rng(cfg.seed)
        trajs = [run_episode(sim, lambda f: policy.sample(f, seq_rng), s) for s in seeds]
        want = [tr for t in trajs for tr in t.transitions]
        rng = np.random.default_rng(cfg.seed)
        (got, mean_totals), = stx.collect_batch(sim, [policy], [rng], [seeds])
        # the batch_arrays tuple: states, action indices, responses, next states, done
        for a, b in zip(got, stx.batch_arrays(want)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        totals = [np.sum([tr.response for tr in t.transitions], axis=0) for t in trajs]
        assert np.array_equal(mean_totals, np.mean(totals, axis=0))
        assert rng.random() == seq_rng.random()

    def test_sample_matches_choice_draw_for_draw(self):
        policy = stx.make_policy(5, 9, (8,), seed=4)
        policy.params = policy.params * 5.0
        states = np.random.default_rng(1).normal(size=(300, 5))
        rng, ref = np.random.default_rng(2), np.random.default_rng(2)
        for f in states:
            p = policy.probs(f)
            item = int(ref.choice(9, p=p))
            assert policy.sample(f, rng) == (item, float(p[item]))


@pytest.fixture
def tiny_sim():
    return SessionSimulator(SimConfig(n_items=8, state_dim=6, m=2, seed=21,
                                      session_length_range=(5, 8)))


class TestTwoStage:

    def test_zero_stage_two_iterations_keeps_init(self, tiny_sim):
        cfg = stx.TwoStageConfig(stage1_iters=2, stage2_iters=0, episodes_per_iter=2)
        pset = stx.train_two_stage(tiny_sim, [1.0], [0.9, 0.0], cfg, master_seed=1)
        init = stx.make_policy(6, 8, cfg.hidden,
                               seed=__import__("cactor.seeding", fromlist=["derive_seed"])
                               .derive_seed(1, "s2-actor"))
        assert np.array_equal(pset.main[0].params, init.params)

    def test_bit_reproducible_under_master_seed(self, tiny_sim):
        cfg = stx.TwoStageConfig(stage1_iters=4, stage2_iters=4, episodes_per_iter=2)
        a = stx.train_two_stage(tiny_sim, [1.0], [0.9, 0.0], cfg, master_seed=7)
        b = stx.train_two_stage(tiny_sim, [1.0], [0.9, 0.0], cfg, master_seed=7)
        assert np.array_equal(a.main[0].params, b.main[0].params)
        for (pa, ca), (pb, cb) in zip(a.auxiliaries, b.auxiliaries):
            assert np.array_equal(pa.params, pb.params)
            assert np.array_equal(ca.params, cb.params)

    def test_metrics_rows_have_expected_schema(self, tiny_sim):
        cfg = stx.TwoStageConfig(stage1_iters=2, stage2_iters=2, episodes_per_iter=2)
        rows = []
        stx.train_two_stage(tiny_sim, [1.0], [0.9, 0.0], cfg, master_seed=3,
                            metrics=rows)
        stages = {r["stage"] for r in rows}
        assert stages == {1, 2}
        s2 = [r for r in rows if r["stage"] == 2]
        assert all("kl_aux_1" in r and "mean_weight" in r for r in s2)

    def test_large_lambda_pulls_kl_down_over_training(self, tiny_sim):
        cfg = stx.TwoStageConfig(stage1_iters=30, stage2_iters=120,
                                 episodes_per_iter=4)
        rows = []
        stx.train_two_stage(tiny_sim, [1e4], [0.9, 0.0], cfg, master_seed=9,
                            metrics=rows)
        kls = [r["kl_aux_1"] for r in rows if r["stage"] == 2]
        assert np.mean(kls[-10:]) < np.mean(kls[:10])

    @pytest.mark.parametrize("lambdas, gammas", [
        ([np.nan], [0.9, 0.0]), ([np.inf], [0.9, 0.0]), ([1.0], [np.nan, 0.0]),
    ], ids=["nan-lambda", "inf-lambda", "nan-gamma"])
    def test_non_finite_input_raises_before_any_training_step(self, tiny_sim, monkeypatch,
                                                              lambdas, gammas):
        def no_training(*args, **kwargs):
            raise AssertionError("a training loop started")

        monkeypatch.setattr(stx, "_actor_critic", no_training)
        cfg = stx.TwoStageConfig(stage1_iters=2, stage2_iters=2, episodes_per_iter=2)
        rows = []
        with pytest.raises(ValueError, match="multipliers must be finite|every discount"):
            stx.train_two_stage(tiny_sim, lambdas, gammas, cfg, master_seed=1, metrics=rows)
        assert rows == []

    def test_divergence_detection_raises(self, tiny_sim):
        cfg = stx.TwoStageConfig(stage1_iters=50, stage2_iters=0, episodes_per_iter=2,
                                 divergence_threshold=1e-12, divergence_patience=3)
        with pytest.raises(stx.TrainingDiverged, match="consecutive"):
            stx.train_two_stage(tiny_sim, [1.0], [0.9, 0.0], cfg, master_seed=11)
