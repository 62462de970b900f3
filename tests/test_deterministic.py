import copy
import re

import numpy as np
import pytest

from cactor import approximator as ap
from cactor import deterministic as det
from cactor import stochastic as stx
from cactor.seeding import derive_seed
from cactor.sim import ReviewDatasetConfig, generate_review_dataset

from _rows import dataset as rows_dataset
from _rows import session, terminal_batch


def two_state_batch(r0=1.0, r1=2.0):
    """The chain s0 = (1, 0) -> s1 = (0, 1) -> end, as a batch tuple."""
    return (np.eye(2), np.zeros(2, dtype=np.intp), np.array([[r0], [r1]]),
            np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([False, True]))


class TestQCriticUpdate:
    def test_two_state_bellman_hand_solution(self):
        # fixed policy emitting the zero embedding; Q(s1)=2, Q(s0)=1+0.9*2=2.8
        items = np.zeros((1, 2))
        policy = det.make_det_policy(2, 2, (), seed=0)
        policy.params[:] = 0.0
        critic = stx.make_critic(2 + 2, (), seed=1, weights=[1.0], gamma=0.9)
        target = critic
        opt = ap.init_opt_state(critic.params.size, step_size=1e-2)
        batch = two_state_batch()
        for step in range(4000):
            critic, opt, loss, _ = det.q_critic_update(critic, target, policy,
                                                       items, batch, opt)
            if step % 200 == 199:
                target = critic
        q = det.q_value(critic, np.eye(2), np.zeros((2, 2)))
        assert np.allclose(q, [2.8, 2.0], atol=0.01)

    def test_zero_td_error_batch_keeps_params(self):
        items = np.zeros((1, 2))
        policy = det.make_det_policy(2, 2, (), seed=2)
        critic = stx.make_critic(2 + 2, (4,), seed=3, weights=[1.0], gamma=0.0)
        s = np.eye(2)
        q = det.q_value(critic, s, items[[0, 0]])
        batch = terminal_batch(s, [0, 0], q[:, None])
        new_critic, _, loss, _ = det.q_critic_update(
            critic, critic, policy, items, batch,
            ap.init_opt_state(critic.params.size))
        assert loss == 0.0
        assert np.array_equal(new_critic.params, critic.params)

    def test_gamma_zero_regresses_to_constant(self):
        items = np.zeros((1, 3))
        policy = det.make_det_policy(2, 3, (), seed=4)
        critic = stx.make_critic(2 + 3, (), seed=5, weights=[1.0], gamma=0.0)
        opt = ap.init_opt_state(critic.params.size, step_size=2e-2)
        batch = two_state_batch(r0=0.4, r1=0.4)
        for _ in range(1500):
            critic, opt, _, _ = det.q_critic_update(critic, critic, policy,
                                                    items, batch, opt)
        q = det.q_value(critic, np.eye(2), np.zeros((2, 3)))
        assert np.allclose(q, 0.4, atol=0.01)


class TestDDPGActorUpdate:
    def test_flat_critic_gives_zero_gradient(self):
        policy = det.make_det_policy(2, 2, (4,), seed=6)
        critic = stx.make_critic(2 + 2, (), seed=7, weights=[1.0], gamma=0.0)
        critic.params[2:4] = 0.0  # zero the action-input weights
        batch = two_state_batch()
        new_policy, _, _ = det.ddpg_actor_update(policy, critic, batch,
                                                 ap.init_opt_state(policy.params.size))
        assert np.array_equal(new_policy.params, policy.params)

    def test_linear_critic_direction_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        policy = det.make_det_policy(3, 2, (4,), seed=9)
        critic = stx.make_critic(3 + 2, (), seed=10, weights=[1.0], gamma=0.0)
        s = rng.normal(size=(5, 3))
        batch = terminal_batch(s, np.zeros(5), np.zeros((5, 1)))

        def objective(params):
            a = ap.forward(policy.spec, params, s)
            return float(np.mean(det.q_value(critic, s, a)))

        h = 1e-5
        numeric = np.zeros_like(policy.params)
        for k in range(policy.params.size):
            up = policy.params.copy(); up[k] += h
            dn = policy.params.copy(); dn[k] -= h
            numeric[k] = (objective(up) - objective(dn)) / (2 * h)
        expected, _ = ap.optimizer_step(policy.params, numeric,
                                        ap.init_opt_state(policy.params.size),
                                        "maximize")
        new_policy, _, _ = det.ddpg_actor_update(policy, critic, batch,
                                                 ap.init_opt_state(policy.params.size))
        denom = np.maximum(np.abs(expected - policy.params), 1e-9)
        assert np.max(np.abs(new_policy.params - expected) / denom) < 1e-3

    def test_update_is_deterministic(self):
        policy = det.make_det_policy(2, 2, (4,), seed=11)
        critic = stx.make_critic(2 + 2, (3,), seed=12, weights=[1.0], gamma=0.0)
        batch = two_state_batch()
        a, _, _ = det.ddpg_actor_update(policy, critic, batch,
                                        ap.init_opt_state(policy.params.size))
        b, _, _ = det.ddpg_actor_update(policy, critic, batch,
                                        ap.init_opt_state(policy.params.size))
        assert np.array_equal(a.params, b.params)


def constrained_det_objective(features, policy, aux, critic, lambdas) -> float:
    """Mean over states of  prod_i h(pi(s), pi_aux_i(s))^(lambda_i/sum)
    * Q(s, pi(s)) / sum(lambda), the auxiliary actors ``aux`` one bank: the
    objective ``constrained_det_actor_update`` ascends, evaluated directly
    as its finite-difference oracle."""
    lam = stx.validate_lambdas(lambdas, len(aux.params))
    total = lam.sum()
    s = np.atleast_2d(np.asarray(features, dtype=np.float64))
    a = policy.act(s)
    log_h = np.zeros(s.shape[0])
    for lam_i, a_i in zip(lam, aux.act(s)):
        d = a - a_i
        log_h += (lam_i / total) * (-0.5 * np.sum(d * d, axis=1))
    q = det.q_value(critic, s, a)
    return float(np.mean(np.exp(log_h) * q / total))


class TestConstrainedDetObjective:
    def setup_method(self):
        self.policy = det.make_det_policy(2, 3, (4,), seed=13)
        self.aux = ap.bank([det.make_det_policy(2, 3, (4,), seed=14),
                            det.make_det_policy(2, 3, (4,), seed=15)])
        self.critic = stx.make_critic(2 + 3, (4,), seed=16, weights=[1.0], gamma=0.0)
        self.s = np.array([[0.4, -0.2]])

    def test_coincident_actions_reduce_to_scaled_q(self):
        aux_same = ap.bank([det.DeterministicPolicy(self.policy.spec, self.policy.params.copy())
                            for _ in range(2)])
        lam = np.array([0.7, 0.3])
        obj = constrained_det_objective(self.s, self.policy, aux_same, self.critic, lam)
        a = self.policy.act(self.s)
        q = float(det.q_value(self.critic, self.s, a)[0])
        assert obj == pytest.approx(q / lam.sum(), rel=1e-12)

    def test_h_factor_closed_form(self):
        # one auxiliary, lambda=1, squared distance 2 -> factor exp(-1)
        class FixedActor:
            """Emits its params for every state; (members, embed) params stand
            for a bank."""

            def __init__(self, value):
                self.params = np.asarray(value)

            def act(self, features):
                n = np.atleast_2d(features).shape[0]
                return np.repeat(self.params[..., None, :], n, axis=-2)

        main = FixedActor([1.0, 0.0, 0.0])
        aux = FixedActor([[0.0, 1.0, 0.0]])
        obj = constrained_det_objective(self.s, main, aux, self.critic, [1.0])
        q = float(det.q_value(self.critic, self.s, main.act(self.s))[0])
        assert obj == pytest.approx(np.exp(-1.0) * q, rel=1e-12)

    def test_lambda_scaling(self):
        lam = np.array([0.5, 1.5])
        base = constrained_det_objective(self.s, self.policy, self.aux, self.critic, lam)
        scaled = constrained_det_objective(self.s, self.policy, self.aux, self.critic,
                                           4.0 * lam)
        assert scaled == pytest.approx(base / 4.0, rel=1e-12)

    def test_zero_lambda_sum_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            det.constrained_det_actor_update(self.policy, self.aux, self.critic, [0.0, 0.0],
                                             (self.s,),
                                             ap.init_opt_state(self.policy.params.size))

    @pytest.mark.parametrize("lam", [[1.0], [1.0, 1.0, 1.0]], ids=["fewer", "more"])
    def test_lambda_count_must_match_the_bank(self, lam):
        # the bank has two members
        message = f"need 2 multipliers, got {len(lam)}"
        with pytest.raises(ValueError, match=message):
            det.constrained_det_actor_update(self.policy, self.aux, self.critic, lam,
                                             (self.s,), ap.init_opt_state(self.policy.params.size))

    def test_actor_update_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        s = rng.normal(size=(4, 2))
        batch = terminal_batch(s, np.zeros(4), np.zeros((4, 1)))
        lam = np.array([0.6, 0.4])

        def objective(params):
            p = det.DeterministicPolicy(self.policy.spec, params)
            return constrained_det_objective(s, p, self.aux, self.critic, lam)

        h = 1e-5
        numeric = np.zeros_like(self.policy.params)
        for k in range(self.policy.params.size):
            up = self.policy.params.copy(); up[k] += h
            dn = self.policy.params.copy(); dn[k] -= h
            numeric[k] = (objective(up) - objective(dn)) / (2 * h)
        expected, _ = ap.optimizer_step(self.policy.params, numeric,
                                        ap.init_opt_state(self.policy.params.size),
                                        "maximize")
        new_policy, _, info = det.constrained_det_actor_update(
            self.policy, self.aux, self.critic, lam, batch,
            ap.init_opt_state(self.policy.params.size))
        denom = np.maximum(np.abs(expected - self.policy.params), 1e-9)
        assert np.max(np.abs(new_policy.params - expected) / denom) < 1e-3
        assert 0.0 < info["mean_h"] <= 1.0


class TestBehaviorClone:
    def test_degenerate_target_probability_monotone(self):
        policy = stx.make_policy(2, 4, (), seed=19)
        state = np.array([0.5, -0.5])
        batch = terminal_batch([state] * 8, [2] * 8, np.zeros((8, 1)))
        opt = ap.init_opt_state(policy.params.size, step_size=5e-3)
        probs = [policy.probs(state)[2]]
        for step in range(450):
            policy, opt, _ = det.behavior_clone_update(policy, batch, opt)
            if step % 25 == 24:  # Adam momentum allows tiny per-step dips
                probs.append(policy.probs(state)[2])
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert probs[-1] > 0.9

    def test_uniform_actions_converge_to_uniform(self):
        rng = np.random.default_rng(20)
        policy = stx.make_policy(2, 4, (), seed=21)
        state = np.array([1.0, 1.0])
        batch = terminal_batch([state] * 24, list(range(4)) * 6, np.zeros((24, 1)))
        opt = ap.init_opt_state(policy.params.size, step_size=1e-2)
        for _ in range(1500):
            policy, opt, _ = det.behavior_clone_update(policy, batch, opt)
        tv = 0.5 * np.sum(np.abs(policy.probs(state) - 0.25))
        assert tv < 0.05

    def test_loss_is_cross_entropy(self):
        rng = np.random.default_rng(22)
        policy = stx.make_policy(3, 5, (4,), seed=23)
        actions, states = [], []
        for _ in range(10):
            actions.append(int(rng.integers(5)))
            states.append(rng.normal(size=3))
        _, _, loss = det.behavior_clone_update(
            policy, terminal_batch(states, actions, np.zeros((10, 1))),
            ap.init_opt_state(policy.params.size))
        expected = -np.mean([np.log(policy.probs(s)[a]) for s, a in zip(states, actions)])
        assert loss == pytest.approx(float(expected), rel=1e-10)


class TestKernelProbs:
    def test_distribution_and_peak(self):
        policy = det.make_det_policy(2, 3, (), seed=24)
        items = det.init_item_table(6, 3, seed=25)
        p = det.det_policy_item_probs(policy, items, np.array([[0.1, 0.2]]))
        assert p.shape == (1, 6)
        assert np.all(p > 0) and abs(p.sum() - 1.0) < 1e-9
        a = policy.act(np.array([0.1, 0.2]))
        d2 = np.sum((items - a) ** 2, axis=1)
        assert int(np.argmax(p[0])) == int(np.argmin(d2))


@pytest.fixture(scope="module")
def dataset():
    return generate_review_dataset(
        ReviewDatasetConfig(n_users=10, n_items=6, n_reviews=320,
                            min_trajectory_length=10, seed=30))


class TestOfflineTrainers:

    def test_weighted_ddpg_smoke_and_determinism(self, dataset):
        cfg = det.DDPGConfig(updates=60, batch_size=16, target_refresh=20)
        a = det.train_ddpg_weighted(dataset, np.ones(8), 0.9, cfg, master_seed=1)
        b = det.train_ddpg_weighted(dataset, np.ones(8), 0.9, cfg, master_seed=1)
        assert np.array_equal(a.policy.params, b.policy.params)
        assert np.array_equal(a.items, b.items)
        assert a.metrics and "mean_q" in a.metrics[0]

    @pytest.mark.parametrize("weights", [np.r_[np.nan, np.ones(7)], np.r_[np.ones(7), np.inf],
                                         np.ones((8, 1)), np.ones((1, 8))],
                             ids=["nan", "inf", "column", "row"])
    def test_weighted_ddpg_rejects_bad_weights(self, dataset, weights, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained with bad weights")

        monkeypatch.setattr(det, "_train_ddpg_core", no_training)
        with pytest.raises(ValueError, match="weights must be a finite 1-D vector of 8"):
            det.train_ddpg_weighted(dataset, weights, 0.9, det.DDPGConfig(updates=2),
                                    master_seed=0)

    def test_behavior_clone_matches_per_transition_sampling(self, dataset):
        cfg = det.BCConfig(updates=30, batch_size=16, log_every=10)
        got, metrics = det.train_behavior_clone(dataset, cfg, master_seed=9)
        # the loop as it ran before minibatches were one gather of stacked arrays
        transitions = dataset.all_transitions()
        policy = stx.make_policy(transitions[0].state.features.size,
                                 int(dataset.metadata["n_items"]), cfg.hidden,
                                 derive_seed(9, "bc"))
        opt = ap.init_opt_state(policy.params.size, cfg.lr)
        rng = np.random.Generator(np.random.PCG64(derive_seed(9, "bc-batches")))
        losses = []
        for _ in range(cfg.updates):
            batch = [transitions[i] for i in rng.integers(len(transitions), size=cfg.batch_size)]
            policy, opt, loss = det.behavior_clone_update(policy, stx.batch_arrays(batch), opt)
            losses.append(loss)
        assert np.array_equal(got.params, policy.params)
        assert [row["critic_loss"] for row in metrics] == losses[cfg.log_every - 1::cfg.log_every]

    def test_rcpo_trains_m_critics(self, dataset):
        cfg = det.DDPGConfig(updates=30, batch_size=16)
        pipe = det.train_rcpo(dataset, np.full(7, 0.1), np.full(8, 0.9), cfg,
                              master_seed=2)
        assert len(pipe.critics) == 8

    def test_constrained_pipeline_reports_h(self, dataset):
        cfg = det.DDPGConfig(updates=30, batch_size=16, log_every=10)
        pipe = det.train_constrained_ddpg(dataset, np.full(7, 0.5), np.full(8, 0.9),
                                          cfg, master_seed=3)
        stage2 = [r for r in pipe.metrics if r["stage"] == 2]
        assert stage2 and all(0.0 < r["mean_h"] <= 1.0 for r in stage2)

    def test_constrained_pipeline_needs_an_auxiliary_response(self, monkeypatch):
        one_response = rows_dataset(session(np.eye(3), [[1.0], [0.0], [2.0]], actions=[0, 1, 2]),
                                    metadata={"n_items": 3})

        def no_training(*args, **kwargs):
            raise AssertionError("trained on a dataset without auxiliary responses")

        monkeypatch.setattr(det, "_train_ddpg_core", no_training)
        with pytest.raises(ValueError,
                           match=r"need at least one auxiliary response \(m >= 2\), got m=1"):
            det.train_constrained_ddpg(one_response, [], [0.9], det.DDPGConfig(updates=2),
                                       master_seed=0)

    def test_all_zero_multipliers_fail_before_stage_one(self, dataset, monkeypatch):
        def no_update(*args, **kwargs):
            raise AssertionError("a stage-one update ran")

        monkeypatch.setattr(det, "q_critic_update", no_update)
        with pytest.raises(ValueError, match="sum of Lagrange multipliers must be positive"):
            det.train_constrained_ddpg(dataset, np.zeros(7), np.full(8, 0.9),
                                       det.DDPGConfig(updates=2), master_seed=0)

    @pytest.mark.parametrize("trainer,where", [
        ("constrained", "response 1 in stage 1"),
        ("rcpo", "response 1 in stage 2"),
        ("weighted", "reward weights [1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0] in stage 2"),
        ("weighted-one-hot", "response 1 in stage 2"),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_critic_loss_raises(self, dataset, trainer, where):
        """A critic is named by its reward row: "response i" for e_i, else
        the row itself, whichever member or trainer it belongs to."""
        ds = copy.deepcopy(dataset)
        for tr in ds.all_transitions():
            tr.response[1] = 1e308
        cfg = det.DDPGConfig(updates=5, batch_size=16)
        train = {
            "constrained": lambda: det.train_constrained_ddpg(
                ds, np.full(7, 0.5), np.full(8, 0.9), cfg, master_seed=3),
            "rcpo": lambda: det.train_rcpo(ds, np.full(7, 0.5), np.full(8, 0.9), cfg,
                                           master_seed=3),
            "weighted": lambda: det.train_ddpg_weighted(ds, [1.0, 0.5] + [0.0] * 6, 0.9, cfg,
                                                        master_seed=3),
            "weighted-one-hot": lambda: det.train_ddpg_weighted(ds, np.eye(8)[1], 0.9, cfg,
                                                                master_seed=3),
        }[trainer]
        with pytest.raises(stx.TrainingDiverged, match=re.escape(
                f"critic for {where} diverged at iteration 0: loss inf")):
            train()
