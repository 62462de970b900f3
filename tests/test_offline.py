import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactor import approximator as ap
from cactor import core
from cactor import deterministic as det
from cactor import offline as off
from cactor import stochastic as stx
from cactor.core import ReplayDataset, discounted_returns
from cactor.seeding import derive_seed, rng_for
from cactor.sim import ReviewDatasetConfig, generate_review_dataset
from cactor.sim import SessionSimulator, SimConfig, run_episode

from _rows import dataset, rebuilt, session
from _tabular import TabularMDP, skewed_policy, table_prob_fn


def logged_trajectory(policy, sim, episode_seed, rng):
    return run_episode(sim, lambda f: policy.sample(f, rng), episode_seed)


def relogged(traj, probs):
    """``traj``, a run_episode session, rebuilt with ``probs[t]`` (nan:
    unknown) as the behavior_prob of each step t in ``probs``."""
    bp = traj._store.behavior_prob.copy()
    bp[list(probs)] = list(probs.values())
    return rebuilt(traj._store, behavior_prob=bp).trajectories[0]


@pytest.fixture
def sim():
    return SessionSimulator(SimConfig(n_items=6, state_dim=6, m=2, seed=40,
                                      session_length_range=(6, 9)))


@pytest.fixture
def policy():
    return stx.make_policy(6, 6, (8,), seed=41)


class TestRatios:
    def test_identical_policies_give_unit_ratios(self, sim, policy):
        traj = logged_trajectory(policy, sim, 0, rng_for(1, "a"))
        cfg = off.ISConfig()
        for t in range(len(traj)):
            assert off.full_trajectory_ratio(traj, t, policy, cfg) == 1.0

    def test_product_and_cap(self, sim, policy):
        traj = logged_trajectory(policy, sim, 1, rng_for(2, "a"))
        # halve / third the logged probabilities so per-step ratios are 2 and 3
        p0 = policy.probs(traj.transitions[0].state.features)[traj.transitions[0].action_index]
        p1 = policy.probs(traj.transitions[1].state.features)[traj.transitions[1].action_index]
        traj = relogged(traj, {0: float(p0) / 2.0, 1: float(p1) / 3.0})
        assert off.full_trajectory_ratio(traj, 1, policy, off.ISConfig(ratio_clip=10.0)) \
            == pytest.approx(6.0, rel=1e-12)
        assert off.full_trajectory_ratio(traj, 1, policy, off.ISConfig(ratio_clip=5.0)) == 5.0

    def test_matches_brute_force_loop(self, sim, policy):
        traj = logged_trajectory(policy, sim, 2, rng_for(3, "a"))
        other = stx.make_policy(6, 6, (8,), seed=99)
        cfg = off.ISConfig(ratio_clip=1e9)
        t = len(traj) - 1
        prod = 1.0
        for tr in traj.transitions[: t + 1]:
            prod *= float(other.probs(tr.state.features)[tr.action_index]) / tr.behavior_prob
        assert off.full_trajectory_ratio(traj, t, other, cfg) == prod

    def test_first_order_equals_full_at_step_zero(self, sim, policy):
        traj = logged_trajectory(policy, sim, 3, rng_for(4, "a"))
        other = stx.make_policy(6, 6, (8,), seed=100)
        cfg = off.ISConfig()
        assert off._ratios([(traj, 0)], other, cfg)[0] \
            == off.full_trajectory_ratio(traj, 0, other, cfg)

    def test_single_step_arithmetic(self, sim, policy):
        traj = logged_trajectory(policy, sim, 4, rng_for(5, "a"))
        tr = traj.transitions[0]
        p = float(policy.probs(tr.state.features)[tr.action_index])
        traj = relogged(traj, {0: p / 2.0})
        assert off._ratios([(traj, 0)], policy, off.ISConfig("first_order"))[0] \
            == pytest.approx(2.0, rel=1e-12)

    def test_missing_behavior_prob_rejected(self, sim, policy):
        traj = logged_trajectory(policy, sim, 5, rng_for(6, "a"))
        traj = relogged(traj, {0: np.nan})
        with pytest.raises(ValueError, match="missing behavior_prob"):
            off.full_trajectory_ratio(traj, 0, policy, off.ISConfig())

    def test_probability_floor_enforced(self, sim, policy):
        traj = logged_trajectory(policy, sim, 6, rng_for(7, "a"))
        traj = relogged(traj, {0: 1e-9})
        with pytest.raises(ValueError, match="floor"):
            off._ratios([(traj, 0)], policy, off.ISConfig("first_order"))


def scalar_ratios(batch_refs, policy, cfg):
    """Reference: one one-row forward per step and a left-to-right product."""
    out = []
    for traj, t in batch_refs:
        steps = traj.transitions[: t + 1] if cfg.mode == "full_product" else [traj.transitions[t]]
        prod = 1.0
        for tr in steps:
            prod *= float(policy.probs(tr.state.features)[tr.action_index]) / tr.behavior_prob
        out.append(min(prod, cfg.ratio_clip))
    return out


RATIO_POLICY = stx.make_policy(4, 5, (6,), seed=7)


def hand_session(seed, behavior_probs, session_id="h"):
    """A 4-feature, 5-item session with the given logged probabilities."""
    rng = np.random.default_rng(seed)
    n = len(behavior_probs)
    states = rng.normal(size=(n, 4))
    responses, actions = [], []
    for _ in range(n):
        responses.append(rng.normal(size=2))
        actions.append(int(rng.integers(5)))
    return session(states, responses, actions, behavior_probs, sid=session_id)


def hand_trajectory(*args):
    return dataset(hand_session(*args)).trajectories[0]


def one_dataset(*sessions):
    """The sessions of one dataset: a batch's refs must all be sessions of
    one dataset."""
    return dataset(*sessions).trajectories


# 1e-300 makes two-step products overflow to inf; 1e-3 makes clips bind
LOGGED_PROBS = st.sampled_from([1e-300, 1e-3, 0.05, 0.2, 0.5, 1.0])


@st.composite
def ratio_batches(draw):
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    trajs = one_dataset(*[hand_session(draw(st.integers(0, 2**16)),
                                       draw(st.lists(LOGGED_PROBS, min_size=n, max_size=n)))
                          for n in lengths])
    # t = -1 stands for the last step; repeats of a trajectory and of a
    # (traj, t) pair are common with at most three trajectories
    picks = draw(st.lists(st.tuples(st.integers(0, len(trajs) - 1),
                                    st.one_of(st.just(0), st.just(-1), st.integers(0, 7))),
                          min_size=1, max_size=12))
    return [(trajs[j], len(trajs[j]) - 1 if t == -1 else t % len(trajs[j]))
            for j, t in picks]


class TestBatchedRatios:
    @given(refs=ratio_batches(), mode=st.sampled_from(["full_product", "first_order"]),
           clip=st.sampled_from([1.0, 2.0, 1e3, 1e300]))
    @settings(max_examples=80, deadline=None)
    def test_equals_scalar_loop(self, refs, mode, clip):
        cfg = off.ISConfig(mode=mode, ratio_clip=clip, min_behavior_prob=1e-300)
        assert off._ratios(refs, RATIO_POLICY, cfg).tolist() \
            == scalar_ratios(refs, RATIO_POLICY, cfg)

    def test_overflowing_product_clips(self):
        long, short = one_dataset(hand_session(1, [1e-300, 1e-300, 0.5], "long"),
                                  hand_session(2, [0.5, 0.2], "short"))
        refs = [(long, 2), (short, 0), (long, 0), (long, 2), (short, 1), (long, 1)]
        cfg = off.ISConfig(mode="full_product", ratio_clip=50.0, min_behavior_prob=1e-300)
        assert scalar_ratios([(long, 2)], RATIO_POLICY,
                             off.ISConfig("full_product", np.inf, 1e-300)) == [np.inf]
        got = off._ratios(refs, RATIO_POLICY, cfg)
        assert got[0] == got[3] == got[5] == 50.0
        assert got.tolist() == scalar_ratios(refs, RATIO_POLICY, cfg)

    @pytest.mark.parametrize("mode", ["full_product", "first_order"])
    @pytest.mark.parametrize("t", [-1, 5])
    def test_step_outside_trajectory_rejected(self, mode, t):
        good, bad = one_dataset(hand_session(3, [0.5] * 5), hand_session(4, [0.5] * 5))
        with pytest.raises(ValueError, match=f"step {t} outside trajectory of length 5"):
            off._ratios([(good, 4), (bad, t), (good, 0)], RATIO_POLICY, off.ISConfig(mode))

    def test_missing_prefix_behavior_prob_rejected(self):
        good, bad = one_dataset(hand_session(5, [0.5] * 5),
                                hand_session(6, [0.5, None, 0.5, 0.5, 0.5]))
        refs = [(good, 4), (bad, 0), (bad, 3)]
        with pytest.raises(ValueError, match="missing behavior_prob"):
            off._ratios(refs, RATIO_POLICY, off.ISConfig("full_product"))
        # first-order ratios read only step t, so the same batch is fine there
        off._ratios(refs, RATIO_POLICY, off.ISConfig("first_order"))
        # step 1 lies in no requested prefix
        off._ratios(refs[:2], RATIO_POLICY, off.ISConfig("full_product"))

    @pytest.mark.parametrize("mode", ["full_product", "first_order"])
    def test_behavior_prob_below_floor_rejected(self, mode):
        good, bad = one_dataset(hand_session(7, [0.5] * 4),
                                hand_session(8, [0.5, 0.5, 1e-9, 0.5]))
        with pytest.raises(ValueError, match="behavior_prob 1e-09 below the 1e-06 floor"):
            off._ratios([(good, 3), (bad, 2)], RATIO_POLICY, off.ISConfig(mode))

    @pytest.mark.parametrize("mode", ["full_product", "first_order"])
    def test_refs_into_several_datasets_rejected(self, mode):
        sa, sb = hand_session(11, [0.5] * 2), hand_session(12, [0.5] * 2)
        a, b = dataset(sa).trajectories[0], dataset(sb).trajectories[0]
        with pytest.raises(ValueError, match="batch refs span several datasets"):
            off._ratios([(a, 0), (b, 1)], RATIO_POLICY, off.ISConfig(mode))
        # the same sessions in one dataset are one batch
        a, b = one_dataset(sa, sb)
        off._ratios([(a, 0), (b, 1)], RATIO_POLICY, off.ISConfig(mode))

    def test_first_bad_ref_in_batch_order_is_named(self):
        traj = hand_trajectory(9, [0.5, 0.5, 1e-9])
        cfg = off.ISConfig("full_product")
        with pytest.raises(ValueError, match="step 3 outside"):
            off._ratios([(traj, 3), (traj, 2)], RATIO_POLICY, cfg)
        with pytest.raises(ValueError, match="floor"):
            off._ratios([(traj, 2), (traj, 3)], RATIO_POLICY, cfg)

    def test_update_rejects_bad_step(self):
        traj = hand_trajectory(10, [0.5] * 3)
        critic = stx.make_critic(4, (), seed=1, response_index=1, gamma=0.0)
        opt = ap.init_opt_state(RATIO_POLICY.params.size)
        for t in (-1, 3):
            with pytest.raises(ValueError, match="outside trajectory"):
                off.offline_actor_update_aux(RATIO_POLICY, critic, [(traj, 0), (traj, t)],
                                             off.ISConfig(), opt)


class TestOfflineUpdates:
    def test_aux_update_reduces_to_online_on_policy(self, sim, policy):
        critic = stx.make_critic(6, (8,), seed=42, response_index=1, gamma=0.0)
        traj = logged_trajectory(policy, sim, 7, rng_for(8, "a"))
        batch = stx.batch_arrays(traj.transitions)
        refs = [(traj, t) for t in range(len(traj))]
        online, _, _ = stx.actor_update_aux(
            policy, critic, batch, ap.init_opt_state(policy.params.size))
        offline, _, info = off.offline_actor_update_aux(
            policy, critic, refs, off.ISConfig(), ap.init_opt_state(policy.params.size))
        assert np.array_equal(online.params, offline.params)
        assert info["mean_ratio"] == 1.0

    def test_main_update_reduces_to_online_on_policy(self, sim):
        pset = stx.build_policy_set(6, 6, 2, np.array([0.7]), np.array([0.9, 0.0]),
                                    (8,), seed=43)
        traj = logged_trajectory(pset.main[0], sim, 8, rng_for(9, "a"))
        refs = [(traj, t) for t in range(len(traj))]
        online, _, oinfo = stx.actor_update_main(
            pset, stx.batch_arrays(traj.transitions), ap.init_opt_state(pset.main[0].params.size))
        offline, _, finfo = off.offline_actor_update_main(
            pset, refs, off.ISConfig(), ap.init_opt_state(pset.main[0].params.size))
        assert np.max(np.abs(online.params - offline.params)) < 1e-10
        assert oinfo["mean_weight"] == pytest.approx(finfo["mean_weight"], abs=1e-12)

    def test_zero_advantages_keep_params(self, sim, policy):
        critic = stx.make_critic(6, (), seed=44, response_index=1, gamma=0.0)
        critic.params[:] = 0.0
        traj = logged_trajectory(policy, sim, 9, rng_for(10, "a"))
        traj.responses[:, 1] = 0.0  # advantage = r - 0 = 0
        refs = [(traj, t) for t in range(len(traj))]
        new, _, _ = off.offline_actor_update_aux(
            policy, critic, refs, off.ISConfig(), ap.init_opt_state(policy.params.size))
        assert np.array_equal(new.params, policy.params)

    def test_main_zero_lambda_independence(self, sim):
        pset = stx.build_policy_set(6, 6, 3, np.array([1.0, 0.0]),
                                    np.array([0.9, 0.0, 0.0]), (8,), seed=45)
        sim3 = SessionSimulator(SimConfig(n_items=6, state_dim=6, m=3, seed=46,
                                          session_length_range=(6, 9)))
        traj = logged_trajectory(pset.main[0], sim3, 0, rng_for(11, "a"))
        refs = [(traj, t) for t in range(len(traj))]
        opt = ap.init_opt_state(pset.main[0].params.size)
        a, _, _ = off.offline_actor_update_main(pset, refs, off.ISConfig(), opt)
        pset.auxiliaries[1][0].params[:] = -7.0
        b, _, _ = off.offline_actor_update_main(pset, refs, off.ISConfig(), opt)
        assert np.array_equal(a.params, b.params)

    def test_main_weight_matches_hand_computation(self, sim):
        pset = stx.build_policy_set(6, 6, 2, np.array([2.0]), np.array([0.0, 0.0]),
                                    (8,), seed=47)
        traj = relogged(logged_trajectory(pset.main[0], sim, 10, rng_for(12, "a")), {0: 0.25})
        tr = traj.transitions[0]
        pset.main[1].params[:] = 0.0  # V == 0, gamma == 0: A = r_0
        refs = [(traj, 0)]
        _, _, info = off.offline_actor_update_main(
            pset, refs, off.ISConfig(), ap.init_opt_state(pset.main[0].params.size),
            clip_max=1e9)
        aux_p = float(pset.auxiliaries[0][0].probs(tr.state.features)[tr.action_index])
        expected = (aux_p / 0.25) ** 1.0 * np.exp(tr.response[0] / 2.0)
        assert info["mean_weight"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_main_update_skips_rows_with_infinite_advantage(self, sim):
        pset = stx.build_policy_set(6, 6, 2, np.array([1.0]), np.array([0.9, 0.0]),
                                    (8,), seed=48)
        traj = logged_trajectory(pset.main[0], sim, 11, rng_for(13, "a"))
        refs = [(traj, t) for t in range(3)]
        pset.main[1].params[:] = -1e308
        s, _, r, s2, done = stx.batch_arrays(traj.transitions[:3])
        v, target = stx.td_errors(pset.main[1], s, r[:, 0], s2, done)
        assert np.isinf(target - v).any() and not np.isfinite(target - v).any()
        new, _, info = off.offline_actor_update_main(
            pset, refs, off.ISConfig(), ap.init_opt_state(pset.main[0].params.size),
            clip_max=20.0)
        assert info["mean_weight"] != 20.0 and np.isnan(info["mean_weight"])
        assert np.array_equal(new.params, pset.main[0].params)

    def test_main_update_rejects_unordered_clip_and_floor(self, sim):
        pset = stx.build_policy_set(6, 6, 2, np.array([1.0]), np.array([0.9, 0.0]),
                                    (8,), seed=50)
        traj = logged_trajectory(pset.main[0], sim, 12, rng_for(14, "a"))
        opt = ap.init_opt_state(pset.main[0].params.size)
        with pytest.raises(ValueError, match="need clip_max > 0 and 0 <= floor <= clip_max"):
            off.offline_actor_update_main(pset, [(traj, 0)], off.ISConfig(), opt,
                                          clip_max=2.0, weight_floor=5.0)

    def test_logged_denominator_drops_the_rows_the_online_update_drops(self):
        # critic V == 0 and gamma 0: the advantage is the reward, inf on row 1
        pset = stx.build_policy_set(2, 3, 2, np.array([1.0]), np.array([0.0, 0.0]), (),
                                    seed=49)
        pset.main[1].params[:] = 0.0
        s = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        a = np.array([0, 1, 2])
        r = np.array([[0.5, 0.0], [np.inf, 0.0], [-0.5, 0.0]])
        done = np.ones(3, dtype=bool)
        bp = np.array([0.2, 0.3, 0.4])
        opt = ap.init_opt_state(pset.main[0].params.size)
        got, _, info = stx.actor_update_main(pset, (s, a, r, s, done), opt, 20.0,
                                             behavior_prob=bp)
        keep = [0, 2]
        want, _, want_info = stx.actor_update_main(
            pset, (s[keep], a[keep], r[keep], s[keep], done[keep]), opt, 20.0,
            behavior_prob=bp[keep])
        assert np.array_equal(got.params, want.params)
        assert info == want_info and info["mean_weight"] < 20.0


def chain_dataset(n_copies=1):
    """3-state deterministic chain, rewards r0=(0,0,1), r1=(1,0,0)."""
    responses = [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]
    return dataset(*[session(np.eye(3), responses, 0, 1.0, sid=f"c{k}")
                     for k in range(n_copies)], metadata={"state_dim": 3, "n_items": 1})


class TestMultiCritic:
    def test_separate_mode_matches_linear_system(self):
        ds = chain_dataset()
        gammas = np.array([0.9, 0.5])
        cfg = off.MultiCriticConfig(iters=4000, batch_size=16, lr=1e-2, hidden=())
        critics = off.multi_critic_train(ds, gammas, "separate", cfg, master_seed=1)
        # Bellman linear system for the deterministic chain
        for i, gamma in enumerate(gammas):
            a = np.eye(3) - gamma * np.diag([1, 1, 0]) @ np.eye(3, k=1)
            r = np.array([tr.response[i] for tr in ds.trajectories[0].transitions])
            v_true = np.linalg.solve(a, r)
            v = ap.forward(critics[i].spec, critics[i].params, np.eye(3))[:, 0]
            assert np.allclose(v, v_true, atol=0.01), (i, v, v_true)

    def test_m1_separate_equals_single_summed(self):
        ds = dataset(session(np.eye(2), [[0.3], [1.0]], 0),
                     metadata={"state_dim": 2, "n_items": 1})
        cfg = off.MultiCriticConfig(iters=50, hidden=(4,))
        sep = off.multi_critic_train(ds, [0.95], "separate", cfg, master_seed=2)
        single = off.multi_critic_train(ds, [0.95], "single_summed", cfg,
                                        master_seed=2, shared_gamma=0.95)
        assert np.array_equal(sep[0].params, single[0].params)

    def test_critics_need_no_action_indices(self):
        ds = chain_dataset()
        ds.action_index[:] = -1  # unknown
        cfg = off.MultiCriticConfig(iters=5, hidden=(4,))
        critics = off.multi_critic_train(ds, [0.9, 0.5], "separate", cfg, master_seed=6)
        assert set(off.critic_return_correlation(critics, ds, [0.9, 0.5])) == {0, 1}

    def test_separate_mode_never_mixes_responses(self):
        ds_a = chain_dataset()
        ds_b = chain_dataset()
        ds_b.responses[:, 1] = 0.0
        cfg = off.MultiCriticConfig(iters=120, hidden=(4,))
        ca = off.multi_critic_train(ds_a, [0.9, 0.5], "separate", cfg, master_seed=3)
        cb = off.multi_critic_train(ds_b, [0.9, 0.5], "separate", cfg, master_seed=3)
        assert np.array_equal(ca[0].params, cb[0].params)
        assert not np.array_equal(ca[1].params, cb[1].params)

    @pytest.mark.parametrize("mode,share_bottom,name", [
        ("separate", False, "response 1"),
        ("separate", True, "response 1"),
        ("single_summed", False, "the summed response"),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_loss_raises(self, mode, share_bottom, name):
        # 1e300: the squared TD error overflows to inf; 1e308: so does the
        # gradient's upstream, which must not be reached
        for big in (1e300, 1e308):
            ds = chain_dataset()
            ds.responses[:, 1] = big
            cfg = off.MultiCriticConfig(iters=5, hidden=(4,), share_bottom=share_bottom)
            with pytest.raises(stx.TrainingDiverged,
                               match=f"critic for {name} diverged at iteration 0: loss inf"):
                off.multi_critic_train(ds, [0.9, 0.5], mode, cfg, master_seed=5)

    def test_share_bottom_keeps_first_layer_synchronized(self):
        ds = chain_dataset()
        cfg = off.MultiCriticConfig(iters=60, hidden=(6,), share_bottom=True)
        critics = off.multi_critic_train(ds, [0.9, 0.5], "separate", cfg, master_seed=4)
        fl = ap.first_layer_size(critics[0].spec)
        assert np.array_equal(critics[0].params[:fl], critics[1].params[:fl])
        assert not np.array_equal(critics[0].params[fl:], critics[1].params[fl:])


def review_dataset():
    return generate_review_dataset(ReviewDatasetConfig(n_users=6, n_items=5, n_reviews=120,
                                                       min_trajectory_length=6, seed=31))


class TestWriteThrough:
    """An in-place edit of a row's arrays, or of the columns themselves,
    reaches every later pass over the dataset."""

    @staticmethod
    def edit(ds, how):
        if how == "in_place":
            tr = ds.trajectories[1].transitions[0]
            tr.response[:] += 1.0
            tr.state.features[:] += 0.25
        else:
            ds.responses[ds.offsets[1]] += 1.0
            ds.states[ds.offsets[1]] += 0.25

    @staticmethod
    def oracle(ds):
        """The same edit made to copies of the columns, built afresh."""
        cols = {name: getattr(ds, name).copy() for name in ("responses", "states")}
        row = int(ds.offsets[1])
        cols["responses"][row] += 1.0
        cols["states"][row] += 0.25
        return rebuilt(ds, **cols)

    @staticmethod
    def passes(ds, tmp_path):
        policy = stx.make_policy(ds.states.shape[1], int(ds.metadata["n_items"]), (6,), seed=5)
        trs = ds.all_transitions()
        ncis = off.ncis_evaluate(policy.probs, ds, off.NCISConfig())
        critics = off.multi_critic_train(ds, np.full(ds.m, 0.9), "separate",
                                         off.MultiCriticConfig(iters=20, hidden=(4,)), 3)
        core.save_dataset(tmp_path / "d.txt", ds)
        return ([(tr.behavior_prob, tr.response.tolist(), tr.state.features.tolist())
                 for tr in trs],
                ncis, [c.params.tolist() for c in critics], (tmp_path / "d.txt").read_text())

    @pytest.mark.parametrize("how", ["in_place", "column"])
    def test_edit_is_seen_by_every_pass(self, how, tmp_path):
        ds = review_dataset()
        before = self.passes(ds, tmp_path)
        want = self.passes(self.oracle(ds), tmp_path)
        self.edit(ds, how)
        got = self.passes(ds, tmp_path)
        assert got == want
        for g, b in zip(got, before):
            assert g != b


class TestMergedCriticLoop:
    """multi_critic_train's one loop against the per-mode loops it replaced."""

    def test_share_bottom_matches_a_separate_shared_block_optimizer(self):
        ds = review_dataset()
        gammas = np.linspace(0.5, 0.95, ds.m)
        cfg = off.MultiCriticConfig(iters=40, batch_size=16, hidden=(6,), share_bottom=True)
        got = off.multi_critic_train(ds, gammas, "separate", cfg, master_seed=7)

        s, _, r, s2, done = stx.batch_arrays(ds.all_transitions())
        rng = np.random.Generator(np.random.PCG64(derive_seed(7, "mc-batches")))
        critics = [stx.make_critic(s.shape[1], cfg.hidden, derive_seed(7, "mc", i), i, g)
                   for i, g in enumerate(gammas)]
        fl = ap.first_layer_size(critics[0].spec)
        for c in critics[1:]:
            c.params[:fl] = critics[0].params[:fl]
        # critic 0's first layer is owned by one optimizer on the summed gradient
        shared_opt = ap.init_opt_state(fl, cfg.lr)
        tail_opts = [ap.init_opt_state(c.params.size - fl, cfg.lr) for c in critics]
        for _ in range(cfg.iters):
            idx = rng.integers(len(s), size=cfg.batch_size)
            shared_grad = np.zeros(fl)
            for i, c in enumerate(critics):
                _, g = stx.critic_loss_grad(c, s[idx], r[idx][:, i], s2[idx], done[idx])
                shared_grad += g[:fl]
                tail, tail_opts[i] = ap.optimizer_step(c.params[fl:], g[fl:], tail_opts[i],
                                                       "minimize")
                c.params = np.concatenate([c.params[:fl], tail])
            shared, shared_opt = ap.optimizer_step(critics[0].params[:fl], shared_grad,
                                                   shared_opt, "minimize")
            for c in critics:
                c.params[:fl] = shared
        for a, b in zip(got, critics):
            assert np.array_equal(a.params, b.params)

    def test_single_summed_matches_the_summed_loop(self):
        ds = review_dataset()
        cfg = off.MultiCriticConfig(iters=40, batch_size=16, hidden=(6,))
        got = off.multi_critic_train(ds, None, "single_summed", cfg, master_seed=8,
                                     shared_gamma=0.8)

        s, _, r, s2, done = stx.batch_arrays(ds.all_transitions())
        rng = np.random.Generator(np.random.PCG64(derive_seed(8, "mc-batches")))
        critic = stx.make_critic(s.shape[1], cfg.hidden, derive_seed(8, "mc", 0), -1, 0.8)
        opt = ap.init_opt_state(critic.params.size, cfg.lr)
        for _ in range(cfg.iters):
            idx = rng.integers(len(s), size=cfg.batch_size)
            _, g = stx.critic_loss_grad(critic, s[idx], r[idx].sum(axis=1), s2[idx], done[idx])
            critic.params, opt = ap.optimizer_step(critic.params, g, opt, "minimize")
        assert len(got) == 1
        assert np.array_equal(got[0].params, critic.params)


def no_action_case(update):
    """Run ``update`` on the chain dataset with its action indices removed."""
    ds = chain_dataset()
    ds.action_index[:] = -1  # unknown
    traj = ds.trajectories[0]
    batch = stx.batch_arrays(traj.transitions)
    policy = stx.make_policy(3, 1, (), seed=0)
    opt = ap.init_opt_state(policy.params.size)
    if update == "behavior_clone_update":
        det.behavior_clone_update(policy, batch, opt)
    elif update == "actor_update_aux":
        critic = stx.make_critic(3, (), seed=1, response_index=1, gamma=0.5)
        stx.actor_update_aux(policy, critic, batch, opt)
    elif update == "offline_actor_update_main":
        pset = stx.build_policy_set(3, 1, 2, [1.0], [0.9, 0.5], (), seed=2)
        off.offline_actor_update_main(pset, [(traj, t) for t in range(len(traj))],
                                      off.ISConfig(), opt)
    else:
        actor = det.make_det_policy(3, 2, (), seed=3)
        critic = det.make_q_critic(3, 2, (), seed=4, response_index=0, gamma=0.9)
        det.q_critic_update(critic, critic, actor, np.zeros((1, 2)), batch,
                            ap.init_opt_state(critic.params.size))


@pytest.mark.parametrize("update", ["behavior_clone_update", "actor_update_aux",
                                    "offline_actor_update_main", "q_critic_update"])
def test_missing_action_index_is_a_named_error(update):
    with pytest.raises(ValueError, match="batch lacks action indices"):
        no_action_case(update)


class TestCorrelation:
    def test_perfect_predictor_has_unit_correlation(self):
        ds = chain_dataset(n_copies=2)
        gammas = np.array([0.9, 0.5])
        # hand-build exact value critics: linear on one-hot features
        critics = []
        rets = discounted_returns(ds.trajectories[0], gammas)
        for i in range(2):
            c = stx.make_critic(3, (), seed=i, response_index=i, gamma=gammas[i])
            c.params[:3] = rets[:, i]
            c.params[3] = 0.0
            critics.append(c)
        corr = off.critic_return_correlation(critics, ds, gammas)
        assert corr[0] == pytest.approx(1.0, abs=1e-12)
        assert corr[1] == pytest.approx(1.0, abs=1e-12)

    def test_constant_predictor_is_undefined(self):
        ds = chain_dataset()
        c = stx.make_critic(3, (), seed=0, response_index=0, gamma=0.9)
        c.params[:] = 0.0
        corr = off.critic_return_correlation(c, ds, [0.9, 0.5])
        assert corr[0] is None and corr[1] is None

    def test_summed_value_correlation_runs(self):
        ds = chain_dataset(n_copies=2)
        critics = [stx.make_critic(3, (4,), seed=i, response_index=i, gamma=0.9)
                   for i in range(2)]
        val = off.summed_value_correlation(critics, ds, [0.9, 0.9])
        assert val is None or -1.0 <= val <= 1.0


@pytest.fixture(scope="module")
def mdp():
    return TabularMDP(seed=5)


class TestNCIS:

    def test_behavior_equals_policy_gives_dataset_means(self, mdp):
        behavior = np.full((4, 3), 1.0 / 3.0)
        ds = mdp.log_dataset(behavior, 400, seed=6)
        out = off.ncis_evaluate(table_prob_fn(behavior), ds, off.NCISConfig(cap=10.0))
        r = np.stack([tr.response for tr in ds.all_transitions()])
        assert out["scores"][0] == pytest.approx(float(r[:, 0].mean()), rel=1e-12)
        assert out["scores"][1] == pytest.approx(float(r[:, 1].mean()), rel=1e-12)
        assert out["ess"] == pytest.approx(r.shape[0], rel=1e-12)

    def test_cap_below_every_ratio_gives_plain_mean(self, mdp):
        behavior = np.full((4, 3), 1.0 / 3.0)
        target = skewed_policy(4, 3, seed=7) * 0.0 + np.array([0.5, 0.3, 0.2])
        ds = mdp.log_dataset(behavior, 300, seed=8)
        out = off.ncis_evaluate(table_prob_fn(target), ds, off.NCISConfig(cap=0.1))
        r = np.stack([tr.response for tr in ds.all_transitions()])
        assert out["scores"][0] == pytest.approx(float(r[:, 0].mean()), rel=1e-12)

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(9)
        w = rng.uniform(0.1, 5.0, size=50)
        r = rng.normal(size=(50, 2))
        a = off.ncis_from_weights(w, r)
        b = off.ncis_from_weights(17.3 * w, r)
        assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("weights, message", [
        ([np.nan, 1.0], "finite and nonnegative"), ([np.inf, 1.0], "finite and nonnegative"),
        ([-1.0, 2.0], "finite and nonnegative"), ([0.0, 0.0], "positive sum"),
    ])
    def test_bad_weights_rejected(self, weights, message):
        with pytest.raises(ValueError, match=message):
            off.ncis_from_weights(weights, np.ones((2, 3)))

    def test_large_cap_equals_snis_and_weights_monotone(self, mdp):
        behavior = np.full((4, 3), 1.0 / 3.0)
        target = skewed_policy(4, 3, seed=10)
        ds = mdp.log_dataset(behavior, 300, seed=11)
        trs = ds.all_transitions()
        s = np.stack([tr.state.features for tr in trs])
        a = np.array([tr.action_index for tr in trs])
        p = table_prob_fn(target)(s)[np.arange(len(trs)), a]
        bp = np.array([tr.behavior_prob for tr in trs])
        ratios = p / bp
        snis = float(np.sum(ratios * np.array([tr.response[0] for tr in trs]))
                     / ratios.sum())
        out = off.ncis_evaluate(table_prob_fn(target), ds,
                                off.NCISConfig(cap=float(ratios.max()) + 1.0))
        assert out["scores"][0] == pytest.approx(snis, rel=1e-12)
        caps = [0.5, 1.0, 2.0, 5.0]
        weight_sets = [np.minimum(ratios, c) for c in caps]
        for lo, hi in zip(weight_sets, weight_sets[1:]):
            assert np.all(hi >= lo)

    def test_ncis_tracks_exact_dp_limit(self, mdp):
        behavior = np.full((4, 3), 1.0 / 3.0)
        target = skewed_policy(4, 3, seed=12)
        ds = mdp.log_dataset(behavior, 12_000, seed=13)
        out = off.ncis_evaluate(table_prob_fn(target), ds, off.NCISConfig(cap=10.0))
        limit = mdp.ncis_limit(target, behavior, cap=10.0)
        for i in range(2):
            assert out["scores"][i] == pytest.approx(limit[i], rel=0.05)

    @pytest.mark.parametrize("field,message", [
        ("behavior_prob", "lacks behavior probabilities"),
        ("action_index", "lacks action indices"),
    ])
    def test_missing_log_field_rejected(self, mdp, field, message):
        behavior = np.full((4, 3), 1.0 / 3.0)
        ds = mdp.log_dataset(behavior, 20, seed=14)
        getattr(ds, field)[-1] = {"behavior_prob": np.nan, "action_index": -1}[field]
        with pytest.raises(ValueError, match=message):
            off.ncis_evaluate(table_prob_fn(behavior), ds, off.NCISConfig())

    @pytest.mark.parametrize("bad, message", [
        (np.nan, r"prob_fn returned \[nan, .*\] at row 7; "),
        (-0.25, r"prob_fn returned \[-0.25, .*\] at row 7; "),
        (np.inf, r"prob_fn returned \[inf, .*\] at row 7; "),
    ], ids=["nan", "negative", "inf"])
    def test_bad_probabilities_name_the_first_bad_row(self, mdp, bad, message):
        behavior = np.full((4, 3), 1.0 / 3.0)
        ds = mdp.log_dataset(behavior, 20, seed=14)

        def prob_fn(states):
            p = table_prob_fn(behavior)(states)
            p[[7, 9], 0] = bad
            return p
        k = int(np.searchsorted(ds.offsets, 7, side="right")) - 1
        with pytest.raises(ValueError, match=message) as err:
            off.ncis_evaluate(prob_fn, ds, off.NCISConfig())
        assert str(err.value).startswith(f"session {ds.session_ids[k]} step "
                                         f"{7 - ds.offsets[k]}: ")

    @pytest.mark.parametrize("shape", [lambda n: (n,), lambda n: (n - 1, 3),
                                       lambda n: (n, 3, 1), lambda n: (n, 1)],
                             ids=["1-D", "short", "3-D", "narrow"])
    def test_prob_fn_of_the_wrong_shape_is_rejected(self, mdp, shape):
        ds = mdp.log_dataset(np.full((4, 3), 1.0 / 3.0), 20, seed=14)
        want = shape(ds.n_transitions)
        with pytest.raises(ValueError, match=re.escape(f"prob_fn returned shape {want}")):
            off.ncis_evaluate(lambda s: np.full(want, 0.5), ds, off.NCISConfig())

    def test_empty_dataset_rejected(self):
        ds = ReplayDataset.from_columns(**core._empty_columns(3, 1), offsets=[0],
                                        session_ids=[], m=1)
        with pytest.raises(ValueError, match="empty"):
            off.ncis_evaluate(lambda s: s, ds, off.NCISConfig())


@pytest.mark.parametrize("config, field, value", [
    (det.DDPGConfig, "updates", -1),
    (det.DDPGConfig, "batch_size", 0),
    (det.DDPGConfig, "embed_dim", 0),
    (det.DDPGConfig, "target_refresh", 0),
    (det.DDPGConfig, "log_every", 0),
    (det.DDPGConfig, "actor_lr", 0.0),
    (det.DDPGConfig, "critic_lr", -1e-3),
    (det.DDPGConfig, "items_lr", float("nan")),
    (det.BCConfig, "updates", -1),
    (det.BCConfig, "batch_size", 0),
    (det.BCConfig, "log_every", 0),
    (det.BCConfig, "lr", 0.0),
    (off.MultiCriticConfig, "iters", -1),
    (off.MultiCriticConfig, "batch_size", 0),
    (off.MultiCriticConfig, "lr", float("nan")),
    (stx.TwoStageConfig, "divergence_threshold", 0.0),
    (stx.TwoStageConfig, "divergence_threshold", float("nan")),
    (off.ISConfig, "ratio_clip", float("nan")),
    (off.NCISConfig, "cap", float("nan")),
    (SimConfig, "dense_noise_std", float("nan")),
    (SimConfig, "n_items", 0),
    (ReviewDatasetConfig, "history_window", 0),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_configs_reject_values_that_would_run_silently_wrong(config, field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        config(**{field: value})


def test_configs_accept_their_bounds():
    det.DDPGConfig(updates=0, batch_size=1, embed_dim=1, target_refresh=1, log_every=1)
    det.BCConfig(updates=0, batch_size=1, log_every=1)
    off.MultiCriticConfig(iters=0, batch_size=1)
    stx.TwoStageConfig(divergence_threshold=1e-300)


class TestConfigValidation:
    def test_is_config_bounds(self):
        with pytest.raises(ValueError):
            off.ISConfig(mode="nope")
        with pytest.raises(ValueError):
            off.ISConfig(ratio_clip=0.5)
        with pytest.raises(ValueError):
            off.NCISConfig(cap=0.0)
