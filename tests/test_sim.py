import re

import numpy as np
import pytest

from cactor import approximator as ap
from cactor import sim as sm
from cactor.core import load_dataset, save_dataset

ROLLOUT_CONFIGS = [
    sm.SimConfig(),
    sm.SimConfig(m=2, seed=3),
    sm.SimConfig(m=6, state_dim=7, n_items=12, seed=5),
    sm.SimConfig(dense_noise_std=0.0, seed=7),
    sm.SimConfig(session_length_range=(5, 5), seed=9),
    sm.SimConfig(session_length_range=(1, 20), seed=13),
]


def assert_same_trajectories(got, want):
    """Every logged field equal bit for bit, session by session."""
    assert [t.session_id for t in got] == [t.session_id for t in want]
    for a, b in zip(got, want):
        assert len(a) == len(b)
        for ta, tb in zip(a.transitions, b.transitions):
            assert ta.action_index == tb.action_index
            assert ta.behavior_prob == tb.behavior_prob
            assert ta.done is tb.done
            assert ta.next_state.terminal == tb.next_state.terminal
            assert np.array_equal(ta.state.features, tb.state.features)
            assert np.array_equal(ta.next_state.features, tb.next_state.features)
            assert np.array_equal(ta.response, tb.response)


def one_net(spec, params):
    """``rollout`` probs of one net, evaluated row by row on the live sessions."""
    return lambda f, live: ap.forward_rows(spec, params, f.reshape(-1, f.shape[-1])[live])


@pytest.fixture(scope="module")
def cfg():
    return sm.SimConfig(seed=11)


class TestSimulatorDeterminism:
    def test_same_seed_pair_bit_identical(self, cfg):
        a = sm.SessionSimulator(cfg).reset(5)
        b = sm.SessionSimulator(cfg).reset(5)
        assert np.array_equal(a.features, b.features)

    def test_episode_seeds_give_distinct_states(self, cfg):
        sim = sm.SessionSimulator(cfg)
        states = {tuple(sim.reset(e).features) for e in range(100)}
        assert len(states) >= 99

    def test_state_dimension(self, cfg):
        assert sm.SessionSimulator(cfg).reset(0).features.size == cfg.state_dim

    def test_full_episode_replay_identical(self, cfg):
        def roll():
            sim = sm.SessionSimulator(cfg)
            s = sim.reset(3)
            out = []
            done = False
            k = 0
            while not done:
                s, r, done = sim.step(k % cfg.n_items)
                out.append((s.features.copy(), r.copy()))
                k += 1
            return out

        for (fa, ra), (fb, rb) in zip(roll(), roll()):
            assert np.array_equal(fa, fb) and np.array_equal(ra, rb)


class TestStepSemantics:
    def test_noiseless_dense_response_repeats(self):
        cfg = sm.SimConfig(seed=2, dense_noise_std=0.0)
        a, b = sm.SessionSimulator(cfg), sm.SessionSimulator(cfg)
        a.reset(1), b.reset(1)
        (_, ra, _), (_, rb, _) = a.step(4), b.step(4)
        assert ra[0] == rb[0]

    def test_done_exactly_at_session_length(self, cfg):
        sim = sm.SessionSimulator(cfg)
        sim.reset(9)
        length = sim._length
        for t in range(length):
            _, _, done = sim.step(0)
            assert done == (t == length - 1)
        with pytest.raises(RuntimeError, match="terminal"):
            sim.step(0)

    def test_item_out_of_range_rejected(self, cfg):
        sim = sm.SessionSimulator(cfg)
        sim.reset(0)
        with pytest.raises(ValueError, match="out of range"):
            sim.step(cfg.n_items)

    def test_sparse_rate_matches_analytic_mean(self, cfg):
        # conditional on the visited (state, item) path, total fires has mean
        # sum(p_t) and variance sum(p_t (1 - p_t))
        sim = sm.SessionSimulator(cfg)
        rng = np.random.default_rng(0)
        fired = np.zeros(cfg.m - 1)
        expected = np.zeros(cfg.m - 1)
        var = np.zeros(cfg.m - 1)
        for ep in range(700):
            s = sim.reset(ep)
            done = False
            while not done:
                item = int(rng.integers(cfg.n_items))
                _, p = sim.response_probs(s.features, item)
                expected += p
                var += p * (1 - p)
                s, r, done = sim.step(item)
                fired += r[1:]
        assert np.all(np.abs(fired - expected) <= 3.0 * np.sqrt(var))

    @pytest.mark.parametrize("std", [0.1, 0.6, 2.0, 0.0])
    def test_expected_dense_response_is_the_rectified_normal_mean(self, std):
        """response_probs' dense value against a quadrature of
        g * max(0, mu + sigma z) over the standard normal density."""
        sim = sm.SessionSimulator(sm.SimConfig(seed=4, dense_noise_std=std))
        z = np.linspace(-12.0, 12.0, 200_001)
        density = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        for episode, item in [(0, 3), (1, 17), (2, 29), (3, 0)]:
            features = sim.reset(episode).features
            affinity, _ = sim._response_terms(features[None], np.array([item]))
            level = np.maximum(0.0, 1.0 + affinity[0] + std * z)  # _DENSE_BASE = 1
            integrand = features[-2] * level * density
            want = np.sum(integrand[1:] + integrand[:-1]) * (z[1] - z[0]) / 2.0
            got, _ = sim.response_probs(features, item)
            assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("prob", [0.0, -0.5, np.nan])
    def test_run_episode_rejects_a_probability_that_is_not_positive(self, cfg, prob):
        with pytest.raises(ValueError, match=f"assigned probability {prob} to item 2"):
            sm.run_episode(sm.SessionSimulator(cfg), lambda f: (2, prob), 0)

    def test_run_episode_names_the_step_of_a_probability_above_one(self, cfg):
        probs = iter([0.5, 0.5, 1.5])
        with pytest.raises(ValueError, match="session ep-0 step 2: behavior_prob 1.5 outside"):
            sm.run_episode(sm.SessionSimulator(cfg), lambda f: (2, next(probs, 0.5)), 0)

    def test_dense_sparse_asymmetry(self, cfg):
        sim = sm.SessionSimulator(cfg)
        rng = np.random.default_rng(1)
        nonzero = 0
        fires = np.zeros(cfg.m - 1)
        steps = 0
        for ep in range(300):
            s = sim.reset(10_000 + ep)
            done = False
            while not done:
                s, r, done = sim.step(int(rng.integers(cfg.n_items)))
                nonzero += r[0] > 0
                fires += r[1:]
                steps += 1
        assert nonzero / steps >= 0.95
        assert np.all(fires / steps <= 0.20)


class TestRollout:
    """The lockstep rollout against one session at a time with
    Generator.choice on one shared action stream."""

    @pytest.mark.parametrize("cfg", ROLLOUT_CONFIGS, ids=lambda c: f"seed{c.seed}")
    def test_matches_sequential_episodes_bit_for_bit(self, cfg):
        sim = sm.SessionSimulator(cfg)
        spec = ap.ApproxSpec(cfg.state_dim, (16,), cfg.n_items, "softmax", seed=cfg.seed)
        params = ap.init_params(spec) * 3.0
        seeds = [7, 123, 5, 40, 41, 9, 2, 11]

        def select(features):
            p = ap.forward(spec, params, features)
            item = int(seq_rng.choice(cfg.n_items, p=p))
            return item, float(p[item])

        seq_rng = np.random.default_rng(cfg.seed)
        want = [sm.run_episode(sim, select, s) for s in seeds]
        rng = np.random.default_rng(cfg.seed)
        got = sm.rollout(sim, one_net(spec, params), [rng], [seeds])
        assert_same_trajectories(got.trajectories, want)
        assert rng.random() == seq_rng.random()

    @pytest.mark.parametrize("cfg", ROLLOUT_CONFIGS, ids=lambda c: f"seed{c.seed}")
    def test_columns_equal_run_episode_oracle_bit_for_bit(self, cfg):
        sim = sm.SessionSimulator(cfg)
        spec = ap.ApproxSpec(cfg.state_dim, (16,), cfg.n_items, "softmax", seed=cfg.seed)
        params = ap.init_params(spec) * 3.0
        seeds = [3, 1, 4, 1, 5]
        seq_rng = np.random.default_rng(cfg.seed)

        def select(features):
            p = ap.forward(spec, params, features)
            item = int(seq_rng.choice(cfg.n_items, p=p))
            return item, float(p[item])

        wants = [sm.run_episode(sim, select, s) for s in seeds]
        got = sm.rollout(sim, one_net(spec, params), [np.random.default_rng(cfg.seed)],
                         [seeds])
        assert np.diff(got.offsets).tolist() == [len(want) for want in wants]
        for lo, want in zip(got.offsets, wants):
            for name in ("states", "next_states", "next_terminal", "action_index",
                         "behavior_prob", "responses", "done"):
                a, b = getattr(got, name)[lo:lo + len(want)], getattr(want._store, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
                if a.dtype == np.float64:
                    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
        assert got.session_ids == [w.session_id for w in wants] == [f"ep-{s}" for s in seeds]
        assert got.metadata == {"state_dim": cfg.state_dim, "n_items": cfg.n_items}

    def test_probs_of_wrong_shape_rejected(self, cfg):
        with pytest.raises(ValueError, match="shape"):
            sm.rollout(sm.SessionSimulator(cfg), lambda f, live: np.full((live.size, 3), 1 / 3),
                       [np.random.default_rng(0)], [[1, 2]])

    @pytest.mark.parametrize("cfg", ROLLOUT_CONFIGS, ids=lambda c: f"seed{c.seed}")
    def test_members_equal_separate_single_member_rollouts(self, cfg):
        """A 3-member rollout against one rollout per member, column for
        column, and each member's generator left where its own run leaves it."""
        sim = sm.SessionSimulator(cfg)
        nets = [ap.ApproxSpec(cfg.state_dim, (16,), cfg.n_items, "softmax", seed=cfg.seed + j)
                for j in range(3)]
        params = np.stack([ap.init_params(spec) * 3.0 for spec in nets])
        rows = ap.row_evaluator(nets[0], params)
        seeds = [[7, 123, 5, 40], [41, 9, 2, 11], [7, 8, 1000, 3]]  # 7 twice: own streams
        rngs = [np.random.default_rng(100 + j) for j in range(3)]
        got = sm.rollout(sim, lambda f, live: rows(f).reshape(-1, cfg.n_items)[live], rngs,
                         seeds)
        wants = [sm.rollout(sim, one_net(nets[0], params[j]), [np.random.default_rng(100 + j)],
                            [seeds[j]]) for j in range(3)]
        lo = 0
        for j, want in enumerate(wants):
            hi = lo + want.n_transitions
            assert np.array_equal(got.offsets[4 * j:4 * j + 5] - lo, want.offsets)
            for name in ("states", "next_states", "next_terminal", "action_index",
                         "behavior_prob", "responses", "done"):
                a, b = getattr(got, name)[lo:hi], getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (j, name)
            lo = hi
        assert got.session_ids == [f"ep-{s}" for member in seeds for s in member]
        for j in range(3):
            want_rng = np.random.default_rng(100 + j)
            want_rng.random(wants[j].n_transitions)
            assert rngs[j].random() == want_rng.random()

    @pytest.mark.parametrize("cfg", ROLLOUT_CONFIGS, ids=lambda c: f"seed{c.seed}")
    def test_shared_episode_seeds_start_once_and_keep_each_members_rows(self, cfg,
                                                                        monkeypatch):
        """Members that share episode seeds: one ``_start`` per distinct
        seed, and each member's columns, and its generator's next draw,
        equal those of a rollout of that member alone."""
        sim = sm.SessionSimulator(cfg)
        spec = ap.ApproxSpec(cfg.state_dim, (16,), cfg.n_items, "softmax", seed=cfg.seed)
        params = np.stack([ap.init_params(spec) * (1.0 + j) for j in range(3)])
        rows = ap.row_evaluator(spec, params)
        seeds = [[7, 123, 5], [7, 123, 5], [5, 9, 7]]
        started = []
        start = sm.SessionSimulator._start

        def counting(self, seed):
            started.append(seed)
            return start(self, seed)
        monkeypatch.setattr(sm.SessionSimulator, "_start", counting)
        rngs = [np.random.default_rng(50 + j) for j in range(3)]
        got = sm.rollout(sim, lambda f, live: rows(f).reshape(-1, cfg.n_items)[live], rngs,
                         seeds)
        assert sorted(started) == [5, 7, 9, 123]
        lo = 0
        for j in range(3):
            alone_rng = np.random.default_rng(50 + j)
            want = sm.rollout(sim, one_net(spec, params[j]), [alone_rng], [seeds[j]])
            hi = lo + want.n_transitions
            assert np.array_equal(got.offsets[3 * j:3 * j + 4] - lo, want.offsets)
            for name in ("states", "next_states", "next_terminal", "action_index",
                         "behavior_prob", "responses", "done"):
                assert np.array_equal(getattr(got, name)[lo:hi], getattr(want, name)), (j, name)
            assert rngs[j].random() == alone_rng.random()
            lo = hi

    def test_members_need_one_generator_and_equal_episode_counts(self, cfg):
        sim, rng = sm.SessionSimulator(cfg), np.random.default_rng(0)
        uniform = sm.UniformRandomPolicy(cfg.n_items)

        def probs(f, live):
            return np.array([uniform.probs(x) for x in f.reshape(-1, cfg.state_dim)[live]])
        with pytest.raises(ValueError, match="one action generator per member"):
            sm.rollout(sim, probs, [rng], [[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="same number of episode seeds"):
            sm.rollout(sim, probs, [rng, rng], [[1, 2], [3]])


def v1_episode(sim, select, episode_seed):
    """One session under the first RNG contract, kept as a reference: the
    episode stream draws the length and the initial core features, then, per
    step, the dense noise (when it is on) and the m-1 sparse uniforms.
    Returns the initial features and the (length, m) responses."""
    c = sim.config
    rng = np.random.Generator(np.random.PCG64(sm.derive_seed(c.seed, "episode", episode_seed)))
    lo, hi = c.session_length_range
    length = int(rng.integers(lo, hi + 1))
    first = np.concatenate([rng.normal(size=c.state_dim - 2), [1.0, 0.0]])
    features, responses = first[None], []
    for t in range(1, length + 1):
        item = select(features[0])
        noise = np.array([rng.normal(0.0, c.dense_noise_std) if c.dense_noise_std > 0 else 0.0])
        fire = rng.random((1, c.m - 1))
        response, features = sim._advance(features, np.array([item]), noise, fire, t,
                                          np.array([length]))
        responses.append(response[0])
    return first, np.array(responses)


class TestAgainstContractV1:
    """The block draws of each episode (v2) against the per-step draws of
    the first contract, under a uniform behavior fed one action stream."""

    @pytest.mark.parametrize("cfg", [sm.SimConfig(), sm.SimConfig(dense_noise_std=0.0)],
                             ids=["noise", "no-noise"])
    def test_same_starts_and_returns_within_their_errors(self, cfg):
        sim, n = sm.SessionSimulator(cfg), 400
        uniform = sm.UniformRandomPolicy(cfg.n_items)
        action_rng = np.random.default_rng(31)

        def select(features):
            return int(sm.inverse_cdf(uniform.probs(features), action_rng.random()))

        v1 = [v1_episode(sim, select, s) for s in range(n)]
        v2 = sm.rollout(sim, lambda f, live: np.full((live.size, cfg.n_items), 1 / cfg.n_items),
                        [np.random.default_rng(31)], [range(n)])
        # both contracts draw the length and the initial features first
        assert np.diff(v2.offsets).tolist() == [len(r) for _, r in v1]
        assert np.array_equal(v2.states[v2.offsets[:-1]], np.array([f for f, _ in v1]))
        # without noise, v1's per-step uniforms are v2's block read row by row
        same = np.array_equal(v2.responses, np.concatenate([r for _, r in v1]))
        assert same == (cfg.dense_noise_std == 0)
        returns = [np.array([r.sum(axis=0) for _, r in v1]),
                   np.array([v2.responses[lo:hi].sum(axis=0)
                             for lo, hi in zip(v2.offsets[:-1], v2.offsets[1:])])]
        means = [r.mean(axis=0) for r in returns]
        se = np.sqrt(sum(r.var(axis=0, ddof=1) / n for r in returns))
        assert np.all(np.abs(means[0] - means[1]) <= 4.0 * se)


class TestInverseCdf:
    def test_matches_choice_draw_for_draw(self):
        rng = np.random.default_rng(17)
        choice_rng, draw_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            p = rng.random(n) ** 3 * (rng.random(n) < 0.8)
            p[int(rng.integers(n))] += 0.1
            p /= p.sum()
            assert sm.inverse_cdf(p, draw_rng.random()) == choice_rng.choice(n, p=p)

    @pytest.mark.parametrize("p", [
        [np.nan, 1.0],
        [np.inf, -np.inf, 1.0],
        [-0.1, 1.1],
        [0.5, 0.6],
        [0.5, 0.5 + 2e-8],
    ], ids=["nan", "inf-inf", "negative", "sum-off", "sum-just-off"])
    def test_raises_where_choice_raises(self, p):
        p = np.array(p)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(p.size, p=p)
        with pytest.raises(ValueError, match="probabilities"):
            sm.inverse_cdf(p, 0.5)
        with pytest.raises(ValueError, match="probabilities"):
            sm.inverse_cdf(np.stack([np.full(p.size, 1.0 / p.size), p]), [0.5, 0.5])

    def test_invalid_rows_raise_the_old_checks_messages_in_their_order(self):
        """Against the checks as they ran before the one-pass test, on random
        stacks that break one, two or all three rules."""
        def old_checks(p):
            with np.errstate(invalid="ignore"):
                total = p.sum(axis=-1)
            if np.any(np.isnan(total)):
                return "probabilities contain NaN"
            if np.any(p < 0.0):
                return "probabilities are not non-negative"
            if np.any(np.abs(total - 1.0) > sm._SUM_TOL):
                return f"probabilities do not sum to 1 (sums {total})"
            return None

        rng = np.random.default_rng(23)
        seen = set()
        for _ in range(400):
            p = rng.dirichlet(np.ones(5), size=int(rng.integers(1, 4)))
            for _ in range(int(rng.integers(1, 4))):
                row, col = int(rng.integers(len(p))), int(rng.integers(5))
                p[row, col] = rng.choice([np.nan, np.inf, -np.inf, -0.2, 0.3, 1e-7, -1e-12])
            for stack in (p, p[0]):  # a stack of rows and one distribution
                want = old_checks(stack)
                if want is None:
                    continue
                seen.add(want[:24])
                with pytest.raises(ValueError) as err:
                    sm.inverse_cdf(stack, np.full(stack.shape[:-1], 0.5))
                assert str(err.value) == want
        assert len(seen) == 3  # each message was drawn

    def test_sum_within_tolerance_accepted_like_choice(self):
        p = np.array([0.25, 0.75 + 1e-9])
        for seed in range(20):
            u = np.random.default_rng(seed).random()
            assert sm.inverse_cdf(p, u) == np.random.default_rng(seed).choice(2, p=p)


class TestOfflineGeneration:
    def test_uniform_behavior_probs(self, cfg):
        ds = sm.generate_offline_dataset(cfg, sm.UniformRandomPolicy(cfg.n_items), 3)
        for tr in ds.all_transitions():
            assert tr.behavior_prob == pytest.approx(1.0 / cfg.n_items)
            assert 0.0 < tr.behavior_prob <= 1.0

    def test_empty_dataset_is_valid(self, cfg):
        ds = sm.generate_offline_dataset(cfg, sm.UniformRandomPolicy(cfg.n_items), 0)
        assert ds.trajectories == [] and ds.m == cfg.m
        assert ds.metadata["n_items"] == cfg.n_items

    def test_zero_probability_behavior_aborts(self, cfg):
        class Degenerate:
            def probs(self, features):
                p = np.zeros(cfg.n_items)
                p[0] = 1.0
                return p

        with pytest.raises(ValueError, match="zero probability to item 1"):
            sm.generate_offline_dataset(cfg, Degenerate(), 1)

    @pytest.mark.parametrize("cfg", ROLLOUT_CONFIGS, ids=lambda c: f"seed{c.seed}")
    def test_matches_sequential_logging_loop(self, cfg):
        class Skewed:
            def probs(self, features):
                p = np.exp(np.sin(np.arange(cfg.n_items) * features[0]))
                return p / p.sum()

        behavior = Skewed()
        sim = sm.SessionSimulator(cfg)
        action_rng = np.random.Generator(
            np.random.PCG64(sm.derive_seed(cfg.seed, "behavior-actions")))

        def select(features):
            p = behavior.probs(features)
            item = int(action_rng.choice(cfg.n_items, p=p))
            return item, float(p[item])

        want = [sm.run_episode(sim, select, k, session_id=f"sim-{k}") for k in range(12)]
        ds = sm.generate_offline_dataset(cfg, behavior, 12)
        assert_same_trajectories(ds.trajectories, want)

    def test_logged_frequencies_match_behavior_chi_square(self, cfg):
        class Skewed:
            def probs(self, features):
                p = np.arange(1.0, cfg.n_items + 1.0)
                return p / p.sum()

        ds = sm.generate_offline_dataset(cfg, Skewed(), 700)
        counts = np.zeros(cfg.n_items)
        for tr in ds.all_transitions():
            counts[tr.action_index] += 1
        n = counts.sum()
        assert n >= 10_000
        p = np.arange(1.0, cfg.n_items + 1.0)
        p /= p.sum()
        chi2 = float(np.sum((counts - n * p) ** 2 / (n * p)))
        # 0.999 quantile of chi-square with n_items-1 = 29 dof
        assert chi2 < 58.3

    def test_determinism_and_text_round_trip(self, cfg, tmp_path):
        behavior = sm.UniformRandomPolicy(cfg.n_items)
        a = sm.generate_offline_dataset(cfg, behavior, 4)
        b = sm.generate_offline_dataset(cfg, behavior, 4)
        for ta, tb in zip(a.all_transitions(), b.all_transitions()):
            assert np.array_equal(ta.state.features, tb.state.features)
            assert np.array_equal(ta.response, tb.response)
        path = tmp_path / "sim.txt"
        save_dataset(path, a)
        c = load_dataset(path)
        assert c.n_transitions == a.n_transitions
        for ta, tc in zip(a.all_transitions(), c.all_transitions()):
            assert np.array_equal(ta.state.features, tc.state.features)
            assert np.array_equal(ta.next_state.features, tc.next_state.features)
            assert ta.behavior_prob == tc.behavior_prob


class TestReviewData:
    def test_length_filter_boundary(self):
        cfg = sm.ReviewDatasetConfig(n_users=2, n_items=5, n_reviews=35,
                                     min_trajectory_length=20, seed=3)
        records = [(0, i % 5, np.full(sm.REVIEW_M, 3.0), 0.2) for i in range(25)]
        records += [(1, i % 5, np.full(sm.REVIEW_M, 3.0), 0.2) for i in range(10)]
        ds = sm._reviews_to_dataset(records, 2, 5, 20, 3)
        assert len(ds.trajectories) == 1
        assert len(ds.trajectories[0]) == 25

    def test_round_trip_generate_write_load(self, tmp_path):
        cfg = sm.ReviewDatasetConfig(n_users=12, n_items=8, n_reviews=500, seed=4)
        records = sm.generate_reviews(cfg)
        direct = sm._reviews_to_dataset(records, cfg.n_users, cfg.n_items,
                                        cfg.min_trajectory_length, cfg.history_window)
        path = tmp_path / "reviews.txt"
        sm.save_review_file(path, cfg, records)
        loaded = sm.load_review_dataset(path, cfg.min_trajectory_length,
                                        cfg.history_window)
        assert loaded.m == sm.REVIEW_M
        assert len(loaded.trajectories) == len(direct.trajectories)
        for a, b in zip(direct.trajectories, loaded.trajectories):
            assert a.session_id == b.session_id
            for ta, tb in zip(a.transitions, b.transitions):
                assert np.array_equal(ta.state.features, tb.state.features)
                assert np.array_equal(ta.response, tb.response)
                assert ta.action_index == tb.action_index
                assert ta.behavior_prob == pytest.approx(tb.behavior_prob, abs=0)

    def test_columns_equal_the_per_review_history_loop(self):
        cfg = sm.ReviewDatasetConfig(n_users=7, n_items=6, n_reviews=300, seed=12,
                                     min_trajectory_length=45, history_window=4)
        records = sm.generate_reviews(cfg)
        ds = sm.generate_review_dataset(cfg)
        # the per-review loop: state t holds the user and the last `window`
        # reviews, oldest first
        window, m = cfg.history_window, sm.REVIEW_M
        by_user = {}
        for rec in records:
            by_user.setdefault(rec[0], []).append(rec)
        kept = [u for u, recs in by_user.items() if len(recs) >= cfg.min_trajectory_length]
        assert 0 < len(kept) < len(by_user)
        states, responses, items, probs = [], [], [], []
        for u in kept:
            for t, (_, h, scores, prob) in enumerate(by_user[u]):
                feats = np.zeros(sm.review_state_dim(cfg))
                feats[0] = u / cfg.n_users
                for slot, (_, iid, sc, _) in enumerate(by_user[u][:t][-window:]):
                    off = 1 + slot * (1 + m)
                    feats[off] = iid / cfg.n_items
                    feats[off + 1: off + 1 + m] = sc / 5.0
                states.append(feats)
                responses.append(np.concatenate([[scores[-1]], scores[:-1]]))
                items.append(h)
                probs.append(prob)
        assert ds.session_ids == [f"user-{u}" for u in kept]
        assert np.array_equal(ds.states.view(np.uint64), np.array(states).view(np.uint64))
        assert np.array_equal(ds.responses, np.array(responses))
        assert ds.action_index.tolist() == items and ds.behavior_prob.tolist() == probs
        last = ds.offsets[1:] - 1
        assert np.array_equal(np.flatnonzero(ds.done), last)
        inner = np.setdiff1d(np.arange(ds.n_transitions), last)
        assert np.array_equal(ds.next_states[inner], ds.states[inner + 1])
        assert not ds.next_states[last].any()

    def test_records_without_probability_round_trip(self, tmp_path):
        cfg = sm.ReviewDatasetConfig(n_users=2, n_items=4, n_reviews=60, seed=5,
                                     min_trajectory_length=3)
        records = sm.generate_reviews(cfg)
        records = [(u, h, sc, None if k % 3 == 0 else p)
                   for k, (u, h, sc, p) in enumerate(records)]
        path = tmp_path / "reviews.txt"
        sm.save_review_file(path, cfg, records)
        body = path.read_text().splitlines()[2:]
        assert [len(ln.split(",")) for ln in body[:3]] == [2 + sm.REVIEW_M, 3 + sm.REVIEW_M,
                                                           3 + sm.REVIEW_M]
        loaded = sm.load_review_dataset(path, 3, cfg.history_window)
        direct = sm._reviews_to_dataset(records, cfg.n_users, cfg.n_items, 3,
                                        cfg.history_window)
        for name in ("states", "responses", "action_index", "behavior_prob", "done"):
            assert np.array_equal(getattr(loaded, name), getattr(direct, name),
                                  equal_nan=name == "behavior_prob"), name
        assert np.isnan(loaded.behavior_prob).sum() == 20

    def test_state_layout(self):
        cfg = sm.ReviewDatasetConfig(n_users=6, n_items=4, n_reviews=260, seed=9,
                                     min_trajectory_length=5)
        ds = sm.generate_review_dataset(cfg)
        assert ds.trajectories, "expected at least one kept trajectory"
        traj = ds.trajectories[0]
        dim = sm.review_state_dim(cfg)
        first = traj.transitions[0]
        assert first.state.features.size == dim
        # no history yet: only the user id slot is populated
        assert np.count_nonzero(first.state.features[1:]) == 0
        # later states carry the previous review in the history window
        later = traj.transitions[3]
        assert np.count_nonzero(later.state.features[1:]) > 0

    def test_responses_are_main_first(self):
        cfg = sm.ReviewDatasetConfig(n_users=6, n_items=4, n_reviews=200, seed=9,
                                     min_trajectory_length=5)
        records = sm.generate_reviews(cfg)
        ds = sm._reviews_to_dataset(records, cfg.n_users, cfg.n_items, 5, 3)
        k = 0
        for u, h, scores, prob in records:
            if ds.trajectories and ds.trajectories[0].session_id == f"user-{u}":
                tr = ds.trajectories[0].transitions[k]
                assert tr.response[0] == scores[-1]  # overall rating first
                assert np.array_equal(tr.response[1:], scores[:-1])
                k += 1
                if k >= len(ds.trajectories[0]):
                    break

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# cactor-reviews 1\n# n_users=2 n_items=2\n0,1,3\n")
        with pytest.raises(ValueError, match=":3"):
            sm.load_review_dataset(path)

    @pytest.mark.parametrize("text, where", [
        ("\n# cactor-reviews 1\n\n# n_users=2 n_items=2\n\n0,1,3\n", ":6:"),
        ("# cactor-reviews 1\n\n# n_users=2 n_items=x\n", ":3:"),
        ("# cactor-reviews 1\n# n_users=2 n_items=2\n\n" + "0,1" + ",3" * 8 + "\n"
         + "0,1" + ",3" * 7 + ",bad\n", ":5:"),
        ("\n\n# cactor-reviews 1\n\n", ":3:"),
    ], ids=["field-count", "dims", "value", "header-only"])
    def test_errors_count_blank_lines(self, tmp_path, text, where):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"{path.name}{where} "):
            sm.load_review_dataset(path)

    @pytest.mark.parametrize("fields, message", [
        ("3," * 7 + "3,nan", "probability 'nan' is not a number"),
        ("3," * 7 + "3,0", "probability 0.0 outside (0, 1]"),
        ("3," * 7 + "3,1.5", "probability 1.5 outside (0, 1]"),
        ("3," * 7 + "3,-inf", "probability -inf outside (0, 1]"),
        ("3," * 7 + "inf,0.5", "non-finite score"),
        ("3," * 6 + "nan,3", "non-finite score"),
    ], ids=["nan-prob", "zero-prob", "prob-above-one", "inf-prob", "inf-score", "nan-score"])
    def test_bad_values_are_named_by_file_line(self, tmp_path, fields, message):
        path = tmp_path / "bad.txt"
        good = "0,1," + "3," * 7 + "3,0.5"
        path.write_text(f"# cactor-reviews 1\n# n_users=2 n_items=2\n{good}\n\n0,1,{fields}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path.name}:5: {message}")):
            sm.load_review_dataset(path, min_trajectory_length=1)

    def test_paper_scale_metadata_constants(self):
        # reference corpus scale, for documentation only
        assert sm.REVIEW_M == 8
        assert sm.ReviewDatasetConfig().min_trajectory_length == 20
