import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactor import approximator as ap
from cactor import sim as sm
from cactor.core import _COLUMNS, load_dataset, save_dataset
from cactor.seeding import rng_for

from _reviews import reference_generate_reviews

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
    """``rollout`` probs of one net, evaluated row by row on every session."""
    rows = ap.row_evaluator(spec, params)
    return lambda f: rows(f.reshape(-1, f.shape[-1]))


@pytest.fixture(scope="module")
def cfg():
    return sm.SimConfig(seed=11)


@pytest.mark.parametrize("std", [np.inf, np.nan, -np.inf, -0.1])
def test_dense_noise_std_must_be_finite_and_nonnegative(std):
    """Rejected when the config is built, not at the end of a rollout on
    non-finite responses."""
    with pytest.raises(ValueError, match="^dense_noise_std must be finite and nonnegative$"):
        sm.SimConfig(dense_noise_std=std)


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
        for item in (cfg.n_items, -1, float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="out of range"):
                sim.step(item)

    @pytest.mark.parametrize("item", [1.7, np.float64(2.5), float("nan"), "2", [1], True, 2**70])
    def test_non_integer_item_rejected_by_name(self, cfg, item):
        sim = sm.SessionSimulator(cfg)
        state = sim.reset(0)
        want = re.escape(f"item index {item!r} is not an integer")
        with pytest.raises(ValueError, match=want):
            sim.step(item)
        with pytest.raises(ValueError, match=want):
            sim.response_probs(state.features, item)

    def test_integral_float_item_acts_as_its_integer(self, cfg):
        a, b = sm.SessionSimulator(cfg), sm.SessionSimulator(cfg)
        state = a.reset(4)
        b.reset(4)
        for item in (np.float64(2.0), 3.0, np.int32(5)):
            want = b.step(int(item))
            got = a.step(item)
            assert np.array_equal(got[0].features, want[0].features)
            assert np.array_equal(got[1], want[1]) and got[2] == want[2]
        d_got, s_got = a.response_probs(state.features, np.float64(2.0))
        d_want, s_want = a.response_probs(state.features, 2)
        assert d_got == d_want and np.array_equal(s_got, s_want)

    def test_rejected_step_leaves_the_session_where_it_was(self, cfg):
        a, b = sm.SessionSimulator(cfg), sm.SessionSimulator(cfg)
        a.reset(6)
        b.reset(6)
        a.step(1)
        b.step(1)
        for bad in (1.7, cfg.n_items, -1):
            with pytest.raises(ValueError):
                a.step(bad)
        assert a._t == b._t == 1
        got, want = a.step(3), b.step(3)
        assert np.array_equal(got[0].features, want[0].features)
        assert np.array_equal(got[1], want[1]) and got[2] == want[2]

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


def reference_sigmoid(x):
    """The logistic function in its tanh form, (1 + tanh(x / 2)) / 2."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


def reference_fire_probability(x):
    """The sparse fire probability in its sigmoid form: scale * sigmoid(slope * x - offset)."""
    return sm._SPARSE_PROB_SCALE * reference_sigmoid(sm._SPARSE_SLOPE * x - sm._SPARSE_OFFSET)


def reference_response_terms(sim, features, items):
    """``_response_terms`` with one stacked product per preference map and
    fancy-indexed item rows, kept as the reference for the one-gemv-per-row
    product, the ``take`` gathers and the folded fire probability."""
    pref = sim.pref_maps @ features[:, None, :, None]  # (k, m, embed_dim, 1)
    x = np.tanh((pref.swapaxes(-1, -2) @ sim._embed_rows[items][..., None])[..., 0, 0]
                + sim._bias_rows[items])
    return x[:, 0], reference_fire_probability(x[:, 1:])


def reference_advance(sim, features, items, noise, fire, t, lengths):
    """``_advance`` out of place, its outputs joined by ``np.concatenate``."""
    affinity, sparse_p = reference_response_terms(sim, features, items)
    g = features[:, -2]
    level = sm._DENSE_BASE + affinity + noise
    dense = g * np.where(level > 0.0, level, 0.0)
    response = np.concatenate([dense[:, None], (fire < sparse_p).astype(np.float64)], axis=1)
    k = sim._core_dim
    new_core = np.tanh(0.85 * features[:, :k] + sim._fold_push[items]
                       + (0.1 * response.sum(axis=1))[:, None] * sim.fold_resp)
    new_g = np.clip(g + sm._ENGAGEMENT_GAIN * sim.quality[items], 0.25, 2.0)
    return response, np.concatenate([new_core, new_g[:, None], (t / lengths)[:, None]], axis=1)


def random_rows(cfg, k, seed):
    """(features, items, noise, fire, lengths) of k rows, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(k, cfg.state_dim))
    features[:, -2] = rng.uniform(0.25, 2.0, size=k)
    return (features, rng.integers(cfg.n_items, size=k), rng.normal(0.0, 0.3, size=k),
            rng.random((k, cfg.m - 1)), rng.integers(1, 21, size=k))


class TestStepKernels:
    """``_response_terms`` and ``_advance`` against their out-of-place
    references, bit for bit, at several row counts."""

    @pytest.mark.parametrize("k", [1, 2, 24, 200])
    @pytest.mark.parametrize("cfg", ROLLOUT_CONFIGS[:3], ids=lambda c: f"seed{c.seed}")
    def test_stacked_maps_equal_one_product_per_map(self, cfg, k):
        sim = sm.SessionSimulator(cfg)
        features, items, _, _, _ = random_rows(cfg, k, seed=k)
        m, e, _ = sim.pref_maps.shape
        stacked = (sim._pref_stack @ features[:, :, None]).reshape(k, m, e, 1)
        assert np.array_equal(stacked, sim.pref_maps @ features[:, None, :, None])
        for got, want in zip(sim._response_terms(features, items),
                             reference_response_terms(sim, features, items)):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("k", [1, 2, 24, 200])
    @pytest.mark.parametrize("cfg", ROLLOUT_CONFIGS[:4], ids=lambda c: f"seed{c.seed}")
    def test_advance_equals_reference_and_writes_none_of_its_inputs(self, cfg, k):
        """``_advance`` fills every entry of the two arrays it is given, a
        row of one time-major buffer's slice among them, and writes nothing else."""
        sim = sm.SessionSimulator(cfg)
        inputs = random_rows(cfg, k, seed=100 + k)
        kept = [x.copy() for x in inputs]
        for x in inputs:
            x.setflags(write=False)  # an in-place write raises
        features, items, noise, fire, lengths = inputs
        response = np.full((k, cfg.m), np.nan)
        buffer = np.full((3, k, cfg.state_dim), np.nan)  # as rollout's: step t writes t + 1
        assert sim._advance(features, items, noise, fire, 7, lengths, response, buffer[1]) is None
        want = reference_advance(sim, *kept[:4], 7, kept[4])
        for a, b in zip((response, buffer[1]), want):
            assert a.shape == b.shape and a.dtype == b.dtype == np.float64
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert np.isnan(buffer[[0, 2]]).all()  # the rest of the buffer is untouched
        for x, y in zip(inputs, kept):
            assert np.array_equal(x, y)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64))
    def test_folded_fire_probability_equals_the_sigmoid_form(self, xs):
        """``_fire_probability`` against scale * sigmoid(slope * x - offset),
        bit for bit, over tanh's range and its edge values: +-0, +-1,
        subnormals and the neighbours of 0.75, where 8x - 6 cancels."""
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = [0.0, -0.0, 1.0, -1.0, tiny, -tiny, 1e-310, -1e-310,
                 *np.nextafter(0.75, [0.0, 1.0]), 0.75, np.nextafter(1.0, 0.0),
                 np.nextafter(-1.0, 0.0)]
        x = np.array(xs + edges)
        got, want = sm._fire_probability(x), reference_fire_probability(x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_folded_fire_probability_on_a_grid(self):
        """As above, on 2M evenly spaced points of [-1, 1]."""
        x = np.linspace(-1.0, 1.0, 2_000_001)
        got, want = sm._fire_probability(x), reference_fire_probability(x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
            sm.rollout(sm.SessionSimulator(cfg), lambda f: np.full((2, 3), 1 / 3),
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
        got = sm.rollout(sim, lambda f: rows(f).reshape(-1, cfg.n_items), rngs,
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
        got = sm.rollout(sim, lambda f: rows(f).reshape(-1, cfg.n_items), rngs,
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

    @pytest.mark.parametrize("cfg", ROLLOUT_CONFIGS, ids=lambda c: f"seed{c.seed}")
    def test_finished_sessions_keep_their_last_features(self, cfg):
        """``probs`` sees every session on every step: a finished one with
        the features its last step left, unchanged to the end, while the
        columns still equal one session at a time with ``run_episode``."""
        sim = sm.SessionSimulator(cfg)
        spec = ap.ApproxSpec(cfg.state_dim, (16,), cfg.n_items, "softmax", seed=cfg.seed)
        params = np.stack([ap.init_params(spec) * (1.0 + j) for j in range(2)])
        rows = ap.row_evaluator(spec, params)
        seeds = [[4, 17, 8], [30, 4, 12]]
        seen = []

        def recorder(f):
            seen.append(f.copy())
            return rows(f).reshape(-1, cfg.n_items)
        got = sm.rollout(sim, recorder, [np.random.default_rng(60 + j) for j in range(2)],
                         seeds)
        lengths = np.diff(got.offsets)
        assert len(seen) == lengths.max()
        assert all(f.shape == (2, 3, cfg.state_dim) for f in seen)
        for s, (lo, length) in enumerate(zip(got.offsets, lengths)):
            sim.reset(seeds[s // 3][s % 3])
            for item in got.action_index[lo:lo + length]:
                last = sim.step(item)[0].features
            for t in range(length, len(seen)):
                assert np.array_equal(seen[t][s // 3, s % 3], last), (s, t)
        for j in range(2):
            rng = np.random.default_rng(60 + j)

            def select(features):
                p = ap.forward(spec, params[j], features)
                item = int(rng.choice(cfg.n_items, p=p))
                return item, float(p[item])
            want = [sm.run_episode(sim, select, s) for s in seeds[j]]
            assert_same_trajectories(got.trajectories[3 * j:3 * j + 3], want)

    @pytest.mark.parametrize("cfg", ROLLOUT_CONFIGS, ids=lambda c: f"seed{c.seed}")
    def test_columns_are_fresh_and_hold_no_slot_past_an_end(self, cfg, monkeypatch):
        """The columns reach ``from_columns`` C-contiguous and are kept as
        they are, not copied; and what a session computes past its end
        (here poisoned: NaN responses and next features, and a one-hot
        probability row) reaches none of them."""
        spec = ap.ApproxSpec(cfg.state_dim, (16,), cfg.n_items, "softmax", seed=cfg.seed)
        params = np.stack([ap.init_params(spec) * (1.0 + j) for j in range(2)])
        rows = ap.row_evaluator(spec, params)
        seeds = [[4, 17, 8], [30, 4, 12]]

        def run(sim, probs):
            rngs = [np.random.default_rng(70 + j) for j in range(2)]
            return sm.rollout(sim, probs, rngs, seeds)

        clean = run(sm.SessionSimulator(cfg), lambda f: rows(f).reshape(-1, cfg.n_items))
        sim = sm.SessionSimulator(cfg)
        advance = sim._advance

        def poisoned_advance(features, items, noise, fire, t, lengths, response, nxt):
            advance(features, items, noise, fire, t, lengths, response, nxt)
            past = t > lengths  # t counts this step: the row's session had ended before it
            response[past], nxt[past] = np.nan, np.nan

        def poisoned_probs(f):
            p = rows(f).reshape(-1, cfg.n_items)
            p[f.reshape(-1, cfg.state_dim)[:, -1] == 1.0] = np.eye(cfg.n_items)[-1]  # ended
            return p
        monkeypatch.setattr(sim, "_advance", poisoned_advance)
        passed = {}
        build = sm.ReplayDataset.from_columns

        def spy(**kwargs):
            passed.update(kwargs)
            return build(**kwargs)
        monkeypatch.setattr(sm.ReplayDataset, "from_columns", spy)
        got = run(sim, poisoned_probs)
        for name in _COLUMNS:
            col = getattr(got, name)
            assert col is passed[name] and col.flags.c_contiguous, name
            assert np.array_equal(col, getattr(clean, name)), name
            if col.dtype == np.float64:
                assert np.array_equal(col.view(np.uint64), getattr(clean, name).view(np.uint64))

    def test_invalid_probabilities_name_the_first_bad_row(self, cfg):
        """The first row that ``inverse_cdf`` rejects, by session and step,
        with that row's own error; a finished session's row too, at the
        lockstep step past its end."""
        sim = sm.SessionSimulator(cfg)
        seeds = [3, 8, 1, 6]
        uniform = np.full((len(seeds), cfg.n_items), 1 / cfg.n_items)

        def broken_first_step(f):
            p = uniform.copy()
            p[1, 0], p[3, 0] = -0.5, np.nan  # the whole step would report the NaN first
            return p
        with pytest.raises(ValueError, match=r"^session ep-8 step 0: probabilities are not "
                                             r"non-negative$"):
            sm.rollout(sim, broken_first_step, [np.random.default_rng(0)], [seeds])
        for row, message in [([np.inf, -np.inf], "contain NaN"), ([0.6, 0.5], "do not sum")]:
            def broken(f, row=row):
                p = uniform.copy()
                p[2, :2] = row
                return p
            with pytest.raises(ValueError, match=rf"^session ep-1 step 0: probabilities {message}"):
                sm.rollout(sim, broken, [np.random.default_rng(0)], [seeds])

        def broken_once_ended(f):
            p = uniform.copy()
            p[f[0, :, -1] == 1.0, 2] = np.nan
            return p
        lengths = [sim._start(s)[0] for s in seeds]
        first = seeds[int(np.argmin(lengths))]
        with pytest.raises(ValueError, match=rf"^session ep-{first} step {min(lengths)}: "
                                             r"probabilities contain NaN$"):
            sm.rollout(sim, broken_once_ended, [np.random.default_rng(0)], [seeds])

    def test_session_ids_must_match_episode_seeds(self, cfg, monkeypatch):
        """The id count is checked before any episode starts, naming both counts."""
        sim = sm.SessionSimulator(cfg)
        monkeypatch.setattr(sm.SessionSimulator, "_start", lambda self, seed: pytest.fail(
            "an episode started"))
        uniform = lambda f: np.full((3, cfg.n_items), 1 / cfg.n_items)  # noqa: E731
        with pytest.raises(ValueError, match="^rollout got 2 session ids for 3 episode seeds$"):
            sm.rollout(sim, uniform, [np.random.default_rng(0)], [[1, 2, 3]], ["a", "b"])
        with pytest.raises(ValueError, match="got 4 session ids for 3 episode seeds"):
            sm.rollout(sim, uniform, [np.random.default_rng(0)], [[1, 2, 3]], list("abcd"))

    def test_members_need_one_generator_and_equal_episode_counts(self, cfg):
        sim, rng = sm.SessionSimulator(cfg), np.random.default_rng(0)
        uniform = sm.UniformRandomPolicy(cfg.n_items)

        def probs(f):
            return np.array([uniform.probs(x) for x in f.reshape(-1, cfg.state_dim)])
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
    rng = rng_for(c.seed, "episode", episode_seed)
    lo, hi = c.session_length_range
    length = int(rng.integers(lo, hi + 1))
    first = np.concatenate([rng.normal(size=c.state_dim - 2), [1.0, 0.0]])
    features, responses = first[None], []
    for t in range(1, length + 1):
        item = select(features[0])
        noise = np.array([rng.normal(0.0, c.dense_noise_std) if c.dense_noise_std > 0 else 0.0])
        fire = rng.random((1, c.m - 1))
        response, nxt = np.empty((1, c.m)), np.empty((1, c.state_dim))
        sim._advance(features, np.array([item]), noise, fire, t, np.array([length]), response,
                     nxt)
        features = nxt
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
        v2 = sm.rollout(sim, lambda f: np.full((n, cfg.n_items), 1 / cfg.n_items),
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

    @pytest.mark.parametrize("n, message", [(-1, "must be >= 0"), (True, "must be an integer"),
                                            (2.0, "must be an integer")])
    def test_session_count_must_be_a_nonnegative_integer(self, cfg, n, message):
        with pytest.raises(ValueError, match=f"n_trajectories {message}"):
            sm.generate_offline_dataset(cfg, sm.UniformRandomPolicy(cfg.n_items), n)

    def test_session_count_may_be_a_numpy_integer(self, cfg):
        ds = sm.generate_offline_dataset(cfg, sm.UniformRandomPolicy(cfg.n_items), np.int64(2))
        assert ds.session_ids == ["sim-0", "sim-1"]

    def test_zero_probability_behavior_aborts(self, cfg):
        class Degenerate:
            def probs(self, features):
                p = np.zeros(cfg.n_items)
                p[0] = 1.0
                return p

        with pytest.raises(ValueError, match="zero probability to item 1"):
            sm.generate_offline_dataset(cfg, Degenerate(), 1)

    def test_zero_probability_names_the_first_bad_row(self, cfg):
        """The error names the session and lockstep step of the first row
        with a zero, a finished session's row too, past its end."""
        lengths = [sm.SessionSimulator(cfg)._start(k)[0] for k in range(6)]

        class ZeroFrom:
            def __init__(self, start):
                self.start = start

            def probs(self, features):
                p = np.full(cfg.n_items, 1.0 / cfg.n_items)
                p[2] = 0.0 if features[-1] >= self.start else p[2]  # progress t / length
                return p

        with pytest.raises(ValueError, match=r"^session sim-0 step 1: behavior policy assigns "
                                             r"zero probability to item 2$"):
            sm.generate_offline_dataset(cfg, ZeroFrom(1e-9), 6)
        with pytest.raises(ValueError, match=rf"^session sim-{int(np.argmin(lengths))} step "
                                             rf"{min(lengths)}: behavior policy assigns zero "
                                             r"probability to item 2$"):
            sm.generate_offline_dataset(cfg, ZeroFrom(1.0), 6)  # only once a session ended

    @pytest.mark.parametrize("cfg", ROLLOUT_CONFIGS, ids=lambda c: f"seed{c.seed}")
    def test_matches_sequential_logging_loop(self, cfg):
        class Skewed:
            def probs(self, features):
                p = np.exp(np.sin(np.arange(cfg.n_items) * features[0]))
                return p / p.sum()

        behavior = Skewed()
        sim = sm.SessionSimulator(cfg)
        action_rng = rng_for(cfg.seed, "behavior-actions")

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

    def test_determinism_and_file_round_trip(self, cfg, tmp_path):
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


def review_columns(records):
    """The users, items, scores and probs columns of (user, item, scores,
    prob) records, as ``sm._review_columns`` returns them."""
    users, items, scores, probs = zip(*records)
    return (np.array(users, dtype=np.intp), np.array(items, dtype=np.intp),
            np.array(scores, dtype=np.float64).reshape(-1, sm.REVIEW_M),
            np.array(probs, dtype=np.float64))


REVIEW_ORACLE_CASES = [(sm.ReviewDatasetConfig(seed=s), 2400) for s in range(10)] + [
    (sm.ReviewDatasetConfig(n_users=1, n_items=1, seed=2), 2400),
    (sm.ReviewDatasetConfig(n_reviews=1, min_trajectory_length=1, seed=3), 1),
    (sm.ReviewDatasetConfig(n_reviews=19, seed=4), 0),  # one review short of any session
]


@pytest.mark.parametrize("cfg, rows", REVIEW_ORACLE_CASES,
                         ids=[f"default-seed{s}" for s in range(10)]
                         + ["one-user-one-item", "one-review", "every-session-filtered"])
def test_review_corpus_equals_the_per_review_loop(cfg, rows):
    want = review_columns(reference_generate_reviews(cfg))
    got = sm._review_columns(cfg)
    for a, b in zip(got, want):  # users, items, scores, probs
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8))
    ds = sm.generate_review_dataset(cfg)
    ref = sm._reviews_to_dataset(*want, cfg.n_users, cfg.n_items,
                                 cfg.min_trajectory_length, cfg.history_window)
    for name in _COLUMNS:
        a, b = getattr(ds, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), name
    assert np.array_equal(ds.offsets, ref.offsets) and ds.session_ids == ref.session_ids
    assert ds.n_transitions == rows


class TestReviewData:
    def test_length_filter_boundary(self):
        cfg = sm.ReviewDatasetConfig(n_users=2, n_items=5, n_reviews=35,
                                     min_trajectory_length=20, seed=3)
        records = [(0, i % 5, np.full(sm.REVIEW_M, 3.0), 0.2) for i in range(25)]
        records += [(1, i % 5, np.full(sm.REVIEW_M, 3.0), 0.2) for i in range(10)]
        ds = sm._reviews_to_dataset(*review_columns(records), 2, 5, 20, 3)
        assert len(ds.trajectories) == 1
        assert len(ds.trajectories[0]) == 25

    def test_columns_equal_the_per_review_history_loop(self):
        cfg = sm.ReviewDatasetConfig(n_users=7, n_items=6, n_reviews=300, seed=12,
                                     min_trajectory_length=45, history_window=4)
        records = reference_generate_reviews(cfg)
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
                feats = np.zeros(ds.states.shape[1])
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

    def test_state_layout(self):
        cfg = sm.ReviewDatasetConfig(n_users=6, n_items=4, n_reviews=260, seed=9,
                                     min_trajectory_length=5)
        ds = sm.generate_review_dataset(cfg)
        assert ds.trajectories, "expected at least one kept trajectory"
        traj = ds.trajectories[0]
        dim = 1 + cfg.history_window * (1 + sm.REVIEW_M)
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
        records = reference_generate_reviews(cfg)
        ds = sm.generate_review_dataset(cfg)
        k = 0
        for u, h, scores, prob in records:
            if ds.trajectories and ds.trajectories[0].session_id == f"user-{u}":
                tr = ds.trajectories[0].transitions[k]
                assert tr.response[0] == scores[-1]  # overall rating first
                assert np.array_equal(tr.response[1:], scores[:-1])
                k += 1
                if k >= len(ds.trajectories[0]):
                    break
        assert k == len(ds.trajectories[0])

    def test_paper_scale_metadata_constants(self):
        # reference corpus scale, for documentation only
        assert sm.REVIEW_M == 8
        assert sm.ReviewDatasetConfig().min_trajectory_length == 20
