import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactor import core


def make_traj(rewards, state_dim=3, session_id="s", behavior_prob=0.5):
    """Chain trajectory with the given per-step reward vectors."""
    rewards = np.atleast_2d(np.asarray(rewards, dtype=np.float64))
    n = rewards.shape[0]
    states = [core.State(np.full(state_dim, float(t))) for t in range(n)]
    states.append(core.terminal_state(state_dim))
    trs = []
    for t in range(n):
        trs.append(core.Transition(
            state=states[t], response=rewards[t],
            next_state=states[t + 1], done=t == n - 1, action_index=0,
            behavior_prob=behavior_prob))
    return core.Trajectory(trs, session_id=session_id)


def brute_force_returns(rewards, gammas):
    rewards = np.asarray(rewards, dtype=np.float64)
    n, m = rewards.shape
    out = np.zeros_like(rewards)
    for t in range(n):
        for i in range(m):
            for t2 in range(t, n):
                out[t, i] += gammas[i] ** (t2 - t) * rewards[t2, i]
    return out


class TestReturns:
    def test_geometric_sum_m1(self):
        traj = make_traj([[1.0], [1.0], [1.0]])
        ret = core.discounted_returns(traj, [0.5])
        assert np.allclose(ret[:, 0], [1.75, 1.5, 1.0], atol=1e-15)

    def test_zero_discount_gives_instantaneous_rewards(self):
        rewards = np.random.default_rng(0).normal(size=(6, 2))
        traj = make_traj(rewards)
        ret = core.discounted_returns(traj, [0.0, 0.0])
        assert np.array_equal(ret, rewards)

    def test_matches_brute_force_double_loop(self):
        rewards = [[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]]
        gammas = [0.9, 0.5]
        traj = make_traj(rewards)
        expected = brute_force_returns(rewards, gammas)
        assert np.allclose(core.discounted_returns(traj, gammas), expected, atol=1e-12)

    def test_recursion_identity(self):
        rng = np.random.default_rng(1)
        rewards = rng.normal(size=(8, 3))
        gammas = np.array([0.9, 0.5, 0.0])
        ret = core.discounted_returns(make_traj(rewards), gammas)
        for t in range(7):
            assert np.allclose(ret[t], rewards[t] + gammas * ret[t + 1], atol=1e-12)

    def test_bad_discount_rejected(self):
        with pytest.raises(ValueError, match="discount"):
            core.discounted_returns(make_traj([[1.0]]), [1.0])


class TestTDAndAdvantage:
    def test_td_direct_formula(self):
        assert core.td_target(1.0, 0.9, 2.0, False) == pytest.approx(2.8)

    def test_td_terminal_ignores_next_value(self):
        assert core.td_target(1.5, 0.9, 1e9, True) == 1.5

    def test_td_zero_discount(self):
        assert core.td_target(0.0, 0.0, 5.0, False) == 0.0

    def test_advantage_fixed_point(self):
        assert core.advantage(1.0, 0.9, 2.0, 2.8, False) == pytest.approx(0.0)

    def test_advantage_myopic(self):
        assert core.advantage(1.0, 0.0, 123.0, 0.0, False) == pytest.approx(1.0)

    def test_advantage_recomposes_td(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            r, g, vn, vc = rng.normal(), rng.uniform(0, 0.999), rng.normal(), rng.normal()
            done = bool(rng.integers(2))
            assert core.advantage(r, g, vn, vc, done) == pytest.approx(
                core.td_target(r, g, vn, done) - vc)


class TestRankItems:
    def test_orthogonal_case(self):
        assert core.rank_items(np.array([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]])) == 1

    def test_tie_breaks_to_lowest_index(self):
        items = np.tile(np.array([0.3, -0.1]), (4, 1))
        assert core.rank_items(np.array([1.0, 2.0]), items) == 0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(3)
        action = rng.normal(size=4)
        items = rng.normal(size=(5, 4))
        best = max(range(5), key=lambda j: float(items[j] @ action))
        assert core.rank_items(action, items) == best

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            core.rank_items(np.array([1.0]), np.zeros((0, 1)))

    @settings(max_examples=50, derandomize=True)
    @given(st.integers(0, 10 ** 6), st.floats(0.01, 100.0))
    def test_invariant_to_positive_rescaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        action = rng.normal(size=3)
        items = rng.normal(size=(6, 3))
        assert core.rank_items(action, items) == core.rank_items(scale * action, items)


class TestInvariants:
    def test_done_requires_terminal_next_state(self):
        s = core.State(np.zeros(2))
        with pytest.raises(ValueError, match="terminal"):
            core.Transition(state=s, response=np.array([0.0]),
                            next_state=core.State(np.zeros(2)), done=True)

    def test_broken_chain_rejected(self):
        s0, s1 = core.State(np.zeros(2)), core.State(np.ones(2))
        tr0 = core.Transition(s0, np.array([0.0]),
                              core.State(np.full(2, 9.0)), False)
        tr1 = core.Transition(s1, np.array([0.0]),
                              core.terminal_state(2), True)
        with pytest.raises(ValueError, match="chain"):
            core.Trajectory([tr0, tr1])

    def test_mid_trajectory_done_rejected(self):
        t1 = make_traj([[1.0], [2.0]])
        early_done = t1.transitions[1]
        with pytest.raises(ValueError, match="last"):
            core.Trajectory([early_done, early_done])

    def test_dataset_m_consistency(self):
        with pytest.raises(ValueError, match="m="):
            core.ReplayDataset([make_traj([[1.0]]), make_traj([[1.0, 2.0]])], m=1)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        trajs = [make_traj(rng.normal(size=(5, 2)), session_id=f"s{k}",
                           behavior_prob=float(rng.uniform(0.1, 1.0)))
                 for k in range(3)]
        ds = core.ReplayDataset(trajs, m=2, metadata={"state_dim": 3, "n_items": 2})
        path = tmp_path / "data.txt"
        core.save_dataset(path, ds)
        ds2 = core.load_dataset(path)
        assert ds2.m == 2 and len(ds2.trajectories) == 3
        for a, b in zip(ds.trajectories, ds2.trajectories):
            assert a.session_id == b.session_id
            for ta, tb in zip(a.transitions, b.transitions):
                assert np.array_equal(ta.state.features, tb.state.features)
                assert np.array_equal(ta.response, tb.response)
                assert np.array_equal(ta.next_state.features, tb.next_state.features)
                assert ta.done == tb.done
                assert ta.action_index == tb.action_index
                assert ta.behavior_prob == tb.behavior_prob

    def test_missing_behavior_prob_round_trips_as_none(self, tmp_path):
        ds = core.ReplayDataset([make_traj([[1.0]], behavior_prob=None)], m=1,
                                metadata={"state_dim": 3, "n_items": 2})
        path = tmp_path / "d.txt"
        core.save_dataset(path, ds)
        assert core.load_dataset(path).trajectories[0].transitions[0].behavior_prob is None

    def test_rows_match_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(5)
        rewards = rng.normal(size=(4, 2)) * 10.0 ** rng.integers(-300, 300, size=(4, 2))
        traj = make_traj(rewards, session_id="s3", behavior_prob=1.0 / 3.0)
        traj.transitions[1].state.features[:] = [-0.0, 5e-324, np.finfo(float).max]
        ds = core.ReplayDataset([traj], m=2, metadata={"state_dim": 3, "n_items": 2})
        path = tmp_path / "d.txt"
        core.save_dataset(path, ds)
        body = path.read_text().splitlines()[2:]
        assert len(body) == len(traj)
        for t, (line, tr) in enumerate(zip(body, traj.transitions)):
            feats = ",".join(f"{v:.17g}" for v in tr.state.features)
            resp = ",".join(f"{v:.17g}" for v in tr.response)
            assert line == f"s3,{t},{feats},0,{tr.behavior_prob:.17g},{resp},{int(tr.done)}"

    def test_row_length_disagreeing_with_header_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        ds = core.ReplayDataset([make_traj([[1.0, 2.0]] * 3, session_id="s7")], m=2)
        ds.trajectories[0].transitions[2].response = np.array([1.0])
        with pytest.raises(ValueError, match="session s7 step 2"):
            core.save_dataset(path, ds)
        ds = core.ReplayDataset([make_traj([[1.0]] * 3, session_id="s8")], m=1)
        ds.trajectories[0].transitions[1].state = core.State(np.ones(4))
        with pytest.raises(ValueError, match="session s8 step 1: 4 features"):
            core.save_dataset(path, ds)
        assert not path.exists()

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# cactor-dataset 1\n# m=1 state_dim=2 n_items=2\ns0,0,1.0\n")
        with pytest.raises(ValueError, match=":3"):
            core.load_dataset(path)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_action_index_out_of_range_reports_line_number(self, tmp_path, index):
        path = tmp_path / "bad.txt"
        path.write_text("# cactor-dataset 1\n# m=1 state_dim=1 n_items=2\n"
                        "s0,0,1.0,1,0.5,2.0,0\n"
                        f"s0,1,3.0,{index},0.5,4.0,1\n")
        with pytest.raises(ValueError, match=f":4: action index {index} outside"):
            core.load_dataset(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nope\n")
        with pytest.raises(ValueError, match="header"):
            core.load_dataset(path)
