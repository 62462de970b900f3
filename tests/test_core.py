import re

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        # states and next_states are separate columns: edit the state of step 1
        # in both, as the state shared by steps 0 and 1 used to be edited once
        edge = [-0.0, 5e-324, np.finfo(float).max]
        traj.transitions[1].state.features[:] = edge
        traj.transitions[0].next_state.features[:] = edge
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
        # a row of the wrong width cannot enter the store: the assignment that
        # would make one is where it is rejected, and nothing of it lands
        path = tmp_path / "d.txt"
        ds = core.ReplayDataset([make_traj([[1.0, 2.0]] * 3, session_id="s7")], m=2)
        with pytest.raises(ValueError, match="session s7 step 2"):
            ds.trajectories[0].transitions[2].response = np.array([1.0])
        assert np.array_equal(ds.responses, [[1.0, 2.0]] * 3)
        ds = core.ReplayDataset([make_traj([[1.0]] * 3, session_id="s8")], m=1)
        with pytest.raises(ValueError, match="session s8 step 1: 4 features"):
            ds.trajectories[0].transitions[1].state = core.State(np.ones(4))
        assert np.array_equal(ds.trajectories[0].transitions[1].state.features, np.ones(3))
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


def write_dataset(path, body, dims="m=1 state_dim=1 n_items=2"):
    path.write_text(f"# cactor-dataset 1\n# {dims}\n" + "".join(ln + "\n" for ln in body))
    return path


class TestBadDatasetFiles:
    """Every malformed file fails with a ValueError naming {path}:{lineno}."""

    @pytest.mark.parametrize("text,where,message", [
        ("# cactor-dataset 1\n", 1, "the header is not followed by '# m=<int>"),
        ("# cactor-dataset 1\n# m=1 state_dim n_items=2\n", 2, "'state_dim' is not <key>=<int>"),
        ("# cactor-dataset 1\n# m=1 n_items=2\n", 2, "missing state_dim=<int>"),
        ("# cactor-dataset 1\n# m=x state_dim=1 n_items=2\n", 2, "m=x is not an integer"),
        ("# cactor-dataset 1\n# m=1 state_dim=-1 n_items=2\n", 2, "state_dim=-1 is negative"),
    ], ids=["header-only", "token-without-equals", "missing-state_dim", "m=x", "negative"])
    def test_bad_dims_line(self, tmp_path, text, where, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{where}: {message}")):
            core.load_dataset(path)

    @pytest.mark.parametrize("row,message", [
        ("s0,0,nan,1,0.5,2.0,1", "non-finite state features"),
        ("s0,0,inf,1,0.5,2.0,1", "non-finite state features"),
        ("s0,0,1.0,1,0.5,-inf,1", "non-finite response values"),
        ("s0,0,1.0,1,1.5,2.0,1", "behavior_prob 1.5 outside (0, 1]"),
        ("s0,0,1.0,1,0,2.0,1", "behavior_prob 0.0 outside (0, 1]"),
        ("s0,0,1.0,1,0.5,2.0,2", "done field 2 is not 0 or 1"),
        ("s0,0,1.0,1.5,0.5,2.0,1", "action index 1.5 outside [0, 2)"),
        ("s0,1,1.0,1,0.5,2.0,1", "step index 1 out of order for session s0"),
        ("s0,0,1.0,1,nan,2.0,1", "'nan' to float64"),
        ("s0,0,1.0,1,0.5,x,1", "'x' to float64"),
    ], ids=["nan-feature", "inf-feature", "inf-response", "prob-1.5", "prob-0", "done-2",
            "fractional-action", "step-order", "nan-prob-is-not-missing", "not-a-number"])
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        path = write_dataset(tmp_path / "bad.txt", ["s1,0,3.0,0,0.5,1.0,1", row])
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: ") + ".*"
                           + re.escape(message)):
            core.load_dataset(path)

    def test_meta_line_without_equals_names_its_line(self, tmp_path):
        """A row whose session id starts with '# meta ' is not read as a
        metadata key (it was, dropping the row)."""
        path = write_dataset(tmp_path / "bad.txt", ["# meta s0,0,1.0,1,0.5,2.0,1",
                                                    "s1,0,1.0,1,0.5,2.0,1"])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:3: meta line '# meta s0,0,1.0,1,0.5,2.0,1' is not "
                "'# meta <key>=<value>'")):
            core.load_dataset(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = write_dataset(tmp_path / "bad.txt", ["", "s0,0,1.0,1,0.5,2.0,2"])
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: done field 2")):
            core.load_dataset(path)

    def test_done_before_the_last_row_names_its_line(self, tmp_path):
        path = write_dataset(tmp_path / "bad.txt", ["s0,0,1.0,1,0.5,2.0,1", "s1,0,0.0,1,0.5,2.0,1",
                                                    "s0,1,0.0,1,0.5,2.0,1"])
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}:3: only the last transition may be terminal")):
            core.load_dataset(path)


# each value that a text round trip most easily gets wrong, plus ordinary ones
EDGE_FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                          np.finfo(float).max, -np.finfo(float).max, 0.1,
                                          1.0 / 3.0]),
                        st.floats(allow_nan=False, allow_infinity=False))
MAYBE_PROB = st.one_of(st.none(), st.sampled_from([5e-324, 1.0, 0.1]),
                       st.floats(min_value=5e-324, max_value=1.0))


def column_store(lengths, states, responses, actions, probs, done_ends):
    """A dataset of sessions of ``lengths`` from its row values; None marks a
    missing action or behavior_prob, and ``done_ends`` says which sessions
    end done."""
    n = sum(lengths)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    states = np.array(states, dtype=float).reshape(n, len(states) // n)
    done = np.zeros(n, dtype=bool)
    ends = offsets[1:] - 1
    done[ends] = done_ends
    next_states = np.zeros_like(states)
    next_states[:-1] = states[1:]
    next_states[ends] = 0.0
    return core.ReplayDataset.from_columns(
        states=states, next_states=next_states, next_terminal=done,
        action_index=[-1 if a is None else a for a in actions],
        behavior_prob=[np.nan if p is None else p for p in probs],
        responses=np.array(responses, dtype=float).reshape(n, len(responses) // n), done=done,
        offsets=offsets, session_ids=[f"s{k}" for k in range(len(lengths))],
        m=len(responses) // n, metadata={"n_items": 5, "note": "x"})


@st.composite
def stores(draw, values=EDGE_FLOATS):
    """A dataset drawn column by column from ``values``, and an interleaving
    of its sessions' rows in the file."""
    state_dim, m = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n = sum(lengths)
    ds = column_store(
        lengths, draw(st.lists(values, min_size=n * state_dim, max_size=n * state_dim)),
        draw(st.lists(values, min_size=n * m, max_size=n * m)),
        draw(st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=n, max_size=n)),
        draw(st.lists(MAYBE_PROB, min_size=n, max_size=n)),
        draw(st.lists(st.booleans(), min_size=len(lengths), max_size=len(lengths))))
    file_order = draw(st.permutations([k for k, n_k in enumerate(lengths) for _ in range(n_k)]))
    return ds, file_order


def assert_same_columns(a, b):
    """Every column equal, floats bit for bit (sign of zero, subnormals, nan)."""
    for name in core._COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        if x.dtype == np.float64:
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64)), name
        assert np.array_equal(x, y, equal_nan=x.dtype == np.float64), name
    assert np.array_equal(a.offsets, b.offsets)
    assert a.session_ids == b.session_ids and a.m == b.m


class TestStoreRoundTrip:
    @given(drawn=stores())
    @settings(max_examples=60, deadline=None)
    def test_save_load_keeps_every_column(self, tmp_path_factory, drawn):
        ds, file_order = drawn
        path = tmp_path_factory.mktemp("rt") / "d.txt"
        core.save_dataset(path, ds)
        loaded = core.load_dataset(path)
        assert_same_columns(loaded, ds)
        assert loaded.metadata == {"state_dim": ds.states.shape[1], "n_items": 5, "note": "x"}
        # the same rows with the sessions interleaved load into the same store
        lines = path.read_text().splitlines()
        head, body = lines[:3], lines[3:]
        by_session = [iter(body[lo:hi]) for lo, hi in zip(ds.offsets[:-1], ds.offsets[1:])]
        path.write_text("\n".join(head + [next(by_session[k]) for k in file_order]) + "\n")
        # sessions come in order of their first row in the file
        first_seen = list(dict.fromkeys(file_order))
        want = core.ReplayDataset([ds.trajectories[k] for k in first_seen], m=ds.m)
        assert_same_columns(core.load_dataset(path), want)

    def test_edge_values_keep_their_bits(self, tmp_path):
        edge = [-0.0, 5e-324, np.finfo(float).max]
        traj = core.Trajectory([core.Transition(core.State(edge), [-0.0, 5e-324],
                                                core.terminal_state(3), True)], "e")
        ds = core.ReplayDataset([traj], m=2)
        core.save_dataset(tmp_path / "d.txt", ds)
        loaded = core.load_dataset(tmp_path / "d.txt")
        assert np.signbit(loaded.states[0, 0]) and np.signbit(loaded.responses[0, 0])
        assert loaded.trajectories[0].transitions[0].action_index is None
        assert loaded.trajectories[0].transitions[0].behavior_prob is None
        assert_same_columns(loaded, ds)

    @pytest.mark.parametrize("metadata", [
        {"a=b": "c"},
        {"note": "two\nlines"},
        {"note": "carriage\rreturn"},
        {"two\nlines": "x"},
    ], ids=["equals-in-key", "newline-in-value", "return-in-value", "newline-in-key"])
    def test_metadata_that_would_not_load_back_is_rejected_before_writing(self, tmp_path,
                                                                          metadata):
        ds = core.ReplayDataset([make_traj([[1.0, 0.0]])], m=2, metadata=metadata)
        with pytest.raises(ValueError, match=re.escape(f"metadata {next(iter(metadata))!r}")):
            core.save_dataset(tmp_path / "d.txt", ds)
        assert not (tmp_path / "d.txt").exists()

    @pytest.mark.parametrize("sid", ["a,b", "two\nlines", "carriage\rreturn", "# meta a", "#s"])
    def test_session_id_that_would_not_load_back_is_rejected_before_writing(self, tmp_path,
                                                                            sid):
        ds = core.ReplayDataset([make_traj([[1.0, 0.0]], session_id=sid)], m=2)
        with pytest.raises(ValueError, match=re.escape(f"session id {sid!r} must not")):
            core.save_dataset(tmp_path / "d.txt", ds)
        assert not (tmp_path / "d.txt").exists()

    def test_metadata_value_with_equals_round_trips(self, tmp_path):
        ds = core.ReplayDataset([make_traj([[1.0, 0.0]])], m=2, metadata={"a": "b=c"})
        core.save_dataset(tmp_path / "d.txt", ds)
        assert core.load_dataset(tmp_path / "d.txt").metadata["a"] == "b=c"


def reference_save_dataset(path, dataset):
    """The per-row writer that ``core.save_dataset`` replaced, kept as its
    byte reference: one ``%`` call per row and column block."""
    d = dataset
    n_items = int(d.metadata.get("n_items", 0))
    lines = [core._DATASET_HEADER, f"# m={d.m} state_dim={d.states.shape[1]} n_items={n_items}"]
    lines += [f"# meta {key}={d.metadata[key]}" for key in sorted(d.metadata)
              if key not in ("state_dim", "n_items")]
    feats_fmt = "%.17g," * d.states.shape[1]
    resp_fmt = "%.17g," * d.m
    lengths = np.diff(d.offsets)
    sids = [sid for sid, n in zip(d.session_ids, lengths.tolist()) for _ in range(n)]
    steps = (np.arange(d.n_transitions) - np.repeat(d.offsets[:-1], lengths)).tolist()
    feats = [feats_fmt % tuple(row) for row in d.states.tolist()]
    acts = ["-" if a < 0 else str(a) for a in d.action_index.tolist()]
    bps = ["-" if p != p else f"{p:.17g}" for p in d.behavior_prob.tolist()]
    resps = [resp_fmt % tuple(row) for row in d.responses.tolist()]
    dones = d.done.astype(np.int8).tolist()
    lines.extend(f"{sid},{t},{f}{a},{bp},{r}{dn}"
                 for sid, t, f, a, bp, r, dn in zip(sids, steps, feats, acts, bps, resps, dones))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# few distinct values, each repeated: -0.0 and 0.0 compare equal but are
# written differently, so only their bits tell them apart
POOL_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, np.finfo(float).max, 1.0 / 3.0])
CONTINUOUS_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


class TestSaveMatchesReferenceWriter:
    @given(ds=st.one_of(stores(POOL_FLOATS), stores(CONTINUOUS_FLOATS)).map(lambda d: d[0]))
    @example(ds=column_store([2, 1], [-0.0, 0.0, -0.0], [0.0, 1.0 / 3.0, -0.0], [None, 1, 2],
                             [0.5, None, 5e-324], [False, True]))
    @settings(max_examples=100, deadline=None)
    def test_same_bytes_and_bit_exact_round_trip(self, tmp_path_factory, ds):
        out = tmp_path_factory.mktemp("bytes")
        core.save_dataset(out / "new.txt", ds)
        reference_save_dataset(out / "ref.txt", ds)
        assert (out / "new.txt").read_bytes() == (out / "ref.txt").read_bytes()
        assert_same_columns(core.load_dataset(out / "new.txt"), ds)


class TestViews:
    def test_rows_are_views_of_the_columns(self):
        ds = core.ReplayDataset([make_traj([[1.0, 2.0], [3.0, 4.0]], session_id="a"),
                                 make_traj([[5.0, 6.0]], session_id="b")], m=2)
        tr = ds.trajectories[1].transitions[0]
        assert np.shares_memory(tr.response, ds.responses)
        assert np.shares_memory(tr.state.features, ds.states)
        assert ds.trajectories[1].transitions[0] is tr
        assert [t.session_id for t in ds.trajectories] == ds.session_ids == ["a", "b"]
        assert ds.offsets.tolist() == [0, 2, 3]

    def test_constructors_adopt_free_objects_and_copy_owned_ones(self):
        trs = make_traj([[1.0], [2.0]]).transitions
        free = core.Transition(core.State(np.zeros(3)), [1.0], core.terminal_state(3), True,
                               action_index=0, behavior_prob=0.5)
        traj = core.Trajectory([free], session_id="f")
        assert traj.transitions[0] is free
        free.behavior_prob = 0.25
        ds = core.ReplayDataset([traj], m=1)
        assert ds.trajectories[0] is traj and ds.behavior_prob[0] == 0.25
        free.behavior_prob = 0.125
        assert ds.behavior_prob[0] == 0.125
        # a row of another store is copied; the original stays in its store
        other = core.Trajectory([trs[0]], session_id="c")
        other.transitions[0].behavior_prob = 0.75
        assert trs[0].behavior_prob == 0.5
        copy = core.ReplayDataset([traj], m=1)
        assert copy.trajectories[0] is not traj
        copy.trajectories[0].transitions[0].behavior_prob = 1.0
        assert ds.behavior_prob[0] == 0.125

    def test_attribute_writes_are_checked_and_leave_nothing_behind(self):
        ds = core.ReplayDataset([make_traj([[1.0], [2.0]], session_id="w")], m=1)
        tr = ds.trajectories[0].transitions[0]
        with pytest.raises(ValueError, match=r"session w step 0: behavior_prob 1.5 outside"):
            tr.behavior_prob = 1.5
        with pytest.raises(ValueError, match="session w step 0: non-finite response"):
            tr.response = [np.nan]
        with pytest.raises(ValueError, match="session w step 1: done transition must lead"):
            ds.trajectories[0].transitions[1].next_state = core.State(np.zeros(3))
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            tr.action_index = -1
        with pytest.raises(AttributeError):
            tr.done = True
        assert tr.behavior_prob == 0.5 and tr.response.tolist() == [1.0]
        assert ds.next_terminal.tolist() == [False, True]
        tr.behavior_prob = None
        tr.action_index = None
        assert np.isnan(ds.behavior_prob[0]) and ds.action_index[0] == -1
        assert tr.behavior_prob is None and tr.action_index is None
