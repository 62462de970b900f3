import gc
import json
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cactor import core
from cactor import stochastic as stx

from _rows import dataset, empty_dataset, rebuilt, session


def chain(rewards, state_dim=3, session_id="s", behavior_prob=0.5):
    """A session with the given per-step reward vectors, whose state at step
    t is t in every feature; it ends done."""
    rewards = np.atleast_2d(np.asarray(rewards, dtype=np.float64))
    states = np.repeat(np.arange(len(rewards), dtype=np.float64)[:, None], state_dim, axis=1)
    return session(states, rewards, 0, behavior_prob, sid=session_id)


class TestReturns:
    def test_bad_discount_rejected(self):
        with pytest.raises(ValueError, match="discount"):
            core.check_discounts([1.0], 1)
        # build_policy_set checks the vector before it reads an entry
        with pytest.raises(ValueError, match="discount vector has length 2, expected 3"):
            stx.build_policy_set(3, 5, 3, [1, 1], [0.9, 0.9], (4,), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_discount_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape("every discount must lie in [0, 1)")):
            core.check_discounts([bad, 0.5], 2)


class TestTDAndAdvantage:
    def test_td_direct_formula(self):
        assert core.td_target(1.0, 0.9, 2.0, False) == pytest.approx(2.8)

    def test_td_terminal_ignores_next_value(self):
        assert core.td_target(1.5, 0.9, 1e9, True) == 1.5

    def test_td_zero_discount(self):
        assert core.td_target(0.0, 0.0, 5.0, False) == 0.0

    def test_td_matches_formula_on_random_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            r, g, vn = rng.normal(), rng.uniform(0, 0.999), rng.normal()
            done = bool(rng.integers(2))
            assert core.td_target(r, g, vn, done) == (r if done else r + g * vn)


class TestInvariants:
    def test_done_requires_terminal_next_state(self):
        ds = dataset(chain([[1.0]]))
        with pytest.raises(ValueError, match="session s step 0: done transition must lead to "
                                             "a terminal state"):
            rebuilt(ds, next_terminal=[False])

    def test_broken_chain_rejected(self):
        ds = dataset(chain([[0.0], [0.0]]))
        with pytest.raises(ValueError, match="state chain broken between steps 0 and 1"):
            rebuilt(ds, next_states=np.array([[9.0] * 3, [0.0] * 3]))

    def test_mid_trajectory_done_rejected(self):
        ds = dataset(chain([[1.0], [2.0]]))
        with pytest.raises(ValueError, match="last"):
            rebuilt(ds, done=[True, True], next_terminal=[True, True])

    def test_dataset_m_consistency(self):
        ds = dataset(chain([[1.0, 2.0]]))
        with pytest.raises(ValueError, match=re.escape("responses has shape (1, 2), "
                                                       "expected (1, 1)")):
            rebuilt(ds, m=1)

    @pytest.mark.parametrize("index", [-2.0, 1.5, 1.7, float("inf"), float("nan")])
    def test_bad_action_index_rejected(self, index):
        """A float action column must keep every value in the cast to intp,
        which would store 1.7 as 1."""
        ds = dataset(chain([[1.0], [2.0]]), chain([[3.0]], session_id="b"))
        message = ("negative action index -2" if index == -2.0
                   else f"action_index {index:g} is not an integer")
        with pytest.raises(ValueError, match=re.escape(f"session s step 1: {message}")):
            rebuilt(ds, action_index=[0.0, index, -1.0])

    @pytest.mark.parametrize("name", ["done", "next_terminal"])
    @pytest.mark.parametrize("value", [2, -1, 0.5, float("nan")])
    def test_flags_other_than_0_and_1_rejected(self, name, value):
        """A done or next_terminal of another dtype must keep every value in
        the cast to bool, which would store 2 as True."""
        ds = dataset(chain([[1.0], [2.0]]))
        flags = [0, value] if isinstance(value, int) else [0.0, value]
        with pytest.raises(ValueError, match=re.escape(f"session s step 1: {name} {value:g} "
                                                       "is not 0 or 1")):
            rebuilt(ds, **{name: flags})

    @pytest.mark.parametrize("name,at,value,message", [
        ("states", (1, 0), np.nan, "non-finite state features"),
        ("states", (1, 2), np.inf, "non-finite state features"),
        ("responses", (1, 0), -np.inf, "non-finite response values"),
        ("next_states", (1, 1), np.nan, "non-finite next_state features"),
    ], ids=["nan-feature", "inf-feature", "inf-response", "nan-next-feature"])
    def test_non_finite_values_rejected(self, name, at, value, message):
        ds = dataset(chain([[1.0], [2.0]]))
        col = getattr(ds, name).copy()
        col[at] = value
        with pytest.raises(ValueError, match=re.escape(f"session s step 1: {message}")):
            rebuilt(ds, **{name: col})

    def test_integral_codes_of_another_dtype_are_accepted(self):
        ds = dataset(chain([[1.0], [2.0]]))
        got = rebuilt(ds, action_index=[-1.0, 4.0], done=[0, 1], next_terminal=[0.0, 1.0])
        assert got.action_index.dtype == np.intp and got.action_index.tolist() == [-1, 4]
        assert got.done.tolist() == got.next_terminal.tolist() == [False, True]


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = dataset(*[chain(rng.normal(size=(5, 2)), session_id=f"s{k}",
                             behavior_prob=float(rng.uniform(0.1, 1.0))) for k in range(3)],
                     metadata={"state_dim": 3, "n_items": 2})
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
        ds = dataset(chain([[1.0]], behavior_prob=None), metadata={"state_dim": 3, "n_items": 2})
        path = tmp_path / "d.txt"
        core.save_dataset(path, ds)
        assert core.load_dataset(path).trajectories[0].transitions[0].behavior_prob is None

    def test_row_length_disagreeing_with_header_rejected(self):
        # a row of the wrong width cannot enter the store: the build that
        # would make one is where it is rejected
        ds = dataset(chain([[1.0, 2.0]] * 3, session_id="s7"))
        for name, wrong, want in [("responses", np.ones((3, 1)), "(3, 2)"),
                                  ("next_states", np.ones((3, 4)), "(3, 3)")]:
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} has shape {wrong.shape}, expected {want}")):
                rebuilt(ds, **{name: wrong})

# each value that a round trip most easily gets wrong, plus ordinary ones
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
    """A dataset drawn column by column from ``values``."""
    state_dim, m = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n = sum(lengths)
    return column_store(
        lengths, draw(st.lists(values, min_size=n * state_dim, max_size=n * state_dim)),
        draw(st.lists(values, min_size=n * m, max_size=n * m)),
        draw(st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=n, max_size=n)),
        draw(st.lists(MAYBE_PROB, min_size=n, max_size=n)),
        draw(st.lists(st.booleans(), min_size=len(lengths), max_size=len(lengths))))


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
    @given(ds=stores())
    @settings(max_examples=60, deadline=None)
    def test_save_load_keeps_every_column(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("rt") / "d.txt"
        core.save_dataset(path, ds)
        loaded = core.load_dataset(path)
        assert_same_columns(loaded, ds)
        assert loaded.metadata == {"n_items": 5, "note": "x"}
    def test_edge_values_keep_their_bits(self, tmp_path):
        edge = [-0.0, 5e-324, np.finfo(float).max]
        ds = dataset(session([edge], [[-0.0, 5e-324]], sid="e"))
        core.save_dataset(tmp_path / "d.txt", ds)
        loaded = core.load_dataset(tmp_path / "d.txt")
        assert np.signbit(loaded.states[0, 0]) and np.signbit(loaded.responses[0, 0])
        assert loaded.trajectories[0].transitions[0].action_index is None
        assert loaded.trajectories[0].transitions[0].behavior_prob is None
        assert_same_columns(loaded, ds)

    @pytest.mark.parametrize("metadata", [
        {1: "x"},
        {"note": object()},
        {"pair": (1, 2)},
        {"x": float("nan")},
    ], ids=["int-key", "not-json", "tuple-value", "nan-value"])
    def test_metadata_that_would_not_load_back_is_rejected_before_writing(self, tmp_path,
                                                                          metadata):
        ds = dataset(chain([[1.0, 0.0]]), metadata=metadata)
        with pytest.raises(ValueError, match="does not load back equal from JSON"):
            core.save_dataset(tmp_path / "d.txt", ds)
        assert not (tmp_path / "d.txt").exists()

    @pytest.mark.parametrize("sid", ["nul\0", 7])
    def test_session_id_that_would_not_load_back_is_rejected_before_writing(self, tmp_path,
                                                                            sid):
        """A numpy str array drops a trailing NUL and turns 7 into '7'."""
        ds = dataset(chain([[1.0, 0.0]], session_id=sid))
        with pytest.raises(ValueError, match=re.escape(f"session id {sid!r} does not survive")):
            core.save_dataset(tmp_path / "d.txt", ds)
        assert not (tmp_path / "d.txt").exists()

    @pytest.mark.parametrize("sid", ["a,b", "two\nlines", "carriage\rreturn", "# meta a", "#s",
                                     "inner\0nul", ""])
    def test_session_ids_with_special_characters_round_trip(self, tmp_path, sid):
        ds = dataset(chain([[1.0, 0.0]], session_id=sid), chain([[2.0, 1.0]], session_id="z"))
        core.save_dataset(tmp_path / "d.txt", ds)
        assert core.load_dataset(tmp_path / "d.txt").session_ids == [sid, "z"]

    def test_metadata_value_with_equals_round_trips(self, tmp_path):
        ds = dataset(chain([[1.0, 0.0]]), metadata={"a": "b=c"})
        core.save_dataset(tmp_path / "d.txt", ds)
        assert core.load_dataset(tmp_path / "d.txt").metadata["a"] == "b=c"

    @pytest.mark.parametrize("metadata", [
        {"a=b": "c"},
        {"note": "two\nlines", "two\nlines": "carriage\rreturn"},
        {"n_items": 3, "nested": {"list": [1, 2.5, None, True]}, "": -0.0},
    ], ids=["equals-in-key", "line-breaks", "json-types"])
    def test_metadata_round_trips_equal(self, tmp_path, metadata):
        ds = dataset(chain([[1.0, 0.0]]), metadata=metadata)
        core.save_dataset(tmp_path / "d.txt", ds)
        assert core.load_dataset(tmp_path / "d.txt").metadata == metadata


# few distinct values, each repeated: -0.0 and 0.0 compare equal, so only
# their bits tell them apart
POOL_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, np.finfo(float).max, 1.0 / 3.0])
CONTINUOUS_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


class TestSaveIsByteStable:
    @given(ds=st.one_of(stores(POOL_FLOATS), stores(CONTINUOUS_FLOATS)))
    @example(ds=column_store([2, 1], [-0.0, 0.0, -0.0], [0.0, 1.0 / 3.0, -0.0], [None, 1, 2],
                             [0.5, None, 5e-324], [False, True]))
    @settings(max_examples=100, deadline=None)
    def test_same_bytes_and_bit_exact_round_trip(self, tmp_path_factory, ds):
        """Format 2 gives the same bytes on every save and loads back bit-exact."""
        out = tmp_path_factory.mktemp("bytes")
        core.save_dataset(out / "new.txt", ds)
        core.save_dataset(out / "again.txt", ds)
        assert (out / "new.txt").read_bytes() == (out / "again.txt").read_bytes()
        assert_same_columns(core.load_dataset(out / "new.txt"), ds)


def v2_file(path, ds, **changes):
    """Save ``ds`` at ``path`` in format 2, then write the file again with
    ``changes`` to its arrays (None drops an array)."""
    core.save_dataset(path, ds)
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays.update(changes)
    with open(path, "wb") as fh:
        np.savez(fh, **{name: a for name, a in arrays.items() if a is not None})
    return path


def header(m=1, metadata=None, tag="cactor-dataset 2"):
    return np.array(json.dumps({"format": tag, "m": m, "metadata": metadata or {}}))


class TestFormat2Files:
    def test_two_saves_give_identical_bytes(self, tmp_path):
        ds = dataset(chain([[1.0, 2.0], [3.0, 4.0]], session_id="a"),
                     chain([[5.0, 6.0]], session_id="b"), metadata={"n_items": 2})
        core.save_dataset(tmp_path / "a.txt", ds)
        core.save_dataset(tmp_path / "b.txt", ds)
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert (tmp_path / "a.txt").read_bytes()[:4] == b"PK\x03\x04"

    def test_loaded_columns_are_writable(self, tmp_path):
        ds = dataset(chain([[1.0, 2.0], [3.0, 4.0]], session_id="a"))
        core.save_dataset(tmp_path / "d.txt", ds)
        loaded = core.load_dataset(tmp_path / "d.txt")
        for name in core._COLUMNS:
            col = getattr(loaded, name)
            assert col.flags.writeable and col.flags.c_contiguous, name
        loaded.trajectories[0].transitions[0].behavior_prob *= 0.5
        loaded.responses[1, 0] = -1.0
        assert loaded.behavior_prob[0] == 0.25 and loaded.responses[1, 0] == -1.0

    def test_truncated_session_round_trips_bit_for_bit(self, tmp_path):
        """A session whose last row is not done keeps its non-terminal,
        nonzero next_state."""
        ds = dataset(chain([[1.0], [2.0]], session_id="a"), chain([[3.0]], session_id="b"))
        last = int(ds.offsets[1]) - 1
        done, next_states = ds.done.copy(), ds.next_states.copy()
        done[last], next_states[last] = False, [0.5, -0.0, 5e-324]
        ds = rebuilt(ds, done=done, next_terminal=done.copy(), next_states=next_states)
        core.save_dataset(tmp_path / "d.txt", ds)
        loaded = core.load_dataset(tmp_path / "d.txt")
        assert_same_columns(loaded, ds)
        tr = loaded.trajectories[0].transitions[-1]
        assert not tr.done and not tr.next_state.terminal
        assert tr.next_state.features.tobytes() == np.array([0.5, -0.0, 5e-324]).tobytes()

    def test_format_is_chosen_by_content_not_name(self, tmp_path):
        ds = dataset(chain([[1.0, 2.0]], session_id="a"))
        core.save_dataset(tmp_path / "d.txt", ds)
        assert_same_columns(core.load_dataset(tmp_path / "d.txt"), ds)

    def test_empty_dataset_round_trips(self, tmp_path):
        ds = empty_dataset(3, 2)
        core.save_dataset(tmp_path / "d.txt", ds)
        assert_same_columns(core.load_dataset(tmp_path / "d.txt"), ds)


class TestBadFormat2Files:
    """Every malformed format 2 file fails with a ValueError naming the path,
    and a bad row also names its session and step."""

    @staticmethod
    def ds():
        return dataset(chain([[1.0], [2.0]], session_id="a"), chain([[3.0]], session_id="b"),
                       metadata={"n_items": 2})

    @pytest.mark.parametrize("text", [
        "# cactor-dataset 1\n# m=1 state_dim=1 n_items=2\ns0,0,1.0,1,0.5,2.0,1\n",
        "",
    ], ids=["format-1-text", "empty"])
    def test_file_that_is_not_a_zip_is_rejected(self, tmp_path, text):
        path = tmp_path / "d.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: not a zip file; expected a 'cactor-dataset 2' (zip) dataset")):
            core.load_dataset(path)

    @pytest.mark.parametrize("kept", [0.005, 0.5, 0.999])
    def test_truncated_zip(self, tmp_path, kept):
        path = v2_file(tmp_path / "d.txt", self.ds())
        data = path.read_bytes()
        path.write_bytes(data[:max(4, int(len(data) * kept))])
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            core.load_dataset(path)

    def test_corrupt_array_bytes_fail_the_checksum(self, tmp_path):
        path = v2_file(tmp_path / "d.txt", self.ds())
        data = bytearray(path.read_bytes())
        at = data.index(b"states.npy")
        at = data.index(b"\n", data.index(b"{'descr'", at)) + 4  # inside the first array
        data[at] ^= 0x55
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*CRC"):
            core.load_dataset(path)

    @pytest.mark.parametrize("changes,message", [
        ({"next_states": None}, "arrays ["),
        ({"extra": np.zeros(3)}, "arrays ["),
        ({"header": header(tag="cactor-dataset 1")}, "is not a 'cactor-dataset 2' header"),
        ({"header": header(m=1)[()][:-1]}, "Expecting"),
        ({"header": np.array("[1, 2]")}, "is not a 'cactor-dataset 2' header"),
        ({"header": np.array(3)}, "must be str"),
        ({"session_ids": np.array(["a", 2], dtype=object)}, "allow_pickle=False"),
        ({"action_index": np.array([0, 2, 1])},
         "session a step 1: action index 2 outside [0, 2)"),
        ({"behavior_prob": np.array([0.5, 1.5, 0.5])},
         "session a step 1: behavior_prob 1.5 outside (0, 1]"),
        ({"behavior_prob": np.array([0.5, 0.0, 0.5])},
         "session a step 1: behavior_prob 0.0 outside (0, 1]"),
        ({"done": np.array([True, True, True])},
         "session a step 0: done transition must lead to a terminal state"),
        ({"responses": np.zeros((3, 2))}, "responses has shape (3, 2), expected (3, 1)"),
    ], ids=["missing-array", "extra-array", "format-tag", "header-not-json", "header-not-dict",
            "header-not-text", "object-array", "action-vs-n_items", "row-error", "prob-0",
            "done-before-end", "shape"])
    def test_bad_file_names_path(self, tmp_path, changes, message):
        path = v2_file(tmp_path / "d.txt", self.ds(), **changes)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            core.load_dataset(path)


class TestViews:
    def test_rows_are_views_of_the_columns(self):
        ds = dataset(chain([[1.0, 2.0], [3.0, 4.0]], session_id="a"),
                     chain([[5.0, 6.0]], session_id="b"))
        tr = ds.trajectories[1].transitions[0]
        assert np.shares_memory(tr.response, ds.responses)
        assert np.shares_memory(tr.state.features, ds.states)
        assert tr.response.tolist() == ds.responses[2].tolist() == [5.0, 6.0]
        assert [t.session_id for t in ds.trajectories] == ds.session_ids == ["a", "b"]
        assert ds.offsets.tolist() == [0, 2, 3]

    def test_from_columns_copies_only_columns_of_another_dtype_or_layout(self):
        ds = dataset(chain([[1.0], [2.0]]))
        states = np.asfortranarray(np.ones((2, 3)))
        got = rebuilt(ds, states=states, responses=np.float32([[1.0], [2.0]]))
        assert not np.shares_memory(got.states, states)
        assert got.states.flags.c_contiguous and got.responses.dtype == np.float64
        for name in core._COLUMNS:
            if name not in ("states", "responses"):
                assert getattr(got, name) is getattr(ds, name)

    @pytest.mark.parametrize("name,value", [
        ("response", [1.0]), ("state", core.State(np.zeros(3))),
        ("next_state", core.State(np.zeros(3), True)), ("action_index", 0), ("done", True),
        ("session_id", "x"),
    ])
    def test_rows_are_read_only(self, name, value):
        ds = dataset(chain([[1.0], [2.0]], session_id="w"))
        row = ds.trajectories[0] if name == "session_id" else ds.trajectories[0].transitions[1]
        before = [getattr(ds, col).copy() for col in core._COLUMNS]
        with pytest.raises(AttributeError):
            setattr(row, name, value)
        for col, was in zip(core._COLUMNS, before):
            assert np.array_equal(getattr(ds, col), was)
        assert ds.session_ids == ["w"]

    def test_attribute_writes_are_checked_and_leave_nothing_behind(self):
        ds = dataset(chain([[1.0], [2.0]], session_id="w"))
        tr = ds.trajectories[0].transitions[0]
        for bad in (1.5, 0.0, -0.5, np.nan):
            with pytest.raises(ValueError,
                               match=rf"session w step 0: behavior_prob {bad} outside"):
                tr.behavior_prob = bad
        with pytest.raises(AttributeError):
            tr.done = True
        assert tr.behavior_prob == 0.5 and ds.behavior_prob.tolist() == [0.5, 0.5]
        tr.behavior_prob = None
        assert np.isnan(ds.behavior_prob[0]) and tr.behavior_prob is None
        ds.trajectories[0].transitions[1].behavior_prob = 0.25
        assert ds.behavior_prob[1] == 0.25

    def test_views_keep_their_dataset_alive_and_nothing_else_does(self):
        enabled = gc.isenabled()
        gc.disable()  # every release below is by reference counting alone
        try:
            ds = dataset(chain([[1.0], [2.0]], session_id="a"), chain([[3.0]], session_id="b"))
            alive = weakref.ref(ds)
            traj, row = ds.trajectories[1], ds.all_transitions()[0]
            del ds
            assert alive() is not None and traj._store is alive() and row._store is alive()
            first, again = alive().trajectories, alive().trajectories
            assert [t.session_id for t in first] == ["a", "b"]
            assert all(a is not b and a._store is b._store is alive()
                       for a, b in zip(first, again))
            del traj, first, again
            assert alive() is not None
            del row
            assert alive() is None
        finally:
            if enabled:
                gc.enable()
