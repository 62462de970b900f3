"""Vector-reward MDP vocabulary: states, transitions, trajectories, returns.

Conventions used throughout the package:
  * rewards are length-m response vectors and element 0 is the main response;
  * each response i carries its own discount factor gamma_i in [0, 1);
  * terminal states bootstrap with value 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class State:
    features: np.ndarray
    terminal: bool = False

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        if self.features.ndim != 1:
            raise ValueError("state features must be a 1-D vector")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite state features")


@dataclass
class Transition:
    """One logged step.  behavior_prob is the probability the logging policy
    assigned to the action; it must be present on data fed to debiased
    offline updates and importance-ratio evaluators."""

    state: State
    response: np.ndarray
    next_state: State
    done: bool
    action_index: int | None = None
    behavior_prob: float | None = None

    def __post_init__(self):
        self.response = np.asarray(self.response, dtype=np.float64)
        if not np.all(np.isfinite(self.response)):
            raise ValueError("non-finite response values")
        if self.behavior_prob is not None and not (0.0 < self.behavior_prob <= 1.0):
            raise ValueError(f"behavior_prob {self.behavior_prob} outside (0, 1]")
        if self.done and not self.next_state.terminal:
            raise ValueError("done transition must lead to a terminal state")


@dataclass
class Trajectory:
    transitions: list[Transition]
    session_id: str = "session-0"

    def __post_init__(self):
        if not self.transitions:
            raise ValueError("empty trajectory")
        for k, tr in enumerate(self.transitions):
            if tr.done and k != len(self.transitions) - 1:
                raise ValueError("only the last transition may be terminal")
            if k > 0:
                prev = self.transitions[k - 1]
                if not np.array_equal(prev.next_state.features, tr.state.features):
                    raise ValueError(f"state chain broken between steps {k - 1} and {k}")

    def __len__(self) -> int:
        return len(self.transitions)

    @property
    def m(self) -> int:
        return self.transitions[0].response.size


@dataclass
class ReplayDataset:
    trajectories: list[Trajectory]
    m: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for traj in self.trajectories:
            if traj.m != self.m:
                raise ValueError(f"trajectory {traj.session_id} has m={traj.m}, dataset m={self.m}")

    def all_transitions(self) -> list[Transition]:
        return [tr for traj in self.trajectories for tr in traj.transitions]

    @property
    def n_transitions(self) -> int:
        return sum(len(t) for t in self.trajectories)


def check_discounts(gammas, m: int | None = None) -> np.ndarray:
    gammas = np.asarray(gammas, dtype=np.float64)
    if gammas.ndim != 1:
        raise ValueError("discount vector must be 1-D")
    if m is not None and gammas.size != m:
        raise ValueError(f"discount vector has length {gammas.size}, expected {m}")
    if np.any(gammas < 0.0) or np.any(gammas >= 1.0):
        raise ValueError("every discount must lie in [0, 1)")
    return gammas


def discounted_returns(traj: Trajectory, discounts) -> np.ndarray:
    """Per-step vector returns: returns[t] = response[t] + gammas * returns[t+1].

    Shape (len(traj), m); returns beyond the final step are zero.
    """
    gammas = check_discounts(discounts, traj.m)
    rewards = np.stack([tr.response for tr in traj.transitions])
    out = np.zeros_like(rewards)
    acc = np.zeros(traj.m)
    for t in range(len(traj.transitions) - 1, -1, -1):
        acc = rewards[t] + gammas * acc
        out[t] = acc
    return out


def td_target(response_i, gamma_i: float, v_next, done):
    """response_i + gamma_i * V(s'), bootstrapping 0 past the end of a session.

    Elementwise over a batch of rewards, next values and done flags, or on
    scalars."""
    if not (0.0 <= gamma_i < 1.0):
        raise ValueError("gamma must lie in [0, 1)")
    return response_i + gamma_i * np.where(done, 0.0, v_next)


def advantage(response_i: float, gamma_i: float, v_next: float, v_curr: float, done: bool) -> float:
    """TD residual: td_target(...) - V(s)."""
    return td_target(response_i, gamma_i, v_next, done) - float(v_curr)


def rank_items(action: np.ndarray, item_embeddings: np.ndarray) -> int:
    """Index of the candidate with the largest dot product against the action
    embedding; ties break toward the lowest index."""
    action = np.asarray(action, dtype=np.float64)
    items = np.asarray(item_embeddings, dtype=np.float64)
    if items.ndim != 2 or items.shape[0] == 0:
        raise ValueError("item_embeddings must be a non-empty (n_items, dim) matrix")
    if items.shape[1] != action.size:
        raise ValueError("action and item embeddings disagree on dimension")
    return int(np.argmax(items @ action))


# ---------------------------------------------------------------------------
# Line-oriented dataset text format.
#
# Header lines:
#   # cactor-dataset 1
#   # m=<int> state_dim=<int> n_items=<int>
#   # meta <key>=<value>            (zero or more)
# Transition lines, comma-separated, in this fixed order:
#   session_id, t, <state_dim state features>, action_index, behavior_prob,
#   <m response values>, done
# behavior_prob is "-" when the logging probability is unknown.  The state of
# step t+1 is the next_state of step t; the terminal next_state of a done row
# is reconstructed as a zero feature vector (its value is never bootstrapped).
# ---------------------------------------------------------------------------

_DATASET_HEADER = "# cactor-dataset 1"


def terminal_state(state_dim: int) -> State:
    return State(np.zeros(state_dim), terminal=True)


def save_dataset(path, dataset: ReplayDataset) -> None:
    if not dataset.trajectories:
        state_dim = int(dataset.metadata.get("state_dim", 0))
    else:
        state_dim = dataset.trajectories[0].transitions[0].state.features.size
    n_items = int(dataset.metadata.get("n_items", 0))
    lines = [_DATASET_HEADER, f"# m={dataset.m} state_dim={state_dim} n_items={n_items}"]
    for key in sorted(dataset.metadata):
        if key in ("state_dim", "n_items"):
            continue
        lines.append(f"# meta {key}={dataset.metadata[key]}")
    # 17 significant digits round-trip every float64; one % per row
    feats_fmt = ",".join(["%.17g"] * state_dim)
    resp_fmt = ",".join(["%.17g"] * dataset.m)
    for traj in dataset.trajectories:
        for t, tr in enumerate(traj.transitions):
            if tr.state.features.size != state_dim or tr.response.size != dataset.m:
                raise ValueError(
                    f"session {traj.session_id} step {t}: {tr.state.features.size} features "
                    f"and {tr.response.size} responses, header says state_dim={state_dim} "
                    f"m={dataset.m}")
            feats = feats_fmt % tuple(tr.state.features.tolist())
            resp = resp_fmt % tuple(tr.response.tolist())
            bp = "-" if tr.behavior_prob is None else f"{tr.behavior_prob:.17g}"
            a = "-" if tr.action_index is None else str(tr.action_index)
            lines.append(f"{traj.session_id},{t},{feats},{a},{bp},{resp},{int(tr.done)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_header(lines, path):
    if not lines or lines[0].strip() != _DATASET_HEADER:
        raise ValueError(f"{path}: missing dataset header")
    dims = lines[1].strip().lstrip("# ").split()
    fields = dict(part.split("=", 1) for part in dims)
    m = int(fields["m"])
    state_dim = int(fields["state_dim"])
    n_items = int(fields["n_items"])
    metadata = {"state_dim": state_dim, "n_items": n_items}
    body_start = 2
    for ln in lines[2:]:
        if ln.startswith("# meta "):
            key, _, val = ln[len("# meta "):].partition("=")
            metadata[key] = val
            body_start += 1
        else:
            break
    return m, state_dim, n_items, metadata, body_start


def load_dataset(path) -> ReplayDataset:
    """Strict parser for the documented transition format."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    m, state_dim, n_items, metadata, body_start = _parse_header(lines, path)
    expected_fields = 2 + state_dim + 2 + m + 1

    rows: dict[str, list] = {}
    order: list[str] = []
    for lineno, ln in enumerate(lines[body_start:], start=body_start + 1):
        parts = ln.split(",")
        if len(parts) != expected_fields:
            raise ValueError(f"{path}:{lineno}: got {len(parts)} fields, expected {expected_fields}")
        try:
            sid = parts[0]
            t = int(parts[1])
            feats = np.array([float(v) for v in parts[2 : 2 + state_dim]])
            a_raw = parts[2 + state_dim]
            bp_raw = parts[3 + state_dim]
            resp = np.array([float(v) for v in parts[4 + state_dim : 4 + state_dim + m]])
            done = bool(int(parts[-1]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        action_index = None if a_raw == "-" else int(a_raw)
        if action_index is not None and n_items and not (0 <= action_index < n_items):
            raise ValueError(f"{path}:{lineno}: action index {action_index} outside "
                             f"[0, {n_items})")
        behavior_prob = None if bp_raw == "-" else float(bp_raw)
        if sid not in rows:
            rows[sid] = []
            order.append(sid)
        if t != len(rows[sid]):
            raise ValueError(f"{path}:{lineno}: step index {t} out of order for session {sid}")
        rows[sid].append((feats, action_index, behavior_prob, resp, done))

    trajectories = []
    for sid in order:
        steps = rows[sid]
        transitions = []
        for t, (feats, a, bp, resp, done) in enumerate(steps):
            if done and t != len(steps) - 1:
                raise ValueError(f"{path}: session {sid} has done=1 before its last row")
            if t + 1 < len(steps):
                nxt = State(steps[t + 1][0])
            else:
                nxt = terminal_state(state_dim) if done else State(np.zeros(state_dim))
            transitions.append(Transition(
                state=State(feats), response=resp, next_state=nxt,
                done=done, action_index=a, behavior_prob=bp,
            ))
        trajectories.append(Trajectory(transitions, session_id=sid))
    return ReplayDataset(trajectories, m=m, metadata=metadata)
