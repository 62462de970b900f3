"""Small tabular MDP with exact dynamic-programming utilities.

Test oracle only: nothing here touches the library's own estimators.  The
chain mixes quickly (every transition row shares a common component), so
logged state visitation is close to stationary for any policy.
"""

import numpy as np

from cactor.core import ReplayDataset

from _rows import dataset, session


class TabularMDP:
    def __init__(self, seed=0, n_states=4, n_actions=3, mixing=0.75, m=2):
        rng = np.random.default_rng(seed)
        self.n_states, self.n_actions, self.m = n_states, n_actions, m
        base = rng.dirichlet(np.ones(n_states) * 5.0)
        self.P = np.empty((n_states, n_actions, n_states))
        for s in range(n_states):
            for a in range(n_actions):
                own = rng.dirichlet(np.ones(n_states))
                self.P[s, a] = mixing * base + (1.0 - mixing) * own
        self.R = rng.uniform(0.0, 2.0, size=(n_states, n_actions, m))

    def stationary(self, policy):
        p_pi = np.einsum("sa,san->sn", policy, self.P)
        d = np.full(self.n_states, 1.0 / self.n_states)
        for _ in range(500):
            d = d @ p_pi
        return d

    def average_reward(self, policy) -> np.ndarray:
        """Exact long-run per-step reward vector under the policy."""
        d = self.stationary(policy)
        return np.einsum("s,sa,sam->m", d, policy, self.R)

    def ncis_limit(self, policy, behavior, cap) -> np.ndarray:
        """Exact expectation of the capped self-normalized estimator under the
        behavior's stationary distribution."""
        d = self.stationary(behavior)
        w = np.minimum(policy / behavior, cap)
        num = np.einsum("s,sa,sa,sam->m", d, behavior, w, self.R)
        den = np.einsum("s,sa,sa->", d, behavior, w)
        return num / den

    def log_dataset(self, behavior, n_steps, seed, episode_len=25, warmup=8) -> ReplayDataset:
        rng = np.random.default_rng(seed)
        eye = np.eye(self.n_states)
        sessions = []
        steps = 0
        ep = 0
        while steps < n_steps:
            s = int(rng.integers(self.n_states))
            for _ in range(warmup):
                a = int(rng.choice(self.n_actions, p=behavior[s]))
                s = int(rng.choice(self.n_states, p=self.P[s, a]))
            visited, actions = [], []
            length = min(episode_len, n_steps - steps)
            for t in range(length):
                a = int(rng.choice(self.n_actions, p=behavior[s]))
                visited.append(s)
                actions.append(a)
                s = int(rng.choice(self.n_states, p=self.P[s, a]))
            sessions.append(session(eye[visited], self.R[visited, actions], actions,
                                    behavior[visited, actions], sid=f"tab-{ep}"))
            steps += length
            ep += 1
        return dataset(*sessions, metadata={"state_dim": self.n_states,
                                            "n_items": self.n_actions})


def table_prob_fn(table):
    """prob_fn over one-hot state features for a (n_states, n_actions) table."""
    table = np.asarray(table, dtype=np.float64)

    def fn(states):
        idx = np.argmax(np.atleast_2d(states), axis=1)
        return table[idx]

    return fn


def skewed_policy(n_states, n_actions, seed=1):
    rng = np.random.default_rng(seed)
    base = np.array([0.6, 0.3, 0.1][:n_actions])
    base = base / base.sum()
    return np.stack([rng.permutation(base) for _ in range(n_states)])
