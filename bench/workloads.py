"""The three benchmark workloads, each driving cactor's public API.

Every workload is built from one seed: ``__init__`` is the set-up (the
inputs, plus a first-call warm-up), and ``cycle`` runs one fixed,
deterministic training job on those inputs.  The benchmark repeats the
cycle in a closed loop with one caller, so every repeat does identical
work and must end in identical parameters: the digest of each cycle is the
determinism gate.

Why these three (each layer ROADMAP plans to optimise dominates one and
is minor in another):

* online_two_stage - simulator rollouts: SessionSimulator.step, one
  single-row forward per env step and per-step Transition building take
  most of the time.  No minibatch sampler and no file I/O.
* offline_ddpg - batch-64 forward/gradient/input_gradient, Adam and
  minibatch assembly over a logged dataset; the simulator runs only in
  set-up.
* offline_review - the review corpus: a dataset save+load round trip,
  whole-dataset passes (multi-critic training, NCIS) and full-product
  importance ratios whose cost grows with session length; m=8.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

import cactor as C

LAMBDAS = (1.0, 1.0, 1.0)
GAMMA = 0.9


def derive(seed: int, label: str) -> int:
    """Input seed for one named stream, derived from the benchmark seed."""
    digest = hashlib.sha256(f"bench/{int(seed)}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _finite(values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


def _row_finite(row: dict) -> bool:
    return _finite(v for v in row.values() if not isinstance(v, str))


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def arrays(self, *arrays):
        for a in arrays:
            self._h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())

    def rows(self, rows):
        self._h.update(json.dumps(rows, sort_keys=True).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class _StampedRows(list):
    """A metrics list that notes when each row arrives: train_two_stage
    appends one row per iteration, so the stamps delimit iterations."""

    def __init__(self):
        super().__init__()
        self.stamps: list[float] = []

    def append(self, row):
        self.stamps.append(time.perf_counter())
        super().append(row)


@dataclass
class CycleResult:
    digest: str | None
    steps: list[tuple[str, float, int]]  # (kind, wall seconds, update steps), in order
    ops: int                             # every op of the cycle, updates included
    failed: int
    rows: int = 0                        # dataset rows behind each save, load and NCIS step
    errors: list[str] = field(default_factory=list)

    @property
    def updates(self) -> int:
        return sum(u for _, _, u in self.steps)


class _Steps(list):
    """Wall time from one mark to the next, so the steps tile the cycle."""

    def __init__(self):
        super().__init__()
        self._t = time.perf_counter()

    def mark(self, kind: str, updates: int = 0) -> None:
        t = time.perf_counter()
        self.append((kind, t - self._t, updates))
        self._t = t


class OnlineTwoStage:
    name = "online_two_stage"
    stage1_iters = 1  # per auxiliary: a short cycle keeps its calibration close in time
    stage2_iters = 1

    def __init__(self, seed: int, workdir):
        self.sim = C.SessionSimulator(C.SimConfig(seed=derive(seed, "sim")))
        self.master = derive(seed, "master")
        self.gammas = (GAMMA,) * self.sim.config.m
        self.cfg = C.TwoStageConfig(stage1_iters=self.stage1_iters,
                                    stage2_iters=self.stage2_iters,
                                    episodes_per_iter=8, critic_steps=2, hidden=(32,))
        warm = replace(self.cfg, stage1_iters=1, stage2_iters=1)
        C.train_two_stage(self.sim, LAMBDAS, self.gammas, warm, self.master, metrics=[])

    @property
    def updates_per_cycle(self) -> int:
        return (self.sim.config.m - 1) * self.stage1_iters + self.stage2_iters

    @property
    def ops_per_cycle(self) -> int:
        return self.updates_per_cycle  # an op is one iteration

    def cycle(self) -> CycleResult:
        rows = _StampedRows()
        t0 = time.perf_counter()
        pset = C.train_two_stage(self.sim, LAMBDAS, self.gammas, self.cfg, self.master,
                                 metrics=rows)
        steps = [("iteration", dt, 1) for dt in np.diff([t0] + rows.stamps).tolist()]
        n = self.updates_per_cycle
        if len(rows) != n:
            return CycleResult(None, steps, n, n,
                               errors=[f"{len(rows)} metric rows, expected {n}"])
        failed = sum(not _row_finite(r) for r in rows)
        params = [p.params for pair in [pset.main, *pset.auxiliaries] for p in pair]
        failed += 0 if _finite(params) else n - failed
        d = _Digest()
        d.arrays(*params)
        d.rows(rows)
        return CycleResult(d.hexdigest(), steps, n, failed)


class OfflineDDPG:
    name = "offline_ddpg"
    n_sessions = 200
    updates = 25  # per pipeline and cycle: 3 stage-one pipelines, then stage two

    def __init__(self, seed: int, workdir):
        sim_cfg = C.SimConfig(seed=derive(seed, "sim"))
        self.dataset = C.generate_offline_dataset(
            sim_cfg, C.UniformRandomPolicy(sim_cfg.n_items), self.n_sessions)
        self.master = derive(seed, "master")
        self.gammas = (GAMMA,) * self.dataset.m
        self.cfg = C.DDPGConfig(updates=self.updates, batch_size=64, embed_dim=6,
                                log_every=self.updates)
        warm = replace(self.cfg, updates=1, log_every=1)
        C.train_constrained_ddpg(self.dataset, LAMBDAS, self.gammas, warm, self.master)

    @property
    def updates_per_cycle(self) -> int:
        return self.dataset.m * self.updates

    @property
    def ops_per_cycle(self) -> int:
        return self.updates_per_cycle  # an op is one update step

    def cycle(self) -> CycleResult:
        n = self.updates_per_cycle
        t0 = time.perf_counter()
        pipe = C.train_constrained_ddpg(self.dataset, LAMBDAS, self.gammas, self.cfg,
                                        self.master)
        dt = time.perf_counter() - t0
        params = [pipe.policy.params, pipe.items] + [c.params for c in pipe.critics]
        ok = len(pipe.metrics) == self.dataset.m and all(map(_row_finite, pipe.metrics))
        ok = ok and _finite(params)
        d = _Digest()
        d.arrays(*params)
        d.rows(pipe.metrics)
        # train_constrained_ddpg is one call, so its updates share one step
        return CycleResult(d.hexdigest(), [("train_constrained_ddpg", dt, n)], n,
                           0 if ok else n)


class OfflineReview:
    name = "offline_review"
    critic_iters = 30
    aux_updates = 1    # per auxiliary response, full-product ratios
    main_updates = 20
    batch_size = 64
    hidden = (32,)

    def __init__(self, seed: int, workdir):
        self.dataset = C.generate_review_dataset(
            C.ReviewDatasetConfig(seed=derive(seed, "reviews")))
        self.truth = self._columns(self.dataset)
        self.path = workdir / f"review-{seed}.txt"
        self.master = derive(seed, "master")
        self.m = self.dataset.m
        self.gammas = (GAMMA,) * self.m
        self.lambdas = np.ones(self.m - 1)
        self.is_cfg = C.ISConfig(mode="full_product")
        self.state_dim = int(self.dataset.metadata["state_dim"])
        self.n_items = int(self.dataset.metadata["n_items"])
        # warm-up: one call of each kind on the in-memory dataset
        critics = C.multi_critic_train(self.dataset, self.gammas, "separate",
                                       C.MultiCriticConfig(iters=1), self.master)
        refs = self._refs(self.dataset)[:4]
        pset = self._policy_set(critics)
        policy, critic = pset.auxiliaries[0]
        C.offline_actor_update_aux(policy, critic, refs, self.is_cfg, self._opt(policy))
        C.offline_actor_update_main(pset, refs, self.is_cfg, self._opt(pset.main[0]))
        C.ncis_evaluate(self._prob_fn(policy), self.dataset, C.NCISConfig())

    @property
    def updates_per_cycle(self) -> int:
        return (self.m - 1) * self.aux_updates + self.main_updates

    @property
    def ops_per_cycle(self) -> int:
        # save, load, multi-critic training, updates, NCIS of logging + trained policies
        return 3 + self.updates_per_cycle + 1 + self.m

    @staticmethod
    def _columns(dataset):
        trs = dataset.all_transitions()
        return (np.stack([tr.state.features for tr in trs]),
                np.stack([tr.response for tr in trs]),
                np.array([tr.behavior_prob for tr in trs]),
                np.array([tr.action_index for tr in trs]),
                np.array([tr.done for tr in trs]))

    @staticmethod
    def _refs(dataset):
        return [(traj, t) for traj in dataset.trajectories for t in range(len(traj))]

    def _policy_set(self, critics) -> C.PolicySet:
        fresh = C.build_policy_set(self.state_dim, self.n_items, self.m, self.lambdas,
                                   self.gammas, self.hidden, self.master)
        return C.PolicySet((fresh.main[0], critics[0]),
                           [(p, critics[i]) for i, (p, _) in enumerate(fresh.auxiliaries, 1)],
                           self.lambdas, np.asarray(self.gammas))

    @staticmethod
    def _opt(policy):
        return C.init_opt_state(policy.params.size, 5e-3)

    @staticmethod
    def _prob_fn(policy):
        return lambda states: C.forward(policy.spec, policy.params, states)

    def cycle(self) -> CycleResult:
        errors = []
        failed = 0
        steps = _Steps()
        C.save_dataset(self.path, self.dataset)
        steps.mark("save_dataset")
        data = C.load_dataset(self.path)
        loaded = self._columns(data)
        for name, want, got in zip(("features", "responses", "behavior_prob",
                                    "action_index", "done"), self.truth, loaded):
            if not np.array_equal(want, got):
                errors.append(f"save/load round trip changed {name}")
        failed += 1 if errors else 0  # the load op
        steps.mark("load_dataset")

        critics = C.multi_critic_train(data, self.gammas, "separate",
                                       C.MultiCriticConfig(iters=self.critic_iters,
                                                           batch_size=self.batch_size),
                                       self.master)
        if not _finite(c.params for c in critics):
            failed += 1
            errors.append("non-finite critic parameters")
        refs = self._refs(data)
        rng = np.random.Generator(np.random.PCG64(derive(self.master, "batches")))
        pset = self._policy_set(critics)
        steps.mark("multi_critic_train")

        def update(fn, *args):
            nonlocal failed
            out = fn(*args)
            if not np.isfinite(out[2]["objective"]):
                failed += 1
                errors.append(f"{fn.__name__}: non-finite objective")
            steps.mark(fn.__name__, 1)
            return out

        aux = []
        for policy, critic in pset.auxiliaries:
            opt = self._opt(policy)
            for _ in range(self.aux_updates):
                batch = [refs[i] for i in rng.integers(len(refs), size=self.batch_size)]
                policy, opt, _ = update(C.offline_actor_update_aux,
                                        policy, critic, batch, self.is_cfg, opt)
            aux.append((policy, critic))
        pset = C.PolicySet(pset.main, aux, self.lambdas, pset.discounts)
        opt = self._opt(pset.main[0])
        for _ in range(self.main_updates):
            batch = [refs[i] for i in rng.integers(len(refs), size=self.batch_size)]
            policy, opt, _ = update(C.offline_actor_update_main,
                                    pset, batch, self.is_cfg, opt)
            pset.main = (policy, pset.main[1])

        # NCIS of the logging policy weights every row by exactly 1, so it
        # must equal the plain per-response mean of the logged rewards.
        _, r, bp, a_idx, _ = loaded
        rows = data.n_transitions
        logged = np.zeros((rows, self.n_items))
        logged[np.arange(rows), a_idx] = bp
        res = C.ncis_evaluate(lambda states: logged, data, C.NCISConfig())
        got = np.array([res["scores"][i] for i in range(self.m)])
        if not np.all(np.abs(got - r.mean(axis=0)) <= 1e-12):
            failed += 1
            errors.append("NCIS of the logging policy differs from the logged mean")
        steps.mark("ncis_evaluate")
        scores = []
        for policy, _ in [pset.main, *aux]:
            res = C.ncis_evaluate(self._prob_fn(policy), data, C.NCISConfig())
            sc = [res["scores"][i] for i in range(self.m)]
            if not _finite(sc):
                failed += 1
                errors.append("non-finite NCIS score")
            scores.extend(sc)
            steps.mark("ncis_evaluate")

        d = _Digest()
        d.arrays(*(p.params for pair in [pset.main, *aux] for p in pair), scores)
        return CycleResult(d.hexdigest(), list(steps), self.ops_per_cycle, failed, rows,
                           errors)


WORKLOADS = {w.name: w for w in (OnlineTwoStage, OfflineDDPG, OfflineReview)}
