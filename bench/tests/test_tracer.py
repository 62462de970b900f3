"""Self-tests of the span tracer against the package it wraps."""

import sys

import numpy as np
import pytest

import cactor
from cactor import approximator, deterministic, offline, sim, stochastic
from tracer import TRACED, Tracer
from workloads import OfflineDDPG, OfflineReview, OnlineTwoStage

NET_PASSES = {"approximator.forward", "approximator.gradient", "approximator.input_gradient"}


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def _children(t, idx):
    return [t.names[s[0]] for s in t.spans if s[3] == idx]


@pytest.mark.parametrize("fn,modules", [
    ("batch_arrays", (stochastic, deterministic)),
    ("run_episode", (sim, stochastic)),
    ("constrained_weights_batch", (stochastic, offline)),
    ("td_errors", (stochastic, offline)),
    ("forward", (approximator, cactor)),
])
def test_every_binding_is_wrapped_and_restored(fn, modules):
    originals = [getattr(m, fn) for m in modules]
    t = Tracer()
    t.install()
    try:
        wrapped = [getattr(m, fn) for m in modules]
        assert all(w is wrapped[0] for w in wrapped)
        assert wrapped[0] is not originals[0]
        assert wrapped[0].__wrapped__ is originals[0]
        assert len(t.bindings(fn)) >= len(modules)
    finally:
        t.uninstall()
    assert [getattr(m, fn) for m in modules] == originals


def test_no_module_keeps_an_unwrapped_binding(tracer):
    mods = [m for n, m in sys.modules.items() if n == "cactor" or n.startswith("cactor.")]
    for mod_name, attr in TRACED:
        if "." in attr:
            continue
        orig = getattr(sys.modules[f"cactor.{mod_name}"], attr).__wrapped__
        assert not any(v is orig for m in mods for v in vars(m).values()), attr


def test_step_calls_match_env_steps_and_one_b1_forward_per_step(tracer, monkeypatch, tmp_path):
    workload = OnlineTwoStage(1, tmp_path)
    steps = []
    traced_run_episode = stochastic.run_episode

    def counting(*args, **kwargs):
        traj = traced_run_episode(*args, **kwargs)
        steps.append(len(traj))
        return traj

    monkeypatch.setattr(stochastic, "run_episode", counting)
    lo = tracer.mark()
    workload.cycle()
    summary = tracer.summary(lo)
    assert summary["sim.step"]["calls"] == sum(steps) > 0
    assert summary["approximator.forward.b1"]["calls"] == sum(steps)


def test_q_critic_update_makes_five_net_passes(tracer, tmp_path):
    workload = OfflineDDPG(1, tmp_path)
    lo = tracer.mark()
    workload.cycle()
    q_spans = [k for k in range(lo, len(tracer.spans))
               if tracer.names[tracer.spans[k][0]] == "deterministic.q_critic_update"]
    assert len(q_spans) == workload.updates_per_cycle
    for k in q_spans:
        assert sum(n in NET_PASSES for n in _children(tracer, k)) == 5


@pytest.mark.parametrize("cls", [OnlineTwoStage, OfflineDDPG, OfflineReview])
def test_self_time_nonnegative_and_counts_exact(cls, tracer, tmp_path):
    workload = cls(1, tmp_path)
    counts = []
    for _ in range(2):
        lo = tracer.mark()
        assert workload.cycle().failed == 0
        hi = tracer.mark()
        assert min(tracer.self_times(lo, hi)) >= 0
        counts.append({k: (a["calls"], a["rows"], a["forwards_b1"])
                       for k, a in tracer.summary(lo, hi).items()})
    assert counts[0] == counts[1]


def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    t.names = ["a", "b", "c"]
    t.spans = [[0, 0, 100, -1, 0], [1, 10, 60, 0, 0], [2, 20, 30, 1, 0], [2, 70, 80, 0, 0]]
    assert t.self_times() == [40, 40, 10, 10]
    assert t.self_times(1, 3) == [40, 10]


def test_forward_rows_split_single_row_from_batches(tracer):
    spec = approximator.ApproxSpec(3, (4,), 2, "softmax", 0)
    params = approximator.init_params(spec)
    lo = tracer.mark()
    cactor.forward(spec, params, np.zeros(3))
    cactor.forward(spec, params, np.zeros((5, 3)))
    s = tracer.summary(lo)
    assert s["approximator.forward.b1"]["calls"] == 1
    assert s["approximator.forward.batch"]["rows"] == 5
