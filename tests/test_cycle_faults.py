"""``tools/cycle_faults.py`` runs a benchmark workload end to end: it must
keep working with the workloads it builds (their ``_Steps``, their warm-up
calls and their step kinds)."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cactor
from cactor import sim as sm
from cactor.seeding import derive_seed

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cycle_faults.py"
STEPS = "one per lockstep step"  # a call count that lockstep_steps gives


def load(path: Path, name: str):
    """The module at ``path``, imported as ``name`` (its dataclasses look it up there)."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def lockstep_steps(seed: int) -> int:
    """The lockstep steps of one online_two_stage cycle at ``seed``: each
    stage's one iteration rolls its 8 episodes (named without the response,
    so stage one's auxiliaries share them) until the longest has ended, 16
    episodes in all."""
    workloads = load(ROOT / "bench" / "workloads.py", "_bench_workloads")
    sim = sm.SessionSimulator(sm.SimConfig(seed=workloads.derive(seed, "sim")))
    master = workloads.derive(seed, "master")
    lengths = [[sim._start(derive_seed(master, f"s{stage}-ep", 0, e))[0] for e in range(8)]
               for stage in (1, 2)]
    return sum(max(stage) for stage in lengths)


@pytest.mark.parametrize("workload, kinds, split, calls", [
    ("online_two_stage", ["iteration"], False,
     {"stochastic.rollout": 2, "sim.inverse_cdf": STEPS, "sim.SessionSimulator._advance": STEPS,
      "stochastic.critic_update": 8, "stochastic.actor_update_aux": 3,
      "stochastic.actor_update_main": 1}),
    ("offline_ddpg", ["train_constrained_ddpg"], False,
     {"deterministic.q_critic_update": 50, "deterministic.ddpg_actor_update": 25,
      "deterministic.constrained_det_actor_update": 25, "deterministic.gather": 50,
      "approximator.optimizer_step": 150}),
    ("offline_review", ["save_dataset", "load_dataset", "multi_critic_train",
                        "offline_actor_update_aux", "offline_actor_update_main",
                        "ncis_evaluate"], True, {}),
], ids=["online_two_stage", "offline_ddpg", "offline_review"])
def test_prints_every_phase_and_step_kind(workload, kinds, split, calls):
    calls = {name: lockstep_steps(1) if n == STEPS else n for name, n in calls.items()}
    out = subprocess.run([sys.executable, str(TOOL), "--workload", workload, "--seed", "1",
                          "--warmup", "0", "--cycles", "1"],
                         capture_output=True, text=True, timeout=300, check=True).stdout
    lines = out.splitlines()
    assert lines[0].startswith(f"{workload} seed 1: 0 warm-up cycles, 1 timed, 0 failed ops")
    assert float(lines[0].split("median job ")[1].split()[0]) > 0
    assert re.fullmatch(r"[0-9a-f]{64}", lines[0].rsplit(", digest ", 1)[1])
    phases = [ln.rsplit(maxsplit=2)[0] for ln in lines[2:8]]
    assert phases == ["import stdlib, parse args", "import numpy", "import cactor, workloads",
                      "input build", "warm-up", "total"]
    rows = [ln.split() for ln in lines[9:9 + len(kinds)]]
    assert [r[0] for r in rows] == kinds
    # columns: kind, steps/cycle, median ms, faults/cycle, ref ms
    assert all((r[3] != "-") == split and float(r[4]) > 0 for r in rows)
    assert lines[9 + len(kinds)].startswith("cycle")
    # the per-call table.  online_two_stage: each stage's one iteration makes one rollout,
    # which samples and steps once per lockstep step, and, per member (3 auxiliaries,
    # then the main policy), two critic steps and one actor step.  offline_ddpg: each of a
    # cycle's 2 x 25 bank steps makes one minibatch gather, one critic step, one actor
    # step and three optimizer steps (critic, item table, actor)
    table = [ln.split() for ln in lines[11 + len(kinds):]] if calls else []
    assert {r[0]: float(r[1]) for r in table} == calls
    assert all(float(r[2]) > 0 and float(r[3]) > 0 for r in table)
    assert len(lines) == 10 + len(kinds) + (1 + len(calls) if calls else 0)


def test_timed_calls_are_restored_on_their_module_and_class(capsys, monkeypatch):
    """A run in this process leaves every wrapped function as it found it,
    the method named by a dotted name on its class."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts src/ and bench/ first
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # as the tool sets them on import; undone after
    tool = load(TOOL, "_cycle_faults")
    before = (sm.inverse_cdf, vars(sm.SessionSimulator)["_advance"], cactor.stochastic.rollout)
    assert tool.main(["--workload", "online_two_stage", "--seed", "1", "--warmup", "0",
                      "--cycles", "1"]) == 0
    after = (sm.inverse_cdf, vars(sm.SessionSimulator)["_advance"], cactor.stochastic.rollout)
    assert all(a is b for a, b in zip(after, before))
    table = dict(line.split()[:2] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("sim."))
    assert table == {"sim.inverse_cdf": str(lockstep_steps(1)),
                     "sim.SessionSimulator._advance": str(lockstep_steps(1))}
