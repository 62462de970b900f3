"""Determinism gate, output checks and the missing-source exit of the benchmark."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cactor
from workloads import WORKLOADS, OfflineReview

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

_FRESH = """
import sys
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
from workloads import WORKLOADS
w = WORKLOADS[{name!r}]({seed}, Path({workdir!r}))
print(w.cycle().digest)
"""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fresh_process_reproduces_digest(name, tmp_path):
    workload = WORKLOADS[name](3, tmp_path)
    first, second = workload.cycle(), workload.cycle()
    assert first.failed == 0 and not first.errors
    assert first.digest == second.digest
    code = _FRESH.format(src=str(ROOT / "src"), bench=str(BENCH), name=name, seed=3,
                         workdir=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=300)
    assert out.stdout.strip() == first.digest


def test_other_seed_gives_other_inputs(tmp_path):
    a = WORKLOADS["online_two_stage"](1, tmp_path).cycle()
    b = WORKLOADS["online_two_stage"](2, tmp_path).cycle()
    assert a.digest != b.digest


@pytest.fixture(scope="module")
def review(tmp_path_factory):
    return OfflineReview(1, tmp_path_factory.mktemp("review"))


def test_review_cycle_passes_its_output_checks(review):
    res = review.cycle()
    assert res.failed == 0 and not res.errors
    assert res.ops == 3 + res.updates + 1 + review.m


def test_round_trip_check_catches_a_changed_behavior_prob(review, monkeypatch):
    load = cactor.load_dataset

    def corrupting(path):
        data = load(path)
        data.trajectories[0].transitions[0].behavior_prob *= 0.5
        return data

    monkeypatch.setattr(cactor, "load_dataset", corrupting)
    res = review.cycle()
    assert res.failed >= 1
    assert any("behavior_prob" in e for e in res.errors)


def test_ncis_oracle_check_catches_a_shifted_score(review, monkeypatch):
    evaluate = cactor.ncis_evaluate

    def shifted(*args, **kwargs):
        out = evaluate(*args, **kwargs)
        out["scores"][0] += 1e-9
        return out

    monkeypatch.setattr(cactor, "ncis_evaluate", shifted)
    res = review.cycle()
    assert res.failed == 1
    assert any("NCIS" in e for e in res.errors)


def test_non_finite_loss_counts_as_failed(tmp_path, monkeypatch):
    workload = WORKLOADS["online_two_stage"](1, tmp_path)
    update = cactor.stochastic.critic_update

    def nan_loss(*args, **kwargs):
        critic, opt, _ = update(*args, **kwargs)
        return critic, opt, float("nan")

    monkeypatch.setattr(cactor.stochastic, "critic_update", nan_loss)
    res = workload.cycle()
    assert res.failed == res.updates


def test_run_exits_nonzero_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "offline_ddpg", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_matches_benchmark_spec(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(spec["command"] + ["--workload", "offline_ddpg", "--seed", "2",
                                                 "--seconds", "1", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
