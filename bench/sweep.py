"""Run bench/run.py over several seeds and summarise each metric.

    python3 bench/sweep.py --workloads offline_ddpg --seeds 1-10 [--trace 0] [--out FILE]

For every workload and metric it prints the median, the quartiles of the
per-seed values (statistics.quantiles, n=4) and their spread: the
interquartile distance as a share of the median, which BENCHMARK.json's
bounds are checked against.  --out writes the summary, the per-seed
results and the run metadata as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                          cwd=HERE.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=None,
                   help="comma-separated; default: every workload in BENCHMARK.json")
    p.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]

    report = {}
    for workload in workloads:
        runs = []
        for seed in _seeds(args.seeds):
            result, details = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "result": result, "details": details})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = summarise([r["result"] for r in runs])
        report[workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            bound = bounds.get(name)
            note = "" if bound is None else f" bound {bound}" + (
                " (under a third)" if s["spread"] is not None and s["spread"] < bound / 3
                else "")
            print(f"  {name:45s} {s['median']:14.6g} {s['unit']:6s} "
                  f"spread {s['spread']}{note}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
