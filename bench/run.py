"""cactor benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload online_two_stage --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the benchmark imports ``cactor``
from ``src/`` beside this directory and exits with a non-zero code,
printing no result, when that tree is missing.  BLAS is pinned to one thread.

--trace 0 measures the end-to-end metrics with tracing off.  Times are
host-speed normalised by a calibration job timed beside them
(bench/calibrate.py), because the shared host's speed swings by up to 1.6x:

* setup_s - median over SETUP_PROBES fresh processes that each import
  cactor, build the workload's inputs and warm up;
* updates_per_s, update_ms_p50, update_ms_p90 - the workload repeats one
  deterministic cycle (bench/workloads.py) in a closed loop for --seconds.
  updates_per_s is the cycle's update steps over the median cycle time;
  the percentiles are taken over the times of every update step of every
  cycle (runner.timing_metrics);
* peak_rss_mb - peak resident set of the process.

--trace 1 wraps cactor's public functions (bench/tracer.py) and reports
per-layer metrics; it alternates untraced and traced cycles to measure
the tracing overhead.

The last line of standard output is the JSON result; the line before it
holds the details (run metadata, sample counts, digests, per-function
table), which are also written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7


def _import_cactor():
    if not (SRC / "cactor" / "__init__.py").is_file():
        sys.exit(f"bench: no cactor source tree at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cactor
    if Path(cactor.__file__).resolve().parent != SRC / "cactor":
        sys.exit(f"bench: imported cactor from {cactor.__file__}, not from {SRC}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_cactor()
    import runner
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload(args.seed, OUT)
        setup_s = time.perf_counter() - T_START
        print(json.dumps({"setup_s": setup_s,
                          "calibration_s": runner.probe_calibration_s()}))
        return 0

    if args.trace:
        result, details = runner.traced_run(workload, args.seed, args.seconds, OUT)
    else:
        setup = runner.setup_probes(Path(__file__).resolve(), args.workload, args.seed,
                                    SETUP_PROBES)
        result, details = runner.untraced_run(workload, args.seed, args.seconds, OUT, setup)
    details["meta"] = runner.metadata(ROOT, args, BLAS_THREADS)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
