"""Wall time and minor page faults of one benchmark workload, per step kind
of its cycle and per phase of its set-up.

    python3 tools/cycle_faults.py --workload offline_review --seed 1
    python3 tools/cycle_faults.py --workload offline_ddpg --seed 3 --warmup 2 --cycles 20

Run from the root of a source checkout.  The script builds the workload
from bench/workloads.py for the seed, as bench/run.py does (cactor from
src/, BLAS pinned to one thread), runs --warmup cycles, then times
--cycles more.  It edits no file; the workload writes its own files into a
temporary directory.

A minor fault is a page the process touches for the first time since the
kernel mapped it (getrusage ru_minflt): an array whose memory was handed
back to the kernel when freed faults its pages in again on the next call.

Each wall time has a host-speed normalised twin ("ref"), as bench/run.py
reports its timings: bench/calibrate.py's fixed job runs right before and
right after every cycle, and the cycle's times are scaled by
``calibrate.scale`` of those two runs.  The first line gives the median
wall ms of the job over the timed cycles (calibrate.REF_MS on the
reference host) and the digest of the last cycle's result, which a change
that must keep every bit can compare with its parent's.  The times are
not calibrated across processes: compare them within one run, or beside
bench/run.py.

Printed, per step kind (the steps a cycle reports, one per ``_Steps.mark``
or one per metric row): the steps per cycle, the median wall ms of one
step, the median over cycles of the kind's faults per cycle, and the
median ref ms of one step.  Faults are split by step only for workloads
that time their steps with ``_Steps`` (offline_review); the others show
the cycle's total alone.

Per call, for the workloads that name calls in TIMED_CALLS (online_two_stage,
whose cycle runs both stages, and offline_ddpg, whose cycle is one
train_constrained_ddpg call): the calls per cycle and
the median wall us and ref us of one call, over the timed cycles.  The
script wraps each named function in its module while the cycles run, so
the loop that calls it through the module sees the wrapper, and restores
it after; a dotted name (``SessionSimulator._advance``) is a method,
wrapped and restored on its class.  An outer call's time includes the
wrappers of the calls it makes.

Set-up phases, each in ms and faults: the script's own stdlib imports,
importing numpy, importing cactor and the workloads, building the inputs
(the workload's ``__init__`` up to its first warm-up call, WARMUP_CALL)
and the warm-up (the rest of ``__init__``).  Interpreter start-up, which
bench/run.py's setup_s also counts, happens before the script runs.
"""

from __future__ import annotations

import resource
import time

T_START, F_START = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt

import argparse  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent

# the cactor call that starts each workload's warm-up in its __init__
WARMUP_CALL = {"online_two_stage": "train_two_stage",
               "offline_ddpg": "train_constrained_ddpg",
               "offline_review": "multi_critic_train"}


# the cactor functions whose calls are timed one by one, per workload; stochastic's
# rollout is its own binding of sim.rollout, the one collect_batch calls, and sim's
# inverse_cdf and SessionSimulator._advance run once per lockstep step of a rollout
TIMED_CALLS = {"online_two_stage": (("stochastic", "rollout"),
                                    ("sim", "inverse_cdf"),
                                    ("sim", "SessionSimulator._advance"),
                                    ("stochastic", "critic_update"),
                                    ("stochastic", "actor_update_aux"),
                                    ("stochastic", "actor_update_main")),
               "offline_ddpg": (("deterministic", "q_critic_update"),
                                ("deterministic", "ddpg_actor_update"),
                                ("deterministic", "constrained_det_actor_update"),
                                ("deterministic", "gather"),
                                ("approximator", "optimizer_step"))}


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WARMUP_CALL))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--warmup", type=int, default=2, help="untimed cycles (default 2)")
    p.add_argument("--cycles", type=int, default=20, help="timed cycles (default 20)")
    args = p.parse_args(argv)
    if args.warmup < 0 or args.cycles < 1:
        p.error("--warmup must be >= 0 and --cycles >= 1")
    return args


class _Phases:
    """(name, ms, faults) from one mark to the next."""

    def __init__(self, t: float, faults: int):
        self.rows: list[tuple[str, float, int]] = []
        self._t, self._f = t, faults

    def mark(self, name: str, t: float | None = None, faults: int | None = None) -> None:
        t = time.perf_counter() if t is None else t
        faults = minflt() if faults is None else faults
        self.rows.append((name, 1e3 * (t - self._t), faults - self._f))
        self._t, self._f = t, faults


def _build(workload, seed: int, workdir: Path, cactor, phases: _Phases):
    """The workload, with its __init__ split at the first call of its
    WARMUP_CALL function."""
    name = WARMUP_CALL[workload.name]
    original = getattr(cactor, name)
    first = []

    def wrapped(*args, **kwargs):
        if not first:
            first.append((time.perf_counter(), minflt()))
        return original(*args, **kwargs)

    setattr(cactor, name, wrapped)
    try:
        built = workload(seed, workdir)
    finally:
        setattr(cactor, name, original)
    if not first:
        sys.exit(f"cycle_faults: {workload.name}'s set-up never called cactor.{name}")
    phases.mark("input build", *first[0])
    phases.mark("warm-up")
    return built


def _install_timers(cactor, workload: str) -> tuple[dict[str, list[float]], list]:
    """Wrap every TIMED_CALLS function of ``workload`` in its module; returns
    the call times in s by name and the (owner, attribute, original) to
    restore, where the owner is the module or, for a dotted name, its class."""
    times: dict[str, list[float]] = {}
    restore = []
    for mod_name, fn_name in TIMED_CALLS.get(workload, ()):
        owner = getattr(cactor, mod_name)
        *classes, attr = fn_name.split(".")
        for name in classes:
            owner = getattr(owner, name)
        original = getattr(owner, attr)
        calls = times.setdefault(f"{mod_name}.{fn_name}", [])

        def timed(*args, _fn=original, _calls=calls, **kwargs):
            t0 = time.perf_counter()
            out = _fn(*args, **kwargs)
            _calls.append(time.perf_counter() - t0)
            return out

        setattr(owner, attr, timed)
        restore.append((owner, attr, original))
    return times, restore


def _record(pair: tuple[list[float], list[float]], wall: float, ref: float) -> None:
    """Append a wall time to ``pair[0]`` and its ref time (scaled by ``ref``) to ``pair[1]``."""
    pair[0].append(wall)
    pair[1].append(wall * ref)


def main(argv=None) -> int:
    phases = _Phases(T_START, F_START)
    args = _parse(argv)
    phases.mark("import stdlib, parse args")
    import numpy as np
    phases.mark("import numpy")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import cactor
    import workloads
    import calibrate
    phases.mark("import cactor, workloads")

    marks: list[int] = []
    mark = workloads._Steps.mark

    def counted_mark(self, kind, updates=0):
        marks.append(minflt())
        mark(self, kind, updates)

    with tempfile.TemporaryDirectory() as tmp:
        wl = _build(workloads.WORKLOADS[args.workload], args.seed, Path(tmp), cactor, phases)
        workloads._Steps.mark = counted_mark
        call_times, restore = _install_timers(cactor, args.workload)
        try:
            # wall and ref times: ms per step kind and cycle, us per call
            step_ms: dict[str, tuple[list[float], list[float]]] = {}
            per_cycle: dict[str, list[tuple[int, int | None]]] = {}
            call_us = {name: ([], []) for name in call_times}
            cycle_ms, job_ms, cycle_faults, failed = ([], []), [], [], 0
            for k in range(args.warmup + args.cycles):
                marks.clear()
                for times in call_times.values():
                    times.clear()
                before = calibrate.job_seconds()
                t0, f0 = time.perf_counter(), minflt()
                result = wl.cycle()
                t1, f1 = time.perf_counter(), minflt()
                after = calibrate.job_seconds()
                failed += result.failed
                if k < args.warmup:
                    continue
                job_ms += [1e3 * before, 1e3 * after]
                ref = calibrate.scale(before, after)
                for name, times in call_times.items():
                    for dt in times:
                        _record(call_us[name], 1e6 * dt, ref)
                _record(cycle_ms, 1e3 * (t1 - t0), ref)
                cycle_faults.append(f1 - f0)
                split = len(marks) == len(result.steps)
                deltas = np.diff([f0] + marks) if split else [None] * len(result.steps)
                counts: dict[str, list] = {}
                for (kind, dt, _), faults in zip(result.steps, deltas):
                    _record(step_ms.setdefault(kind, ([], [])), 1e3 * dt, ref)
                    counts.setdefault(kind, []).append(faults)
                for kind, fs in counts.items():
                    total = None if fs[0] is None else int(sum(fs))
                    per_cycle.setdefault(kind, []).append((len(fs), total))
        finally:
            workloads._Steps.mark = mark
            for owner, attr, original in restore:
                setattr(owner, attr, original)

    print(f"{args.workload} seed {args.seed}: {args.warmup} warm-up cycles, "
          f"{args.cycles} timed, {failed} failed ops, numpy {np.__version__}, "
          f"median job {statistics.median(job_ms):.2f} ms (ref {calibrate.REF_MS} ms), "
          f"digest {result.digest}")
    print(f"{'set-up phase':<28}{'ms':>10}{'faults':>10}")
    for name, ms, faults in phases.rows:
        print(f"{name:<28}{ms:>10.1f}{faults:>10d}")
    print(f"{'total':<28}{sum(r[1] for r in phases.rows):>10.1f}"
          f"{sum(r[2] for r in phases.rows):>10d}")
    print(f"{'step kind':<28}{'steps/cycle':>12}{'median ms':>12}{'faults/cycle':>14}"
          f"{'ref ms':>10}")
    for kind, rows in per_cycle.items():
        totals = [f for _, f in rows]
        faults = "-" if totals[0] is None else f"{statistics.median(totals):g}"
        wall, ref = (statistics.median(ms) for ms in step_ms[kind])
        print(f"{kind:<28}{rows[0][0]:>12d}{wall:>12.3f}{faults:>14}{ref:>10.3f}")
    wall, ref = (statistics.median(ms) for ms in cycle_ms)
    print(f"{'cycle':<28}{'':>12}{wall:>12.3f}{statistics.median(cycle_faults):>14g}"
          f"{ref:>10.3f}")
    if call_us:
        print(f"{'call':<42}{'calls/cycle':>12}{'median us':>12}{'ref us':>10}")
    for name, (wall, ref) in call_us.items():
        medians = [f"{statistics.median(us):.1f}" if us else "-" for us in (wall, ref)]
        print(f"{name:<42}{len(wall) / args.cycles:>12g}{medians[0]:>12}{medians[1]:>10}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
