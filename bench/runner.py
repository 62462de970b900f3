"""Measured loops, metrics and run metadata for bench/run.py."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback

import numpy as np

import calibrate
from tracer import Tracer

LAYERS = ("sim", "approximator", "stochastic", "deterministic", "offline", "core")
CHILD_TIMEOUT_S = 170


def setup_probes(script, workload: str, seed: int, n: int) -> list[dict]:
    """Set-up of ``n`` fresh processes (import, inputs and warm-up), each
    bracketed by calibration runs: one here right before the process
    starts, and the median of three in the process right after its set-up."""
    out = []
    for _ in range(n):
        before = calibrate.job_seconds()
        proc = subprocess.run([sys.executable, str(script), "--workload", workload,
                               "--seed", str(seed), "--seconds", "0", "--setup-probe"],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append({**probe, "calibration_before_s": before})
    return out


def probe_calibration_s() -> float:
    """Calibration time right after a set-up probe: median of three runs."""
    return float(np.median([calibrate.job_seconds() for _ in range(3)]))


class _Window:
    """Runs cycles back to back until ``seconds`` have passed (at least one),
    with the calibration job timed before the first cycle and after each."""

    def __init__(self, workload):
        self.workload = workload
        self.results, self.errors, self.cycle_s, self.scales = [], [], [], []
        self.calibration_s: list[float] = []
        self.wall_s = 0.0

    def run(self, seconds: float):
        """Adds to the cycles run so far; ``wall_s`` accumulates."""
        start = time.perf_counter()
        before = calibrate.job_seconds()
        while True:
            t0 = time.perf_counter()
            try:
                res = self.workload.cycle()
            except Exception:  # an op raised: the whole cycle's ops count as failed
                self.errors.append(traceback.format_exc(limit=8))
                res = None
            self.cycle_s.append(time.perf_counter() - t0)
            self.results.append(res)
            after = calibrate.job_seconds()
            self.calibration_s.append(after)
            self.scales.append(calibrate.scale(before, after))
            before = after
            if time.perf_counter() - start >= seconds:
                break
        self.wall_s += time.perf_counter() - start
        return self

    @property
    def cycles(self) -> int:
        return len(self.results)

    def ops(self, planned: int) -> tuple[int, int]:
        attempted = failed = 0
        for r in self.results:
            attempted += planned if r is None else r.ops
            failed += planned if r is None else r.failed
        return attempted, failed

    def digests(self) -> set:
        return {None if r is None else r.digest for r in self.results}

    def updates(self) -> int:
        return sum(r.updates for r in self.results if r)

    def completed(self) -> list[tuple[float, float, object]]:
        """(wall seconds, calibration scale, result) of every cycle that ran
        to a digest."""
        return [(dt, k, r) for dt, k, r in zip(self.cycle_s, self.scales, self.results)
                if r is not None and r.digest is not None]


def _errors(window) -> list[str]:
    return window.errors + [e for r in window.results if r for e in r.errors]


def timing_metrics(completed, updates_per_cycle: int) -> tuple[dict, dict]:
    """End-to-end timings of whole, real cycles, host-speed normalised.

    Every time is the wall time times its cycle's calibration scale
    (bench/calibrate.py).  updates_per_s is the cycle's update steps over
    the median normalised cycle time.  update_ms_p50/p90 are percentiles of
    the per-update samples of all cycles: the time of each update step, or
    of a step's updates shared out evenly where one call runs several
    (offline_ddpg's train_constrained_ddpg, whose p50 therefore equals
    1000/updates_per_s).
    """
    cycle_s = np.array([dt * k for dt, k, _ in completed])
    samples = 1e3 * np.array([k * dt / u for _, k, r in completed
                              for _, dt, u in r.steps if u])
    metrics = {"updates_per_s": updates_per_cycle / float(np.median(cycle_s)),
               "update_ms_p50": float(np.percentile(samples, 50)),
               "update_ms_p90": float(np.percentile(samples, 90))}
    wall_s = np.array([dt for dt, _, _ in completed])
    counts = {"cycles": int(cycle_s.size), "update_samples": int(samples.size),
              "update_samples_above_p90": int((samples > metrics["update_ms_p90"]).sum()),
              "cycle_ms": {f"p{q}": 1e3 * float(np.percentile(cycle_s, q))
                           for q in (0, 25, 50, 75, 100)},
              "cycle_ms_wall": {f"p{q}": 1e3 * float(np.percentile(wall_s, q))
                                for q in (0, 25, 50, 75, 100)},
              "calibration_scale_median": float(np.median([k for _, k, _ in completed]))}
    return metrics, counts


def untraced_run(workload_cls, seed: int, seconds: float, outdir, probes: list[dict]):
    workload = workload_cls(seed, outdir)
    window = _Window(workload).run(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # then one traced reference cycle: exact per-cycle counts, and a digest
    # the untraced cycles must match (tracing must not change results)
    tracer = Tracer()
    tracer.install()
    try:
        ref = _Window(workload).run(0.0)
    finally:
        tracer.uninstall()
    counts = {k: v["calls"] for k, v in tracer.summary().items()}
    ref_digest = ref.results[0].digest if ref.results[0] else None

    setup_s = [p["setup_s"] * calibrate.scale(p["calibration_before_s"], p["calibration_s"])
               for p in probes]
    attempted, failed = window.ops(workload.ops_per_cycle)
    digests = window.digests()
    correct = (failed == 0 and ref.ops(0) == (workload.ops_per_cycle, 0)
               and digests == {ref_digest} and ref_digest is not None)
    completed = window.completed()
    details = {"workload": workload_cls.name, "trace": 0,
               "cycles": window.cycles, "window_s": window.wall_s,
               "updates": window.updates(), "setup_probes": probes,
               "setup_s_samples": setup_s, "calibration_ref_ms": calibrate.REF_MS,
               "calibration_ms": {f"p{q}": 1e3 * float(np.percentile(window.calibration_s, q))
                                  for q in (0, 50, 100)},
               "ops_total": attempted, "ops_failed": failed,
               "ops_failed_frac": failed / attempted,
               "reference_counts_per_cycle": counts,
               "trace_overhead_pct_one_cycle":
                   100.0 * (ref.cycle_s[0] / float(np.median(window.cycle_s)) - 1.0),
               "digest": ref_digest, "digests_seen": sorted(map(str, digests)),
               "errors": (_errors(window) + _errors(ref))[:5]}
    metrics = {"setup_s": float(np.median(setup_s))}
    if completed:
        timing, samples = timing_metrics(completed, workload.updates_per_cycle)
        metrics.update(timing)
        details["samples"] = samples
        details.update(_step_stats(completed, counts))
    metrics["peak_rss_mb"] = peak_rss_mb
    units_of = {"setup_s": "s", "updates_per_s": "1/s", "update_ms_p50": "ms",
                "update_ms_p90": "ms", "peak_rss_mb": "MB"}
    return _result(correct, attempted, failed, metrics, units_of), details


def _step_stats(completed, counts):
    """Figures beside the metrics: median normalised time of each kind of
    step, and the workload's own rates, all over the completed cycles."""
    by_kind = {}
    for _, k, r in completed:
        for kind, dt, _ in r.steps:
            by_kind.setdefault(kind, []).append(k * dt)
    med = {k: float(np.median(v)) for k, v in by_kind.items()}
    cycle_s = float(np.median([dt * k for dt, k, _ in completed]))
    rates = {}
    if counts.get("sim.step"):
        rates["env_steps_per_s"] = counts["sim.step"] / cycle_s
    rows = completed[0][2].rows
    if rows:
        rates["dataset_rows_per_s"] = 2 * rows / (med["save_dataset"] + med["load_dataset"])
        rates["ncis_rows_per_s"] = rows / med["ncis_evaluate"]
    return {"step_ms_by_kind": {k: {"samples": len(v), "median": 1e3 * med[k]}
                                for k, v in by_kind.items()},
            "rates": rates}


def traced_run(workload_cls, seed: int, seconds: float, outdir):
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        workload = workload_cls(seed, outdir)
        setup_ns = (time.perf_counter() - t0) * 1e9
        setup = tracer.summary(0, tracer.mark())
    finally:
        tracer.uninstall()
    # untraced and traced cycles alternate, so both meet the same load from
    # the rest of the machine and their median cycles give the overhead
    plain, traced = _Window(workload), _Window(workload)
    lo = tracer.mark()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        plain.run(0.0)
        tracer.install()
        try:
            traced.run(0.0)
        finally:
            tracer.uninstall()
    summary = tracer.summary(lo)
    self_times = tracer.self_times(lo)

    digests = plain.digests() | traced.digests()
    a1, f1 = plain.ops(workload.ops_per_cycle)
    a2, f2 = traced.ops(workload.ops_per_cycle)
    attempted, failed = a1 + a2, f1 + f2
    correct = failed == 0 and len(digests) == 1 and None not in digests

    cycle_s_plain = float(np.median(plain.cycle_s))
    cycle_s_traced = float(np.median(traced.cycle_s))
    metrics, units = layer_metrics(summary, sum(traced.cycle_s) * 1e9, traced.cycles,
                                   workload.updates_per_cycle, setup, setup_ns)
    metrics["trace.overhead_pct"] = 100.0 * (cycle_s_traced / cycle_s_plain - 1.0)
    metrics["trace.cycle_ms"] = 1e3 * cycle_s_traced
    units.update({"trace.overhead_pct": "%", "trace.cycle_ms": "ms"})

    spans_path = outdir / f"{workload_cls.name}-seed{seed}.spans.jsonl"
    tracer.write(spans_path)
    details = {
        "workload": workload_cls.name, "trace": 1,
        "cycles_untraced": plain.cycles, "cycles_traced": traced.cycles,
        "cycle_ms_untraced": 1e3 * cycle_s_plain,
        "min_self_ns": int(min(self_times)) if self_times else 0,
        "ops_total": attempted, "ops_failed": failed,
        "ops_failed_frac": failed / attempted,
        "digests_seen": sorted(map(str, digests)),
        "functions": _function_table(summary, traced.cycles),
        "setup_functions": _function_table(setup, 1),
        "spans_file": spans_path.name, "spans": len(tracer.spans),
        "errors": (_errors(plain) + _errors(traced))[:5],
    }
    return _result(correct, attempted, failed, metrics, units), details


def _function_table(summary: dict, cycles: int) -> dict:
    return {name: {"calls_per_cycle": a["calls"] / cycles, "rows": a["rows"],
                   "us_per_call": a["incl_ns"] / 1e3 / a["calls"],
                   "self_us_per_call": a["self_ns"] / 1e3 / a["calls"]}
            for name, a in sorted(summary.items())}


def layer_metrics(summary: dict, window_ns: float, cycles: int, updates_per_cycle: int,
                  setup: dict, setup_ns: float):
    """Per-layer metrics over the traced window.  Counts are per cycle (every
    cycle does identical work, so they are exact); shares are percent of the
    traced cycles' wall time, inclusive of callees unless named self_share."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    metrics, units = {}, {}

    def put(name, value, unit):
        metrics[name] = float(value)
        units[name] = unit

    def calls(fn):
        put(f"{fn}.calls", get(fn, "calls") / cycles, "count")

    def rows(fn):
        put(f"{fn}.rows", get(fn, "rows") / cycles, "count")

    def share(fn):
        put(f"{fn}.share", 100.0 * get(fn, "incl_ns") / window_ns, "%")

    def us_per_call(fn):
        n = get(fn, "calls")
        put(f"{fn}.us_per_call", get(fn, "incl_ns") / 1e3 / n if n else 0.0, "us")

    for layer in LAYERS:
        busy = sum(a["self_ns"] for n, a in summary.items() if n.startswith(layer + "."))
        put(f"{layer}.self_share", 100.0 * busy / window_ns, "%")

    calls("sim.step")
    share("sim.step")
    put("sim.run_episode.self_share",
        100.0 * get("sim.run_episode", "self_ns") / window_ns, "%")
    sim_setup = sum(a["self_ns"] for n, a in setup.items() if n.startswith("sim."))
    put("sim.setup_share", 100.0 * sim_setup / setup_ns, "%")

    b1, batch = "approximator.forward.b1", "approximator.forward.batch"
    calls(b1)
    share(b1)
    for fn in (batch, "approximator.gradient"):
        calls(fn)
        rows(fn)
        us_per_call(fn)
    calls("approximator.input_gradient")
    share("approximator.input_gradient")
    passes = sum(get(f, "calls") for f in (batch, "approximator.gradient",
                                           "approximator.input_gradient"))
    put("approximator.net_passes_per_update", passes / (cycles * updates_per_cycle), "count")
    calls("approximator.optimizer_step")
    us_per_call("approximator.optimizer_step")

    for fn in ("collect_batch", "critic_update", "actor_update_aux", "actor_update_main",
               "policy_kl"):
        share(f"stochastic.{fn}")
    calls("stochastic.batch_arrays")
    rows("stochastic.batch_arrays")
    share("stochastic.batch_arrays")
    calls("stochastic.constrained_weights_batch")
    share("stochastic.constrained_weights_batch")

    calls("deterministic.q_critic_update")
    for fn in ("q_critic_update", "ddpg_actor_update", "constrained_det_actor_update"):
        share(f"deterministic.{fn}")

    ratio = "offline.full_trajectory_ratio"
    calls(ratio)
    share(ratio)
    n = get(ratio, "calls")
    put("offline.ratio_forwards_per_sample",
        get(ratio, "forwards_b1") / n if n else 0.0, "count")
    for fn in ("offline_actor_update_aux", "offline_actor_update_main",
               "multi_critic_train", "ncis_evaluate"):
        share(f"offline.{fn}")

    share("core.save_dataset")
    share("core.load_dataset")
    return metrics, units


def _result(correct, attempted, failed, metrics, units) -> dict:
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_revision(root):
    if not (root / ".git").exists():  # a source export, not a clone
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for ln in fh:
                if ln.startswith("model name"):
                    return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(root, args, blas_threads_setting: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_setting": blas_threads_setting,
        "blas_threads_reported": _blas_threads(),
        "git_revision": _git_revision(root), "source_sha256": _source_digest(root),
    }
