"""Host-speed calibration: a fixed job timed beside every measured cycle.

The benchmark runs on a few cores of a shared host.  While other tenants
load it, the same code runs 1.3-1.8x slower, in CPU time as much as in wall
time, in bursts of a few milliseconds to tens of seconds; whole runs differ
by up to 1.6x.  So the end-to-end timings are host-speed normalised: each
cycle's wall time is scaled by ``REF_MS`` over the wall time of this job,
measured right before and right after the cycle.  They read as milliseconds
on a host where the job takes ``REF_MS`` ms, which is about what it takes on
an otherwise idle core of the host the baseline was measured on.  The raw
wall times stay in the run details.

The job is small MLP work in numpy (batch-64 forward and backward passes and
single-row forwards) followed by plain-Python dict and tuple work, the two
kinds of work cactor does.  It uses nothing from cactor, so a change to the
program cannot change the job.  The garbage collector is off while it runs,
so the program's heap cannot lengthen it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

REF_MS = 6.5

_rng = np.random.Generator(np.random.PCG64(20220526))
_X = _rng.standard_normal((64, 10))
_X1 = _rng.standard_normal((1, 10))
_W1 = 0.3 * _rng.standard_normal((10, 32))
_W2 = 0.3 * _rng.standard_normal((32, 30))


def _numpy_part() -> float:
    out = 0.0
    for _ in range(60):
        h = np.tanh(_X @ _W1)
        z = h @ _W2
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        g = (p - 1.0 / 30) / 64
        gh = (g @ _W2.T) * (1.0 - h * h)
        out += float((h.T @ g).sum() + (_X.T @ gh).sum())
    for _ in range(150):
        z = np.tanh(_X1 @ _W1) @ _W2
        z = np.exp(z - z.max())
        out += float(z[0, 0] / z.sum())
    return out


def _python_part() -> float:
    acc, out = [], 0.0
    for i in range(4000):
        d = {"a": i, "b": i * 0.5, "c": (i, i + 1)}
        acc.append((d["a"] + d["b"], len(d["c"])))
        if len(acc) > 50:
            out += acc[-1][0]
            acc.clear()
    return out


def job_seconds() -> float:
    """Wall time of one run of the calibration job."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _numpy_part()
        _python_part()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a wall time measured between two calibration runs
    into reference-host time."""
    return REF_MS / 1e3 / (0.5 * (before_s + after_s))
