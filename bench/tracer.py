"""In-memory span tracer that wraps cactor's public functions from outside.

The tracer replaces every binding of each traced function (the defining
module, every cactor module that imported it by name, and the package
namespace) with a wrapper that records one span per call:
(name, start_ns, end_ns, parent span index, rows).  ``rows`` is the batch
size of approximator calls and ``batch_arrays``, else 0.  Nothing under
``src/`` is modified; ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

PACKAGE = "cactor"

# (module, attribute) of every traced callable, grouped by layer.  A dotted
# attribute names a method on a class.
TRACED = (
    ("sim", "SessionSimulator.reset"),
    ("sim", "SessionSimulator.step"),
    ("sim", "run_episode"),
    ("sim", "generate_offline_dataset"),
    ("sim", "generate_review_dataset"),
    ("approximator", "forward"),
    ("approximator", "gradient"),
    ("approximator", "input_gradient"),
    ("approximator", "optimizer_step"),
    ("stochastic", "StochasticPolicy.sample"),
    ("stochastic", "train_two_stage"),
    ("stochastic", "collect_batch"),
    ("stochastic", "critic_update"),
    ("stochastic", "actor_update_aux"),
    ("stochastic", "actor_update_main"),
    ("stochastic", "batch_arrays"),
    ("stochastic", "td_errors"),
    ("stochastic", "constrained_weights_batch"),
    ("stochastic", "policy_kl"),
    ("deterministic", "train_constrained_ddpg"),
    ("deterministic", "q_critic_update"),
    ("deterministic", "ddpg_actor_update"),
    ("deterministic", "constrained_det_actor_update"),
    ("offline", "multi_critic_train"),
    ("offline", "offline_actor_update_aux"),
    ("offline", "offline_actor_update_main"),
    ("offline", "full_trajectory_ratio"),
    ("offline", "ncis_evaluate"),
    ("core", "save_dataset"),
    ("core", "load_dataset"),
)

_ROW_COUNTED = {"approximator.forward", "approximator.gradient",
                "approximator.input_gradient", "stochastic.batch_arrays"}


def _rows(name, args, kwargs):
    if name == "stochastic.batch_arrays":
        return len(args[0] if args else kwargs["batch"])
    x = args[2] if len(args) > 2 else kwargs["x"]
    return 1 if getattr(x, "ndim", 2) == 1 else len(x)


class Tracer:
    """Records spans while installed; can be installed again after
    ``uninstall`` and keeps every span recorded so far."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name_id, start_ns, end_ns, parent, rows]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count_rows = name in _ROW_COUNTED

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0, 0, stack[-1] if stack else -1,
                    _rows(name, args, kwargs) if count_rows else 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, attr in TRACED:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            name = f"{mod_name}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, orig), orig)
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapper, orig)

    def _set(self, owner, key, new, orig) -> None:
        self._patches.append((owner, key, orig))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def bindings(self, fn_name: str) -> list[str]:
        """Where the wrapper named ``fn_name`` (e.g. "batch_arrays") is bound."""
        return sorted(f"{getattr(o, '__name__', o)}.{k}" for o, k, _ in self._patches
                      if k == fn_name)

    # -- analysis ----------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; spans from a mark on form one window."""
        return len(self.spans)

    def self_times(self, lo: int = 0, hi: int | None = None) -> list[int]:
        """Self time (ns) of each span in [lo, hi): its duration minus the
        durations of its direct children."""
        hi = len(self.spans) if hi is None else hi
        out = [s[2] - s[1] for s in self.spans[lo:hi]]
        for k in range(lo, hi):
            parent = self.spans[k][3]
            if parent >= lo:
                s = self.spans[k]
                out[parent - lo] -= s[2] - s[1]
        return out

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per-name calls, rows, inclusive and self ns over spans [lo, hi).
        ``forward`` splits into ``forward.b1`` (one row) and ``forward.batch``."""
        hi = len(self.spans) if hi is None else hi
        selfs = self.self_times(lo, hi)
        agg = defaultdict(lambda: {"calls": 0, "rows": 0, "incl_ns": 0, "self_ns": 0,
                                   "forwards_b1": 0})
        for k in range(lo, hi):
            name_id, t0, t1, parent, rows = self.spans[k]
            name = self.names[name_id]
            if name == "approximator.forward":
                name += ".b1" if rows == 1 else ".batch"
                if rows == 1 and parent >= lo:
                    agg[self._label(parent)]["forwards_b1"] += 1
            a = agg[name]
            a["calls"] += 1
            a["rows"] += rows
            a["incl_ns"] += t1 - t0
            a["self_ns"] += selfs[k - lo]
        return dict(agg)

    def _label(self, idx: int) -> str:
        return self.names[self.spans[idx][0]]

    def write(self, path) -> None:
        """Span dump: a header line with the name table, then one JSON array
        [name_id, start_ns, end_ns, parent, rows] per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
