"""Minimal differentiable MLP with explicit flat parameter vectors.

Every actor and critic in this package is built on these functions: a
feed-forward net with tanh hidden units and a linear, softmax, or tanh
output head.  Parameters live in a single flat float64 array whose layout
is derived from the spec, and updates use an Adam-style optimizer.
``forward_pullback`` runs the net once and returns its output with a
pullback: hand-rolled backprop (checkable against finite differences) that
maps an upstream gradient to gradients in one sweep.  The pullback's ``wrt``
says which it builds: ``"params"`` the flat parameter gradient (a trainer's
step), ``"input"`` the input gradient (dQ/da through a frozen critic) or
``"both"`` (a critic that also trains the table its input is read from);
the half not asked for is None and costs nothing.  No hidden state
anywhere: callers own the arrays.

Member axis: k independent nets of one architecture train as one *bank*
whose params stack on a leading axis, shape (k, n_params) (``bank`` builds
one).  ``forward_pullback`` then takes inputs of shape (batch, input_dim),
shared by every member, or (k, batch, input_dim), one batch per member, and
returns outputs (k, batch, output_dim); the pullback returns (k, n_params)
parameter gradients (``"params"``, ``"both"``) and (k, batch, input_dim)
input gradients (``"input"``, ``"both"``), also when x is shared.  Products
broadcast through ``@``, so member i's results equal (==) those of a
separate call on params[i]: numpy's stacked matmul runs the same BLAS kernel
per member.  ``optimizer_step`` is elementwise and steps a bank as one array.

Allocation: each layer's activation is one fresh array (``h @ w``); bias,
tanh and head work in place on it, and no caller's array is written, so no
large temporary is handed back to the kernel and faulted in on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import check_config

ACTIVATIONS = ("linear", "softmax", "tanh")

_TINY = np.finfo(np.float64).tiny
_MOMENT_DECAYS, _EPSILON = (0.9, 0.999), 1e-8  # Adam's, as Kingma & Ba set them


@dataclass(frozen=True)
class ApproxSpec:
    """Architecture and seed; two equal specs init to bit-identical params."""

    input_dim: int
    hidden_layers: tuple[int, ...]
    output_dim: int
    output_activation: str = "linear"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))
        check_config(self, counts=("input_dim", "hidden_layers", "output_dim"), rules=(
            (f"unknown output_activation {self.output_activation!r}",
             self.output_activation in ACTIVATIONS),))

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_layers, self.output_dim)

    @property
    def param_count(self) -> int:
        return self._layout[-1][2]

    @cached_property
    def _layout(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Per layer (W start, W end, b end, fan_in, fan_out) in the flat
        vector; computed once per spec instance."""
        dims = self.layer_dims
        layout, pos = [], 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w_end = pos + fan_in * fan_out
            layout.append((pos, w_end, w_end + fan_out, fan_in, fan_out))
            pos = w_end + fan_out
        return tuple(layout)


def init_params(spec: ApproxSpec) -> np.ndarray:
    """Deterministic init: uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    chunks = []
    for *_, fan_in, fan_out in spec._layout:
        bound = 1.0 / np.sqrt(fan_in)
        chunks += [rng.uniform(-bound, bound, size=fan_in * fan_out),
                   rng.uniform(-bound, bound, size=fan_out)]
    return np.concatenate(chunks)


def unpack_params(spec: ApproxSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat vector into per-layer (W, b) views.  W has shape
    (fan_in, fan_out) and b (1, fan_out), a row that broadcasts over a
    batch; params with leading member axes (..., n_params) give W
    (..., fan_in, fan_out) and b (..., 1, fan_out)."""
    params = np.asarray(params, dtype=np.float64)
    if params.ndim == 0 or params.shape[-1] != spec.param_count:
        raise ValueError(
            f"parameter vector has size {params.shape[-1] if params.ndim else 1}, "
            f"spec requires {spec.param_count}"
        )
    lead = params.shape[:-1]
    return [(params[..., w0:w1].reshape(*lead, fan_in, fan_out), params[..., None, w1:b1])
            for w0, w1, b1, fan_in, fan_out in spec._layout]


def bank(nets, **fields):
    """One net standing for ``nets`` (objects with ``spec`` and ``params``,
    e.g. policies or critics of one architecture): a copy of the first whose
    params stack every member's on a leading member axis.  ``fields``
    replace other attributes; any other field and the spec are the first
    member's, of which only the spec's architecture is used.  Critics stack their weights and discounts too
    through ``stochastic.critic_bank``."""
    if not nets:
        raise ValueError("a bank needs at least one member")
    first = nets[0]
    arch = (first.spec.layer_dims, first.spec.output_activation)
    if any((n.spec.layer_dims, n.spec.output_activation) != arch for n in nets):
        raise ValueError("the members of a bank must share one architecture")
    return replace(first, params=np.stack([n.params for n in nets]), **fields)


def _check_input(spec: ApproxSpec, x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] != spec.input_dim:
        raise ValueError(f"input has shape {x.shape}, spec requires ({spec.input_dim},) "
                         f"or (..., batch, {spec.input_dim})")
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if not np.isfinite(x).all():
        raise ValueError("non-finite entries in input")
    return x, single


def _apply_output_activation(kind: str, z: np.ndarray) -> np.ndarray:
    """The head, in place on pre-activation z, an array the pass owns."""
    if kind == "tanh":
        np.tanh(z, out=z)
    elif kind == "softmax":
        # max-subtraction; entries floored at the smallest normal float so
        # the head always returns strictly positive probabilities
        z -= z.max(axis=-1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=-1, keepdims=True)
        np.maximum(z, _TINY, out=z)
    return z


def _forward_layers(kind: str, layers, x: np.ndarray):
    """(output, hidden activations list) of unpacked ``layers`` on x."""
    hidden = []
    h = x
    for w, b in layers[:-1]:
        h = h @ w
        h += b
        np.tanh(h, out=h)
        hidden.append(h)
    w, b = layers[-1]
    z = h @ w
    z += b
    return _apply_output_activation(kind, z), hidden


def _forward_pass(spec: ApproxSpec, params: np.ndarray, x: np.ndarray):
    """Returns (output, hidden activations list, per-layer (W, b)) for an
    input batch whose last axis holds the features; leading member axes of
    params and x broadcast."""
    layers = unpack_params(spec, params)
    out, hidden = _forward_layers(spec.output_activation, layers, x)
    return out, hidden, layers


def forward(spec: ApproxSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the net.  Accepts a single input vector or a (batch, input_dim) matrix."""
    return forward_pullback(spec, params, x)[0]


def row_evaluator(spec: ApproxSpec, params: np.ndarray):
    """``forward`` one row at a time, with the params unpacked once: returns
    ``rows(x)``, whose row i of a (batch, input_dim) x equals ``forward(spec,
    params, x[i])`` bit for bit, whatever the batch.  For a bank (params (k,
    n_params)) x has shape (k, batch, input_dim) and member i evaluates x[i]
    with the same bits as ``row_evaluator(spec, params[i])(x[i])``.  The
    params must not change while ``rows`` is in use.

    Each row is pushed through as a stacked (1, input_dim) product, which
    runs the one-row kernel (gemv) per row; ``forward`` on a batch runs gemm,
    which changes the last bits of most rows.  One gemv per row is slower
    than one gemm on large batches, so use this only where results must not
    depend on how many rows are evaluated together (lockstep rollouts)."""
    layers = unpack_params(spec, np.asarray(params, dtype=np.float64)[..., None, :])

    def rows(x):
        x, _ = _check_input(spec, x)
        return _forward_layers(spec.output_activation, layers, x[..., None, :])[0][..., 0, :]
    return rows


def _output_delta(kind: str, y: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Jacobian-transpose product of the output activation, batched."""
    if kind == "linear":
        return upstream
    if kind == "tanh":
        return upstream * (1.0 - y * y)
    # softmax: J^T u = y * (u - <y, u>)
    return y * (upstream - np.sum(y * upstream, axis=-1, keepdims=True))


_PULLBACK_WRT = {"params": (True, False), "input": (False, True), "both": (True, True)}


def forward_pullback(spec: ApproxSpec, params: np.ndarray, x: np.ndarray):
    """``forward`` plus its pullback: returns ``(out, pullback)``.

    ``pullback(upstream, wrt="params")`` returns ``(param_grad,
    input_grad)`` of upstream . out (summed over rows), from one backward
    sweep over this call's activations; no second forward runs.  ``wrt``
    picks what is built, and the other entry is None:

    * ``"params"``: the flat parameter gradient, (n,) or (k, n) for a bank;
      the sweep stops at the first layer;
    * ``"input"``: the gradient with respect to x, shaped like x for one
      net and (k, batch, input_dim) for a bank, also when x is shared; no
      parameter gradient is formed;
    * ``"both"``: both, each with the bits it has alone.
    """
    x, single = _check_input(spec, x)
    out, hidden, layers = _forward_pass(spec, params, x)

    def pullback(upstream, wrt="params"):
        if wrt not in _PULLBACK_WRT:
            raise ValueError(f"wrt must be one of {sorted(_PULLBACK_WRT)}, got {wrt!r}")
        want_params, want_input = _PULLBACK_WRT[wrt]
        upstream = np.asarray(upstream, dtype=np.float64)
        if single and upstream.ndim == out.ndim - 1:
            upstream = upstream[..., None, :]
        if upstream.shape != out.shape:
            raise ValueError(f"upstream has shape {upstream.shape}, expected {out.shape}")
        if not np.isfinite(upstream).all():
            raise ValueError("non-finite entries in upstream")
        acts = [x] + hidden  # inputs to each layer
        delta = _output_delta(spec.output_activation, out, upstream)
        flat = out.shape[:-2] + (-1,)  # member axes, then one flat axis
        grads = []  # per layer from the last: b, then W
        for i in range(len(layers) - 1, -1, -1):
            if want_params:
                grads += [delta.sum(axis=-2), (acts[i].swapaxes(-1, -2) @ delta).reshape(flat)]
            if i > 0 or want_input:
                delta = delta @ layers[i][0].swapaxes(-1, -2)
                if i > 0:
                    delta = delta * (1.0 - acts[i] * acts[i])
        param_grad = np.concatenate(grads[::-1], axis=-1) if want_params else None
        input_grad = (delta[..., 0, :] if single else delta) if want_input else None
        return param_grad, input_grad

    return (out[..., 0, :] if single else out), pullback


def gradient(spec: ApproxSpec, params: np.ndarray, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient of upstream . forward(x) with respect to params, as a flat vector.

    For a batch the result is the sum over rows of the per-sample gradients,
    so per-sample weights and 1/batch factors fold into ``upstream``.
    """
    return forward_pullback(spec, params, x)[1](upstream)[0]


def input_gradient(spec: ApproxSpec, params: np.ndarray, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient of upstream . forward(x) with respect to the input, same shape as x."""
    return forward_pullback(spec, params, x)[1](upstream, wrt="input")[1]


@dataclass(frozen=True)
class OptState:
    """Adam accumulator state.  One instance per parameter vector."""

    step_count: int
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_size: float = 1e-3


def init_opt_state(shape, step_size: float = 1e-3) -> OptState:
    """Zero moments for params of ``shape``: n_params, or (k, n_params) for a bank."""
    if not step_size > 0:  # NaN fails too
        raise ValueError(f"step_size must be > 0, got {step_size}")
    return OptState(0, np.zeros(shape), np.zeros(shape), step_size)


def optimizer_step(params: np.ndarray, grads: np.ndarray, opt: OptState,
                   direction: str = "minimize") -> tuple[np.ndarray, OptState]:
    """One bias-corrected Adam step.  direction='maximize' negates the gradient.
    Elementwise, so a bank's (k, n) params step as one array, each member
    exactly as alone."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.shape or opt.first_moment.shape != params.shape:
        raise ValueError("params, grads and optimizer moments must share one shape")
    if not np.isfinite(grads).all():
        raise ValueError("non-finite gradient entries")
    if direction == "maximize":
        grads = -grads
    elif direction != "minimize":
        raise ValueError(f"unknown direction {direction!r}")

    b1, b2 = _MOMENT_DECAYS
    t = opt.step_count + 1
    m = b1 * opt.first_moment + (1.0 - b1) * grads
    v = b2 * opt.second_moment + (1.0 - b2) * grads * grads
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    new_params = params - opt.step_size * m_hat / (np.sqrt(v_hat) + _EPSILON)
    return new_params, OptState(t, m, v, opt.step_size)
