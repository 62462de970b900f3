"""Minimal differentiable MLP with explicit flat parameter vectors.

Every actor and critic in this package is built on these functions: a
feed-forward net with tanh hidden units and a linear, softmax, or tanh
output head.  Parameters live in a single flat float64 array whose layout
is derived from the spec, and updates use an Adam-style optimizer.
``forward_pullback`` runs the net once and returns its output with a
pullback: hand-rolled backprop (checkable against finite differences) that
maps an upstream gradient to the parameter gradient and, if asked, the
input gradient in one sweep.  No hidden state anywhere: callers own the arrays.

Member axis: k independent nets of one architecture train as one *bank*
whose params stack on a leading axis, shape (k, n_params) (``bank`` builds
one).  ``forward_pullback`` then takes inputs of shape (batch, input_dim),
shared by every member, or (k, batch, input_dim), one batch per member, and
returns outputs (k, batch, output_dim); the pullback returns (k, n_params)
parameter gradients and (k, batch, input_dim) input gradients.  Products
broadcast through ``@``, so member i's results equal (==) those of a
separate call on params[i]: numpy's stacked matmul runs the same BLAS kernel
per member.  ``optimizer_step`` is elementwise and steps a bank as one array.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

ACTIVATIONS = ("linear", "softmax", "tanh")

_HEADER = "cactor-approx 1"
_FIELDS = (("input_dim", int),
           ("hidden_layers", lambda v: tuple(int(h) for h in v.split(",") if h)),
           ("output_dim", int), ("output_activation", str), ("seed", int), ("n_params", int))
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class ApproxSpec:
    """Architecture and seed; two equal specs init to bit-identical params."""

    input_dim: int
    hidden_layers: tuple[int, ...]
    output_dim: int
    output_activation: str = "linear"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be >= 1")
        if any(h < 1 for h in self.hidden_layers):
            raise ValueError("hidden layer sizes must be >= 1")
        if self.output_activation not in ACTIVATIONS:
            raise ValueError(f"unknown output_activation {self.output_activation!r}")

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
    dims = spec.layer_dims
    chunks = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        bound = 1.0 / np.sqrt(fan_in)
        chunks.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        chunks.append(rng.uniform(-bound, bound, size=fan_out))
    return np.concatenate(chunks) if chunks else np.zeros(0)


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
    replace other attributes, e.g. a per-member discount column.  The bank
    keeps the first member's spec; only its architecture is used."""
    if not nets:
        raise ValueError("a bank needs at least one member")
    first = nets[0]
    arch = (first.spec.layer_dims, first.spec.output_activation)
    if any((n.spec.layer_dims, n.spec.output_activation) != arch for n in nets):
        raise ValueError("the members of a bank must share one architecture")
    return replace(first, params=np.stack([n.params for n in nets]), **fields)


def first_layer_size(spec: ApproxSpec) -> int:
    """Number of leading flat-vector entries belonging to the first layer (W1 and b1)."""
    dims = spec.layer_dims
    return dims[0] * dims[1] + dims[1]


def _check_input(spec: ApproxSpec, x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim < 2 or x.shape[-1] != spec.input_dim:
        raise ValueError(f"input has trailing dim {x.shape[-1]}, spec requires {spec.input_dim}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite entries in input")
    return x, single


def _apply_output_activation(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "linear":
        return z
    if kind == "tanh":
        return np.tanh(z)
    # softmax with max-subtraction; entries floored at the smallest normal
    # float so the head always returns strictly positive probabilities
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return np.maximum(e / e.sum(axis=-1, keepdims=True), _TINY)


def _forward_layers(kind: str, layers, x: np.ndarray):
    """(output, hidden activations list) of unpacked ``layers`` on x."""
    hidden = []
    h = x
    for w, b in layers[:-1]:
        h = np.tanh(h @ w + b)
        hidden.append(h)
    w, b = layers[-1]
    return _apply_output_activation(kind, h @ w + b), hidden


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


def forward_rows(spec: ApproxSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``forward`` of a (batch, input_dim) matrix, one row at a time: row i
    equals ``forward(spec, params, x[i])`` bit for bit, whatever the batch.

    Each row is pushed through as a stacked (1, input_dim) product, which
    runs the one-row kernel (gemv) per row; ``forward`` on a batch runs gemm,
    which changes the last bits of most rows.  One gemv per row is slower
    than one gemm on large batches, so use this only where results must not
    depend on how many rows are evaluated together (lockstep rollouts).
    """
    return row_evaluator(spec, params)(x)


def row_evaluator(spec: ApproxSpec, params: np.ndarray):
    """``forward_rows`` with the params unpacked once: returns ``rows(x)``,
    for a caller that evaluates one net on many batches (a rollout step by
    step).  For a bank (params (k, n_params)) x has shape (k, batch,
    input_dim) and member i evaluates x[i], row by row, with the same bits
    as ``forward_rows(spec, params[i], x[i])``.  The params must not change
    while ``rows`` is in use."""
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


def forward_pullback(spec: ApproxSpec, params: np.ndarray, x: np.ndarray):
    """``forward`` plus its pullback: returns ``(out, pullback)``.

    ``pullback(upstream, want_input=False)`` returns the flat parameter
    gradient of upstream . out (summed over rows) and, when ``want_input``,
    its gradient with respect to x (else None), in one backward sweep over
    this call's activations; no second forward runs.  For a bank (params
    (k, n)) both gradients are per member: (k, n) and (k, batch, input_dim),
    also when x is shared.
    """
    x, single = _check_input(spec, x)
    out, hidden, layers = _forward_pass(spec, params, x)

    def pullback(upstream, want_input=False):
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
            grads += [delta.sum(axis=-2), (acts[i].swapaxes(-1, -2) @ delta).reshape(flat)]
            if i > 0 or want_input:
                delta = delta @ layers[i][0].swapaxes(-1, -2)
                if i > 0:
                    delta = delta * (1.0 - acts[i] * acts[i])
        input_grad = (delta[..., 0, :] if single else delta) if want_input else None
        return np.concatenate(grads[::-1], axis=-1), input_grad

    return (out[..., 0, :] if single else out), pullback


def gradient(spec: ApproxSpec, params: np.ndarray, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient of upstream . forward(x) with respect to params, as a flat vector.

    For a batch the result is the sum over rows of the per-sample gradients,
    so per-sample weights and 1/batch factors fold into ``upstream``.
    """
    return forward_pullback(spec, params, x)[1](upstream)[0]


def input_gradient(spec: ApproxSpec, params: np.ndarray, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient of upstream . forward(x) with respect to the input, same shape as x."""
    return forward_pullback(spec, params, x)[1](upstream, want_input=True)[1]


@dataclass(frozen=True)
class OptState:
    """Adam accumulator state.  One instance per parameter vector."""

    step_count: int
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_size: float = 1e-3
    moment_decays: tuple[float, float] = (0.9, 0.999)
    epsilon: float = 1e-8

    def __post_init__(self):
        b1, b2 = self.moment_decays
        if not (0.0 < b1 < 1.0 and 0.0 < b2 < 1.0):
            raise ValueError("moment decays must lie in (0, 1)")
        if self.step_size <= 0 or self.epsilon <= 0:
            raise ValueError("step_size and epsilon must be positive")


def init_opt_state(shape, step_size: float = 1e-3,
                   moment_decays: tuple[float, float] = (0.9, 0.999),
                   epsilon: float = 1e-8) -> OptState:
    """Zero moments for params of ``shape``: n_params, or (k, n_params) for a bank."""
    return OptState(
        step_count=0,
        first_moment=np.zeros(shape),
        second_moment=np.zeros(shape),
        step_size=step_size,
        moment_decays=moment_decays,
        epsilon=epsilon,
    )


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

    b1, b2 = opt.moment_decays
    t = opt.step_count + 1
    m = b1 * opt.first_moment + (1.0 - b1) * grads
    v = b2 * opt.second_moment + (1.0 - b2) * grads * grads
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    new_params = params - opt.step_size * m_hat / (np.sqrt(v_hat) + opt.epsilon)
    return new_params, OptState(t, m, v, opt.step_size, opt.moment_decays, opt.epsilon)


def save_params(path, spec: ApproxSpec, params: np.ndarray) -> None:
    """Write spec header plus one %.17g decimal per parameter (bit-exact round trip)."""
    params = np.asarray(params, dtype=np.float64)
    if params.size != spec.param_count:
        raise ValueError("parameter vector inconsistent with spec")
    lines = [
        _HEADER,
        f"input_dim={spec.input_dim}",
        "hidden_layers=" + ",".join(str(h) for h in spec.hidden_layers),
        f"output_dim={spec.output_dim}",
        f"output_activation={spec.output_activation}",
        f"seed={spec.seed}",
        f"n_params={params.size}",
    ]
    lines.extend(f"{v:.17g}" for v in params)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path) -> tuple[ApproxSpec, np.ndarray]:
    """Inverse of ``save_params``.  A bad file raises ValueError naming
    ``{path}:{lineno}``; non-finite parameters are rejected."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _HEADER:
        raise ValueError(f"{path}:1: not a parameter file (bad header)")
    fields = {}
    try:
        for lineno, (key, parse) in enumerate(_FIELDS, start=2):
            name, eq, val = (lines[lineno - 1] if lineno <= len(lines) else "").partition("=")
            if name != key or not eq:
                raise ValueError(f"expected '{key}=<value>'")
            fields[key] = parse(val)
        n, lineno = fields.pop("n_params"), 2  # a bad spec is named at its first field
        spec, lineno = ApproxSpec(**fields), 7
        if n != spec.param_count or len(lines) != 7 + n:
            raise ValueError(f"n_params={n}, but {len(lines) - 7} values follow "
                             f"and the spec requires {spec.param_count}")
        values = np.empty(n)
        for lineno, ln in enumerate(lines[7:], start=8):
            values[lineno - 8] = float(ln)
            if not np.isfinite(values[lineno - 8]):
                raise ValueError(f"non-finite parameter {ln!r}")
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    return spec, values
