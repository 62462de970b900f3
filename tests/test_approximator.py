import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactor import approximator as ap


def rand_spec(rng, out_act="linear"):
    depth = int(rng.integers(0, 3))
    hidden = tuple(int(rng.integers(1, 9)) for _ in range(depth))
    return ap.ApproxSpec(int(rng.integers(1, 9)), hidden, int(rng.integers(1, 9)),
                         out_act, seed=int(rng.integers(2 ** 31)))


def numeric_gradient(spec, params, x, upstream, h=1e-5):
    grad = np.zeros_like(params)
    for k in range(params.size):
        up = params.copy(); up[k] += h
        dn = params.copy(); dn[k] -= h
        fu = float(np.dot(upstream, ap.forward(spec, up, x)))
        fd = float(np.dot(upstream, ap.forward(spec, dn, x)))
        grad[k] = (fu - fd) / (2 * h)
    return grad


class TestForward:
    def test_zero_weights_linear_gives_zero_output(self):
        spec = ap.ApproxSpec(3, (), 2, "linear", seed=0)
        out = ap.forward(spec, np.zeros(spec.param_count), [0.5, -1.0, 2.0])
        assert np.array_equal(out, np.zeros(2))

    def test_softmax_equal_logits_is_uniform(self):
        spec = ap.ApproxSpec(3, (), 4, "softmax", seed=0)
        out = ap.forward(spec, np.zeros(spec.param_count), [1.0, 2.0, 3.0])
        assert np.allclose(out, 0.25, atol=1e-12)

    def test_hand_evaluated_2_2_1_net(self):
        # W1=[[0.5,-0.25],[0.1,0.3]], b1=(0.1,-0.2), W2=(0.7,-0.4), b2=0.05
        spec = ap.ApproxSpec(2, (2,), 1, "linear", seed=0)
        params = np.array([0.5, -0.25, 0.1, 0.3, 0.1, -0.2, 0.7, -0.4, 0.05])
        h1 = math.tanh(0.5 * 1 + 0.1 * (-1) + 0.1)
        h2 = math.tanh(-0.25 * 1 + 0.3 * (-1) - 0.2)
        expected = 0.7 * h1 - 0.4 * h2 + 0.05
        out = ap.forward(spec, params, [1.0, -1.0])
        assert out.shape == (1,)
        assert out[0] == pytest.approx(expected, abs=1e-14)

    def test_softmax_is_probability_vector_on_large_logits(self):
        spec = ap.ApproxSpec(2, (), 3, "softmax", seed=1)
        params = np.array([500.0, -300.0, 200.0, 0.0, -100.0, 800.0, 10.0, -5.0, 3.0])
        out = ap.forward(spec, params, [1.0, 1.0])
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) < 1e-9

    def test_dimension_mismatch_rejected(self):
        spec = ap.ApproxSpec(3, (), 2, "linear", seed=0)
        with pytest.raises(ValueError, match="input"):
            ap.forward(spec, np.zeros(spec.param_count), [1.0, 2.0])

    @pytest.mark.parametrize("call", [ap.forward, ap.forward_pullback])
    def test_zero_d_input_rejected(self, call):
        spec = ap.ApproxSpec(3, (), 2, "linear", seed=0)
        with pytest.raises(ValueError, match=r"input has shape \(\), spec requires "
                                             r"\(3,\) or \(\.\.\., batch, 3\)"):
            call(spec, np.zeros(spec.param_count), 3.0)

    def test_nonfinite_input_rejected(self):
        spec = ap.ApproxSpec(2, (), 1, "linear", seed=0)
        with pytest.raises(ValueError, match="finite"):
            ap.forward(spec, np.zeros(spec.param_count), [1.0, float("nan")])

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        spec = ap.ApproxSpec(4, (5,), 3, "softmax", seed=9)
        params = ap.init_params(spec)
        xs = rng.normal(size=(6, 4))
        batched = ap.forward(spec, params, xs)
        # BLAS may pick different kernels for matrix vs vector products, so
        # agreement is to rounding, not bitwise
        for k in range(6):
            assert np.allclose(batched[k], ap.forward(spec, params, xs[k]),
                               rtol=1e-12, atol=1e-15)


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(ap.ACTIVATIONS), st.integers(0, 2),
       st.integers(1, 70))
def test_row_evaluator_matches_one_row_forward_bit_for_bit(seed, head, depth, batch):
    rng = np.random.default_rng(seed)
    hidden = tuple(int(rng.integers(1, 40)) for _ in range(depth))
    spec = ap.ApproxSpec(int(rng.integers(1, 20)), hidden, int(rng.integers(1, 40)), head,
                         seed=seed)
    params = ap.init_params(spec) * rng.uniform(0.5, 3.0)
    xs = rng.normal(size=(batch, spec.input_dim)) * 2
    rows = ap.row_evaluator(spec, params)(xs)
    assert rows.shape == (batch, spec.output_dim)
    for k in range(batch):
        assert np.array_equal(rows[k], ap.forward(spec, params, xs[k]))


@settings(max_examples=25, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(ap.ACTIVATIONS), st.integers(0, 2),
       st.integers(1, 4), st.integers(1, 12))
def test_row_evaluator_bank_equals_each_member_alone(seed, head, depth, k, batch):
    rng = np.random.default_rng(seed)
    hidden = tuple(int(rng.integers(1, 40)) for _ in range(depth))
    spec = ap.ApproxSpec(int(rng.integers(1, 20)), hidden, int(rng.integers(1, 40)), head,
                         seed=seed)
    params = np.stack([ap.init_params(spec) * rng.uniform(0.5, 3.0) for _ in range(k)])
    xs = rng.normal(size=(k, batch, spec.input_dim)) * 2
    rows = ap.row_evaluator(spec, params)
    for _ in range(2):  # the unpacked bank is reused
        out = rows(xs)
        assert out.shape == (k, batch, spec.output_dim)
        for i in range(k):
            assert np.array_equal(out[i], ap.row_evaluator(spec, params[i])(xs[i]))
        xs = xs[:, ::-1].copy()


class TestSpecChecks:
    @pytest.mark.parametrize("args, message", [
        ((3, (4.7,), 2), r"hidden_layers\[0\] must be an integer"),
        ((3.0, (4,), 2), "input_dim must be an integer"),
        ((True, (4,), 2), "input_dim must be an integer"),
        ((3, (0,), 2), r"hidden_layers\[0\] must be >= 1"),
        ((3, (4,), 0), "output_dim must be >= 1"),
        ((3, (4,), 2, "relu"), "unknown output_activation 'relu'"),
    ], ids=["fractional-width", "float-input", "bool-input", "zero-width", "zero-output",
            "unknown-head"])
    def test_bad_spec_names_its_field(self, args, message):
        with pytest.raises(ValueError, match=message):
            ap.ApproxSpec(*args)

    def test_hidden_layers_are_stored_as_given(self):
        spec = ap.ApproxSpec(3, [np.int64(4), 5], 2)
        assert spec.hidden_layers == (4, 5) and type(spec.hidden_layers) is tuple


class TestGradient:
    def test_zero_upstream_gives_zero_gradient(self):
        spec = ap.ApproxSpec(3, (4,), 2, "tanh", seed=5)
        params = ap.init_params(spec)
        g = ap.gradient(spec, params, [0.1, 0.2, 0.3], [0.0, 0.0])
        assert np.array_equal(g, np.zeros_like(params))

    def test_linear_model_gradient_is_input_and_one(self):
        spec = ap.ApproxSpec(3, (), 1, "linear", seed=0)
        x = np.array([0.4, -1.2, 2.5])
        g = ap.gradient(spec, ap.init_params(spec), x, [1.0])
        assert np.allclose(g[:3], x, atol=1e-15)
        assert g[3] == pytest.approx(1.0)

    def test_random_net_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        spec = ap.ApproxSpec(3, (4,), 2, "linear", seed=7)
        params = ap.init_params(spec)
        x = rng.normal(size=3)
        upstream = rng.normal(size=2)
        analytic = ap.gradient(spec, params, x, upstream)
        numeric = numeric_gradient(spec, params, x, upstream)
        denom = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_gradcheck_covers_every_head(self):
        rng = np.random.default_rng(2024)
        for act in ("linear", "softmax", "tanh"):
            for _ in range(5):
                spec = rand_spec(rng, act)
                params = ap.init_params(spec)
                x = rng.normal(size=spec.input_dim)
                upstream = rng.normal(size=spec.output_dim)
                analytic = ap.gradient(spec, params, x, upstream)
                numeric = numeric_gradient(spec, params, x, upstream)
                denom = np.maximum(np.abs(numeric), 1e-6)
                assert np.max(np.abs(analytic - numeric) / denom) < 1e-4, act

    def test_batch_gradient_is_sum_of_per_sample(self):
        rng = np.random.default_rng(4)
        spec = ap.ApproxSpec(3, (4,), 2, "softmax", seed=8)
        params = ap.init_params(spec)
        xs = rng.normal(size=(5, 3))
        us = rng.normal(size=(5, 2))
        total = ap.gradient(spec, params, xs, us)
        summed = sum(ap.gradient(spec, params, xs[k], us[k]) for k in range(5))
        assert np.allclose(total, summed, atol=1e-12)

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        spec = ap.ApproxSpec(4, (5,), 3, "tanh", seed=2)
        params = ap.init_params(spec)
        x = rng.normal(size=4)
        upstream = rng.normal(size=3)
        analytic = ap.input_gradient(spec, params, x, upstream)
        h = 1e-6
        numeric = np.zeros(4)
        for k in range(4):
            up = x.copy(); up[k] += h
            dn = x.copy(); dn[k] -= h
            numeric[k] = (np.dot(upstream, ap.forward(spec, params, up))
                          - np.dot(upstream, ap.forward(spec, params, dn))) / (2 * h)
        assert np.max(np.abs(analytic - numeric)) < 1e-6

    def test_upstream_shape_mismatch_rejected(self):
        spec = ap.ApproxSpec(2, (), 3, "linear", seed=0)
        with pytest.raises(ValueError, match="upstream"):
            ap.gradient(spec, ap.init_params(spec), [1.0, 2.0], [1.0])


class TestOptimizer:
    def test_zero_gradient_leaves_params_and_bumps_count(self):
        params = np.array([1.0, -2.0])
        opt = ap.init_opt_state(2)
        new, opt2 = ap.optimizer_step(params, np.zeros(2), opt)
        assert np.array_equal(new, params)
        assert opt2.step_count == 1

    def test_first_adam_step_on_scalar(self):
        # bias-corrected first step: m_hat = g, v_hat = g^2, delta = lr*g/(|g|+eps)
        opt = ap.init_opt_state(1, step_size=0.1)
        new, _ = ap.optimizer_step(np.array([0.0]), np.array([1.0]), opt, "minimize")
        assert new[0] == pytest.approx(-0.1, abs=1e-8)

    def test_maximize_mirrors_minimize(self):
        rng = np.random.default_rng(5)
        params = rng.normal(size=6)
        g = rng.normal(size=6)
        lo, _ = ap.optimizer_step(params, -g, ap.init_opt_state(6), "minimize")
        hi, _ = ap.optimizer_step(params, g, ap.init_opt_state(6), "maximize")
        assert np.array_equal(lo, hi)

    @pytest.mark.parametrize("step_size", [0.0, -1.0, float("nan")])
    def test_step_size_must_be_positive(self, step_size):
        with pytest.raises(ValueError, match="step_size must be > 0"):
            ap.init_opt_state(3, step_size)

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ap.optimizer_step(np.zeros(2), np.array([1.0, float("inf")]),
                              ap.init_opt_state(2))


class TestDeterminism:
    def test_equal_specs_give_bit_identical_params(self):
        a = ap.init_params(ap.ApproxSpec(5, (7, 3), 2, "softmax", seed=42))
        b = ap.init_params(ap.ApproxSpec(5, (7, 3), 2, "softmax", seed=42))
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = ap.init_params(ap.ApproxSpec(5, (7,), 2, "linear", seed=1))
        b = ap.init_params(ap.ApproxSpec(5, (7,), 2, "linear", seed=2))
        assert not np.array_equal(a, b)

    def test_init_bounds_match_fan_in(self):
        spec = ap.ApproxSpec(16, (4,), 2, "linear", seed=3)
        layers = ap.unpack_params(spec, ap.init_params(spec))
        w1, _ = layers[0]
        assert np.max(np.abs(w1)) <= 1.0 / 4.0


@settings(max_examples=30, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_softmax_head_always_a_distribution(seed):
    rng = np.random.default_rng(seed)
    spec = ap.ApproxSpec(int(rng.integers(1, 6)), (int(rng.integers(1, 6)),),
                         int(rng.integers(2, 6)), "softmax", seed=seed)
    params = ap.init_params(spec) * rng.uniform(0.1, 50.0)
    out = ap.forward(spec, params, rng.normal(size=spec.input_dim) * 10)
    assert np.all(out > 0)
    assert abs(out.sum() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# the pass works in place on its own arrays: same bits, no caller array
# written, and no more memory than the activations it returns
# ---------------------------------------------------------------------------


def _ref_forward(kind, layers, x):
    """Out-of-place reference: one fresh array per elementwise step."""
    hidden, h = [], x
    for w, b in layers[:-1]:
        h = np.tanh(h @ w + b)
        hidden.append(h)
    w, b = layers[-1]
    z = h @ w + b
    if kind == "tanh":
        z = np.tanh(z)
    elif kind == "softmax":
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        z = np.maximum(e / e.sum(axis=-1, keepdims=True), np.finfo(np.float64).tiny)
    return z, hidden


def _ref_pullback(kind, layers, x, hidden, out, upstream):
    """(parameter gradient, input gradient) of upstream . out, out of place."""
    if kind == "linear":
        delta = upstream
    elif kind == "tanh":
        delta = upstream * (1.0 - out * out)
    else:
        delta = out * (upstream - np.sum(out * upstream, axis=-1, keepdims=True))
    acts, grads = [x] + hidden, []
    for i in range(len(layers) - 1, -1, -1):
        grads += [delta.sum(axis=-2),
                  (acts[i].swapaxes(-1, -2) @ delta).reshape(out.shape[:-2] + (-1,))]
        delta = delta @ layers[i][0].swapaxes(-1, -2)
        if i > 0:
            delta = delta * (1.0 - acts[i] * acts[i])
    return np.concatenate(grads[::-1], axis=-1), delta


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=60, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(ap.ACTIVATIONS), st.integers(0, 2),
       st.sampled_from([None, 0, 1, 7]), st.sampled_from([None, 1, 3]), st.booleans())
def test_forward_equals_out_of_place_reference_and_writes_no_caller_array(
        seed, head, depth, batch, k, per_member):
    """batch None is a single row; k None is one net, else a bank of k
    members whose x is shared or, with a batch, per member."""
    rng = np.random.default_rng(seed)
    hidden = tuple(int(rng.integers(1, 12)) for _ in range(depth))
    spec = ap.ApproxSpec(int(rng.integers(1, 8)), hidden, int(rng.integers(1, 8)), head,
                         seed=seed)
    scale = rng.uniform(0.5, 5.0)
    params = (ap.init_params(spec) * scale if k is None else
              np.stack([ap.init_params(replace(spec, seed=seed + i)) * scale
                        for i in range(k)]))
    per_member = per_member and k is not None and batch is not None
    x = rng.normal(size=(((k,) if per_member else ()) + (() if batch is None else (batch,))
                         + (spec.input_dim,))) * 3
    params0, x0 = params.copy(), x.copy()

    x2 = x[None, :] if batch is None else x
    layers = ap.unpack_params(spec, params)
    ref_out, ref_hidden = _ref_forward(head, layers, x2)
    upstream = rng.normal(size=ref_out.shape)
    ref_grad, ref_xgrad = _ref_pullback(head, layers, x2, ref_hidden, ref_out, upstream)
    if batch is None:
        ref_out, ref_xgrad, upstream = ref_out[..., 0, :], ref_xgrad[..., 0, :], upstream[..., 0, :]

    assert _bitwise_equal(ap.forward(spec, params, x), ref_out)
    assert _bitwise_equal(params, params0) and _bitwise_equal(x, x0)
    out, pullback = ap.forward_pullback(spec, params, x)
    assert _bitwise_equal(out, ref_out)
    # each mode builds its half of "both" with the same bits
    grad, none = pullback(upstream, wrt="params")
    assert none is None and _bitwise_equal(grad, ref_grad)
    none, xgrad = pullback(upstream, wrt="input")
    assert none is None and _bitwise_equal(xgrad, ref_xgrad)
    grad, xgrad = pullback(upstream, wrt="both")
    assert _bitwise_equal(grad, ref_grad) and _bitwise_equal(xgrad, ref_xgrad)
    assert _bitwise_equal(params, params0) and _bitwise_equal(x, x0)

    if batch is not None and (k is None or per_member):
        rows = ap.row_evaluator(spec, params)(x)
        ref_rows = _ref_forward(head, ap.unpack_params(spec, params[..., None, :]),
                                x[..., None, :])[0][..., 0, :]
        assert _bitwise_equal(rows, ref_rows)
        assert _bitwise_equal(params, params0) and _bitwise_equal(x, x0)


@pytest.mark.parametrize("head", ap.ACTIVATIONS)
def test_forward_peak_memory_is_its_activations(head):
    """A 4096-row forward allocates its hidden and output activations once:
    its traced peak stays within them, one input-sized bool mask (the
    finiteness check) and 64 KiB for small temporaries."""
    rows, spec = 4096, ap.ApproxSpec(28, (32,), 25, head, seed=1)
    params = ap.init_params(spec)
    x = np.random.default_rng(0).normal(size=(rows, spec.input_dim))
    ap.forward(spec, params, x)
    tracemalloc.start()
    try:
        ap.forward(spec, params, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = rows * (sum(spec.hidden_layers) + spec.output_dim) * 8 + x.size + 64 * 1024
    assert peak <= budget, (peak, budget)
