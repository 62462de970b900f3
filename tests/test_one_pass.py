"""One net pass per update: ``forward_pullback`` and the updates built on it
give exactly (==) what the multi-pass code gave, with fewer forwards.

The references below are the multi-pass implementations that preceded
``forward_pullback``, kept verbatim apart from calling the reference net
functions: a forward, then a fresh forward inside every gradient call.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactor import approximator as ap
from cactor import deterministic as det
from cactor import stochastic as stx
from cactor.core import td_target

# ---------------------------------------------------------------------------
# multi-pass references
# ---------------------------------------------------------------------------


def _forward(spec, params, x):
    x, single = ap._check_input(spec, x)
    out, _, _ = ap._forward_pass(spec, params, x)
    return out[0] if single else out


def _backward(spec, params, x, upstream, want_input_grad):
    x, single = ap._check_input(spec, x)
    upstream = np.asarray(upstream, dtype=np.float64)
    if single and upstream.ndim == 1:
        upstream = upstream[None, :]
    if upstream.shape != (x.shape[0], spec.output_dim):
        raise ValueError(
            f"upstream has shape {upstream.shape}, expected ({x.shape[0]}, {spec.output_dim})"
        )
    if not np.all(np.isfinite(upstream)):
        raise ValueError("non-finite entries in upstream")

    out, hidden, _ = ap._forward_pass(spec, params, x)
    layers = ap.unpack_params(spec, params)
    acts = [x] + hidden  # inputs to each layer

    delta = ap._output_delta(spec.output_activation, out, upstream)
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0 or want_input_grad:
            delta = delta @ w.T
            if i > 0:
                delta = delta * (1.0 - acts[i] * acts[i])

    if want_input_grad:
        return delta[0] if single else delta
    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return flat


def _gradient(spec, params, x, upstream):
    return _backward(spec, params, x, upstream, want_input_grad=False)


def _input_gradient(spec, params, x, upstream):
    return _backward(spec, params, x, upstream, want_input_grad=True)


def _q_value(critic, features, actions):
    x = np.concatenate([np.atleast_2d(features), np.atleast_2d(actions)], axis=1)
    return _forward(critic.spec, critic.params, x)[:, 0]


def ref_q_critic_update(critic, target_critic, target_policy, items, batch, r_i, opt):
    s, a_idx, _, s2, done = batch
    a_emb = items[a_idx]
    a2 = _forward(target_policy.spec, target_policy.params, s2)
    q2 = _q_value(target_critic, s2, a2)
    y = td_target(r_i, critic.gamma, q2, done)
    x = np.concatenate([s, a_emb], axis=1)
    q = _forward(critic.spec, critic.params, x)[:, 0]
    err = q - y
    loss = float(np.mean(err * err))
    if not np.isfinite(loss):
        return critic, opt, loss, np.zeros_like(items)
    upstream = (2.0 * err / err.size)[:, None]
    grads = _gradient(critic.spec, critic.params, x, upstream)
    in_grad = _input_gradient(critic.spec, critic.params, x, upstream)
    item_grad = np.zeros_like(items)
    np.add.at(item_grad, a_idx, in_grad[:, s.shape[1]:])
    new_params, opt = ap.optimizer_step(critic.params, grads, opt, "minimize")
    return replace(critic, params=new_params), opt, loss, item_grad


def ref_ddpg_actor_update(policy, critic, batch, opt, lambdas_for_extra=None,
                          extra_critics=()):
    s = batch[0]
    a = _forward(policy.spec, policy.params, s)
    x = np.concatenate([s, a], axis=1)
    ones = np.full((s.shape[0], 1), 1.0 / s.shape[0])
    dq_da = _input_gradient(critic.spec, critic.params, x, ones)[:, s.shape[1]:]
    mean_q = float(np.mean(_forward(critic.spec, critic.params, x)[:, 0]))
    if extra_critics:
        lam = stx.validate_lambdas(lambdas_for_extra, len(extra_critics))
        for lam_i, extra in zip(lam, extra_critics):
            dq_da += lam_i * _input_gradient(extra.spec, extra.params, x, ones)[:, s.shape[1]:]
    grads = _gradient(policy.spec, policy.params, s, dq_da)
    new_params, opt = ap.optimizer_step(policy.params, grads, opt, "maximize")
    return replace(policy, params=new_params), opt, mean_q


def ref_constrained_det_actor_update(policy, aux_policies, critic, lambdas, batch, opt):
    lam = stx.validate_lambdas(lambdas, len(aux_policies))
    total = lam.sum()
    s = batch[0]
    n = s.shape[0]
    a = _forward(policy.spec, policy.params, s)
    aux_actions = [_forward(aux.spec, aux.params, s) for aux in aux_policies]
    log_h = np.zeros(n)
    pull = np.zeros_like(a)
    for lam_i, a_i in zip(lam, aux_actions):
        d = a - a_i
        w_i = lam_i / total
        log_h += w_i * (-0.5 * np.sum(d * d, axis=1))
        pull += w_i * d
    h = np.exp(log_h)

    x = np.concatenate([s, a], axis=1)
    q = _forward(critic.spec, critic.params, x)[:, 0]
    ones = np.full((n, 1), 1.0)
    dq_da = _input_gradient(critic.spec, critic.params, x, ones)[:, s.shape[1]:]
    d_obj_da = (h / total)[:, None] * (dq_da - q[:, None] * pull) / n
    grads = _gradient(policy.spec, policy.params, s, d_obj_da)
    new_params, opt = ap.optimizer_step(policy.params, grads, opt, "maximize")
    info = {"mean_h": float(h.mean()), "mean_q": float(q.mean()),
            "objective": float(np.mean(h * q / total))}
    return replace(policy, params=new_params), opt, info


def ref_critic_loss_grad(critic, s, r_i, s2, done):
    v = _forward(critic.spec, critic.params, s)[:, 0]
    v2 = _forward(critic.spec, critic.params, s2)[:, 0]
    err = v - td_target(r_i, critic.gamma, v2, done)
    loss = float(np.mean(err * err))
    if not np.isfinite(loss):
        return loss, None
    upstream = (2.0 * err / err.size)[:, None]
    return loss, _gradient(critic.spec, critic.params, s, upstream)


def ref_loglik_ascent(policy, s, a_idx, w, opt):
    keep = np.isfinite(w)
    if not np.all(keep):
        s, a_idx, w = s[keep], a_idx[keep], w[keep]
    if a_idx.size == 0:
        return policy, opt, float("nan"), float("nan")
    p = _forward(policy.spec, policy.params, s)
    chosen = p[np.arange(a_idx.size), a_idx]
    upstream = np.zeros_like(p)
    upstream[np.arange(a_idx.size), a_idx] = w / (a_idx.size * chosen)
    grads = _gradient(policy.spec, policy.params, s, upstream)
    new_params, opt = ap.optimizer_step(policy.params, grads, opt, "maximize")
    return (replace(policy, params=new_params), opt,
            float(np.mean(w * np.log(chosen))), float(w.mean()))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def assert_same(a, b):
    """Exact equality of nested results: arrays, dataclasses, dicts, floats."""
    if isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            assert_same(a[k], b[k])
    elif hasattr(a, "__dataclass_fields__"):
        assert type(a) is type(b)
        for k in a.__dataclass_fields__:
            assert_same(getattr(a, k), getattr(b, k))
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    elif isinstance(a, float):
        assert a == b or (np.isnan(a) and np.isnan(b))
    else:
        assert a == b


STATE_DIM, EMBED_DIM, N_ITEMS, M = 5, 3, 7, 3


def det_setup(seed, hidden=(6,), batch_size=24):
    rng = np.random.default_rng(seed)
    policy = det.make_det_policy(STATE_DIM, EMBED_DIM, hidden, seed + 1)
    critics = [stx.make_critic(STATE_DIM + EMBED_DIM, hidden, seed + 10 + j, np.eye(M)[j], 0.9)
               for j in range(M)]
    aux = [det.make_det_policy(STATE_DIM, EMBED_DIM, hidden, seed + 20 + i)
           for i in range(M - 1)]
    items = det.init_item_table(N_ITEMS, EMBED_DIM, seed + 30)
    batch = (rng.normal(size=(batch_size, STATE_DIM)),
             rng.integers(N_ITEMS, size=batch_size).astype(np.intp),
             rng.normal(size=(batch_size, M)),
             rng.normal(size=(batch_size, STATE_DIM)),
             rng.random(batch_size) < 0.2)
    return policy, critics, aux, items, batch


def stoch_setup(seed, hidden=(6,), batch_size=24):
    rng = np.random.default_rng(seed)
    policy = stx.make_policy(STATE_DIM, N_ITEMS, hidden, seed + 1)
    critic = stx.make_critic(STATE_DIM, hidden, seed + 2, np.eye(M)[0], 0.9)
    s = rng.normal(size=(batch_size, STATE_DIM))
    a_idx = rng.integers(N_ITEMS, size=batch_size).astype(np.intp)
    return rng, policy, critic, s, a_idx


# ---------------------------------------------------------------------------
# forward_pullback against forward and the multi-pass gradients
# ---------------------------------------------------------------------------


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(ap.ACTIVATIONS), st.integers(0, 2),
       st.integers(1, 70), st.booleans())
def test_forward_pullback_equals_forward_and_multi_pass_gradients(seed, head, depth,
                                                                  batch, one_d):
    rng = np.random.default_rng(seed)
    hidden = tuple(int(rng.integers(1, 20)) for _ in range(depth))
    spec = ap.ApproxSpec(int(rng.integers(1, 12)), hidden, int(rng.integers(1, 12)), head,
                         seed=seed)
    params = ap.init_params(spec) * rng.uniform(0.5, 3.0)
    x = rng.normal(size=spec.input_dim if one_d else (batch, spec.input_dim)) * 2
    upstream = rng.normal(size=spec.output_dim if one_d else (batch, spec.output_dim))

    out, pullback = ap.forward_pullback(spec, params, x)
    assert_same(out, _forward(spec, params, x))
    assert_same(out, ap.forward(spec, params, x))
    param_grad, none = pullback(upstream)
    assert none is None
    assert_same(param_grad, _gradient(spec, params, x, upstream))
    both = pullback(upstream, wrt="both")
    assert_same(both, (_gradient(spec, params, x, upstream),
                       _input_gradient(spec, params, x, upstream)))
    assert both[1].shape == x.shape
    assert_same(ap.gradient(spec, params, x, upstream), param_grad)
    assert_same(ap.input_gradient(spec, params, x, upstream), both[1])


def test_pullback_checks_upstream():
    spec = ap.ApproxSpec(2, (3,), 2, "tanh", seed=0)
    _, pullback = ap.forward_pullback(spec, ap.init_params(spec), np.ones((4, 2)))
    with pytest.raises(ValueError, match=r"upstream has shape \(4, 1\), expected \(4, 2\)"):
        pullback(np.ones((4, 1)))
    with pytest.raises(ValueError, match="non-finite entries in upstream"):
        pullback(np.full((4, 2), np.inf), wrt="both")
    with pytest.raises(ValueError, match=r"wrt must be one of \['both', 'input', 'params'\], "
                                         r"got True"):
        pullback(np.ones((4, 2)), wrt=True)


# ---------------------------------------------------------------------------
# the rewritten updates against their multi-pass originals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("hidden", [(), (6,), (5, 4)])
def test_q_critic_update_matches_multi_pass(seed, hidden):
    policy, critics, _, items, batch = det_setup(seed, hidden)
    opt = ap.init_opt_state(critics[0].params.size, 3e-3)
    mix = np.array([0.5, 0.3, 0.2])
    for weights, r_i in ((np.eye(M)[0], batch[2][:, 0]), (mix, batch[2] @ mix)):
        critic = replace(critics[0], weights=weights)
        assert_same(det.q_critic_update(critic, critics[1], policy, items, batch, opt),
                    ref_q_critic_update(critic, critics[1], policy, items, batch, r_i, opt))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("hidden", [(), (6,), (5, 4)])
def test_ddpg_actor_update_matches_multi_pass(seed, hidden):
    policy, critics, _, _, batch = det_setup(seed, hidden)
    opt = ap.init_opt_state(policy.params.size, 1e-3)
    assert_same(det.ddpg_actor_update(policy, critics[0], batch, opt),
                ref_ddpg_actor_update(policy, critics[0], batch, opt))
    lam = np.array([0.7, 1.3])
    assert_same(det.ddpg_actor_update(policy, critics[0], batch, opt, lam, critics[1:]),
                ref_ddpg_actor_update(policy, critics[0], batch, opt, lam, critics[1:]))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("hidden", [(), (6,), (5, 4)])
def test_constrained_det_actor_update_matches_multi_pass(seed, hidden):
    policy, critics, aux, _, batch = det_setup(seed, hidden)
    opt = ap.init_opt_state(policy.params.size, 1e-3)
    lam = np.array([0.4, 2.0])
    assert_same(det.constrained_det_actor_update(policy, ap.bank(aux), critics[0], lam, batch,
                                                 opt),
                ref_constrained_det_actor_update(policy, aux, critics[0], lam, batch, opt))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("hidden", [(), (6,), (5, 4)])
def test_critic_loss_grad_matches_multi_pass(seed, hidden):
    rng, _, critic, s, _ = stoch_setup(seed, hidden)
    r, s2, done = rng.normal(size=len(s)), rng.normal(size=s.shape), rng.random(len(s)) < 0.3
    assert_same(stx.critic_loss_grad(critic, s, r, s2, done),
                ref_critic_loss_grad(critic, s, r, s2, done))
    r[3] = np.inf  # a non-finite loss gives no gradient on both paths
    assert_same(stx.critic_loss_grad(critic, s, r, s2, done),
                ref_critic_loss_grad(critic, s, r, s2, done))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("hidden", [(), (6,), (5, 4)])
def test_loglik_ascent_matches_multi_pass(seed, hidden):
    rng, policy, _, s, a_idx = stoch_setup(seed, hidden)
    opt = ap.init_opt_state(policy.params.size, 5e-3)
    w = rng.normal(size=len(s))
    assert_same(stx.loglik_ascent(policy, s, a_idx, w, opt),
                ref_loglik_ascent(policy, s, a_idx, w, opt))
    w[[2, 5]] = [np.nan, -np.inf]
    assert_same(stx.loglik_ascent(policy, s, a_idx, w, opt),
                ref_loglik_ascent(policy, s, a_idx, w, opt))


# ---------------------------------------------------------------------------
# net passes per update
# ---------------------------------------------------------------------------


@pytest.fixture
def passes(monkeypatch):
    """Counts calls of the one forward kernel every net evaluation runs."""
    calls = []
    inner = ap._forward_pass

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(ap, "_forward_pass", counted)

    def count(fn, *args, **kwargs):
        calls.clear()
        fn(*args, **kwargs)
        return len(calls)
    return count


def test_q_critic_update_makes_three_net_passes(passes):
    policy, critics, _, items, batch = det_setup(0)
    opt = ap.init_opt_state(critics[0].params.size)
    assert passes(det.q_critic_update, critics[0], critics[1], policy, items, batch,
                  opt) == 3


@pytest.mark.parametrize("n_extra", [0, 1, 2])
def test_ddpg_actor_update_makes_two_passes_plus_one_per_extra_critic(passes, n_extra):
    policy, critics, _, _, batch = det_setup(0)
    opt = ap.init_opt_state(policy.params.size)
    lam = np.ones(n_extra)
    assert passes(det.ddpg_actor_update, policy, critics[0], batch, opt, lam,
                  critics[1:1 + n_extra]) == 2 + n_extra


@pytest.mark.parametrize("n_aux", [1, 2])
def test_constrained_det_actor_update_makes_three_passes(passes, n_aux):
    # the actor, the critic, and one stacked pass of every auxiliary
    policy, critics, aux, _, batch = det_setup(0)
    opt = ap.init_opt_state(policy.params.size)
    assert passes(det.constrained_det_actor_update, policy, ap.bank(aux[:n_aux]), critics[0],
                  np.ones(n_aux), batch, opt) == 3


def test_critic_loss_grad_makes_two_passes(passes):
    rng, _, critic, s, _ = stoch_setup(0)
    assert passes(stx.critic_loss_grad, critic, s, rng.normal(size=len(s)),
                  rng.normal(size=s.shape), np.zeros(len(s), dtype=bool)) == 2


def test_loglik_ascent_makes_one_pass(passes):
    rng, policy, _, s, a_idx = stoch_setup(0)
    opt = ap.init_opt_state(policy.params.size)
    assert passes(stx.loglik_ascent, policy, s, a_idx, rng.random(len(s)), opt) == 1


@pytest.mark.parametrize("behavior", [False, True])
@pytest.mark.parametrize("n_aux", [2, 7])
def test_actor_update_main_makes_four_passes(passes, behavior, n_aux):
    # V(s) and V(s'), the main policy once (ratio denominator and ascent
    # step), and one stacked pass of every auxiliary
    rng, _, _, s, a_idx = stoch_setup(0)
    pset = stx.build_policy_set(STATE_DIM, N_ITEMS, n_aux + 1, np.ones(n_aux),
                                np.full(n_aux + 1, 0.9), (6,), seed=1)
    batch = (s, a_idx, rng.normal(size=(len(s), n_aux + 1)), rng.normal(size=s.shape),
             np.zeros(len(s), dtype=bool))
    bp = rng.uniform(0.1, 1.0, size=len(s)) if behavior else None
    opt = ap.init_opt_state(pset.main[0].params.size)
    assert passes(stx.actor_update_main, pset, batch, opt, behavior_prob=bp) == 4
