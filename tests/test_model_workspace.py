"""The denoiser's workspace forward/backward pass and in-place AdamW against
allocating forms, plus the aliasing and memory guarantees of the reused
training workspace.

``textbook_forward``/``textbook_backward`` are the network as written down:
LayerNorm, its affine, then the dense layer, with exp-based sigmoids. They are
the spec, and the package is held to them in float64 within 1e-12.
``ref_forward``/``ref_backward`` are the package's own arithmetic in
allocating form: the LayerNorm affine folded into the next dense layer, row
means and column sums as BLAS products, the hidden SiLUs from tanh. They
compute in the params' dtype and cast where the model does: the states and
the float64 time angles into that dtype on the way in, the predictions to
float64 for the loss, and d loss / d out back to the params' dtype for the
backward pass. Both dtypes are held to ``==`` against them."""

import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

import flipdiff as fd
from flipdiff.losses import PRESETS, draw_clean_states, loss_parts
from flipdiff.model import _LN_EPS, _frequencies, _training_workspace, _views, loss_and_grad

LAM, T_F = 1.0, 3.0
SMALL = fd.ModelConfig(d=4, blocks=2, width=24, time_embed_dim=12, seed=3)
D8 = fd.ModelConfig(d=8)


# --- the textbook network: the spec ---------------------------------------------

def ref_sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def ref_silu(x):
    return x * ref_sigmoid(x)


def ref_silu_grad(x, sigmoid=ref_sigmoid):
    s = sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


def textbook_forward(params, config, ts, xs):
    p = _views(params, config)
    xs = xs.astype(params.dtype)
    ang = (ts[..., None] * _frequencies(config.time_embed_dim // 2)).astype(params.dtype)
    feats = np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)
    z_t = feats @ p["w_time"].T + p["b_time"]
    emb = ref_silu(z_t)
    h = xs @ p["w_in"].T + p["b_in"]
    cache = {"feats": feats, "z_t": z_t, "emb": emb, "xs": xs, "blocks": []}
    for b in range(config.blocks):
        mean = h.mean(axis=1, keepdims=True)
        var = h.var(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + _LN_EPS)
        xhat = (h - mean) * inv
        normed = xhat * p[f"ln_g{b}"] + p[f"ln_b{b}"]
        z1 = normed @ p[f"w1_{b}"].T + p[f"b1_{b}"] + emb @ p[f"u_{b}"].T
        a1 = ref_silu(z1)
        z2 = a1 @ p[f"w2_{b}"].T + p[f"b2_{b}"]
        cache["blocks"].append({"inv": inv, "xhat": xhat, "normed": normed, "z1": z1, "a1": a1})
        h = h + z2
    logits = h @ p["w_out"].T + p["b_out"]
    out = ref_sigmoid(logits)
    cache["h_final"] = h
    cache["out"] = out
    return out, cache


def textbook_backward(params, config, cache, d_out):
    p = _views(params, config)
    grad = np.zeros_like(params)
    g = _views(grad, config)
    out = cache["out"]
    d_logits = d_out * out * (1.0 - out)
    g["w_out"][...] = d_logits.T @ cache["h_final"]
    g["b_out"][...] = d_logits.sum(axis=0)
    dh = d_logits @ p["w_out"]
    d_emb = np.zeros_like(cache["emb"])
    for b in reversed(range(config.blocks)):
        c = cache["blocks"][b]
        dz2 = dh
        g[f"w2_{b}"][...] = dz2.T @ c["a1"]
        g[f"b2_{b}"][...] = dz2.sum(axis=0)
        da1 = dz2 @ p[f"w2_{b}"]
        dz1 = da1 * ref_silu_grad(c["z1"])
        g[f"w1_{b}"][...] = dz1.T @ c["normed"]
        g[f"b1_{b}"][...] = dz1.sum(axis=0)
        g[f"u_{b}"][...] = dz1.T @ cache["emb"]
        d_emb += dz1 @ p[f"u_{b}"]
        d_normed = dz1 @ p[f"w1_{b}"]
        g[f"ln_g{b}"][...] = (d_normed * c["xhat"]).sum(axis=0)
        g[f"ln_b{b}"][...] = d_normed.sum(axis=0)
        dxhat = d_normed * p[f"ln_g{b}"]
        mean_dxhat = dxhat.mean(axis=1, keepdims=True)
        mean_dxhat_xhat = (dxhat * c["xhat"]).mean(axis=1, keepdims=True)
        dh_ln = c["inv"] * (dxhat - mean_dxhat - c["xhat"] * mean_dxhat_xhat)
        dh = dh + dh_ln
    g["w_in"][...] = dh.T @ cache["xs"]
    g["b_in"][...] = dh.sum(axis=0)
    dz_t = d_emb * ref_silu_grad(cache["z_t"])
    g["w_time"][...] = dz_t.T @ cache["feats"]
    g["b_time"][...] = dz_t.sum(axis=0)
    return grad


# --- references: the package's arithmetic, one fresh array per operation ---------

def ref_hidden_sigmoid(x):
    return np.tanh(x * 0.5) * 0.5 + 0.5


def ref_forward(params, config, ts, xs):
    """``textbook_forward`` with each LayerNorm affine folded into the next
    dense layer, row means and column sums as BLAS products and the hidden
    SiLUs from tanh: the package's arithmetic, one fresh array per operation."""
    p = _views(params, config)
    dtype = params.dtype
    mean_of_h = np.full((config.width, 1), 1.0 / config.width, dtype)
    xs = xs.astype(dtype)
    ang = (ts[..., None] * _frequencies(config.time_embed_dim // 2)).astype(dtype)
    feats = np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)
    z_t = feats @ p["w_time"].T + p["b_time"]
    emb = z_t * ref_hidden_sigmoid(z_t)
    h = xs @ p["w_in"].T + p["b_in"]
    cache = {"feats": feats, "z_t": z_t, "emb": emb, "xs": xs, "blocks": [],
             "mean_of_h": mean_of_h}
    for b in range(config.blocks):
        w1 = p[f"w1_{b}"]
        w_fold = w1 * p[f"ln_g{b}"]
        w_fold = w_fold - w_fold @ mean_of_h
        b_fold = w1 @ p[f"ln_b{b}"] + p[f"b1_{b}"]
        centered = h - h @ mean_of_h
        inv = 1.0 / np.sqrt(np.square(centered) @ mean_of_h + _LN_EPS)
        xhat = centered * inv
        z1 = xhat @ w_fold.T + (emb @ p[f"u_{b}"].T + b_fold)
        a1 = z1 * ref_hidden_sigmoid(z1)
        z2 = a1 @ p[f"w2_{b}"].T + p[f"b2_{b}"]
        cache["blocks"].append({"inv": inv, "xhat": xhat, "w_fold": w_fold, "z1": z1, "a1": a1})
        h = h + z2
    logits = h @ p["w_out"].T + p["b_out"]
    out = ref_sigmoid(logits)
    cache["h_final"] = h
    cache["out"] = out
    return out, cache


def ref_backward(params, config, cache, d_out):
    p = _views(params, config)
    grad = np.zeros_like(params)
    g = _views(grad, config)
    out, mean_of_h = cache["out"], cache["mean_of_h"]
    ones = np.ones(out.shape[0], params.dtype)
    d_logits = d_out * out * (1.0 - out)
    g["w_out"][...] = d_logits.T @ cache["h_final"]
    g["b_out"][...] = ones @ d_logits
    dh = d_logits @ p["w_out"]
    d_emb = np.zeros_like(cache["emb"])
    for b in reversed(range(config.blocks)):
        c = cache["blocks"][b]
        w1 = p[f"w1_{b}"]
        g[f"w2_{b}"][...] = dh.T @ c["a1"]
        g[f"b2_{b}"][...] = ones @ dh
        dz1 = (dh @ p[f"w2_{b}"]) * ref_silu_grad(c["z1"], ref_hidden_sigmoid)
        g_b1 = ones @ dz1
        g[f"b1_{b}"][...] = g_b1
        g[f"u_{b}"][...] = dz1.T @ cache["emb"]
        d_emb += dz1 @ p[f"u_{b}"]
        dxhat = dz1 @ c["w_fold"]
        g_w1 = dz1.T @ c["xhat"]
        g[f"ln_g{b}"][...] = (w1 * g_w1).sum(axis=0)
        g[f"ln_b{b}"][...] = g_b1 @ w1
        g[f"w1_{b}"][...] = g_w1 * p[f"ln_g{b}"] + np.outer(g_b1, p[f"ln_b{b}"])
        mean_dxhat_xhat = (dxhat * c["xhat"]) @ mean_of_h
        dh = dh + (dxhat - c["xhat"] * mean_dxhat_xhat) * c["inv"]
    g["w_in"][...] = dh.T @ cache["xs"]
    g["b_in"][...] = ones @ dh
    dz_t = d_emb * ref_silu_grad(cache["z_t"], ref_hidden_sigmoid)
    g["w_time"][...] = dz_t.T @ cache["feats"]
    g["b_time"][...] = ones @ dz_t
    return grad


def ref_loss_and_grad(params, config, batch, spec):
    out, cache = ref_forward(params, config, batch.t.astype(np.float64),
                             batch.x_noised.astype(np.float64))
    total, parts, d_out = loss_parts(batch, out.astype(np.float64), spec)
    return total, ref_backward(params, config, cache, d_out.astype(params.dtype)), parts


def ref_optimizer_step(params, grad, state, settings):
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    grad = grad.astype(params.dtype)
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    lr = settings.lr_at(state.step)
    state.step += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = state.m / (1.0 - beta1**state.step)
    v_hat = state.v / (1.0 - beta2**state.step)
    return params - lr * (m_hat / (np.sqrt(v_hat) + eps) + settings.weight_decay * params)


# --- bit equality -------------------------------------------------------------

def _params(config, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    return fd.init_params(config) + rng.normal(0, scale, fd.param_count(config))


def _batch(config, n, seed):
    rng = np.random.default_rng(seed)
    return fd.make_batch(fd.sawtooth_params(config.d).sample(n, rng).samples, LAM, T_F, rng)


def _in_both_dtypes(*axes):
    """pytest params for every combination of ``axes`` (lists of (id, value)),
    each in float64 under its plain id and in float32 under ``<id>-float32``."""
    cases = []
    for combo in itertools.product(*axes):
        name, values = "-".join(i for i, _ in combo), [v for _, v in combo]
        cases += [pytest.param(*values, np.float64, id=name),
                  pytest.param(*values, np.float32, id=f"{name}-float32")]
    return cases


@pytest.mark.parametrize("config", [SMALL, D8], ids=["small", "d8"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_network_matches_the_textbook_network_in_float64(config, preset):
    params = _params(config, 1, scale=0.3)
    batch = _batch(config, 64, 9)
    total, grad, _ = loss_and_grad(params, config, batch, PRESETS[preset])
    out, cache = textbook_forward(params, config, batch.t, batch.x_noised.astype(np.float64))
    ref_total, _, d_out = loss_parts(batch, out, PRESETS[preset])
    ref_grad = textbook_backward(params, config, cache, d_out)
    assert abs(total - ref_total) <= 1e-12 * abs(ref_total)
    assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
    xs = np.random.default_rng(9).integers(0, 2, (40, config.d)).astype(float)
    for t in (np.asarray(1.3), np.linspace(0.0, T_F, 40)):
        ref_out = textbook_forward(params, config, t, xs)[0]
        assert np.abs(fd.predict_batch(params, config, t, xs) - ref_out).max() <= 1e-12


@pytest.mark.parametrize("preset,w_scaled,config,dtype", _in_both_dtypes(
    [(k, k) for k in sorted(PRESETS)], [("False", False), ("True", True)],
    [("small", SMALL), ("d8", D8)]))
def test_loss_and_grad_matches_reference(preset, w_scaled, config, dtype):
    spec = dataclasses.replace(PRESETS[preset], w_scaled=w_scaled)
    params = _params(config, 1).astype(dtype)
    for n in (37, 64):
        batch = _batch(config, n, n)
        total, grad, parts = loss_and_grad(params, config, batch, spec)
        ref_total, ref_grad, ref_parts = ref_loss_and_grad(params, config, batch, spec)
        assert total == ref_total and parts == ref_parts
        assert grad.dtype == dtype and grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("n,dtype", _in_both_dtypes([(str(n), n) for n in (10, 205, 256)]))
def test_predict_batch_matches_reference(n, dtype):
    params = _params(D8, 2, scale=0.3).astype(dtype)
    rng = np.random.default_rng(n)
    xs = rng.integers(0, 2, (n, D8.d)).astype(float)
    ts = rng.uniform(0, T_F, n)
    for t in (np.asarray(0.7), ts):
        out = fd.predict_batch(params, D8, t, xs)
        ref = ref_forward(params, D8, t, xs)[0].astype(np.float64)
        assert out.dtype == np.float64 and out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("config", [SMALL, D8], ids=["small", "d8"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_float32_gradient_is_close_to_float64(config, preset):
    params = _params(config, 1)
    batch = _batch(config, 256, 5)
    total, grad, _ = loss_and_grad(params, config, batch, PRESETS[preset])
    total32, grad32, _ = loss_and_grad(params.astype(np.float32), config, batch, PRESETS[preset])
    assert grad32.dtype == np.float32
    assert abs(total32 - total) <= 1e-5 * abs(total)
    assert np.linalg.norm(grad32 - grad) <= 1e-3 * np.linalg.norm(grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_saturates_without_overflow_warning(dtype):
    params = fd.init_params(SMALL).astype(dtype)
    logit = np.finfo(dtype).minexp * np.log(2.0) - 10.0  # exp(-logit) overflows
    _views(params, SMALL)["b_out"][...] = [logit, -100.0, 0.0, 100.0]
    xs = np.eye(SMALL.d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = fd.predict_batch(params, SMALL, 1.0, xs)
    assert (out[:, 0] == 0.0).all() and (out[:, 2] == 0.5).all()
    assert (out[:, 1] < 1e-43).all() and (out[:, 3] == 1.0).all()


def test_optimizer_steps_match_reference():
    # weight_decay == 0 skips the decay term; the reference always adds it
    for weight_decay, grad_dtype in ((0.05, np.float64), (0.0, np.float64), (0.0, np.float32)):
        rng = np.random.default_rng(3)
        params = _params(SMALL, 3)
        settings = fd.TrainSettings(lr=1e-2, weight_decay=weight_decay, decay_every=2,
                                    decay_rate=0.5)
        state, ref_state = fd.OptimizerState(), fd.OptimizerState()
        new, ref = params, params
        for _ in range(5):
            grad = rng.normal(0, 1, params.size).astype(grad_dtype)
            new = fd.optimizer_step(new, grad, state, settings.lr_at(state.step),
                                    settings.weight_decay)
            ref = ref_optimizer_step(ref, grad, ref_state, settings)
            assert new.dtype == np.float64 and new.tobytes() == ref.tobytes()
        assert state.step == ref_state.step == 5
        assert state.m.tobytes() == ref_state.m.tobytes()
        assert state.v.tobytes() == ref_state.v.tobytes()


def test_ema_training_run_matches_reference():
    dist = fd.sawtooth_params(4)
    spec = fd.LossSpec(1, 1, 1, w_scaled=True)
    settings = fd.TrainSettings(steps=25, batch_size=48, lr=3e-3, weight_decay=0.01,
                                decay_every=10, decay_rate=0.8, ema=True, ema_rate=0.9)
    res = fd.train(dist, SMALL, spec, settings, LAM, T_F, np.random.default_rng(4))

    rng = np.random.default_rng(4)
    params = fd.init_params(SMALL).astype(np.float32)
    ema = params.copy()
    state = fd.OptimizerState()
    rows = []
    for step in range(settings.steps):
        batch = fd.make_batch(draw_clean_states(dist, settings.batch_size, rng), LAM, T_F, rng)
        total, grad, parts = ref_loss_and_grad(params, SMALL, batch, spec)
        lr, grad_norm = settings.lr_at(state.step), float(np.linalg.norm(grad))
        params = ref_optimizer_step(params, grad, state, settings)
        ema = settings.ema_rate * ema + (1.0 - settings.ema_rate) * params
        rows.append((step, total, parts["l2"], parts["e"], parts["ce"], batch.clamped_frac, lr,
                     grad_norm))
    assert res.log_rows == rows
    assert res.params.tobytes() == ema.tobytes()
    assert _training_workspace.cache_info().currsize == 0  # released with the run


# --- aliasing and memory --------------------------------------------------------

def test_returned_arrays_never_alias_the_workspace():
    params = _params(SMALL, 5, scale=0.3)
    spec = fd.LossSpec(1, 1, 1)
    xs = np.random.default_rng(5).integers(0, 2, (20, SMALL.d)).astype(float)
    _, grad, _ = loss_and_grad(params, SMALL, _batch(SMALL, 32, 1), spec)
    out = fd.predict_batch(params, SMALL, 0.4, xs)
    held = grad.copy(), out.copy()
    for n, seed in ((32, 2), (17, 3), (32, 4)):
        fd.predict_batch(params, SMALL, np.full(20, 1.1), 1.0 - xs)
        _, later, _ = loss_and_grad(params + 0.01, SMALL, _batch(SMALL, n, seed), spec)
        assert not np.shares_memory(later, grad)
    assert grad.tobytes() == held[0].tobytes()
    assert out.tobytes() == held[1].tobytes()


def test_training_step_peak_memory_is_bounded():
    params = _params(D8, 6, scale=0.05)
    batch = _batch(D8, 512, 7)
    spec = fd.LossSpec(1, 0, 0, w_scaled=True)
    state = fd.OptimizerState()
    for _ in range(2):  # warm up: the workspace and the optimizer moments
        _, grad, _ = loss_and_grad(params, D8, batch, spec)
        params = fd.optimizer_step(params, grad, state, 1e-3)
    tracemalloc.start()
    try:
        _, grad, _ = loss_and_grad(params, D8, batch, spec)
        params = fd.optimizer_step(params, grad, state, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the new gradient and parameters take 1.4 MB; one fresh array per
    # activation and optimizer term would peak near 12 MB
    assert peak < 4e6


def test_training_run_peak_memory_is_bounded():
    dist, spec = fd.sawtooth_params(D8.d), fd.LossSpec(1, 0, 0, w_scaled=True)

    def run(steps):
        fd.train(dist, D8, spec, fd.TrainSettings(steps=steps, batch_size=512), LAM, T_F,
                 np.random.default_rng(8))

    run(1)  # lazy imports and caches outside the run; its workspace goes with it
    tracemalloc.start()
    try:
        run(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # float32 params, moments and step buffers take 0.36 MB each beside the
    # workspace (6.9 MB in all); float64 ones and a float32 copy per step 9.3 MB
    assert peak < 8e6
