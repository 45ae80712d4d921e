"""Trainable denoiser network: residual MLP with a time embedding.

The architecture is fixed (sinusoidal time features -> one hidden layer;
an input projection; ``blocks`` pre-norm residual blocks of two linear
layers with SiLU and a per-block time injection; a zero-initialized output
layer under a final sigmoid, so a fresh model predicts exactly 0.5).

Gradients are hand-written reverse mode over this fixed graph — no autodiff
framework — in float64 throughout; the finite-difference check in the test
suite is the safety net.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigMismatchError,
    ModelCorruptError,
    TrainingError,
)

_LN_EPS = 1e-6
# geometric ladder of time-feature frequencies; times in this package are O(1..10)
_FREQ_LO, _FREQ_HI = 0.25, 64.0


@dataclass(frozen=True)
class ModelConfig:
    d: int
    blocks: int = 2
    width: int = 128
    time_embed_dim: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("d", "blocks", "width", "time_embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.time_embed_dim % 2:
            raise ValueError("time_embed_dim must be even (sin/cos feature pairs)")


@functools.lru_cache(maxsize=None)
def _layout(config: ModelConfig):
    """Name -> (offset, size, shape) of each parameter block, and the total size."""
    d, h, e = config.d, config.width, config.time_embed_dim
    shapes = [("w_time", (e, e)), ("b_time", (e,)), ("w_in", (h, d)), ("b_in", (h,))]
    for b in range(config.blocks):
        shapes += [
            (f"ln_g{b}", (h,)), (f"ln_b{b}", (h,)),
            (f"w1_{b}", (h, h)), (f"b1_{b}", (h,)), (f"u_{b}", (h, e)),
            (f"w2_{b}", (h, h)), (f"b2_{b}", (h,)),
        ]
    shapes += [("w_out", (d, h)), ("b_out", (d,))]
    offsets, pos = {}, 0
    for name, shape in shapes:
        size = int(np.prod(shape))
        offsets[name] = (pos, size, shape)
        pos += size
    return offsets, pos


def param_count(config: ModelConfig) -> int:
    return _layout(config)[1]


def _views(params: np.ndarray, config: ModelConfig) -> dict[str, np.ndarray]:
    offsets, total = _layout(config)
    if params.size != total:
        raise ValueError(f"parameter vector has size {params.size}, expected {total}")
    return {name: params[pos : pos + size].reshape(shape)
            for name, (pos, size, shape) in offsets.items()}


def init_params(config: ModelConfig) -> np.ndarray:
    """Fan-in-scaled random init; output layer zeroed so predictions start at 0.5."""
    rng = np.random.default_rng(config.seed)
    params = np.zeros(param_count(config))
    p = _views(params, config)
    for name, w in p.items():
        if name.startswith(("w_time", "w_in", "w1", "w2", "u_")):
            w[...] = rng.normal(0.0, 1.0 / np.sqrt(w.shape[1]), size=w.shape)
        elif name.startswith("ln_g"):
            w[...] = 1.0
    # w_out, b_out and all other biases stay zero
    return params


def _silu(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s


def _silu_grad(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


@functools.lru_cache(maxsize=None)
def _frequencies(n_freq: int) -> np.ndarray:
    freqs = np.geomspace(_FREQ_LO, _FREQ_HI, n_freq)
    freqs.flags.writeable = False
    return freqs


def _time_features(ts: np.ndarray, e: int) -> np.ndarray:
    """Sin/cos features, one row per time; a scalar time gives one vector."""
    ang = ts[..., None] * _frequencies(e // 2)
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


def _forward(params: np.ndarray, config: ModelConfig, ts: np.ndarray, xs: np.ndarray):
    """Forward pass; a scalar ``ts`` runs the time path once and broadcasts it."""
    p = _views(params, config)
    feats = _time_features(ts, config.time_embed_dim)
    z_t = feats @ p["w_time"].T + p["b_time"]
    emb = _silu(z_t)
    h = xs @ p["w_in"].T + p["b_in"]
    cache = {"feats": feats, "z_t": z_t, "emb": emb, "xs": xs, "blocks": []}
    for b in range(config.blocks):
        mean = h.mean(axis=1, keepdims=True)
        var = h.var(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + _LN_EPS)
        xhat = (h - mean) * inv
        normed = xhat * p[f"ln_g{b}"] + p[f"ln_b{b}"]
        z1 = normed @ p[f"w1_{b}"].T + p[f"b1_{b}"] + emb @ p[f"u_{b}"].T
        a1 = _silu(z1)
        z2 = a1 @ p[f"w2_{b}"].T + p[f"b2_{b}"]
        cache["blocks"].append({"h_in": h, "inv": inv, "xhat": xhat,
                                "normed": normed, "z1": z1, "a1": a1})
        h = h + z2
    logits = h @ p["w_out"].T + p["b_out"]
    out = 1.0 / (1.0 + np.exp(-logits))
    cache["h_final"] = h
    cache["out"] = out
    return out, cache


def _backward(params: np.ndarray, config: ModelConfig, cache: dict, d_out: np.ndarray) -> np.ndarray:
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
        dz2 = dh  # residual: dh flows both into z2 and straight through
        g[f"w2_{b}"][...] = dz2.T @ c["a1"]
        g[f"b2_{b}"][...] = dz2.sum(axis=0)
        da1 = dz2 @ p[f"w2_{b}"]
        dz1 = da1 * _silu_grad(c["z1"])
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
    dz_t = d_emb * _silu_grad(cache["z_t"])
    g["w_time"][...] = dz_t.T @ cache["feats"]
    g["b_time"][...] = dz_t.sum(axis=0)
    return grad


def predict_batch(params: np.ndarray, config: ModelConfig, ts, xs) -> np.ndarray:
    """Denoiser predictions in (0,1)^d for rows of ``xs`` at backward times ``ts``:
    one time per row, or one scalar time for all rows."""
    if not np.isfinite(params).all():
        raise ModelCorruptError("model parameters contain NaN or infinity")
    ts = np.asarray(ts, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != config.d:
        raise ValueError(f"states must have shape (n, {config.d})")
    if ts.ndim and ts.shape != (xs.shape[0],):
        raise ValueError("need one time per state row, or one scalar time")
    out, _ = _forward(params, config, ts, xs)
    return out


def predict(params: np.ndarray, config: ModelConfig, t: float, x) -> np.ndarray:
    """Single-state denoiser prediction."""
    return predict_batch(params, config, np.array([t]), np.asarray(x, dtype=np.float64)[None, :])[0]


class DenoiserNet:
    """Callable (ts, xs) -> predictions, the denoiser-function interface the
    losses consume; also exposed by the exact oracle for comparison tests."""

    def __init__(self, params: np.ndarray, config: ModelConfig):
        self.params = np.asarray(params, dtype=np.float64)
        self.config = config

    def __call__(self, ts, xs) -> np.ndarray:
        return predict_batch(self.params, self.config, ts, xs)


def loss_and_grad(params: np.ndarray, config: ModelConfig, batch, loss_spec):
    """Combined training loss and its gradient in parameter space.

    Returns (loss, grad, parts) where parts maps component names to values.
    The loss math lives in :mod:`flipdiff.losses`; this function chains its
    prediction-space gradient through the network.
    """
    from .losses import loss_parts_and_pred_grad

    if not np.isfinite(params).all():
        raise ModelCorruptError("model parameters contain NaN or infinity")
    ts = batch.t.astype(np.float64)
    xs = batch.x_noised.astype(np.float64)
    out, cache = _forward(params, config, ts, xs)
    total, parts, d_out = loss_parts_and_pred_grad(batch, out, loss_spec)
    if not np.isfinite(total):
        bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
        idx = int(bad[0]) if bad.size else -1
        raise TrainingError(f"non-finite loss (first offending sample index {idx})")
    grad = _backward(params, config, cache, d_out)
    return total, grad, parts


@dataclass
class OptimizerState:
    """AdamW accumulator state with an optional step-wise learning-rate decay."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    decay_every: int = 0      # 0 disables the step decay
    decay_rate: float = 1.0
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def current_lr(self) -> float:
        if self.decay_every <= 0:
            return self.lr
        return self.lr * self.decay_rate ** (self.step // self.decay_every)


def optimizer_step(params: np.ndarray, grad: np.ndarray, state: OptimizerState) -> np.ndarray:
    """One decoupled-weight-decay Adam update; returns the new parameters."""
    if grad.shape != params.shape:
        raise ValueError("gradient and parameter shapes differ")
    if not np.isfinite(grad).all():
        raise TrainingError("non-finite gradient; step rejected")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    lr = state.current_lr()
    state.step += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1**state.step)
    v_hat = state.v / (1.0 - state.beta2**state.step)
    new = params - lr * (m_hat / (np.sqrt(v_hat) + state.eps) + state.weight_decay * params)
    if not np.isfinite(new).all():
        raise TrainingError("optimizer produced non-finite parameters")
    return new


# --- checkpoint I/O ---------------------------------------------------------

_MAGIC = b"FLIPDNZ1"
_VERSION = 1


@dataclass(frozen=True)
class CheckpointMeta:
    """Run facts a sampler must agree with before using the parameters."""

    lam: float
    t_f: float
    d: int
    w1: float
    w2: float
    w3: float
    w_scaled: bool
    seed: int
    steps: int
    config_hash: str = ""


def save_checkpoint(path, params: np.ndarray, config: ModelConfig, meta: CheckpointMeta) -> None:
    if meta.d != config.d:
        raise ConfigMismatchError(f"meta d={meta.d} disagrees with model d={config.d}")
    hash_bytes = meta.config_hash.encode("ascii")[:16].ljust(16, b"\0")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<5q", config.d, config.blocks, config.width,
                             config.time_embed_dim, config.seed))
        fh.write(struct.pack("<2d", meta.lam, meta.t_f))
        fh.write(struct.pack("<q", meta.d))
        fh.write(struct.pack("<3d", meta.w1, meta.w2, meta.w3))
        fh.write(struct.pack("<3q", int(meta.w_scaled), meta.seed, meta.steps))
        fh.write(hash_bytes)
        fh.write(struct.pack("<q", params.size))
        fh.write(np.ascontiguousarray(params, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[np.ndarray, ModelConfig, CheckpointMeta]:
    with open(path, "rb") as fh:
        raw = fh.read()
    header = _MAGIC.__len__() + 4 + 5 * 8 + 2 * 8 + 8 + 3 * 8 + 3 * 8 + 16 + 8
    if len(raw) < header:
        raise CheckpointFormatError("checkpoint truncated before header end")
    if raw[:8] != _MAGIC:
        raise CheckpointFormatError("bad magic bytes; not a denoiser checkpoint")
    (version,) = struct.unpack_from("<I", raw, 8)
    if version != _VERSION:
        raise CheckpointVersionError(f"unsupported checkpoint version {version}")
    pos = 12
    d, blocks, width, embed, cfg_seed = struct.unpack_from("<5q", raw, pos); pos += 40
    lam, t_f = struct.unpack_from("<2d", raw, pos); pos += 16
    (meta_d,) = struct.unpack_from("<q", raw, pos); pos += 8
    w1, w2, w3 = struct.unpack_from("<3d", raw, pos); pos += 24
    w_scaled, seed, steps = struct.unpack_from("<3q", raw, pos); pos += 24
    config_hash = raw[pos : pos + 16].rstrip(b"\0").decode("ascii"); pos += 16
    (n_params,) = struct.unpack_from("<q", raw, pos); pos += 8
    config = ModelConfig(d=d, blocks=blocks, width=width, time_embed_dim=embed, seed=cfg_seed)
    if meta_d != d:
        raise ConfigMismatchError(f"meta d={meta_d} disagrees with stored model d={d}")
    if n_params != param_count(config):
        raise CheckpointFormatError(
            f"parameter count {n_params} does not match the stored architecture")
    body = raw[pos : pos + 8 * n_params]
    if len(body) != 8 * n_params:
        raise CheckpointFormatError("checkpoint truncated inside parameter block")
    params = np.frombuffer(body, dtype="<f8").astype(np.float64)
    meta = CheckpointMeta(lam=lam, t_f=t_f, d=meta_d, w1=w1, w2=w2, w3=w3,
                          w_scaled=bool(w_scaled), seed=seed, steps=steps,
                          config_hash=config_hash)
    return params, config, meta


def check_compatible(meta: CheckpointMeta, *, d: int | None = None,
                     lam: float | None = None, t_f: float | None = None) -> None:
    """Raise ConfigMismatchError when a checkpoint disagrees with run settings."""
    if d is not None and d != meta.d:
        raise ConfigMismatchError(f"checkpoint has d={meta.d}, run wants d={d}")
    if lam is not None and abs(lam - meta.lam) > 1e-12 * max(1.0, abs(lam)):
        raise ConfigMismatchError(f"checkpoint has lam={meta.lam}, run wants lam={lam}")
    if t_f is not None and abs(t_f - meta.t_f) > 1e-12 * max(1.0, abs(t_f)):
        raise ConfigMismatchError(f"checkpoint has t_f={meta.t_f}, run wants t_f={t_f}")
