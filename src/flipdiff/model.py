"""Trainable denoiser network: residual MLP with a time embedding.

The architecture is fixed (sinusoidal time features -> one hidden layer;
an input projection; ``blocks`` pre-norm residual blocks of two linear
layers with SiLU and a per-block time injection; a zero-initialized output
layer under a final sigmoid, so a fresh model predicts exactly 0.5).

Gradients are hand-written reverse mode over this fixed graph — no autodiff
framework — in float64 throughout; the finite-difference check in the test
suite is the safety net. The forward and backward pass write into one
workspace of preallocated arrays; ``loss_and_grad`` keeps its workspace
between calls, so training runs one thread per process.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from types import SimpleNamespace

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


def _pack(shapes) -> tuple[dict, int]:
    """Name -> (offset, size, shape) of consecutive blocks of one flat vector,
    and the vector's total size."""
    offsets, pos = {}, 0
    for name, shape in shapes:
        size = math.prod(shape)
        offsets[name] = (pos, size, shape)
        pos += size
    return offsets, pos


def _unpack(vector: np.ndarray, offsets: dict) -> dict[str, np.ndarray]:
    return {name: vector[pos : pos + size].reshape(shape)
            for name, (pos, size, shape) in offsets.items()}


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
    return _pack(shapes)


def param_count(config: ModelConfig) -> int:
    return _layout(config)[1]


def _views(params: np.ndarray, config: ModelConfig) -> dict[str, np.ndarray]:
    offsets, total = _layout(config)
    if params.size != total:
        raise ValueError(f"parameter vector has size {params.size}, expected {total}")
    return _unpack(params, offsets)


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


def _sigmoid(x, out):
    """out = 1 / (1 + exp(-x))."""
    np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _silu(x, s, out):
    """out = x * s with s = sigmoid(x); the backward reads s back."""
    _sigmoid(x, s)
    return np.multiply(x, s, out=out)


def _silu_grad(x, s, out):
    """out = s * (1 + x * (1 - s)), the SiLU derivative from the kept sigmoid."""
    np.subtract(1.0, s, out=out)
    out *= x
    out += 1.0
    out *= s
    return out


@functools.lru_cache(maxsize=None)
def _frequencies(n_freq: int) -> np.ndarray:
    freqs = np.geomspace(_FREQ_LO, _FREQ_HI, n_freq)
    freqs.flags.writeable = False
    return freqs


_BLOCK_ARRAYS = ("xhat", "normed", "z1", "s1", "a1")


@functools.lru_cache(maxsize=256)
def _workspace_layout(config: ModelConfig, n: int, time_shape: tuple):
    """``_pack`` layout of a workspace's arrays; see ``_Workspace``."""
    d, h, e = config.d, config.width, config.time_embed_dim
    shapes = [("xs", (n, d)), ("ang", time_shape + (e // 2,)), ("emb_u", time_shape + (h,)),
              ("emb_rows", (n, e)), ("row_a", (n, 1)), ("row_b", (n, 1)),
              ("logits", (n, d)), ("d_logits", (n, d))]
    shapes += [(k, time_shape + (e,)) for k in ("feats", "z_t", "s_t", "emb", "d_emb")]
    shapes += [(k, (n, h)) for k in ("h", "tmp_a", "tmp_b")]
    for b in range(config.blocks):
        shapes += [(f"inv{b}", (n, 1))] + [(f"{k}{b}", (n, h)) for k in _BLOCK_ARRAYS]
    return _pack(shapes)


class _Workspace:
    """Every array one forward and backward pass over ``n`` rows writes.

    ``time_shape`` is ``()`` for one scalar time shared by all rows (forward
    only) or ``(n,)`` for one time per row. ``blocks[b]`` holds block b's
    values that the backward reads: ``inv``, ``xhat``, ``normed``, ``z1``,
    its sigmoid ``s1`` and ``a1``. All arrays but ``out`` are views of one
    buffer, so a freed workspace leaves no holes in the heap that stay
    resident. ``out`` is its own array because ``predict_batch`` returns it.
    """

    def __init__(self, config: ModelConfig, n: int, time_shape: tuple):
        offsets, total = _workspace_layout(config, n, time_shape)
        arrays = _unpack(np.empty(total), offsets)
        self.__dict__.update(arrays)
        self.blocks = [SimpleNamespace(**{k: arrays[f"{k}{b}"] for k in ("inv", *_BLOCK_ARRAYS)})
                       for b in range(config.blocks)]
        self.out = np.empty((n, config.d))


@functools.lru_cache(maxsize=1)
def _training_workspace(config: ModelConfig, n: int) -> _Workspace:
    """The workspace ``loss_and_grad`` reuses while (config, batch size) repeat."""
    return _Workspace(config, n, (n,))


def _row_mean(x, out):
    """x.mean(axis=1, keepdims=True) into ``out``: the row sum over the count."""
    np.add.reduce(x, axis=1, keepdims=True, out=out)
    out /= x.shape[1]
    return out


def _forward(params: np.ndarray, config: ModelConfig, ts, xs, ws: _Workspace) -> np.ndarray:
    """Forward pass into ``ws``; returns ``ws.out``. A scalar ``ts`` runs the
    time path once and broadcasts it."""
    p = _views(params, config)
    np.copyto(ws.xs, xs)
    half = config.time_embed_dim // 2
    np.multiply(ts[..., None], _frequencies(half), out=ws.ang)
    np.sin(ws.ang, out=ws.feats[..., :half])
    np.cos(ws.ang, out=ws.feats[..., half:])
    np.matmul(ws.feats, p["w_time"].T, out=ws.z_t)
    ws.z_t += p["b_time"]
    _silu(ws.z_t, ws.s_t, ws.emb)
    h, tmp = ws.h, ws.tmp_a
    np.matmul(ws.xs, p["w_in"].T, out=h)
    h += p["b_in"]
    for b, c in enumerate(ws.blocks):
        mean = _row_mean(h, ws.row_a)
        centered = np.subtract(h, mean, out=c.xhat)
        inv = _row_mean(np.square(centered, out=tmp), c.inv)
        inv += _LN_EPS
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)
        centered *= inv
        np.multiply(c.xhat, p[f"ln_g{b}"], out=c.normed)
        c.normed += p[f"ln_b{b}"]
        np.matmul(c.normed, p[f"w1_{b}"].T, out=c.z1)
        c.z1 += p[f"b1_{b}"]
        c.z1 += np.matmul(ws.emb, p[f"u_{b}"].T, out=ws.emb_u)
        _silu(c.z1, c.s1, c.a1)
        np.matmul(c.a1, p[f"w2_{b}"].T, out=tmp)
        tmp += p[f"b2_{b}"]
        h += tmp
    np.matmul(h, p["w_out"].T, out=ws.logits)
    ws.logits += p["b_out"]
    return _sigmoid(ws.logits, ws.out)


def _backward(params: np.ndarray, config: ModelConfig, ws: _Workspace,
              d_out: np.ndarray) -> np.ndarray:
    """Gradient of the loss in parameter space from d loss / d out, using the
    values ``_forward`` left in ``ws`` (per-row times); returns a new array."""
    p = _views(params, config)
    grad = np.empty_like(params)
    g = _views(grad, config)
    tmp_a, tmp_b = ws.tmp_a, ws.tmp_b
    d_logits = np.multiply(d_out, ws.out, out=ws.d_logits)
    d_logits *= np.subtract(1.0, ws.out, out=ws.logits)
    np.matmul(d_logits.T, ws.h, out=g["w_out"])
    np.add.reduce(d_logits, axis=0, out=g["b_out"])
    dh = np.matmul(d_logits, p["w_out"], out=ws.h)  # the final h is read for the last time above
    d_emb = ws.d_emb
    d_emb.fill(0.0)
    for b in reversed(range(config.blocks)):
        c = ws.blocks[b]
        # residual: dh flows both into z2 and straight through
        np.matmul(dh.T, c.a1, out=g[f"w2_{b}"])
        np.add.reduce(dh, axis=0, out=g[f"b2_{b}"])
        dz1 = np.matmul(dh, p[f"w2_{b}"], out=tmp_a)
        dz1 *= _silu_grad(c.z1, c.s1, tmp_b)
        np.matmul(dz1.T, c.normed, out=g[f"w1_{b}"])
        np.add.reduce(dz1, axis=0, out=g[f"b1_{b}"])
        np.matmul(dz1.T, ws.emb, out=g[f"u_{b}"])
        d_emb += np.matmul(dz1, p[f"u_{b}"], out=ws.emb_rows)
        d_normed = np.matmul(dz1, p[f"w1_{b}"], out=tmp_b)
        np.add.reduce(np.multiply(d_normed, c.xhat, out=tmp_a), axis=0, out=g[f"ln_g{b}"])
        np.add.reduce(d_normed, axis=0, out=g[f"ln_b{b}"])
        dxhat = d_normed
        dxhat *= p[f"ln_g{b}"]
        mean_dxhat = _row_mean(dxhat, ws.row_a)
        mean_dxhat_xhat = _row_mean(np.multiply(dxhat, c.xhat, out=tmp_a), ws.row_b)
        dxhat -= mean_dxhat
        dxhat -= np.multiply(c.xhat, mean_dxhat_xhat, out=tmp_a)
        dxhat *= c.inv
        dh += dxhat
    np.matmul(dh.T, ws.xs, out=g["w_in"])
    np.add.reduce(dh, axis=0, out=g["b_in"])
    dz_t = d_emb
    dz_t *= _silu_grad(ws.z_t, ws.s_t, ws.emb_rows)
    np.matmul(dz_t.T, ws.feats, out=g["w_time"])
    np.add.reduce(dz_t, axis=0, out=g["b_time"])
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
    return _forward(params, config, ts, xs, _Workspace(config, xs.shape[0], ts.shape))


def predict(params: np.ndarray, config: ModelConfig, t: float, x) -> np.ndarray:
    """Single-state denoiser prediction."""
    return predict_batch(params, config, np.array([t]), np.asarray(x, dtype=np.float64)[None, :])[0]


def loss_and_grad(params: np.ndarray, config: ModelConfig, batch, loss_spec):
    """Combined training loss and its gradient in parameter space.

    Returns (loss, grad, parts) where parts maps component names to values.
    The loss math lives in :mod:`flipdiff.losses`; this function chains its
    prediction-space gradient through the network. It reuses one workspace
    while ``config`` and the batch size repeat; ``grad`` is a new array.
    """
    from .losses import loss_parts_and_pred_grad

    if not np.isfinite(params).all():
        raise ModelCorruptError("model parameters contain NaN or infinity")
    ws = _training_workspace(config, batch.x_noised.shape[0])
    out = _forward(params, config, batch.t, batch.x_noised, ws)
    total, parts, d_out = loss_parts_and_pred_grad(batch, out, loss_spec)
    if not np.isfinite(total):
        bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
        idx = int(bad[0]) if bad.size else -1
        raise TrainingError(f"non-finite loss (first offending sample index {idx})")
    return total, _backward(params, config, ws, d_out), parts


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
    # the bias-corrected first moment, rewritten by every step
    _m_hat: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def current_lr(self) -> float:
        if self.decay_every <= 0:
            return self.lr
        return self.lr * self.decay_rate ** (self.step // self.decay_every)


def optimizer_step(params: np.ndarray, grad: np.ndarray, state: OptimizerState) -> np.ndarray:
    """One decoupled-weight-decay Adam update; returns the new parameters and
    updates ``state.m`` and ``state.v`` in place."""
    if grad.shape != params.shape:
        raise ValueError("gradient and parameter shapes differ")
    if not np.isfinite(grad).all():
        raise TrainingError("non-finite gradient; step rejected")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    for name, moment in (("m", state.m), ("v", state.v)):
        if np.shape(moment) != params.shape:
            raise TrainingError(f"optimizer state {name} has shape {np.shape(moment)}, "
                                f"parameters have shape {params.shape}")
    lr = state.current_lr()
    state.step += 1
    m, v = state.m, state.v
    if state._m_hat is None or state._m_hat.shape != params.shape:
        state._m_hat = np.empty_like(params)
    new, m_hat = np.empty_like(params), state._m_hat
    m *= state.beta1
    m += np.multiply(grad, 1.0 - state.beta1, out=new)
    v *= state.beta2
    v += np.multiply(np.multiply(grad, 1.0 - state.beta2, out=new), grad, out=new)
    np.divide(m, 1.0 - state.beta1**state.step, out=m_hat)
    v_hat = np.divide(v, 1.0 - state.beta2**state.step, out=new)
    np.sqrt(v_hat, out=v_hat)
    v_hat += state.eps
    step = m_hat
    step /= v_hat
    step += np.multiply(params, state.weight_decay, out=new)
    step *= lr
    np.subtract(params, step, out=new)
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
