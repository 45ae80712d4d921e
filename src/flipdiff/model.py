"""Trainable denoiser network: residual MLP with a time embedding.

The architecture is fixed (sinusoidal time features -> one hidden layer;
an input projection; ``blocks`` pre-norm residual blocks of two linear
layers with SiLU and a per-block time injection; a zero-initialized output
layer under a final sigmoid, so a fresh model predicts exactly 0.5).

Gradients are hand-written reverse mode over this fixed graph — no autodiff
framework; the finite-difference check in the test suite is the safety net.
Each block's LayerNorm affine is folded into the dense layer after it (see
``_forward``), row means and column sums are BLAS products with a constant
vector, and the hidden SiLUs take their sigmoid from one tanh; in float64
this agrees with the textbook network to ~1e-14.
The network computes in the dtype of the parameter vector it is given:
training and ``LearnedScoreSource`` keep float32 parameters, the
finite-difference check passes float64. Predictions leave, and the loss is
computed, in float64; AdamW works in the parameters' dtype. The forward and
backward pass write into one workspace of preallocated arrays;
``loss_and_grad`` keeps its workspace between calls, so training runs one
thread per process.
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
from .losses import loss_parts

_LN_EPS = 1e-6
# geometric ladder of time-feature frequencies; times in this package are O(1..10)
_FREQ_LO, _FREQ_HI = 0.25, 64.0
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
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
    """out = 1 / (1 + exp(-x)); exp overflows to inf for a very negative x
    (below -88 in float32), and 1 / (1 + inf) = 0 is the limit. The output
    head uses this form: a small prediction keeps its relative precision."""
    np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _silu(x, s, out):
    """out = x * s with s = sigmoid(x) = tanh(x / 2) / 2 + 1 / 2, which cannot
    overflow; the backward reads s back."""
    np.multiply(x, 0.5, out=s)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
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


_BLOCK_ARRAYS = ("xhat", "z1", "s1", "a1")


@functools.lru_cache(maxsize=256)
def _workspace_layout(config: ModelConfig, n: int, time_shape: tuple):
    """``_pack`` layout of a workspace's arrays; see ``_Workspace``."""
    d, h, e = config.d, config.width, config.time_embed_dim
    shapes = [("xs", (n, d)), ("ang", time_shape + (e // 2,)), ("emb_u", time_shape + (h,)),
              ("emb_rows", (n, e)), ("row_mean", (n, 1)), ("logits", (n, d)),
              ("d_logits", (n, d)), ("ones", (n,)), ("mean_of_h", (h, 1)), ("fold_mean", (h, 1))]
    shapes += [(k, time_shape + (e,)) for k in ("feats", "z_t", "s_t", "emb", "d_emb")]
    shapes += [(k, (n, h)) for k in ("h", "tmp_a", "tmp_b")]
    for b in range(config.blocks):
        shapes += [(f"inv{b}", (n, 1)), (f"w_fold{b}", (h, h)), (f"b_fold{b}", (h,))]
        shapes += [(f"{k}{b}", (n, h)) for k in _BLOCK_ARRAYS]
    return _pack(shapes)


class _Workspace:
    """Every array one forward and backward pass over ``n`` rows writes.

    ``time_shape`` is ``()`` for one scalar time shared by all rows (forward
    only) or ``(n,)`` for one time per row. ``blocks[b]`` holds block b's
    values that the backward reads: ``inv``, ``xhat``, the LayerNorm affine
    folded into the first dense layer (``w_fold``, ``b_fold``), ``z1``, its
    sigmoid ``s1`` and ``a1``. ``ones`` (n ones) and ``mean_of_h`` (a column
    of 1/width) turn column sums and row means into BLAS products. All
    arrays but ``out`` are views of one buffer, so a freed workspace leaves
    no holes in the heap that stay resident. ``out`` is its own array
    because ``predict_batch`` returns it when the params are float64.
    """

    def __init__(self, config: ModelConfig, n: int, time_shape: tuple, dtype):
        offsets, total = _workspace_layout(config, n, time_shape)
        arrays = _unpack(np.empty(total, dtype), offsets)
        self.__dict__.update(arrays)
        self.ones.fill(1.0)
        self.mean_of_h.fill(1.0 / config.width)
        self.blocks = [SimpleNamespace(**{k: arrays[f"{k}{b}"]
                                          for k in ("inv", "w_fold", "b_fold", *_BLOCK_ARRAYS)})
                       for b in range(config.blocks)]
        self.out = np.empty((n, config.d), dtype)


@functools.lru_cache(maxsize=1)
def _training_workspace(config: ModelConfig, n: int, dtype) -> _Workspace:
    """The workspace ``loss_and_grad`` reuses while (config, batch size, dtype) repeat."""
    return _Workspace(config, n, (n,), dtype)


def _forward(params: np.ndarray, config: ModelConfig, ts, xs, ws: _Workspace) -> np.ndarray:
    """Forward pass into ``ws``; returns ``ws.out``. A scalar ``ts`` runs the
    time path once and broadcasts it. The time angles are computed in float64
    and rounded once to the workspace's dtype.

    Each block's LayerNorm affine is folded into its first dense layer:
    ``w_fold = w1 * ln_g`` with each row's mean taken out, and ``b_fold = b1 +
    w1 @ ln_b``. Every row of ``xhat`` sums to zero, so ``xhat @ w_fold.T +
    b_fold`` is ``(xhat * ln_g + ln_b) @ w1.T + b1`` in exact arithmetic."""
    p = _views(params, config)
    np.copyto(ws.xs, xs)
    half = config.time_embed_dim // 2
    np.multiply(ts[..., None], _frequencies(half), out=ws.ang)
    np.sin(ws.ang, out=ws.feats[..., :half])
    np.cos(ws.ang, out=ws.feats[..., half:])
    np.matmul(ws.feats, p["w_time"].T, out=ws.z_t)
    ws.z_t += p["b_time"]
    _silu(ws.z_t, ws.s_t, ws.emb)
    h, tmp, mean_of_h = ws.h, ws.tmp_a, ws.mean_of_h
    np.matmul(ws.xs, p["w_in"].T, out=h)
    h += p["b_in"]
    for b, c in enumerate(ws.blocks):
        w1 = p[f"w1_{b}"]
        w_fold = np.multiply(w1, p[f"ln_g{b}"], out=c.w_fold)
        w_fold -= np.matmul(w_fold, mean_of_h, out=ws.fold_mean)
        np.matmul(w1, p[f"ln_b{b}"], out=c.b_fold)
        c.b_fold += p[f"b1_{b}"]
        centered = np.subtract(h, np.matmul(h, mean_of_h, out=ws.row_mean), out=c.xhat)
        inv = np.matmul(np.square(centered, out=tmp), mean_of_h, out=c.inv)
        inv += _LN_EPS
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)
        centered *= inv
        np.matmul(c.xhat, w_fold.T, out=c.z1)
        np.matmul(ws.emb, p[f"u_{b}"].T, out=ws.emb_u)
        ws.emb_u += c.b_fold
        c.z1 += ws.emb_u
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
    values ``_forward`` left in ``ws`` (per-row times); returns a new array.
    ``d_out`` is in the params' dtype.

    Through the folded LayerNorm: with ``G = dz1.T @ xhat`` and ``g_b1`` the
    column sums of ``dz1``, ``g_ln_g[j] = sum_i w1[i, j] * G[i, j]``, ``g_ln_b =
    g_b1 @ w1`` and ``g_w1 = G * ln_g + outer(g_b1, ln_b)``. The rows of
    ``w_fold`` sum to zero, so ``dxhat = dz1 @ w_fold`` is row-centred and the
    LayerNorm backward needs only ``rowmean(dxhat * xhat)``. ``w_fold`` is
    scratch once ``dxhat`` is out."""
    p = _views(params, config)
    grad = np.empty_like(params)
    g = _views(grad, config)
    tmp_a, tmp_b, ones, mean_of_h = ws.tmp_a, ws.tmp_b, ws.ones, ws.mean_of_h
    d_logits = np.multiply(d_out, ws.out, out=ws.d_logits)
    d_logits *= np.subtract(1.0, ws.out, out=ws.logits)
    np.matmul(d_logits.T, ws.h, out=g["w_out"])
    np.matmul(ones, d_logits, out=g["b_out"])
    dh = np.matmul(d_logits, p["w_out"], out=ws.h)  # the final h is read for the last time above
    d_emb = ws.d_emb
    d_emb.fill(0.0)
    for b in reversed(range(config.blocks)):
        c = ws.blocks[b]
        # residual: dh flows both into z2 and straight through
        np.matmul(dh.T, c.a1, out=g[f"w2_{b}"])
        np.matmul(ones, dh, out=g[f"b2_{b}"])
        dz1 = np.matmul(dh, p[f"w2_{b}"], out=tmp_a)
        dz1 *= _silu_grad(c.z1, c.s1, tmp_b)
        g_b1 = np.matmul(ones, dz1, out=g[f"b1_{b}"])
        np.matmul(dz1.T, ws.emb, out=g[f"u_{b}"])
        d_emb += np.matmul(dz1, p[f"u_{b}"], out=ws.emb_rows)
        dxhat = np.matmul(dz1, c.w_fold, out=tmp_b)
        w1, g_w1 = p[f"w1_{b}"], g[f"w1_{b}"]
        np.matmul(dz1.T, c.xhat, out=g_w1)
        np.add.reduce(np.multiply(w1, g_w1, out=c.w_fold), axis=0, out=g[f"ln_g{b}"])
        np.matmul(g_b1, w1, out=g[f"ln_b{b}"])
        g_w1 *= p[f"ln_g{b}"]
        g_w1 += np.multiply.outer(g_b1, p[f"ln_b{b}"], out=c.w_fold)
        mean_dxhat_xhat = np.matmul(np.multiply(dxhat, c.xhat, out=tmp_a), mean_of_h,
                                    out=ws.row_mean)
        dxhat -= np.multiply(c.xhat, mean_dxhat_xhat, out=tmp_a)
        dxhat *= c.inv
        dh += dxhat
    np.matmul(dh.T, ws.xs, out=g["w_in"])
    np.matmul(ones, dh, out=g["b_in"])
    dz_t = d_emb
    dz_t *= _silu_grad(ws.z_t, ws.s_t, ws.emb_rows)
    np.matmul(dz_t.T, ws.feats, out=g["w_time"])
    np.matmul(ones, dz_t, out=g["b_time"])
    return grad


def predict_batch(params: np.ndarray, config: ModelConfig, ts, xs) -> np.ndarray:
    """Denoiser predictions in (0,1)^d, as float64, for rows of ``xs`` at backward
    times ``ts``: one time per row, or one scalar time for all rows."""
    if not np.isfinite(params).all():
        raise ModelCorruptError("model parameters contain NaN or infinity")
    ts = np.asarray(ts, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != config.d:
        raise ValueError(f"states must have shape (n, {config.d})")
    if ts.ndim and ts.shape != (xs.shape[0],):
        raise ValueError("need one time per state row, or one scalar time")
    ws = _Workspace(config, xs.shape[0], ts.shape, params.dtype)
    return _forward(params, config, ts, xs, ws).astype(np.float64, copy=False)


def loss_and_grad(params: np.ndarray, config: ModelConfig, batch, loss_spec):
    """Combined training loss and its gradient in parameter space.

    Returns (loss, grad, parts) where parts maps component names to values.
    The loss math lives in :mod:`flipdiff.losses`; this function chains its
    prediction-space gradient through the network. It reuses one workspace
    while ``config`` and the batch size repeat; ``grad`` is a new array.
    """
    if not np.isfinite(params).all():
        raise ModelCorruptError("model parameters contain NaN or infinity")
    ws = _training_workspace(config, batch.x_noised.shape[0], params.dtype)
    out = _forward(params, config, batch.t, batch.x_noised, ws).astype(np.float64, copy=False)
    total, parts, d_out = loss_parts(batch, out, loss_spec)
    if not np.isfinite(total):
        bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
        idx = int(bad[0]) if bad.size else -1
        raise TrainingError(f"non-finite loss (first offending sample index {idx})")
    return total, _backward(params, config, ws, d_out.astype(params.dtype, copy=False)), parts


@dataclass
class OptimizerState:
    """AdamW accumulator state: the steps taken and the two moments."""

    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    # the bias-corrected first moment, rewritten by every step
    _m_hat: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)


def optimizer_step(params: np.ndarray, grad: np.ndarray, state: OptimizerState, lr: float,
                   weight_decay: float = 0.0) -> np.ndarray:
    """One decoupled-weight-decay Adam update at learning rate ``lr``; returns
    the new parameters and updates ``state.m`` and ``state.v`` in place. A
    float32 gradient is upcast to the parameters' dtype first."""
    if grad.shape != params.shape:
        raise ValueError("gradient and parameter shapes differ")
    grad = grad.astype(params.dtype, copy=False)
    if not np.isfinite(grad).all():
        raise TrainingError("non-finite gradient; step rejected")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    for name, moment in (("m", state.m), ("v", state.v)):
        if np.shape(moment) != params.shape:
            raise TrainingError(f"optimizer state {name} has shape {np.shape(moment)}, "
                                f"parameters have shape {params.shape}")
    state.step += 1
    m, v = state.m, state.v
    if state._m_hat is None or state._m_hat.shape != params.shape:
        state._m_hat = np.empty_like(params)
    new, m_hat = np.empty_like(params), state._m_hat
    m *= BETA1
    m += np.multiply(grad, 1.0 - BETA1, out=new)
    v *= BETA2
    v += np.multiply(np.multiply(grad, 1.0 - BETA2, out=new), grad, out=new)
    np.divide(m, 1.0 - BETA1**state.step, out=m_hat)
    v_hat = np.divide(v, 1.0 - BETA2**state.step, out=new)
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
    step = m_hat
    step /= v_hat
    if weight_decay:  # adding params * 0 = ±0 leaves params - lr * step unchanged
        step += np.multiply(params, weight_decay, out=new)
    step *= lr
    np.subtract(params, step, out=new)
    if not np.isfinite(new).all():
        raise TrainingError("optimizer produced non-finite parameters")
    return new


# --- checkpoint I/O ---------------------------------------------------------

_MAGIC = b"FLIPDNZ1"
_VERSION = 1
# magic, version; model d, blocks, width, time_embed_dim, seed; lam, t_f; meta d;
# w1, w2, w3; w_scaled, seed, steps; config hash (NUL-padded ASCII); parameter count.
# The float64 parameters follow.
_HEADER = struct.Struct("<8sI5q2dq3d3q16sq")


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
    header = _HEADER.pack(
        _MAGIC, _VERSION, config.d, config.blocks, config.width, config.time_embed_dim,
        config.seed, meta.lam, meta.t_f, meta.d, meta.w1, meta.w2, meta.w3,
        int(meta.w_scaled), meta.seed, meta.steps, meta.config_hash.encode("ascii"), params.size)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(params, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[np.ndarray, ModelConfig, CheckpointMeta]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CheckpointFormatError("checkpoint truncated before header end")
    (magic, version, d, blocks, width, embed, cfg_seed, lam, t_f, meta_d, w1, w2, w3,
     w_scaled, seed, steps, hash_bytes, n_params) = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise CheckpointFormatError("bad magic bytes; not a denoiser checkpoint")
    if version != _VERSION:
        raise CheckpointVersionError(f"unsupported checkpoint version {version}")
    try:
        config = ModelConfig(d=d, blocks=blocks, width=width, time_embed_dim=embed, seed=cfg_seed)
        config_hash = hash_bytes.rstrip(b"\0").decode("ascii")
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise CheckpointFormatError(f"invalid checkpoint header: {exc}") from exc
    if not (0 < lam < math.inf and 0 < t_f < math.inf):
        raise CheckpointFormatError(f"checkpoint has lam={lam!r} and t_f={t_f!r}; "
                                    "both must be finite and > 0")
    if meta_d != d:
        raise ConfigMismatchError(f"meta d={meta_d} disagrees with stored model d={d}")
    if n_params != param_count(config):
        raise CheckpointFormatError(
            f"parameter count {n_params} does not match the stored architecture")
    body = raw[_HEADER.size:]
    if len(body) != 8 * n_params:  # truncated, or bytes after the parameters
        raise CheckpointFormatError(
            f"parameter block has {len(body)} bytes, expected {8 * n_params}")
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
