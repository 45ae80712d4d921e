"""Training objectives for the denoiser.

Three components, each reported as a mean over batch items and coordinates:

- squared error against the per-bit disagreement indicator (the regression
  view of score matching),
- an entropy objective on the reparameterized score, minimized at the true
  score,
- binary cross-entropy of the flip indicators.

The squared-error and cross-entropy integrands may be divided per item by the
time weight w_t = (1 - alpha)/2, the average denoiser magnitude, to keep their
scale flat across timesteps; the entropy term is never rescaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forward import alpha, sample_conditional_batch
from .score import _affine_coeffs, clamp_forward_time
from .states import Distribution, EmpiricalSet

CE_CLIP = 1e-12


@dataclass(frozen=True)
class LossSpec:
    """Weights (w1, w2, w3) on the squared-error, entropy, and cross-entropy
    components, plus the 1/w_t scaling switch."""

    w1: float = 1.0
    w2: float = 0.0
    w3: float = 0.0
    w_scaled: bool = False

    def __post_init__(self):
        if not all(0 <= w < math.inf for w in (self.w1, self.w2, self.w3)):
            raise ValueError("loss weights must be finite and nonnegative")
        if self.w1 + self.w2 + self.w3 <= 0:
            raise ValueError("at least one loss weight must be positive")


# the simplex-normalized weight combinations explored in the experiments;
# the entropy-only corner is omitted (it is a regularizer, not a standalone loss)
PRESETS: dict[str, LossSpec] = {
    "l2": LossSpec(1.0, 0.0, 0.0),
    "ce": LossSpec(0.0, 0.0, 1.0),
    "l2+e": LossSpec(0.5, 0.5, 0.0),
    "l2+ce": LossSpec(0.5, 0.0, 0.5),
    "e+ce": LossSpec(0.0, 0.5, 0.5),
    "l2+e+ce": LossSpec(1 / 3, 1 / 3, 1 / 3),
}


def time_weight(t, lam: float, t_f: float):
    """Average denoiser magnitude w_t = (1 - alpha_{t_f - t})/2 in (0, 1/2)."""
    u = clamp_forward_time(t_f - np.asarray(t, dtype=np.float64))
    out = 0.5 * (1.0 - alpha(u, lam))
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class TrainBatch:
    """Paired clean/noised states with their backward times."""

    x0: np.ndarray
    t: np.ndarray
    x_noised: np.ndarray
    lam: float
    t_f: float

    def __post_init__(self):
        if self.x0.shape != self.x_noised.shape or self.x0.shape[0] != self.t.shape[0]:
            raise ValueError("batch arrays must have matching leading dimensions")
        if self.x0.shape[0] == 0:
            raise ValueError("batch must be nonempty")

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    @property
    def d(self) -> int:
        return self.x0.shape[1]

    @property
    def clamped_frac(self) -> float:
        return float(np.mean(self.t_f - self.t < clamp_forward_time(0.0)))

    def flip_indicator(self) -> np.ndarray:
        return (self.x0 != self.x_noised).astype(np.float64)


def make_batch(x0s: np.ndarray, lam: float, t_f: float, rng: np.random.Generator) -> TrainBatch:
    """Draw backward times uniformly on [0, t_f] and noise each clean state to
    its (clamped) forward time."""
    x0s = np.asarray(x0s, dtype=np.int8)
    t = rng.uniform(0.0, t_f, size=x0s.shape[0])
    u = clamp_forward_time(t_f - t)
    x_noised = sample_conditional_batch(x0s, u, lam, rng)
    return TrainBatch(x0=x0s, t=t, x_noised=x_noised, lam=lam, t_f=t_f)


def draw_clean_states(dataset: Distribution | EmpiricalSet, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    if isinstance(dataset, EmpiricalSet):
        idx = rng.integers(0, dataset.n, size=n)
        return dataset.samples[idx]
    return dataset.sample(n, rng).samples


def loss_parts(batch: TrainBatch, preds: np.ndarray, spec: LossSpec):
    """The weighted total, the three component values (``l2``, ``e``, ``ce``)
    and d total / d preds, for float64 predictions of shape (n, d). Every
    component is reported; one with zero weight adds nothing to the gradient."""
    if preds.shape != batch.x0.shape:
        raise ValueError(f"predictions have shape {preds.shape}, expected {batch.x0.shape}")
    n_elems = preds.size
    y = batch.flip_indicator()
    one_minus_y = 1.0 - y
    a_coef, b_coef = (c[:, None] for c in _affine_coeffs(batch.t, batch.lam, batch.t_f))
    # x / 1.0 and x * 1.0 are exact, so the unscaled loss needs no branch
    w = time_weight(batch.t, batch.lam, batch.t_f)[:, None] if spec.w_scaled else 1.0
    inv_w = 1.0 / w

    diff = preds - y
    s = a_coef - b_coef * preds
    one_minus_s = 1.0 - s
    if (one_minus_s <= 0).any():
        raise ValueError("entropy loss needs 1 - s > 0; predictions out of range")
    f_minus_1 = a_coef - b_coef * y - 1.0
    clipped = np.clip(preds, CE_CLIP, 1.0 - CE_CLIP)
    nll = -(y * np.log(clipped) + one_minus_y * np.log1p(-clipped))
    parts = {
        "l2": float((diff ** 2 / w).mean()),
        "e": float((-s + f_minus_1 * np.log(one_minus_s)).mean()),
        "ce": float((nll / w).mean()),
    }
    total = spec.w1 * parts["l2"] + spec.w2 * parts["e"] + spec.w3 * parts["ce"]

    grad = np.zeros_like(preds)
    if spec.w1:
        grad += spec.w1 * 2.0 * diff * inv_w / n_elems
    if spec.w2:
        grad += spec.w2 * b_coef * (1.0 + f_minus_1 / one_minus_s) / n_elems
    if spec.w3:
        inside = (preds > CE_CLIP) & (preds < 1.0 - CE_CLIP)
        d_nll = (-y / clipped + one_minus_y / (1.0 - clipped)) * inside
        grad += spec.w3 * d_nll * inv_w / n_elems
    return total, parts, grad
