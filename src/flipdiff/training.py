"""Training loop: resample or iterate batches, noise to a uniform random
backward time, take AdamW steps on the combined loss, and log a CSV row per
step: the loss and its parts, the clamped share of the batch, the learning
rate the step used and the gradient's norm before it."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError
from .losses import LossSpec, draw_clean_states, make_batch
from .model import (
    ModelConfig,
    OptimizerState,
    _training_workspace,
    init_params,
    loss_and_grad,
    optimizer_step,
)
from .states import Distribution, EmpiricalSet

LOG_HEADER = ("step", "loss_total", "loss_l2", "loss_e", "loss_ce", "clamped_frac", "lr",
              "grad_norm")

DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class TrainSettings:
    steps: int = 3000
    batch_size: int = 256
    lr: float = 1e-3
    weight_decay: float = 0.0
    decay_every: int = 0
    decay_rate: float = 1.0
    ema: bool = False
    ema_rate: float = 0.99

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        if not 0 <= self.ema_rate < 1:
            raise ValueError(f"ema_rate must be in [0, 1), got {self.ema_rate!r}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")
        if self.decay_every < 0:
            raise ValueError(f"decay_every must be >= 0, got {self.decay_every!r}")
        if not 0 < self.decay_rate < math.inf:
            raise ValueError(f"decay_rate must be finite and > 0, got {self.decay_rate!r}")

    def lr_at(self, step: int) -> float:
        """``lr`` after ``step`` steps, times ``decay_rate`` per ``decay_every`` steps (if > 0)."""
        if self.decay_every <= 0:
            return self.lr
        return self.lr * self.decay_rate ** (step // self.decay_every)


@dataclass
class TrainResult:
    params: np.ndarray
    opt_state: OptimizerState
    log_rows: list[tuple] = field(repr=False, default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.log_rows[-1][1]


def write_log(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_HEADER)
        writer.writerows(rows)


def train(dataset: Distribution | EmpiricalSet, model_config: ModelConfig,
          spec: LossSpec, settings: TrainSettings, lam: float, t_f: float,
          rng: np.random.Generator, init: np.ndarray | None = None,
          opt_state: OptimizerState | None = None, start_step: int = 0,
          log_path=None) -> TrainResult:
    """Fit the denoiser; deterministic given the rng seed and inputs. The
    params, AdamW moments and EMA are float32, the dtype the network computes
    in: ``init_params(...)`` or ``init`` is cast once, so float64 weights (from
    an older checkpoint) are rounded to float32 here.

    ``init``/``opt_state``/``start_step`` allow resuming so step numbering
    continues across checkpoints.
    """
    params = (init_params(model_config) if init is None else init).astype(np.float32)
    state = opt_state or OptimizerState(step=start_step)
    ema_params = params.copy() if settings.ema else None
    ema_step = np.empty_like(params) if settings.ema else None
    rows: list[tuple] = []
    for step in range(start_step, start_step + settings.steps):
        x0s = draw_clean_states(dataset, settings.batch_size, rng)
        batch = make_batch(x0s, lam, t_f, rng)
        total, grad, parts = loss_and_grad(params, model_config, batch, spec)
        if not np.isfinite(total) or abs(total) > DIVERGENCE_LIMIT:
            raise TrainingError(
                f"training diverged at step {step}: loss={total!r} "
                f"(l2={parts['l2']!r}, e={parts['e']!r}, ce={parts['ce']!r})")
        grad_norm = float(np.linalg.norm(grad))
        lr = settings.lr_at(state.step)
        params = optimizer_step(params, grad, state, lr, settings.weight_decay)
        if ema_params is not None:
            ema_params *= settings.ema_rate
            ema_params += np.multiply(params, 1.0 - settings.ema_rate, out=ema_step)
        rows.append((step, total, parts["l2"], parts["e"], parts["ce"], batch.clamped_frac, lr,
                     grad_norm))
    _training_workspace.cache_clear()  # the run's buffers go with it
    if log_path is not None:
        write_log(log_path, rows)
    final = ema_params if ema_params is not None else params
    return TrainResult(params=final, opt_state=state, log_rows=rows)
