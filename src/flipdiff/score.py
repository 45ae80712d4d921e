"""Discrete score and denoiser algebra: the forward-time floor, the regression
target, the affine score/denoiser map, and backward-rate validation.

Backward time t runs from 0 (pure noise) to t_f (data); the corresponding
forward/noise time is u = t_f - t. The score at a state x is the vector

    s^l(x) = 1 - mu_u(flip_l(x)) / mu_u(x),

the discrete analogue of the gradient of log mu, and the denoiser is the
posterior flip probability d^l(x) = P(X_0^l != x^l | X_u = x). The two are
related coordinatewise by the affine map implemented in
``score_from_denoiser``; samplers need only 1 - s^l >= 0.

The exact values for an enumerable data law come from one implementation,
``samplers.ExactScoreSource``; ``exact_score`` and ``exact_denoiser`` are its
single-state forms and live next to it. Backward rates are validated once, in
``_check_rates``: the samplers' batched ``_rate_rows`` and the single-vector
``backward_rates`` below both call it.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidScoreError, SamplerError
# unused here, but perfbench/layers.py wraps score.propagate_mass
from .forward import alpha, propagate_mass  # noqa: F401

# Forward-time floor: the coefficients 4a/(1-a^2) blow up as the forward time
# approaches 0 (a -> 1); clamping keeps losses and reparameterized scores
# finite. Training logs the fraction of clamped items.
T_MIN = 1e-4

RATE_TOL = 1e-9


def _check_rates(rates: np.ndarray, lam: float, t=None) -> np.ndarray:
    """Validate backward rates lam*(1 - s): all finite and none below
    -lam*RATE_TOL; negatives within that tolerance are clamped to 0."""
    if rates.size == 0:
        return rates
    # NaN propagates through both reductions and +-inf reaches one of them
    lo, hi = rates.min(), rates.max()
    finite = np.isfinite(lo) and np.isfinite(hi)
    if finite and lo >= -lam * RATE_TOL:
        return np.maximum(rates, 0.0) if lo < 0 else rates
    where = "" if t is None else f" at t={t!r}"
    if not finite:
        raise SamplerError(f"non-finite backward rate{where}")
    raise InvalidScoreError(f"negative backward rate{where}")


def clamp_forward_time(u):
    """Apply the T_MIN floor to a forward (noise) time."""
    return np.maximum(u, T_MIN)


def _affine_coeffs(t, lam: float, t_f: float):
    """Coefficients (a_coef, b_coef) of s = a_coef - b_coef * d at backward time t."""
    u = clamp_forward_time(t_f - np.asarray(t, dtype=np.float64))
    a = alpha(u, lam)
    return 2.0 * a / (1.0 + a), 4.0 * a / (1.0 - a * a)


def score_target(t, x0_bits, xt_bits, lam: float, t_f: float):
    """Per-bit regression target whose conditional expectation is the score.

    Evaluates to a_coef where the clean and noised bits agree and
    a_coef - b_coef where they differ; elementwise over array inputs.
    """
    a_coef, b_coef = _affine_coeffs(t, lam, t_f)
    differ = np.not_equal(x0_bits, xt_bits)
    out = a_coef - b_coef * differ.astype(np.float64)
    return float(out) if np.ndim(out) == 0 else out


def score_from_denoiser(dvec, t, lam: float, t_f: float):
    """Map denoiser values in [0,1] to score components (1 - s stays >= 0)."""
    a_coef, b_coef = _affine_coeffs(t, lam, t_f)
    return a_coef - b_coef * np.asarray(dvec, dtype=np.float64)


def denoiser_from_score(svec, t, lam: float, t_f: float):
    """Inverse of ``score_from_denoiser``."""
    a_coef, b_coef = _affine_coeffs(t, lam, t_f)
    return (a_coef - np.asarray(svec, dtype=np.float64)) / b_coef


def backward_rates(svec, lam: float) -> tuple[float, np.ndarray | None]:
    """Total backward jump rate and coordinate flip weights for a score vector.

    Weights are None when the total rate vanishes; the caller must not jump.
    """
    rates = _check_rates(lam * (1.0 - np.asarray(svec, dtype=np.float64)), lam)
    total = float(rates.sum())
    if total == 0.0:
        return 0.0, None
    return total, rates / total
