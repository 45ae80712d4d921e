"""Backward (generative) samplers.

All samplers start from the uniform distribution on {0,1}^d and run backward
time from 0 to the schedule horizon, driven by a score source:

- ``sample_exact_continuous``: exponential-clock thinning with the total rate
  integrated by micro-step quadrature (the idealized continuous-time scheme),
- ``sample_exact_percoord``: the equivalent per-coordinate-clock formulation,
- ``sample_discretized``: piecewise-constant score with a carried rate
  accumulator; at most one flip per grid interval,
- ``sample_flip_schedule``: as above but flipping a scheduled number of
  distinct coordinates per crossing, drawn without replacement,
- ``sample_denoise_renoise``: alternating full denoise and partial renoise
  moves using the denoiser head directly.

Each sampler has a ``*_batch`` form vectorized across chains that draws all
randomness from one generator, so output sets are deterministic given
(seed, n). ``sample_discretized`` and ``sample_denoise_renoise`` are that form
at n = 1. The continuous and per-coordinate single-chain forms keep their own
loop: they interpolate the rate after a jump where the batch forms hold it,
and run faster per chain. ``sample_flip_schedule`` runs the shared discretized
clock loop with a sequential without-replacement draw, the reference the batch
form's exponential races are tested against.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import SamplerError
from .forward import alpha, propagate_mass
from .model import ModelConfig, check_compatible, load_checkpoint, predict_batch
from .schedules import FlipSchedule, TimeSchedule
from .score import _check_rates, score_from_denoiser
from .states import Distribution, EmpiricalSet, ProductBernoulli, as_bits, state_indices

MICRO_STEP_SCALE = 1e-3  # micro quadrature step as a fraction of the horizon
_MAX_PASSES = 100_000


class ExactScoreSource:
    """Ground-truth score/denoiser from an enumerable (or product) data law."""

    kind = "exact"

    def __init__(self, dist: Distribution, lam: float, t_f: float):
        self.dist = dist
        self.lam = lam
        self.t_f = t_f
        self.d = dist.d

    def _check(self, X):
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"states must have shape (n, {self.d})")
        return X if X.dtype.kind in "iu" else X.astype(np.int64)

    def _forward_time(self, t):
        u = self.t_f - np.asarray(t, dtype=np.float64)
        if (u < 0).any():
            raise ValueError("backward time exceeds the horizon t_f")
        return u

    def _product_marginal(self, u):
        """alpha(u) as a column and the product marginal's P(bit = 1) per coordinate."""
        a_u = np.asarray(alpha(u, self.lam))[..., None]
        return a_u, 0.5 + (self.dist.probs - 0.5) * a_u

    def _dense_score(self, u, X) -> np.ndarray:
        """Score of a dense law at one forward time: one propagation, then a
        gather of each row's mass and its d single-bit flips."""
        mass = propagate_mass(self.dist.mass, u, self.lam)
        idx = state_indices(X)
        here = mass[idx]
        if (here <= 0.0).any():
            bad = idx[np.argmin(here)]
            raise ValueError(f"state index {bad} has zero mass at forward time {float(u)!r}")
        flipped = mass[idx[:, None] ^ (1 << np.arange(self.d))]
        return 1.0 - flipped / here[:, None]

    # --- scalar time --------------------------------------------------------

    def score_batch(self, t: float, X) -> np.ndarray:
        """Score at one time for every row of ``X``, built from one table per
        call; bit-identical to ``score_rows`` with that time repeated."""
        X = self._check(X)
        u = self._forward_time(t)
        if not isinstance(self.dist, ProductBernoulli):
            return self._dense_score(u, X)
        # entry (c, b) is the score of coordinate c reading bit b, from the
        # same arithmetic as score_rows
        _, q1 = self._product_marginal(u)
        p = np.stack([1.0 - q1, q1], axis=1)
        table = 1.0 - (1.0 - p) / p
        return table.ravel()[np.arange(0, 2 * self.d, 2) + (X == 1)]

    def denoiser_batch(self, t: float, X) -> np.ndarray:
        return self.denoiser_rows(np.full(np.asarray(X).shape[0], t), X)

    # --- per-row times ---------------------------------------------------

    def score_rows(self, ts, X) -> np.ndarray:
        X = self._check(X)
        u = self._forward_time(ts)
        if isinstance(self.dist, ProductBernoulli):
            _, q1 = self._product_marginal(u)
            p_here = np.where(X == 1, q1, 1.0 - q1)
            return 1.0 - (1.0 - p_here) / p_here
        out = np.empty(X.shape, dtype=np.float64)
        for u_val in np.unique(u):
            rows = u == u_val
            out[rows] = self._dense_score(u_val, X[rows])
        return out

    def denoiser_rows(self, ts, X) -> np.ndarray:
        X = self._check(X)
        u = self._forward_time(ts)
        if isinstance(self.dist, ProductBernoulli):
            a_u, q1 = self._product_marginal(u)
            p_here = np.where(X == 1, q1, 1.0 - q1)
            prior_other = np.where(X == 1, 1.0 - self.dist.probs[None, :],
                                   self.dist.probs[None, :])
            return prior_other * (0.5 * (1.0 - a_u)) / p_here
        out = np.empty(X.shape, dtype=np.float64)
        for u_val in np.unique(u):
            rows = u == u_val
            idx = state_indices(X[rows])
            denom = propagate_mass(self.dist.mass, u_val, self.lam)[idx]
            if (denom <= 0.0).any():
                bad = idx[np.argmin(denom)]
                raise ValueError(f"state index {bad} is unreachable at forward time {u_val!r}")
            for coord in range(self.d):
                numer = propagate_mass(self.dist.mass, u_val, self.lam, flip_only_coord=coord)
                out[np.flatnonzero(rows), coord] = numer[idx] / denom
        return out

    def score(self, t: float, x) -> np.ndarray:
        return self.score_batch(t, as_bits(x)[None, :])[0]

    def denoiser(self, t: float, x) -> np.ndarray:
        return self.denoiser_batch(t, as_bits(x)[None, :])[0]

    def as_model(self):
        """Denoiser-function view (ts, xs) -> predictions, for loss evaluation."""
        return self.denoiser_rows


def exact_score(mu0: Distribution, t: float, x, lam: float, t_f: float) -> np.ndarray:
    """Score vector of one state at backward time t from the exact forward marginal."""
    return ExactScoreSource(mu0, lam, t_f).score(t, x)


def exact_denoiser(mu0: Distribution, t: float, x, lam: float, t_f: float) -> np.ndarray:
    """Posterior flip probabilities of one state at backward time t."""
    return ExactScoreSource(mu0, lam, t_f).denoiser(t, x)


class LearnedScoreSource:
    """Score/denoiser backed by trained network parameters."""

    kind = "learned"

    def __init__(self, params: np.ndarray, config: ModelConfig, lam: float, t_f: float):
        self.params = np.asarray(params, dtype=np.float64)
        self.config = config
        self.lam = lam
        self.t_f = t_f
        self.d = config.d

    @classmethod
    def from_checkpoint(cls, path, *, d: int | None = None, lam: float | None = None,
                        t_f: float | None = None) -> "LearnedScoreSource":
        params, config, meta = load_checkpoint(path)
        check_compatible(meta, d=d, lam=lam, t_f=t_f)
        return cls(params, config, lam=meta.lam, t_f=meta.t_f)

    def denoiser_rows(self, ts, X) -> np.ndarray:
        return predict_batch(self.params, self.config, ts, np.asarray(X, dtype=np.float64))

    def score_rows(self, ts, X) -> np.ndarray:
        ts = np.asarray(ts, dtype=np.float64)
        return score_from_denoiser(self.denoiser_rows(ts, X), ts[:, None], self.lam, self.t_f)

    def denoiser_batch(self, t: float, X) -> np.ndarray:
        """Denoiser at one time for every row of ``X``. Rows are keyed by their
        bytes, each distinct row is evaluated once, and the results are
        scattered back in the caller's row order."""
        X = np.ascontiguousarray(X)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"states must have shape (n, {self.d})")
        keys = X.view(np.dtype((np.void, X.itemsize * self.d))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        return predict_batch(self.params, self.config, t, X[first])[inverse]

    def score_batch(self, t: float, X) -> np.ndarray:
        dvec = self.denoiser_batch(t, X)
        return score_from_denoiser(dvec, t, self.lam, self.t_f)

    def score(self, t: float, x) -> np.ndarray:
        return self.score_batch(t, as_bits(x)[None, :])[0]

    def denoiser(self, t: float, x) -> np.ndarray:
        return self.denoiser_batch(t, as_bits(x)[None, :])[0]


class ShiftedScoreSource:
    """Fault-injection wrapper: inflates every backward rate by a constant,
    i.e. replaces 1 - s with (1 - s) + rate_bump."""

    def __init__(self, inner, rate_bump: float):
        self.inner = inner
        self.rate_bump = rate_bump

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def score_batch(self, t, X):
        return self.inner.score_batch(t, X) - self.rate_bump

    def score_rows(self, ts, X):
        return self.inner.score_rows(ts, X) - self.rate_bump

    def score(self, t, x):
        return self.inner.score(t, x) - self.rate_bump


class RecordingScoreSource:
    """Wrapper that records every time the score/denoiser is queried at."""

    def __init__(self, inner):
        self.inner = inner
        self.times: list[float] = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _log(self, t):
        arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
        self.times.extend(float(v) for v in np.unique(arr))

    def score_batch(self, t, X):
        self._log(t)
        return self.inner.score_batch(t, X)

    def denoiser_batch(self, t, X):
        self._log(t)
        return self.inner.denoiser_batch(t, X)

    def score(self, t, x):
        self._log(t)
        return self.inner.score(t, x)

    def denoiser(self, t, x):
        self._log(t)
        return self.inner.denoiser(t, x)


def _rate_rows(src, t: float, X, lam: float) -> np.ndarray:
    """Backward flip rates lam*(1 - s) for a batch, validated by ``_check_rates``."""
    return _check_rates(lam * (1.0 - src.score_batch(t, X)), lam, t)


def _row_totals(rates: np.ndarray) -> np.ndarray:
    """Row sums of an (n, d) rate array, adding the columns left to right.

    numpy reduces a short last axis one row at a time, which costs far more
    than d column adds. For d < 8 numpy also adds left to right, so the sums
    are the same bits; from d = 8 on it adds in pairwise blocks of 8, and a
    total can differ from ``rates.sum(1)`` in the last bits.
    """
    total = rates[:, 0].copy()
    for col in range(1, rates.shape[1]):
        total += rates[:, col]
    return total


def _categorical_rows(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One category per row, proportional to nonnegative row weights."""
    cum = np.cumsum(weights, axis=1)
    if (cum[:, -1] <= 0).any():
        raise SamplerError("cannot draw a flip coordinate: all rates vanished")
    u = rng.random(weights.shape[0]) * cum[:, -1]
    return (u[:, None] < cum).argmax(axis=1)


def weighted_without_replacement(weights, m: int, rng: np.random.Generator) -> np.ndarray:
    """Sequential weighted sampling without replacement: draw, remove, renormalize."""
    w = np.array(weights, dtype=np.float64)
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    m_eff = min(m, int((w > 0).sum()))
    chosen = np.empty(m_eff, dtype=np.int64)
    for i in range(m_eff):
        cum = np.cumsum(w)
        j = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        j = min(j, w.size - 1)
        chosen[i] = j
        w[j] = 0.0
    return chosen


def _uniform_start(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=(n, d), dtype=np.int8)


# --- continuous-time thinning -------------------------------------------


def sample_exact_continuous(src, rng: np.random.Generator, lam: float | None = None,
                            micro_step: float | None = None,
                            t_end: float | None = None) -> np.ndarray:
    """One chain of the idealized continuous-time scheme.

    The time-varying total rate is integrated with fixed micro steps
    (trapezoid); the clock-crossing time is linearly interpolated inside the
    final micro step, the flip coordinate drawn from the rates there.
    """
    lam = src.lam if lam is None else lam
    t_end = src.t_f if t_end is None else t_end
    h = micro_step or MICRO_STEP_SCALE * src.t_f
    x = _uniform_start(1, src.d, rng)
    t = 0.0
    acc = 0.0
    threshold = rng.exponential()
    r_prev = _rate_rows(src, t, x, lam)[0]
    while t < t_end * (1.0 - 1e-15):
        b = min(t + h, t_end)
        r_next = _rate_rows(src, b, x, lam)[0]
        inc = 0.5 * (r_prev.sum() + r_next.sum()) * (b - t)
        if acc + inc >= threshold and inc > 0:
            frac = (threshold - acc) / inc
            t_star = t + frac * (b - t)
            w = (1.0 - frac) * r_prev + frac * r_next
            coord = int(_categorical_rows(w[None, :], rng)[0])
            x[0, coord] ^= 1
            t = t_star
            acc = 0.0
            threshold = rng.exponential()
            r_prev = _rate_rows(src, t, x, lam)[0]
        else:
            acc += inc
            t = b
            r_prev = r_next
    return x[0]


def sample_continuous_batch(src, n: int, rng: np.random.Generator,
                            lam: float | None = None, micro_step: float | None = None,
                            t_end: float | None = None, return_jump_counts: bool = False):
    """Vectorized continuous-time thinning across n chains."""
    lam = src.lam if lam is None else lam
    t_end = src.t_f if t_end is None else t_end
    h = micro_step or MICRO_STEP_SCALE * src.t_f
    d = src.d
    X = _uniform_start(n, d, rng)
    jumps = np.zeros(n, dtype=np.int64)
    acc = np.zeros(n)
    thresh = rng.exponential(size=n)
    t = 0.0
    seg_hi = _rate_rows(src, t, X, lam)
    tot_hi = _row_totals(seg_hi)
    while t < t_end * (1.0 - 1e-15):
        b = min(t + h, t_end)
        # the crossing loop leaves seg_hi (and its row totals tot_hi) equal to
        # the rates at (b, X), so the last step's end is this step's start
        seg_lo, seg_hi = seg_hi, _rate_rows(src, b, X, lam)
        tot_lo, tot_hi = tot_hi, _row_totals(seg_hi)
        seg_start = np.full(n, t)
        inc = 0.5 * (tot_lo + tot_hi) * (b - t)
        idx = np.flatnonzero((acc + inc >= thresh) & (inc > 0))
        for _ in range(_MAX_PASSES):
            if idx.size == 0:
                break
            frac = (thresh[idx] - acc[idx]) / inc[idx]
            t_star = seg_start[idx] + frac * (b - seg_start[idx])
            w = (1.0 - frac[:, None]) * seg_lo[idx] + frac[:, None] * seg_hi[idx]
            coords = _categorical_rows(w, rng)
            X[idx, coords] ^= 1
            jumps[idx] += 1
            acc[idx] = 0.0
            thresh[idx] = rng.exponential(size=idx.size)
            # remainder of the micro step with the flipped state; the rate is
            # held at its end-of-step value (O(h) bias, h is tiny)
            r_new = _rate_rows(src, b, X[idx], lam)
            tot_new = _row_totals(r_new)
            seg_lo[idx] = r_new
            seg_hi[idx] = r_new
            tot_hi[idx] = tot_new
            seg_start[idx] = t_star
            inc[idx] = tot_new * (b - t_star)
            # only the rows that just jumped changed, so only they can cross again
            idx = idx[(acc[idx] + inc[idx] >= thresh[idx]) & (inc[idx] > 0)]
        else:
            raise SamplerError(f"crossing resolution did not settle at t={t!r}")
        acc += inc
        t = b
    if return_jump_counts:
        return X, jumps
    return X


# --- per-coordinate clocks ------------------------------------------------


def sample_exact_percoord(src, rng: np.random.Generator, lam: float | None = None,
                          micro_step: float | None = None,
                          t_end: float | None = None) -> np.ndarray:
    """One chain with d independent exponential clocks; the earliest crossing
    flips its coordinate and all clocks restart."""
    lam = src.lam if lam is None else lam
    t_end = src.t_f if t_end is None else t_end
    h = micro_step or MICRO_STEP_SCALE * src.t_f
    d = src.d
    x = _uniform_start(1, d, rng)
    t = 0.0
    while t < t_end * (1.0 - 1e-15):
        thresh = rng.exponential(size=d)
        acc = np.zeros(d)
        tt = t
        r_prev = _rate_rows(src, tt, x, lam)[0]
        jumped = False
        while tt < t_end * (1.0 - 1e-15):
            b = min(tt + h, t_end)
            r_next = _rate_rows(src, b, x, lam)[0]
            inc = 0.5 * (r_prev + r_next) * (b - tt)
            crossing = (acc + inc >= thresh) & (inc > 0)
            if crossing.any():
                with np.errstate(divide="ignore", invalid="ignore"):
                    frac = np.where(crossing, (thresh - acc) / inc, np.inf)
                t_cross = tt + frac * (b - tt)
                coord = int(np.argmin(t_cross))
                x[0, coord] ^= 1
                t = float(t_cross[coord])
                jumped = True
                break
            acc += inc
            tt = b
            r_prev = r_next
        if not jumped:
            break
    return x[0]


def sample_percoord_batch(src, n: int, rng: np.random.Generator,
                          lam: float | None = None, micro_step: float | None = None,
                          t_end: float | None = None) -> np.ndarray:
    """Vectorized per-coordinate-clock sampler across n chains."""
    lam = src.lam if lam is None else lam
    t_end = src.t_f if t_end is None else t_end
    h = micro_step or MICRO_STEP_SCALE * src.t_f
    d = src.d
    X = _uniform_start(n, d, rng)
    acc = np.zeros((n, d))
    thresh = rng.exponential(size=(n, d))
    t = 0.0
    seg_hi = _rate_rows(src, t, X, lam)
    while t < t_end * (1.0 - 1e-15):
        b = min(t + h, t_end)
        # end-of-step rates carry over, as in sample_continuous_batch
        seg_lo, seg_hi = seg_hi, _rate_rows(src, b, X, lam)
        seg_start = np.full(n, t)
        inc = 0.5 * (seg_lo + seg_hi) * (b - t)
        crossing = (acc + inc >= thresh) & (inc > 0)
        idx = np.unique(np.flatnonzero(crossing) // d)
        for _ in range(_MAX_PASSES):
            if idx.size == 0:
                break
            with np.errstate(divide="ignore", invalid="ignore"):
                frac = np.where(crossing[idx], (thresh[idx] - acc[idx]) / inc[idx], np.inf)
            t_cross = seg_start[idx, None] + frac * (b - seg_start[idx, None])
            coords = np.argmin(t_cross, axis=1)
            t_star = t_cross[np.arange(idx.size), coords]
            X[idx, coords] ^= 1
            # all d clocks restart after a jump
            thresh[idx] = rng.exponential(size=(idx.size, d))
            acc[idx] = 0.0
            r_new = _rate_rows(src, b, X[idx], lam)
            seg_lo[idx] = r_new
            seg_hi[idx] = r_new
            seg_start[idx] = t_star
            inc[idx] = r_new * (b - t_star)[:, None]
            # only the rows that just jumped changed, so only they can cross again
            crossing[idx] = (acc[idx] + inc[idx] >= thresh[idx]) & (inc[idx] > 0)
            idx = idx[crossing[idx].any(axis=1)]
        else:
            raise SamplerError(f"crossing resolution did not settle at t={t!r}")
        acc += inc
        t = b
    return X


# --- discretized samplers ---------------------------------------------------


def _clock_loop(src, schedule: TimeSchedule, lam: float, n: int, rng: np.random.Generator,
                choose, record_grid: bool = False):
    """Piecewise-constant-score chains with carried rate accumulators; on crossings
    in interval k, ``choose(rates, k, rng)`` names the (row, column) pairs to flip.
    Returns the final states and, if ``record_grid``, the states at each grid time."""
    X = _uniform_start(n, src.d, rng)
    accum = np.zeros(n)
    thresh = rng.exponential(size=n)
    grid = schedule.grid
    recorded = []
    for k in range(schedule.n_steps):
        if record_grid:
            recorded.append(X.copy())
        rates = _rate_rows(src, grid[k], X, lam)
        total = _row_totals(rates)
        accum += total * (grid[k + 1] - grid[k])
        crossed = (accum > thresh) & (total > 0)
        if crossed.any():
            idx = np.flatnonzero(crossed)
            rows, cols = choose(rates[idx], k, rng)
            X[idx[rows], cols] ^= 1
            accum[idx] = 0.0
            thresh[idx] = rng.exponential(size=idx.size)
    return X, recorded


def sample_discretized(src, schedule: TimeSchedule, lam: float,
                       rng: np.random.Generator) -> np.ndarray:
    """One chain of ``sample_discretized_batch``, drawing the same randomness."""
    return sample_discretized_batch(src, schedule, lam, 1, rng)[0]


def sample_discretized_batch(src, schedule: TimeSchedule, lam: float, n: int,
                             rng: np.random.Generator,
                             record_grid: bool = False):
    """Vectorized piecewise-constant sampler, one rate-weighted flip per crossing;
    optionally also returns the states at every grid time (for score-error estimation)."""
    def one_coordinate(w, k, rng):
        return np.arange(w.shape[0]), _categorical_rows(w, rng)

    X, recorded = _clock_loop(src, schedule, lam, n, rng, one_coordinate, record_grid)
    return (X, recorded) if record_grid else X


def sample_flip_schedule(src, schedule: TimeSchedule, flips: FlipSchedule, lam: float,
                         rng: np.random.Generator) -> np.ndarray:
    """One chain of the flip-schedule sampler: a crossing in interval k flips
    counts[k] distinct coordinates, drawn by ``weighted_without_replacement``."""
    def sequential(w, k, rng):
        chosen = weighted_without_replacement(w[0], min(int(flips.counts[k]), src.d), rng)
        return np.zeros_like(chosen), chosen

    return _clock_loop(src, schedule, lam, 1, rng, sequential)[0][0]


def sample_flip_schedule_batch(src, schedule: TimeSchedule, flips: FlipSchedule,
                               lam: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized flip-schedule sampler; the without-replacement draw uses
    exponential races, equal in law to sequential draw-remove-renormalize."""
    def races(w, k, rng):
        m = min(int(flips.counts[k]), w.shape[1])
        with np.errstate(divide="ignore"):
            keys = rng.exponential(size=w.shape) / w
        ranks = np.argsort(np.argsort(keys, axis=1), axis=1)
        m_eff = np.minimum(m, (w > 0).sum(1))
        return np.nonzero((ranks < m_eff[:, None]) & (w > 0))

    return _clock_loop(src, schedule, lam, n, rng, races)[0]


# --- denoise-renoise ---------------------------------------------------------


def sample_denoise_renoise(src, schedule: TimeSchedule, lam: float,
                           rng: np.random.Generator) -> np.ndarray:
    """One chain: at each grid time, flip every bit independently with its
    denoiser probability (full denoise), then renoise with the forward kernel
    to the next grid time; the final denoise output is returned."""
    return sample_denoise_renoise_batch(src, schedule, lam, 1, rng)[0]


def sample_denoise_renoise_batch(src, schedule: TimeSchedule, lam: float, n: int,
                                 rng: np.random.Generator) -> np.ndarray:
    d = src.d
    X = _uniform_start(n, d, rng)
    grid = schedule.grid
    denoised = X
    for k in range(schedule.n_steps):
        probs = src.denoiser_batch(grid[k], X)
        if not np.isfinite(probs).all():
            raise SamplerError(f"non-finite denoiser output at t={grid[k]!r}")
        denoised = X ^ (rng.random((n, d)) < probs).astype(np.int8)
        if k < schedule.n_steps - 1:
            u_next = src.t_f - grid[k + 1]
            p_flip = 0.5 * (1.0 - alpha(u_next, lam))
            X = denoised ^ (rng.random((n, d)) < p_flip).astype(np.int8)
    return denoised


# --- dispatch and dump I/O ----------------------------------------------------

SAMPLER_KINDS = ("continuous", "percoord", "discrete", "flip", "denoise")


def generate(kind: str, src, n: int, rng: np.random.Generator,
             schedule: TimeSchedule | None = None, flips: FlipSchedule | None = None,
             lam: float | None = None) -> np.ndarray:
    """Run n chains of the requested sampler and return their final states."""
    lam = src.lam if lam is None else lam
    if kind == "continuous":
        return sample_continuous_batch(src, n, rng, lam=lam)
    if kind == "percoord":
        return sample_percoord_batch(src, n, rng, lam=lam)
    if schedule is None:
        raise ValueError(f"sampler kind {kind!r} needs a time schedule")
    if kind == "discrete":
        return sample_discretized_batch(src, schedule, lam, n, rng)
    if kind == "flip":
        if flips is None:
            raise ValueError("flip sampler needs a flip schedule")
        return sample_flip_schedule_batch(src, schedule, flips, lam, n, rng)
    if kind == "denoise":
        return sample_denoise_renoise_batch(src, schedule, lam, n, rng)
    raise ValueError(f"unknown sampler kind {kind!r}; expected one of {SAMPLER_KINDS}")


def write_samples(path, states: np.ndarray, sidecar: dict) -> None:
    """Dump states as 0/1 lines plus a JSON sidecar next to the file."""
    path = Path(path)
    states = np.asarray(states, dtype=np.int8)
    with open(path, "w") as fh:
        for row in states:
            fh.write("".join("1" if b else "0" for b in row) + "\n")
    with open(path.with_suffix(".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_samples(path) -> EmpiricalSet:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([int(c) for c in line])
    if not rows:
        raise ValueError(f"sample file {path} is empty")
    return EmpiricalSet(np.asarray(rows, dtype=np.int8))


def read_sidecar(path) -> dict:
    with open(Path(path).with_suffix(".json")) as fh:
        return json.load(fh)
