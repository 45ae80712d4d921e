"""Backward (generative) samplers.

All samplers start from the uniform distribution on {0,1}^d and run backward
time from 0 to the schedule horizon, driven by a score source:

- ``sample_continuous_batch`` and ``sample_percoord_batch``: exact thinning
  in one loop (``_thinning_loop``) on Poisson clocks in forward time u,
  one clock on the envelope d*R(u), R = lam*coth(lam*u), proposing a
  uniform coordinate, or one clock on R(u) per coordinate; each proposal
  time comes from inverting the envelope's integral in closed form, and
  each chain takes its earliest pending proposal, accepted with probability
  rate/R (``_thinning_flips``); those whose acceptance uniform falls below
  lam*tanh(lam*u)/R, which every valid rate reaches, flip unscored,
- ``sample_discretized_batch``: piecewise-constant score with a carried rate
  accumulator; at most one flip per grid interval,
- ``sample_flip_schedule_batch``: as above but flipping a scheduled number
  of distinct coordinates per crossing, drawn without replacement,
- ``sample_denoise_renoise_batch``: alternating full denoise and partial
  renoise moves using the denoiser head directly.

Every sampler runs n chains at once and draws all randomness from one
generator, so output sets are deterministic given (seed, n); one chain is
n = 1. The continuous-time samplers score proposals at per-chain times
(``score_rows``); the others query one time per call (``score_batch``). The
discretized and flip-schedule samplers share one clock loop on the score
held per grid interval, which updates its per-step arrays in place.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import SampleFormatError, SamplerError
# unused here, but perfbench/layers.py wraps samplers.propagate_mass
from .forward import alpha, propagate_mass  # noqa: F401
from .model import ModelConfig, check_compatible, load_checkpoint, predict_batch
from .schedules import FlipSchedule, TimeSchedule
from .score import RATE_TOL, T_MIN, backward_rates, score_from_denoiser
from .states import Distribution, EmpiricalSet, distinct_rows


class ExactScoreSource:
    """Ground-truth score/denoiser from a data law that carries its own
    forward masses (``states``): the law's ``score``, and other/here of its
    ``mass_terms`` for the denoiser, at forward time u = t_f - t."""

    kind = "exact"

    def __init__(self, dist: Distribution, lam: float, t_f: float):
        self.dist, self.lam, self.t_f, self.d = dist, lam, t_f, dist.d

    def _inputs(self, t, X):
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"states must have shape (n, {self.d})")
        u = self.t_f - np.asarray(t, dtype=np.float64)
        if (u < 0).any():
            raise ValueError("backward time exceeds the horizon t_f")
        return u, (X if X.dtype.kind in "iu" else X.astype(np.int64))

    def score_rows(self, ts, X) -> np.ndarray:
        """Score at one backward time per row of ``X``, or at one for all rows
        (``score_batch``), bit for bit that time repeated; the denoiser alike."""
        return self.dist.score(*self._inputs(ts, X), self.lam)

    def denoiser_rows(self, ts, X) -> np.ndarray:
        here, moved = self.dist.mass_terms(*self._inputs(ts, X), self.lam, moved=True)
        return moved / here

    score_batch, denoiser_batch = score_rows, denoiser_rows


class LearnedScoreSource:
    """Score/denoiser backed by trained network parameters, kept as the float32
    copy the network computes in; scores and denoisers come back as float64."""

    kind = "learned"

    def __init__(self, params: np.ndarray, config: ModelConfig, lam: float, t_f: float):
        self.params = np.asarray(params, dtype=np.float32)
        self.config, self.lam, self.t_f, self.d = config, lam, t_f, config.d

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
        """Denoiser at one time for every 0/1 row of ``X``. Each distinct row
        (``distinct_rows``) is evaluated once, and the results are scattered
        back in the caller's row order."""
        X = np.asarray(X)
        first, inverse, _ = distinct_rows(X)
        return np.take(predict_batch(self.params, self.config, t, X[first]), inverse, axis=0)

    def score_batch(self, t: float, X) -> np.ndarray:
        return score_from_denoiser(self.denoiser_batch(t, X), t, self.lam, self.t_f)


class ShiftedScoreSource:
    """Fault-injection wrapper: inflates every backward rate by a constant,
    i.e. replaces 1 - s with (1 - s) + rate_bump."""

    def __init__(self, inner, rate_bump: float):
        self.inner = inner
        self.rate_bump = rate_bump
        self.d, self.lam, self.t_f = inner.d, inner.lam, inner.t_f

    def score_batch(self, t, X):
        return self.inner.score_batch(t, X) - self.rate_bump

    def score_rows(self, ts, X):
        return self.inner.score_rows(ts, X) - self.rate_bump


def _row_totals(rates: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row sums of an (n, d) rate array, adding the columns left to right,
    into ``out`` if given.

    numpy reduces a short last axis one row at a time, which costs far more
    than d column adds. For d < 8 numpy also adds left to right, so the sums
    are the same bits; from d = 8 on it adds in pairwise blocks of 8, and a
    total can differ from ``rates.sum(1)`` in the last bits.
    """
    total = np.empty(rates.shape[0], rates.dtype) if out is None else out
    np.copyto(total, rates[:, 0])
    for col in range(1, rates.shape[1]):
        total += rates[:, col]
    return total


def _categorical_rows(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One category per row, proportional to nonnegative weights with a positive sum."""
    cum = np.cumsum(weights, axis=1)
    u = rng.random(weights.shape[0]) * cum[:, -1]
    return (u[:, None] < cum).argmax(axis=1)


def _uniform_start(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=(n, d), dtype=np.int8)


# --- continuous time -----------------------------------------------------------


def _log_sinh(z):
    """ln sinh(z) for z > 0, finite where sinh itself overflows (z > 710)."""
    return z + np.log(-np.expm1(-2.0 * z)) - np.log(2.0)


def _next_proposal(u, e, d: int, lam: float, lam_s: float) -> np.ndarray:
    """Forward time of each chain's next proposal on the envelope d*R(v),
    R(v) = lam*coth(lam_s*max(v, T_MIN)), from forward times ``u`` and Exp(1)
    draws ``e``. Above T_MIN the envelope integrates to
    (d*lam/lam_s)*ln sinh(lam_s*v), so the proposal solves ln sinh(lam_s*v) =
    y = ln sinh(lam_s*u) - e*lam_s/(d*lam), v = asinh(exp(y))/lam_s; below
    T_MIN the rest of the draw is spent at the constant rate d*R(T_MIN). A
    time <= 0 means the chain reaches the horizon first."""
    z_min = lam_s * T_MIN
    y_min = _log_sinh(z_min)
    y = _log_sinh(lam_s * np.maximum(u, T_MIN))
    y -= e * (lam_s / (d * lam))
    # asinh(exp(y)) from w = exp(-|y|) <= 1, so nothing overflows
    w = np.exp(-np.abs(y))
    v = np.where(y < 0.0, np.arcsinh(w), y + np.log1p(np.sqrt(1.0 + w * w)))
    v /= lam_s
    below = np.minimum(u, T_MIN) - (y_min - y) * (np.tanh(z_min) / lam_s)
    return np.where(y > y_min, v, below)


def _thinning_flips(src, X, rows, t, coords, accept, lam: float) -> np.ndarray:
    """Thinning's acceptance step: proposals to flip coordinate ``coords`` of
    chain ``rows`` of ``X`` at backward time ``t``, each with its acceptance
    uniform U. Flips the accepted ones in ``X`` and returns their mask.

    Every backward rate lam*(1 - s) lies between the floor lam*(1 - a_coef) =
    lam*tanh(lam_s*u) and the envelope R = lam*(1 - a_coef + b_coef) =
    lam*coth(lam_s*u) at forward time u = t_f - t, since s = a_coef - b_coef*d
    with d in [0, 1] (lam_s = src.lam; the coefficients clamp u at T_MIN). A
    proposal with U < floor/R flips unscored (the squeeze, the floor shrunk
    by RATE_TOL); the rest are scored through one ``score_rows`` call at
    their own times and flip if U < rate/R. A scored rate above
    R*(1 + RATE_TOL) or below the floor raises SamplerError. Scoring draws
    no randomness, so the flips are those of scoring every proposal, bit for
    bit.
    """
    lam_s, t_f = src.lam, src.t_f
    # R and the floor at u = t_f - t, the forward time the source sees
    r = lam / np.tanh(lam_s * np.maximum(t_f - t, T_MIN))
    floor = lam * np.tanh(lam_s * (t_f - t)) * (1.0 - RATE_TOL)
    flip = accept < floor / r
    scored = ~flip
    if scored.any():
        r, floor, t_scored = r[scored], floor[scored], t[scored]
        rates = backward_rates(src, t_scored, X[rows[scored]], lam)
        rate = rates[np.arange(r.size), coords[scored]]
        ratio = rate / r
        if (ratio > 1.0 + RATE_TOL).any():
            worst = int(np.argmax(ratio))
            raise SamplerError(f"backward rate {rate[worst]!r} exceeds the thinning "
                               f"bound {r[worst]!r} at t={t_scored[worst]!r}")
        if (rate < floor).any():
            worst = int(np.argmax(floor - rate))
            raise SamplerError(f"backward rate {rate[worst]!r} is below the floor "
                               f"{floor[worst]!r} at t={t_scored[worst]!r}")
        flip[scored] = accept[scored] < ratio
    X[rows[flip], coords[flip]] ^= 1
    return flip


def _thinning_loop(src, n: int, rng: np.random.Generator, lam: float | None, clocks: int):
    """Exact thinning across n chains with ``clocks`` Poisson clocks each on
    the envelope (d/clocks)*R(u), R = lam*coth(lam_s*max(u, T_MIN)) in
    forward time u; ``u`` holds each clock's next proposal (``_next_proposal``).
    Each round, every unfinished chain takes its earliest proposal (largest
    u), on a uniform coordinate for one clock or on the clock's own for d,
    which ``_thinning_flips`` accepts or not, and redraws only that clock: the
    envelope does not depend on the state. A chain whose earliest proposal
    lies past the horizon is done. Returns the states and the flips per chain."""
    lam = src.lam if lam is None else lam
    d, lam_s, t_f = src.d, src.lam, src.t_f
    X = _uniform_start(n, d, rng)
    jumps = np.zeros(n, dtype=np.int64)
    live = np.arange(n)
    u = _next_proposal(np.full((n, clocks), t_f), rng.exponential(size=(n, clocks)),
                       d // clocks, lam, lam_s)
    while live.size:
        clock = np.argmax(u, axis=1)
        t = t_f - u[np.arange(live.size), clock]
        keep = t < t_f
        live, u, clock, t = live[keep], u[keep], clock[keep], t[keep]
        coords = rng.integers(0, d, size=live.size) if clocks == 1 else clock
        flip = _thinning_flips(src, X, live, t, coords, rng.random(live.size), lam)
        jumps[live[flip]] += 1
        at = (np.arange(live.size), clock)
        u[at] = _next_proposal(u[at], rng.exponential(size=live.size), d // clocks, lam, lam_s)
    return X, jumps


def sample_continuous_batch(src, n: int, rng: np.random.Generator, lam: float | None = None,
                            return_jump_counts: bool = False):
    """Exact continuous-time sampling: one clock per chain on d*R, proposing
    a uniform coordinate (``_thinning_loop``). Returns the final states and,
    with ``return_jump_counts``, the flips per chain."""
    X, jumps = _thinning_loop(src, n, rng, lam, 1)
    return (X, jumps) if return_jump_counts else X


def sample_percoord_batch(src, n: int, rng: np.random.Generator,
                          lam: float | None = None) -> np.ndarray:
    """Exact per-coordinate Poisson clocks: d clocks per chain on R each
    (``_thinning_loop``), equal in law to one clock on d*R."""
    return _thinning_loop(src, n, rng, lam, src.d)[0]


# --- discretized samplers ---------------------------------------------------


def _clock_loop(src, schedule: TimeSchedule, lam: float, n: int, rng: np.random.Generator,
                choose, record_grid: bool = False):
    """Piecewise-constant-score chains with carried rate accumulators; on crossings
    in interval k, ``choose(rates, k, rng)`` names the (row, column) pairs to flip.
    Returns the final states and, if ``record_grid``, the states at each grid time."""
    X = _uniform_start(n, src.d, rng)
    accum = np.zeros(n)
    thresh = rng.exponential(size=n)
    total, step = np.empty(n), np.empty(n)  # per-step arrays, updated in place
    grid = schedule.grid
    recorded = []
    for k in range(schedule.n_steps):
        if record_grid:
            recorded.append(X.copy())
        rates = backward_rates(src, grid[k], X, lam)
        _row_totals(rates, out=total)
        accum += np.multiply(total, grid[k + 1] - grid[k], out=step)
        crossed = (accum > thresh) & (total > 0)
        if crossed.any():
            idx = np.flatnonzero(crossed)
            rows, cols = choose(rates[idx], k, rng)
            X[idx[rows], cols] ^= 1
            accum[idx] = 0.0
            thresh[idx] = rng.exponential(size=idx.size)
    return X, recorded


def sample_discretized_batch(src, schedule: TimeSchedule, lam: float, n: int,
                             rng: np.random.Generator,
                             record_grid: bool = False):
    """Vectorized piecewise-constant sampler, one rate-weighted flip per crossing;
    optionally also returns the states at every grid time (for score-error estimation)."""
    def one_coordinate(w, k, rng):
        return np.arange(w.shape[0]), _categorical_rows(w, rng)

    X, recorded = _clock_loop(src, schedule, lam, n, rng, one_coordinate, record_grid)
    return (X, recorded) if record_grid else X


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


def sample_denoise_renoise_batch(src, schedule: TimeSchedule, lam: float, n: int,
                                 rng: np.random.Generator) -> np.ndarray:
    """n chains: at each grid time, flip every bit with its denoiser probability p (full
    denoise), then renoise to the next grid time (flip probability r = (1 - alpha(u_next))/2),
    both drawn as one flip with probability p(1 - 2r) + r; the final denoise is returned."""
    d = src.d
    X = _uniform_start(n, d, rng)
    grid = schedule.grid
    for k in range(schedule.n_steps):
        probs = src.denoiser_batch(grid[k], X)
        if not np.isfinite(probs).all():
            raise SamplerError(f"non-finite denoiser output at t={grid[k]!r}")
        if k < schedule.n_steps - 1:
            r = 0.5 * (1.0 - alpha(src.t_f - grid[k + 1], lam))
            probs = probs * (1.0 - 2.0 * r)
            probs += r
        X ^= rng.random((n, d)) < probs
    return X


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
    """Dump states as 0/1 lines plus a JSON sidecar next to the file; a
    nonzero entry is written as 1."""
    path = Path(path)
    states = np.asarray(states, dtype=np.int8)
    buf = np.full((states.shape[0], states.shape[1] + 1), ord("\n"), dtype=np.uint8)
    buf[:, :-1] = (states != 0) + ord("0")
    path.write_bytes(buf.tobytes())
    with open(path.with_suffix(".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_samples(path) -> EmpiricalSet:
    """Load a 0/1 dump. Lines may end in LF, CRLF or CR; whitespace around a
    line and blank lines are ignored. An empty file, rows of unequal length
    and any other character raise ``SampleFormatError`` naming the first bad
    line."""
    text = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    lines = [line.strip() for line in text.split(b"\n")]
    rows = [line for line in lines if line]
    if not rows:
        raise SampleFormatError(f"sample file {path} is empty")
    d = len(rows[0])
    bits = np.frombuffer(b"".join(rows), dtype=np.uint8) - ord("0")
    if set(map(len, rows)) != {d} or (bits > 1).any():
        for lineno, line in enumerate(lines, 1):
            if line and len(line) != d:
                raise SampleFormatError(f"sample file {path}, line {lineno}: {len(line)} "
                                        f"entries, the first row has {d}")
            if line.strip(b"01"):
                raise SampleFormatError(f"sample file {path}, line {lineno}: a character "
                                        f"other than 0/1 in {line[:80]!r}")
    return EmpiricalSet(bits.reshape(len(rows), d))


def read_sidecar(path) -> dict:
    with open(Path(path).with_suffix(".json")) as fh:
        return json.load(fh)
