"""Reference implementations the tests compare the package against: a point
mass as a dense table, a vectorized forward-path simulator for Monte-Carlo
checks, and the sequential without-replacement draw behind the single-chain
flip-schedule sampler, the reference for the batch form's exponential races."""

import numpy as np

from flipdiff.forward import ForwardParams
from flipdiff.samplers import _clock_loop
from flipdiff.schedules import FlipSchedule, TimeSchedule
from flipdiff.states import DenseTable, as_bits, check_enum_limit, state_index


def delta_table(x0) -> DenseTable:
    bits = as_bits(x0)
    check_enum_limit(bits.size)
    mass = np.zeros(1 << bits.size)
    mass[state_index(bits)] = 1.0
    return DenseTable(mass)


def simulate_paths_terminal(x0, params: ForwardParams, n: int, rng: np.random.Generator,
                            eval_times=None) -> np.ndarray:
    """States of n independent paths at the requested times (default: t_f).

    Returns an array of shape (len(eval_times), n, d). Equivalent in law to
    calling ``simulate_path`` n times and reading ``state_at``; vectorized for
    Monte-Carlo validation at scale.
    """
    bits = as_bits(x0)
    d = bits.size
    if eval_times is None:
        eval_times = [params.t_f]
    eval_times = np.asarray(eval_times, dtype=np.float64)
    counts = rng.poisson(d * params.lam * params.t_f, size=n)
    total = int(counts.sum())
    times = rng.uniform(0.0, params.t_f, size=total)
    coords = rng.integers(0, d, size=total)
    path_of_jump = np.repeat(np.arange(n), counts)
    out = np.empty((eval_times.size, n, d), dtype=np.int8)
    for k, t in enumerate(eval_times):
        live = times <= t
        flips = np.zeros((n, d), dtype=np.int64)
        np.add.at(flips, (path_of_jump[live], coords[live]), 1)
        out[k] = bits ^ (flips & 1).astype(np.int8)
    return out


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


def sample_flip_schedule(src, schedule: TimeSchedule, flips: FlipSchedule, lam: float,
                         rng: np.random.Generator) -> np.ndarray:
    """One chain of the flip-schedule sampler: a crossing in interval k flips
    counts[k] distinct coordinates, drawn by ``weighted_without_replacement``."""
    def sequential(w, k, rng):
        chosen = weighted_without_replacement(w[0], min(int(flips.counts[k]), src.d), rng)
        return np.zeros_like(chosen), chosen

    return _clock_loop(src, schedule, lam, 1, rng, sequential)[0][0]
