"""Forward noising process: a CTMC on {0,1}^d where every bit carries an
independent Poisson flip clock of rate lam.

The single-bit transition matrix is

    p_t(a, b) = 1/2 + 1/2 * exp(-2*lam*t)   if a == b,
                 1/2 - 1/2 * exp(-2*lam*t)   otherwise,

and the d-bit kernel is the product over coordinates. Equivalently the full
chain jumps at total rate d*lam, each jump flipping a uniformly chosen bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    DenseTable,
    Distribution,
    ProductBernoulli,
    as_bits,
    check_enum_limit,
)


@dataclass(frozen=True)
class ForwardParams:
    lam: float
    t_f: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("jump rate lam must be > 0")
        if not self.t_f > 0:
            raise ValueError("time horizon t_f must be > 0")


@dataclass(frozen=True)
class ForwardPath:
    """A realized trajectory: initial state plus ordered flip events."""

    x0: np.ndarray
    jump_times: np.ndarray
    jump_coords: np.ndarray

    def state_at(self, t: float) -> np.ndarray:
        """State after applying every flip with jump time <= t."""
        out = self.x0.copy()
        for coord in self.jump_coords[self.jump_times <= t]:
            out[coord] ^= 1
        return out

    @property
    def terminal(self) -> np.ndarray:
        return self.state_at(np.inf)


def alpha(t, lam: float):
    """Per-bit memory coefficient exp(-2*lam*t)."""
    t = np.asarray(t, dtype=np.float64)
    if (t < 0).any():
        raise ValueError("time must be >= 0")
    out = np.exp(-2.0 * lam * t)
    return float(out) if out.ndim == 0 else out


def kernel1(a: int, b: int, t: float, lam: float) -> float:
    """Single-bit transition probability over elapsed time t."""
    a_t = alpha(t, lam)
    return 0.5 + 0.5 * a_t if a == b else 0.5 - 0.5 * a_t


def kernel(x, y, t: float, lam: float) -> float:
    """Product transition probability between full states."""
    xb, yb = as_bits(x), as_bits(y)
    if xb.size != yb.size:
        raise ValueError(f"dimension mismatch: {xb.size} vs {yb.size}")
    a_t = alpha(t, lam)
    agree = xb == yb
    return float(np.prod(np.where(agree, 0.5 + 0.5 * a_t, 0.5 - 0.5 * a_t)))


def _kernel_matrix(t: float, lam: float) -> np.ndarray:
    a_t = alpha(t, lam)
    stay, move = 0.5 + 0.5 * a_t, 0.5 - 0.5 * a_t
    return np.array([[stay, move], [move, stay]])


def propagate_mass(mass: np.ndarray, t: float, lam: float) -> np.ndarray:
    """Push a 2^d mass vector through the product kernel for elapsed time t,
    one bit per pass, with the bits of ``np.tensordot`` over each axis."""
    mass = np.asarray(mass, dtype=np.float64)
    d = mass.size.bit_length() - 1
    check_enum_limit(d)
    k = _kernel_matrix(t, lam)
    m = mass
    for _ in range(d):
        # each pass contracts the leading bit of the flat index and appends
        # the result as the trailing one: the product that
        # np.tensordot(m, k, ([0], [0])) hands to BLAS, so the bits match it
        m = np.dot(m.reshape(2, -1).T, k).reshape(-1)
    return m


def marginal(mu0: Distribution, t: float, lam: float) -> Distribution:
    """Forward marginal at time t; preserves the input representation.

    Product inputs stay products with p_i(t) = 1/2 + (p_i - 1/2) * alpha_t,
    computed in O(d); dense inputs are propagated through the full kernel.
    """
    a_t = alpha(t, lam)
    if isinstance(mu0, ProductBernoulli):
        return ProductBernoulli(0.5 + (mu0.probs - 0.5) * a_t)
    return DenseTable(propagate_mass(mu0.mass, t, lam))


def marginal_table(mu0: Distribution, t: float, lam: float) -> DenseTable:
    """Forward marginal at time t as an explicit dense table."""
    out = marginal(mu0, t, lam)
    return out.to_table()


def sample_conditional_batch(x0s: np.ndarray, ts, lam: float, rng: np.random.Generator) -> np.ndarray:
    """Draw X_t | X_0 = x0 row by row: row i of ``x0s`` is noised to time ts[i]
    by flipping each bit independently with probability (1 - alpha_t)/2."""
    x0s = np.asarray(x0s, dtype=np.int8)
    p_flip = 0.5 * (1.0 - alpha(ts, lam))
    flips = rng.random(x0s.shape) < np.atleast_1d(p_flip)[:, None]
    return x0s ^ flips.astype(np.int8)


def simulate_path(x0, params: ForwardParams, rng: np.random.Generator) -> ForwardPath:
    """Simulate the Poisson-clock path over [0, t_f].

    Each of the d bits flips at rate lam, so the superposed jump count is
    Poisson(d * lam * t_f) with uniformly random coordinates at sorted
    uniform times.
    """
    bits = as_bits(x0)
    d = bits.size
    n_jumps = rng.poisson(d * params.lam * params.t_f)
    times = np.sort(rng.uniform(0.0, params.t_f, size=n_jumps))
    coords = rng.integers(0, d, size=n_jumps)
    return ForwardPath(x0=bits, jump_times=times, jump_coords=coords)


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

