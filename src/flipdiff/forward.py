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

from .errors import EnumerationLimitError

# as_bits and this limit live here: states imports this module for its laws' math
ENUM_LIMIT = 24  # largest d for which 2^d tables may be materialized


def check_enum_limit(d: int) -> None:
    if d > ENUM_LIMIT:
        raise EnumerationLimitError(f"operation needs a 2^{d} table; refusing d > {ENUM_LIMIT}")


def as_bits(x) -> np.ndarray:
    """Validate and return a state as an int8 array of 0/1 entries."""
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"state must be a nonempty 1-d sequence, got shape {arr.shape}")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("state entries must be 0 or 1")
    return arr.astype(np.int8)


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


def _kernel_matrix(t: float, lam: float) -> np.ndarray:
    """The single-bit transition matrix, entry [a, b] = p_t(a, b)."""
    a_t = alpha(t, lam)
    stay, move = 0.5 + 0.5 * a_t, 0.5 - 0.5 * a_t
    return np.array([[stay, move], [move, stay]])


def kernel1(a: int, b: int, t: float, lam: float) -> float:
    """Single-bit transition probability over elapsed time t."""
    return float(_kernel_matrix(t, lam)[a, b])


def kernel(x, y, t: float, lam: float) -> float:
    """Product transition probability between full states."""
    xb, yb = as_bits(x), as_bits(y)
    if xb.size != yb.size:
        raise ValueError(f"dimension mismatch: {xb.size} vs {yb.size}")
    return float(np.prod(_kernel_matrix(t, lam)[xb, yb]))


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


def marginal(mu0, t: float, lam: float):
    """Forward marginal at time t in the law's own representation (its
    ``marginal`` method: O(d) for a product law, the full kernel for a table)."""
    return mu0.marginal(t, lam)


def marginal_table(mu0, t: float, lam: float):
    """Forward marginal at time t as an explicit dense table."""
    return marginal(mu0, t, lam).to_table()


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
