"""Bit-vector states and distributions on {0,1}^d.

States are numpy arrays of 0/1 ints. A state maps to a table index via
``index = sum(bits[i] << i)``, i.e. component i is bit i of the integer;
every dense 2^d table in the package uses this order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import EnumerationLimitError

ENUM_LIMIT = 24  # largest d for which 2^d tables may be materialized

MASS_TOL = 1e-12


def as_bits(x) -> np.ndarray:
    """Validate and return a state as an int8 array of 0/1 entries."""
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"state must be a nonempty 1-d sequence, got shape {arr.shape}")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("state entries must be 0 or 1")
    return arr.astype(np.int8)


def flip(x, coord: int) -> np.ndarray:
    """Invert bit ``coord`` of ``x`` (0-based); an involution."""
    bits = as_bits(x)
    if not 0 <= coord < bits.size:
        raise ValueError(f"coordinate {coord} out of range for d={bits.size}")
    out = bits.copy()
    out[coord] ^= 1
    return out


def state_index(x) -> int:
    """Pack a state into its table index (bit i of the integer = component i)."""
    return int(state_indices(as_bits(x)[None])[0])


def state_indices(states: np.ndarray) -> np.ndarray:
    """Vectorized ``state_index`` for an (n, d) array of states."""
    states = np.asarray(states, dtype=np.int64)
    return states @ (1 << np.arange(states.shape[1], dtype=np.int64))


@functools.lru_cache(maxsize=None)
def flip_index(d: int) -> np.ndarray:
    """(2^d, d) table whose entry [x, l] is the index of x with bit l flipped;
    cached per d and read-only."""
    idx = np.arange(1 << d)[:, None] ^ (1 << np.arange(d))
    idx.flags.writeable = False
    return idx


def distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of an (n, d) array of 0/1 entries, in lexicographic
    order with column 0 first.

    Rows are keyed by their bits, column 0 the most significant: for d <= 16 as the
    uint16 sum of 2^(15 - j) over set columns j (a float32 product, exact below 2^24),
    which numpy's stable sort orders by radix sort, and above that as packed-byte void
    keys. Returns ``first`` (the index of each distinct row's first occurrence),
    ``inverse`` (``X[first][inverse]`` rebuilds ``X``) and ``counts`` (each distinct
    row's multiplicity). A non-2-d input or an entry other than 0 or 1 raises ValueError.
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError("states must have shape (n, d)")
    ones = X == 1
    if np.count_nonzero(X) != np.count_nonzero(ones):
        raise ValueError("row entries must be 0 or 1")
    if X.shape[1] <= 16:
        weights = 2.0 ** np.arange(15, 15 - X.shape[1], -1, dtype=np.float32)
        keys = np.dot(ones, weights).astype(np.uint16)
    else:
        packed = np.packbits(ones, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True,
                                          return_counts=True)
    return first, inverse, counts


def index_to_state(index, d: int) -> np.ndarray:
    """The state at table index ``index``, or one per entry of an index array."""
    index = np.asarray(index, dtype=np.int64)
    if ((index < 0) | (index >= 1 << d)).any():
        raise ValueError(f"index {index} out of range for d={d}")
    return ((index[..., None] >> np.arange(d)) & 1).astype(np.int8)


def all_states(d: int) -> np.ndarray:
    """All 2^d states as an (2^d, d) array, row i being the state with index i."""
    check_enum_limit(d)
    return index_to_state(np.arange(1 << d), d)


def check_enum_limit(d: int) -> None:
    if d > ENUM_LIMIT:
        raise EnumerationLimitError(f"operation needs a 2^{d} table; refusing d > {ENUM_LIMIT}")


@dataclass(frozen=True)
class ProductBernoulli:
    """Independent per-bit Bernoulli distribution with strict probabilities in (0,1)."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-d sequence")
        if not ((probs > 0.0) & (probs < 1.0)).all():
            raise ValueError("ProductBernoulli requires 0 < p_i < 1 for all i")
        object.__setattr__(self, "probs", probs)

    @property
    def d(self) -> int:
        return self.probs.size

    def sample(self, n: int, rng: np.random.Generator) -> "EmpiricalSet":
        if n < 1:
            raise ValueError("n must be >= 1")
        draws = (rng.random((n, self.d)) < self.probs).astype(np.int8)
        return EmpiricalSet(draws)

    def to_table(self) -> "DenseTable":
        check_enum_limit(self.d)
        states = all_states(self.d)
        mass = np.prod(np.where(states == 1, self.probs, 1.0 - self.probs), axis=1)
        return DenseTable(mass)


@dataclass(frozen=True)
class DenseTable:
    """Explicit probability table over all 2^d states, indexed by ``state_index``."""

    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.ndim != 1 or mass.size < 2 or (mass.size & (mass.size - 1)) != 0:
            raise ValueError("mass must have length 2^d with d >= 1")
        d = mass.size.bit_length() - 1
        check_enum_limit(d)
        if not np.isfinite(mass).all():
            raise ValueError("masses must be finite")
        if (mass < 0).any():
            raise ValueError("masses must be nonnegative")
        if abs(mass.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"masses must sum to 1 within {MASS_TOL}, got {mass.sum()!r}")
        object.__setattr__(self, "mass", mass)

    @classmethod
    def normalized(cls, mass) -> "DenseTable":
        """Build a table from nonnegative weights, rescaling to total mass 1."""
        mass = np.asarray(mass, dtype=np.float64)
        if not np.isfinite(mass).all():
            raise ValueError("masses must be finite")
        total = mass.sum()
        if total <= 0:
            raise ValueError("cannot normalize: total mass is not positive")
        return cls(mass / total)

    @property
    def d(self) -> int:
        return self.mass.size.bit_length() - 1

    def sample(self, n: int, rng: np.random.Generator) -> "EmpiricalSet":
        if n < 1:
            raise ValueError("n must be >= 1")
        idx = rng.choice(self.mass.size, size=n, p=self.mass)
        return EmpiricalSet(index_to_state(idx, self.d))

    def to_table(self) -> "DenseTable":
        return self


@dataclass(frozen=True)
class EmpiricalSet:
    """A multiset of states with a common dimension."""

    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.ndim != 2 or samples.shape[0] == 0:
            raise ValueError("samples must be a nonempty (n, d) array")
        if not np.isin(samples, (0, 1)).all():
            raise ValueError("sample entries must be 0 or 1")
        object.__setattr__(self, "samples", samples.astype(np.int8))

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]

    def counts_table(self) -> DenseTable:
        """Empirical frequencies as a dense table (d within the enumeration limit)."""
        check_enum_limit(self.d)
        counts = np.bincount(state_indices(self.samples), minlength=1 << self.d)
        return DenseTable(counts / self.n)


Distribution = ProductBernoulli | DenseTable


def uniform_table(d: int) -> DenseTable:
    check_enum_limit(d)
    return DenseTable(np.full(1 << d, 1.0 / (1 << d)))


def sawtooth_params(d: int) -> ProductBernoulli:
    """Triangle-wave Bernoulli parameters: rise 0.05 -> 0.95 then back down.

    The peak sits at index d//2 (0-based); d=2 degenerates to the plain
    ramp (0.05, 0.95).
    """
    if d < 2:
        raise ValueError("sawtooth pattern needs d >= 2")
    peak = d // 2
    probs = np.empty(d)
    probs[: peak + 1] = np.linspace(0.05, 0.95, peak + 1)
    if peak < d - 1:
        probs[peak:] = np.linspace(0.95, 0.05, d - peak)
    return ProductBernoulli(probs)

