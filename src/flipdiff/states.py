"""Bit-vector states and distributions on {0,1}^d.

States are numpy arrays of 0/1 ints. A state maps to a table index via
``index = sum(bits[i] << i)``, i.e. component i is bit i of the integer;
every dense 2^d table in the package uses this order.

Each data law carries its own forward math at forward time u and rate lam
(``marginal``, ``score``, ``mass_terms``, ``reverse_law``), its per-bit
P(bit = 1) and its ``dataset.json`` fields; no caller asks which law it holds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import forward
from .forward import ENUM_LIMIT, as_bits, check_enum_limit  # noqa: F401

MASS_TOL = 1e-12


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
        """The 2^d table, one bit per doubling (times 1 - p_i, then p_i)."""
        check_enum_limit(self.d)
        mass = np.array([1.0 - self.probs[0], self.probs[0]])
        for p in self.probs[1:]:
            mass = np.concatenate([mass * (1.0 - p), mass * p])
        return DenseTable(mass)

    def bit_probs(self) -> np.ndarray:
        return self.probs

    def payload(self) -> dict:
        return {"kind": "product", "probs": self.probs.tolist()}

    def _bit_marginal(self, u, lam: float):
        """alpha(u) as a column and the marginal's P(bit = 1) per coordinate."""
        a_u = np.asarray(forward.alpha(u, lam))[..., None]
        return a_u, 0.5 + (self.probs - 0.5) * a_u

    def marginal(self, u: float, lam: float) -> "ProductBernoulli":
        """A product again, p_i(u) = 1/2 + (p_i - 1/2) * alpha(u), in O(d)."""
        return ProductBernoulli(self._bit_marginal(u, lam)[1])

    def mass_terms(self, u, X, lam: float, moved: bool):
        """As ``DenseTable.mass_terms``, but per coordinate l, (n, d) each:
        every ratio of product masses keeps only bit l's factors."""
        a_u, q1 = self._bit_marginal(u, lam)
        here = np.where(X == 1, q1, 1.0 - q1)
        if not moved:
            return here, 1.0 - here
        prior_other = np.where(X == 1, 1.0 - self.probs, self.probs)
        return here, prior_other * (0.5 * (1.0 - a_u))

    def score(self, u, X, lam: float) -> np.ndarray:
        """1 - other/here; at one time, entry (c, b) of a (d, 2) table is the
        score of coordinate c reading bit b, the same arithmetic, and each
        column takes its entries by the rows' bits (no n x d integer index)."""
        if np.ndim(u):
            here, flipped = self.mass_terms(u, X, lam, moved=False)
            return 1.0 - flipped / here
        q1 = self._bit_marginal(u, lam)[1]
        p = np.stack([1.0 - q1, q1], axis=1)
        table = 1.0 - (1.0 - p) / p
        out = np.empty(X.shape)
        for col, bit in enumerate((X == 1).view(np.uint8).T):
            out[:, col] = table[col].take(bit)
        return out

    def reverse_law(self, t_f: float, lam: float) -> "ProductBernoulli":
        a, q1 = self._bit_marginal(t_f, lam)
        stay, move = 0.25 * (1.0 + a), 0.25 * (1.0 - a)
        return ProductBernoulli(self.probs * (stay / q1 + move / (1.0 - q1)))


@dataclass(frozen=True)
class DenseTable:
    """Explicit probability table over all 2^d states, indexed by ``state_index``;
    ``_shells`` caches ``_shell_table`` and is not part of init, repr or eq."""

    mass: np.ndarray
    _shells: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def bit_probs(self) -> np.ndarray:
        return np.array([self.mass.reshape(-1, 2, 1 << i)[:, 1].sum() for i in range(self.d)])

    def payload(self) -> dict:
        return {"kind": "table", "mass": self.mass.tolist()}

    def marginal(self, u: float, lam: float) -> "DenseTable":
        return DenseTable(forward.propagate_mass(self.mass, u, lam))

    def _shell_table(self, cross: int | None = None) -> np.ndarray:
        """shells[h, z]: the data mass at Hamming distance h from state z;
        with ``cross`` = l, only that of sources whose bit l differs from z's.

        Built on first use in d butterfly passes and kept for the table's
        life, (d+1)*2^d doubles each: the plain table for the score, and one
        cross table per coordinate once the denoiser is queried. A forward
        mass is then one weighted sum over d+1 rows at any time."""
        if cross not in self._shells:
            d = self.d
            shells = np.zeros((d + 1, 1 << d))
            shells[0] = self.mass
            for bit in range(d):
                # a source differing from z in this bit is one step further
                # away; the cross table drops the sources that agree in it
                m = shells.reshape(d + 1, -1, 2, 1 << bit)
                nxt = np.zeros_like(m) if bit == cross else m.copy()
                nxt[1:, :, 0] += m[:-1, :, 1]
                nxt[1:, :, 1] += m[:-1, :, 0]
                shells = nxt.reshape(d + 1, -1)
            self._shells[cross] = shells
        return self._shells[cross]

    def _marginal_mass(self, u, lam: float, where, cross: int | None = None) -> np.ndarray:
        """mu_u at the state indices ``where``: sum_h shells[h]*p^(d-h)*q^h
        with p, q = (1 +- alpha(u))/2, the terms added in h order and the
        powers built by repeated products, so the bits of an entry depend
        only on its state and its time; ``cross`` sums a cross table
        instead. ``u`` is a float or an array that broadcasts against
        ``where``."""
        shells, d = self._shell_table(cross), self.d
        a_u = forward.alpha(u, lam)
        stay, move = 0.5 + 0.5 * a_u, 0.5 - 0.5 * a_u
        stay_pow = [1.0]
        for _ in range(d):
            stay_pow.append(stay_pow[-1] * stay)
        out = shells[0][where] * stay_pow[d]
        move_pow = 1.0
        for h in range(1, d + 1):
            move_pow = move_pow * move
            out += shells[h][where] * (stay_pow[d - h] * move_pow)
        return out

    def mass_terms(self, u, X, lam: float, moved: bool):
        """(here, other) at forward time u, a float or one per row of the
        integer states ``X``: mu_u at each row's state, and per coordinate l
        mu_u at its l-flip (the score is 1 - other/here) or, when ``moved``,
        the part of ``here`` from sources whose bit l differs (the denoiser is
        other/here). One time reads the same terms off the all-state marginal."""
        idx = state_indices(X)
        if moved:
            here = self._marginal_mass(u, lam, idx)
            other = np.stack([self._marginal_mass(u, lam, idx, cross=l) for l in range(self.d)],
                             axis=1)
        elif np.ndim(u) == 0:
            table = self._marginal_mass(float(u), lam, slice(None))
            here, other = table[idx], table[flip_index(self.d)[idx]]
        else:
            flips = flip_index(self.d)[idx]
            mass = self._marginal_mass(u[:, None], lam,
                                       np.concatenate([idx[:, None], flips], axis=1))
            here, other = mass[:, 0], mass[:, 1:]
        if (here <= 0.0).any():
            row = int(np.argmin(here))
            u_bad = float(u if np.ndim(u) == 0 else u[row])
            raise ValueError(f"state index {idx[row]} has zero mass at forward time {u_bad!r}")
        return here[:, None], other

    def score(self, u, X, lam: float) -> np.ndarray:
        here, flipped = self.mass_terms(u, X, lam, moved=False)
        return 1.0 - flipped / here

    def reverse_law(self, t_f: float, lam: float) -> "DenseTable":
        """Two ``forward.propagate_mass`` calls, the kernel being symmetric."""
        ratio = (1.0 / self.mass.size) / forward.propagate_mass(self.mass, t_f, lam)
        return DenseTable(self.mass * forward.propagate_mass(ratio, t_f, lam))


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

