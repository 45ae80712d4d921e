"""Divergences, the sliced Wasserstein metric, convergence-bound calculators,
step planners, and exact marginal propagation of the discretized backward
chain, its grid scored in blocks of steps, for ground-truth KL on small d.

Total variation follows the integral-of-|density-difference| convention, so
it ranges over [0, 2] (twice the more common sup-of-events normalization).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AssumptionViolationError, EnumerationLimitError, PlanningError
from .samplers import sample_discretized_batch
from .schedules import TimeSchedule
from .score import backward_rates
from .states import (DenseTable, Distribution, EmpiricalSet, all_states, distinct_rows,
                     flip_index, index_to_state)

UNIFORMIZATION_TAIL = 1e-14
EXACT_BACKWARD_LIMIT = 10  # generator is 2^d x 2^d
EXACT_BACKWARD_BLOCK_ROWS = 1 << EXACT_BACKWARD_LIMIT  # (time, state) rows scored per call
SWD_CHUNK_ELEMENTS = 1 << 20  # projected values held in memory at once


def kl_divergence(p: DenseTable, q: DenseTable) -> float:
    """KL(p|q), +inf when p charges a q-null state."""
    if p.d != q.d:
        raise ValueError(f"dimension mismatch: {p.d} vs {q.d}")
    support = p.mass > 0
    if (q.mass[support] <= 0).any():
        return float("inf")
    pm = p.mass[support]
    return float(np.sum(pm * np.log(pm / q.mass[support])))


def tv_distance(p: DenseTable, q: DenseTable) -> float:
    """Total variation in the [0, 2] normalization."""
    if p.d != q.d:
        raise ValueError(f"dimension mismatch: {p.d} vs {q.d}")
    return float(np.abs(p.mass - q.mass).sum())


@dataclass(frozen=True)
class SWDEstimate:
    value: float
    n_directions: int
    std_error: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def simplex_directions(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws from the probability simplex via exponential normalization."""
    g = rng.exponential(size=(n, d))
    return g / g.sum(axis=1, keepdims=True)


def swd(a: EmpiricalSet, b: EmpiricalSet, n_dirs: int = 1000, *,
        rng: np.random.Generator) -> SWDEstimate:
    """Sliced Wasserstein distance between two sample sets.

    Directions are uniform on the simplex; each projection x -> <u, x> lands
    in [0, 1], and its one-dimensional Wasserstein-1 distance is the L1
    distance between the two empirical CDFs. That is computed exactly from
    the distinct states of both sets and their counts, so the cost grows
    with the number of distinct states, not of samples. The reported value
    is the Monte-Carlo mean over directions with its standard error.
    """
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    if n_dirs < 1:
        raise ValueError(f"n_dirs must be >= 1, got {n_dirs}")
    dirs = simplex_directions(a.d, n_dirs, rng)
    # each distinct state of either set is projected once and weighted by
    # n_b*(its count in a) - n_a*(its count in b); in projected order the
    # running sum of these integers is n_a*n_b*(F_a - F_b), exact in int64,
    # so identical sets give 0 and swapping the sets only flips its sign
    both = np.concatenate([a.samples, b.samples])
    first, inverse, counts = distinct_rows(both)
    k = first.size
    in_a = np.bincount(inverse[:a.n], minlength=k)
    weights = in_a * b.n - (counts - in_a) * a.n
    states = both[first].astype(np.float64)
    per_dir = np.empty(n_dirs)
    # directions go in chunks of about SWD_CHUNK_ELEMENTS / k, and each row of
    # a chunk is sorted and summed on its own; at least 3 rows per chunk keep
    # array_split from leaving a one-row chunk, which numpy would project
    # with another BLAS routine than the rest
    rows_per_chunk = max(3, SWD_CHUNK_ELEMENTS // k)
    for rows in np.array_split(np.arange(n_dirs), -(-n_dirs // rows_per_chunk)):
        proj = dirs[rows] @ states.T
        order = np.argsort(proj, axis=1)
        gap = np.cumsum(weights[order[:, :-1]], axis=1)
        step = np.diff(np.take_along_axis(proj, order, axis=1), axis=1)
        step *= np.abs(gap, out=gap)
        per_dir[rows] = step.sum(axis=1)
    per_dir /= a.n * b.n
    value = float(per_dir.mean())
    se = float(per_dir.std(ddof=1) / np.sqrt(n_dirs)) if n_dirs > 1 else 0.0
    return SWDEstimate(value=value, n_directions=n_dirs, std_error=se)


def _h(a: np.ndarray) -> np.ndarray:
    """h(a) = a log a - a + 1 (>= 0, zero only at a = 1), with h(0) = 1."""
    a = np.asarray(a, dtype=np.float64)
    out = np.ones_like(a)
    pos = a > 0
    out[pos] = a[pos] * np.log(a[pos]) - a[pos] + 1.0
    return out


def flip_fisher_info(mu: DenseTable) -> float:
    """Fisher-like information E_mu[ sum_l h(mu(flip_l X)/mu(X)) ].

    Finite exactly when mu has full support; a zero-mass state raises,
    naming the offending state.
    """
    mass = mu.mass
    if (mass <= 0).any():
        bad = int(np.argmin(mass))
        raise AssumptionViolationError(
            f"state {index_to_state(bad, mu.d).tolist()} has zero mass; "
            "full support is required")
    idx = np.arange(mass.size)
    total = 0.0
    for coord in range(mu.d):
        ratio = mass[idx ^ (1 << coord)] / mass
        total += float(np.sum(mass * _h(ratio)))
    return total


@dataclass(frozen=True)
class BoundReport:
    """A KL convergence bound together with the quantities that built it.

    bound = exp(-t_f) * kl_init + tau * beta + eps * (t_f - eta).
    """

    kl_init: float
    beta: float
    tau: float
    eps: float
    t_f: float
    eta: float = 0.0
    measured_kl: float | None = None

    @property
    def bound(self) -> float:
        return float(np.exp(-self.t_f) * self.kl_init + self.tau * self.beta
                     + self.eps * (self.t_f - self.eta))

    @property
    def slack(self) -> float | None:
        if self.measured_kl is None:
            return None
        return self.bound - self.measured_kl


def kl_convergence_bound(kl_init: float, beta: float, tau: float, eps: float,
                         t_f: float, eta: float = 0.0,
                         measured_kl: float | None = None) -> BoundReport:
    """KL bound for the discretized backward chain; eta > 0 gives the
    early-stopped variant (beta must then be the information of the running
    marginal at time eta)."""
    for name, val in (("kl_init", kl_init), ("beta", beta), ("tau", tau),
                      ("eps", eps), ("t_f", t_f), ("eta", eta)):
        if val < 0:
            raise ValueError(f"{name} must be >= 0")
    return BoundReport(kl_init=kl_init, beta=beta, tau=tau, eps=eps, t_f=t_f,
                       eta=eta, measured_kl=measured_kl)


def early_stop_tv_bound(eta: float, lam: float, d: int) -> tuple[float, float]:
    """TV(mu_eta, mu*) upper bounds: the exact kernel form and its looser
    linearized form 2 - 2(1 - lam*eta)^d."""
    if eta < 0:
        raise ValueError("eta must be >= 0")
    exact = 2.0 - 2.0 * (0.5 + 0.5 * np.exp(-2.0 * lam * eta)) ** d
    loose = 2.0 - 2.0 * (1.0 - lam * eta) ** d
    return float(exact), float(loose)


def plan_schedule(eps: float, kl_init: float, beta: float) -> tuple[float, int, float]:
    """Largest step h and smallest K meeting the fixed-step complexity recipe;
    returns (h, k_f, t_f = h * k_f)."""
    if eps <= 0:
        raise PlanningError("target accuracy eps must be > 0")
    if kl_init <= 0:
        raise PlanningError("kl_init must be > 0")
    if beta <= 0:
        raise PlanningError("beta must be > 0 (uniform-like data needs no planning)")
    h = eps / (2.0 * beta)
    k_f = int(np.ceil(np.log(2.0 * kl_init / eps) / h))
    if k_f < 1:
        raise PlanningError("requested accuracy already holds at a single step")
    return h, k_f, h * k_f


def plan_early_stop(eps: float, d: int, lam: float, kl_init: float) -> tuple[float, float, int]:
    """Early-stopping recipe: (eta, h, k_f) with horizon t_f = eta + h * k_f."""
    if eps <= 0:
        raise PlanningError("target accuracy eps must be > 0")
    if kl_init <= 0:
        raise PlanningError("kl_init must be > 0")
    if eps >= 2.0:
        raise PlanningError("eps must be < 2 for a positive early-stop time")
    eta = (1.0 - (1.0 - eps / 2.0) ** (1.0 / d)) / lam
    if eta <= 0:
        raise PlanningError("no positive early-stop time for the requested eps")
    le = lam * eta
    h = eps**2 * le**d / (2.0 ** (d + 3) * d * (1.0 + 2.0 * le) ** d)
    k_f = int(np.ceil((np.log(2.0 * kl_init / eps**2) - eta) / h))
    k_f = max(k_f, 1)
    return eta, h, k_f


def _uniformized_step(mass: np.ndarray, rates: np.ndarray, h: float) -> np.ndarray:
    """Propagate a mass vector through exp(h*Q) where Q has off-diagonal
    entries rates[x, l] toward the coordinate-l flip of x.

    Uniformization: exp(hQ) = sum_k Pois(k; a) P^k with P = I + Q/rate_max,
    truncated when the remaining Poisson mass drops below UNIFORMIZATION_TAIL
    and then renormalized (the exact result conserves mass).
    """
    d = rates.shape[1]
    exit_rate = rates.sum(axis=1)
    rate_max = float(exit_rate.max())
    if rate_max <= 0 or h <= 0:
        return mass.copy()
    a = rate_max * h
    flip_idx = flip_index(d)
    stay = 1.0 - exit_rate / rate_max
    # rates_in[y, l] is the rate from y's coordinate-l flip into y
    rates_in = rates[flip_idx, np.arange(d)]

    def apply_p(v: np.ndarray) -> np.ndarray:
        out = v * stay
        # inflows are added one coordinate at a time, in order, which keeps
        # the bits of a bincount scatter over each flip permutation
        flow_in = v[flip_idx] * rates_in / rate_max
        for coord in range(d):
            out += flow_in[:, coord]
        return out

    weight = np.exp(-a)
    cum = weight
    term = mass
    acc = weight * mass
    k = 0
    while cum < 1.0 - UNIFORMIZATION_TAIL:
        term = apply_p(term)
        k += 1
        weight *= a / k
        cum += weight
        acc += weight * term
    return acc / acc.sum()


def exact_backward_marginal(src, schedule: TimeSchedule, lam: float) -> DenseTable:
    """Exact terminal law of the CTMC whose generator is frozen at each grid
    time (the object the KL convergence bound speaks about).

    Starts from the uniform distribution and propagates the full 2^d vector
    by uniformization, so d is capped at EXACT_BACKWARD_LIMIT. The grid's
    (time, state) rows go through ``backward_rates`` in blocks of whole
    steps, at most EXACT_BACKWARD_BLOCK_ROWS rows (one step if 2^d is more),
    so they are validated as the samplers' rates are: a non-finite rate
    raises SamplerError and a negative one InvalidScoreError, naming the
    first bad grid time.
    """
    d = src.d
    if d > EXACT_BACKWARD_LIMIT:
        raise EnumerationLimitError(
            f"exact backward propagation needs a 2^{d} generator; "
            f"refusing d > {EXACT_BACKWARD_LIMIT}")
    size, states, grid, n_steps = 1 << d, all_states(d), schedule.grid, schedule.n_steps
    mass = np.full(size, 1.0 / size)
    n_blocks = -(-n_steps // max(1, EXACT_BACKWARD_BLOCK_ROWS // size))
    for ks in np.array_split(np.arange(n_steps), n_blocks):
        rates = backward_rates(src, np.repeat(grid[ks], size), np.tile(states, (ks.size, 1)),
                               lam).reshape(ks.size, size, d)
        for k, step in zip(ks, rates):
            mass = _uniformized_step(mass, step, grid[k + 1] - grid[k])
    return DenseTable(mass)


def exact_reverse_law(dist: Distribution, lam: float, t_f: float) -> Distribution:
    """Law of the exact time reversal at the horizon when it starts from the
    uniform law pi instead of the forward marginal mu_{t_f}: what the
    continuous-time samplers target with the true score.

    nu(x) = mu*(x) * sum_y K_{t_f}(x, y) pi(y) / mu_{t_f}(y), from the law's
    ``reverse_law``: per bit for a product, two ``propagate_mass`` calls for a
    table."""
    if not t_f > 0:
        raise ValueError(f"t_f must be > 0, got {t_f!r}")
    return dist.reverse_law(t_f, lam)


@dataclass(frozen=True)
class ScoreErrorEstimate:
    """Monte-Carlo estimate of the entropic score-approximation error."""

    eps_max: float
    std_error: float
    per_step: np.ndarray
    per_step_se: np.ndarray


def estimate_score_error(approx_src, exact_src, schedule: TimeSchedule, lam: float,
                         n_chains: int, rng: np.random.Generator) -> ScoreErrorEstimate:
    """Estimate the per-grid-point entropic gap
    E[sum_l (1 - s_approx) h((1 - s_exact)/(1 - s_approx))] along chains
    simulated with the approximate score, reporting the max over grid points.
    Each step's distinct states are scored once, all steps in one
    ``score_rows`` call per source, and the gaps gathered back per chain.
    """
    _, recorded = sample_discretized_batch(approx_src, schedule, lam, n_chains, rng,
                                           record_grid=True)
    firsts, inverses, _ = zip(*map(distinct_rows, recorded))
    sizes = [first.size for first in firsts]
    rows = np.concatenate([states[first] for states, first in zip(recorded, firsts)])
    ts = np.repeat(schedule.grid[:len(recorded)], sizes)
    one_minus_appr = np.maximum(1.0 - approx_src.score_rows(ts, rows), 1e-300)
    one_minus_true = np.maximum(1.0 - exact_src.score_rows(ts, rows), 0.0)
    gaps = (one_minus_appr * _h(one_minus_true / one_minus_appr)).sum(axis=1)
    offsets = np.cumsum([0] + sizes[:-1])
    means = np.empty(len(recorded))
    ses = np.empty(len(recorded))
    for k, (offset, inverse) in enumerate(zip(offsets, inverses)):
        per_chain = gaps[offset + inverse]
        means[k] = per_chain.mean()
        ses[k] = per_chain.std(ddof=1) / np.sqrt(n_chains)
    worst = int(np.argmax(means))
    return ScoreErrorEstimate(eps_max=float(means[worst]), std_error=float(ses[worst]),
                              per_step=means, per_step_se=ses)
