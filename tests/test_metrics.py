"""Analysis: divergences, SWD, Fisher-like information, bound calculators,
planners, and exact backward propagation."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import wasserstein_distance

import flipdiff as fd
from _reference import delta_table

LAM = 1.0


def random_table(d, seed, low=0.1):
    rng = np.random.default_rng(seed)
    return fd.DenseTable.normalized(rng.uniform(low, 1.0, size=1 << d))


def test_divergences_identity():
    p = random_table(3, 0)
    assert fd.kl_divergence(p, p) == pytest.approx(0.0)
    assert fd.tv_distance(p, p) == pytest.approx(0.0)


def test_divergences_delta_vs_uniform():
    p = delta_table(np.array([1, 0, 1]))
    q = fd.uniform_table(3)
    kl, tv = fd.kl_divergence(p, q), fd.tv_distance(p, q)
    assert kl == pytest.approx(np.log(8.0))
    assert tv == pytest.approx(1.75)


def test_kl_support_convention():
    narrow = fd.DenseTable(np.array([1.0, 0.0]))
    wide = fd.DenseTable(np.array([0.5, 0.5]))
    assert np.isfinite(fd.kl_divergence(narrow, wide))
    assert fd.kl_divergence(wide, narrow) == np.inf


def test_divergences_dimension_mismatch():
    for divergence in (fd.kl_divergence, fd.tv_distance):
        with pytest.raises(ValueError):
            divergence(fd.uniform_table(2), fd.uniform_table(3))


def test_swd_identical_sets_is_zero():
    samples = fd.sawtooth_params(5).sample(500, np.random.default_rng(0))
    est = fd.swd(samples, samples, n_dirs=64, rng=np.random.default_rng(1))
    assert est.value == 0.0


def test_swd_opposite_corners_is_one():
    a = fd.EmpiricalSet(np.zeros((100, 6), dtype=np.int8))
    b = fd.EmpiricalSet(np.ones((100, 6), dtype=np.int8))
    est = fd.swd(a, b, n_dirs=128, rng=np.random.default_rng(2))
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.std_error == pytest.approx(0.0, abs=1e-12)


def test_swd_symmetry_and_unequal_sizes():
    rng = np.random.default_rng(3)
    a = fd.sawtooth_params(4).sample(600, rng)
    b = fd.sawtooth_params(4).sample(400, rng)
    ab = fd.swd(a, b, n_dirs=64, rng=np.random.default_rng(4)).value
    ba = fd.swd(b, a, n_dirs=64, rng=np.random.default_rng(4)).value
    assert ab == pytest.approx(ba, abs=1e-12)


def sort_formula_swd(a, b, n_dirs, rng):
    """Reference SWD from every projected sample: the mean absolute difference
    of the sorted projections for equal n, scipy's W1 otherwise."""
    dirs = fd.metrics.simplex_directions(a.d, n_dirs, rng)
    proj_a = a.samples.astype(np.float64) @ dirs.T
    proj_b = b.samples.astype(np.float64) @ dirs.T
    if a.n == b.n:
        per_dir = np.mean(np.abs(np.sort(proj_a, axis=0) - np.sort(proj_b, axis=0)), axis=0)
    else:
        per_dir = np.array([wasserstein_distance(proj_a[:, j], proj_b[:, j])
                            for j in range(n_dirs)])
    return fd.SWDEstimate(value=float(per_dir.mean()), n_directions=n_dirs,
                          std_error=float(per_dir.std(ddof=1) / np.sqrt(n_dirs)))


def full_matrix_swd(a, b, n_dirs, rng):
    """Reference SWD that projects the distinct states on every direction at
    once and integrates |F_a - F_b| from their counts."""
    dirs = fd.metrics.simplex_directions(a.d, n_dirs, rng)
    both = np.concatenate([a.samples, b.samples])
    first, inverse, _ = fd.distinct_rows(both)
    weights = (np.bincount(inverse[:a.n], minlength=first.size) * b.n
               - np.bincount(inverse[a.n:], minlength=first.size) * a.n)
    proj = dirs @ both[first].astype(np.float64).T
    order = np.argsort(proj, axis=1)
    gap = np.abs(np.cumsum(weights[order[:, :-1]], axis=1))
    per_dir = np.sum(np.diff(np.take_along_axis(proj, order, axis=1), axis=1) * gap,
                     axis=1) / (a.n * b.n)
    return fd.SWDEstimate(value=float(per_dir.mean()), n_directions=n_dirs,
                          std_error=float(per_dir.std(ddof=1) / np.sqrt(n_dirs)))


@pytest.mark.parametrize("n_b", [1500, 1100])
def test_swd_chunked_matches_full_matrix(n_b, monkeypatch):
    rng = np.random.default_rng(8)
    a = fd.EmpiricalSet(rng.integers(0, 2, (1500, 8), dtype=np.int8))
    b = fd.EmpiricalSet(rng.integers(0, 2, (n_b, 8), dtype=np.int8))
    # all 256 states occur, so the directions go 64 at a time
    monkeypatch.setattr(fd.metrics, "SWD_CHUNK_ELEMENTS", 64 * 256)
    for n_dirs in (2, 65, 130, 1000):
        est = fd.swd(a, b, n_dirs=n_dirs, rng=np.random.default_rng(9))
        assert est == full_matrix_swd(a, b, n_dirs, np.random.default_rng(9))


def swd_cases():
    rng = np.random.default_rng(12)
    saw = fd.sawtooth_params(16)
    return {
        "equal-n": (fd.EmpiricalSet(rng.integers(0, 2, (1500, 8), dtype=np.int8)),
                    fd.EmpiricalSet(rng.integers(0, 2, (1500, 8), dtype=np.int8))),
        "unequal-n": (fd.EmpiricalSet(rng.integers(0, 2, (1500, 8), dtype=np.int8)),
                      fd.EmpiricalSet(rng.integers(0, 2, (1100, 8), dtype=np.int8))),
        "sawtooth-d16": (saw.sample(3000, rng), saw.sample(2500, rng)),
        "distinct-d40": (fd.EmpiricalSet(rng.integers(0, 2, (300, 40), dtype=np.int8)),
                         fd.EmpiricalSet(rng.integers(0, 2, (250, 40), dtype=np.int8))),
    }


@pytest.mark.parametrize("case", ["equal-n", "unequal-n", "sawtooth-d16", "distinct-d40"])
def test_swd_matches_sort_formula(case):
    a, b = swd_cases()[case]
    est = fd.swd(a, b, n_dirs=300, rng=np.random.default_rng(13))
    ref = sort_formula_swd(a, b, 300, np.random.default_rng(13))
    assert est.value == pytest.approx(ref.value, rel=1e-12, abs=0)
    assert est.std_error == pytest.approx(ref.std_error, rel=1e-12, abs=0)


@pytest.mark.parametrize("case", ["equal-n", "unequal-n", "sawtooth-d16", "distinct-d40"])
def test_swd_is_symmetric_and_row_order_free(case):
    a, b = swd_cases()[case]
    est = fd.swd(a, b, n_dirs=200, rng=np.random.default_rng(14))
    assert fd.swd(b, a, n_dirs=200, rng=np.random.default_rng(14)) == est
    shuffled = fd.EmpiricalSet(a.samples[np.random.default_rng(15).permutation(a.n)])
    assert fd.swd(shuffled, b, n_dirs=200, rng=np.random.default_rng(14)) == est


@pytest.mark.parametrize("n_dirs", [0, -3])
def test_swd_rejects_nonpositive_direction_count(n_dirs):
    a = fd.EmpiricalSet(np.zeros((10, 3), dtype=np.int8))
    with pytest.raises(ValueError, match="n_dirs"):
        fd.swd(a, a, n_dirs=n_dirs, rng=np.random.default_rng(0))


def test_swd_peak_memory_is_bounded():
    rng = np.random.default_rng(10)
    a = fd.EmpiricalSet(rng.integers(0, 2, (20000, 8), dtype=np.int8))
    b = fd.EmpiricalSet(rng.integers(0, 2, (20000, 8), dtype=np.int8))
    tracemalloc.start()
    try:
        fd.swd(a, b, rng=np.random.default_rng(11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6  # the 20000 x 1000 projections alone would take 160 MB


def test_swd_sawtooth_self_distance_floor():
    dist = fd.sawtooth_params(16)
    a = dist.sample(20_000, np.random.default_rng(5))
    b = dist.sample(20_000, np.random.default_rng(6))
    est = fd.swd(a, b, n_dirs=1000, rng=np.random.default_rng(7))
    assert est.value + 3 * est.std_error < 2e-3


def test_swd_standard_error_scaling():
    """Reported Monte-Carlo error shrinks like n_dirs^(-1/2): log-log slope
    within -0.5 +- 0.1."""
    rng = np.random.default_rng(8)
    a = fd.sawtooth_params(6).sample(2000, rng)
    b = fd.sawtooth_params(6).sample(2000, rng)
    n_grid = np.array([16, 64, 256, 1024])
    ses = []
    for n_dirs in n_grid:
        reps = [fd.swd(a, b, n_dirs=int(n_dirs), rng=np.random.default_rng(100 + r)).std_error
                for r in range(4)]
        ses.append(np.mean(reps))
    slope = np.polyfit(np.log(n_grid), np.log(ses), 1)[0]
    assert abs(slope + 0.5) < 0.1


def test_swd_serialization():
    est = fd.SWDEstimate(value=0.5, n_directions=10, std_error=0.01)
    payload = json.loads(est.to_json())
    assert payload == {"value": 0.5, "n_directions": 10, "std_error": 0.01}


def test_fisher_info_uniform_is_zero():
    assert fd.flip_fisher_info(fd.uniform_table(4)) == pytest.approx(0.0, abs=1e-14)


def test_fisher_info_hand_enumeration():
    table = fd.DenseTable(np.array([0.3, 0.7]))
    # independent oracle: direct evaluation of the defining expectation
    def h(a):
        return a * np.log(a) - a + 1

    expected = 0.3 * h(0.7 / 0.3) + 0.7 * h(0.3 / 0.7)
    assert fd.flip_fisher_info(table) == pytest.approx(expected, abs=1e-14)
    assert expected == pytest.approx(0.3389, abs=5e-4)


def test_fisher_info_nonnegative_and_full_support():
    for seed in range(8):
        assert fd.flip_fisher_info(random_table(4, seed)) >= 0.0
    holey = fd.DenseTable(np.array([0.5, 0.5, 0.0, 0.0]))
    with pytest.raises(fd.AssumptionViolationError, match=r"\[0, 1\]"):
        fd.flip_fisher_info(holey)


def test_kl_bound_examples():
    report = fd.kl_convergence_bound(1.0, 2.0, 0.01, 0.0, 3.0)
    assert report.bound == pytest.approx(np.exp(-3.0) + 0.02)
    assert report.bound == pytest.approx(0.069787, abs=1e-6)
    pure = fd.kl_convergence_bound(0.7, 5.0, 0.0, 0.0, 2.0)
    assert pure.bound == pytest.approx(np.exp(-2.0) * 0.7)


def test_kl_bound_monotone_in_each_argument():
    base = dict(kl_init=1.0, beta=2.0, tau=0.01, eps=0.05, t_f=3.0)
    b0 = fd.kl_convergence_bound(**base).bound
    for key, bump in (("kl_init", 0.5), ("beta", 1.0), ("tau", 0.01), ("eps", 0.1)):
        up = dict(base)
        up[key] += bump
        assert fd.kl_convergence_bound(**up).bound >= b0


def test_bound_report_recompute_and_json():
    report = fd.kl_convergence_bound(1.0, 2.0, 0.01, 0.1, 3.0, measured_kl=0.02)
    recomputed = (np.exp(-report.t_f) * report.kl_init + report.tau * report.beta
                  + report.eps * (report.t_f - report.eta))
    assert report.bound == pytest.approx(recomputed, abs=1e-12)
    assert report.slack == pytest.approx(report.bound - 0.02, abs=1e-12)


def test_early_stop_bound_examples():
    assert fd.early_stop_tv_bound(0.0, LAM, 5) == (pytest.approx(0.0), pytest.approx(0.0))
    exact, loose = fd.early_stop_tv_bound(0.1, 1.0, 4)
    assert exact == pytest.approx(0.632323, abs=1e-5)
    assert loose == pytest.approx(0.68780, abs=1e-5)
    for eta in np.linspace(0.0, 1.0, 11):
        e, l = fd.early_stop_tv_bound(eta, 1.0, 6)
        assert e <= l + 1e-12


def test_measured_tv_below_early_stop_bound():
    rng = np.random.default_rng(9)
    for d in (2, 4, 6):
        mu = fd.DenseTable.normalized(rng.uniform(0.0, 1.0, 1 << d) + 1e-6)
        for eta in np.linspace(0.02, 0.5, 20):
            measured = fd.tv_distance(fd.marginal_table(mu, eta, LAM), mu)
            exact, _ = fd.early_stop_tv_bound(eta, LAM, d)
            assert measured <= exact + 1e-12


def test_plan_schedule_example():
    h, k_f, t_f = fd.plan_schedule(0.1, 1.0, 2.0)
    assert h == pytest.approx(0.025)
    assert k_f == 120
    assert t_f == pytest.approx(3.0)


def test_plan_schedule_rejects_degenerate():
    with pytest.raises(fd.PlanningError):
        fd.plan_schedule(0.1, 1.0, 0.0)
    with pytest.raises(fd.PlanningError):
        fd.plan_schedule(-0.1, 1.0, 1.0)


def test_plan_early_stop_satisfies_tv_budget():
    for eps in (0.05, 0.2, 0.8):
        eta, h, k_f = fd.plan_early_stop(eps, 5, 1.0, 1.0)
        assert eta > 0 and h > 0 and k_f >= 1
        assert 2 - 2 * (1 - 1.0 * eta) ** 5 <= eps + 1e-12
    with pytest.raises(fd.PlanningError):
        fd.plan_early_stop(2.0, 5, 1.0, 1.0)


def test_exact_backward_marginal_uniform_fixed_point():
    src = fd.ExactScoreSource(fd.uniform_table(3), LAM, 4.0)
    for k in (1, 7, 60):
        sch = fd.time_grid("linear", k, 4.0)
        out = fd.exact_backward_marginal(src, sch, LAM)
        assert np.max(np.abs(out.mass - 1 / 8)) < 1e-12


def test_exact_backward_marginal_conserves_mass():
    mu = random_table(4, 10)
    src = fd.ExactScoreSource(mu, LAM, 4.0)
    sch = fd.time_grid("cosine", 120, 4.0)
    out = fd.exact_backward_marginal(src, sch, LAM)
    assert abs(out.mass.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_exact_reverse_law_product_matches_dense(d):
    probs = np.random.default_rng(50 + d).uniform(0.02, 0.98, d)
    product = fd.ProductBernoulli(probs)
    for t_f in (0.05, 0.25, 3.0, 50.0):
        nu_p = fd.exact_reverse_law(product, LAM, t_f)
        nu_d = fd.exact_reverse_law(product.to_table(), LAM, t_f)
        assert isinstance(nu_p, fd.ProductBernoulli)
        assert np.abs(nu_p.to_table().mass - nu_d.mass).max() < 1e-12


def test_exact_backward_marginal_first_order_in_k():
    """On a linear grid the frozen-generator law approaches the reverse law
    nu at first order in the step: ten times the steps, about a tenth of the
    TV (1.8e-2 and 1.8e-3 on sawtooth d=3)."""
    dist, t_f = fd.sawtooth_params(3), 3.0
    src = fd.ExactScoreSource(dist, LAM, t_f)
    nu = fd.exact_reverse_law(dist, LAM, t_f).to_table()
    tv = {k: fd.tv_distance(fd.exact_backward_marginal(src, fd.time_grid("linear", k, t_f), LAM),
                            nu) for k in (400, 4000)}
    assert 5.0 < tv[400] / tv[4000] < 20.0, tv


def per_step_backward_marginal(src, schedule, lam):
    """exact_backward_marginal with one score_batch call and one rate check
    per grid step: the reference the blocked form must equal bit for bit."""
    d = src.d
    mass = np.full(1 << d, 1.0 / (1 << d))
    states = fd.all_states(d)
    grid = schedule.grid
    for k in range(schedule.n_steps):
        rates = fd.score._check_rates(lam * (1.0 - src.score_batch(grid[k], states)), lam, grid[k])
        mass = fd.metrics._uniformized_step(mass, rates, grid[k + 1] - grid[k])
    return fd.DenseTable(mass)


def blocked_marginal_sources():
    for d in (2, 3, 4, 6, 8):
        yield f"dense-d{d}", fd.ExactScoreSource(random_table(d, 60 + d), LAM, 3.0)
    product = fd.ExactScoreSource(fd.ProductBernoulli([0.1, 0.5, 0.85]), LAM, 3.0)
    yield "product-d3", product
    yield "shifted-d3", fd.ShiftedScoreSource(fd.ExactScoreSource(random_table(3, 66), LAM, 3.0),
                                              0.05)


class RowCountingSource:
    """Wrapper that records the row count of every score_rows call."""

    def __init__(self, inner):
        self.inner = inner
        self.rows: list[int] = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def score_rows(self, ts, X):
        self.rows.append(len(ts))
        return self.inner.score_rows(ts, X)


@pytest.mark.parametrize("block_rows", [None, 3, 40])
def test_blocked_marginal_matches_per_step_scoring(block_rows, monkeypatch):
    """Whole-grid scoring in blocks of any size gives the per-step law's bits;
    3 rows makes every block one step, 40 rows ragged blocks of several. No
    call scores more rows than the cap, or than one step where that is more."""
    if block_rows is not None:
        monkeypatch.setattr(fd.metrics, "EXACT_BACKWARD_BLOCK_ROWS", block_rows)
    cap = fd.metrics.EXACT_BACKWARD_BLOCK_ROWS
    for name, src in blocked_marginal_sources():
        for kind in ("linear", "cosine"):
            sch = fd.time_grid(kind, 37, 3.0)
            counted = RowCountingSource(src)
            out = fd.exact_backward_marginal(counted, sch, LAM)
            ref = per_step_backward_marginal(src, sch, LAM)
            assert out.mass.tobytes() == ref.mass.tobytes(), (name, kind)
            assert sum(counted.rows) == 37 << src.d
            assert max(counted.rows) <= max(cap, 1 << src.d)


def test_exact_reverse_law_matches_kernel_sum():
    """nu(x) = mu*(x) sum_y p_{t_f}(x, y) pi(y) / mu_{t_f}(y), term by term
    from the forward kernel; uniform data is a fixed point, and t_f must be
    positive."""
    mu = random_table(3, 51)
    t_f = 0.4
    states = fd.all_states(3)
    K = np.array([[fd.kernel(x, y, t_f, LAM) for y in states] for x in states])
    mu_tf = mu.mass @ K
    assert np.allclose(fd.exact_reverse_law(mu, LAM, t_f).mass,
                       mu.mass * (K @ (1 / 8 / mu_tf)), atol=1e-14)
    assert np.allclose(fd.exact_reverse_law(fd.uniform_table(3), LAM, t_f).mass, 1 / 8,
                       atol=1e-15)
    with pytest.raises(ValueError, match="t_f"):
        fd.exact_reverse_law(mu, LAM, 0.0)


def test_kl_bound_holds_on_instance_and_k_refinement():
    mu = random_table(3, 11)
    t_f = 4.0
    src = fd.ExactScoreSource(mu, LAM, t_f)
    kl_init = fd.kl_divergence(mu, fd.uniform_table(3))
    beta = fd.flip_fisher_info(mu)
    measured = {}
    for k in (25, 100, 200):
        sch = fd.time_grid("linear", k, t_f)
        terminal = fd.exact_backward_marginal(src, sch, LAM)
        measured[k] = fd.kl_divergence(mu, terminal)
        report = fd.kl_convergence_bound(kl_init, beta, sch.max_step, 0.0, t_f,
                                         measured_kl=measured[k])
        assert report.slack >= 0.0
    print("KL by refinement:", {k: f"{v:.3e}" for k, v in measured.items()})
    assert measured[200] <= measured[25] + 1e-9


def test_kl_bound_holds_with_early_stopping():
    """Early-stopped variant: the terminal law of a grid ending at t_f - eta
    is compared against the running marginal mu_eta, with the information
    term evaluated at mu_eta."""
    mu = random_table(3, 30)
    t_f = 4.0
    src = fd.ExactScoreSource(mu, LAM, t_f)
    kl_init = fd.kl_divergence(mu, fd.uniform_table(3))
    for eta in (0.05, 0.1):
        target = fd.marginal_table(mu, eta, LAM)
        beta_eta = fd.flip_fisher_info(target)
        sch = fd.time_grid("linear", 100, t_f, eta=eta)
        terminal = fd.exact_backward_marginal(src, sch, LAM)
        measured = fd.kl_divergence(target, terminal)
        rep = fd.kl_convergence_bound(kl_init, beta_eta, sch.max_step, 0.0, t_f,
                                      eta=eta, measured_kl=measured)
        assert rep.slack >= 0.0


def test_discretized_sampler_approaches_exact_propagation():
    """The one-flip-per-interval sampler and the exact frozen-generator law
    are distinct constructions; they converge toward each other as the grid
    refines. Reported, with only the fine-grid gap gated loosely."""
    mu = random_table(3, 31)
    t_f = 3.0
    src = fd.ExactScoreSource(mu, LAM, t_f)
    gaps = {}
    for k in (25, 400):
        sch = fd.time_grid("cosine", k, t_f)
        exact_law = fd.exact_backward_marginal(src, sch, LAM)
        states = fd.sample_discretized_batch(src, sch, LAM, 60_000,
                                             np.random.default_rng(32))
        gaps[k] = fd.tv_distance(fd.EmpiricalSet(states).counts_table(), exact_law)
    print(f"sampler vs frozen-generator law, TV by K: {gaps}")
    assert gaps[400] < 0.05


def test_exact_backward_marginal_dimension_guard():
    src = fd.ExactScoreSource(fd.uniform_table(3), LAM, 4.0)
    src.d = 11  # simulate an oversized state space
    with pytest.raises(fd.EnumerationLimitError):
        fd.exact_backward_marginal(src, fd.time_grid("linear", 5, 4.0), LAM)


class InjectedScoreSource:
    """Wraps a source and overwrites one score entry at every query, from
    backward time ``t_from`` on: row 1, coordinate 0 of each grid step, both
    for a one-time query and for the stacked steps of a per-row-time one."""

    def __init__(self, inner, value, t_from=0.0):
        self.inner = inner
        self.value = value
        self.t_from = t_from

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def score_batch(self, t, X):
        out = self.inner.score_batch(t, X).copy()
        if t >= self.t_from:
            out[1, 0] = self.value
        return out

    def score_rows(self, ts, X):
        out = self.inner.score_rows(ts, X).copy()
        rows = np.arange(1, len(ts), 1 << self.inner.d)  # row 1 of each 2^d-row step
        rows = rows[np.asarray(ts)[rows] >= self.t_from]
        out[rows, 0] = self.value
        return out


def test_exact_backward_marginal_rejects_bad_rates():
    src = fd.ExactScoreSource(random_table(3, 16), LAM, 3.0)
    sch = fd.time_grid("linear", 5, 3.0)
    # a NaN score, and a -inf score (a rate of +inf), used to give an all-NaN law
    for value in (np.nan, -np.inf):
        with pytest.raises(fd.SamplerError, match="t="):
            fd.exact_backward_marginal(InjectedScoreSource(src, value), sch, LAM)
    with pytest.raises(fd.InvalidScoreError, match="t="):  # a rate of -1e-3 * lam
        fd.exact_backward_marginal(InjectedScoreSource(src, 1.0 + 1e-3), sch, LAM)


@pytest.mark.parametrize("block_rows", [None, 3, 40])
def test_exact_backward_marginal_names_first_bad_grid_time(block_rows, monkeypatch):
    """Rates go bad from the 13th of 20 grid times on, a NaN later than a
    negative rate: the error is the negative rate's, at the 13th time, in
    one block or spread over several."""
    if block_rows is not None:
        monkeypatch.setattr(fd.metrics, "EXACT_BACKWARD_BLOCK_ROWS", block_rows)
    src = fd.ExactScoreSource(random_table(3, 16), LAM, 3.0)
    sch = fd.time_grid("linear", 20, 3.0)
    bad = InjectedScoreSource(InjectedScoreSource(src, 1.0 + 1e-3, sch.grid[12]), np.nan,
                              sch.grid[15])
    with pytest.raises(fd.InvalidScoreError, match=re.escape(f"t={sch.grid[12]!r}")):
        fd.exact_backward_marginal(bad, sch, LAM)


def bincount_uniformized_step(mass, rates, h, tail=fd.metrics.UNIFORMIZATION_TAIL):
    """_uniformized_step with the flows scattered by np.bincount, as the
    bit-level reference."""
    d = rates.shape[1]
    exit_rate = rates.sum(axis=1)
    rate_max = float(exit_rate.max())
    if rate_max <= 0 or h <= 0:
        return mass.copy()
    a = rate_max * h
    idx = np.arange(mass.size)
    flip_idx = idx[:, None] ^ (1 << np.arange(d))

    def apply_p(v):
        out = v * (1.0 - exit_rate / rate_max)
        flow = v[:, None] * rates / rate_max
        for coord in range(d):
            out += np.bincount(flip_idx[:, coord], weights=flow[:, coord], minlength=v.size)
        return out

    weight = np.exp(-a)
    cum = weight
    term = mass
    acc = weight * mass
    k = 0
    while cum < 1.0 - tail:
        term = apply_p(term)
        k += 1
        weight *= a / k
        cum += weight
        acc += weight * term
    return acc / acc.sum()


def uniformization_cases(rng):
    for d in range(1, 7):
        mass = rng.dirichlet(np.ones(1 << d))
        rates = rng.uniform(0.0, 3.0, size=(1 << d, d))
        rates[rng.random(1 << d) < 0.25] = 0.0  # zero-rate rows
        yield mass, rates, rng.uniform(0.01, 0.5)


def test_uniformized_step_matches_bincount_form_bit_for_bit():
    rng = np.random.default_rng(17)
    for mass, rates, h in uniformization_cases(rng):
        out = fd.metrics._uniformized_step(mass, rates, h)
        assert out.tobytes() == bincount_uniformized_step(mass, rates, h).tobytes()
    mass = rng.dirichlet(np.ones(8))
    for rates, h in ((np.zeros((8, 3)), 0.3), (rng.uniform(0.0, 1.0, (8, 3)), 0.0)):
        out = fd.metrics._uniformized_step(mass, rates, h)
        assert out is not mass and out.tobytes() == mass.tobytes()


def test_uniformized_step_matches_matrix_exponential():
    rng = np.random.default_rng(18)
    for mass, rates, h in uniformization_cases(rng):
        d = rates.shape[1]
        if d > 4:
            break
        q = np.zeros((1 << d, 1 << d))
        for x in range(1 << d):
            for coord in range(d):
                q[x, x ^ (1 << coord)] = rates[x, coord]
            q[x, x] = -rates[x].sum()
        expected = mass @ expm(h * q)
        out = fd.metrics._uniformized_step(mass, rates, h)
        assert np.max(np.abs(out - expected)) < 1e-12


def test_score_error_estimate_zero_for_exact():
    mu = random_table(3, 12)
    src = fd.ExactScoreSource(mu, LAM, 3.0)
    sch = fd.time_grid("cosine", 40, 3.0)
    est = fd.estimate_score_error(src, src, sch, LAM, 500, np.random.default_rng(13))
    assert est.eps_max == pytest.approx(0.0, abs=1e-12)


def test_score_error_estimate_detects_corruption():
    mu = random_table(3, 14)
    exact = fd.ExactScoreSource(mu, LAM, 3.0)
    corrupted = fd.ShiftedScoreSource(exact, rate_bump=0.5)
    sch = fd.time_grid("cosine", 40, 3.0)
    est = fd.estimate_score_error(corrupted, exact, sch, LAM, 2000,
                                  np.random.default_rng(15))
    assert est.eps_max > 0.05
    assert est.std_error < est.eps_max
