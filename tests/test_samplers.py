"""Backward samplers: fixed points, law recovery, cross-sampler agreement,
grid contracts, and dump I/O."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flipdiff as fd
from _stats import assert_uniform_chi2, chi2_pvalue, ALPHA_3SIGMA

LAM = 1.0


def exact_src(dist, t_f=3.0):
    return fd.ExactScoreSource(dist, LAM, t_f)


def empirical_tv(states, table):
    return fd.tv_distance(fd.EmpiricalSet(states).counts_table(), table.to_table())


class ConstantScoreSource:
    """Fixed score vector at every (t, x); for contract tests."""

    kind = "constant"

    def __init__(self, svec, lam, t_f):
        self.svec = np.asarray(svec, dtype=np.float64)
        self.lam, self.t_f, self.d = lam, t_f, self.svec.size

    def score_batch(self, t, X):
        return np.tile(self.svec, (np.asarray(X).shape[0], 1))

    def denoiser_batch(self, t, X):
        raise NotImplementedError


# --- score sources ----------------------------------------------------------

def test_exact_source_product_matches_dense():
    dist = fd.sawtooth_params(4)
    src_p = exact_src(dist)
    src_d = exact_src(dist.to_table())
    rng = np.random.default_rng(0)
    X = rng.integers(0, 2, (40, 4))
    for t in (0.0, 1.1, 2.9):
        assert np.allclose(src_p.score_batch(t, X), src_d.score_batch(t, X), atol=1e-12)
        assert np.allclose(src_p.denoiser_batch(t, X), src_d.denoiser_batch(t, X), atol=1e-12)


def test_exact_source_matches_oracle_functions():
    """The source's score and denoiser against a brute-force posterior over
    all clean states, built from the forward kernel alone."""
    dist = fd.DenseTable.normalized(np.random.default_rng(1).uniform(0.1, 1, 16))
    src = exact_src(dist)
    states = fd.all_states(4)
    for t in (0.0, 0.4, 2.2, 3.0 - 1e-6):
        u = 3.0 - t
        joint = np.array([[dist.mass[i] * fd.kernel(z, x, u, LAM) for i, z in enumerate(states)]
                          for x in states])  # joint[x, z] = mu0(z) p_u(z, x)
        marg = joint.sum(axis=1)
        scores, denoisers = src.score_batch(t, states), src.denoiser_batch(t, states)
        for i, x in enumerate(states):
            flipped = [marg[fd.state_index(fd.flip(x, ell))] for ell in range(4)]
            score = 1.0 - np.array(flipped) / marg[i]
            denoiser = (joint[i] / marg[i]) @ (states != x)
            assert np.allclose(scores[i], score, atol=1e-12)
            assert np.allclose(denoisers[i], denoiser, atol=1e-12)


@pytest.mark.parametrize("d", range(1, 7))
def test_dense_score_matches_kernel_sums_at_per_row_times(d):
    """The dense score at one time per row, against the marginal summed over
    all clean states with the forward kernel, at forward times near 0, at
    T_MIN and across the horizon."""
    t_f = 3.0
    rng = np.random.default_rng(40 + d)
    dist = fd.DenseTable.normalized(rng.uniform(0.05, 1.0, 1 << d))
    states = fd.all_states(d)
    X = states[rng.integers(0, 1 << d, 12)]
    ts = rng.uniform(0.0, t_f, len(X))
    ts[:3] = [t_f - 1e-12, t_f - fd.T_MIN, 0.0]
    got = exact_src(dist, t_f).score_rows(ts, X)
    for x, t, row in zip(X, ts, got):
        def marginal(y):
            return sum(m * fd.kernel(z, y, t_f - t, LAM) for m, z in zip(dist.mass, states))
        ref = [1.0 - marginal(fd.flip(x, ell)) / marginal(x) for ell in range(d)]
        np.testing.assert_allclose(row, ref, rtol=0, atol=1e-12)


def test_dense_score_rows_zero_mass_state_errors():
    src = exact_src(fd.delta_table([0, 1, 1]))
    X = np.array([[0, 1, 1], [1, 1, 1]], dtype=np.int8)
    for query in (src.score_rows, src.denoiser_rows):
        assert np.isfinite(query(np.array([3.0, 1.0]), X)).all()
        with pytest.raises(ValueError, match="zero mass"):
            query(np.array([1.0, 3.0]), X)  # forward time 0 at a zero-mass state


def test_learned_source_scores_satisfy_rate_positivity():
    cfg = fd.ModelConfig(d=3, blocks=1, width=16, time_embed_dim=8, seed=2)
    rng = np.random.default_rng(3)
    params = fd.init_params(cfg) + rng.normal(0, 0.5, fd.param_count(cfg))
    src = fd.LearnedScoreSource(params, cfg, LAM, 3.0)
    X = rng.integers(0, 2, (60, 3))
    for t in (0.0, 1.5, 2.999):
        s = src.score_batch(t, X)
        assert (1.0 - s > 0).all()


def test_shifted_source_denoiser_follows_shifted_score():
    """The wrapper's denoiser is the one of its shifted score, in both forms."""
    src = fd.ShiftedScoreSource(exact_src(fd.sawtooth_params(3)), rate_bump=0.5)
    X = fd.all_states(3)
    ts = np.random.default_rng(33).uniform(0.0, 2.5, len(X))
    for t in (0.0, 1.0, 2.5):
        got = fd.score_from_denoiser(src.denoiser_batch(t, X), t, LAM, 3.0)
        np.testing.assert_allclose(got, src.score_batch(t, X), rtol=0, atol=1e-12)
    got = fd.score_from_denoiser(src.denoiser_rows(ts, X), ts[:, None], LAM, 3.0)
    np.testing.assert_allclose(got, src.score_rows(ts, X), rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.int8, np.float64])
def test_learned_source_dedup_keeps_row_order(dtype):
    cfg = fd.ModelConfig(d=4, blocks=2, width=24, time_embed_dim=12, seed=3)
    rng = np.random.default_rng(31)
    params = fd.init_params(cfg) + rng.normal(0, 0.2, fd.param_count(cfg))
    src = fd.LearnedScoreSource(params, cfg, LAM, 3.0)
    X = rng.integers(0, 2, (6, 4))[rng.integers(0, 6, 300)].astype(dtype)
    perm = rng.permutation(300)
    tol = 4 * np.finfo(float).eps
    for t in (0.0, 1.5, 2.9):
        ts = np.full(300, t)
        # a denoiser error e moves the score by b_coef * e
        b_coef = fd.score_from_denoiser(0.0, t, LAM, 3.0) - fd.score_from_denoiser(1.0, t, LAM, 3.0)
        dvec, svec = src.denoiser_batch(t, X), src.score_batch(t, X)
        np.testing.assert_allclose(dvec, src.denoiser_rows(ts, X), rtol=0, atol=tol)
        np.testing.assert_allclose(svec, src.score_rows(ts, X), rtol=0, atol=tol * b_coef)
        # the distinct rows, and so the evaluated batch, do not depend on row order
        assert (src.denoiser_batch(t, X[perm]) == dvec[perm]).all()
        assert (src.score_batch(t, X[perm]) == svec[perm]).all()
    empty = np.zeros((0, 4), dtype=dtype)
    assert src.denoiser_batch(1.0, empty).shape == (0, 4)
    assert src.score_batch(1.0, empty).shape == (0, 4)


class TimeRecordingSource:
    """Wrapper that logs every time the score or the denoiser is queried at."""

    def __init__(self, inner):
        self.inner = inner
        self.times: set[float] = set()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def score_batch(self, t, X):
        self.times.add(float(t))
        return self.inner.score_batch(t, X)

    def score_rows(self, ts, X):
        self.times.update(np.asarray(ts, dtype=np.float64).tolist())
        return self.inner.score_rows(ts, X)

    def denoiser_batch(self, t, X):
        self.times.add(float(t))
        return self.inner.denoiser_batch(t, X)


class RowsOnlyScoreSource:
    """Wrapper that records the times and row count of every score_rows call
    and refuses scalar-time queries."""

    def __init__(self, inner):
        self.inner = inner
        self.d, self.lam, self.t_f = inner.d, inner.lam, inner.t_f
        self.times: list[np.ndarray] = []

    def score_rows(self, ts, X):
        self.times.append(np.array(ts, dtype=np.float64))
        return self.inner.score_rows(ts, X)

    def score_batch(self, t, X):
        raise AssertionError("the thinning sampler queried a scalar time")


# the two continuous-time samplers; both accept through samplers._thinning_flips
THINNING_SAMPLERS = {"continuous": fd.sample_continuous_batch,
                     "percoord": fd.sample_percoord_batch}


def test_continuous_thinning_proposal_count():
    """Proposals are scored at per-chain times inside (0, t_f), one row each.
    The squeeze accepts a proposal unscored with probability floor/R, so the
    scored ones per chain are Poisson with mean the integral of d*(R - floor)
    over [0, t_f]: R = lam*coth(lam*max(u, T_MIN)) integrates to
    ln sinh(lam*t_f) - ln sinh(lam*T_MIN) + lam*T_MIN*coth(lam*T_MIN), and
    floor = lam*tanh(lam*u) to ln cosh(lam*t_f). The same holds for d
    per-coordinate clocks on R each as for one clock on d*R."""
    n, t_f, d = 400, 3.0, 3
    z_f, z_min = LAM * t_f, LAM * fd.T_MIN
    expected = d * (np.log(np.sinh(z_f)) - np.log(np.sinh(z_min)) + z_min / np.tanh(z_min))
    expected -= d * np.log(np.cosh(z_f))
    for kind, sample in THINNING_SAMPLERS.items():
        src = RowsOnlyScoreSource(exact_src(fd.sawtooth_params(d), t_f))
        sample(src, n, np.random.default_rng(32))
        times = np.concatenate(src.times)
        assert ((times > 0.0) & (times < t_f)).all(), kind
        mean = times.size / n
        assert abs(mean - expected) < 3 * np.sqrt(expected / n), kind


def equivalence_laws():
    dense = np.random.default_rng(33).uniform(0.05, 1.0, 16)
    return {"product-d3": fd.ProductBernoulli([0.1, 0.5, 0.85]),
            "dense-d4": fd.DenseTable.normalized(dense)}


@pytest.mark.parametrize("law", ["product-d3", "dense-d4"])
def test_exact_score_batch_matches_score_rows_bitwise(law):
    t_f = 3.0
    src = exact_src(equivalence_laws()[law], t_f)
    rng = np.random.default_rng(34)
    X = rng.integers(0, 2, (500, src.d), dtype=np.int8)
    for t in (0.0, 0.001, 0.7, 1.5, 2.25, 2.999, t_f):
        batch = src.score_batch(t, X)
        assert batch.tobytes() == src.score_rows(np.full(X.shape[0], t), X).tobytes()
    empty = np.zeros((0, src.d), dtype=np.int8)
    assert src.score_batch(1.0, empty).shape == (0, src.d)
    with pytest.raises(ValueError):
        src.score_batch(t_f + 1e-9, X)


class PerRowScoreSource:
    """Wrapper whose scalar-time score query takes the per-row-time path."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def score_batch(self, t, X):
        return self.inner.score_rows(np.full(np.asarray(X).shape[0], t), X)


@pytest.mark.parametrize("law", ["product-d3", "dense-d4"])
def test_batch_samplers_match_per_row_score_path(law):
    src = exact_src(equivalence_laws()[law])
    per_row = PerRowScoreSource(src)
    sch = fd.time_grid("cosine", 30, 3.0)
    flips = fd.flip_counts("linear", sch, src.d)
    runs = {
        "continuous": lambda s, rng: fd.sample_continuous_batch(s, 300, rng,
                                                                return_jump_counts=True),
        "percoord": lambda s, rng: (fd.sample_percoord_batch(s, 300, rng),),
        "discrete": lambda s, rng: (fd.sample_discretized_batch(s, sch, LAM, 300, rng),),
        "flip": lambda s, rng: (fd.sample_flip_schedule_batch(s, sch, flips, LAM, 300, rng),),
    }
    for kind, run in runs.items():
        fast = run(src, np.random.default_rng(35))
        slow = run(per_row, np.random.default_rng(35))
        for a, b in zip(fast, slow):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), kind


def test_rate_rows_validation():
    lam = 2.5
    X = np.zeros((4, 2), dtype=np.int8)

    def rates_for(rate):
        # a constant score whose backward rate lam * (1 - s) is `rate` in coordinate 1
        src = ConstantScoreSource(np.array([0.5, 1.0 - rate / lam]), lam, 3.0)
        return fd.samplers._rate_rows(src, 1.0, X, lam)

    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(fd.SamplerError):
            rates_for(bad)
    mixed = ConstantScoreSource(np.array([np.nan, 1e6]), lam, 3.0)  # NaN beside rate -2.5e6
    with pytest.raises(fd.SamplerError):
        fd.samplers._rate_rows(mixed, 1.0, X, lam)
    with pytest.raises(fd.InvalidScoreError):
        rates_for(-1e-3 * lam)
    clamped = rates_for(-1e-12 * lam)
    assert (clamped[:, 1] == 0.0).all() and (clamped[:, 0] == 0.5 * lam).all()
    ok = ConstantScoreSource(np.array([0.5, -0.25]), lam, 3.0)
    assert (fd.samplers._rate_rows(ok, 1.0, X, lam) == lam * (1.0 - ok.svec)).all()
    empty = fd.samplers._rate_rows(ok, 1.0, np.zeros((0, 2), dtype=np.int8), lam)
    assert empty.shape == (0, 2)


@st.composite
def dense_law_and_time(draw):
    d = draw(st.integers(1, 4))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=1 << d, max_size=1 << d))
    t = draw(st.floats(0.0, 3.0, exclude_max=True))
    return fd.DenseTable.normalized(weights), t


@settings(max_examples=60, deadline=None)
@given(dense_law_and_time())
def test_exact_rates_are_valid_and_match_backward_rates(case):
    dist, t = case
    src, X = exact_src(dist), fd.all_states(dist.d)
    rates = fd.samplers._rate_rows(src, t, X, LAM)
    assert np.isfinite(rates).all() and (rates >= 0).all()


def test_row_totals_match_numpy_row_sums():
    rng = np.random.default_rng(44)
    for d in range(1, 17):
        if d < 8:
            # mixed magnitudes, so a different addition order would show
            rates = rng.uniform(0.0, 3.0, (500, d)) * 10.0 ** rng.integers(-6, 7, (500, d))
        else:
            rates = rng.uniform(0.0, 3.0, (500, d))
        rates[rng.random(rates.shape) < 0.2] = 0.0
        totals = fd.samplers._row_totals(rates)
        ref = rates.sum(axis=1)
        if d < 8:
            assert totals.tobytes() == ref.tobytes(), d
        else:
            assert (np.abs(totals - ref) <= 4 * np.spacing(ref)).all(), d
    assert fd.samplers._row_totals(np.zeros((0, 5))).shape == (0,)


def test_recording_source_sees_only_grid_times():
    dist = fd.sawtooth_params(3)
    sch = fd.time_grid("cosine", 25, 3.0)
    flips = fd.flip_counts("linear", sch, 3)
    for kind in ("discrete", "flip", "denoise"):
        rec = TimeRecordingSource(exact_src(dist))
        fd.generate(kind, rec, 64, np.random.default_rng(4), schedule=sch, flips=flips)
        assert rec.times <= set(sch.grid[:-1].tolist())


def test_recording_source_sees_continuous_proposal_times():
    rec = TimeRecordingSource(exact_src(fd.sawtooth_params(3)))
    fd.generate("continuous", rec, 64, np.random.default_rng(4))
    assert rec.times and all(0.0 < t < 3.0 for t in rec.times)


# --- uniform fixed point ------------------------------------------------------

@pytest.mark.parametrize("kind", ["continuous", "percoord", "discrete", "flip", "denoise"])
def test_uniform_data_stays_uniform(kind):
    src = exact_src(fd.uniform_table(3))
    sch = fd.time_grid("cosine", 50, 3.0)
    flips = fd.flip_counts("constant", sch, 6)
    states = fd.generate(kind, src, 20_000, np.random.default_rng(5),
                         schedule=sch, flips=flips)
    assert_uniform_chi2(states, 3)


# --- law recovery -------------------------------------------------------------

def test_continuous_recovers_full_support_law():
    rng = np.random.default_rng(6)
    dist = fd.DenseTable.normalized(rng.uniform(0.2, 1.0, 4))
    src = exact_src(dist, t_f=6.0)
    states = fd.sample_continuous_batch(src, 40_000, np.random.default_rng(7))
    assert empirical_tv(states, dist) < 0.03


def test_percoord_matches_continuous():
    dist = fd.sawtooth_params(3)
    src = exact_src(dist)
    a = fd.sample_continuous_batch(src, 40_000, np.random.default_rng(8))
    b = fd.sample_percoord_batch(src, 40_000, np.random.default_rng(9))
    tv = fd.tv_distance(fd.EmpiricalSet(a).counts_table(), fd.EmpiricalSet(b).counts_table())
    assert tv < 0.02


def test_continuous_matches_batch_law():
    dist = fd.sawtooth_params(2)
    states = fd.sample_continuous_batch(exact_src(dist), 3000, np.random.default_rng(11))
    counts = np.bincount(fd.state_indices(states), minlength=4)
    assert chi2_pvalue(counts, dist.to_table().mass) > ALPHA_3SIGMA


def test_continuous_matches_dense_law():
    dist = fd.DenseTable.normalized(np.random.default_rng(36).uniform(0.05, 1.0, 8))
    states = fd.sample_continuous_batch(exact_src(dist), 3000, np.random.default_rng(37))
    counts = np.bincount(fd.state_indices(states), minlength=8)
    assert chi2_pvalue(counts, dist.mass) > ALPHA_3SIGMA


def test_continuous_rejects_rates_above_thinning_bound():
    src = fd.ShiftedScoreSource(exact_src(fd.sawtooth_params(3)), rate_bump=0.5)
    for sample in THINNING_SAMPLERS.values():
        with pytest.raises(fd.SamplerError, match="exceeds the thinning bound"):
            sample(src, 200, np.random.default_rng(38))


def reverse_law_sources():
    dense = np.random.default_rng(43).uniform(0.05, 1.0, 8)
    return {"dense-d3": fd.DenseTable.normalized(dense),
            "product-d3": fd.ProductBernoulli([0.1, 0.6, 0.85])}


@pytest.mark.parametrize("t_f", [0.25, 3.0])
@pytest.mark.parametrize("name", ["dense-d3", "product-d3"])
def test_continuous_matches_exact_reverse_law(name, t_f):
    """Thinning is exact, so its output follows the reverse law nu started
    from uniform, not the data law. At t_f = 0.25 the two are far apart and
    the same counts reject mu*."""
    dist = reverse_law_sources()[name]
    n = 40_000
    states = fd.sample_continuous_batch(exact_src(dist, t_f), n, np.random.default_rng(44))
    counts = np.bincount(fd.state_indices(states), minlength=8)
    nu = fd.exact_reverse_law(dist, LAM, t_f).to_table().mass
    assert chi2_pvalue(counts, nu) > ALPHA_3SIGMA
    if t_f < 1.0:
        assert chi2_pvalue(counts, dist.to_table().mass) < ALPHA_3SIGMA


@pytest.mark.parametrize("t_f", [0.25, 3.0])
@pytest.mark.parametrize("name", ["dense-d3", "product-d3"])
def test_percoord_matches_exact_reverse_law(name, t_f):
    """The per-coordinate clocks are exact thinning too, so they follow nu
    and, at t_f = 0.25, the same counts reject mu*."""
    dist = reverse_law_sources()[name]
    n = 20_000
    states = fd.sample_percoord_batch(exact_src(dist, t_f), n, np.random.default_rng(50))
    counts = np.bincount(fd.state_indices(states), minlength=8)
    nu = fd.exact_reverse_law(dist, LAM, t_f).to_table().mass
    assert chi2_pvalue(counts, nu) > ALPHA_3SIGMA
    if t_f < 1.0:
        assert chi2_pvalue(counts, dist.to_table().mass) < ALPHA_3SIGMA


def test_continuous_stays_finite_at_large_lam_t_f():
    """lam*t_f = 800 is past where sinh overflows (710): the proposal times
    come out finite and warning-free, and the output follows nu."""
    dist, t_f, n = fd.ProductBernoulli([0.3]), 800.0, 4000
    nu = fd.exact_reverse_law(dist, LAM, t_f).to_table().mass
    for kind, sample in THINNING_SAMPLERS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = sample(exact_src(dist, t_f), n, np.random.default_rng(45))
        counts = np.bincount(fd.state_indices(states), minlength=2)
        assert chi2_pvalue(counts, nu) > ALPHA_3SIGMA, kind


def unsqueezed_continuous(src, n, rng):
    """The thinning loop without the squeeze: every proposal on the envelope
    is scored and flips with probability rate/R. The reference the sampler
    must equal."""
    lam, d, t_f = src.lam, src.d, src.t_f
    X = rng.integers(0, 2, size=(n, d), dtype=np.int8)
    jumps = np.zeros(n, dtype=np.int64)
    live, u = np.arange(n), np.full(n, t_f)
    while live.size:
        t = t_f - fd.samplers._next_proposal(u, rng.exponential(size=live.size), d, lam, lam)
        live, t = live[t < t_f], t[t < t_f]
        u = t_f - t
        coords = rng.integers(0, d, size=live.size)
        rates = lam * (1.0 - src.score_rows(t, X[live]))
        bound = lam / np.tanh(lam * np.maximum(u, fd.T_MIN))
        ratio = np.maximum(rates, 0.0)[np.arange(live.size), coords] / bound
        assert (ratio <= 1.0 + fd.score.RATE_TOL).all()
        flip = rng.random(live.size) < ratio
        X[live[flip], coords[flip]] ^= 1
        jumps[live[flip]] += 1
    return X, jumps


def squeeze_sources():
    dense = np.random.default_rng(39).uniform(0.05, 1.0, 16)
    cfg = fd.ModelConfig(d=8, blocks=1, width=32, time_embed_dim=16, seed=8)
    params = fd.init_params(cfg) + np.random.default_rng(40).normal(0.0, 0.3, fd.param_count(cfg))
    return {
        "product-d3": exact_src(fd.ProductBernoulli([0.1, 0.5, 0.85])),
        "dense-d4": exact_src(fd.DenseTable.normalized(dense)),
        "learned-d8": fd.LearnedScoreSource(params, cfg, LAM, 3.0),
    }


@pytest.mark.parametrize("name", ["product-d3", "dense-d4", "learned-d8"])
def test_continuous_squeeze_matches_unsqueezed_loop(name):
    """The squeeze changes which proposals are scored, never a state or a
    jump count."""
    src = squeeze_sources()[name]
    n = 200 if src.kind == "learned" else 2000
    X, jumps = fd.sample_continuous_batch(src, n, np.random.default_rng(41),
                                          return_jump_counts=True)
    X_ref, jumps_ref = unsqueezed_continuous(src, n, np.random.default_rng(41))
    assert (X == X_ref).all() and (jumps == jumps_ref).all()


def allocating_rate_rows(src, t, X, lam):
    return fd.score._check_rates(lam * (1.0 - src.score_batch(t, X)), lam, t)


def unsqueezed_percoord(src, n, rng):
    """The per-coordinate clocks without the squeeze, on all n chains every
    round: each unfinished chain's earliest pending proposal is scored and
    flips with probability rate/R, and only its clock is redrawn. The
    reference the sampler must equal."""
    lam, d, t_f = src.lam, src.d, src.t_f
    X = rng.integers(0, 2, size=(n, d), dtype=np.int8)
    u = fd.samplers._next_proposal(np.full((n, d), t_f), rng.exponential(size=(n, d)),
                                   1, lam, lam)
    while True:
        coords = np.argmax(u, axis=1)
        live = np.flatnonzero(t_f - u[np.arange(n), coords] < t_f)
        if not live.size:
            return X
        coords = coords[live]
        t = t_f - u[live, coords]
        rates = lam * (1.0 - src.score_rows(t, X[live]))
        bound = lam / np.tanh(lam * np.maximum(t_f - t, fd.T_MIN))
        ratio = np.maximum(rates, 0.0)[np.arange(live.size), coords] / bound
        assert (ratio <= 1.0 + fd.score.RATE_TOL).all()
        flip = rng.random(live.size) < ratio
        X[live[flip], coords[flip]] ^= 1
        u[live, coords] = fd.samplers._next_proposal(u[live, coords],
                                                     rng.exponential(size=live.size), 1, lam, lam)


def clock_sources():
    dense = np.random.default_rng(46).uniform(0.05, 1.0, 16)
    cfg = fd.ModelConfig(d=6, blocks=1, width=32, time_embed_dim=16, seed=3)
    params = fd.init_params(cfg) + np.random.default_rng(47).normal(0.0, 0.3, fd.param_count(cfg))
    return {"product-d3": exact_src(fd.ProductBernoulli([0.1, 0.5, 0.85])),
            "dense-d4": exact_src(fd.DenseTable.normalized(dense)),
            "learned-d6": fd.LearnedScoreSource(params, cfg, LAM, 3.0)}


@pytest.mark.parametrize("name", ["product-d3", "dense-d4", "learned-d6"])
def test_percoord_matches_unsqueezed_loop(name):
    """The per-coordinate sampler's squeeze and its compaction to the
    unfinished chains change which rows are scored, never a state."""
    src = clock_sources()[name]
    n = 300 if src.kind == "learned" else 2000
    out = fd.sample_percoord_batch(src, n, np.random.default_rng(48))
    assert out.tobytes() == unsqueezed_percoord(src, n, np.random.default_rng(48)).tobytes()


def allocating_discretized(src, schedule, n, rng):
    """The discretized sampler's clock loop with fresh arrays at every grid
    step: the reference the in-place loop must equal."""
    lam = src.lam
    X = rng.integers(0, 2, size=(n, src.d), dtype=np.int8)
    accum = np.zeros(n)
    thresh = rng.exponential(size=n)
    grid = schedule.grid
    for k in range(schedule.n_steps):
        rates = allocating_rate_rows(src, grid[k], X, lam)
        total = rates[:, 0].copy()
        for col in range(1, src.d):
            total += rates[:, col]
        accum += total * (grid[k + 1] - grid[k])
        crossed = (accum > thresh) & (total > 0)
        if crossed.any():
            idx = np.flatnonzero(crossed)
            X[idx, fd.samplers._categorical_rows(rates[idx], rng)] ^= 1
            accum[idx] = 0.0
            thresh[idx] = rng.exponential(size=idx.size)
    return X


@pytest.mark.parametrize("name", ["product-d3", "dense-d4", "learned-d6"])
def test_in_place_loops_match_allocating_references(name):
    """The discretized sampler reuses its per-step arrays; its states equal
    the allocating loop's bit for bit."""
    src = clock_sources()[name]
    n = 300 if src.kind == "learned" else 2000
    sch = fd.time_grid("cosine", 40, 3.0)
    out = fd.sample_discretized_batch(src, sch, LAM, n, np.random.default_rng(49))
    ref = allocating_discretized(src, sch, n, np.random.default_rng(49))
    assert out.tobytes() == ref.tobytes()


class HalfFloorScoreSource:
    """Every backward rate is half of lam*tanh(lam*u): valid as a rate, but
    below the floor that no true score goes under."""

    def __init__(self, d, lam, t_f):
        self.d, self.lam, self.t_f = d, lam, t_f

    def score_rows(self, ts, X):
        u = self.t_f - np.asarray(ts, dtype=np.float64)
        return np.tile(1.0 - 0.5 * np.tanh(self.lam * u)[:, None], (1, self.d))


def test_continuous_rejects_rates_below_floor():
    for sample in THINNING_SAMPLERS.values():
        with pytest.raises(fd.SamplerError, match="below the floor"):
            sample(HalfFloorScoreSource(3, LAM, 3.0), 200, np.random.default_rng(42))


def test_percoord_matches_law():
    dist = fd.sawtooth_params(2)
    states = fd.sample_percoord_batch(exact_src(dist), 3000, np.random.default_rng(12))
    counts = np.bincount(fd.state_indices(states), minlength=4)
    assert chi2_pvalue(counts, dist.to_table().mass) > ALPHA_3SIGMA


def test_discretized_recovers_sawtooth():
    dist = fd.sawtooth_params(4)
    src = exact_src(dist)
    sch = fd.time_grid("cosine", 200, 3.0)
    states = fd.sample_discretized_batch(src, sch, LAM, 40_000, np.random.default_rng(13))
    assert empirical_tv(states, dist) < 0.03


def test_single_chain_discretized_matches_batch():
    dist = fd.sawtooth_params(2)
    src = exact_src(dist)
    sch = fd.time_grid("cosine", 100, 3.0)
    rng = np.random.default_rng(14)
    singles = np.stack([fd.sample_discretized_batch(src, sch, LAM, 1, rng)[0]
                        for _ in range(3000)])
    counts = np.bincount(fd.state_indices(singles), minlength=4)
    batch = fd.sample_discretized_batch(src, sch, LAM, 3000, np.random.default_rng(15))
    counts_b = np.bincount(fd.state_indices(batch), minlength=4)
    # both should match each other's law; compare each against the combined pool
    pooled = (counts + counts_b) / (counts + counts_b).sum()
    assert chi2_pvalue(counts, pooled) > ALPHA_3SIGMA
    assert chi2_pvalue(counts_b, pooled) > ALPHA_3SIGMA


def test_discretized_k1_flips_at_most_once():
    """A single grid interval can produce at most one flip, however large the
    accumulated rate mass; zero rates produce none."""
    d = 3
    hot = ConstantScoreSource(np.zeros(d), LAM, 60.0)  # rate mass lam*d*60 >> 1
    sch = fd.time_grid("linear", 1, 60.0)
    seed = 16
    out = fd.sample_discretized_batch(hot, sch, LAM, 5000, np.random.default_rng(seed))
    starts = np.random.default_rng(seed).integers(0, 2, size=(5000, d), dtype=np.int8)
    moved = (out != starts).sum(axis=1)
    assert moved.max() <= 1
    assert (moved == 1).mean() > 0.99  # crossing is near-certain at this mass
    frozen = ConstantScoreSource(np.ones(d), LAM, 60.0)  # rates all zero
    out0 = fd.sample_discretized_batch(frozen, sch, LAM, 500, np.random.default_rng(seed))
    starts0 = np.random.default_rng(seed).integers(0, 2, size=(500, d), dtype=np.int8)
    assert (out0 == starts0).all()


def test_flip_schedule_m1_reduces_to_discretized():
    dist = fd.sawtooth_params(3)
    src = exact_src(dist)
    sch = fd.time_grid("cosine", 60, 3.0)
    ones = fd.FlipSchedule(kind="constant", counts=np.ones(60, dtype=np.int64), total=60)
    a = fd.sample_flip_schedule_batch(src, sch, ones, LAM, 40_000, np.random.default_rng(19))
    b = fd.sample_discretized_batch(src, sch, LAM, 40_000, np.random.default_rng(20))
    tv = fd.tv_distance(fd.EmpiricalSet(a).counts_table(), fd.EmpiricalSet(b).counts_table())
    assert tv < 0.02


def test_flip_schedule_full_budget_flips_everything():
    d = 4
    src = ConstantScoreSource(np.zeros(d), LAM, 50.0)  # uniform weights, big rate
    sch = fd.time_grid("linear", 1, 50.0)
    full = fd.FlipSchedule(kind="constant", counts=np.array([d]), total=d)
    start_seed = 21
    states = fd.sample_flip_schedule_batch(src, sch, full, LAM, 500,
                                           np.random.default_rng(start_seed))
    starts = np.random.default_rng(start_seed).integers(0, 2, size=(500, d), dtype=np.int8)
    moved = (states != starts).sum(axis=1)
    # crossing probability is ~1 at rate d*lam over 50 time units
    assert (moved == d).mean() > 0.99


def test_weighted_without_replacement_law():
    weights = np.array([0.5, 0.3, 0.2])
    rng = np.random.default_rng(22)
    first = [fd.weighted_without_replacement(weights, 1, rng)[0] for _ in range(20_000)]
    counts = np.bincount(first, minlength=3)
    assert chi2_pvalue(counts, weights) > ALPHA_3SIGMA


def test_weighted_without_replacement_zero_weight_and_dedup():
    weights = np.array([0.0, 1.0, 2.0, 0.0])
    rng = np.random.default_rng(23)
    for _ in range(200):
        chosen = fd.weighted_without_replacement(weights, 4, rng)
        assert len(chosen) == 2  # only two strictly positive weights exist
        assert len(set(chosen.tolist())) == len(chosen)
        assert set(chosen.tolist()) <= {1, 2}


def test_batch_races_match_sequential_law():
    """Exponential-race selection used by the batch engine agrees with the
    sequential draw-remove-renormalize on pair frequencies (d=3, m=2)."""
    dist = fd.sawtooth_params(3)
    src = exact_src(dist)
    sch = fd.time_grid("linear", 1, 40.0)   # one long interval: crossing ~ certain
    twos = fd.FlipSchedule(kind="constant", counts=np.array([2]), total=2)
    n = 30_000
    batch_states = fd.sample_flip_schedule_batch(src, sch, twos, LAM, n,
                                                 np.random.default_rng(24))
    rng = np.random.default_rng(25)
    seq_states = np.stack([
        fd.sample_flip_schedule(src, sch, twos, LAM, rng) for _ in range(4000)
    ])
    pooled_counts = np.bincount(fd.state_indices(batch_states), minlength=8)
    seq_counts = np.bincount(fd.state_indices(seq_states), minlength=8)
    assert chi2_pvalue(seq_counts, pooled_counts / pooled_counts.sum()) > ALPHA_3SIGMA


def test_denoise_renoise_delta_one_cycle():
    x0 = np.array([1, 0, 1, 1], dtype=np.int8)
    src = exact_src(fd.delta_table(x0))
    sch = fd.time_grid("cosine", 1, 3.0)
    for seed in range(5):
        out = fd.sample_denoise_renoise_batch(src, sch, LAM, 1, np.random.default_rng(seed))[0]
        assert (out == x0).all()


def test_denoise_renoise_recovers_sawtooth():
    dist = fd.sawtooth_params(4)
    src = exact_src(dist)
    sch = fd.time_grid("cosine", 30, 3.0)
    states = fd.sample_denoise_renoise_batch(src, sch, LAM, 40_000, np.random.default_rng(26))
    assert empirical_tv(states, dist) < 0.03


def test_continuous_jump_count_bound():
    dist = fd.sawtooth_params(3)
    src = exact_src(dist)
    _, jumps = fd.sample_continuous_batch(src, 20_000, np.random.default_rng(27),
                                          return_jump_counts=True)
    mean = jumps.mean()
    bound = LAM * 3 * 3.0  # lam * d * t_f
    sigma = jumps.std(ddof=1) / np.sqrt(jumps.size)
    assert mean <= bound + 3 * sigma


def test_early_stop_targets_running_marginal():
    dist = fd.sawtooth_params(3)
    eta = 0.3
    src = exact_src(dist)
    sch = fd.time_grid("cosine", 150, 3.0, eta=eta)
    states = fd.sample_discretized_batch(src, sch, LAM, 40_000, np.random.default_rng(28))
    target = fd.marginal_table(dist, eta, LAM)
    assert empirical_tv(states, target) < 0.03


def test_invalid_score_rejected_by_samplers():
    src = ConstantScoreSource(np.array([1.5, 0.0]), LAM, 3.0)  # negative rate
    sch = fd.time_grid("linear", 5, 3.0)
    with pytest.raises(fd.InvalidScoreError):
        fd.sample_discretized_batch(src, sch, LAM, 8, np.random.default_rng(29))


def test_batch_sampling_deterministic():
    dist = fd.sawtooth_params(3)
    src = exact_src(dist)
    sch = fd.time_grid("cosine", 40, 3.0)
    a = fd.sample_discretized_batch(src, sch, LAM, 500, np.random.default_rng(30))
    b = fd.sample_discretized_batch(src, sch, LAM, 500, np.random.default_rng(30))
    assert (a == b).all()


def test_generate_dispatch_and_validation():
    dist = fd.sawtooth_params(3)
    src = exact_src(dist)
    sch = fd.time_grid("cosine", 10, 3.0)
    with pytest.raises(ValueError):
        fd.generate("discrete", src, 10, np.random.default_rng(0))  # schedule missing
    with pytest.raises(ValueError):
        fd.generate("flip", src, 10, np.random.default_rng(0), schedule=sch)
    with pytest.raises(ValueError):
        fd.generate("warp", src, 10, np.random.default_rng(0), schedule=sch)


def test_sample_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    states = rng.integers(0, 2, (50, 6), dtype=np.int8)
    path = tmp_path / "samples.txt"
    fd.write_samples(path, states, {"sampler": "discrete", "n": 50})
    back = fd.read_samples(path)
    assert (back.samples == states).all()
    from flipdiff.samplers import read_sidecar
    assert read_sidecar(path)["sampler"] == "discrete"


def test_empty_dump_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ValueError):
        fd.read_samples(path)


def per_row_write(path, states):
    """The row-by-row writer ``write_samples`` replaced, kept as its reference."""
    with open(path, "w") as fh:
        for row in np.asarray(states, dtype=np.int8):
            fh.write("".join("1" if b else "0" for b in row) + "\n")


@pytest.mark.parametrize("d", [1, 8, 24])
def test_write_samples_matches_per_row_writer(tmp_path, d):
    rng = np.random.default_rng(40 + d)
    states = rng.integers(0, 2, (300, d), dtype=np.int8)
    states[::7] *= 3  # nonzero entries other than 1 are written as 1
    states[::11] *= -1
    fd.write_samples(tmp_path / "new.txt", states, {})
    per_row_write(tmp_path / "old.txt", states)
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
    assert (fd.read_samples(tmp_path / "new.txt").samples == (states != 0)).all()


@pytest.mark.parametrize("text", ["0110\r\n1011\r\n", "\n0110\n\n  1011  \n\n",
                                  "0110\r1011", "\t0110\n1011\n\n"])
def test_read_samples_accepts_crlf_blank_lines_and_padding(tmp_path, text):
    path = tmp_path / "samples.txt"
    path.write_bytes(text.encode())
    assert fd.read_samples(path).samples.tolist() == [[0, 1, 1, 0], [1, 0, 1, 1]]


@pytest.mark.parametrize("text,line", [
    ("0110\n101\n", 2),          # ragged row
    ("0110\n\n1021\n", 3),       # a character other than 0/1
    ("0110\n10 11\n", 2),        # inner whitespace
    ("01 0\n1011\n", 1),         # inner whitespace at the row length
    ("\n  \r\n\n", None),        # nothing but blank lines
])
def test_read_samples_rejects_malformed_files(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode())
    with pytest.raises(fd.SampleFormatError) as err:
        fd.read_samples(path)
    assert str(path) in str(err.value)
    assert (f"line {line}:" in str(err.value)) if line else "empty" in str(err.value)
