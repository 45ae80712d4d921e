"""Score oracle: the two score representations, the denoiser identity,
detailed balance, and backward rates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flipdiff as fd
from _reference import delta_table

LAM, T_F = 1.0, 3.0
LN2_HALF = np.log(2.0) / 2.0
T_HALF = T_F - LN2_HALF  # backward time whose forward time gives alpha = 1/2


def score_at(mu0, t, x):
    """Exact score of one state, from the source's batch form."""
    return fd.ExactScoreSource(mu0, LAM, T_F).score_batch(t, np.atleast_2d(x))[0]


def denoiser_at(mu0, t, x):
    """Exact denoiser of one state, from the source's batch form."""
    return fd.ExactScoreSource(mu0, LAM, T_F).denoiser_batch(t, np.atleast_2d(x))[0]


def random_table(d, seed, low=0.05):
    rng = np.random.default_rng(seed)
    return fd.DenseTable.normalized(rng.uniform(low, 1.0, size=1 << d))


def conditional_expectation_score(mu0, t, x, lam, t_f):
    """Independent oracle: brute-force E[f(X_0^l, X_u^l) | X_u = x] by
    enumerating clean states against the forward kernel."""
    x = np.asarray(x)
    d = x.size
    u = t_f - t
    table = mu0.to_table()
    states = fd.all_states(d)
    joint = np.array([table.mass[fd.state_index(z)] * fd.kernel(z, x, u, lam) for z in states])
    posterior = joint / joint.sum()
    out = np.zeros(d)
    for ell in range(d):
        f_vals = np.array([fd.score_target(t, z[ell], x[ell], lam, t_f) for z in states])
        out[ell] = float(np.dot(posterior, f_vals))
    return out


def test_score_target_examples():
    assert fd.score_target(T_HALF, 1, 1, LAM, T_F) == pytest.approx(2 / 3)
    assert fd.score_target(T_HALF, 0, 1, LAM, T_F) == pytest.approx(-2.0)
    # forward time large -> alpha ~ 0 -> both cases vanish
    assert fd.score_target(0.0, 0, 0, LAM, 50.0) == pytest.approx(0.0, abs=1e-12)
    assert fd.score_target(0.0, 0, 1, LAM, 50.0) == pytest.approx(0.0, abs=1e-12)


def test_score_target_guard_is_finite():
    val = fd.score_target(T_F, 0, 1, LAM, T_F)  # forward time 0, clamped
    assert np.isfinite(val)


def test_exact_denoiser_uniform():
    dvec = denoiser_at(fd.uniform_table(3), T_HALF, [1, 0, 1])
    assert np.allclose(dvec, (1 - 0.5) / 2, atol=1e-12)


def test_exact_denoiser_delta_is_indicator():
    x0 = np.array([1, 0, 1, 1])
    dvec = denoiser_at(delta_table(x0), 1.3, [0, 0, 1, 0])
    assert np.allclose(dvec, [1, 0, 0, 1], atol=1e-12)


def test_exact_denoiser_d1_bayes_value():
    mu0 = fd.DenseTable(np.array([0.1, 0.9]))
    dvec = denoiser_at(mu0, T_HALF, [1])
    # independent hand-Bayes oracle: P(X0=0 | X_u=1) with alpha = 1/2
    numer = 0.1 * fd.kernel1(0, 1, LN2_HALF, LAM)
    denom = numer + 0.9 * fd.kernel1(1, 1, LN2_HALF, LAM)
    assert dvec[0] == pytest.approx(numer / denom, abs=1e-14)
    assert dvec[0] == pytest.approx(0.0357142857, abs=1e-9)


def test_exact_score_examples():
    unif = fd.uniform_table(3)
    for t in (0.0, 1.0, 2.9):
        svec = score_at(unif, t, [0, 1, 1])
        assert np.allclose(svec, 0.0, atol=1e-12)
    mu0 = fd.DenseTable(np.array([0.1, 0.9]))
    assert score_at(mu0, T_HALF, [1])[0] == pytest.approx(0.4 / 0.7)
    assert score_at(mu0, T_HALF, [0])[0] == pytest.approx(-4 / 3)


def test_score_upper_bound():
    rng = np.random.default_rng(4)
    for seed in range(10):
        table = random_table(4, seed)
        t = rng.uniform(0, T_F)
        x = rng.integers(0, 2, 4)
        svec = score_at(table, t, x)
        assert (1.0 - svec >= 0).all()


def test_score_from_denoiser_examples():
    a = 0.5
    assert fd.score_from_denoiser((1 - a) / 2, T_HALF, LAM, T_F) == pytest.approx(0.0, abs=1e-14)
    assert fd.score_from_denoiser(0.0, T_HALF, LAM, T_F) == pytest.approx(2 * a / (1 + a))


def test_score_representations_agree():
    """Ratio score == conditional expectation == affine map of the denoiser."""
    rng = np.random.default_rng(99)
    for seed in range(15):
        d = int(rng.integers(1, 7))
        mu0 = random_table(d, seed)
        t = float(rng.uniform(0.0, T_F - 0.05))
        x = rng.integers(0, 2, d)
        ratio = score_at(mu0, t, x)
        cond = conditional_expectation_score(mu0, t, x, LAM, T_F)
        affine = fd.score_from_denoiser(denoiser_at(mu0, t, x), t, LAM, T_F)
        assert np.allclose(ratio, cond, rtol=1e-12, atol=1e-12)
        assert np.allclose(ratio, affine, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 6), t=st.floats(0.0, T_F, exclude_max=True), seed=st.integers(0, 2**16))
def test_score_denoiser_round_trip(d, t, seed):
    """score_from_denoiser maps the exact denoiser to the exact score wherever
    the forward time is not clamped to T_MIN."""
    rng = np.random.default_rng(seed)
    t_exact = min(t, T_F - fd.T_MIN)
    src = fd.ExactScoreSource(random_table(d, seed), LAM, T_F)
    X = rng.integers(0, 2, (5, d))
    assert np.allclose(fd.score_from_denoiser(src.denoiser_batch(t_exact, X), t_exact, LAM, T_F),
                       src.score_batch(t_exact, X), rtol=1e-9, atol=1e-9)


def test_detailed_balance():
    """mu_u(x) * rate(x -> flip(x)) equals mu_u(flip(x)) * lam for all x, l."""
    mu0 = random_table(4, 21)
    t = 1.7
    u = T_F - t
    mass = fd.marginal_table(mu0, u, LAM).mass
    for x in fd.all_states(4):
        svec = score_at(mu0, t, x)
        for ell in range(4):
            lhs = mass[fd.state_index(x)] * LAM * (1 - svec[ell])
            rhs = mass[fd.state_index(fd.flip(x, ell))] * LAM
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_exact_score_zero_mass_state_errors():
    x0 = np.array([0, 0])
    with pytest.raises(ValueError):
        score_at(delta_table(x0), T_F, [1, 1])  # forward time 0


def test_backward_rates_invalid_score():
    with pytest.raises(fd.InvalidScoreError):
        fd.score._check_rates(1.0 - np.array([1.5, 0.0]), 1.0, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_backward_rates_rejects_non_finite_score(bad):
    with pytest.raises(fd.SamplerError):
        fd.score._check_rates(1.0 - np.array([bad, 0.0]), 1.0, 1.0)


class ProductMixture:
    """Test-only correlated law, sum_k w_k prod_i Bern(p_ki), written as one
    class against the law interface that ``ExactScoreSource`` calls (``d``,
    ``score``, ``mass_terms``) and nothing else in the package: each
    component's full mass is the product of its per-bit terms, and its part
    of ``other`` is that mass times the component's own per-bit ratio."""

    def __init__(self, weights, probs):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.components = [fd.ProductBernoulli(p) for p in probs]
        self.d = self.components[0].d

    def mass_terms(self, u, X, lam, moved):
        here, other = 0.0, 0.0
        for w, comp in zip(self.weights, self.components):
            bit_here, bit_other = comp.mass_terms(u, X, lam, moved)
            mass = w * bit_here.prod(axis=1, keepdims=True)
            here, other = here + mass, other + mass * (bit_other / bit_here)
        return here, other

    def score(self, u, X, lam):
        here, flipped = self.mass_terms(u, X, lam, moved=False)
        return 1.0 - flipped / here

    def to_table(self):
        return fd.DenseTable(sum(w * comp.to_table().mass
                                 for w, comp in zip(self.weights, self.components)))


def test_mixture_law_through_the_exact_source_matches_its_table():
    """A new law is one class: the d = 4 two-component mixture's score and
    denoiser at per-row and scalar times, and its exact backward marginal,
    match the same calls on its own dense table within 1e-12."""
    mix = ProductMixture([0.3, 0.7], [[0.1, 0.8, 0.3, 0.9], [0.7, 0.2, 0.6, 0.15]])
    src, dense = fd.ExactScoreSource(mix, LAM, T_F), fd.ExactScoreSource(mix.to_table(), LAM, T_F)
    rng = np.random.default_rng(70)
    X = fd.all_states(4)[rng.integers(0, 16, 64)]
    ts = rng.uniform(0.0, T_F, 64)
    ts[:2] = [0.0, T_F]
    for method in ("score_rows", "denoiser_rows"):
        np.testing.assert_allclose(getattr(src, method)(ts, X), getattr(dense, method)(ts, X),
                                   rtol=0, atol=1e-12)
    for t in (0.0, 1.3, T_F):
        np.testing.assert_allclose(src.score_batch(t, X), dense.score_batch(t, X),
                                   rtol=0, atol=1e-12)
    schedule = fd.time_grid("cosine", 40, T_F)
    np.testing.assert_allclose(fd.exact_backward_marginal(src, schedule, LAM).mass,
                               fd.exact_backward_marginal(dense, schedule, LAM).mass,
                               rtol=0, atol=1e-12)
