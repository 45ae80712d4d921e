"""Forward process: kernels, marginals, conditional sampling, path simulation."""

import numpy as np
import pytest

import flipdiff as fd
from _stats import assert_freq_within, chi2_pvalue, ALPHA_3SIGMA
from _reference import delta_table, simulate_paths_terminal

LN2_HALF = np.log(2.0) / 2.0


def test_alpha_examples():
    assert fd.alpha(0.0, 2.3) == pytest.approx(1.0)
    assert fd.alpha(LN2_HALF, 1.0) == pytest.approx(0.5)
    ts = np.linspace(0, 5, 50)
    assert (np.diff(fd.alpha(ts, 0.7)) < 0).all()
    with pytest.raises(ValueError):
        fd.alpha(-0.1, 1.0)


def test_kernel1_examples():
    assert fd.kernel1(0, 0, 0.0, 1.0) == pytest.approx(1.0)
    assert fd.kernel1(1, 1, 0.0, 1.0) == pytest.approx(1.0)
    assert fd.kernel1(0, 0, LN2_HALF, 1.0) == pytest.approx(0.75)
    assert fd.kernel1(0, 1, LN2_HALF, 1.0) == pytest.approx(0.25)
    assert fd.kernel1(0, 0, 40.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    for a in (0, 1):
        assert fd.kernel1(a, 0, 0.9, 1.3) + fd.kernel1(a, 1, 0.9, 1.3) == pytest.approx(1.0)


def test_kernel_product_examples():
    x = [0, 0]
    assert fd.kernel(x, x, 0.0, 1.0) == pytest.approx(1.0)
    assert fd.kernel([0, 0], [0, 1], LN2_HALF, 1.0) == pytest.approx(0.1875)
    states = fd.all_states(3)
    total = sum(fd.kernel([0, 1, 0], y, 0.37, 2.0) for y in states)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_kernel_symmetry_and_mismatch():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.integers(0, 2, 5)
        y = rng.integers(0, 2, 5)
        assert fd.kernel(x, y, 0.8, 1.1) == pytest.approx(fd.kernel(y, x, 0.8, 1.1))
    with pytest.raises(ValueError):
        fd.kernel([0, 1], [0, 1, 1], 1.0, 1.0)


def test_marginal_identity_at_zero():
    table = fd.DenseTable.normalized(np.random.default_rng(1).uniform(0, 1, 16))
    out = fd.marginal(table, 0.0, 1.0)
    assert np.allclose(out.mass, table.mass, atol=1e-15)


def test_marginal_converges_to_uniform():
    x0 = np.array([1, 0, 1])
    out = fd.marginal_table(delta_table(x0), 40.0, 1.0)
    assert np.allclose(out.mass, 1 / 8, atol=1e-12)


def test_marginal_brute_force_d1():
    # sum over z of mu0(z) * kernel(z, x): p=0.9, alpha=0.5 -> mu_t(1) = 0.7
    mu0 = fd.DenseTable(np.array([0.1, 0.9]))
    out = fd.marginal_table(mu0, LN2_HALF, 1.0)
    brute = sum(mu0.mass[fd.state_index([z])] * fd.kernel1(z, 1, LN2_HALF, 1.0) for z in (0, 1))
    assert brute == pytest.approx(0.7)
    assert out.mass[1] == pytest.approx(brute, abs=1e-15)


def test_marginal_product_structure_preserved():
    product = fd.sawtooth_params(5)
    out = fd.marginal(product, 0.9, 1.2)
    assert isinstance(out, fd.ProductBernoulli)
    dense = fd.marginal_table(fd.DenseTable(product.to_table().mass), 0.9, 1.2)
    assert np.allclose(out.to_table().mass, dense.mass, atol=1e-14)


def test_uniform_is_invariant():
    unif = fd.uniform_table(4)
    for t in (0.1, 1.0, 7.0):
        out = fd.marginal_table(unif, t, 1.0)
        assert np.max(np.abs(out.mass - unif.mass)) < 1e-14


def test_chapman_kolmogorov():
    rng = np.random.default_rng(7)
    table = fd.DenseTable.normalized(rng.uniform(0, 1, 16))
    s, t = 0.3, 0.9
    two_step = fd.marginal_table(fd.marginal_table(table, s, 1.3), t, 1.3)
    one_step = fd.marginal_table(table, s + t, 1.3)
    assert np.max(np.abs(two_step.mass - one_step.mass)) < 1e-12


def tensordot_propagate(mass, t, lam, flip_only_coord=None):
    """propagate_mass written with np.tensordot, as the bit-level reference."""
    d = mass.size.bit_length() - 1
    a_t = fd.alpha(t, lam)
    stay, move = 0.5 + 0.5 * a_t, 0.5 - 0.5 * a_t
    k_full = np.array([[stay, move], [move, stay]])
    k_off = np.array([[0.0, move], [move, 0.0]])
    m = mass.reshape((2,) * d)
    for ax in range(d):
        k_ax = k_off if flip_only_coord == d - 1 - ax else k_full
        m = np.tensordot(m, k_ax, axes=([0], [0]))
    return m.reshape(-1)


def test_propagate_mass_matches_tensordot_bit_for_bit():
    rng = np.random.default_rng(41)
    for d in range(1, 11):
        mass = rng.dirichlet(np.ones(1 << d))
        t = rng.uniform(0.01, 2.0)
        out = fd.propagate_mass(mass, t, 1.3)
        assert out.tobytes() == tensordot_propagate(mass, t, 1.3).tobytes(), d


@pytest.mark.parametrize("lam_t_f", [3.0, 20.0, 800.0])
def test_dense_denoiser_matches_flip_only_propagation(lam_t_f):
    """The exact dense denoiser is the flip-only propagation of the data mass
    over the full one, at each row's own forward time, including u = 0 and
    u = 2e-5 < T_MIN, and at horizons where alpha underflows."""
    rng = np.random.default_rng(43)
    t_f = 3.0
    lam = lam_t_f / t_f
    for d in range(1, 9):
        mass = rng.dirichlet(np.ones(1 << d))
        src = fd.ExactScoreSource(fd.DenseTable.normalized(mass), lam, t_f)
        X = rng.integers(0, 2, (6, d))
        ts = np.concatenate([[t_f, t_f - 2e-5], rng.uniform(0.0, t_f, 4)])
        got = src.denoiser_rows(ts, X)
        for x, t, row in zip(X, ts, got):
            i, u = fd.state_index(x), t_f - t
            ref = [tensordot_propagate(mass, u, lam, coord)[i] for coord in range(d)]
            ref = np.array(ref) / tensordot_propagate(mass, u, lam)[i]
            np.testing.assert_allclose(row, ref, rtol=0, atol=1e-13)


def test_sample_conditional_identity_at_zero():
    x0 = np.array([1, 0, 1, 1])
    out = fd.sample_conditional_batch(x0[None], np.array([0.0]), 1.0, np.random.default_rng(0))
    assert (out[0] == x0).all()


def test_sample_conditional_flip_frequency():
    rng = np.random.default_rng(5)
    x0 = np.zeros(1, dtype=np.int8)
    flips = sum(
        int(fd.sample_conditional_batch(x0[None], np.array([LN2_HALF]), 1.0, rng)[0, 0])
        for _ in range(20_000)
    )
    assert_freq_within(flips / 20_000, 0.25, 20_000, what="flip frequency")


def test_sample_conditional_matches_marginal_tv():
    rng = np.random.default_rng(6)
    x0 = np.array([1, 0, 1, 0], dtype=np.int8)
    n = 100_000
    draws = fd.sample_conditional_batch(np.tile(x0, (n, 1)), np.full(n, 0.6), 1.0, rng)
    emp = fd.EmpiricalSet(draws).counts_table()
    exact = fd.marginal_table(delta_table(x0), 0.6, 1.0)
    assert fd.tv_distance(emp, exact) < 0.02


def test_simulate_path_zero_horizon_limit():
    params = fd.ForwardParams(lam=1.0, t_f=1e-300)
    path = fd.simulate_path([1, 0, 1], params, np.random.default_rng(0))
    assert path.jump_times.size == 0
    assert (path.terminal == np.array([1, 0, 1])).all()


def test_simulate_path_replay():
    path = fd.ForwardPath(x0=np.array([0, 0], dtype=np.int8),
                          jump_times=np.array([0.5, 1.0, 2.0]),
                          jump_coords=np.array([0, 1, 0]))
    assert path.state_at(0.4).tolist() == [0, 0]
    assert path.state_at(0.5).tolist() == [1, 0]
    assert path.state_at(1.5).tolist() == [1, 1]
    assert path.terminal.tolist() == [0, 1]


def test_mean_jump_count_d1_and_general():
    rng = np.random.default_rng(8)
    params = fd.ForwardParams(lam=1.0, t_f=3.0)
    n = 20_000
    counts1 = [fd.simulate_path([0], params, rng).jump_times.size for _ in range(n)]
    mean_target = params.lam * params.t_f  # single bit: rate lam
    sigma = np.sqrt(mean_target / n)
    assert abs(np.mean(counts1) - mean_target) < 3 * sigma
    counts4 = [fd.simulate_path([0, 0, 0, 0], params, rng).jump_times.size
               for _ in range(n)]
    mean4 = 4 * params.lam * params.t_f  # d bits: total rate d*lam
    sigma4 = np.sqrt(mean4 / n)
    assert abs(np.mean(counts4) - mean4) < 3 * sigma4


def test_terminal_law_matches_kernel_marginal():
    params = fd.ForwardParams(lam=1.0, t_f=3.0)
    x0 = np.array([1, 0, 1], dtype=np.int8)
    states = simulate_paths_terminal(x0, params, 100_000, np.random.default_rng(9))[0]
    emp = fd.EmpiricalSet(states).counts_table()
    exact = fd.marginal_table(delta_table(x0), params.t_f, params.lam)
    assert fd.tv_distance(emp, exact) < 0.02


def test_single_and_vectorized_paths_agree():
    params = fd.ForwardParams(lam=1.0, t_f=1.0)
    x0 = np.array([0, 1], dtype=np.int8)
    rng = np.random.default_rng(10)
    n = 4000
    singles = np.stack([fd.simulate_path(x0, params, rng).terminal for _ in range(n)])
    vector = simulate_paths_terminal(x0, params, n, rng)[0]
    exact = fd.marginal_table(delta_table(x0), params.t_f, params.lam).mass
    for states in (singles, vector):
        counts = np.bincount(fd.state_indices(states), minlength=4)
        assert chi2_pvalue(counts, exact) > ALPHA_3SIGMA


def test_forward_params_validation():
    with pytest.raises(ValueError):
        fd.ForwardParams(lam=0.0, t_f=1.0)
    with pytest.raises(ValueError):
        fd.ForwardParams(lam=1.0, t_f=0.0)
