"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them stream).

Every tolerance here is fixed by the project contract; seeds are frozen so
the Monte-Carlo checks are reproducible.
"""

import time

import numpy as np
import pytest

import flipdiff as fd
from _stats import assert_uniform_chi2
from _reference import delta_table, simulate_paths_terminal

LAM = 1.0


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c01_forward_kernel_monte_carlo():
    """Path simulation matches the product transition kernel (d=4, 1e5 paths,
    3-sigma multinomial bands at t in {0.1, 0.7, 3}); runtime < 30 s."""
    start = time.time()
    d, t_f = 4, 3.0
    x0 = np.array([1, 0, 1, 0], dtype=np.int8)
    params = fd.ForwardParams(lam=LAM, t_f=t_f)
    times = (0.1, 0.7, 3.0)
    states = simulate_paths_terminal(x0, params, 100_000, np.random.default_rng(101),
                                     eval_times=times)
    worst = 0.0
    ok = True
    for k, t in enumerate(times):
        counts = np.bincount(fd.state_indices(states[k]), minlength=1 << d)
        probs = fd.marginal_table(delta_table(x0), t, LAM).mass
        freq = counts / counts.sum()
        sigma = np.sqrt(probs * (1 - probs) / counts.sum())
        dev = np.abs(freq - probs) / sigma
        worst = max(worst, float(dev.max()))
        ok &= bool((dev <= 3.0).all())
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    report("C1 kernel correctness",
           ok, f"worst deviation {worst:.2f} sigma over {len(times)} times, {elapsed:.1f}s")


def test_c02_score_oracle_equivalence():
    """Ratio score == brute-force conditional expectation == affine image of
    the denoiser, to 1e-12, over 50 random instances with d <= 8; < 1 min."""
    start = time.time()
    rng = np.random.default_rng(202)
    t_f = 3.0
    worst_cond = worst_affine = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 9))
        mu0 = fd.DenseTable.normalized(rng.uniform(0.05, 1.0, size=1 << d))
        t = float(rng.uniform(0.0, t_f - 0.02))
        x = rng.integers(0, 2, d)
        src = fd.ExactScoreSource(mu0, LAM, t_f)
        ratio = src.score_batch(t, x[None])[0]
        affine = fd.score_from_denoiser(src.denoiser_batch(t, x[None])[0], t, LAM, t_f)
        # independent conditional-expectation oracle over all clean states
        u = t_f - t
        states = fd.all_states(d)
        joint = mu0.mass * np.array([fd.kernel(z, x, u, LAM) for z in states])
        posterior = joint / joint.sum()
        cond = np.array([
            float(np.dot(posterior,
                         fd.score_target(t, states[:, ell], x[ell], LAM, t_f)))
            for ell in range(d)
        ])
        scale = np.maximum(1.0, np.abs(ratio))
        worst_cond = max(worst_cond, float(np.max(np.abs(ratio - cond) / scale)))
        worst_affine = max(worst_affine, float(np.max(np.abs(ratio - affine) / scale)))
    elapsed = time.time() - start
    ok = worst_cond < 1e-12 and worst_affine < 1e-12 and elapsed < 60.0
    report("C2 score-oracle equivalence", ok,
           f"max rel dev: conditional {worst_cond:.2e}, denoiser map {worst_affine:.2e}, "
           f"{elapsed:.1f}s")


def test_c03_kl_bound_sweep():
    """Exact-score KL bound verification: 20 random full-support laws on
    d in {2,3,4}, K in {25,100,400}, T_f=4, eps=0 — zero violations; < 5 min."""
    start = time.time()
    rng = np.random.default_rng(303)
    t_f = 4.0
    dims = [2, 3, 4]
    violations = 0
    min_slack = np.inf
    for instance in range(20):
        d = dims[instance % 3]
        mu = fd.DenseTable.normalized(rng.uniform(0.1, 1.0, size=1 << d))
        kl_init = fd.kl_divergence(mu, fd.uniform_table(d))
        beta = fd.flip_fisher_info(mu)
        src = fd.ExactScoreSource(mu, LAM, t_f)
        for k in (25, 100, 400):
            schedule = fd.time_grid("linear", k, t_f)
            terminal = fd.exact_backward_marginal(src, schedule, LAM)
            measured = fd.kl_divergence(mu, terminal)
            rep = fd.kl_convergence_bound(kl_init, beta, schedule.max_step, 0.0,
                                          t_f, measured_kl=measured)
            min_slack = min(min_slack, rep.slack)
            violations += rep.slack < 0
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 300.0
    report("C3 KL convergence bound", ok,
           f"60 cases, {violations} violations, min slack {min_slack:.3e}, {elapsed:.1f}s")


def test_c04_early_stop_tv_bound():
    """Measured TV(mu_eta, mu*) below the kernel bound on a 20-point grid for
    random laws with d <= 6 — zero violations; < 30 s."""
    start = time.time()
    rng = np.random.default_rng(404)
    violations = 0
    worst_margin = np.inf
    for d in (2, 3, 4, 5, 6):
        mu = fd.DenseTable.normalized(rng.uniform(0.0, 1.0, size=1 << d) + 1e-9)
        for eta in np.linspace(0.025, 0.5, 20):
            measured = fd.tv_distance(fd.marginal_table(mu, eta, LAM), mu)
            bound, _ = fd.early_stop_tv_bound(eta, LAM, d)
            worst_margin = min(worst_margin, bound - measured)
            violations += measured > bound + 1e-12
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 30.0
    report("C4 early-stop TV bound", ok,
           f"100 grid points, {violations} violations, min margin {worst_margin:.3e}, "
           f"{elapsed:.1f}s")


def test_c05_gradient_integrity():
    """Analytic gradients of all loss components match central finite
    differences (rel err < 1e-4 at step 1e-6) on 20 params x 10 batches."""
    from flipdiff.model import loss_and_grad

    start = time.time()
    cfg = fd.ModelConfig(d=4, blocks=2, width=24, time_embed_dim=12, seed=5)
    rng = np.random.default_rng(505)
    params = fd.init_params(cfg) + rng.normal(0, 0.05, fd.param_count(cfg))
    specs = [fd.LossSpec(1, 0, 0), fd.LossSpec(0, 1, 0), fd.LossSpec(0, 0, 1),
             fd.LossSpec(1, 1, 1, w_scaled=True)]
    dist = fd.sawtooth_params(4)
    worst = 0.0
    for b in range(10):
        batch = fd.make_batch(dist.sample(16, rng).samples, LAM, 3.0, rng)
        spec = specs[b % len(specs)]
        _, grad, _ = loss_and_grad(params, cfg, batch, spec)
        for i in rng.choice(params.size, 20, replace=False):
            e = np.zeros_like(params)
            e[i] = 1e-6
            up, _, _ = loss_and_grad(params + e, cfg, batch, spec)
            dn, _, _ = loss_and_grad(params - e, cfg, batch, spec)
            numeric = (up - dn) / 2e-6
            worst = max(worst, abs(grad[i] - numeric) / (abs(numeric) + 1e-8))
    elapsed = time.time() - start
    ok = worst < 1e-4
    report("C5 gradient integrity", ok,
           f"200 directional checks, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c06_exact_score_sampling_recovers_data_law():
    """Discretized sampler with the exact oracle (d=4 sawtooth, cosine K=200,
    T_f=3, 1e5 chains): empirical TV < 0.03; < 5 min."""
    start = time.time()
    dist = fd.sawtooth_params(4)
    src = fd.ExactScoreSource(dist, LAM, 3.0)
    schedule = fd.time_grid("cosine", 200, 3.0)
    states = fd.sample_discretized_batch(src, schedule, LAM, 100_000,
                                         np.random.default_rng(606))
    tv = fd.tv_distance(fd.EmpiricalSet(states).counts_table(), dist.to_table())
    elapsed = time.time() - start
    ok = tv < 0.03 and elapsed < 300.0
    report("C6 exact-score sampling", ok, f"TV {tv:.4f} (< 0.03), {elapsed:.1f}s")


def test_c07_end_to_end_learned_pipeline():
    """Train d=8 sawtooth with the squared-error w-scaled preset, generate
    20k samples at K=30 cosine steps, and land SWD < 1e-2 (stretch: the
    reference 3.308e-3; floor: two-independent-draw self-distance)."""
    start = time.time()
    d, t_f = 8, 3.0
    dist = fd.sawtooth_params(d)
    cfg = fd.ModelConfig(d=d, blocks=2, width=128, time_embed_dim=64, seed=0)
    # strong lr annealing matters: the 1/w_t scaling makes late-time gradient
    # noise heavy-tailed, and a hot final lr leaves the endpoint seed-sensitive
    settings = fd.TrainSettings(steps=10_000, batch_size=512, lr=2e-3,
                                decay_every=400, decay_rate=0.90)
    result = fd.train(dist, cfg, fd.LossSpec(1, 0, 0, w_scaled=True), settings,
                      LAM, t_f, np.random.default_rng(707))
    trained = time.time() - start
    src = fd.LearnedScoreSource(result.params, cfg, LAM, t_f)
    schedule = fd.time_grid("cosine", 30, t_f)
    generated = fd.sample_denoise_renoise_batch(src, schedule, LAM, 20_000,
                                                np.random.default_rng(708))
    reference = dist.sample(20_000, np.random.default_rng(709))
    est = fd.swd(fd.EmpiricalSet(generated), reference, n_dirs=1000,
                 rng=np.random.default_rng(710))
    floor = fd.swd(dist.sample(20_000, np.random.default_rng(711)),
                   dist.sample(20_000, np.random.default_rng(712)),
                   n_dirs=1000, rng=np.random.default_rng(713))
    # the one-flip-per-step sampler at the same budget, reported ungated
    alt = fd.sample_discretized_batch(src, schedule, LAM, 20_000,
                                      np.random.default_rng(714))
    alt_est = fd.swd(fd.EmpiricalSet(alt), reference, n_dirs=1000,
                     rng=np.random.default_rng(715))
    # flip-schedule sampler at K=25 with a budget of d total flips: the linear
    # schedule is expected to beat the constant one (reported, not gated)
    k25 = fd.time_grid("cosine", 25, t_f)
    flip_swd = {}
    for kind in ("linear", "constant"):
        counts = fd.flip_counts(kind, k25, d)
        states = fd.sample_flip_schedule_batch(src, k25, counts, LAM, 20_000,
                                               np.random.default_rng(716))
        flip_swd[kind] = fd.swd(fd.EmpiricalSet(states), reference, n_dirs=400,
                                rng=np.random.default_rng(717)).value
    elapsed = time.time() - start
    ok = est.value < 1e-2
    report("C7 end-to-end learned pipeline", ok,
           f"SWD {est.value:.2e} (gate 1e-2, stretch 3.308e-3, floor {floor.value:.2e}; "
           f"one-flip sampler {alt_est.value:.2e}; flip-schedule linear "
           f"{flip_swd['linear']:.2e} vs constant {flip_swd['constant']:.2e}); "
           f"train {trained:.0f}s, total {elapsed:.0f}s")


def test_c08_sampler_cross_validation():
    """Continuous thinning, per-coordinate clocks, and the K=400 discretized
    sampler agree pairwise in TV < 0.02 (d=3, exact oracle, 1e5 chains each)."""
    start = time.time()
    dist = fd.sawtooth_params(3)
    src = fd.ExactScoreSource(dist, LAM, 3.0)
    n = 100_000
    tables = {
        "continuous": fd.sample_continuous_batch(src, n, np.random.default_rng(801)),
        "percoord": fd.sample_percoord_batch(src, n, np.random.default_rng(802)),
        "discrete": fd.sample_discretized_batch(src, fd.time_grid("cosine", 400, 3.0),
                                                LAM, n, np.random.default_rng(803)),
    }
    freqs = {name: fd.EmpiricalSet(states).counts_table()
             for name, states in tables.items()}
    names = list(freqs)
    worst = 0.0
    pairs = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            tv = fd.tv_distance(freqs[names[i]], freqs[names[j]])
            pairs.append(f"{names[i]}/{names[j]} {tv:.4f}")
            worst = max(worst, tv)
    elapsed = time.time() - start
    ok = worst < 0.02
    report("C8 sampler cross-validation", ok, f"{'; '.join(pairs)}; {elapsed:.0f}s")


def test_c09_denoise_renoise_sanity():
    """One denoise cycle on point-mass data returns the data point surely;
    uniform data passes the chi-squared uniformity check at 3 sigma."""
    x0 = np.array([1, 0, 1], dtype=np.int8)
    delta_src = fd.ExactScoreSource(delta_table(x0), LAM, 3.0)
    one_step = fd.time_grid("cosine", 1, 3.0)
    outs = fd.sample_denoise_renoise_batch(delta_src, one_step, LAM, 2000,
                                           np.random.default_rng(901))
    exact_recovery = bool((outs == x0).all())

    unif_src = fd.ExactScoreSource(fd.uniform_table(3), LAM, 3.0)
    schedule = fd.time_grid("cosine", 25, 3.0)
    states = fd.sample_denoise_renoise_batch(unif_src, schedule, LAM, 30_000,
                                             np.random.default_rng(902))
    try:
        assert_uniform_chi2(states, 3)
        uniform_ok = True
    except AssertionError:
        uniform_ok = False
    ok = exact_recovery and uniform_ok
    report("C9 denoise-renoise sanity", ok,
           f"point-mass recovery {exact_recovery}, uniformity chi2 {uniform_ok}")


def test_c10_out_of_scope_statement():
    """Image-scale benchmarks (U-Net training, inception-feature metrics) are
    explicitly not reproducible at desk scale; the property suites above stand
    in for them."""
    report("C10 desk-scale statement", True,
           "image-data results (FID/F1 density-coverage) are out of scope by design; "
           "no assertion")
