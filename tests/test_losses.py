"""Loss components: frozen values, scaling identity, and minimality at the
exact denoiser."""

import numpy as np
import pytest

import flipdiff as fd
from flipdiff.losses import loss_parts
from flipdiff.model import loss_and_grad
from _reference import delta_table

LAM, T_F = 1.0, 3.0
LN2_HALF = np.log(2.0) / 2.0
T_HALF = T_F - LN2_HALF


def constant_model(value):
    return lambda ts, xs: np.full(np.asarray(xs).shape, float(value))


def indicator_model(x0):
    x0 = np.asarray(x0, dtype=np.float64)
    return lambda ts, xs: (np.asarray(xs) != x0).astype(np.float64)


def exact_model(dist):
    return fd.ExactScoreSource(dist, LAM, T_F).denoiser_rows


def neutral_model():
    """Outputs (1 - alpha)/2 per item: the scored version is identically 0."""
    def model(ts, xs):
        w = fd.time_weight(np.asarray(ts), LAM, T_F)
        return np.broadcast_to(np.atleast_1d(w)[:, None], np.asarray(xs).shape).copy()
    return model


def model_parts(batch, model, spec=fd.LossSpec()):
    """``loss_parts`` on a model callable's predictions at the batch's
    (t, x_noised); the unweighted parts do not depend on ``spec``'s weights."""
    preds = np.asarray(model(batch.t, batch.x_noised.astype(np.float64)), dtype=np.float64)
    return loss_parts(batch, preds, spec)


def make_batch(dist, n, seed):
    rng = np.random.default_rng(seed)
    x0 = dist.sample(n, rng).samples
    return fd.make_batch(x0, LAM, T_F, rng)


def test_time_weight_examples():
    assert fd.time_weight(T_HALF, LAM, T_F) == pytest.approx(0.25)
    assert fd.time_weight(0.0, LAM, 200.0) == pytest.approx(0.5)
    at_guard = fd.time_weight(T_F, LAM, T_F)  # forward time clamped to the floor
    assert 0.0 < at_guard < 0.5 and np.isfinite(at_guard)


def test_loss_l2_zero_for_indicator_on_delta_data():
    x0 = np.array([1, 0, 1, 1], dtype=np.int8)
    batch = make_batch(delta_table(x0), 200, 0)
    assert model_parts(batch, indicator_model(x0))[1]["l2"] == pytest.approx(0.0, abs=1e-30)


def test_loss_l2_constant_half_is_quarter():
    batch = make_batch(fd.sawtooth_params(4), 300, 1)
    assert model_parts(batch, constant_model(0.5))[1]["l2"] == pytest.approx(0.25, abs=1e-15)


def test_loss_ce_examples():
    batch = make_batch(fd.sawtooth_params(4), 300, 2)
    assert model_parts(batch, constant_model(0.5))[1]["ce"] == pytest.approx(np.log(2.0), abs=1e-12)
    x0 = np.array([0, 1, 0, 0], dtype=np.int8)
    delta_batch = make_batch(delta_table(x0), 200, 3)
    assert model_parts(delta_batch, indicator_model(x0))[1]["ce"] <= 1e-10


def test_loss_entropy_zero_for_neutral_model():
    batch = make_batch(fd.sawtooth_params(5), 400, 4)
    assert model_parts(batch, neutral_model())[1]["e"] == pytest.approx(0.0, abs=1e-12)


def test_loss_entropy_finite_on_random_models():
    rng = np.random.default_rng(5)
    batch = make_batch(fd.sawtooth_params(4), 256, 6)
    for _ in range(20):
        preds = rng.uniform(1e-6, 1 - 1e-6, size=(batch.n, batch.d))
        model = lambda ts, xs, p=preds: p
        assert np.isfinite(model_parts(batch, model)[1]["e"])


def test_combined_loss_weights():
    batch = make_batch(fd.sawtooth_params(4), 128, 7)
    model = exact_model(fd.sawtooth_params(4))
    spec_l2 = fd.LossSpec(1, 0, 0)
    assert model_parts(batch, model, spec_l2)[0] == model_parts(batch, model)[1]["l2"]
    thirds = fd.LossSpec(1 / 3, 1 / 3, 1 / 3)
    parts = model_parts(batch, model)[1]
    expected = (parts["l2"] + parts["e"] + parts["ce"]) / 3
    assert model_parts(batch, model, thirds)[0] == pytest.approx(expected, abs=1e-14)


def test_combined_loss_positive_homogeneity_of_gradients():
    cfg = fd.ModelConfig(d=4, blocks=1, width=16, time_embed_dim=8, seed=0)
    rng = np.random.default_rng(8)
    params = fd.init_params(cfg) + rng.normal(0, 0.1, fd.param_count(cfg))
    batch = make_batch(fd.sawtooth_params(4), 64, 9)
    _, g1, _ = loss_and_grad(params, cfg, batch, fd.LossSpec(1, 1, 1))
    _, g2, _ = loss_and_grad(params, cfg, batch, fd.LossSpec(2, 2, 2))
    assert np.allclose(g2, 2 * g1, rtol=1e-12, atol=1e-15)


def test_w_scaled_gradient_equals_per_item_weighting():
    """On a fixed batch the w-scaled squared-error gradient is the unscaled
    per-element gradient multiplied by 1/w_t itemwise."""
    batch = make_batch(fd.sawtooth_params(4), 64, 10)
    rng = np.random.default_rng(11)
    preds = rng.uniform(0.05, 0.95, size=(batch.n, batch.d))
    _, _, grad_scaled = loss_parts(batch, preds, fd.LossSpec(1, 0, 0, w_scaled=True))
    _, _, grad_plain = loss_parts(batch, preds, fd.LossSpec(1, 0, 0))
    inv_w = 1.0 / fd.time_weight(batch.t, LAM, T_F)
    assert np.allclose(grad_scaled, grad_plain * inv_w[:, None], rtol=1e-12, atol=1e-18)


def test_presets_live_on_the_simplex():
    assert len(fd.PRESETS) == 6
    for name, spec in fd.PRESETS.items():
        assert spec.w1 + spec.w2 + spec.w3 == pytest.approx(1.0)
        assert (spec.w1, spec.w2, spec.w3) != (0.0, 1.0, 0.0), name


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        fd.LossSpec(0, 0, 0)
    with pytest.raises(ValueError):
        fd.LossSpec(-1, 1, 1)


@pytest.mark.parametrize("shape", [(64, 3), (64,), (63, 4)])
def test_loss_parts_rejects_predictions_of_the_wrong_shape(shape):
    batch = make_batch(fd.sawtooth_params(4), 64, 18)
    with pytest.raises(ValueError, match="predictions have shape"):
        loss_parts(batch, np.full(shape, 0.5), fd.LossSpec())


def test_expected_denoiser_matches_time_weight():
    """Monte-Carlo mean of the exact denoiser over fresh noised batches sits
    inside 3 sigma of w_t, per coordinate."""
    dist = fd.sawtooth_params(4)
    rng = np.random.default_rng(12)
    t = 1.2
    n = 40_000
    x0 = dist.sample(n, rng).samples
    noised = fd.sample_conditional_batch(x0, np.full(n, T_F - t), LAM, rng)
    dvec = fd.ExactScoreSource(dist, LAM, T_F).denoiser_batch(t, noised)
    w = fd.time_weight(t, LAM, T_F)
    for ell in range(4):
        mean = dvec[:, ell].mean()
        sigma = dvec[:, ell].std(ddof=1) / np.sqrt(n)
        assert abs(mean - w) < 3 * sigma + 1e-4


def test_l2_at_exact_denoiser_equals_conditional_variance():
    """Unscaled squared-error loss at the exact denoiser estimates
    E[d (1 - d)], computed here by brute-force enumeration."""
    dist = fd.sawtooth_params(4)
    src = fd.ExactScoreSource(dist, LAM, T_F)
    t = 1.0
    n = 60_000
    rng = np.random.default_rng(13)
    x0 = dist.sample(n, rng).samples
    noised = fd.sample_conditional_batch(x0, np.full(n, T_F - t), LAM, rng)
    batch = fd.TrainBatch(x0=x0, t=np.full(n, t), x_noised=noised, lam=LAM, t_f=T_F)
    observed = model_parts(batch, src.denoiser_rows)[1]["l2"]
    # exact E[d(1-d)] under the time-t marginal, by enumeration
    states = fd.all_states(4)
    marg = fd.marginal_table(dist, T_F - t, LAM).mass
    dvals = src.denoiser_batch(t, states)
    expected = float(np.sum(marg[:, None] * dvals * (1 - dvals)) / 4)
    spread = np.std((dvals * (1 - dvals)).mean(axis=1))
    assert abs(observed - expected) < 3 * spread / np.sqrt(n) + 2e-3


@pytest.mark.parametrize("part", ["l2", "ce"])
def test_losses_minimized_at_exact_denoiser(part):
    """Constant perturbations of the exact denoiser never help (statistical
    dominance on a large common batch)."""
    dist = fd.sawtooth_params(4)
    batch = make_batch(dist, 30_000, 14)
    exact = exact_model(dist)
    base = model_parts(batch, exact)[1][part]
    for delta in (-0.08, 0.05, 0.1):
        def perturbed(ts, xs, d=delta):
            return np.clip(exact(ts, xs) + d, 1e-9, 1 - 1e-9)
        assert model_parts(batch, perturbed)[1][part] > base - 1e-4


def test_entropy_gradient_vanishes_at_exact_score():
    """First-order optimality: at the exact denoiser the entropy-loss gradient
    has zero conditional mean. Tested on a moderate time band (away from the
    forward-time guard, where the gradient's variance blows up and no feasible
    sample size could resolve the mean)."""
    dist = fd.sawtooth_params(4)
    n = 50_000
    rng = np.random.default_rng(15)
    x0 = dist.sample(n, rng).samples
    t = rng.uniform(0.0, T_F - 0.3, size=n)  # forward time >= 0.3
    noised = fd.sample_conditional_batch(x0, T_F - t, LAM, rng)
    batch = fd.TrainBatch(x0=x0, t=t, x_noised=noised, lam=LAM, t_f=T_F)
    exact_preds = fd.ExactScoreSource(dist, LAM, T_F).denoiser_rows(batch.t, batch.x_noised)
    _, _, grad = loss_parts(batch, exact_preds, fd.LossSpec(0, 1, 0))
    per_elem = grad * grad.size  # undo the 1/(n d) normalization
    for ell in range(4):
        mean = per_elem[:, ell].mean()
        se = per_elem[:, ell].std(ddof=1) / np.sqrt(n)
        assert abs(mean) < 4 * se + 1e-3, f"coordinate {ell}: mean {mean}, se {se}"


def test_make_batch_clamps_forward_time():
    rng = np.random.default_rng(17)
    x0 = fd.sawtooth_params(3).sample(2000, rng).samples
    batch = fd.make_batch(x0, LAM, 0.001, rng)  # tiny horizon: everything clamps
    assert batch.clamped_frac > 0.09
    batch2 = fd.make_batch(x0, LAM, 50.0, rng)
    assert batch2.clamped_frac < 0.01


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        fd.TrainBatch(x0=np.zeros((0, 3), dtype=np.int8), t=np.zeros(0),
                      x_noised=np.zeros((0, 3), dtype=np.int8), lam=LAM, t_f=T_F)
