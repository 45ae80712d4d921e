"""Training loop: determinism, convergence behavior, divergence guard, and
oracle-approach diagnostics."""

import copy

import numpy as np
import pytest

import flipdiff as fd
import flipdiff.training as train_mod
from _reference import delta_table

LAM, T_F = 1.0, 3.0
TINY = fd.ModelConfig(d=4, blocks=2, width=32, time_embed_dim=16, seed=0)


def test_identical_seeds_identical_logs():
    dist = fd.sawtooth_params(4)
    settings = fd.TrainSettings(steps=40, batch_size=32, lr=1e-3)
    spec = fd.LossSpec(1, 0, 0, w_scaled=True)
    a = fd.train(dist, TINY, spec, settings, LAM, T_F, np.random.default_rng(5))
    b = fd.train(dist, TINY, spec, settings, LAM, T_F, np.random.default_rng(5))
    assert a.log_rows == b.log_rows
    assert (a.params == b.params).all()


def test_log_csv_format(tmp_path):
    dist = fd.sawtooth_params(4)
    settings = fd.TrainSettings(steps=5, batch_size=16, lr=1e-3)
    log = tmp_path / "log.csv"
    fd.train(dist, TINY, fd.LossSpec(1, 1, 1), settings, LAM, T_F,
             np.random.default_rng(0), log_path=log)
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "step,loss_total,loss_l2,loss_e,loss_ce,clamped_frac,lr,grad_norm"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0" and all(np.isfinite(float(v)) for v in first[1:])


def test_delta_data_drives_l2_down():
    x0 = np.array([1, 0, 1, 1], dtype=np.int8)
    dataset = delta_table(x0)
    settings = fd.TrainSettings(steps=2000, batch_size=128, lr=3e-3)
    res = fd.train(dataset, TINY, fd.LossSpec(1, 0, 0), settings, LAM, T_F,
                   np.random.default_rng(1))
    tail = np.mean([row[2] for row in res.log_rows[-50:]])
    assert tail < 0.01


def test_empirical_dataset_mode():
    rng = np.random.default_rng(2)
    data = fd.sawtooth_params(4).sample(512, rng)
    settings = fd.TrainSettings(steps=30, batch_size=64, lr=1e-3)
    res = fd.train(data, TINY, fd.LossSpec(1, 0, 0), settings, LAM, T_F, rng)
    assert len(res.log_rows) == 30


def test_resume_continues_step_numbering():
    dist = fd.sawtooth_params(4)
    settings = fd.TrainSettings(steps=10, batch_size=16, lr=1e-3)
    spec = fd.LossSpec(1, 0, 0)
    first = fd.train(dist, TINY, spec, settings, LAM, T_F, np.random.default_rng(3))
    second = fd.train(dist, TINY, spec, settings, LAM, T_F, np.random.default_rng(4),
                      init=first.params, opt_state=first.opt_state, start_step=10)
    assert [row[0] for row in second.log_rows] == list(range(10, 20))


def test_resume_takes_the_learning_rate_of_the_resumed_run():
    dist = fd.sawtooth_params(4)
    spec = fd.LossSpec(1, 0, 0)
    first = fd.train(dist, TINY, spec, fd.TrainSettings(steps=10, batch_size=16, lr=1e-3),
                     LAM, T_F, np.random.default_rng(3))
    resumed = [fd.train(dist, TINY, spec, fd.TrainSettings(steps=5, batch_size=16, lr=lr),
                        LAM, T_F, np.random.default_rng(4), init=first.params,
                        opt_state=copy.deepcopy(first.opt_state), start_step=10).params
               for lr in (1e-3, 1e-2)]
    assert not np.array_equal(*resumed)


@pytest.mark.parametrize("ema", [False, True], ids=["plain", "ema"])
def test_training_state_is_float32(monkeypatch, ema):
    seen = []

    def recording(params, config, batch, spec):
        seen.append(params.dtype)
        return fd.loss_and_grad(params, config, batch, spec)

    monkeypatch.setattr(train_mod, "loss_and_grad", recording)
    settings = fd.TrainSettings(steps=4, batch_size=16, lr=1e-3, ema=ema, ema_rate=0.9)
    res = fd.train(fd.sawtooth_params(4), TINY, fd.LossSpec(1, 0, 0), settings, LAM, T_F,
                   np.random.default_rng(2))
    assert seen == [np.float32] * 4  # the network gets the params themselves, uncast
    assert res.params.dtype == np.float32  # the EMA weights when ema is on
    assert res.opt_state.m.dtype == res.opt_state.v.dtype == np.float32


def test_resume_from_float64_weights_rounds_them_to_float32_once():
    weights = fd.init_params(TINY) + np.random.default_rng(4).normal(0, 0.1, fd.param_count(TINY))
    settings = fd.TrainSettings(steps=3, batch_size=16)
    runs = [fd.train(fd.sawtooth_params(4), TINY, fd.LossSpec(1, 0, 0), settings, LAM, T_F,
                     np.random.default_rng(5), init=init, start_step=10)
            for init in (weights, weights.astype(np.float32))]
    assert runs[0].params.tobytes() == runs[1].params.tobytes()
    assert runs[0].log_rows == runs[1].log_rows


def test_divergence_aborts(monkeypatch):
    def exploding(params, config, batch, spec):
        return 1e9, np.zeros_like(params), {"l2": 1e9, "e": 0.0, "ce": 0.0}

    monkeypatch.setattr(train_mod, "loss_and_grad", exploding)
    with pytest.raises(fd.TrainingError):
        fd.train(fd.sawtooth_params(4), TINY, fd.LossSpec(1, 0, 0),
                 fd.TrainSettings(steps=3, batch_size=8), LAM, T_F,
                 np.random.default_rng(0))


def test_ema_changes_returned_params():
    dist = fd.sawtooth_params(4)
    spec = fd.LossSpec(1, 0, 0)
    base = fd.TrainSettings(steps=50, batch_size=32, lr=3e-3)
    ema = fd.TrainSettings(steps=50, batch_size=32, lr=3e-3, ema=True, ema_rate=0.99)
    plain = fd.train(dist, TINY, spec, base, LAM, T_F, np.random.default_rng(6))
    averaged = fd.train(dist, TINY, spec, ema, LAM, T_F, np.random.default_rng(6))
    assert not np.allclose(plain.params, averaged.params)


def test_trained_model_approaches_exact_denoiser():
    """d=4 sawtooth run: the fitted denoiser lands near the oracle and the
    deviation shrinks over checkpoints."""
    dist = fd.sawtooth_params(4)
    cfg = fd.ModelConfig(d=4, blocks=2, width=64, time_embed_dim=32, seed=0)
    spec = fd.LossSpec(1, 0, 0, w_scaled=True)
    exact = fd.ExactScoreSource(dist, LAM, T_F)
    states = fd.all_states(4)
    grid_t = np.linspace(0.05, T_F - 0.05, 7)

    def deviation(params):
        src = fd.LearnedScoreSource(params, cfg, LAM, T_F)
        return float(np.mean([
            np.abs(src.denoiser_batch(t, states) - exact.denoiser_batch(t, states)).mean()
            for t in grid_t
        ]))

    rng = np.random.default_rng(7)
    params, opt_state, devs, step = None, None, [], 0
    for chunk in (500, 1250, 1250):
        settings = fd.TrainSettings(steps=chunk, batch_size=256, lr=2e-3,
                                    decay_every=500, decay_rate=0.97)
        res = fd.train(dist, cfg, spec, settings, LAM, T_F, rng,
                       init=params, opt_state=opt_state, start_step=step)
        params, opt_state, step = res.params, res.opt_state, step + chunk
        devs.append(deviation(params))
    print(f"denoiser deviation over checkpoints: {[round(v, 4) for v in devs]}")
    assert devs[-1] < 0.05
    assert devs[-1] < devs[0]
