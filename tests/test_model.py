"""Denoiser network: forward pass, hand-written gradients, optimizer,
checkpoint format."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flipdiff as fd
from flipdiff.model import _layout, loss_and_grad

LAM, T_F = 1.0, 3.0
SMALL = fd.ModelConfig(d=4, blocks=2, width=24, time_embed_dim=12, seed=3)


def _random_batch(d, n, seed):
    rng = np.random.default_rng(seed)
    x0 = fd.sawtooth_params(d).sample(n, rng).samples
    return fd.make_batch(x0, LAM, T_F, rng)


def test_fresh_model_predicts_half():
    params = fd.init_params(SMALL)
    rng = np.random.default_rng(0)
    out = fd.predict_batch(params, SMALL, rng.uniform(0, T_F, 5),
                           rng.integers(0, 2, (5, 4)).astype(float))
    assert np.allclose(out, 0.5)


def test_outputs_in_unit_interval_and_deterministic():
    rng = np.random.default_rng(1)
    params = fd.init_params(SMALL) + rng.normal(0, 0.3, fd.param_count(SMALL))
    ts = rng.uniform(0, T_F, 100)
    xs = rng.integers(0, 2, (100, 4)).astype(float)
    out = fd.predict_batch(params, SMALL, ts, xs)
    assert np.isfinite(out).all()
    assert ((out > 0) & (out < 1)).all()
    again = fd.predict_batch(params, SMALL, ts, xs)
    assert (out == again).all()


def test_scalar_time_matches_repeated_time():
    rng = np.random.default_rng(4)
    params = fd.init_params(SMALL) + rng.normal(0, 0.2, fd.param_count(SMALL))
    xs = rng.integers(0, 2, (50, 4)).astype(float)
    for t in (0.0, 0.7, 2.9):
        shared = fd.predict_batch(params, SMALL, t, xs)
        per_row = fd.predict_batch(params, SMALL, np.full(50, t), xs)
        assert shared.shape == per_row.shape
        # the one-row time path may round differently from the per-row one
        np.testing.assert_allclose(shared, per_row, rtol=0, atol=4 * np.finfo(float).eps)


def test_time_vector_of_wrong_length_rejected():
    params = fd.init_params(SMALL)
    xs = np.zeros((5, 4))
    for ts in (np.full(4, 0.5), np.full(6, 0.5), np.full((5, 1), 0.5)):
        with pytest.raises(ValueError):
            fd.predict_batch(params, SMALL, ts, xs)


def test_corrupt_params_rejected():
    params = fd.init_params(SMALL)
    params[10] = np.nan
    with pytest.raises(fd.ModelCorruptError):
        fd.predict_batch(params, SMALL, 0.5, np.array([[0, 1, 0, 1]]))


@pytest.mark.parametrize("spec", [
    fd.LossSpec(1, 0, 0), fd.LossSpec(0, 1, 0), fd.LossSpec(0, 0, 1),
    fd.LossSpec(1, 0, 0, w_scaled=True), fd.LossSpec(0.4, 0.3, 0.3, w_scaled=True),
])
def test_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(5)
    params = fd.init_params(SMALL) + rng.normal(0, 0.05, fd.param_count(SMALL))
    batch = _random_batch(4, 12, 7)
    _, grad, _ = loss_and_grad(params, SMALL, batch, spec)
    step = 1e-6
    # two indices from every parameter block, so each layer's gradient is checked
    offsets, _ = _layout(SMALL)
    for i in np.concatenate([pos + rng.choice(size, 2, replace=False)
                             for pos, size, _ in offsets.values()]):
        basis = np.zeros_like(params)
        basis[i] = step
        up, _, _ = loss_and_grad(params + basis, SMALL, batch, spec)
        down, _, _ = loss_and_grad(params - basis, SMALL, batch, spec)
        numeric = (up - down) / (2 * step)
        assert abs(grad[i] - numeric) / (abs(numeric) + 1e-8) < 1e-4


def test_bias_gradient_on_constant_model():
    """With the zeroed output layer the only active gradient path for the
    squared-error loss is the output bias; check it against finite
    differences."""
    params = fd.init_params(SMALL)
    batch = _random_batch(4, 30, 11)
    _, grad, _ = loss_and_grad(params, SMALL, batch, fd.LossSpec(1, 0, 0))
    views_offset = params.size - SMALL.d  # output bias sits at the tail
    step = 1e-6
    for j in range(SMALL.d):
        basis = np.zeros_like(params)
        basis[views_offset + j] = step
        up, _, _ = loss_and_grad(params + basis, SMALL, batch, fd.LossSpec(1, 0, 0))
        down, _, _ = loss_and_grad(params - basis, SMALL, batch, fd.LossSpec(1, 0, 0))
        numeric = (up - down) / (2 * step)
        assert abs(grad[views_offset + j] - numeric) < 1e-6


def test_overfit_fixed_batch():
    batch = _random_batch(4, 64, 13)
    params = fd.init_params(SMALL)
    state = fd.OptimizerState()
    losses = []
    for _ in range(200):
        loss, grad, _ = loss_and_grad(params, SMALL, batch, fd.LossSpec(1, 0, 0))
        params = fd.optimizer_step(params, grad, state, 1e-2)
        losses.append(loss)
    assert losses[-1] < 0.1 * losses[0]


def test_optimizer_identity_on_zero_grad():
    params = np.array([1.0, -2.0, 3.0])
    state = fd.OptimizerState()
    out = fd.optimizer_step(params, np.zeros(3), state, 0.1, weight_decay=0.0)
    assert (out == params).all()
    assert state.step == 1


def test_optimizer_quadratic_toy():
    theta = np.array([1.0])
    state = fd.OptimizerState()
    for _ in range(1000):
        theta = fd.optimizer_step(theta, 2 * theta, state, 1e-2)
    assert abs(theta[0]) < 1e-3
    assert state.step == 1000


def test_optimizer_rejects_nonfinite_grad():
    state = fd.OptimizerState()
    with pytest.raises(fd.TrainingError):
        fd.optimizer_step(np.zeros(2), np.array([np.inf, 0.0]), state, 1e-3)


def test_optimizer_lr_decay_schedule():
    settings = fd.TrainSettings(lr=1.0, decay_every=10, decay_rate=0.5)
    assert settings.lr_at(0) == settings.lr_at(9) == 1.0
    assert settings.lr_at(10) == 0.5
    assert settings.lr_at(25) == 0.25
    assert fd.TrainSettings(lr=1.0, decay_rate=0.5).lr_at(25) == 1.0  # decay_every=0: none


def _meta(**overrides):
    base = dict(lam=LAM, t_f=T_F, d=4, w1=1.0, w2=0.0, w3=0.0,
                w_scaled=True, seed=9, steps=123, config_hash="abcd1234")
    base.update(overrides)
    return fd.CheckpointMeta(**base)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    params = fd.init_params(SMALL) + rng.normal(0, 0.1, fd.param_count(SMALL))
    path = tmp_path / "model.bin"
    fd.save_checkpoint(path, params, SMALL, _meta())
    loaded, config, meta = fd.load_checkpoint(path)
    assert (loaded == params).all()
    assert config == SMALL
    assert meta.steps == 123 and meta.w_scaled is True
    assert meta.config_hash == "abcd1234"
    ts = rng.uniform(0, T_F, 100)
    xs = rng.integers(0, 2, (100, 4)).astype(float)
    assert (fd.predict_batch(params, SMALL, ts, xs)
            == fd.predict_batch(loaded, config, ts, xs)).all()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.bin"
    fd.save_checkpoint(path, fd.init_params(SMALL), SMALL, _meta())
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(fd.CheckpointFormatError):
        fd.load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    path = tmp_path / "model.bin"
    fd.save_checkpoint(path, fd.init_params(SMALL), SMALL, _meta())
    raw = bytearray(path.read_bytes())
    raw[8:12] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(fd.CheckpointVersionError):
        fd.load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "model.bin"
    fd.save_checkpoint(path, fd.init_params(SMALL), SMALL, _meta())
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 64])
    with pytest.raises(fd.CheckpointFormatError):
        fd.load_checkpoint(path)


def _checkpoint_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        fd.save_checkpoint(path, fd.init_params(SMALL), SMALL, _meta())
        return path.read_bytes()


CHECKPOINT = _checkpoint_bytes()


@settings(max_examples=100, deadline=None)
@given(cut=st.integers(0, len(CHECKPOINT) - 1))
def test_checkpoint_cut_at_any_offset(cut):
    """A checkpoint cut short anywhere, in the header or in the parameter
    block, is a format error. (Bit flips inside the parameter block load
    without error: the format has no checksum.)"""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        path.write_bytes(CHECKPOINT[:cut])
        with pytest.raises(fd.CheckpointFormatError):
            fd.load_checkpoint(path)


# the checkpoint header: magic, version, the model config's five integers, lam,
# t_f, meta d, w1-w3, w_scaled, seed, steps, config hash, parameter count
HEADER = struct.Struct("<8sI5q2dq3d3q16sq")


def _patched_header(field: int, value) -> bytes:
    """CHECKPOINT with header field number ``field`` set to ``value``."""
    fields = list(HEADER.unpack_from(CHECKPOINT))
    fields[field] = value
    return HEADER.pack(*fields) + CHECKPOINT[HEADER.size:]


@pytest.mark.parametrize("raw", [
    pytest.param(_patched_header(3, 0), id="zero-blocks"),
    pytest.param(_patched_header(2, -1), id="negative-d"),
    pytest.param(_patched_header(6, -1), id="negative-model-seed"),
    pytest.param(_patched_header(5, 11), id="odd-time-embed-dim"),
    pytest.param(_patched_header(16, b"abc\xff"), id="non-ascii-config-hash"),
    pytest.param(_patched_header(7, float("nan")), id="nan-lam"),
    pytest.param(_patched_header(8, float("inf")), id="infinite-t_f"),
    pytest.param(CHECKPOINT + bytes(8), id="bytes-after-parameters"),
])
def test_checkpoint_malformed_file_is_a_format_error(tmp_path, raw):
    path = tmp_path / "model.bin"
    path.write_bytes(raw)
    with pytest.raises(fd.CheckpointFormatError):
        fd.load_checkpoint(path)


def test_checkpoint_config_mismatch(tmp_path):
    path = tmp_path / "model.bin"
    fd.save_checkpoint(path, fd.init_params(SMALL), SMALL, _meta(t_f=3.0))
    _, _, meta = fd.load_checkpoint(path)
    with pytest.raises(fd.ConfigMismatchError):
        fd.check_compatible(meta, t_f=10.0)
    with pytest.raises(fd.ConfigMismatchError):
        fd.check_compatible(meta, d=8)
    with pytest.raises(fd.ConfigMismatchError):
        fd.LearnedScoreSource.from_checkpoint(path, t_f=10.0)
    src = fd.LearnedScoreSource.from_checkpoint(path, d=4, lam=LAM, t_f=3.0)
    assert src.d == 4


def test_checkpoint_meta_d_must_match_model():
    with pytest.raises(fd.ConfigMismatchError):
        fd.save_checkpoint("/dev/null", fd.init_params(SMALL), SMALL, _meta(d=6))


def test_optimizer_rejects_mismatched_state():
    params = np.zeros(3)
    for m, v in ((np.zeros(4), np.zeros(3)), (np.zeros(3), np.zeros(1)),
                 (np.zeros(1), np.zeros(1)), (np.zeros((3, 1)), np.zeros(3))):
        state = fd.OptimizerState(m=m.copy(), v=v.copy())
        with pytest.raises(fd.TrainingError, match=r"shape .*\(3,\)"):
            fd.optimizer_step(params, np.ones(3), state, 1e-3)
        assert state.step == 0
        assert (state.m == m).all() and (state.v == v).all()
