"""CLI harness: config parsing, subcommands, reproducibility, lineage checks."""

import json
from pathlib import Path

import numpy as np
import pytest
import yaml

import flipdiff as fd
from flipdiff.cli import main
from _stats import assert_uniform_chi2


def write_config(path, **overrides):
    base = {
        "d": 4,
        "lam": 1.0,
        "t_f": 3.0,
        "seed": 11,
        "out_dir": str(Path(path).parent / "run"),
        "dataset": {"kind": "sawtooth"},
        "model": {"blocks": 1, "width": 24, "time_embed_dim": 12},
        "training": {"steps": 60, "batch_size": 32, "lr": 2e-3},
        "schedule": {"kind": "cosine", "steps": 20},
        "n_samples": 4000,
    }
    base.update(overrides)
    Path(path).write_text(yaml.safe_dump(base))
    return base


# --- config machinery -----------------------------------------------------

def test_config_roundtrip_identity(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path)
    config = fd.load_config(cfg_path)
    again = fd.config_from_dict(config.to_dict())
    assert config == again
    assert config.config_hash() == again.config_hash()
    saved = tmp_path / "echo.yaml"
    saved.write_text(yaml.safe_dump(config.to_dict(), sort_keys=True))
    assert fd.load_config(saved) == config


def test_config_unknown_keys_rejected(tmp_path):
    cfg_path = tmp_path / "bad.yaml"
    write_config(cfg_path, typo_field=1)
    with pytest.raises(fd.ConfigError, match="typo_field"):
        fd.load_config(cfg_path)
    cfg_path2 = tmp_path / "bad2.yaml"
    write_config(cfg_path2, schedule={"kind": "cosine", "stepz": 5})
    with pytest.raises(fd.ConfigError, match="stepz"):
        fd.load_config(cfg_path2)


def test_config_zero_loss_weights_rejected_before_compute(tmp_path):
    cfg_path = tmp_path / "zero.yaml"
    write_config(cfg_path, loss={"w1": 0.0, "w2": 0.0, "w3": 0.0})
    with pytest.raises(fd.ConfigError):
        fd.load_config(cfg_path)


@pytest.mark.parametrize("overrides,match", [
    pytest.param({"lam": float("nan")}, "lam and t_f", id="lam-nan"),
    pytest.param({"t_f": float("inf")}, "lam and t_f", id="t_f-inf"),
    pytest.param({"loss": {"w1": float("nan")}}, "loss weights", id="w1-nan"),
    pytest.param({"loss": {"w3": float("inf")}}, "loss weights", id="w3-inf"),
    pytest.param({"training": {"lr": float("nan")}}, "lr", id="lr-nan"),
    pytest.param({"training": {"lr": 0.0}}, "lr", id="lr-zero"),
    pytest.param({"training": {"ema_rate": 2.0}}, "ema_rate", id="ema_rate-2"),
    pytest.param({"training": {"ema_rate": -0.1}}, "ema_rate", id="ema_rate-negative"),
    pytest.param({"seed": -1}, "seed", id="seed-negative"),
    pytest.param({"model": {"seed": -1}}, "seed", id="model-seed-negative"),
    pytest.param({"bounds": {"dims": 3}}, "bounds", id="bounds-dims-scalar"),
    pytest.param({"dataset": {"kind": "product", "probs": 0.5}}, "dataset",
                 id="dataset-probs-scalar"),
    pytest.param({"seed": 1.5}, "seed", id="seed-fraction"),
    pytest.param({"d": 4.0}, "d must be an integer", id="d-float"),
    pytest.param({"d": True}, "d must be an integer", id="d-bool"),
    pytest.param({"n_samples": 2.5}, "n_samples", id="n_samples-fraction"),
    pytest.param({"training": {"steps": 2.5}}, "training.steps", id="training-steps-fraction"),
    pytest.param({"bounds": {"dims": [2.5]}}, "bounds.dims", id="bounds-dims-fraction"),
    pytest.param({"dataset": {"kind": "empirical-file"}}, "requires dataset.path",
                 id="empirical-file-without-path"),
    pytest.param({"bounds": {"eta_points": 0}}, "bounds.eta_points", id="bounds-eta_points-zero"),
    pytest.param({"bounds": {"dims": []}}, "bounds.dims", id="bounds-dims-empty"),
    pytest.param({"bounds": {"dims": [12]}}, "bounds.dims", id="bounds-dims-above-limit"),
    pytest.param({"bounds": {"dims": [0]}}, "bounds.dims", id="bounds-dims-zero"),
    pytest.param({"bounds": {"n_instances": -1}}, "bounds.n_instances",
                 id="bounds-n_instances-negative"),
    pytest.param({"bounds": {"k_values": []}}, "bounds.k_values", id="bounds-k_values-empty"),
    pytest.param({"bounds": {"k_values": [0]}}, "bounds.k_values", id="bounds-k_values-zero"),
    pytest.param({"bounds": {"tv_dims": [25]}}, "bounds.tv_dims", id="bounds-tv_dims-above-limit"),
    pytest.param({"bounds": {"eta_max": float("nan")}}, "bounds.eta_max", id="bounds-eta_max-nan"),
    pytest.param({"bounds": {"t_f": 0.0}}, "bounds.t_f", id="bounds-t_f-zero"),
    pytest.param({"training": {"decay_every": 5, "decay_rate": -1.0}}, "decay_rate",
                 id="training-decay_rate-negative"),
    pytest.param({"training": {"decay_rate": float("inf")}}, "decay_rate",
                 id="training-decay_rate-inf"),
    pytest.param({"training": {"decay_every": -1}}, "decay_every",
                 id="training-decay_every-negative"),
    pytest.param({"training": {"weight_decay": -0.5}}, "weight_decay",
                 id="training-weight_decay-negative"),
    pytest.param({"training": {"weight_decay": float("nan")}}, "weight_decay",
                 id="training-weight_decay-nan"),
    pytest.param({"training": {"ema": "false"}}, "training.ema must be true or false",
                 id="training-ema-string"),
    pytest.param({"loss": {"w_scaled": "false"}}, "loss.w_scaled must be true or false",
                 id="loss-w_scaled-string"),
    pytest.param({"out_dir": 5}, "out_dir must be a string", id="out_dir-int"),
    pytest.param({"loss": {"preset": ["l2"]}}, "unknown loss preset", id="loss-preset-list"),
    pytest.param({"bounds": {"eta_max": True}}, "bounds.eta_max must be a number",
                 id="bounds-eta_max-bool"),
    pytest.param({"lam": "1.0"}, "lam must be a number", id="lam-string"),
    pytest.param(yaml.safe_load("training: {lr: 1e-3}"), "training.lr must be a number",
                 id="training-lr-yaml-exponent"),
    pytest.param({"d": 3, "dataset": {"kind": "empirical-file", "path": "train.txt",
                                      "probs": [0.2, 0.5]}}, "dataset.probs length",
                 id="empirical-file-probs-short"),
    pytest.param({"d": 3, "dataset": {"kind": "product", "probs": [0.5, 1.5, 0.2]}},
                 "dataset.probs entries", id="product-probs-above-one"),
    pytest.param({"dataset": {"kind": "sawtooth", "probs": [0.5] * 4}}, "dataset.probs",
                 id="sawtooth-probs"),
    pytest.param({"dataset": {"kind": "table-file", "path": "table.json",
                              "probs": [0.5] * 4}}, "dataset.probs", id="table-file-probs"),
    pytest.param({"flips": {"total": -1}}, "flips.total", id="flips-total-negative"),
    pytest.param({"dataset": {"n_train": 0}}, "dataset.n_train", id="dataset-n_train-zero"),
])
def test_config_rejects_non_finite_and_out_of_range_numbers(overrides, match):
    with pytest.raises(fd.ConfigError, match=match):
        fd.config_from_dict({"d": 4, **overrides})


@pytest.mark.parametrize("key,section", [("lam", None), ("lr", "training")])
def test_float_field_given_as_integer_loads_as_that_float(key, section):
    def load(value):
        return fd.config_from_dict({key: value} if section is None else {section: {key: value}})

    as_int, as_float = load(1), load(1.0)
    value = getattr(as_int if section is None else getattr(as_int, section), key)
    assert type(value) is float and value == 1.0
    assert as_int == as_float
    assert as_int.config_hash() == as_float.config_hash()
    assert as_int.dataset_hash() == as_float.dataset_hash()


@pytest.mark.parametrize("overrides,field", [
    pytest.param({"lam": 10**400}, "lam", id="lam"),
    pytest.param({"training": {"lr": 10**400}}, "training.lr", id="training-lr"),
    pytest.param({"d": 2, "dataset": {"kind": "product", "probs": [0.5, -10**400]}},
                 "dataset.probs entries", id="dataset-probs"),
])
def test_integer_too_large_for_a_float_is_refused(overrides, field):
    with pytest.raises(fd.ConfigError, match=f"^{field} must be a finite number"):
        fd.config_from_dict(overrides)


def test_gen_data_refuses_a_401_digit_lam(tmp_path, capsys):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path)
    cfg_path.write_text(cfg_path.read_text().replace("lam: 1.0", "lam: 1" + "0" * 400))
    assert yaml.safe_load(cfg_path.read_text())["lam"] == 10**400
    assert main(["gen-data", "--config", str(cfg_path)]) == 2
    assert "lam must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parent.parent
                                         / "scripts" / "configs").glob("*.yaml")),
                         ids=lambda path: path.name)
def test_shipped_configs_load(path):
    assert isinstance(fd.load_config(path), fd.RunConfig)


def test_train_with_diverging_ema_rate_writes_no_checkpoint(tmp_path, capsys):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, training={"steps": 5, "batch_size": 16, "ema": True,
                                     "ema_rate": 2.0})
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "ema_rate" in capsys.readouterr().err
    assert not (tmp_path / "run" / "checkpoint.bin").exists()


def test_train_with_negative_seed_flag_is_refused(tmp_path, capsys):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path)
    assert main(["train", "--config", str(cfg_path), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_loss_preset(tmp_path):
    cfg_path = tmp_path / "preset.yaml"
    write_config(cfg_path, loss={"preset": "l2+ce", "w_scaled": True})
    config = fd.load_config(cfg_path)
    assert config.loss == fd.LossSpec(0.5, 0.0, 0.5, w_scaled=True)


def test_config_d_consistency(tmp_path):
    cfg_path = tmp_path / "mismatch.yaml"
    write_config(cfg_path, model={"d": 7, "blocks": 1, "width": 16, "time_embed_dim": 8})
    with pytest.raises(fd.ConfigError):
        fd.load_config(cfg_path)


def test_config_model_section_inherits_top_level_seed(tmp_path):
    model_seeds = []
    for seed in (3, 4):
        cfg_path = tmp_path / f"seed{seed}.yaml"
        write_config(cfg_path, seed=seed)
        model_seeds.append(fd.load_config(cfg_path).model.seed)
    assert model_seeds == [3, 4]
    cfg_path = tmp_path / "explicit.yaml"
    write_config(cfg_path, seed=3,
                 model={"blocks": 1, "width": 24, "time_embed_dim": 12, "seed": 9})
    assert fd.load_config(cfg_path).model.seed == 9


def test_substreams_are_deterministic_and_distinct():
    a = fd.substream(5, "train").random(4)
    b = fd.substream(5, "train").random(4)
    c = fd.substream(5, "sample").random(4)
    assert (a == b).all()
    assert not np.allclose(a, c)


# --- subcommands ------------------------------------------------------------

def test_gen_data_sawtooth_and_rerun_identical(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, d=16, model={"blocks": 1, "width": 16, "time_embed_dim": 8})
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = json.loads((out / "dataset.json").read_text())
    assert payload["kind"] == "product" and len(payload["probs"]) == 16
    assert min(payload["probs"]) == pytest.approx(0.05)
    assert max(payload["probs"]) == pytest.approx(0.95)
    first = (out / "dataset.json").read_bytes()
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "dataset.json").read_bytes() == first


def test_gen_data_empirical_mode_and_training_from_file(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, dataset={"kind": "empirical-file", "n_train": 500,
                                    "path": str(tmp_path / "data" / "train.txt")},
                 training={"steps": 8, "batch_size": 16, "lr": 1e-3})
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
    samples = fd.read_samples(tmp_path / "data" / "train.txt")
    assert samples.n == 500 and samples.d == 4
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    _, _, meta = fd.load_checkpoint(out / "checkpoint.bin")
    assert meta.steps == 8


def test_gen_data_table_normalization_warning(tmp_path, capsys):
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"mass": [1.0, 1.0, 1.0, 3.0]}))
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, d=2, dataset={"kind": "table-file", "path": str(table_path)},
                 model={"blocks": 1, "width": 16, "time_embed_dim": 8})
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "normalizing" in capsys.readouterr().err
    payload = json.loads((out / "dataset.json").read_text())
    assert sum(payload["mass"]) == pytest.approx(1.0)
    assert payload["mass"][3] == pytest.approx(0.5)


@pytest.mark.parametrize("payload, field", [
    ({"probs": [0.25] * 4}, "'mass'"),
    ([0.25] * 4, "JSON object"),
    ({"mass": [0.5, 0.5]}, "'mass'"),
    ({"mass": [0.25, 0.25, "x", 0.25]}, "'mass'"),
    ({"mass": [float("nan"), 0.5, 0.25, 0.25]}, "'mass'"),
    ({"mass": [float("inf"), 0.5, 0.25, 0.25]}, "'mass'"),
    ({"mass": [True, 0, 0, 0]}, "'mass'"),
], ids=["no-mass", "list", "short-mass", "str-mass", "nan-mass", "inf-mass", "bool-mass"])
def test_gen_data_rejects_malformed_table_file(tmp_path, capsys, payload, field):
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(payload))
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, d=2, dataset={"kind": "table-file", "path": str(table_path)})
    code = main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "data")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and str(table_path) in err and field in err
    assert "Traceback" not in err


def test_train_sample_eval_pipeline(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path)
    out = tmp_path / "run"
    assert main(["gen-data", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    log_lines = (out / "training_log.csv").read_text().strip().splitlines()
    assert log_lines[0].startswith("step,loss_total")
    assert len(log_lines) == 61
    params, model_cfg, meta = fd.load_checkpoint(out / "checkpoint.bin")
    assert meta.steps == 60 and model_cfg.d == 4

    assert main(["sample", "--config", str(cfg_path), "--sampler", "discrete",
                 "--steps", "25", "-n", "800"]) == 0
    dump = fd.read_samples(out / "samples.txt")
    assert dump.n == 800 and dump.d == 4
    sidecar = json.loads((out / "samples.json").read_text())
    assert sidecar["sampler"] == "discrete" and sidecar["schedule"]["steps"] == 25

    assert main(["eval", "--config", str(cfg_path),
                 "--samples", str(out / "samples.txt"),
                 "--dataset", str(out / "dataset.json")]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert "swd" in metrics and "swd_self_distance_floor" in metrics
    assert "kl_samples_vs_reference" in metrics
    assert (out / "metrics.csv").exists()


def test_train_rerun_is_byte_identical(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, training={"steps": 30, "batch_size": 16, "lr": 1e-3})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()
    assert (out_a / "training_log.csv").read_bytes() == (out_b / "training_log.csv").read_bytes()


def test_train_resume_continues_numbering(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--resume",
                 str(out / "checkpoint.bin")]) == 0
    rows = (out / "training_log.csv").read_text().strip().splitlines()[1:]
    assert rows[0].split(",")[0] == "60"
    _, _, meta = fd.load_checkpoint(out / "checkpoint.bin")
    assert meta.steps == 120


@pytest.mark.parametrize("changed", [{"lam": 2.0}, {"t_f": 2.0}], ids=["lam", "t_f"])
def test_train_resume_refuses_a_checkpoint_of_another_process(tmp_path, capsys, changed):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, training={"steps": 5, "batch_size": 16, "lr": 1e-3})
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = tmp_path / "run" / "checkpoint.bin"
    first = ckpt.read_bytes()
    other = tmp_path / "other.yaml"
    write_config(other, training={"steps": 5, "batch_size": 16, "lr": 1e-3}, **changed)
    assert main(["train", "--config", str(other), "--resume", str(ckpt)]) == 2
    assert f"run wants {next(iter(changed))}=2.0" in capsys.readouterr().err
    assert ckpt.read_bytes() == first


def test_train_seed_flag_reaches_model_seed(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, training={"steps": 5, "batch_size": 16, "lr": 1e-3})
    configs = {}
    for seed in (None, 0, 5):
        out = tmp_path / f"seed-{seed}"
        flag = [] if seed is None else ["--seed", str(seed)]
        assert main(["train", "--config", str(cfg_path), "--out", str(out), *flag]) == 0
        _, configs[seed], meta = fd.load_checkpoint(out / "checkpoint.bin")
        assert meta.seed == (11 if seed is None else seed)
    assert configs[None].seed == 11  # the model section inherits the top-level seed
    assert configs[0].seed == 0 and configs[5].seed == 5
    assert not np.array_equal(fd.init_params(configs[5]), fd.init_params(configs[0]))


def test_sample_out_reads_checkpoint_from_out(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, training={"steps": 5, "batch_size": 16, "lr": 1e-3})
    alt = tmp_path / "alt"
    assert main(["train", "--config", str(cfg_path), "--out", str(alt)]) == 0
    assert main(["sample", "--config", str(cfg_path), "--out", str(alt),
                 "--sampler", "discrete", "--steps", "5", "-n", "50"]) == 0
    assert fd.read_samples(alt / "samples.txt").n == 50
    assert not (tmp_path / "run").exists()


def test_sample_exact_oracle_uniform_dump(tmp_path):
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"mass": [0.25, 0.25, 0.25, 0.25]}))
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, d=2, dataset={"kind": "table-file", "path": str(table_path)},
                 model={"blocks": 1, "width": 16, "time_embed_dim": 8},
                 n_samples=20000)
    out = tmp_path / "run"
    assert main(["sample", "--config", str(cfg_path), "--exact-oracle"]) == 0
    dump = fd.read_samples(out / "samples.txt")
    assert_uniform_chi2(dump.samples, 2)


def test_sample_seeded_runs_identical(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, n_samples=300)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["sample", "--config", str(cfg_path), "--exact-oracle",
                     "--out", str(out)]) == 0
    assert (out_a / "samples.txt").read_bytes() == (out_b / "samples.txt").read_bytes()


def test_sample_flip_sidecar_records_total(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, sampler="flip", flips={"kind": "linear", "total": 9},
                 n_samples=50)
    out = tmp_path / "run"
    assert main(["sample", "--config", str(cfg_path), "--exact-oracle"]) == 0
    sidecar = json.loads((out / "samples.json").read_text())
    assert sidecar["flip_total"] == 9 and sidecar["flip_kind"] == "linear"


def test_sample_n_flag_sets_row_count(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path)
    assert main(["sample", "--config", str(cfg_path), "--exact-oracle", "-n", "5"]) == 0
    out = tmp_path / "run"
    assert fd.read_samples(out / "samples.txt").n == 5
    assert json.loads((out / "samples.json").read_text())["n"] == 5


@pytest.mark.parametrize("flags", [["-n", "0"], ["-n", "-3"], ["--steps", "0"]],
                         ids=["n0", "n-3", "steps0"])
def test_sample_rejects_counts_below_one(tmp_path, capsys, flags):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path)
    assert main(["sample", "--config", str(cfg_path), "--exact-oracle", *flags]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "run" / "samples.txt").exists()


def test_config_zero_samples_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, n_samples=0)
    with pytest.raises(fd.ConfigError, match="n_samples"):
        fd.load_config(cfg_path)
    assert main(["sample", "--config", str(cfg_path), "--exact-oracle"]) == 2
    assert "error:" in capsys.readouterr().err


def test_sample_checkpoint_horizon_mismatch(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path)]) == 0
    cfg2 = tmp_path / "run2.yaml"
    write_config(cfg2, t_f=10.0)
    code = main(["sample", "--config", str(cfg2), "--checkpoint",
                 str(out / "checkpoint.bin"), "--out", str(tmp_path / "r2")])
    assert code == 2  # configuration mismatch surfaces as a CLI error


def test_eval_lineage_mismatch(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, n_samples=200)
    out = tmp_path / "run"
    assert main(["gen-data", "--config", str(cfg_path)]) == 0
    assert main(["sample", "--config", str(cfg_path), "--exact-oracle"]) == 0
    # different seed -> different hash
    cfg2 = tmp_path / "other.yaml"
    write_config(cfg2, seed=999)
    out2 = tmp_path / "other_out"
    assert main(["gen-data", "--config", str(cfg2), "--out", str(out2)]) == 0
    code = main(["eval", "--config", str(cfg_path),
                 "--samples", str(out / "samples.txt"),
                 "--dataset", str(out2 / "dataset.json")])
    assert code == 2
    assert main(["eval", "--config", str(cfg_path),
                 "--samples", str(out / "samples.txt"),
                 "--dataset", str(out2 / "dataset.json"),
                 "--allow-mismatch"]) == 0


def test_eval_rejects_empty_samples(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path)
    out = tmp_path / "run"
    assert main(["gen-data", "--config", str(cfg_path)]) == 0
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    empty.with_suffix(".json").write_text(json.dumps({"config_hash": "x"}))
    code = main(["eval", "--config", str(cfg_path), "--samples", str(empty),
                 "--dataset", str(out / "dataset.json"), "--allow-mismatch"])
    assert code == 2


@pytest.mark.parametrize("payload, field", [
    ([0.5, 0.5], "JSON object"),
    ({"d": 2, "probs": [0.5, 0.5]}, "'kind'"),
    ({"kind": "histogram", "d": 2, "probs": [0.5, 0.5]}, "'kind'"),
    ({"kind": "product", "probs": [0.5, 0.5]}, "'d'"),
    ({"kind": "product", "d": "2", "probs": [0.5, 0.5]}, "'d'"),
    ({"kind": "product", "d": 2, "probs": [0.5]}, "'probs'"),
    ({"kind": "product", "d": 2, "probs": ["a", 0.5]}, "'probs'"),
    ({"kind": "table", "d": 2, "mass": [0.5, 0.5]}, "'mass'"),
    ({"kind": "table", "d": 2}, "'mass'"),
    ({"kind": "product", "d": 2, "probs": [True, 0.5]}, "'probs'"),
    ({"kind": "table", "d": 2, "mass": [float("nan"), 0.5, 0.25, 0.25]}, "'mass'"),
    ({"kind": "table", "d": 1, "mass": [False, True]}, "'mass'"),
], ids=["list", "no-kind", "bad-kind", "no-d", "str-d", "short-probs", "str-prob",
        "short-mass", "no-mass", "bool-prob", "nan-mass", "bool-mass"])
def test_eval_rejects_malformed_dataset(tmp_path, capsys, payload, field):
    samples = tmp_path / "samples.txt"
    fd.write_samples(samples, np.zeros((3, 2), dtype=np.int8), {})
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps(payload))
    code = main(["eval", "--samples", str(samples), "--dataset", str(dataset),
                 "--out", str(tmp_path / "eval"), "--allow-mismatch"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and str(dataset) in err and field in err
    assert "Traceback" not in err


def test_validate_bounds_small_sweep(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, bounds={"dims": [2, 3], "n_instances": 4,
                                   "k_values": [25, 100], "t_f": 4.0,
                                   "eta_points": 10, "eta_max": 0.4,
                                   "tv_dims": [2, 4]})
    out = tmp_path / "run"
    assert main(["validate-bounds", "--config", str(cfg_path)]) == 0
    rows = (out / "bound_report.csv").read_text().strip().splitlines()
    assert rows[0].startswith("kind,instance,d,k,kl_init")
    kl_rows = [r for r in rows[1:] if r.startswith("kl,")]
    assert len(kl_rows) == 8
    # report recomputes: bound column equals the formula from its own columns
    for row in kl_rows:
        parts = row.split(",")
        kl_init, beta, tau, eps, t_f, bound = map(float, parts[4:10])
        assert bound == pytest.approx(np.exp(-t_f) * kl_init + tau * beta + eps * t_f,
                                      abs=1e-12)


def test_validate_bounds_corrupt_mode_reports_eps(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, bounds={"dims": [2], "n_instances": 1,
                                   "k_values": [40], "t_f": 3.0,
                                   "eta_points": 2, "eta_max": 0.1,
                                   "tv_dims": [2]})
    out = tmp_path / "run"
    assert main(["validate-bounds", "--config", str(cfg_path), "--corrupt", "0.5"]) == 0
    rows = [r.split(",") for r in
            (out / "bound_report.csv").read_text().strip().splitlines()[1:]
            if r.startswith("kl,")]
    assert float(rows[0][7]) > 0.01  # estimated eps is reported


def test_forward_diag_prints_tables(tmp_path, capsys):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, d=3, model={"blocks": 1, "width": 16, "time_embed_dim": 8})
    assert main(["forward-diag", "--config", str(cfg_path), "--times", "0.1,1.0"]) == 0
    text = capsys.readouterr().out
    assert "single-bit kernel" in text
    assert "marginal" in text


@pytest.mark.parametrize("flag", ["--out", "--seed"])
def test_forward_diag_refuses_flags_it_would_ignore(flag):
    with pytest.raises(SystemExit) as exc:
        main(["forward-diag", flag, "1"])
    assert exc.value.code == 2
