"""Command-line entry point.

Subcommands: gen-data, train, sample, eval, validate-bounds, forward-diag.
Every command takes --config (YAML) plus overriding flags; outputs carry the
config hash so downstream commands can refuse mismatched lineage.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config, substream
from .errors import ConfigError, FlipdiffError
from .forward import alpha, kernel1, marginal, marginal_table
from .metrics import (
    exact_backward_marginal,
    estimate_score_error,
    flip_fisher_info,
    kl_convergence_bound,
    kl_divergence,
    early_stop_tv_bound,
    swd,
    tv_distance,
)
from .model import CheckpointMeta, load_checkpoint, save_checkpoint
from .samplers import (
    ExactScoreSource,
    LearnedScoreSource,
    ShiftedScoreSource,
    generate,
    read_samples,
    read_sidecar,
    write_samples,
)
from .schedules import flip_counts, time_grid
from .states import (
    ENUM_LIMIT,
    DenseTable,
    Distribution,
    ProductBernoulli,
    sawtooth_params,
    uniform_table,
)
from .training import train


def _out_dir(config: RunConfig, override: str | None) -> Path:
    path = Path(override or config.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def build_distribution(config: RunConfig) -> Distribution:
    """The generative data law described by the dataset section."""
    spec = config.dataset
    if spec.kind == "sawtooth":
        return sawtooth_params(config.d)
    if spec.kind == "product":
        return ProductBernoulli(np.asarray(spec.probs))
    if spec.kind == "table-file":
        payload = json.loads(Path(spec.path).read_text())
        mass = np.asarray(payload["mass"], dtype=np.float64)
        total = mass.sum()
        if abs(total - 1.0) > 1e-12:
            print(f"warning: table masses sum to {total!r}; normalizing", file=sys.stderr)
            return DenseTable.normalized(mass)
        return DenseTable(mass)
    if spec.probs is not None:
        return ProductBernoulli(np.asarray(spec.probs))
    return sawtooth_params(config.d)  # default generator behind empirical mode


def load_training_data(config: RunConfig):
    """Distribution (resampled during training) or the fixed empirical set."""
    if config.dataset.kind == "empirical-file":
        if config.dataset.path is None:
            raise ConfigError("dataset.kind=empirical-file requires dataset.path")
        return read_samples(config.dataset.path)
    return build_distribution(config)


def cmd_gen_data(config: RunConfig, out: str | None) -> int:
    out_dir = _out_dir(config, out)
    dist = build_distribution(config)
    payload = {
        "config_hash": config.config_hash(),
        "dataset_hash": config.dataset_hash(),
        "d": config.d,
        "seed": config.seed,
    }
    if isinstance(dist, ProductBernoulli):
        payload["kind"] = "product"
        payload["probs"] = dist.probs.tolist()
    else:
        payload["kind"] = "table"
        payload["mass"] = dist.mass.tolist()
    (out_dir / "dataset.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if config.dataset.kind == "empirical-file":
        rng = substream(config.seed, "gen-data")
        samples = dist.sample(config.dataset.n_train, rng)
        target = Path(config.dataset.path) if config.dataset.path else out_dir / "dataset_samples.txt"
        write_samples(target, samples.samples, {
            "config_hash": config.config_hash(),
            "dataset_hash": config.dataset_hash(), "d": config.d,
            "n": config.dataset.n_train, "role": "training-data",
        })
        print(f"wrote {target} ({config.dataset.n_train} samples)")
    print(f"wrote {out_dir / 'dataset.json'}")
    return 0


def cmd_train(config: RunConfig, out: str | None, resume: str | None) -> int:
    out_dir = _out_dir(config, out)
    dataset = load_training_data(config)
    rng = substream(config.seed, "train")
    init = opt_state = None
    start_step = 0
    if resume:
        params, model_config, meta = load_checkpoint(resume)
        if model_config != config.model:
            raise ConfigError("resume checkpoint architecture differs from the config")
        init, start_step = params, meta.steps
    result = train(dataset, config.model, config.loss, config.training,
                   lam=config.lam, t_f=config.t_f, rng=rng, init=init,
                   opt_state=opt_state, start_step=start_step,
                   log_path=out_dir / "training_log.csv")
    meta = CheckpointMeta(lam=config.lam, t_f=config.t_f, d=config.d,
                          w1=config.loss.w1, w2=config.loss.w2, w3=config.loss.w3,
                          w_scaled=config.loss.w_scaled, seed=config.seed,
                          steps=start_step + config.training.steps,
                          config_hash=config.config_hash())
    ckpt = out_dir / "checkpoint.bin"
    save_checkpoint(ckpt, result.params, config.model, meta)
    (out_dir / "checkpoint.config.json").write_text(
        json.dumps(config.to_dict(), indent=2, sort_keys=True, default=str) + "\n")
    print(f"trained {config.training.steps} steps; final loss {result.final_loss:.6f}")
    print(f"wrote {ckpt} and {out_dir / 'training_log.csv'}")
    return 0


def _score_source(config: RunConfig, exact_oracle: bool, checkpoint: str | None,
                  out_dir: Path):
    if exact_oracle:
        return ExactScoreSource(build_distribution(config), config.lam, config.t_f)
    ckpt = checkpoint or out_dir / "checkpoint.bin"
    return LearnedScoreSource.from_checkpoint(ckpt, d=config.d, lam=config.lam, t_f=config.t_f)


def cmd_sample(config: RunConfig, out: str | None, exact_oracle: bool,
               checkpoint: str | None, n: int | None) -> int:
    out_dir = _out_dir(config, out)
    src = _score_source(config, exact_oracle, checkpoint, out_dir)
    schedule = time_grid(config.schedule.kind, config.schedule.steps, config.t_f)
    flips = flip_counts(config.flips.kind, schedule, config.flip_total)
    n = n or config.n_samples
    rng = substream(config.seed, "sample")
    states = generate(config.sampler, src, n, rng, schedule=schedule,
                      flips=flips, lam=config.lam)
    sidecar = {
        "sampler": config.sampler,
        "schedule": {"kind": schedule.kind, "steps": schedule.n_steps,
                     "horizon": schedule.horizon},
        "flip_total": config.flip_total if config.sampler == "flip" else None,
        "flip_kind": config.flips.kind if config.sampler == "flip" else None,
        "lam": config.lam,
        "t_f": config.t_f,
        "d": config.d,
        "n": n,
        "seed": config.seed,
        "source": "exact-oracle" if exact_oracle else "checkpoint",
        "config_hash": config.config_hash(),
        "dataset_hash": config.dataset_hash(),
    }
    target = out_dir / "samples.txt"
    write_samples(target, states, sidecar)
    print(f"wrote {target} ({n} samples, sampler={config.sampler})")
    return 0


def cmd_eval(config: RunConfig, samples_path: str, dataset_path: str,
             out: str | None, allow_mismatch: bool) -> int:
    out_dir = _out_dir(config, out)
    samples = read_samples(samples_path)
    sidecar = read_sidecar(samples_path)
    dataset_payload = json.loads(Path(dataset_path).read_text())
    if sidecar.get("dataset_hash") != dataset_payload.get("dataset_hash"):
        if not allow_mismatch:
            raise ConfigError(
                "sample dump and dataset come from different configs "
                "(pass --allow-mismatch to override)")
        print("warning: comparing artifacts from different configs", file=sys.stderr)
    if dataset_payload["d"] != samples.d:
        raise ConfigError(f"dimension mismatch: samples d={samples.d}, "
                          f"dataset d={dataset_payload['d']}")
    if dataset_payload["kind"] == "product":
        reference: Distribution = ProductBernoulli(np.asarray(dataset_payload["probs"]))
    else:
        reference = DenseTable(np.asarray(dataset_payload["mass"]))
    rng = substream(config.seed, "eval-reference")
    ref_draw = reference.sample(samples.n, rng)
    rng_dirs = substream(config.seed, "swd-directions")
    estimate = swd(samples, ref_draw, rng=rng_dirs)
    floor = swd(reference.sample(samples.n, rng), reference.sample(samples.n, rng),
                rng=substream(config.seed, "swd-floor"))
    metrics = {
        "swd": estimate.value,
        "swd_std_error": estimate.std_error,
        "swd_directions": estimate.n_directions,
        "swd_self_distance_floor": floor.value,
        "n_samples": samples.n,
        "config_hash": sidecar.get("config_hash"),
    }
    if samples.d <= ENUM_LIMIT:
        sample_table = samples.counts_table()
        ref_table = reference.to_table()
        metrics["kl_samples_vs_reference"] = kl_divergence(sample_table, ref_table)
        metrics["tv_samples_vs_reference"] = tv_distance(sample_table, ref_table)
    (out_dir / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    with open(out_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(sorted(metrics))
        writer.writerow([metrics[k] for k in sorted(metrics)])
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def _random_full_support(d: int, rng: np.random.Generator) -> DenseTable:
    return DenseTable.normalized(rng.uniform(0.1, 1.0, size=1 << d))


def cmd_validate_bounds(config: RunConfig, out: str | None, corrupt: float) -> int:
    """Sweep the KL bound with the exact oracle (eps = 0) and the early-stop
    TV bound on random full-support data; exit 1 on any violation."""
    out_dir = _out_dir(config, out)
    spec = config.bounds
    rng = substream(config.seed, "validate-bounds")
    rows = []
    violations = 0
    uniform_cache = {d: uniform_table(d) for d in spec.dims}
    for instance in range(spec.n_instances):
        d = spec.dims[instance % len(spec.dims)]
        mu_star = _random_full_support(d, rng)
        kl_init = kl_divergence(mu_star, uniform_cache[d])
        beta = flip_fisher_info(mu_star)
        src = ExactScoreSource(mu_star, config.lam, spec.t_f)
        if corrupt:
            src = ShiftedScoreSource(src, rate_bump=corrupt)
        for k in spec.k_values:
            schedule = time_grid("linear", k, spec.t_f)
            terminal = exact_backward_marginal(src, schedule, config.lam)
            measured = kl_divergence(mu_star, terminal)
            eps = 0.0
            if corrupt:
                exact = ExactScoreSource(mu_star, config.lam, spec.t_f)
                est = estimate_score_error(src, exact, schedule, config.lam,
                                           n_chains=2000, rng=substream(config.seed, f"eps-{instance}-{k}"))
                eps = est.eps_max
            report = kl_convergence_bound(kl_init, beta, schedule.max_step, eps,
                                          spec.t_f, measured_kl=measured)
            rows.append(("kl", f"{instance}", d, k, kl_init, beta, schedule.max_step,
                         eps, spec.t_f, report.bound, measured, report.slack))
            if not corrupt and report.slack < 0:
                violations += 1
    tv_rng = substream(config.seed, "validate-bounds-tv")
    for d in spec.tv_dims:
        mu_star = _random_full_support(d, tv_rng)
        for eta in np.linspace(spec.eta_max / spec.eta_points, spec.eta_max, spec.eta_points):
            measured = tv_distance(marginal_table(mu_star, eta, config.lam), mu_star)
            exact_bound, loose_bound = early_stop_tv_bound(eta, config.lam, d)
            rows.append(("tv", f"eta={eta:.4f}", d, "", "", "", "", "", "",
                         exact_bound, measured, exact_bound - measured))
            if measured > exact_bound:
                violations += 1
    header = ("kind", "instance", "d", "k", "kl_init", "beta", "tau", "eps",
              "t_f", "bound", "measured", "slack")
    with open(out_dir / "bound_report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {out_dir / 'bound_report.csv'}: {len(rows)} rows, "
          f"{violations} violations")
    return 1 if violations else 0


def cmd_forward_diag(config: RunConfig, times: list[float]) -> int:
    print(f"single-bit kernel entries (lam={config.lam}):")
    print("t\talpha\tstay\tswitch")
    for t in times:
        print(f"{t:g}\t{alpha(t, config.lam):.6f}\t{kernel1(0, 0, t, config.lam):.6f}"
              f"\t{kernel1(0, 1, t, config.lam):.6f}")
    dist = build_distribution(config)
    if config.d <= 12:
        print(f"\nforward marginal tables (d={config.d}):")
        for t in times:
            table = marginal_table(dist, t, config.lam)
            print(f"t={t:g}: " + " ".join(f"{m:.5f}" for m in table.mass))
    elif isinstance(dist, ProductBernoulli):
        print("\nper-bit marginal P(bit=1):")
        for t in times:
            probs = marginal(dist, t, config.lam).probs
            print(f"t={t:g}: " + " ".join(f"{p:.5f}" for p in probs))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flipdiff",
                                     description="bit-flip CTMC generative modeling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML run configuration")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="override the output directory")
        return p

    common(sub.add_parser("gen-data", help="write the dataset spec (and samples)"))
    p_train = common(sub.add_parser("train", help="fit the denoiser"))
    p_train.add_argument("--resume", help="checkpoint to continue from")
    p_sample = common(sub.add_parser("sample", help="generate samples"))
    p_sample.add_argument("--exact-oracle", action="store_true",
                          help="use the exact data score instead of a checkpoint")
    p_sample.add_argument("--checkpoint", help="checkpoint path (default: <out>/checkpoint.bin)")
    p_sample.add_argument("--sampler", choices=("continuous", "percoord", "discrete",
                                                "flip", "denoise"))
    p_sample.add_argument("--steps", type=int, help="reverse steps K")
    p_sample.add_argument("--schedule", choices=("linear", "quadratic", "cosine"))
    p_sample.add_argument("-n", "--n-samples", type=int)
    p_eval = common(sub.add_parser("eval", help="score a sample dump against a dataset"))
    p_eval.add_argument("--samples", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--allow-mismatch", action="store_true",
                        help="compare artifacts with different config hashes")
    p_bounds = common(sub.add_parser("validate-bounds",
                                     help="numerically check the convergence bounds"))
    p_bounds.add_argument("--corrupt", type=float, default=0.0,
                          help="inflate backward rates by this amount (fault injection)")
    p_diag = common(sub.add_parser("forward-diag", help="print kernel/marginal tables"))
    p_diag.add_argument("--times", default="0.1,1.0,3.0",
                        help="comma-separated inspection times")
    return parser


def _load(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if args.seed is not None:
        # model.seed was fixed when the config was built; the flag sets it too
        overrides["seed"] = args.seed
        overrides["model"] = dataclasses.replace(config.model, seed=args.seed)
    if getattr(args, "sampler", None):
        overrides["sampler"] = args.sampler
    if getattr(args, "n_samples", None):
        overrides["n_samples"] = args.n_samples
    if getattr(args, "steps", None):
        overrides["schedule"] = dataclasses.replace(config.schedule, steps=args.steps)
    if getattr(args, "schedule", None):
        base = overrides.get("schedule", config.schedule)
        overrides["schedule"] = dataclasses.replace(base, kind=args.schedule)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _load(args)
        if args.command == "gen-data":
            return cmd_gen_data(config, args.out)
        if args.command == "train":
            return cmd_train(config, args.out, args.resume)
        if args.command == "sample":
            return cmd_sample(config, args.out, args.exact_oracle,
                              args.checkpoint, args.n_samples)
        if args.command == "eval":
            return cmd_eval(config, args.samples, args.dataset, args.out,
                            args.allow_mismatch)
        if args.command == "validate-bounds":
            return cmd_validate_bounds(config, args.out, args.corrupt)
        if args.command == "forward-diag":
            times = [float(v) for v in args.times.split(",") if v]
            return cmd_forward_diag(config, times)
    except (FlipdiffError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
