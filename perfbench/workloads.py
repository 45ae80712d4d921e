"""The benchmark's three workloads.

Each workload has a set-up (timed, repeated by the runner), phases made of
operations (timed one by one, cycled until the run's time is used), a check
of every operation's output, and a final check. Every input derives from the
workload seed; the package receives only the generated inputs.

- ``train_d8``: the training user. Chunks of ``training.train`` on the
  shipped d=8 sawtooth config at batch 512. Every row has its own time, so
  no (t, x) reuse applies; the only workload with the backward pass, AdamW
  and ``make_batch``.
- ``sample_d8``: the ``sample -> eval`` user. Set-up trains the d=8 model;
  the phases are denoise-renoise at n=20000 with the shipped K=30 cosine
  grid (30 large score batches), continuous thinning at n=500 (thousands of
  small ones), and eval of the denoise dump.
- ``exact_oracle``: the verification user; never touches the model. The
  ``validate-bounds`` sweep on the shipped config, then three samplers on
  the exact d=3 product oracle, cross-validated against each other.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import time
from pathlib import Path

import numpy as np

from flipdiff import cli, metrics, samplers, training
from flipdiff.config import load_config
from flipdiff.forward import propagate_mass
from flipdiff.model import init_params
from flipdiff.samplers import ExactScoreSource, LearnedScoreSource
from flipdiff.schedules import time_grid
from flipdiff.states import EmpiricalSet, all_states, sawtooth_params

SAWTOOTH_CONFIG = Path("scripts/configs/sawtooth_d8.yaml")
BOUNDS_CONFIG = Path("scripts/configs/bounds_sweep.yaml")
CONFIGS = (SAWTOOTH_CONFIG, BOUNDS_CONFIG)

# A TV distance (range [0, 2]) fails its check above TV_MARGIN times the
# largest of TV_SIMULATIONS distances simulated from multinomial draws of the
# same size, i.e. a quarter beyond its simulated 99.9th percentile.
TV_SIMULATIONS = 1000
TV_MARGIN = 1.25


def tv_tolerance(probs: np.ndarray, n: int, pairwise: bool,
                 rng: np.random.Generator) -> float:
    """TV tolerance between an n-sample frequency table and ``probs``, or
    with ``pairwise`` between two independent n-sample tables of ``probs``."""
    draws = rng.multinomial(n, probs / probs.sum(), size=(TV_SIMULATIONS, 2)) / n
    other = draws[:, 1] if pairwise else probs
    return TV_MARGIN * float(np.abs(draws[:, 0] - other).sum(axis=1).max())


def _record_max(values: dict, key: str, value: float) -> None:
    values[key] = max(values.get(key, value), value)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _sawtooth(root: Path):
    cfg = load_config(root / SAWTOOTH_CONFIG)
    return cfg, cli.build_distribution(cfg)


class TrainD8:
    name = "train_d8"
    phases = ("train",)
    chunk_steps = 50
    min_steps = 300               # the accuracy check needs at least this many
    check_times = np.linspace(0.05, 2.95, 7)

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed = root, seed
        self.check_values: dict[str, float] = {}

    def sizes(self) -> dict:
        return {"batch_size": self.cfg.training.batch_size, "chunk_steps": self.chunk_steps,
                "min_steps": self.min_steps, "model": dataclasses.asdict(self.cfg.model)}

    def setup(self) -> None:
        self.cfg, self.dist = _sawtooth(self.root)
        self.settings = dataclasses.replace(self.cfg.training, steps=self.chunk_steps)
        exact = ExactScoreSource(self.dist, self.cfg.lam, self.cfg.t_f)
        self.states = all_states(self.cfg.d)
        self.reference = [exact.denoiser_batch(t, self.states) for t in self.check_times]
        self.fresh_deviation = self.deviation(init_params(self.cfg.model))
        # one warm-up step, so lazy allocations happen during set-up
        self._train(dataclasses.replace(self.settings, steps=1), _rng(self.seed, 99), None, None, 0)
        self.params, self.opt_state, self.step = None, None, 0
        self.rng = _rng(self.seed, 0)

    def _train(self, settings, rng, init, opt_state, start_step):
        cfg = self.cfg
        return training.train(self.dist, cfg.model, cfg.loss, settings, cfg.lam, cfg.t_f,
                              rng, init=init, opt_state=opt_state, start_step=start_step)

    def deviation(self, params) -> float:
        """Mean |learned - exact denoiser| over all states at the check times."""
        src = LearnedScoreSource(params, self.cfg.model, self.cfg.lam, self.cfg.t_f)
        return float(np.mean([np.abs(src.denoiser_batch(t, self.states) - ref).mean()
                              for t, ref in zip(self.check_times, self.reference)]))

    def op(self, phase: str, index: int, span):
        res = self._train(self.settings, self.rng, self.params, self.opt_state, self.step)
        self.params, self.opt_state = res.params, res.opt_state
        self.step += self.chunk_steps
        return res.final_loss

    def check(self, phase: str, loss) -> list[str]:
        return [] if np.isfinite(loss) else [f"non-finite training loss {loss!r}"]

    def finish(self) -> list[str]:
        while self.step < self.min_steps:
            self.op("train", -1, None)
        dev, bound = self.deviation(self.params), self.fresh_deviation / 3.0
        self.check_values.update(denoiser_deviation=dev, deviation_bound=bound,
                                 steps_trained=self.step)
        if dev < bound:
            return []
        return [f"denoiser deviation {dev:.4f} after {self.step} steps is not below "
                f"{bound:.4f} (a third of the fresh model's {self.fresh_deviation:.4f})"]

    def named(self, medians: dict) -> dict:
        return {"train_steps_per_s": (self.chunk_steps / medians["train"], "1/s")}


class SampleD8:
    name = "sample_d8"
    phases = ("denoise", "continuous", "eval")
    setup_steps = 200
    n_denoise = 20000
    n_continuous = 500

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed, self.workdir = root, seed, workdir
        self.digests: list[str] = []
        self.setup_train: list[tuple[float, float]] = []  # monotonic intervals
        self.dump = None
        self.exact_law = None
        self.check_values: dict[str, float] = {}

    def sizes(self) -> dict:
        return {"setup_train_steps": self.setup_steps, "batch_size": self.cfg.training.batch_size,
                "n_denoise": self.n_denoise, "denoise_steps": self.schedule.n_steps,
                "schedule": self.schedule.kind, "n_continuous": self.n_continuous,
                "n_reference": self.n_denoise}

    def setup(self) -> None:
        self.cfg, self.dist = _sawtooth(self.root)
        cfg = self.cfg
        settings = dataclasses.replace(cfg.training, steps=self.setup_steps)
        start = time.monotonic()
        params = training.train(self.dist, cfg.model, cfg.loss, settings, cfg.lam, cfg.t_f,
                                _rng(self.seed, 0)).params
        self.setup_train.append((start, time.monotonic()))
        self.digests.append(hashlib.sha256(params.tobytes()).hexdigest())
        self.src = LearnedScoreSource(params, cfg.model, cfg.lam, cfg.t_f)
        self.schedule = time_grid(cfg.schedule.kind, cfg.schedule.steps, cfg.t_f)
        self.reference_table = self.dist.to_table()

    def op(self, phase: str, index: int, span):
        lam = self.cfg.lam
        if phase == "denoise":
            self.dump = samplers.sample_denoise_renoise_batch(
                self.src, self.schedule, lam, self.n_denoise, _rng(self.seed, 1, index))
            return self.dump
        if phase == "continuous":
            _, jumps = samplers.sample_continuous_batch(
                self.src, self.n_continuous, _rng(self.seed, 2, index), lam=lam,
                return_jump_counts=True)
            return jumps
        path = self.workdir / "samples.txt"
        with span("samplers.write_samples"):
            samplers.write_samples(path, self.dump, {"d": self.cfg.d, "n": self.n_denoise})
        with span("samplers.read_samples"):
            read = samplers.read_samples(path)
        reference = self.dist.sample(self.n_denoise, _rng(self.seed, 3, index))
        with span("metrics.swd"):
            estimate = metrics.swd(read, reference, rng=_rng(self.seed, 4, index))
        with span("metrics.kl_tv"):
            table = read.counts_table()
            kl = metrics.kl_divergence(table, self.reference_table)
            tv = metrics.tv_distance(table, self.reference_table)
        return self.dump, read, (estimate.value, kl, tv)

    def chain_law(self) -> np.ndarray:
        """Exact law of the denoise-renoise output for this model: each grid
        step flips bit l of x with the model's denoiser probability, then the
        forward kernel renoises to the next grid time."""
        d, lam, grid = self.cfg.d, self.cfg.lam, self.schedule.grid
        states = all_states(d)
        moved = (states[:, None, :] != states[None, :, :])
        mass = np.full(1 << d, 1.0 / (1 << d))
        for k in range(self.schedule.n_steps):
            probs = self.src.denoiser_batch(grid[k], states)[:, None, :]
            step = np.where(moved, probs, 1.0 - probs).prod(axis=2)
            mass = mass @ step
            if k < self.schedule.n_steps - 1:
                mass = propagate_mass(mass, self.cfg.t_f - grid[k + 1], lam)
        return mass

    def check(self, phase: str, output) -> list[str]:
        if phase == "denoise":
            ok = output.shape == (self.n_denoise, self.cfg.d) and np.isin(output, (0, 1)).all()
            return [] if ok else ["denoise dump has the wrong shape or non-binary entries"]
        if phase == "continuous":
            cap = 4.0 * self.cfg.lam * self.cfg.d * self.cfg.t_f
            mean = float(np.mean(output))
            ok = np.isfinite(output).all() and 0.0 < mean <= cap
            return [] if ok else [f"continuous jumps per chain {mean!r} outside (0, {cap}]"]
        dump, read, values = output
        errors = []
        if not np.array_equal(read.samples, dump):
            errors.append("read_samples does not return the dump write_samples wrote")
        if not np.isfinite(values).all():
            errors.append(f"non-finite eval metrics (swd, kl, tv) = {values!r}")
        if self.exact_law is None:
            self.exact_law = self.chain_law()
            self.check_values["tv_tolerance"] = tv_tolerance(
                self.exact_law, self.n_denoise, pairwise=False, rng=_rng(self.seed, 5))
        tv = float(np.abs(read.counts_table().mass - self.exact_law).sum())
        tol = self.check_values["tv_tolerance"]
        _record_max(self.check_values, "tv_dump_vs_exact_law", tv)
        if not tv <= tol:
            errors.append(f"TV {tv:.4f} between the denoise dump and the exact chain law "
                          f"exceeds the Monte-Carlo tolerance {tol:.4f}")
        return errors

    def finish(self) -> list[str]:
        if len(set(self.digests)) == 1:
            return []
        return ["set-up training is not deterministic: the repeats' parameters differ"]

    def named(self, medians: dict) -> dict:
        return {
            "denoise_samples_per_s": (self.n_denoise / medians["denoise"], "1/s"),
            "continuous_samples_per_s": (self.n_continuous / medians["continuous"], "1/s"),
            "eval_s": (medians["eval"], "s"),
        }


class ExactOracle:
    name = "exact_oracle"
    phases = ("bounds", "crossval")
    d = 3
    t_f = 3.0
    n_crossval = 20000
    discrete_steps = 400
    sampler_kinds = ("continuous", "percoord", "discrete")

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed, self.workdir = root, seed, workdir
        self.check_values: dict[str, float] = {}

    def sizes(self) -> dict:
        spec = self.bounds.bounds
        return {"bounds_kl_cases": self.kl_cases, "bounds_tv_cases": self.tv_cases,
                "bounds_dims": list(spec.dims), "bounds_k_values": list(spec.k_values),
                "crossval_d": self.d, "crossval_n": self.n_crossval,
                "discrete_steps": self.discrete_steps}

    def setup(self) -> None:
        self.bounds = load_config(self.root / BOUNDS_CONFIG)
        spec = self.bounds.bounds
        self.kl_cases = spec.n_instances * len(spec.k_values)
        self.tv_cases = len(spec.tv_dims) * spec.eta_points
        law = sawtooth_params(self.d)
        self.lam = self.bounds.lam
        self.src = ExactScoreSource(law, self.lam, self.t_f)
        self.schedule = time_grid("cosine", self.discrete_steps, self.t_f)
        self.law = law.to_table().mass
        self.tolerance = tv_tolerance(self.law, self.n_crossval, pairwise=True,
                                      rng=_rng(self.seed, 13))
        self.check_values["tv_tolerance"] = self.tolerance

    def op(self, phase: str, index: int, span):
        if phase == "bounds":
            out = self.workdir / "bounds"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["validate-bounds", "--config", str(self.root / BOUNDS_CONFIG),
                                 "--out", str(out), "--seed", str(self.seed)])
            return code, out / "bound_report.csv"
        n, lam = self.n_crossval, self.lam
        continuous, jumps = samplers.sample_continuous_batch(
            self.src, n, _rng(self.seed, 10, index), lam=lam, return_jump_counts=True)
        states = {
            "continuous": continuous,
            "percoord": samplers.sample_percoord_batch(self.src, n, _rng(self.seed, 11, index),
                                                       lam=lam),
            "discrete": samplers.sample_discretized_batch(self.src, self.schedule, lam, n,
                                                          _rng(self.seed, 12, index)),
        }
        return states, jumps

    def check(self, phase: str, output) -> list[str]:
        if phase == "bounds":
            code, report = output
            with open(report, newline="") as fh:
                rows = list(csv.DictReader(fh))
            bad = [r for r in rows if (float(r["slack"]) < 0.0 if r["kind"] == "kl"
                                       else float(r["measured"]) > float(r["bound"]))]
            errors = []
            if code != 0 or bad:
                errors.append(f"validate-bounds exited {code} with {len(bad)} violations")
            if len(rows) != self.kl_cases + self.tv_cases:
                errors.append(f"validate-bounds reported {len(rows)} cases, expected "
                              f"{self.kl_cases + self.tv_cases}")
            return errors
        states, jumps = output
        tables = {k: EmpiricalSet(v).counts_table().mass for k, v in states.items()}
        errors = [] if np.isfinite(jumps).all() else ["non-finite continuous jump counts"]
        for i, a in enumerate(self.sampler_kinds):
            for b in self.sampler_kinds[i + 1:]:
                tv = float(np.abs(tables[a] - tables[b]).sum())
                _record_max(self.check_values, f"tv_{a}_vs_{b}", tv)
                if not tv <= self.tolerance:
                    errors.append(f"TV({a}, {b}) = {tv:.4f} exceeds the Monte-Carlo "
                                  f"tolerance {self.tolerance:.4f}")
        return errors

    def finish(self) -> list[str]:
        return []

    def named(self, medians: dict) -> dict:
        return {
            "bounds_cases_per_s": ((self.kl_cases + self.tv_cases) / medians["bounds"], "1/s"),
            "crossval_samples_per_s": (
                len(self.sampler_kinds) * self.n_crossval / medians["crossval"], "1/s"),
        }


WORKLOADS = {w.name: w for w in (TrainD8, SampleD8, ExactOracle)}
