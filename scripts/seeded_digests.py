"""Print one sha256 per seeded output of the samplers, the exact backward
marginal, the exact reverse law, the validate-bounds report with and without
``--corrupt 0.05`` (the shifted score source), the sliced Wasserstein metric, a
sample dump's bytes and read-back, the exact dense denoiser and score,
``propagate_mass`` at d=8, three samplers on a d=8 learned source, three
training runs, single-chain discretized draws, ``distinct_rows`` on int8 and
float64 0/1 sets, and the denoise-renoise sampler on the d=8 learned source.

Two checkouts that print the same lines produce byte-identical outputs, so a
change meant to be exact can be checked with one diff:

    python3 scripts/seeded_digests.py > before.txt   # in the old checkout
    python3 scripts/seeded_digests.py > after.txt    # in the new one
    diff before.txt after.txt

``--check [FILE]`` compares the lines with FILE (by default the committed
``scripts/seeded_digests.txt``), prints each name whose digest differs with
its old and new digest, and exits 1 on any difference. A change that moves a
seeded output rewrites that file, so the moved lines show in its diff:

    python3 scripts/seeded_digests.py --check
    python3 scripts/seeded_digests.py > scripts/seeded_digests.txt

BLAS is pinned to one thread, since the thread count can change the last bit
of a matrix product. Other BLAS builds (or CPUs) can differ in those bits even
so, which moves every line that goes through a matrix product; that is why the
check is a script to run on one machine across commits, and not a test.
Runs in about thirty seconds on one core.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import flipdiff as fd  # noqa: E402
from flipdiff.cli import build_distribution  # noqa: E402
from flipdiff.cli import main as cli_main  # noqa: E402
from flipdiff.config import load_config  # noqa: E402

LAM, T_F = 1.0, 3.0
COMMITTED = ROOT / "scripts/seeded_digests.txt"


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def sources() -> dict:
    law_rng = np.random.default_rng(20)
    dense = law_rng.random(16) + 0.05
    learned_cfg = fd.ModelConfig(d=6, blocks=1, width=32, time_embed_dim=16, seed=3)
    return {
        "exact-product-d3": fd.ExactScoreSource(fd.ProductBernoulli([0.1, 0.5, 0.85]),
                                                LAM, T_F),
        "exact-dense-d4": fd.ExactScoreSource(fd.DenseTable(dense / dense.sum()), LAM, T_F),
        "learned-d6": fd.LearnedScoreSource(fd.init_params(learned_cfg), learned_cfg,
                                            LAM, T_F),
    }


def sampler_lines(name: str, src) -> list[str]:
    n = 300 if src.kind == "learned" else 2000
    schedule = fd.time_grid("cosine", 40, T_F)
    flips = fd.flip_counts("linear", schedule, src.d)
    rngs = [np.random.default_rng([17, k]) for k in range(5)]
    runs = {
        "continuous": fd.sample_continuous_batch(src, n, rngs[0], return_jump_counts=True),
        "percoord": (fd.sample_percoord_batch(src, n, rngs[1]),),
        "discrete": (fd.sample_discretized_batch(src, schedule, LAM, n, rngs[2]),),
        "flip": (fd.sample_flip_schedule_batch(src, schedule, flips, LAM, n, rngs[3]),),
        "denoise": (fd.sample_denoise_renoise_batch(src, schedule, LAM, n, rngs[4]),),
    }
    return [f"{name}/{kind} {digest(*out)}" for kind, out in runs.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", nargs="?", const=COMMITTED, metavar="FILE",
                        help=f"compare with FILE (default {COMMITTED.relative_to(ROOT)}) "
                             "and exit 1 on any difference")
    args = parser.parse_args(argv)
    lines = seeded_lines()
    if args.check is None:
        print("\n".join(lines))
        return 0
    return check(lines, Path(args.check))


def _by_name(lines) -> dict[str, str]:
    return dict(line.rsplit(" ", 1) for line in lines if line.strip())


def check(lines: list[str], path: Path) -> int:
    """Print each name whose digest differs from ``path`` (a missing name
    shows as ``-``); 1 if any does, else 0."""
    old, new = _by_name(path.read_text().splitlines()), _by_name(lines)
    differ = [name for name in {**old, **new} if old.get(name) != new.get(name)]
    for name in differ:
        print(f"{name}: {old.get(name, '-')} -> {new.get(name, '-')}")
    print(f"{len(differ)} of {len(new)} lines differ from {path}")
    return 1 if differ else 0


def seeded_lines() -> list[str]:
    lines = []
    srcs = sources()
    for name, src in srcs.items():
        lines += sampler_lines(name, src)
    schedule = fd.time_grid("linear", 50, T_F)
    for name in ("exact-product-d3", "exact-dense-d4"):
        terminal = fd.exact_backward_marginal(srcs[name], schedule, LAM)
        lines.append(f"{name}/exact_backward_marginal {digest(terminal.mass)}")
    nu_product = fd.exact_reverse_law(srcs["exact-product-d3"].dist, LAM, T_F)
    nu_dense = fd.exact_reverse_law(srcs["exact-dense-d4"].dist, LAM, T_F)
    lines.append(f"exact_reverse_law {digest(nu_product.probs, nu_dense.mass)}")

    for corrupt in ([], ["--corrupt", "0.05"]):
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["validate-bounds", "--config",
                                 str(ROOT / "scripts/configs/bounds_sweep.yaml"), "--out", tmp,
                                 *corrupt])
            report = (Path(tmp) / "bound_report.csv").read_bytes()
            tag = "/corrupt=0.05" if corrupt else ""
            lines.append(f"validate-bounds{tag}/exit={code} {hashlib.sha256(report).hexdigest()}")

    data_rng = np.random.default_rng(5)
    a = fd.EmpiricalSet(data_rng.integers(0, 2, size=(2000, 8), dtype=np.int8))
    b = fd.EmpiricalSet(data_rng.integers(0, 2, size=(2000, 8), dtype=np.int8))
    c = fd.EmpiricalSet(data_rng.integers(0, 2, size=(1500, 8), dtype=np.int8))
    for name, other in (("equal-n", b), ("unequal-n", c)):
        est = fd.swd(a, other, n_dirs=1000, rng=np.random.default_rng(6))
        lines.append(f"swd/{name} {hashlib.sha256(est.to_json().encode()).hexdigest()}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.txt"
        dump = data_rng.integers(0, 2, size=(2000, 8), dtype=np.int8)
        fd.write_samples(path, dump, {})
        same = bool((fd.read_samples(path).samples == dump).all())
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"samples-io/read-back={same} {sha}")
    d8, learned_d8 = d8_lines(srcs["exact-dense-d4"])
    lines += d8
    lines += training_lines()
    lines.append(single_chain_line(srcs))
    lines.append(distinct_rows_line())
    lines.append(learned_d8_denoise_line(learned_d8))
    return lines


def d8_lines(dense_src) -> tuple[list[str], fd.LearnedScoreSource]:
    """Outputs added after the first 20 lines: the dense denoiser (the
    shell-table marginal and one cross table per coordinate) and score at 64
    per-row times, propagate_mass at d=8, and the continuous, discretized and
    per-coordinate samplers at d=8, where a rate row has 8 entries. A fresh model predicts exactly 0.5, so its
    weights are perturbed to give distinct rates per coordinate; that source
    is returned with the lines."""
    rng = np.random.default_rng(30)
    ts = rng.uniform(0.0, T_F, size=64)
    states = rng.integers(0, 2, size=(64, 4), dtype=np.int8)
    lines = [f"exact-dense-d4/denoiser_rows {digest(dense_src.denoiser_rows(ts, states))}",
             f"exact-dense-d4/score_rows {digest(dense_src.score_rows(ts, states))}"]

    mass = rng.random(256) + 0.05
    mass /= mass.sum()
    lines.append(f"propagate_mass-d8 {digest(fd.propagate_mass(mass, 0.37, LAM))}")

    cfg = fd.ModelConfig(d=8, blocks=1, width=32, time_embed_dim=16, seed=8)
    params = fd.init_params(cfg)
    params += rng.normal(0.0, 0.3, size=params.size)
    src = fd.LearnedScoreSource(params, cfg, LAM, T_F)
    schedule = fd.time_grid("cosine", 40, T_F)
    cont = fd.sample_continuous_batch(src, 300, np.random.default_rng([31, 0]),
                                      return_jump_counts=True)
    disc = fd.sample_discretized_batch(src, schedule, LAM, 2000, np.random.default_rng([31, 1]))
    lines.append(f"learned-d8/continuous {digest(*cont)}")
    lines.append(f"learned-d8/discrete {digest(disc)}")
    percoord = fd.sample_percoord_batch(src, 300, np.random.default_rng([31, 2]))
    lines.append(f"learned-d8/percoord {digest(percoord)}")
    return lines, src


def learned_d8_denoise_line(src) -> str:
    """The denoise-renoise sampler on the perturbed d=8 model, whose
    predictions differ from row to row, so the line also shows whether each
    distinct row's prediction is gathered back to the rows it came from."""
    schedule = fd.time_grid("cosine", 40, T_F)
    out = fd.sample_denoise_renoise_batch(src, schedule, LAM, 2000, np.random.default_rng([31, 3]))
    return f"learned-d8/denoise {digest(out)}"


def training_lines() -> list[str]:
    """Parameters and log rows after 200 steps: the shipped d=8 sawtooth
    config's model, loss and optimizer, a small model trained on all three
    losses with weight decay, lr decay and EMA, and the same small model on
    cross-entropy alone without the 1/w_t scaling. The last run's large
    learning rate drives some predictions past the cross-entropy clip, so
    its line also covers the clipped entries' zero gradient."""
    cfg = load_config(ROOT / "scripts/configs/sawtooth_d8.yaml")
    small_settings = fd.TrainSettings(steps=200, batch_size=64, lr=3e-3, weight_decay=0.01,
                                      decay_every=50, decay_rate=0.7, ema=True, ema_rate=0.95)
    small_model = fd.ModelConfig(d=6, blocks=2, width=32, time_embed_dim=16, seed=4)
    runs = {
        "train/sawtooth_d8": (build_distribution(cfg), cfg.model, cfg.loss,
                              replace(cfg.training, steps=200), cfg.lam, cfg.t_f),
        "train/d6-l2+e+ce-ema": (fd.sawtooth_params(6), small_model,
                                 fd.LossSpec(1, 1, 1, w_scaled=True), small_settings, LAM, T_F),
        "train/d6-ce-unscaled": (fd.sawtooth_params(6), small_model, fd.LossSpec(0, 0, 1),
                                 fd.TrainSettings(steps=200, batch_size=64, lr=0.1), LAM, T_F),
    }
    lines = []
    for name, (data, model, loss, settings, lam, t_f) in runs.items():
        res = fd.train(data, model, loss, settings, lam, t_f, np.random.default_rng(40))
        lines.append(f"{name} {digest(res.params, np.array(res.log_rows))}")
    return lines


def single_chain_line(srcs) -> str:
    """200 one-chain ``sample_discretized_batch`` draws per source, all from one
    generator, and four numbers drawn after them, so the line also shows
    whether the draws left the random stream where they found it. Every
    source has d < 8, where the batch form's row totals equal ``.sum()``."""
    rng = np.random.default_rng(32)
    schedule = fd.time_grid("cosine", 40, T_F)
    draws = [np.stack([fd.sample_discretized_batch(src, schedule, LAM, 1, rng)[0]
                       for _ in range(200)]) for src in srcs.values()]
    return f"single-chain/discrete {digest(*draws, rng.random(4))}"


def distinct_rows_line() -> str:
    """``first``, ``inverse`` and ``counts`` of ``distinct_rows`` on 3000 rows
    drawn from 200 random 0/1 rows, so rows repeat at every d, as int8 and as
    float64, at d = 3, 8, 16 and 40."""
    rng = np.random.default_rng(34)
    outputs = []
    for d in (3, 8, 16, 40):
        pool = rng.integers(0, 2, size=(200, d), dtype=np.int8)
        rows = pool[rng.integers(0, 200, size=3000)]
        for dtype in (np.int8, np.float64):
            outputs += fd.distinct_rows(rows.astype(dtype))
    return f"distinct_rows {digest(*outputs)}"


if __name__ == "__main__":
    sys.exit(main())
