"""Print one sha256 per seeded output of the samplers, the exact backward
marginal, the validate-bounds report and the sliced Wasserstein metric.

Two checkouts that print the same lines produce byte-identical outputs, so a
change meant to be exact can be checked with one diff:

    python3 scripts/seeded_digests.py > before.txt   # in the old checkout
    python3 scripts/seeded_digests.py > after.txt    # in the new one
    diff before.txt after.txt

BLAS is pinned to one thread, since the thread count can change the last bit
of a matrix product. Runs in about ten seconds on one core.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import flipdiff as fd  # noqa: E402
from flipdiff.cli import main as cli_main  # noqa: E402

LAM, T_F = 1.0, 3.0


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


def main() -> int:
    lines = []
    srcs = sources()
    for name, src in srcs.items():
        lines += sampler_lines(name, src)
    schedule = fd.time_grid("linear", 50, T_F)
    for name in ("exact-product-d3", "exact-dense-d4"):
        terminal = fd.exact_backward_marginal(srcs[name], schedule, LAM)
        lines.append(f"{name}/exact_backward_marginal {digest(terminal.mass)}")

    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["validate-bounds", "--config",
                             str(ROOT / "scripts/configs/bounds_sweep.yaml"), "--out", tmp])
        report = (Path(tmp) / "bound_report.csv").read_bytes()
        lines.append(f"validate-bounds/exit={code} {hashlib.sha256(report).hexdigest()}")

    data_rng = np.random.default_rng(5)
    a = fd.EmpiricalSet(data_rng.integers(0, 2, size=(2000, 8), dtype=np.int8))
    b = fd.EmpiricalSet(data_rng.integers(0, 2, size=(2000, 8), dtype=np.int8))
    c = fd.EmpiricalSet(data_rng.integers(0, 2, size=(1500, 8), dtype=np.int8))
    for name, other in (("equal-n", b), ("unequal-n", c)):
        est = fd.swd(a, other, n_dirs=1000, rng=np.random.default_rng(6))
        lines.append(f"swd/{name} {hashlib.sha256(est.to_json().encode()).hexdigest()}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
