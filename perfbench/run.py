"""Benchmark runner for flipdiff.

    python3 perfbench/run.py --workload {train_d8,sample_d8,exact_oracle,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``. One
workload runs in this process with BLAS pinned to ``BLAS_THREADS`` threads:
its set-up is timed ``SETUP_REPEATS`` times, then its phases cycle until
``--seconds`` are used (each phase runs at least once), every operation's
output is checked, and a final check runs. With ``--trace 1`` every
operation is run a second time with the package's entry points wrapped, and
the spans of those copies give the per-layer metrics and the tracing
overhead; the spans are written to ``.perfbench_out/``.

Times are reported in reference seconds. A probe process (``probe.py``)
times a fixed numpy kernel every ``PROBE_PERIOD_S`` on the spare core; each
operation's wall time is multiplied by ``PROBE_NOMINAL_S`` over the mean
probe time measured while the operation ran. The speed a shared machine
gives a process drifts by a quarter within tens of seconds, and this
removes most of that drift. The wall times are in the report line.

The next-to-last stdout line is a JSON report (run metadata, the workload's
named end-to-end metrics, every phase time, check figures and failures). The
last line is the result: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones). The exit code is 1 when a check fails and 2 when the package, its
configs or the probe are missing. ``--workload all`` runs each workload in
its own process and prints their named metrics together.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("train_d8", "sample_d8", "exact_oracle")
# One BLAS thread keeps the second core free for the probe, and on a small
# shared machine a second BLAS thread makes the large matmuls noisier
# without making them reliably faster.
BLAS_THREADS = 1
SETUP_REPEATS = 3
PROBE_PERIOD_S = 0.25
PROBE_NOMINAL_S = 0.016  # probe kernel time on the 2-core machine of the baseline
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ProbeError(RuntimeError):
    pass


def _args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas_env() -> dict:
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    return {name: threads for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _git_sha() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "flipdiff").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cold_import() -> None:
    """Start a fresh interpreter that imports the package, as every CLI
    command does."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **_blas_env())
    subprocess.run([sys.executable, "-c", "import flipdiff"], env=env, cwd=ROOT,
                   check=True, timeout=120)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class SpeedProbe:
    """Runs ``probe.py`` for the life of the ``with`` block; afterwards
    ``scale`` converts a wall-time interval to reference seconds."""

    def __init__(self, path: Path):
        self.path = path
        self.samples: list[tuple[float, float]] = []

    def __enter__(self):
        env = dict(os.environ, **_blas_env())
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(self.path), str(PROBE_PERIOD_S)],
            env=env, stdout=subprocess.DEVNULL)
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.path.is_file():
            for line in self.path.read_text().splitlines():
                end, seconds = line.split()
                self.samples.append((float(end), float(seconds)))

    def scale(self, start: float, end: float) -> float:
        """PROBE_NOMINAL_S over the mean probe time in [start, end], widened
        by one probe period on each side."""
        near = [s for t, s in self.samples
                if start - PROBE_PERIOD_S <= t <= end + PROBE_PERIOD_S]
        if not near:
            raise ProbeError(f"no probe sample near [{start}, {end}]")
        return PROBE_NOMINAL_S / statistics.fmean(near)

    def seconds(self, interval: tuple[float, float]) -> float:
        start, end = interval
        return (end - start) * self.scale(start, end)


class Runner:
    """Times one workload's operations and collects their checks. Times are
    (start, end) pairs of ``time.monotonic``, the probe's clock."""

    def __init__(self, workload, tracer, install):
        self.workload, self.tracer, self.install = workload, tracer, install
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0

    def attempt(self, phase: str, index: int, traced: bool) -> tuple[float, float]:
        self.attempted += 1
        span = self.tracer.span if traced else contextlib.nullcontext
        if traced:
            self.tracer.run_id = f"{phase}#{index}"
            self.install(self.tracer)
        start = time.monotonic()
        try:
            with span(f"op.{phase}"):
                output = self.workload.op(phase, index, span)
        except Exception:  # a failing operation is counted, not fatal
            self._fail([f"{phase}#{index} raised:\n{traceback.format_exc()}"])
            return start, time.monotonic()
        finally:
            if traced:
                self.tracer.restore()
        interval = start, time.monotonic()
        self._fail(self.workload.check(phase, output))
        return interval

    def _fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.errors.extend(problems)

    def measure(self, seconds: float, trace: bool):
        """Cycle the phases; the k-th operation of a phase is its cycle k."""
        phases = self.workload.phases
        times = {p: [] for p in phases}
        traced = {p: [] for p in phases}

        def last(intervals):
            return intervals[-1][1] - intervals[-1][0] if intervals else 0.0

        start = time.monotonic()
        index = 0
        while True:
            for phase in phases:
                if all(times.values()):
                    expected = last(times[phase]) + last(traced[phase])
                    if time.monotonic() - start + expected > seconds:
                        return times, traced
                times[phase].append(self.attempt(phase, index, traced=False))
                if trace:
                    traced[phase].append(self.attempt(phase, index, traced=True))
            index += 1

    def finish(self) -> None:
        self.attempted += 1
        try:
            self._fail(self.workload.finish())
        except Exception:
            self._fail([f"final check raised:\n{traceback.format_exc()}"])


def run_one(args) -> int:
    if not (SRC / "flipdiff" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(_blas_env())  # before numpy loads OpenBLAS
    sys.path.insert(0, str(SRC))
    import numpy as np

    import layers
    import workloads
    from tracer import Tracer

    missing = [str(p) for p in workloads.CONFIGS if not (ROOT / p).is_file()]
    if missing:
        print(f"error: missing config files {missing}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        tracer = Tracer()
        runner = Runner(workload, tracer, layers.install)
        setups = []
        with SpeedProbe(workdir / "probe.txt") as probe:
            time.sleep(2 * PROBE_PERIOD_S)  # the probe's first samples
            for _ in range(SETUP_REPEATS):
                start = time.monotonic()
                _cold_import()
                workload.setup()
                setups.append((start, time.monotonic()))
            times, traced = runner.measure(args.seconds, bool(args.trace))
        runner.finish()
        seconds = {p: [probe.seconds(i) for i in v] for p, v in times.items()}
        traced_seconds = {p: [probe.seconds(i) for i in v] for p, v in traced.items()}
        setup_seconds = [probe.seconds(i) for i in setups]
        setup_train_s = _median([probe.seconds(i) for i in getattr(workload, "setup_train", [])])
        traced_scale = {f"{p}#{k}": probe.scale(*interval)
                        for p, v in traced.items() for k, interval in enumerate(v)}
    except ProbeError as exc:
        print(f"error: speed probe failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    medians = {p: _median(v) for p, v in seconds.items()}
    end_to_end = {
        "pass_s": sum(medians.values()),
        "setup_s": _median(setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    named = {
        "setup_s": (end_to_end["setup_s"], "s"),
        "peak_rss_mb": (end_to_end["peak_rss_mb"], "MB"),
        "failed_frac": (runner.failed / runner.attempted, "ratio"),
        **workload.named(medians),
    }
    if args.trace:
        config = getattr(workload, "cfg", None)
        per_layer = layers.layer_metrics(
            tracer, {p: len(v) for p, v in traced.items()}, traced_scale,
            flops_per_row=layers.forward_flops(config.model) if config else 0.0,
            setup_train_s=setup_train_s,
            overhead_s=sum(_median(traced_seconds[p]) - medians[p] for p in medians))
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = {k: {"value": v, "unit": layers.METRICS[k][0]} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    wall = {p: [end - start for start, end in v] for p, v in times.items()}
    report = {
        "meta": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": _git_sha(), "src_sha256": _source_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(_blas_env()["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)), "setup_repeats": SETUP_REPEATS,
            "probe_median_s": _median([s for _, s in probe.samples]),
            "probe_nominal_s": PROBE_NOMINAL_S, "sizes": workload.sizes(),
        },
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "setup_s": setup_seconds,
        "phase_s": seconds,
        "phase_wall_s": wall,
        "traced_phase_s": traced_seconds if args.trace else None,
        "check_values": workload.check_values,
        "errors": runner.errors,
    }
    for problem in runner.errors:
        print(problem, file=sys.stderr)
    correct = runner.failed == 0
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; prints every named metric."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in report["named_metrics"].items():
            metrics[f"{name}.{metric}"] = entry
            print(f"{name:<13} {metric:<26} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
