"""The benchmark's hooks into the package: every name ``perfbench`` imports
at load time or wraps when tracing must exist, and every attribute
``scripts/seeded_digests.py`` reads, so a cleanup that deletes one fails here
rather than in a benchmark run or a digest comparison."""

import importlib
import importlib.util
import os
import sys
from pathlib import Path

import flipdiff as fd

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = PERFBENCH.parent / "scripts" / "seeded_digests.py"
MODULES = ("tracer", "layers", "workloads")


def test_benchmark_imports_and_wraps_package_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    original = fd.samplers.sample_continuous_batch
    try:
        workloads = importlib.import_module("workloads")
        layers = importlib.import_module("layers")
        tracer = importlib.import_module("tracer").Tracer()
        try:
            layers.install(tracer)
            assert fd.samplers.sample_continuous_batch is not original
        finally:
            tracer.restore()
        assert fd.samplers.sample_continuous_batch is original
        assert set(workloads.WORKLOADS) == {"train_d8", "sample_d8", "exact_oracle"}
    finally:
        for name in MODULES:
            sys.modules.pop(name, None)


def test_train_workload_carries_the_optimizer_state_across_chunks(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workload = importlib.import_module("workloads").TrainD8(PERFBENCH.parent, 0, tmp_path)
        workload.setup()
        for index in range(2):
            assert workload.check("train", workload.op("train", index, None)) == []
        assert workload.opt_state.step == workload.step == 2 * workload.chunk_steps
    finally:
        for name in MODULES:
            sys.modules.pop(name, None)


def test_seeded_digests_script_runs_its_sampler_and_distinct_rows_lines(monkeypatch):
    """Loading the script sets OPENBLAS_NUM_THREADS and prepends ``src`` to
    sys.path; both are put back afterwards."""
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("seeded_digests", DIGESTS)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for name, src in script.sources().items():
        lines = script.sampler_lines(name, src)
        kinds = [line.split()[0] for line in lines]
        assert kinds == [f"{name}/{kind}" for kind in
                         ("continuous", "percoord", "discrete", "flip", "denoise")]
        assert all(len(line.split()[1]) == 64 for line in lines)
    assert script.distinct_rows_line().startswith("distinct_rows ")
