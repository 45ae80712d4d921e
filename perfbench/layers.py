"""Per-layer tracing: which package entry points get a span, and how the
spans of the traced operations become the per-layer metrics.

Layers are the package's modules. A span is named ``<layer>.<entry point>``;
the wrappers sit on the module or class attribute the caller looks up, so a
function imported by name into another module is wrapped there too
(``samplers.predict_batch``, ``cli.exact_backward_marginal``, ...).

Every per-layer value is per operation of the phase it occurs in (one
training chunk, one sampler pass, one sweep, ...), summed over phases when a
layer serves more than one, so it adds up with the workload's ``pass_s``.
A layer the workload never calls reports 0.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from flipdiff import cli, forward, samplers, score, training
from flipdiff.samplers import ExactScoreSource, LearnedScoreSource

SCORE_METHODS = ("score_batch", "denoiser_batch", "score_rows", "denoiser_rows")
SAMPLERS = {
    "denoise": "sample_denoise_renoise_batch",
    "continuous": "sample_continuous_batch",
    "percoord": "sample_percoord_batch",
    "discrete": "sample_discretized_batch",
}
# samplers whose score calls are also profiled for batch size and redundancy
ROW_PROFILED = ("denoise", "continuous")

COUNT, LOWER, HIGHER = "count", "lower", "higher"


def _metric_units() -> dict[str, tuple[str, str]]:
    units = {
        "model.loss_and_grad_s": ("s", LOWER),
        "model.loss_and_grad_ms_p50": ("ms", LOWER),
        "model.loss_and_grad_ms_p95": ("ms", LOWER),
        "model.optimizer_step_s": ("s", LOWER),
        "losses.make_batch_s": ("s", LOWER),
        "losses.draw_clean_states_s": ("s", LOWER),
        "training.self_s": ("s", LOWER),
        "model.train_gflop_s": ("GFLOP/s", HIGHER),
        "training.setup_train_s": ("s", LOWER),
    }
    for kind in SAMPLERS:
        prefix = f"samplers.{kind}"
        units[f"{prefix}.score_calls"] = (COUNT, LOWER)
        units[f"{prefix}.score_rows"] = (COUNT, LOWER)
        if kind in ROW_PROFILED:
            units[f"{prefix}.rows_per_call"] = (COUNT, LOWER)
            units[f"{prefix}.distinct_row_share"] = ("ratio", HIGHER)
        units[f"{prefix}.score_s"] = ("s", LOWER)
        units[f"{prefix}.self_s"] = ("s", LOWER)
    units.update({
        "samplers.continuous.jumps_per_chain": (COUNT, LOWER),
        "model.predict_s": ("s", LOWER),
        "model.predict_gflop_s": ("GFLOP/s", HIGHER),
        "score.convert_s": ("s", LOWER),
        "samplers.write_samples_s": ("s", LOWER),
        "samplers.read_samples_s": ("s", LOWER),
        "metrics.swd_s": ("s", LOWER),
        "metrics.kl_tv_s": ("s", LOWER),
        "metrics.exact_backward_marginal_calls": (COUNT, LOWER),
        "metrics.exact_backward_marginal_s": ("s", LOWER),
        "metrics.uniformize_self_s": ("s", LOWER),
        "forward.propagate_mass_calls": (COUNT, LOWER),
        "forward.propagate_mass_s": ("s", LOWER),
        "forward.propagate_mass_mb_computed": ("MB", LOWER),
        "metrics.flip_fisher_info_s": ("s", LOWER),
        "cli.validate_bounds_self_s": ("s", LOWER),
        "trace.overhead_s": ("s", LOWER),
    })
    return units


METRICS = _metric_units()


def forward_flops(config) -> float:
    """Floating-point operations of one denoiser forward pass per row,
    counting the dense layers (two per multiply-add) and nothing else."""
    d, h, e = config.d, config.width, config.time_embed_dim
    return 2.0 * (e * e + h * d + config.blocks * (2 * h * h + h * e) + d * h)


def install(tracer) -> None:
    """Wrap every traced entry point; ``tracer.restore()`` undoes it."""

    profiled = {f"samplers.{kind}" for kind in ROW_PROFILED}
    seen: dict[int, set] = {}  # (t, state) pairs already scored, per calling span

    def observe_score(record, args, result):
        parent = tracer.parent_of(record)
        if parent is not None and parent.layer == "score":
            return  # only the call a caller made counts its rows
        t, states = args[1], np.asarray(args[2])
        record.attrs["rows"] = int(states.shape[0])
        if parent is None or parent.name not in profiled:
            return
        keys = states.astype(np.int64) @ (1 << np.arange(states.shape[1], dtype=np.int64))
        if np.ndim(t) == 0:
            pairs = {(float(t), k) for k in np.unique(keys).tolist()}
        else:
            pairs = set(zip(np.asarray(t, dtype=np.float64).tolist(), keys.tolist()))
        caller = seen.setdefault(record.parent, set())
        before = len(caller)
        caller |= pairs
        record.attrs["new"] = len(caller) - before

    def observe_mass(record, args, result):
        size = np.asarray(args[0]).size
        # one pass per coordinate, each reading and writing the 2^d doubles
        record.attrs["mb"] = 16.0 * (size.bit_length() - 1) * size / 1e6

    def observe_jumps(record, args, result):
        if isinstance(result, tuple):
            record.attrs["jumps"] = float(result[1].mean())

    def observe_predict(record, args, result):
        record.attrs["rows"] = len(args[3])

    def observe_batch(record, args, result):
        record.attrs["rows"] = args[2].n

    for cls in (ExactScoreSource, LearnedScoreSource):
        for method in SCORE_METHODS:
            tracer.wrap(cls, method, f"score.{method}", observe_score)
    for kind, attr in SAMPLERS.items():
        tracer.wrap(samplers, attr, f"samplers.{kind}",
                    observe_jumps if kind == "continuous" else None)
    tracer.wrap(samplers, "predict_batch", "model.predict_batch", observe_predict)
    for module in (samplers, forward, score):
        tracer.wrap(module, "propagate_mass", "forward.propagate_mass", observe_mass)
    tracer.wrap(training, "train", "training.train")
    tracer.wrap(training, "loss_and_grad", "model.loss_and_grad", observe_batch)
    tracer.wrap(training, "optimizer_step", "model.optimizer_step")
    tracer.wrap(training, "make_batch", "losses.make_batch")
    tracer.wrap(training, "draw_clean_states", "losses.draw_clean_states")
    tracer.wrap(cli, "cmd_validate_bounds", "cli.validate_bounds")
    tracer.wrap(cli, "exact_backward_marginal", "metrics.exact_backward_marginal")
    tracer.wrap(cli, "flip_fisher_info", "metrics.flip_fisher_info")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, traced_ops: dict[str, int], scale: dict[str, float],
                  flops_per_row: float, setup_train_s: float,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of ``traced_ops[phase]`` operations
    per phase; span run ids are ``<phase>#<index>``, and ``scale[run_id]``
    converts that operation's span durations to reference seconds."""
    acc: dict[str, float] = defaultdict(float)
    loss_ms = []
    for span, own in zip(tracer.spans, tracer.self_times()):
        n_ops = traced_ops.get(span.run_id.split("#")[0], 0)
        if not n_ops:
            continue
        w = 1.0 / n_ops  # per operation
        ws = w * scale[span.run_id]  # per operation, in reference seconds
        acc[f"{span.name}.s"] += ws * span.duration
        acc[f"{span.name}.self_s"] += ws * own
        acc[f"{span.name}.calls"] += w
        for key in ("rows", "mb", "jumps"):
            acc[f"{span.name}.{key}"] += w * span.attrs.get(key, 0.0)
        if span.layer == "score":
            acc["score.self_s"] += ws * own
            if "rows" in span.attrs and span.parent >= 0:  # a caller's own call
                caller = tracer.parent_of(span).name
                acc[f"{caller}.score_calls"] += w
                acc[f"{caller}.score_rows"] += w * span.attrs["rows"]
                acc[f"{caller}.new_rows"] += w * span.attrs.get("new", 0)
                acc[f"{caller}.score_s"] += ws * span.duration
        if span.name == "model.loss_and_grad":
            loss_ms.append(1e3 * scale[span.run_id] * span.duration)

    def pct(q):
        return float(np.percentile(loss_ms, q)) if loss_ms else 0.0

    out = {
        "model.loss_and_grad_s": acc["model.loss_and_grad.s"],
        "model.loss_and_grad_ms_p50": pct(50),
        "model.loss_and_grad_ms_p95": pct(95),
        "model.optimizer_step_s": acc["model.optimizer_step.s"],
        "losses.make_batch_s": acc["losses.make_batch.s"],
        "losses.draw_clean_states_s": acc["losses.draw_clean_states.s"],
        "training.self_s": acc["training.train.self_s"],
        "model.train_gflop_s": 3e-9 * flops_per_row * _ratio(
            acc["model.loss_and_grad.rows"], acc["model.loss_and_grad.s"]),
        "training.setup_train_s": setup_train_s,
        "samplers.continuous.jumps_per_chain": acc["samplers.continuous.jumps"],
        "model.predict_s": acc["model.predict_batch.s"],
        "model.predict_gflop_s": 1e-9 * flops_per_row * _ratio(
            acc["model.predict_batch.rows"], acc["model.predict_batch.s"]),
        "score.convert_s": acc["score.self_s"],
        "samplers.write_samples_s": acc["samplers.write_samples.s"],
        "samplers.read_samples_s": acc["samplers.read_samples.s"],
        "metrics.swd_s": acc["metrics.swd.s"],
        "metrics.kl_tv_s": acc["metrics.kl_tv.s"],
        "metrics.exact_backward_marginal_calls": acc["metrics.exact_backward_marginal.calls"],
        "metrics.exact_backward_marginal_s": acc["metrics.exact_backward_marginal.s"],
        "metrics.uniformize_self_s": acc["metrics.exact_backward_marginal.self_s"],
        "forward.propagate_mass_calls": acc["forward.propagate_mass.calls"],
        "forward.propagate_mass_s": acc["forward.propagate_mass.s"],
        "forward.propagate_mass_mb_computed": acc["forward.propagate_mass.mb"],
        "metrics.flip_fisher_info_s": acc["metrics.flip_fisher_info.s"],
        "cli.validate_bounds_self_s": acc["cli.validate_bounds.self_s"],
        "trace.overhead_s": overhead_s,
    }
    for kind in SAMPLERS:
        prefix = f"samplers.{kind}"
        calls, rows = acc[f"{prefix}.score_calls"], acc[f"{prefix}.score_rows"]
        out[f"{prefix}.score_calls"] = calls
        out[f"{prefix}.score_rows"] = rows
        if kind in ROW_PROFILED:
            out[f"{prefix}.rows_per_call"] = _ratio(rows, calls)
            out[f"{prefix}.distinct_row_share"] = _ratio(acc[f"{prefix}.new_rows"], rows)
        out[f"{prefix}.score_s"] = acc[f"{prefix}.score_s"]
        out[f"{prefix}.self_s"] = acc[f"{prefix}.self_s"]
    assert set(out) == set(METRICS)
    return out
