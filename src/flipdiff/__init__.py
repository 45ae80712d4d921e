"""Generative modeling on {0,1}^d with a Poisson bit-flip CTMC.

Forward noising runs every bit on an independent flip clock; the exact time
reversal is another jump process whose rates are governed by a discrete score
function. The package provides the exact score/denoiser for enumerable data
laws, a trainable denoiser with hand-written gradients, several backward
samplers, and numerical validators for the method's convergence bounds.
"""

from .errors import (
    AssumptionViolationError,
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigError,
    ConfigMismatchError,
    EnumerationLimitError,
    FlipdiffError,
    InvalidScoreError,
    ModelCorruptError,
    PlanningError,
    SampleFormatError,
    SamplerError,
    TrainingError,
)
from .states import (
    ENUM_LIMIT,
    DenseTable,
    EmpiricalSet,
    ProductBernoulli,
    all_states,
    as_bits,
    distinct_rows,
    flip,
    index_to_state,
    sawtooth_params,
    state_index,
    state_indices,
    uniform_table,
)
from .forward import (
    ForwardParams,
    ForwardPath,
    alpha,
    kernel,
    kernel1,
    marginal,
    marginal_table,
    propagate_mass,
    sample_conditional_batch,
    simulate_path,
)
from .score import (
    T_MIN,
    clamp_forward_time,
    score_from_denoiser,
    score_target,
)
from .schedules import FlipSchedule, TimeSchedule, flip_counts, time_grid
from .model import (
    CheckpointMeta,
    ModelConfig,
    OptimizerState,
    check_compatible,
    init_params,
    load_checkpoint,
    loss_and_grad,
    optimizer_step,
    param_count,
    predict_batch,
    save_checkpoint,
)
from .losses import (
    PRESETS,
    LossSpec,
    TrainBatch,
    loss_parts,
    make_batch,
    time_weight,
)
from .training import TrainResult, TrainSettings, train
from .samplers import (
    ExactScoreSource,
    LearnedScoreSource,
    ShiftedScoreSource,
    generate,
    read_samples,
    sample_continuous_batch,
    sample_denoise_renoise_batch,
    sample_discretized_batch,
    sample_flip_schedule_batch,
    sample_percoord_batch,
    write_samples,
)
from .metrics import (
    BoundReport,
    SWDEstimate,
    ScoreErrorEstimate,
    early_stop_tv_bound,
    estimate_score_error,
    exact_backward_marginal,
    exact_reverse_law,
    flip_fisher_info,
    kl_convergence_bound,
    kl_divergence,
    plan_early_stop,
    plan_schedule,
    simplex_directions,
    swd,
    tv_distance,
)
from .config import RunConfig, config_from_dict, load_config, substream

__version__ = "0.1.0"
