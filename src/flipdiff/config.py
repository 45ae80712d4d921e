"""Run configuration: one YAML file with nested sections drives every CLI
command. Every field has a default; unknown keys are hard errors, and each
value is checked against its field's type. All randomness flows from the
single master ``seed`` through named substreams.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from .errors import ConfigError
from .losses import PRESETS, LossSpec
from .metrics import EXACT_BACKWARD_LIMIT
from .model import ModelConfig
from .samplers import SAMPLER_KINDS
from .schedules import FLIP_KINDS, TIME_KINDS
from .states import ENUM_LIMIT
from .training import TrainSettings

DATASET_KINDS = ("sawtooth", "product", "table-file", "empirical-file")


# what each field annotation accepts, and how a refusal names it; a bool is no number
_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "bool": (bool, "true or false"), "str": (str, "a string"),
          "tuple": ((list, tuple), "a list")}


def _check_type(name: str, kind: str, value):
    """``value`` as a field annotated ``kind`` holds it, or a refusal: a
    ``float`` given as an int is stored as a float, so ``1`` and ``1.0`` load
    (and hash) alike."""
    types, noun = _TYPES[kind]
    if not isinstance(value, types) or isinstance(value, bool) and kind != "bool":
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    if kind == "float" and isinstance(value, int):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{name} must be a finite number, "
                              "got an integer too large for a float") from None
    return value


@dataclass(frozen=True)
class DatasetSpec:
    kind: str = "sawtooth"
    probs: tuple | None = None     # product mode: d probabilities; optional generator for empirical mode
    path: str | None = None        # table-file / empirical-file location
    n_train: int = 20000           # sample count written by gen-data in empirical mode

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ConfigError(f"dataset.kind must be one of {DATASET_KINDS}, got {self.kind!r}")
        if self.kind == "product" and self.probs is None:
            raise ConfigError("dataset.kind=product requires dataset.probs")
        if self.kind in ("table-file", "empirical-file") and self.path is None:
            raise ConfigError(f"dataset.kind={self.kind} requires dataset.path")
        if self.n_train < 1:
            raise ConfigError(f"dataset.n_train must be >= 1, got {self.n_train!r}")
        if self.probs is not None:
            if self.kind in ("sawtooth", "table-file"):
                raise ConfigError(f"dataset.probs is not used by dataset.kind={self.kind}")
            probs = tuple(_check_type("dataset.probs entries", "float", p) for p in self.probs)
            for p in probs:
                if not 0 < p < 1:
                    raise ConfigError(f"dataset.probs entries must be in (0, 1), got {p!r}")
            object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str = "cosine"
    steps: int = 30

    def __post_init__(self):
        if self.kind not in TIME_KINDS:
            raise ConfigError(f"schedule.kind must be one of {TIME_KINDS}, got {self.kind!r}")
        if self.steps < 1:
            raise ConfigError("schedule.steps must be >= 1")


@dataclass(frozen=True)
class FlipSpec:
    kind: str = "linear"
    total: int | None = None       # None: defaults to the data dimension d

    def __post_init__(self):
        if self.kind not in FLIP_KINDS:
            raise ConfigError(f"flips.kind must be one of {FLIP_KINDS}, got {self.kind!r}")
        if self.total is not None and self.total < 0:
            raise ConfigError(f"flips.total must be >= 0, got {self.total!r}")


@dataclass(frozen=True)
class BoundsSpec:
    """Knobs for the bound-validation sweep."""

    dims: tuple = (2, 3, 4)
    n_instances: int = 20
    k_values: tuple = (25, 100, 400)
    t_f: float = 4.0
    eta_points: int = 20
    eta_max: float = 0.5
    tv_dims: tuple = (2, 4, 6)

    def __post_init__(self):
        # the KL sweep runs the exact backward law, the TV sweep 2^d tables
        for name, top in (("dims", EXACT_BACKWARD_LIMIT), ("k_values", math.inf),
                          ("tv_dims", ENUM_LIMIT)):
            values = tuple(getattr(self, name))
            for v in values:
                _check_type(f"bounds.{name}", "int", v)
                if not 1 <= v <= top:
                    raise ConfigError(f"bounds.{name} entries must be in [1, {top}], got {v!r}")
            if not values and name != "tv_dims":
                raise ConfigError(f"bounds.{name} must not be empty")
            object.__setattr__(self, name, values)
        for name in ("n_instances", "eta_points"):
            if getattr(self, name) < 1:
                raise ConfigError(f"bounds.{name} must be >= 1, got {getattr(self, name)!r}")
        for name in ("eta_max", "t_f"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"bounds.{name} must be finite and > 0, "
                                  f"got {getattr(self, name)!r}")


@dataclass(frozen=True)
class RunConfig:
    d: int = 8
    lam: float = 1.0
    t_f: float = 3.0
    seed: int = 0
    out_dir: str = "runs/out"
    sampler: str = "discrete"
    n_samples: int = 20000
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    model: ModelConfig | None = None
    loss: LossSpec = field(default_factory=lambda: LossSpec(1.0, 0.0, 0.0, w_scaled=True))
    training: TrainSettings = field(default_factory=TrainSettings)
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    flips: FlipSpec = field(default_factory=FlipSpec)
    bounds: BoundsSpec = field(default_factory=BoundsSpec)

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if not (0 < self.lam < math.inf and 0 < self.t_f < math.inf):
            raise ConfigError(f"lam and t_f must be finite and > 0, "
                              f"got {self.lam!r} and {self.t_f!r}")
        if self.sampler not in SAMPLER_KINDS:
            raise ConfigError(f"sampler must be one of {SAMPLER_KINDS}, got {self.sampler!r}")
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {self.n_samples!r}")
        if self.model is None:
            object.__setattr__(self, "model", ModelConfig(d=self.d, seed=self.seed))
        elif self.model.d != self.d:
            raise ConfigError(f"model.d={self.model.d} disagrees with top-level d={self.d}")
        if self.dataset.probs is not None and len(self.dataset.probs) != self.d:
            raise ConfigError("dataset.probs length must equal d")

    @property
    def flip_total(self) -> int:
        return self.flips.total if self.flips.total is not None else self.d

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def dataset_hash(self) -> str:
        """Hash of the fields that determine the reference data (the lineage
        key checked by eval); sampler/training knobs do not affect it."""
        payload = json.dumps({"d": self.d, "seed": self.seed,
                              "dataset": asdict(self.dataset)},
                             sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


_SECTIONS = {cls.__name__: cls for cls in (DatasetSpec, ModelConfig, LossSpec, TrainSettings,
                                           ScheduleSpec, FlipSpec, BoundsSpec)}


def _build(cls, payload, name: str = ""):
    """``cls`` from the mapping ``payload`` (section ``name``; "" is the root).
    Fields are checked in declaration order: a section is built from its own
    mapping, any other value is checked against its annotation (None only
    where that ends in ``| None``)."""
    where = f"section {name!r}" if name else "config root"
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(payload) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    kwargs = dict(payload)
    for f in fields(cls):
        if f.name not in payload:
            continue
        kind = f.type.removesuffix(" | None")
        if kind in _SECTIONS:
            kwargs[f.name] = _build(_SECTIONS[kind], payload[f.name], f.name)
        elif kind in _TYPES and (payload[f.name] is not None or kind == f.type):
            kwargs[f.name] = _check_type(f"{name}.{f.name}" if name else f.name, kind,
                                         payload[f.name])
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def config_from_dict(raw: dict) -> RunConfig:
    """The run config in ``raw``, after the two rules that reach across
    sections: a loss ``preset`` fills the weights the section leaves out, and
    the model section takes ``d`` and ``seed`` from the top unless it sets them."""
    if isinstance(raw, dict):
        raw = dict(raw)
        loss = raw.get("loss")
        if isinstance(loss, dict) and "preset" in loss:
            loss = dict(loss)
            preset = loss.pop("preset")
            if preset is not None:
                if not isinstance(preset, str) or preset not in PRESETS:
                    raise ConfigError(f"unknown loss preset {preset!r}; "
                                      f"choose from {sorted(PRESETS)}")
                base = PRESETS[preset]
                loss = {"w1": base.w1, "w2": base.w2, "w3": base.w3, **loss}
            raw["loss"] = loss
        if isinstance(raw.get("model"), dict):
            raw["model"] = {"d": raw.get("d", RunConfig.d),
                            "seed": raw.get("seed", RunConfig.seed), **raw["model"]}
    return _build(RunConfig, raw)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    return config_from_dict(raw)


def substream(master_seed: int, name: str) -> np.random.Generator:
    """Named deterministic RNG substream derived from the master seed."""
    digest = hashlib.sha256(name.encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([master_seed, *words]))
