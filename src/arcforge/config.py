"""Flat JSON run configuration shared by the CLI commands.

Every ModelConfig and TrainConfig field is a key, with that class's
default; RunConfig declares only the keys that belong to a run.
Unknown keys and values of the wrong JSON type are rejected;
command-line flags override file values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, make_dataclass

from .model import ModelConfig, _accepts
from .training import TrainConfig

# ModelConfig fields that a run sets itself: kind comes from model_kind,
# n_labels from the training corpus
_MODEL_KEYS = tuple(f.name for f in fields(ModelConfig) if f.name not in ("kind", "n_labels"))
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))


@dataclass
class _RunKeys:
    model_kind: str = "arcloc"
    emb_dim: int = 64  # ModelConfig has no default width
    min_count: int = 1
    # paths and fixtures
    train_file: str | None = None
    dev_file: str | None = None
    model_out: str = "model.npz"
    metrics_out: str | None = None
    n_labels: int | None = None

    def __post_init__(self):
        # reject bad keys before any work starts
        self.train_config()
        self.model_config(1)

    def model_config(self, n_labels: int) -> ModelConfig:
        return ModelConfig(kind=self.model_kind, n_labels=n_labels,
                           **{k: getattr(self, k) for k in _MODEL_KEYS})

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{k: getattr(self, k) for k in _TRAIN_KEYS})


_RUN_KEYS = {f.name for f in fields(_RunKeys)}

RunConfig = make_dataclass(
    "RunConfig",
    [(f.name, f.type, field(default=f.default))
     for f in fields(ModelConfig) + fields(TrainConfig)
     if f.name in _MODEL_KEYS + _TRAIN_KEYS and f.name not in _RUN_KEYS],
    bases=(_RunKeys,),
    namespace={"__module__": __name__},
)

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}  # annotations such as "int | None"


def load_run_config(path, overrides: dict | None = None) -> RunConfig:
    """Read a flat JSON config; reject unknown keys and values of the
    wrong JSON type; apply overrides."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(data) - set(_FIELD_TYPES))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    for key, value in data.items():
        if not _accepts(_FIELD_TYPES[key], value):
            raise ValueError(f"{path}: {key} must be {_FIELD_TYPES[key]}, got {json.dumps(value)}")
    return RunConfig(**data)
