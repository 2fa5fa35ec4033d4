"""arcforge: graph-based dependency parsing with explicit arc vectors.

Two parser architectures over a small from-scratch autodiff engine:
a two-pipeline biaffine baseline and an arc-centric model whose arc
vectors feed score, label, and filter heads, optionally refined by
transformer layers over a differentiable top-k arc filter.
"""

from .tensor import Tensor, grad_check
from .conllu import Sentence, Token, Vocab, build_vocab, parse_conllu, write_conllu
from .decoders import cle, eisner, tree_score
from .encoder import Encoder
from .refiner import filter_topk, num_heads, refine
from .model import (
    ArcLocModel,
    LocModel,
    ModelConfig,
    ParseResult,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from .evaluation import filter_oracle_uas, uas_las
from .training import (
    Adam,
    SwaState,
    TrainConfig,
    end_to_end_grad_check,
    evaluate_model,
    formula_param_count,
    head_selection_loss,
    label_loss,
    lr_schedule,
    sentence_loss,
    train,
)
from .config import RunConfig, load_run_config

__all__ = [
    "Tensor",
    "grad_check",
    "Sentence",
    "Token",
    "Vocab",
    "build_vocab",
    "parse_conllu",
    "write_conllu",
    "cle",
    "eisner",
    "tree_score",
    "Encoder",
    "filter_topk",
    "num_heads",
    "refine",
    "ArcLocModel",
    "LocModel",
    "ModelConfig",
    "ParseResult",
    "build_model",
    "load_checkpoint",
    "save_checkpoint",
    "filter_oracle_uas",
    "uas_las",
    "Adam",
    "SwaState",
    "TrainConfig",
    "end_to_end_grad_check",
    "evaluate_model",
    "formula_param_count",
    "head_selection_loss",
    "label_loss",
    "lr_schedule",
    "sentence_loss",
    "train",
    "RunConfig",
    "load_run_config",
]
