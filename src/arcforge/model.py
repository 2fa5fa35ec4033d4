"""Model assembly: the two parser architectures, checkpoints, accounting.

LocModel: four role-specialized token representations feed two separate
biaffine pipelines (arc scores, label logits). ArcLocModel: one head/mod
specialization pair feeds a single biaffine tensor producing an explicit
vector per arc; score, label, and filter heads read from those vectors,
optionally refined by transformer layers over the filtered arc set.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Callable

import numpy as np

from .conllu import Sentence, Vocab
from .decoders import cle, eisner
from .encoder import Encoder, Specialization
from .nn import Module, ModuleList
from .refiner import FilterOutput, TransformerLayer, filter_topk, num_heads, refine
from .scorers import ArcScorer, LocScorer
from .tensor import Tensor, embedding_gather, no_grad

CHECKPOINT_FORMAT = "arcforge-checkpoint"
CHECKPOINT_VERSION = 2

DECODERS = ("eisner", "mst")  # projective Eisner, or Chu-Liu-Edmonds
DTYPES = ("float64", "float32")  # float32 trades exactness for speed

# the JSON values each annotated type takes: an int is a float, but a bool is no number
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool, "None": type(None)}


def _accepts(annotation: str, value) -> bool:
    """Whether a JSON value fits a field annotation such as "int | None"."""
    names = annotation.split(" | ")
    if isinstance(value, bool):
        return "bool" in names
    return any(isinstance(value, _JSON_TYPES[name]) for name in names)


def _check_range(cfg, keys: str, ok: Callable[[float], bool], rule: str) -> None:
    """Raise ValueError naming the first of the space-separated ``keys``
    whose value is set but not finite or not ``ok``."""
    for key in keys.split():
        value = getattr(cfg, key)
        if value is not None and not (math.isfinite(value) and ok(value)):
            raise ValueError(f"{key} must be {rule}, got {value!r}")


@dataclass
class ModelConfig:
    kind: str
    n_labels: int
    emb_dim: int
    context_layers: int = 2
    context_heads: int | None = None  # None: num_heads(emb_dim)
    x: int | None = None
    y: int | None = None
    d: int | None = None
    r: int | None = None
    layers: int = 0
    k: int = 10
    mlp_dropout: float = 0.33
    emb_dropout: float = 0.0
    use_upos: bool = True
    exact_counts: bool = False
    biaffine_bias: bool = False
    gumbel_scale: float = 1.0  # of the filter noise at train time; 0 turns it off
    filter_aux_weight: float = 0.0  # optional direct supervision of the filter
    dtype: str = "float64"  # of the parameters, and so of every activation

    def __post_init__(self):
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be float64 or float32, got {self.dtype!r}")
        _check_range(self, "mlp_dropout emb_dropout", lambda v: 0 <= v < 1, "in [0, 1)")
        _check_range(self, "gumbel_scale filter_aux_weight", lambda v: v >= 0, ">= 0")
        _check_range(self, "context_heads x y d r", lambda v: v >= 1, ">= 1")
        if self.kind not in ("loc", "arcloc"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.n_labels < 1:
            raise ValueError("n_labels must be >= 1")
        if self.emb_dim < 2:
            raise ValueError(f"emb_dim must be >= 2, got {self.emb_dim}")
        if self.context_layers < 0:
            raise ValueError("context_layers must be >= 0")
        if self.context_heads is None:
            self.context_heads = num_heads(self.emb_dim)
        if self.context_layers > 0 and self.emb_dim % self.context_heads:
            raise ValueError(
                f"emb_dim {self.emb_dim} not divisible by {self.context_heads} heads")
        if self.kind == "loc":
            if not self.x or not self.y:
                raise ValueError("loc requires arc (x) and label (y) MLP sizes")
            if self.layers != 0:
                raise ValueError("refinement layers apply to the arcloc model only")
        else:
            if not self.d or not self.r:
                raise ValueError("arcloc requires specialization size d and arc size r")
            if self.r % 2:
                raise ValueError(f"arc size must be even, got r={self.r}")
        if self.layers < 0 or self.k < 1:
            raise ValueError("layers must be >= 0 and k >= 1")


@dataclass
class ParseResult:
    heads: list[int]
    label_ids: list[int]
    labels: list[str]
    kept_heads: list[list[int]] | None = None

    def as_prediction(self) -> tuple[list[int], list[str]]:
        return self.heads, self.labels


@dataclass
class ForwardPass:
    """Per-sentence graph artifacts: the raw arc score matrix plus a
    closure producing label logits for arbitrary (head, modifier) arcs."""

    n: int
    scores: Tensor
    label_logits_for: Callable[[list[tuple[int, int]]], Tensor]
    filter_output: FilterOutput | None = None


class _ParserBase(Module):
    # parameter name prefixes outside the closed-form parameter count
    unaccounted_prefixes: tuple[str, ...] = ("encoder.",)

    def __init__(self, cfg: ModelConfig, n_forms: int, n_upos: int, seed: int):
        super().__init__()
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)
        self.encoder = Encoder(n_forms, n_upos, cfg.emb_dim, self.rng,
                               context_layers=cfg.context_layers, context_heads=cfg.context_heads,
                               emb_dropout=cfg.emb_dropout, use_upos=cfg.use_upos,
                               exact_counts=cfg.exact_counts)

    def optimizer_groups(self) -> dict[str, list[tuple[str, Tensor]]]:
        """Two schedules: the arc-refinement transformer vs everything else."""
        groups: dict[str, list[tuple[str, Tensor]]] = {"main": [], "transformer": []}
        for name, p in self.named_parameters():
            key = "transformer" if name.startswith("refiner_layers.") else "main"
            groups[key].append((name, p))
        return groups

    def accounted_parameters(self) -> list[tuple[str, Tensor]]:
        """Registry slice covered by the closed-form parameter count:
        specialization FFNs, biaffines, score/label heads, refinement
        layers. Embedding tables, the context encoder, and the filter
        head stay outside the accounted scope."""
        return [(name, p) for name, p in self.named_parameters()
                if not name.startswith(self.unaccounted_prefixes)]

    def accounted_param_count(self) -> int:
        return sum(p.data.size for _, p in self.accounted_parameters())

    def predict(self, sentence: Sentence, vocab: Vocab, decoder: str = "eisner") -> ParseResult:
        """Decode the best tree, then label its arcs (pipeline prediction).

        No graph is recorded, so each intermediate is freed once used."""
        if decoder not in DECODERS:
            raise ValueError(f"unknown decoder {decoder!r}")
        with no_grad():
            fwd = self.forward_parse(sentence, vocab)
            s = fwd.scores.data  # raw; the decoders ignore the diagonal and root column
            heads = eisner(s) if decoder == "eisner" else cle(s)
            arcs = [(heads[j - 1], j) for j in range(1, fwd.n + 1)]
            label_ids = fwd.label_logits_for(arcs).data.argmax(axis=1).tolist() if arcs else []
        labels = [vocab.label_name(i) for i in label_ids]
        kept = fwd.filter_output.kept_heads if fwd.filter_output is not None else None
        return ParseResult(heads=heads, label_ids=label_ids, labels=labels, kept_heads=kept)


class LocModel(_ParserBase):
    def __init__(self, cfg: ModelConfig, n_forms: int, n_upos: int, seed: int = 0):
        super().__init__(cfg, n_forms, n_upos, seed)
        rng, pe, drop = self.rng, cfg.exact_counts, cfg.mlp_dropout
        self.spec_arc_head = Specialization(cfg.emb_dim, cfg.x, rng, drop, pe)
        self.spec_arc_mod = Specialization(cfg.emb_dim, cfg.x, rng, drop, pe)
        self.spec_label_head = Specialization(cfg.emb_dim, cfg.y, rng, drop, pe)
        self.spec_label_mod = Specialization(cfg.emb_dim, cfg.y, rng, drop, pe)
        self.scorer = LocScorer(cfg.x, cfg.y, cfg.n_labels, rng, biaffine_bias=cfg.biaffine_bias)

    def forward_parse(self, sentence: Sentence, vocab: Vocab) -> ForwardPass:
        n = len(sentence)
        e = self.encoder.encode(sentence, vocab)
        s = self.scorer.arc_score_matrix(self.spec_arc_head(e), self.spec_arc_mod(e))
        h_lab = self.spec_label_head(e)
        m_lab = self.spec_label_mod(e)

        def label_logits_for(arcs: list[tuple[int, int]]) -> Tensor:
            h_rows = embedding_gather(h_lab, [a[0] for a in arcs])
            m_rows = embedding_gather(m_lab, [a[1] for a in arcs])
            return self.scorer.label_logits(h_rows, m_rows)

        return ForwardPass(n=n, scores=s, label_logits_for=label_logits_for)


class ArcLocModel(_ParserBase):
    unaccounted_prefixes = ("encoder.", "scorer.filter_head.")

    def __init__(self, cfg: ModelConfig, n_forms: int, n_upos: int, seed: int = 0):
        super().__init__(cfg, n_forms, n_upos, seed)
        rng, pe, drop = self.rng, cfg.exact_counts, cfg.mlp_dropout
        self.spec_head = Specialization(cfg.emb_dim, cfg.d, rng, drop, pe)
        self.spec_mod = Specialization(cfg.emb_dim, cfg.d, rng, drop, pe)
        self.scorer = ArcScorer(cfg.d, cfg.r, cfg.n_labels, rng,
                                with_filter=cfg.layers > 0, exact_counts=pe)
        self.refiner_layers = ModuleList(
            TransformerLayer(cfg.r, num_heads(cfg.r), rng, exact_counts=pe)
            for _ in range(cfg.layers)
        )

    def forward_parse(self, sentence: Sentence, vocab: Vocab) -> ForwardPass:
        n = len(sentence)
        cfg = self.cfg
        e = self.encoder.encode(sentence, vocab)
        h = self.spec_head(e)
        m = self.spec_mod(e)
        v0 = self.scorer.arc_vectors(h, m)
        v0_flat = v0.reshape(((n + 1) * (n + 1), cfg.r))
        flt = None
        if cfg.layers > 0:
            flt = filter_topk(
                v0_flat,
                self.scorer.filter_head,
                n,
                cfg.k,
                rng=self.rng,
                gumbel_scale=cfg.gumbel_scale if self.training else 0.0,
                st_grad=self.training,
            )
            v_final = refine(v0_flat, flt, self.refiner_layers)
        else:
            v_final = v0_flat
        s = self.scorer.score_matrix_from(v_final, n)

        def label_logits_for(arcs: list[tuple[int, int]]) -> Tensor:
            rows = embedding_gather(v_final, [i * (n + 1) + j for i, j in arcs])
            return self.scorer.label_head(rows)

        return ForwardPass(n=n, scores=s, label_logits_for=label_logits_for, filter_output=flt)


def build_model(cfg: ModelConfig, vocab: Vocab, seed: int = 0) -> _ParserBase:
    cls = LocModel if cfg.kind == "loc" else ArcLocModel
    model = cls(cfg, vocab.n_forms, vocab.n_upos, seed=seed)
    for p in model.parameters():
        p.data = p.data.astype(cfg.dtype, copy=False)
    return model


def save_checkpoint(path, model: _ParserBase, vocab: Vocab, extra: dict | None = None) -> None:
    """Versioned npz container: named parameter tensors + config + vocab.

    Arrays round-trip bit-exactly.
    """
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "model": asdict(model.cfg),
        "vocab": vocab.to_dict(),
        "extra": extra or {},
    }
    arrays = {f"param:{name}": arr for name, arr in model.state_dict().items()}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path) -> tuple[_ParserBase, Vocab, dict]:
    with open(path, "rb") as fh:  # a file that cannot be opened stays an OSError
        try:
            with np.load(fh) as z:
                meta = json.loads(bytes(z["__meta__"]).decode())
                if meta["format"] != CHECKPOINT_FORMAT:
                    raise ValueError(f"format {meta['format']!r}")
                stored, vocab_data, extra = meta["model"], meta["vocab"], meta["extra"]
                state = {key[len("param:"):]: z[key] for key in z.files if key.startswith("param:")}
        except Exception as exc:
            raise ValueError(f"{path}: not an arcforge checkpoint") from exc
    if meta.get("version") not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"{path}: unsupported checkpoint version {meta.get('version')}")
    if not isinstance(stored, dict):
        raise ValueError(f"{path}: model must be a JSON object")
    tables = [f.name for f in fields(Vocab)]
    if not (isinstance(vocab_data, dict) and all(isinstance(vocab_data.get(t), dict) for t in tables)):
        raise ValueError(f"{path}: vocab must be a JSON object holding objects {', '.join(tables)}")
    # a checkpoint that predates the dtype key holds its parameters in it
    stored.setdefault("dtype", next((a.dtype.name for a in state.values()), "float64"))
    # one written while train_noise was a key: false meant no filter noise
    if not stored.pop("train_noise", True):
        stored["gumbel_scale"] = 0.0
    annotations = {f.name: f.type for f in fields(ModelConfig)}
    problems = [f"unknown key {k!r}" for k in sorted(set(stored) - set(annotations))]
    problems += [f"missing key {f.name!r}" for f in fields(ModelConfig)
                 if f.default is MISSING and f.name not in stored]
    problems += [f"{k!r} must be {annotations[k]}, got {json.dumps(v)}" for k, v in stored.items()
                 if k in annotations and not _accepts(annotations[k], v)]
    if problems:
        raise ValueError(f"{path}: bad model config: {', '.join(problems)}")
    try:
        cfg = ModelConfig(**stored)
    except ValueError as exc:
        raise ValueError(f"{path}: bad model config: {exc}") from None
    try:
        vocab = Vocab.from_dict(vocab_data)
    except ValueError as exc:
        raise ValueError(f"{path}: bad vocab: {exc}") from None
    if meta["version"] == 1:
        _drop_version_1_biases(state, cfg)
    model = build_model(cfg, vocab, seed=0)
    try:
        model.load_state(state)
    except ValueError as exc:
        raise ValueError(f"{path}: bad parameters: {exc}") from None
    return model, vocab, extra


def _drop_version_1_biases(state: dict[str, np.ndarray], cfg: ModelConfig) -> None:
    """Drop from a version-1 state the parameters that version 2 deleted:
    each added a constant that every consumer cancels, so no parse reads it."""
    for key in [k for k in state if k.endswith(".w_key.bias")
                or k in ("scorer.score_out.bias", "scorer.filter_head.bias")]:
        del state[key]
    arc = state.get("scorer.arc_weight")
    if cfg.kind == "loc" and cfg.biaffine_bias and np.shape(arc) == (cfg.x + 1, cfg.x + 1):
        state["scorer.arc_weight"] = arc[:cfg.x]
