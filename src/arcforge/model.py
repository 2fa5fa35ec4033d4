"""Model assembly: the two parser architectures, checkpoints, accounting.

LocModel: four role-specialized token representations feed two separate
biaffine pipelines (arc scores, label logits). ArcLocModel: one head/mod
specialization pair feeds a single biaffine tensor producing an explicit
vector per arc; score, label, and filter heads read from those vectors,
optionally refined by transformer layers over the filtered arc set.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Callable

import numpy as np

from .conllu import Sentence, Vocab
from .decoders import cle, eisner, tree_score
from .encoder import Encoder, EncoderConfig, Specialization
from .nn import Module, ModuleList
from .refiner import FilterOutput, TransformerLayer, filter_topk, num_heads, refine
from .scorers import ArcScorer, LocScorer
from .tensor import Tensor, embedding_gather, no_grad

CHECKPOINT_FORMAT = "arcforge-checkpoint"
CHECKPOINT_VERSION = 1

DECODERS = ("eisner", "mst")  # projective Eisner, or Chu-Liu-Edmonds


@dataclass
class ModelConfig:
    kind: str
    n_labels: int
    emb_dim: int
    context_layers: int = EncoderConfig.context_layers
    context_heads: int | None = EncoderConfig.context_heads
    x: int | None = None
    y: int | None = None
    d: int | None = None
    r: int | None = None
    layers: int = 0
    k: int = 10
    mlp_dropout: float = 0.33
    emb_dropout: float = EncoderConfig.emb_dropout
    use_upos: bool = EncoderConfig.use_upos
    exact_counts: bool = EncoderConfig.exact_counts
    biaffine_bias: bool = False
    gumbel_scale: float = 1.0
    train_noise: bool = True
    filter_aux_weight: float = 0.0  # optional direct supervision of the filter

    def __post_init__(self):
        if self.kind not in ("loc", "arcloc"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.n_labels < 1:
            raise ValueError("n_labels must be >= 1")
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
    score: float
    kept_heads: list[list[int]] | None = None

    def as_prediction(self) -> tuple[list[int], list[str]]:
        return self.heads, self.labels


@dataclass
class ForwardPass:
    """Per-sentence graph artifacts: masked score matrix plus a closure
    producing label logits for arbitrary (head, modifier) arcs."""

    n: int
    scores: Tensor
    label_logits_for: Callable[[list[tuple[int, int]]], Tensor]
    filter_output: FilterOutput | None = None


class _ParserBase(Module):
    def __init__(self, cfg: ModelConfig, n_forms: int, n_upos: int, seed: int):
        super().__init__()
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)
        enc_cfg = EncoderConfig(**{f.name: getattr(cfg, f.name) for f in fields(EncoderConfig)})
        self.encoder = Encoder(n_forms, n_upos, enc_cfg, self.rng)

    def forward_parse(self, sentence: Sentence, vocab: Vocab) -> ForwardPass:
        raise NotImplementedError

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
        out = []
        for name, p in self.named_parameters():
            if name.startswith("encoder."):
                continue
            out.append((name, p))
        return out

    def accounted_param_count(self) -> int:
        return sum(p.data.size for _, p in self.accounted_parameters())

    def predict(self, sentence: Sentence, vocab: Vocab, decoder: str = "eisner") -> ParseResult:
        """Decode the best tree, then label its arcs (pipeline prediction).

        No graph is recorded, so each intermediate is freed once used."""
        if decoder not in DECODERS:
            raise ValueError(f"unknown decoder {decoder!r}")
        with no_grad():
            fwd = self.forward_parse(sentence, vocab)
            s = fwd.scores.data  # the decoders ignore the masked diagonal and root column
            heads = eisner(s) if decoder == "eisner" else cle(s)
            arcs = [(heads[j - 1], j) for j in range(1, fwd.n + 1)]
            logits = fwd.label_logits_for(arcs).data if arcs else []
        label_ids = [int(np.argmax(row)) for row in logits]
        labels = [vocab.label_name(i) for i in label_ids]
        kept = fwd.filter_output.kept_heads if fwd.filter_output is not None else None
        return ParseResult(heads=heads, label_ids=label_ids, labels=labels,
                           score=tree_score(s, heads), kept_heads=kept)


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

    def accounted_parameters(self):
        out = []
        for name, p in self.named_parameters():
            if name.startswith("encoder.") or name.startswith("scorer.filter_head."):
                continue
            out.append((name, p))
        return out

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
                mode="train" if self.training else "eval",
                rng=self.rng,
                gumbel_scale=cfg.gumbel_scale if (self.training and cfg.train_noise) else 0.0,
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
    return cls(cfg, vocab.n_forms, vocab.n_upos, seed=seed)


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
    with np.load(path) as z:
        meta = json.loads(bytes(z["__meta__"]).decode())
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: not an arcforge checkpoint")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {meta.get('version')}")
        state = {key[len("param:"):]: z[key] for key in z.files if key.startswith("param:")}
    stored = meta["model"]
    problems = [f"unknown key {k!r}" for k in sorted(set(stored) - {f.name for f in fields(ModelConfig)})]
    problems += [f"missing key {f.name!r}" for f in fields(ModelConfig)
                 if f.default is MISSING and f.name not in stored]
    if problems:
        raise ValueError(f"{path}: bad model config: {', '.join(problems)}")
    cfg = ModelConfig(**stored)
    vocab = Vocab.from_dict(meta["vocab"])
    model = build_model(cfg, vocab, seed=0)
    model.load_state(state)
    return model, vocab, meta["extra"]
