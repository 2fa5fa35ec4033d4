"""Contextual token embeddings and head/modifier specialization.

Embeddings are trainable lookups (form + optional gold-POS, summed) with
a reserved trainable root-marker row at id 0. Context, when enabled, is
a stack of standard self-attention layers over the token sequence with
sinusoidal position encodings added at the input.
"""

from __future__ import annotations

import numpy as np

from .conllu import Sentence, Vocab
from .nn import Linear, Module, ModuleList
from .refiner import TransformerLayer
from .tensor import Tensor, dropout, embedding_gather, relu


_SINUSOIDS: dict[int, np.ndarray] = {}  # dim -> read-only table, grown by doubling


def sinusoidal_encoding(length: int, dim: int) -> np.ndarray:
    """Read-only rows 0..length-1 of the sinusoidal position encoding.

    Each value depends only on its position and column, so one table per
    ``dim``, rebuilt twice as long when a longer sentence needs it, gives
    the same rows at every length."""
    table = _SINUSOIDS.get(dim)
    if table is None or len(table) < length:
        rows = length if table is None else max(length, 2 * len(table))
        table = _sinusoids(rows, dim)
        table.flags.writeable = False
        _SINUSOIDS[dim] = table
    return table[:length]


def _sinusoids(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length)[:, None].astype(float)
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    enc = np.zeros((length, dim))
    enc[:, 0::2] = np.sin(angle[:, 0::2])
    enc[:, 1::2] = np.cos(angle[:, 1::2])
    return enc


class Encoder(Module):
    """Summed form/UPOS embeddings, then ``context_layers`` self-attention
    layers; with the defaults it is a plain embedding lookup."""

    def __init__(self, n_forms: int, n_upos: int, emb_dim: int, rng: np.random.Generator,
                 context_layers: int = 0, context_heads: int = 1, emb_dropout: float = 0.0,
                 use_upos: bool = True, exact_counts: bool = False):
        super().__init__()
        self.emb_dim = emb_dim
        self.emb_dropout = emb_dropout
        scale = emb_dim ** -0.5
        self.form_emb = Tensor(rng.normal(0.0, scale, size=(n_forms, emb_dim)), requires_grad=True)
        self.upos_emb = (
            Tensor(rng.normal(0.0, scale, size=(n_upos, emb_dim)), requires_grad=True)
            if use_upos else None
        )
        self.context = ModuleList(
            TransformerLayer(emb_dim, context_heads, rng, exact_counts=exact_counts)
            for _ in range(context_layers)
        )
        self.rng = rng

    def forward(self, form_ids, upos_ids=None) -> Tensor:
        e = embedding_gather(self.form_emb, form_ids)
        if self.upos_emb is not None:
            e = e + embedding_gather(self.upos_emb, upos_ids)
        e = dropout(e, self.emb_dropout, self.training, self.rng)
        if len(self.context):
            e = e + sinusoidal_encoding(len(form_ids), self.emb_dim)
            for layer in self.context:
                e = layer(e)
        return e

    def encode(self, sentence: Sentence, vocab: Vocab) -> Tensor:
        """Rows 0..n of contextual embeddings; row 0 is the root marker."""
        form_ids = [0] + [vocab.form_id(t.form) for t in sentence.tokens]
        upos_ids = [0] + [vocab.upos_id(t.upos) for t in sentence.tokens]
        return self.forward(form_ids, upos_ids if self.upos_emb is not None else None)


class Specialization(Module):
    """Single-layer FFN mapping shared embeddings to one role: linear,
    ReLU, dropout. The exact-counts flag drops the bias."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 drop: float = 0.33, exact_counts: bool = False):
        super().__init__()
        self.linear = Linear(d_in, d_out, rng, bias=not exact_counts)
        self.drop = drop
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return dropout(relu(self.linear(x)), self.drop, self.training, self.rng)
