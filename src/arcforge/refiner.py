"""Transformer refinement of arc vectors behind a differentiable top-k filter.

The filter keeps the k most probable head candidates per modifier,
choosing for all modifiers at once from one modifier-by-head logit
matrix. Kept vectors pass jointly through the encoder layers as one
sequence (no positional encodings: arcs are a set, identified by
content); discarded vectors are final. At train time the kept vectors
are straight-through nodes: forward values are the hard selections
bitwise, gradients flow through the softmax-weighted expectation of the
candidate vectors, computed for every modifier in one batched product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Linear, Module, ModuleList, glorot_uniform
from .scorers import candidates, head_logits
from .tensor import (
    Tensor,
    arc_expectation,
    argsort_descending,
    attention_sublayer,
    embedding_gather,
    ffn_sublayer,
    reshape,
    row_scatter,
    softmax,
    straight_through,
)

_attn_score_entries = 0


def reset_attention_entry_count() -> None:
    global _attn_score_entries
    _attn_score_entries = 0


def attention_entry_count() -> int:
    """Attention score elements computed since the last reset."""
    return _attn_score_entries


def num_heads(r: int) -> int:
    """Head count rule: the divisor of r closest to r/16 (ties -> larger)."""
    target = r / 16.0
    best = 1
    best_key = (abs(1 - target), -1)
    for div in range(2, r + 1):
        if r % div:
            continue
        key = (abs(div - target), -div)
        if key < best_key:
            best_key, best = key, div
    return best


class LayerNorm(Module):
    """A layer norm's affine terms, ``gain`` and ``bias`` (both None
    without them); the sublayer nodes of ``TransformerLayer`` apply them."""

    def __init__(self, width: int, affine: bool = True):
        super().__init__()
        self.gain = Tensor(np.ones(width), requires_grad=True) if affine else None
        self.bias = Tensor(np.zeros(width), requires_grad=True) if affine else None


class TransformerLayer(Module):
    """Pre-norm multi-head self-attention + position-wise FFN (hidden 4r).

    With exact_counts=True the layer carries exactly 9r^2 parameters:
    queries and keys attend unprojected, values go through a single
    r x r projection, the FFN has no biases, and layer norms have no
    affine terms. Without the flag it is the standard layer with
    separate Q/K/V/output projections, biases, and layer-norm affines,
    except that the key projection has no bias: it would add q_i . b to
    the whole score row i, which the row's softmax ignores, so its
    gradient is exactly zero. Each sublayer is one autodiff node
    (``attention_sublayer``, ``ffn_sublayer``).
    """

    def __init__(self, width: int, heads: int, rng: np.random.Generator,
                 exact_counts: bool = False):
        super().__init__()
        if width % heads:
            raise ValueError(f"head count {heads} does not divide width {width}")
        self.heads = heads
        self.exact_counts = exact_counts
        if exact_counts:
            self.w_value = Tensor(glorot_uniform((width, width), width, width, rng), requires_grad=True)
        else:
            self.w_query = Linear(width, width, rng)
            self.w_key = Linear(width, width, rng, bias=False)
            self.w_value_proj = Linear(width, width, rng)
            self.w_out = Linear(width, width, rng)
        self.norm_attn = LayerNorm(width, affine=not exact_counts)
        self.norm_ffn = LayerNorm(width, affine=not exact_counts)
        self.ffn_in = Linear(width, 4 * width, rng, bias=not exact_counts)
        self.ffn_out = Linear(4 * width, width, rng, bias=not exact_counts)

    def forward(self, x: Tensor) -> Tensor:
        global _attn_score_entries
        _attn_score_entries += self.heads * x.data.shape[0] ** 2
        if self.exact_counts:
            projections = (None, None, (self.w_value, None), None)
        else:
            projections = tuple((lin.weight, lin.bias)
                                for lin in (self.w_query, self.w_key, self.w_value_proj, self.w_out))
        x = attention_sublayer(x, self.norm_attn.gain, self.norm_attn.bias, *projections, self.heads)
        return ffn_sublayer(x, self.norm_ffn.gain, self.norm_ffn.bias,
                            (self.ffn_in.weight, self.ffn_in.bias), (self.ffn_out.weight, self.ffn_out.bias))


@dataclass
class FilterOutput:
    """Per-modifier kept head lists (most to least probable) plus the kept
    vectors as one sequence, aligned with kept_flat_idx into the flat
    (n+1)^2 x r arc grid, modifier by modifier. logits is the noiseless
    (n, n+1) ``head_logits`` matrix of filter scores, which the optional
    auxiliary loss reads."""

    kept_heads: list[list[int]]
    kept_flat_idx: np.ndarray
    kept_vectors: Tensor
    logits: Tensor


def filter_topk(v0_flat: Tensor, filter_head: Linear, n: int, k: int,
                rng: np.random.Generator | None = None,
                gumbel_scale: float = 0.0, st_grad: bool = True) -> FilterOutput:
    """Keep the k highest-scoring head candidates for each modifier.

    All modifiers are filtered at once on the (n, n+1) ``head_logits``
    matrix: row j-1 holds modifier j's logits over heads 0..n, -inf at
    the self-loop. A positive gumbel_scale adds Gumbel(0,1) noise times
    that scale to the candidate cells, drawn from rng in row-major order,
    before a stable row-wise sort. Ties break toward the smaller head
    index. With st_grad, kept vectors are straight-through nodes whose
    backward path is the row-softmax-weighted expectation of the
    modifier's candidate vectors; otherwise they are plain gathers and
    no softmax runs.
    """
    big_n = n + 1
    logits = head_logits(reshape(filter_head(v0_flat), (big_n, big_n)), n)
    lg = logits
    if gumbel_scale > 0.0:
        noise = np.zeros((n, big_n))
        noise[candidates(n)] = rng.gumbel(size=n * n) * gumbel_scale
        lg = lg + noise
    kept_count = min(k, n)
    kept = argsort_descending(lg.data)[:, :kept_count]  # -inf sorts last, so never kept
    mods = np.arange(1, big_n)
    kept_flat = (kept * big_n + mods[:, None]).reshape(-1)
    kept_vectors = embedding_gather(v0_flat, kept_flat)
    if st_grad:
        # the zero probability on the diagonal drops the non-candidate V[j, j]
        expectation = arc_expectation(softmax(lg, axis=-1), v0_flat)
        kept_vectors = straight_through(
            kept_vectors, embedding_gather(expectation, np.repeat(mods - 1, kept_count)))
    return FilterOutput(
        kept_heads=kept.tolist(),
        kept_flat_idx=kept_flat,
        kept_vectors=kept_vectors,
        logits=logits,
    )


def refine(v0_flat: Tensor, filter_output: FilterOutput, layers: ModuleList | list) -> Tensor:
    """Pass the filter's kept arc vectors through the layers; discarded
    rows of v0_flat are final."""
    x = filter_output.kept_vectors
    for layer in layers:
        x = layer(x)
    return row_scatter(v0_flat, filter_output.kept_flat_idx, x)
