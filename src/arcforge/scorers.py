"""Arc and label scoring.

LocScorer is the two-pipeline baseline: one biaffine matrix for arc
scores, one biaffine tensor for label logits, reading from four
role-specialized token representations. ArcScorer is the single-pipeline
variant: one biaffine tensor produces an r-vector per arc, and small
FFN heads read score, label, and filter logits off those vectors.
"""

from __future__ import annotations

import numpy as np

from .nn import Linear, Module, glorot_uniform
from .tensor import (
    Tensor,
    concat,
    linear,
    narrow,
    paired_bilinear,
    pairwise_bilinear,
    relu,
    reshape,
    transpose,
)


def candidates(n: int) -> np.ndarray:
    """(n, n+1) booleans: row j-1 is True at every head 0..n but j."""
    return np.arange(n + 1) != np.arange(1, n + 1)[:, None]


def head_logits(grid: Tensor, n: int) -> Tensor:
    """Row j-1: modifier j's logits over heads 0..n, read from column j of
    a raw (n+1)x(n+1) arc score grid, with -inf at the self-loop. The one
    place that excludes non-candidates; the grid's diagonal and column 0
    (arcs into the root) get no gradient."""
    return narrow(transpose(grid), 0, 1, n) + np.where(candidates(n), 0.0, -np.inf)


def _ones_column(x: Tensor) -> Tensor:
    return concat([x, Tensor(np.ones((x.data.shape[0], 1), dtype=x.data.dtype))], axis=1)


class LocScorer(Module):
    """Biaffine arc scores s_ij = h_i^T M m_j and biaffine label logits.

    The bias-augmented variant (biaffine_bias=True) appends a ones
    column to both label inputs, which folds the linear and constant
    bias terms into the label weights, and to the arc modifier input
    only, which adds a head-side term h_i . M[:, x] to each arc score
    (Dozat & Manning 2017). A ones column on the arc head input would
    add terms that depend on the modifier alone, which each modifier's
    softmax over heads and both tree decoders ignore.
    """

    def __init__(self, x: int, y: int, n_labels: int, rng: np.random.Generator,
                 biaffine_bias: bool = False):
        super().__init__()
        self.biaffine_bias = biaffine_bias
        xa = x + 1 if biaffine_bias else x
        ya = y + 1 if biaffine_bias else y
        # the first x rows of a square draw: the label weights then draw as after a square one
        self.arc_weight = Tensor(glorot_uniform((xa, xa), xa, xa, rng)[:x], requires_grad=True)
        self.label_weight = Tensor(glorot_uniform((ya, n_labels, ya), ya, ya, rng), requires_grad=True)

    def arc_score_matrix(self, h_arc: Tensor, m_arc: Tensor) -> Tensor:
        """Raw arc scores S[i, j] = h_i^T M m_j, shape (n+1, n+1)."""
        if self.biaffine_bias:
            m_arc = _ones_column(m_arc)
        return linear(linear(h_arc, self.arc_weight), transpose(m_arc))

    def label_logits(self, h_lab_rows: Tensor, m_lab_rows: Tensor) -> Tensor:
        """Label logits for row-aligned (head, modifier) pairs."""
        if self.biaffine_bias:
            h_lab_rows, m_lab_rows = _ones_column(h_lab_rows), _ones_column(m_lab_rows)
        return paired_bilinear(h_lab_rows, self.label_weight, m_lab_rows)


class ArcScorer(Module):
    """Explicit arc vectors v_ij = h_i^T R m_j with heads reading off them:

    - score head: linear(r -> r/2), ReLU, linear(r/2 -> 1)
    - label head: linear(r -> 2L), ReLU, linear(2L -> L)
    - filter head (only when refinement layers exist): linear(r -> 1)

    The score head's output layer and the filter head have no bias, as
    with exact_counts: a bias would shift every arc's score or filter
    logit by one constant, which each modifier's softmax over heads, the
    top-k sort and both tree decoders (every tree has n arcs) ignore.
    """

    def __init__(self, d: int, r: int, n_labels: int, rng: np.random.Generator,
                 with_filter: bool = False, exact_counts: bool = False):
        super().__init__()
        if r % 2:
            raise ValueError(f"arc vector size must be even, got r={r}")
        self.r = r
        bias = not exact_counts
        self.arc_tensor = Tensor(glorot_uniform((d, r, d), d, d, rng), requires_grad=True)
        self.score_hidden = Linear(r, r // 2, rng, bias=bias)
        self.score_out = Linear(r // 2, 1, rng, bias=False)
        self.label_hidden = Linear(r, 2 * n_labels, rng, bias=bias)
        self.label_out = Linear(2 * n_labels, n_labels, rng, bias=bias)
        self.filter_head = Linear(r, 1, rng, bias=False) if with_filter else None

    def arc_vectors(self, h: Tensor, m: Tensor) -> Tensor:
        """Stage-0 arc vectors for every (head, modifier) pair:
        V[i, j] = bilinear(h_i, R, m_j), shape (n+1, n+1, r)."""
        return pairwise_bilinear(h, self.arc_tensor, m)

    def score_head(self, v_rows: Tensor) -> Tensor:
        """Scalar score per arc vector row; returns (t, 1)."""
        return self.score_out(relu(self.score_hidden(v_rows)))

    def label_head(self, v_rows: Tensor) -> Tensor:
        """Label logits per arc vector row; returns (t, L)."""
        return self.label_out(relu(self.label_hidden(v_rows)))

    def score_matrix_from(self, v_flat: Tensor, n: int) -> Tensor:
        """Raw (n+1)x(n+1) score matrix read from flat arc vectors."""
        return reshape(self.score_head(v_flat), (n + 1, n + 1))
