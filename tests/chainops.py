"""Layer norm and multi-head attention as autodiff ops of their own: the
chain of elementary ops that the transformer sublayer nodes
(``tensor.attention_sublayer``, ``tensor.ffn_sublayer``) stand for, built
from the numpy bodies that those nodes share.

No prediction or training path calls them, so they live with the tests.
They look the engine's bodies up on the module at each call, so a test
that patches ``tensor._attention_forward`` patches them too.
"""

from arcforge import tensor as T
from arcforge.tensor import Tensor


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance."""
    data, inv = T._layer_norm_forward(a.data, eps)

    def _bw(g):
        T._accum(a, T._layer_norm_backward(g, data, inv))

    return Tensor._from_op(data, (a,), _bw)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention of every head, as one node:
    out[:, h] = softmax(q[:, h] @ k[:, h].T / sqrt(dk)) @ v[:, h], where
    [:, h] is head h's block of dk = width / heads columns. While a graph
    is recorded the node keeps what ``tensor._attention_forward`` saves."""
    saved = [] if T._recorded((q, k, v)) else None
    out = T._attention_forward(q.data, k.data, v.data, heads, saved)

    def _bw(g):
        grads = T._attention_backward(g, out, saved, tuple(x.requires_grad for x in (q, k, v)))
        for x, gx in zip((q, k, v), grads):
            if gx is not None:
                T._accum(x, gx)

    return Tensor._from_op(out, (q, k, v), _bw)
