"""Dense tensors with reverse-mode automatic differentiation.

Values live in numpy arrays; every differentiable operation hands its
backward closure and parents to ``Tensor._from_op``, which records them
when some parent needs a gradient, and ``Tensor.backward()`` replays the
tape in reverse topological order. The replay consumes the graph: once a
node's closure has run, the node drops it, with every array it saved,
and its parent links, so an intermediate the caller does not hold is
freed, with its value and gradient, before the sweep reaches its
parents. A closure takes its output's gradient as an argument and holds
no reference to the output, so a graph has no reference cycle and is
freed without waiting for the cycle collector, also when it is dropped
without a backward pass. Inside ``no_grad()`` nothing is recorded,
which is how prediction runs. The engine is deliberately
small: just the operations the parsing models need, each one
gradient-checked.

Each pre-norm transformer sublayer is one node (``attention_sublayer``,
``ffn_sublayer``). It runs the numpy bodies that its chain of elementary
ops runs, shared with those ops, so its values and gradients are bitwise
the chain's, and it keeps fewer arrays for backward than the chain. No
attention node keeps a t x t array: backward rebuilds each head's scores
from the saved row maxima, trading a second score pass for memory.

An op's output, and any constant it lifts, takes its operands' dtype,
float32 or float64.

Tensors are immutable after creation except for gradient accumulation
(and optimizer updates to leaf parameters between graphs).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

class _GradMode(threading.local):
    enabled = True  # per thread: a library caller's threads enter no_grad() independently


_grad_mode = _GradMode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph inside the block, on this thread: outputs need no
    gradient and keep no parents, so every intermediate is freed as soon
    as it is dropped."""
    previous, _grad_mode.enabled = _grad_mode.enabled, False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _recorded(prev: Sequence["Tensor"]) -> tuple:
    """The parents an op's output must keep: those needing a gradient,
    or none inside ``no_grad()``."""
    return tuple(p for p in prev if p.requires_grad) if _grad_mode.enabled else ()


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _accum(t: "Tensor", g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise ValueError(f"gradient shape {g.shape} does not match tensor shape {t.data.shape}")
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _consumed(g: np.ndarray) -> None:
    """The closure of a node once ``backward()`` has run and dropped its own."""
    raise RuntimeError("backward() through a graph that an earlier backward() consumed")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward: Callable[[np.ndarray], None] | None = None
        self._prev: tuple = ()

    @classmethod
    def _from_op(cls, data: np.ndarray, prev: Sequence["Tensor"],
                 backward: Callable[[np.ndarray], None]) -> "Tensor":
        """An op's output; it keeps ``backward`` and its parents only when
        some parent is being recorded."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        live = _recorded(prev)
        out.requires_grad = bool(live)
        out._prev = live
        out._backward = backward if live else None
        return out

    # -- convenience -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(())[()])

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{req})"

    # -- autodiff core -----------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(x) into ``x.grad`` for every tensor ``x``
        the graph reaches, and consume the graph on the way.

        Each node's closure runs once, after every gradient into the node
        has landed (reverse DFS post-order, so sums keep one order); then
        the node drops its closure, with the arrays the closure saved, and
        its parent links. Leaves and the interior tensors the caller holds
        keep their ``.grad``; an interior tensor nobody holds is freed as
        the sweep passes it. A later backward that reaches a consumed node
        raises ``RuntimeError`` before it changes any gradient.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _consumed:
                _consumed(node.grad)  # raises
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._prev = _consumed, ()

    # -- operator sugar ----------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, neg(_lift(other, self)))

    def __rsub__(self, other):
        return add(_lift(other, self), neg(self))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def sum(self, axis=None) -> "Tensor":
        return tsum(self, axis)

    def relu(self) -> "Tensor":
        return relu(self)


def _lift(x, like: Tensor) -> Tensor:
    """``x`` as a tensor; a constant takes the dtype of ``like``, the other operand."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=like.data.dtype))


# -- elementwise ------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _lift(a, b), _lift(b, a)

    def _bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return Tensor._from_op(a.data + b.data, (a, b), _bw)


def neg(a: Tensor) -> Tensor:

    def _bw(g):
        _accum(a, -g)

    return Tensor._from_op(-a.data, (a,), _bw)


def mul(a, b) -> Tensor:
    a, b = _lift(a, b), _lift(b, a)

    def _bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor._from_op(a.data * b.data, (a, b), _bw)


def relu(a: Tensor) -> Tensor:

    def _bw(g):
        _accum(a, g * (a.data > 0))

    return Tensor._from_op(np.maximum(a.data, 0.0), (a,), _bw)


def dropout(a: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p) at train time.

    With p=0 or in eval mode this is the identity (the same tensor is
    returned, bitwise).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate out of range: {p}")
    if not training or p == 0.0:
        return a
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    mask = (rng.random(a.data.shape) >= p).astype(a.data.dtype) / (1.0 - p)

    def _bw(g):
        _accum(a, g * mask)

    return Tensor._from_op(a.data * mask, (a,), _bw)


# -- linear algebra ---------------------------------------------------


def _data(t: Tensor | None) -> np.ndarray | None:
    return None if t is None else t.data


def _linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    if x.ndim != 2 or w.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {x.shape} @ {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {x.shape} @ {w.shape}")
    y = x @ w
    return y if b is None else y + b


def _linear_backward(g: np.ndarray, x: np.ndarray, w: Tensor, b: Tensor | None,
                     need_x: bool = True) -> np.ndarray | None:
    """Accumulate the gradients of ``w`` and ``b`` in ``x @ w (+ b)``;
    return the gradient of ``x`` when ``need_x``."""
    if w.requires_grad:
        _accum(w, x.T @ g)
    if b is not None and b.requires_grad:
        _accum(b, _unbroadcast(g, b.data.shape))
    return g @ w.data.T if need_x else None


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w (+ b)`` as one node, so the product before the bias is not
    kept until backward. Values and gradients are bitwise those of
    ``add(matmul(x, w), b)``."""
    x, w = _lift(x, w), _lift(w, x)
    y = _linear_forward(x.data, w.data, _data(b))

    def _bw(g):
        gx = _linear_backward(g, x.data, w, b, need_x=x.requires_grad)
        if gx is not None:
            _accum(x, gx)

    return Tensor._from_op(y, (x, w) if b is None else (x, w, b), _bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return linear(a, b)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"transpose expects a 2-D tensor, got shape {a.data.shape}")

    def _bw(g):
        _accum(a, g.T)

    return Tensor._from_op(a.data.T.copy(), (a,), _bw)


def pairwise_bilinear(H: Tensor, t: Tensor, M: Tensor) -> Tensor:
    """All-pairs bilinear: out[i,j,c] = sum_{a,b} H[i,a] * t[a,c,b] * M[j,b].

    Contracts H with t first, so the cost is O(p*a*r*b + p*q*r*b)
    rather than the O(p*q*a*r*b) of one three-operand contraction.
    """
    if H.data.ndim != 2 or M.data.ndim != 2 or t.data.ndim != 3:
        raise ValueError("pairwise_bilinear expects (p,a), (a,r,b), (q,b)")
    if t.data.shape[0] != H.data.shape[1] or t.data.shape[2] != M.data.shape[1]:
        raise ValueError(f"pairwise_bilinear dimension mismatch: {H.data.shape}, {t.data.shape}, {M.data.shape}")
    p, q = H.data.shape[0], M.data.shape[0]
    a, r, b = t.data.shape
    t_flat = t.data.reshape(a, r * b)
    hr = (H.data @ t_flat).reshape(p * r, b)  # hr[i*r + c] = H[i] . t[:, c, :]

    def _bw(g):
        gm = (g.transpose(0, 2, 1).reshape(p * r, q) @ M.data).reshape(p, r * b)
        _accum(H, gm @ t_flat.T)
        _accum(t, (H.data.T @ gm).reshape(a, r, b))
        _accum(M, g.transpose(1, 0, 2).reshape(q, p * r) @ hr)

    return Tensor._from_op(
        np.ascontiguousarray((hr @ M.data.T).reshape(p, r, q).transpose(0, 2, 1)), (H, t, M), _bw)


def paired_bilinear(H: Tensor, t: Tensor, M: Tensor) -> Tensor:
    """Row-aligned bilinear: out[i,c] = sum_{a,b} H[i,a] * t[a,c,b] * M[i,b]."""
    if H.data.shape[0] != M.data.shape[0]:
        raise ValueError(f"paired_bilinear row mismatch: {H.data.shape} vs {M.data.shape}")
    if t.data.shape[0] != H.data.shape[1] or t.data.shape[2] != M.data.shape[1]:
        raise ValueError(f"paired_bilinear dimension mismatch: {H.data.shape}, {t.data.shape}, {M.data.shape}")
    n = H.data.shape[0]
    a, c, b = t.data.shape
    t_flat = t.data.reshape(a, c * b)
    hr = (H.data @ t_flat).reshape(n, c, b)

    def _bw(g):
        gm = (g[:, :, None] * M.data[:, None, :]).reshape(n, c * b)
        _accum(H, gm @ t_flat.T)
        _accum(t, (H.data.T @ gm).reshape(a, c, b))
        _accum(M, (g[:, None, :] @ hr)[:, 0, :])

    return Tensor._from_op((hr @ M.data[:, :, None])[:, :, 0], (H, t, M), _bw)


def arc_expectation(probs: Tensor, v_flat: Tensor) -> Tensor:
    """Expected arc vector per modifier over its head distribution:
    out[j-1] = sum_i probs[j-1, i] * V[i, j], with probs of shape
    (n, n+1) and V the (n+1, n+1, r) arc grid that v_flat holds row-major.
    Arcs into the root (V[:, 0]) are not read."""
    n, big_n = probs.data.shape
    if big_n != n + 1 or v_flat.data.shape[0] != big_n * big_n:
        raise ValueError(f"arc_expectation shape mismatch: {probs.data.shape} vs {v_flat.data.shape}")
    r = v_flat.data.shape[1]
    by_mod = v_flat.data.reshape(big_n, big_n, r)[:, 1:, :].transpose(1, 0, 2)  # [j-1, i] = V[i, j]

    def _bw(g):
        _accum(probs, (by_mod @ g[:, :, None])[:, :, 0])
        gv = np.zeros((big_n, big_n, r), dtype=v_flat.data.dtype)
        gv[:, 1:, :] = probs.data.T[:, :, None] * g[None, :, :]
        _accum(v_flat, gv.reshape(big_n * big_n, r))

    return Tensor._from_op((probs.data[:, None, :] @ by_mod)[:, 0, :], (probs, v_flat), _bw)


def _attention_scale(dk: int, dtype) -> np.ndarray:
    return np.asarray(1.0 / math.sqrt(dk), dtype=dtype)


def _attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int,
                       saved: list | None) -> np.ndarray:
    """Every head's softmax(q_h @ k_h.T / sqrt(dk)) @ v_h, with the late
    normalization and the stacks ``multi_head_attention`` describes. One
    t x t scratch array serves every head. When ``saved`` is a list, each
    head appends what ``_attention_backward`` reads, as views of the
    stacks: the scaled q block, k's block transposed, v's block, and the
    row maxima m and row sums s of its exponentiated scores."""
    if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
        raise ValueError(f"attention expects equal 2-D q, k, v, got {q.shape}, {k.shape}, {v.shape}")
    t, width = q.shape
    if heads < 1 or width % heads:
        raise ValueError(f"head count {heads} does not divide width {width}")
    dk = width // heads
    scale = _attention_scale(dk, q.dtype)
    # contiguous copies: BLAS rounds strided views differently
    qs = (q * scale).reshape(t, heads, dk).transpose(1, 0, 2).copy()
    kts = k.T.copy()
    vs = v.reshape(t, heads, dk).transpose(1, 0, 2).copy()
    out = np.empty((t, width), dtype=np.result_type(q, v))
    e = np.empty((t, t), dtype=np.result_type(q, k))
    ms, ss = np.empty((2, heads, t, 1), dtype=e.dtype)  # row maxima and sums
    for h in range(heads):
        sl = slice(h * dk, (h + 1) * dk)
        qh, kt, vh, m, s, oh = qs[h], kts[sl], vs[h], ms[h], ss[h], out[:, sl]
        np.matmul(qh, kt, out=e)
        np.maximum.reduce(e, axis=-1, keepdims=True, out=m)
        if np.fmin.reduce(m, axis=None) == -np.inf:  # fmin passes over NaN rows
            raise ValueError("softmax over a fully masked (all -inf) slice")
        e -= m
        np.exp(e, out=e)
        np.add.reduce(e, axis=-1, keepdims=True, out=s)
        np.matmul(e, vh, out=oh)
        oh /= s
        if saved is not None:
            saved.append((qh, kt, vh, m, s))
    return out


def _attention_backward(g: np.ndarray, out: np.ndarray, saved: list,
                        need: tuple[bool, bool, bool]) -> list[np.ndarray | None]:
    """Gradients of q, k and v (None where ``need`` is false) for output
    gradient ``g``, given the forward's ``out`` and ``saved``. Each head
    rebuilds its exponentiated scores with the forward's own calls, so
    they are bitwise the forward's."""
    t, width = g.shape
    qh, kt, vh = saved[0][:3]  # of q's, k's and v's dtype
    dk = qh.shape[1]
    scale = _attention_scale(dk, qh.dtype)
    grads = [np.empty((t, width), dtype=a.dtype) if want else None
             for a, want in zip((qh, kt, vh), need)]
    gq, gk, gv = grads
    e = np.empty((t, t), dtype=np.result_type(qh, kt))
    p = np.empty((t, t), dtype=np.result_type(g, e, vh))
    for h, (qh, kt, vh, m, s) in enumerate(saved):
        sl = slice(h * dk, (h + 1) * dk)
        np.matmul(qh, kt, out=e)
        e -= m
        np.exp(e, out=e)
        gh = g[:, sl] / s  # a contiguous copy: BLAS rounds strided views differently
        if gv is not None:
            gv[:, sl] = e.T @ gh
        np.matmul(gh, vh.T, out=p)  # softmax backward, into e's buffer
        p -= np.sum(gh * out[:, sl], axis=-1, keepdims=True)
        e *= p
        if gq is not None:
            gq[:, sl] = (e @ kt.T) * scale
        if gk is not None:
            gk[:, sl] = (qh.T @ e).T
    return grads


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention of every head, as one node:
    out[:, h] = softmax(q[:, h] @ k[:, h].T / sqrt(dk)) @ v[:, h], where
    [:, h] is head h's block of dk = width / heads columns.

    The softmax is normalized late (Dao et al. 2022, FlashAttention): a
    head scales q by 1/sqrt(dk), exponentiates its shifted scores e in
    place, and divides the t x dk product e @ v by the row sums s, so no
    pass scales or divides the t x t scores. Backward takes the softmax's
    row term as rowsum(dO * O), a t x dk product. A head multiplies
    contiguous blocks, because BLAS rounds strided views differently: the
    scaled q and v are copied once into (heads, t, dk) stacks, and k into
    one k.T whose row blocks are the heads' k_h.T. Each head writes its
    product straight into its column block of the output. No t x t array
    outlives a call: while a graph is recorded, each head keeps only its
    t x dk blocks and its row maxima m and row sums s, and backward
    rebuilds e from them one head at a time with the forward's own calls
    (the recomputation of FlashAttention and of gradient checkpointing,
    Chen et al. 2016), so the rebuilt e is bitwise the forward's. Raises
    if a score row is entirely -inf.
    """
    saved = [] if _recorded((q, k, v)) else None
    out = _attention_forward(q.data, k.data, v.data, heads, saved)

    def _bw(g):
        grads = _attention_backward(g, out, saved, tuple(x.requires_grad for x in (q, k, v)))
        for x, gx in zip((q, k, v), grads):
            if gx is not None:
                _accum(x, gx)

    return Tensor._from_op(out, (q, k, v), _bw)


# -- shape ops --------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:

    def _bw(g):
        _accum(a, g.reshape(a.data.shape))

    return Tensor._from_op(a.data.reshape(shape), (a,), _bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of zero tensors")
    sizes = [t.data.shape[axis] for t in tensors]

    def _bw(g):
        offset = 0
        for t, s in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + s)
            _accum(t, g[tuple(idx)])
            offset += s

    return Tensor._from_op(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), _bw)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    if start < 0 or length < 0 or start + length > a.data.shape[axis]:
        raise ValueError(f"narrow out of range: axis {axis}, [{start}, {start + length}) of {a.data.shape}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def _bw(g):
        buf = np.zeros_like(a.data)
        buf[idx] = g
        _accum(a, buf)

    return Tensor._from_op(a.data[idx].copy(), (a,), _bw)


def embedding_gather(table: Tensor, ids) -> Tensor:
    """Gather rows of a 2-D tensor; the gradient scatter-adds back."""
    ids = np.asarray(ids, dtype=np.intp)
    if table.data.ndim != 2:
        raise ValueError(f"embedding_gather expects a 2-D table, got {table.data.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError(f"gather index out of range for table with {table.data.shape[0]} rows")

    def _bw(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids, g)
        _accum(table, buf)

    return Tensor._from_op(table.data[ids], (table,), _bw)


def row_scatter(base: Tensor, ids, rows: Tensor) -> Tensor:
    """Copy of ``base`` with rows at ``ids`` replaced by ``rows``.

    Gradients pass to ``base`` everywhere except the replaced rows,
    which route to ``rows``.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if len(np.unique(ids)) != len(ids):
        raise ValueError("row_scatter indices must be unique")
    if rows.data.shape != (len(ids),) + base.data.shape[1:]:
        raise ValueError(f"row_scatter shape mismatch: {rows.data.shape} into {base.data.shape}")
    data = base.data.copy()
    data[ids] = rows.data

    def _bw(g):
        gb = g.copy()
        gb[ids] = 0.0
        _accum(base, gb)
        _accum(rows, g[ids])

    return Tensor._from_op(data, (base, rows), _bw)


# -- reductions and normalization --------------------------------------


def tsum(a: Tensor, axis=None) -> Tensor:

    def _bw(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return Tensor._from_op(np.sum(a.data, axis=axis), (a,), _bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-stabilized softmax; -inf entries yield exact zeros.

    Raises if any slice along ``axis`` is entirely -inf.
    """
    x = a.data
    m = np.max(x, axis=axis, keepdims=True)
    if np.isneginf(m).any():
        raise ValueError("softmax over a fully masked (all -inf) slice")
    e = np.exp(x - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def _bw(g):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        _accum(a, y * (g - dot))

    return Tensor._from_op(y, (a,), _bw)


def _layer_norm_forward(x: np.ndarray, gain: np.ndarray | None, bias: np.ndarray | None,
                        eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``layer_norm``'s output, with the normalized input and the inverse
    deviations that ``_layer_norm_backward`` reads."""
    if x.shape[-1] < 2:
        raise ValueError("layer_norm needs at least 2 features")
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat
    if gain is not None:
        y = y * gain
    if bias is not None:
        y = y + bias
    return y, xhat, inv


def _layer_norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                         gain: Tensor | None, bias: Tensor | None) -> np.ndarray:
    """Accumulate the gradients of the affine terms; return the input's."""
    width = xhat.shape[-1]
    if gain is not None:
        _accum(gain, (g * xhat).reshape(-1, width).sum(axis=0))
    if bias is not None:
        _accum(bias, g.reshape(-1, width).sum(axis=0))
    gx = g * gain.data if gain is not None else g
    gmean = gx.mean(axis=-1, keepdims=True)
    gxhat = (gx * xhat).mean(axis=-1, keepdims=True)
    return inv * (gx - gmean - xhat * gxhat)


def layer_norm(a: Tensor, gain: Tensor | None = None, bias: Tensor | None = None,
               eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    data, xhat, inv = _layer_norm_forward(a.data, _data(gain), _data(bias), eps)
    prev = (a,) + tuple(p for p in (gain, bias) if p is not None)

    def _bw(g):
        _accum(a, _layer_norm_backward(g, xhat, inv, gain, bias))

    return Tensor._from_op(data, prev, _bw)


# -- transformer sublayers -----------------------------------------------
#
# A pre-norm sublayer as one node. Each runs the numpy bodies of the
# chain of ops it stands for (layer_norm, linear, multi_head_attention,
# relu, add), in the chain's order, and sums each gradient's terms in the
# order the chain's backward adds them, so its values and gradients are
# bitwise the chain's. A projection is a (weight, bias) pair whose bias
# may be None.


def attention_sublayer(x: Tensor, gain: Tensor | None, bias: Tensor | None,
                       query: tuple | None, key: tuple | None, value: tuple,
                       out: tuple | None, heads: int) -> Tensor:
    """x + out(multi_head_attention(query(y), key(y), value(y), heads))
    with y = layer_norm(x, gain, bias). A None query, key or out
    projection is the identity (the exact-counts layer attends with
    unprojected queries and keys and has no output projection).

    The node keeps y, the attention output and what the attention's
    backward reads (``_attention_forward``), never a t x t array."""
    projections = [p for pair in (query, key, value, out) if pair is not None for p in pair]
    prev = tuple(p for p in (x, gain, bias, *projections) if p is not None)
    y, xhat, inv = _layer_norm_forward(x.data, _data(gain), _data(bias))
    q, k, v = (y if pair is None else _linear_forward(y, pair[0].data, _data(pair[1]))
               for pair in (query, key, value))
    saved = [] if _recorded(prev) else None
    mixed = _attention_forward(q, k, v, heads, saved)
    data = x.data + (mixed if out is None else _linear_forward(mixed, out[0].data, _data(out[1])))

    def _bw(g):
        _accum(x, g)
        gm = g if out is None else _linear_backward(g, mixed, *out)
        gq, gk, gv = (gp if pair is None else _linear_backward(gp, y, *pair)
                      for pair, gp in zip((query, key, value),
                                          _attention_backward(gm, mixed, saved, (True,) * 3)))
        gq += gk  # y's gradient: its q, k and v terms, in the chain's order
        gq += gv
        _accum(x, _layer_norm_backward(gq, xhat, inv, gain, bias))

    return Tensor._from_op(data, prev, _bw)


def ffn_sublayer(x: Tensor, gain: Tensor | None, bias: Tensor | None,
                 hidden: tuple, out: tuple) -> Tensor:
    """x + out(relu(hidden(layer_norm(x, gain, bias)))). The node keeps
    the normed input and the relu output, whose positive entries are the
    relu's mask."""
    prev = tuple(p for p in (x, gain, bias, *hidden, *out) if p is not None)
    y, xhat, inv = _layer_norm_forward(x.data, _data(gain), _data(bias))
    a = _linear_forward(y, hidden[0].data, _data(hidden[1]))
    np.maximum(a, 0.0, out=a)
    data = x.data + _linear_forward(a, out[0].data, _data(out[1]))

    def _bw(g):
        _accum(x, g)
        ga = _linear_backward(g, a, *out)
        gy = _linear_backward(ga * (a > 0), y, *hidden)
        _accum(x, _layer_norm_backward(gy, xhat, inv, gain, bias))

    return Tensor._from_op(data, prev, _bw)


def cross_entropy_from_logits(logits: Tensor, targets) -> Tensor:
    """Mean cross-entropy of rows of logits against integer targets."""
    targets = np.asarray(targets, dtype=np.intp)
    if logits.data.ndim != 2:
        raise ValueError(f"cross_entropy expects 2-D logits, got {logits.data.shape}")
    t, c = logits.data.shape
    if targets.shape != (t,):
        raise ValueError(f"targets shape {targets.shape} does not match {t} rows")
    if targets.size and (targets.min() < 0 or targets.max() >= c):
        raise ValueError("target class out of range")
    x = logits.data
    m = x.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=1))
    losses = lse - x[np.arange(t), targets]

    def _bw(g):
        g = float(g)
        p = np.exp(x - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(t), targets] -= 1.0
        _accum(logits, g * p / t)

    return Tensor._from_op(np.asarray(losses.mean()), (logits,), _bw)


def straight_through(hard: Tensor, surrogate: Tensor) -> Tensor:
    """Forward takes ``hard``'s values bitwise; backward routes the whole
    gradient into ``surrogate`` and none into ``hard``.

    Equivalent to hard - surrogate + surrogate with the gradient stopped
    on the subtracted term, without the floating-point cancellation.
    """
    if hard.data.shape != surrogate.data.shape:
        raise ValueError(f"straight_through shape mismatch: {hard.data.shape} vs {surrogate.data.shape}")

    def _bw(g):
        _accum(surrogate, g)

    return Tensor._from_op(hard.data.copy(), (surrogate,), _bw)


# -- non-differentiable index ops --------------------------------------


def argsort_descending(x) -> np.ndarray:
    """Indices sorting along the last axis high-to-low; ties keep
    ascending index."""
    arr = x.data if isinstance(x, Tensor) else np.asarray(x)
    if arr.ndim < 1:
        raise ValueError(f"argsort_descending expects at least 1-D input, got shape {arr.shape}")
    return np.argsort(-arr, axis=-1, kind="stable")


# -- verification harness ----------------------------------------------


# On a smooth f the one-sided differences (f(x+eps) - f(x)) / eps and
# (f(x) - f(x-eps)) / eps differ by about |f''| * eps. A coordinate where
# they differ by more than a second derivative of KINK_CURVATURE times the
# gradient's scale would give straddles a kink, such as a ReLU input within
# eps of 0, where the central difference matches neither side's slope.
KINK_CURVATURE = 100.0


def grad_check(f: Callable[[], Tensor], theta: Tensor, eps: float = 1e-5,
               max_coords: int | None = None, rng: np.random.Generator | None = None,
               kinks: list[int] | None = None) -> float:
    """Compare autodiff against central differences on scalar f().

    Returns max over checked coordinates of
    |g_ad - g_fd| / max(1, |g_ad|, |g_fd|).
    Coordinates that straddle a kink (see ``KINK_CURVATURE``) are skipped,
    and their flat indices appended to ``kinks`` if it is given.
    ``f`` must rebuild its graph from ``theta.data`` on every call.
    """
    if theta.data.dtype != np.float64:
        raise ValueError(f"grad_check requires 64-bit parameters, got {theta.data.dtype}")
    if not 1e-7 <= eps <= 1e-4:
        raise ValueError(f"eps out of range: {eps}")
    theta.grad = None
    out = f()
    if out.data.size != 1 or not np.isfinite(out.data).all():
        raise ValueError("grad_check objective is non-scalar or non-finite")
    f0 = out.item()
    out.backward()
    g_ad = theta.grad.reshape(-1) if theta.grad is not None else np.zeros(theta.data.size)
    flat = theta.data.reshape(-1)
    n = flat.size
    if max_coords is None or n <= max_coords:
        coords = range(n)
    else:
        # favor coordinates that carry gradient; unused ones (e.g. embedding
        # rows absent from the sentence) are trivially zero on both sides
        rng = rng or np.random.default_rng(0)
        nonzero = np.flatnonzero(g_ad)
        if nonzero.size > max_coords:
            coords = rng.choice(nonzero, size=max_coords, replace=False)
        elif nonzero.size:
            rest = np.setdiff1d(np.arange(n), nonzero)
            extra = rng.choice(rest, size=min(max_coords - nonzero.size, rest.size), replace=False)
            coords = np.concatenate([nonzero, extra])
        else:
            coords = rng.choice(n, size=max_coords, replace=False)
    worst = 0.0
    for c in coords:
        orig = flat[c]
        flat[c] = orig + eps
        fp = f().item()
        flat[c] = orig - eps
        fm = f().item()
        flat[c] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError("grad_check objective became non-finite under perturbation")
        g_fd = (fp - fm) / (2.0 * eps)
        scale = max(1.0, abs(g_ad[c]), abs(g_fd))
        if abs((fp - f0) / eps - (f0 - fm) / eps) > KINK_CURVATURE * eps * scale:
            if kinks is not None:
                kinks.append(int(c))
            continue
        worst = max(worst, abs(g_ad[c] - g_fd) / scale)
    return worst
