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
``ffn_sublayer``). It runs the numpy bodies of the layer norm, the
projections and the attention or FFN it stands for, in order, and keeps
fewer arrays for backward than a chain of one node per op would. The
tests build that chain from the same bodies and check that the node's
values and gradients are bitwise the chain's.
Attention allocates no t x t array: it computes its scores a tile of
rows at a time, and backward rebuilds each tile's scores from the saved
stacks, trading a second score pass for memory.

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

    def item(self) -> float:
        return float(self.data.reshape(())[()])

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

    def __mul__(self, other):
        return mul(self, other)

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)


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
    if not training or p == 0.0:
        return a
    mask = (rng.random(a.data.shape) >= p).astype(a.data.dtype) / (1.0 - p)

    def _bw(g):
        _accum(a, g * mask)

    return Tensor._from_op(a.data * mask, (a,), _bw)


# -- linear algebra ---------------------------------------------------


def _data(t: Tensor | None) -> np.ndarray | None:
    return None if t is None else t.data


def _linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    if x.ndim != 2 or w.ndim != 2:
        raise ValueError(f"linear expects 2-D operands, got {x.shape} @ {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"linear dimension mismatch: {x.shape} @ {w.shape}")
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
    kept until backward. Values and gradients are bitwise those of the
    product and the bias add as two nodes."""
    x, w = _lift(x, w), _lift(w, x)
    y = _linear_forward(x.data, w.data, _data(b))

    def _bw(g):
        gx = _linear_backward(g, x.data, w, b, need_x=x.requires_grad)
        if gx is not None:
            _accum(x, gx)

    return Tensor._from_op(y, (x, w) if b is None else (x, w, b), _bw)


def transpose(a: Tensor) -> Tensor:

    def _bw(g):
        _accum(a, g.T)

    return Tensor._from_op(a.data.T.copy(), (a,), _bw)


def pairwise_bilinear(H: Tensor, t: Tensor, M: Tensor) -> Tensor:
    """All-pairs bilinear: out[i,j,c] = sum_{a,b} H[i,a] * t[a,c,b] * M[j,b].

    Contracts H with t first, so the cost is O(p*a*r*b + p*q*r*b)
    rather than the O(p*q*a*r*b) of one three-operand contraction.
    """
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


# Score entries of one row tile, all heads together: attention computes
# its t x t scores a tile of rows at a time, and a tile of 2**15 float64
# entries (256 KiB) stays in a 2 MiB L2 cache with its operands, as do
# the two tiles of backward.
TILE_ENTRIES = 2 ** 15

# A head whose scores all lie in [-B, B] is exponentiated without the
# row-max shift. Cauchy-Schwarz bounds its scores by max |q~_i| max |k_j|
# (q~ = q / sqrt(dk)). With B = 32, e^B < 8e13 and e^-B > 1e-14, so no
# entry of e underflows, even to a subnormal (float32's smallest normal
# is 1.2e-38), and the row sums e @ [v | 1] and the backward's products
# with g / s reach e^B t |v| and e^B |g| |v| dk, which stay below
# float32's 3.4e38 while t |v| and |g| |v| dk stay below 4e24: activations
# out of a layer norm and a projection are nowhere near. No head of the
# benchmark's arcloc workloads (seed 3) bounds its scores by more than 11.
SHIFT_FREE_BOUND = 32.0


def _attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int,
                       saved: list | None) -> np.ndarray:
    """Every head's softmax(q_h @ k_h.T / sqrt(dk)) @ v_h, where q_h is
    head h's block of dk = width / heads columns of q.

    The scores are computed a tile of rows at a time, TILE_ENTRIES of
    them across heads, so no t x t array is ever allocated and a tile
    stays in cache through its three passes (Dao et al. 2022,
    FlashAttention): one batched product of every head's scaled q rows
    (q~ = q / sqrt(dk)) with k.T, exp in place, and one product with the
    (heads, t, dk + 1) stack [v | 1], which gives the t x dk output and
    the row sums s together; the output is divided by s, so no pass
    scales or divides the scores. A head skips the row-max shift when
    max |q~_i| max |k_j| <= SHIFT_FREE_BOUND rules out overflow; above
    that bound, or when it is not finite, the head subtracts its exact
    row maxima m (two more passes) and raises if a score row is entirely
    -inf. The stacks are contiguous copies, made once per call, because
    BLAS rounds strided views differently.

    When ``saved`` is a list, the call appends what
    ``_attention_backward`` reads, and no t x t array: the stacks of
    scaled q, k.T and [v | 1], the row maxima m (None when no head is
    shifted; rows of the heads not shifted are unset), the row sums s,
    and the indices of the shifted heads. Backward rebuilds each tile's
    e from them with the forward's own calls, the recomputation of
    FlashAttention and of gradient checkpointing (Chen et al. 2016)."""
    if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
        raise ValueError(f"attention expects equal 2-D q, k, v, got {q.shape}, {k.shape}, {v.shape}")
    t, width = q.shape
    if heads < 1 or width % heads:
        raise ValueError(f"head count {heads} does not divide width {width}")
    dk = width // heads
    scale = _attention_scale(dk, q.dtype)
    # contiguous stacks: BLAS rounds strided views differently
    qs = np.multiply(q.reshape(t, heads, dk).transpose(1, 0, 2), scale,
                     out=np.empty((heads, t, dk), dtype=q.dtype))
    kts = k.reshape(t, heads, dk).transpose(1, 2, 0).copy()
    vs = np.empty((heads, t, dk + 1), dtype=v.dtype)
    vs[:, :, :dk] = v.reshape(t, heads, dk).transpose(1, 0, 2)
    vs[:, :, dk] = 1
    # each head's bound, squared; an inf or NaN bound fails the test and
    # takes the shift
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = (np.einsum("htd,htd->ht", qs, qs).max(axis=1)
                  * np.einsum("hdt,hdt->ht", kts, kts).max(axis=1)).tolist()
    shifted = [h for h, b in enumerate(bounds) if not b <= SHIFT_FREE_BOUND ** 2]
    out = np.empty((t, width), dtype=np.result_type(q, v))
    out_heads = out.reshape(t, heads, dk).transpose(1, 0, 2)
    rows = _tile_rows(heads, t)
    scores = np.empty((heads, rows, t), dtype=np.result_type(q, k))
    ev = np.empty((heads, rows, dk + 1), dtype=np.result_type(scores, vs))
    m = np.empty((heads, t, 1), dtype=scores.dtype) if shifted else None
    s = np.empty((heads, t, 1), dtype=ev.dtype) if saved is not None else None
    for r0 in range(0, t, rows):
        r1 = min(r0 + rows, t)
        o = np.matmul(_tile_exp(qs, kts, m, shifted, r0, r1, scores, check=True), vs,
                      out=ev[:, :r1 - r0])
        np.divide(o[:, :, :dk], o[:, :, dk:], out=out_heads[:, r0:r1])
        if s is not None:
            s[:, r0:r1] = o[:, :, dk:]
    if saved is not None:
        saved.append((qs, kts, vs, m, s, shifted))
    return out


def _tile_rows(heads: int, t: int) -> int:
    """Rows per tile: as many as fit TILE_ENTRIES scores, at least one."""
    return max(1, min(t, TILE_ENTRIES // max(heads * t, 1)))


def _tile_exp(qs: np.ndarray, kts: np.ndarray, m: np.ndarray | None, shifted: list[int],
              r0: int, r1: int, scores: np.ndarray, check: bool) -> np.ndarray:
    """e = exp(q~ @ k.T), less the row maxima m on the shifted heads, for
    rows r0:r1 of every head, in ``scores``. The forward (``check``)
    takes m and raises on a row that is entirely -inf; backward reads
    the forward's m, so its e is bitwise the forward's."""
    e = scores[:, :r1 - r0]
    np.matmul(qs[:, r0:r1], kts, out=e)
    for h in shifted:
        mh = m[h, r0:r1]
        if check:
            np.maximum.reduce(e[h], axis=-1, keepdims=True, out=mh)
            if np.fmin.reduce(mh, axis=None) == -np.inf:  # fmin passes over NaN rows
                raise ValueError("softmax over a fully masked (all -inf) slice")
        e[h] -= mh
    return np.exp(e, out=e)


def _attention_backward(g: np.ndarray, out: np.ndarray, saved: list,
                        need: tuple[bool, bool, bool]) -> list[np.ndarray | None]:
    """Gradients of q, k and v (None where ``need`` is false) for output
    gradient ``g``, given the forward's ``out`` and ``saved``. Each row
    tile rebuilds its exponentiated scores e with the forward's own
    calls; the tiles add their terms of k's and v's gradients and write
    their rows of q's. The softmax's row term rowsum(dO * O) goes into
    the same product as dP, through an extra column:
    [dO / s | rowsum(dO / s * O)] @ [v | -1].T. A tile takes seven
    passes (eight on a shifted head): the score product, exp, the
    products for v's gradient and for dP, the product e * dP, and the
    products for q's and k's gradients."""
    t, width = g.shape
    qs, kts, vs, m, s, shifted = saved[0]
    heads, dk = qs.shape[0], qs.shape[2]
    scale = _attention_scale(dk, qs.dtype)
    want_q, want_k, want_v = need
    grads = [np.zeros((t, width), dtype=a.dtype) if want else None
             for a, want in zip((qs, kts, vs), need)]
    gq, gk, gv = (None if a is None else a.reshape(t, heads, dk).transpose(1, 0, 2) for a in grads)
    # gs @ vts = [g / s | rowsum(g / s * out)] @ [v | -1].T is the softmax
    # backward's dP - rowsum(dO * O), divided by s, in one product
    gs = np.empty((heads, t, dk + 1), dtype=np.result_type(g, s))
    np.divide(g.reshape(t, heads, dk).transpose(1, 0, 2), s, out=gs[:, :, :dk])
    np.einsum("htd,htd->ht", gs[:, :, :dk], out.reshape(t, heads, dk).transpose(1, 0, 2),
              out=gs[:, :, dk])
    # contiguous copies: BLAS multiplies transposed views more slowly
    vts = vs.transpose(0, 2, 1).copy()
    vts[:, dk] = -1
    ks = kts.transpose(0, 2, 1).copy()
    rows = _tile_rows(heads, t)
    scores = np.empty((heads, rows, t), dtype=np.result_type(qs, kts))
    p = np.empty((heads, rows, t), dtype=np.result_type(gs, scores, vts))
    gq_tile = np.empty((heads, rows, dk), dtype=np.result_type(scores, ks))
    for r0 in range(0, t, rows):
        r1 = min(r0 + rows, t)
        e = _tile_exp(qs, kts, m, shifted, r0, r1, scores, check=False)
        if want_v:
            gv += e.transpose(0, 2, 1) @ gs[:, r0:r1, :dk]
        if want_q or want_k:
            e *= np.matmul(gs[:, r0:r1], vts, out=p[:, :r1 - r0])
            if want_q:
                np.multiply(np.matmul(e, ks, out=gq_tile[:, :r1 - r0]), scale, out=gq[:, r0:r1])
            if want_k:
                gk += e.transpose(0, 2, 1) @ qs[:, r0:r1]
    return grads


# -- shape ops --------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:

    def _bw(g):
        _accum(a, g.reshape(a.data.shape))

    return Tensor._from_op(a.data.reshape(shape), (a,), _bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
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
    data = base.data.copy()
    data[ids] = rows.data

    def _bw(g):
        gb = g.copy()
        gb[ids] = 0.0
        _accum(base, gb)
        _accum(rows, g[ids])

    return Tensor._from_op(data, (base, rows), _bw)


# -- normalization ----------------------------------------------------


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


def _layer_norm_forward(x: np.ndarray, eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
    """x normalized over its last axis to zero mean and unit variance,
    with the inverse deviations that ``_layer_norm_backward`` reads."""
    if x.shape[-1] < 2:
        raise ValueError("layer norm needs at least 2 features")
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return xc * inv, inv


def _layer_norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The input's gradient, from the normalized input xhat."""
    gmean = g.mean(axis=-1, keepdims=True)
    gxhat = (g * xhat).mean(axis=-1, keepdims=True)
    return inv * (g - gmean - xhat * gxhat)


# -- transformer sublayers -----------------------------------------------
#
# A pre-norm sublayer as one node. Each runs the numpy bodies of the
# chain of ops it stands for (a layer norm, linear, attention over every
# head, relu, add), in the chain's order, and sums each gradient's terms
# in the order the chain's backward would add them, so its values and
# gradients are bitwise the chain's; the tests build that chain from the
# same bodies as their oracle. A projection is a (weight, bias) pair
# whose bias may be None.


def attention_sublayer(x: Tensor, query: tuple | None, key: tuple | None, value: tuple,
                       out: tuple | None, heads: int) -> Tensor:
    """x + out(attention(query(y), key(y), value(y), heads)) with y the
    layer norm of x and attention that of ``_attention_forward``. A None
    query, key or out projection is the identity (the exact-counts layer
    attends with unprojected queries and keys and has no output
    projection). The norm has no gain or bias: the projections that read
    y would absorb them (see ``refiner.TransformerLayer``).

    The node keeps y, the attention output and what the attention's
    backward reads (``_attention_forward``), never a t x t array:
    backward recomputes each tile of scores instead."""
    projections = [p for pair in (query, key, value, out) if pair is not None for p in pair]
    prev = tuple(p for p in (x, *projections) if p is not None)
    y, inv = _layer_norm_forward(x.data)
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
        _accum(x, _layer_norm_backward(gq, y, inv))

    return Tensor._from_op(data, prev, _bw)


def ffn_sublayer(x: Tensor, hidden: tuple, out: tuple) -> Tensor:
    """x + out(relu(hidden(y))) with y the layer norm of x, which has no
    gain or bias: the hidden projection would absorb them. The node keeps
    y and the relu output, whose positive entries are the relu's mask."""
    prev = tuple(p for p in (x, *hidden, *out) if p is not None)
    y, inv = _layer_norm_forward(x.data)
    a = _linear_forward(y, hidden[0].data, _data(hidden[1]))
    np.maximum(a, 0.0, out=a)
    data = x.data + _linear_forward(a, out[0].data, _data(out[1]))

    def _bw(g):
        _accum(x, g)
        ga = _linear_backward(g, a, *out)
        gy = _linear_backward(ga * (a > 0), y, *hidden)
        _accum(x, _layer_norm_backward(gy, y, inv))

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
    def _bw(g):
        _accum(surrogate, g)

    return Tensor._from_op(hard.data.copy(), (surrogate,), _bw)


# -- non-differentiable index ops --------------------------------------


def argsort_descending(x: np.ndarray) -> np.ndarray:
    """Indices sorting along the last axis high-to-low; ties keep
    ascending index."""
    return np.argsort(-x, axis=-1, kind="stable")


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
