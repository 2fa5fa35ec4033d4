"""Tests for the autodiff engine: forward oracles and gradient checks."""

import contextlib
import gc
import math
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcforge import tensor as T
from arcforge.conllu import Sentence, Token, Vocab
from arcforge.model import ModelConfig, build_model
from arcforge.tensor import Tensor, grad_check
from arcforge.training import sentence_loss


def tt(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        a = tt(np.eye(2))
        b = tt([[5.0], [7.0]])
        assert np.array_equal(T.matmul(a, b).data, [[5.0], [7.0]])

    def test_hand_product(self):
        out = T.matmul(tt([[1.0, 2.0], [3.0, 4.0]]), tt([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        ref = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    ref[i, j] += a[i, k] * b[k, j]
        out = T.matmul(tt(a), tt(b))
        assert np.max(np.abs(out.data - ref)) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(tt(np.zeros((2, 3))), tt(np.zeros((2, 2))))


def typed(arr, dtype, grad=True):
    x = Tensor(np.zeros(1), requires_grad=grad)
    x.data = np.asarray(arr, dtype=dtype)
    return x


class TestLinear:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.booleans(),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_matmul_then_add(self, m, k, n, bias, dtype, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=(m, k)), rng.normal(size=(k, n)), rng.normal(size=n)]
        weight = typed(rng.normal(size=(m, n)), dtype, grad=False)

        def run(fused):
            x, w, b = (typed(a, dtype) for a in arrays)
            b = b if bias else None
            if fused:
                y = T.linear(x, w, b)
            else:
                y = T.matmul(x, w) if b is None else T.add(T.matmul(x, w), b)
            T.tsum(y * weight).backward()
            return [y.data, x.grad, w.grad] + ([b.grad] if bias else [])

        for got, want in zip(run(True), run(False), strict=True):
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)

    def test_one_node_per_call(self):
        x, w, b = tt(np.ones((2, 3))), tt(np.ones((3, 4))), tt(np.ones(4))
        y = T.linear(x, w, b)
        assert y._prev == (x, w, b)
        assert T.linear(x, w)._prev == (x, w)
        with T.no_grad():
            y = T.linear(x, w, b)
        assert y._prev == () and y._backward is None

    @pytest.mark.parametrize("operand", ["x", "w", "b"])
    def test_gradcheck(self, operand):
        rng = np.random.default_rng(19)
        x, w, b = tt(rng.normal(size=(4, 3))), tt(rng.normal(size=(3, 5))), tt(rng.normal(size=5))
        theta = {"x": x, "w": w, "b": b}[operand]
        err = grad_check(lambda: T.tsum(T.linear(x, w, b) * T.linear(x, w, b)), theta, eps=1e-5)
        assert err < 1e-6

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            T.linear(tt(np.zeros((2, 3))), tt(np.zeros((2, 2))))


class TestBilinear:
    def test_pairwise_against_loop(self):
        rng = np.random.default_rng(3)
        H, w, M = rng.normal(size=(4, 3)), rng.normal(size=(3, 2, 3)), rng.normal(size=(4, 3))
        out = T.pairwise_bilinear(tt(H), tt(w), tt(M))
        for i in range(4):
            for j in range(4):
                ref = np.einsum("a,acb,b->c", H[i], w, M[j])
                assert np.max(np.abs(out.data[i, j] - ref)) < 1e-12

    def test_paired_against_loop(self):
        rng = np.random.default_rng(4)
        H, w, M = rng.normal(size=(5, 3)), rng.normal(size=(3, 4, 3)), rng.normal(size=(5, 3))
        out = T.paired_bilinear(tt(H), tt(w), tt(M))
        for i in range(5):
            ref = np.einsum("a,acb,b->c", H[i], w, M[i])
            assert np.max(np.abs(out.data[i] - ref)) < 1e-12

    def test_pairwise_rectangular_against_loop(self):
        rng = np.random.default_rng(15)
        H, w, M = rng.normal(size=(4, 3)), rng.normal(size=(3, 2, 5)), rng.normal(size=(6, 5))
        out = T.pairwise_bilinear(tt(H), tt(w), tt(M))
        assert out.data.shape == (4, 6, 2)
        for i in range(4):
            for j in range(6):
                ref = np.einsum("a,acb,b->c", H[i], w, M[j])
                assert np.max(np.abs(out.data[i, j] - ref)) < 1e-12

    def test_paired_rectangular_against_loop(self):
        rng = np.random.default_rng(16)
        H, w, M = rng.normal(size=(4, 3)), rng.normal(size=(3, 2, 5)), rng.normal(size=(4, 5))
        out = T.paired_bilinear(tt(H), tt(w), tt(M))
        assert out.data.shape == (4, 2)
        for i in range(4):
            ref = np.einsum("a,acb,b->c", H[i], w, M[i])
            assert np.max(np.abs(out.data[i] - ref)) < 1e-12


class TestArcExpectation:
    def test_against_loop(self):
        rng = np.random.default_rng(17)
        n, r = 4, 3
        P, V = rng.random((n, n + 1)), rng.normal(size=((n + 1) ** 2, r))
        out = T.arc_expectation(tt(P), tt(V))
        grid = V.reshape(n + 1, n + 1, r)
        for j in range(1, n + 1):
            ref = sum(P[j - 1, i] * grid[i, j] for i in range(n + 1))
            assert np.max(np.abs(out.data[j - 1] - ref)) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="arc_expectation"):
            T.arc_expectation(tt(np.zeros((3, 3))), tt(np.zeros((16, 2))))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(tt([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(size=7)
            c = rng.normal()
            a = T.softmax(tt(x)).data
            b = T.softmax(tt(x + c)).data
            assert np.max(np.abs(a - b)) < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(9, 5)) * 10
        out = T.softmax(tt(x), axis=-1)
        assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) < 1e-12

    def test_neg_inf_mask(self):
        out = T.softmax(tt([-np.inf, 0.0, 0.0]))
        assert out.data[0] == 0.0
        assert np.allclose(out.data[1:], [0.5, 0.5], atol=1e-15)

    def test_fully_masked_row_raises(self):
        with pytest.raises(ValueError, match="masked"):
            T.softmax(tt([-np.inf, -np.inf]))


class TestMultiHeadAttention:
    @pytest.mark.parametrize("operand", ["q", "k", "v", "q-is-k"])
    def test_gradcheck(self, operand):
        rng = np.random.default_rng(17)
        q, k, v = (tt(rng.normal(size=(5, 6))) for _ in range(3))
        w = tt(rng.normal(size=(5, 6)), grad=False)
        if operand == "q-is-k":
            theta, k = q, q
        else:
            theta = {"q": q, "k": k, "v": v}[operand]
        err = grad_check(lambda: T.tsum(T.multi_head_attention(q, k, v, 2) * w), theta, eps=1e-5)
        assert err < 1e-6

    def test_fully_masked_row_raises(self):
        # row 1 of head 0 scores inf * -1 + 1 * -1 = -inf against every key;
        # BLAS may still flag an invalid operation on the inf operand
        q = np.ones((3, 4))
        q[1, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="all -inf"):
            T.multi_head_attention(tt(q), tt(-np.ones((3, 4))), tt(np.ones((3, 4))), 2)

    @pytest.mark.parametrize("shapes,heads,message", [
        (((3, 4), (3, 4), (3, 4)), 3, "does not divide"),
        (((3, 4), (3, 4), (3, 4)), 0, "does not divide"),
        (((3, 4), (2, 4), (3, 4)), 2, "equal 2-D"),
        (((3, 4), (3, 4), (3, 2)), 2, "equal 2-D"),
    ])
    def test_bad_shapes_rejected(self, shapes, heads, message):
        q, k, v = (tt(np.zeros(s)) for s in shapes)
        with pytest.raises(ValueError, match=message):
            T.multi_head_attention(q, k, v, heads)


class TestLayerNorm:
    def test_constant_row(self):
        out = T.layer_norm(tt([1.0, 1.0]))
        assert np.allclose(out.data, [0.0, 0.0], atol=1e-12)

    def test_antisymmetric_row(self):
        for a in (0.5, 1.0, 17.0):
            out = T.layer_norm(tt([-a, a]))
            assert np.allclose(out.data, [-1.0, 1.0], atol=1e-2)

    def test_row_statistics(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 32)) * 3 + 1
        out = T.layer_norm(tt(x))
        assert np.max(np.abs(out.data.mean(axis=-1))) < 1e-9
        assert np.max(np.abs(out.data.var(axis=-1) - 1.0)) < 1e-4

    def test_width_one_rejected(self):
        with pytest.raises(ValueError):
            T.layer_norm(tt([[1.0]]))


def chain_attention_sublayer(x, gain, bias, query, key, value, out, heads):
    """The chain of ops that ``attention_sublayer`` replaces, kept as its
    oracle."""
    y = T.layer_norm(x, gain, bias)
    q, k, v = (y if pair is None else T.linear(y, *pair) for pair in (query, key, value))
    mixed = T.multi_head_attention(q, k, v, heads)
    return x + (mixed if out is None else T.linear(mixed, *out))


def chain_ffn_sublayer(x, gain, bias, hidden, out):
    """The chain of ops that ``ffn_sublayer`` replaces, kept as its oracle."""
    return x + T.linear(T.relu(T.linear(T.layer_norm(x, gain, bias), *hidden)), *out)


def _sublayer_params(rng, width, heads, exact_counts, dtype):
    """Arguments after x of both sublayers, as ``TransformerLayer`` passes
    them, with random values in every parameter."""
    def param(*shape):
        return typed(rng.normal(size=shape), dtype)

    def proj(n_in, n_out):
        return (param(n_in, n_out), None if exact_counts else param(n_out))

    def norm():
        return (None, None) if exact_counts else (param(width), param(width))

    if exact_counts:
        attention = (None, None, (param(width, width), None), None)
    else:
        attention = tuple(proj(width, width) for _ in range(4))
    return (*norm(), *attention, heads), (*norm(), proj(width, 4 * width), proj(4 * width, width))


def _leaves(args):
    return [a for arg in args for a in (arg if isinstance(arg, tuple) else (arg,))
            if isinstance(a, Tensor)]


class TestSublayers:
    @settings(max_examples=120, deadline=None)
    @given(t=st.integers(1, 40), heads=st.integers(1, 4), dk=st.integers(1, 6),
           exact_counts=st.booleans(), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_chain(self, t, heads, dk, exact_counts, dtype, seed):
        width = max(heads * dk, 2)  # layer norm needs 2 features

        def run(fused):
            rng = np.random.default_rng(seed)
            attn_args, ffn_args = _sublayer_params(rng, width, heads, exact_counts, dtype)
            x = typed(rng.normal(size=(t, width)) * rng.uniform(0.1, 4.0), dtype)
            attend = T.attention_sublayer if fused else chain_attention_sublayer
            ffn = T.ffn_sublayer if fused else chain_ffn_sublayer
            values = []
            # two passes, so that every gradient is also added to an earlier one
            for _ in range(2):
                h = attend(x, *attn_args)
                y = ffn(h, *ffn_args)
                T.tsum(y * typed(rng.normal(size=(t, width)), dtype, grad=False)).backward()
                with T.no_grad():
                    values += [h.data, y.data, ffn(attend(x, *attn_args), *ffn_args).data]
            return values + [p.grad for p in [x, *_leaves(attn_args), *_leaves(ffn_args)]]

        got, want = run(True), run(False)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(a, b)

    def test_one_node_per_sublayer(self):
        rng = np.random.default_rng(3)
        attn_args, ffn_args = _sublayer_params(rng, 4, 2, False, np.float64)
        x = tt(rng.normal(size=(3, 4)))
        h = T.attention_sublayer(x, *attn_args)
        assert h._prev == (x, *_leaves(attn_args))
        assert T.ffn_sublayer(h, *ffn_args)._prev == (h, *_leaves(ffn_args))
        with T.no_grad():
            h = T.attention_sublayer(x, *attn_args)
        assert h._prev == () and h._backward is None


def loop_attention_forward(q, k, v, heads, saved):
    """The per-head loop that ``tensor._attention_forward`` replaced, kept
    as its bitwise oracle: each head copies its own column blocks, reduces
    with the array methods and copies its output into place."""
    t, width = q.shape
    dk = width // heads
    scale = T._attention_scale(dk, q.dtype)
    out = np.empty((t, width), dtype=np.result_type(q, v))
    e = np.empty((t, t), dtype=np.result_type(q, k))
    for h in range(heads):
        sl = slice(h * dk, (h + 1) * dk)
        qh, kt, vh = q[:, sl] * scale, k[:, sl].T.copy(), v[:, sl].copy()
        np.matmul(qh, kt, out=e)
        m = e.max(axis=-1, keepdims=True)
        if np.isneginf(m).any():
            raise ValueError("softmax over a fully masked (all -inf) slice")
        e -= m
        np.exp(e, out=e)
        s = e.sum(axis=-1, keepdims=True)
        oh = e @ vh
        oh /= s
        out[:, sl] = oh
        if saved is not None:
            saved.append((qh, kt, vh, m, s))
    return out


class TestAttentionStacks:
    @settings(max_examples=120, deadline=None)
    @given(t=st.integers(1, 40), heads=st.integers(1, 4), dk=st.integers(1, 6),
           exact_counts=st.booleans(), dtype=st.sampled_from([np.float32, np.float64]),
           record=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_head_loop(self, t, heads, dk, exact_counts, dtype, record, seed):
        width = max(heads * dk, 2)  # layer norm needs 2 features

        def run(forward):
            rng = np.random.default_rng(seed)
            attn_args, _ = _sublayer_params(rng, width, heads, exact_counts, dtype)
            x, q, k, v = (typed(rng.normal(size=(t, width)) * rng.uniform(0.1, 4.0), dtype)
                          for _ in range(4))
            weight = typed(rng.normal(size=(t, width)), dtype, grad=False)
            saved = [] if record else None
            values = [forward(q.data, k.data, v.data, heads, saved)]
            values += [a for head in saved or [] for a in head]  # qh, kt, vh, m, s
            with pytest.MonkeyPatch.context() as mp, \
                    (contextlib.nullcontext() if record else T.no_grad()):
                mp.setattr(T, "_attention_forward", forward)
                for y in (T.multi_head_attention(q, k, v, heads), T.attention_sublayer(x, *attn_args)):
                    values.append(y.data)
                    if record:
                        T.tsum(y * weight).backward()
            if record:
                values += [p.grad for p in [q, k, v, x, *_leaves(attn_args)]]
            return values

        got, want = run(T._attention_forward), run(loop_attention_forward)
        # three outputs; recorded: five saved arrays per head, then the
        # gradients of q, k, v, x and the sublayer's 1 or 10 parameters
        assert len(got) == len(want) == 3 + record * (5 * heads + 4 + (1 if exact_counts else 10))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("forward", [T._attention_forward, loop_attention_forward])
    @pytest.mark.parametrize("t, width, heads", [(1, 1, 1), (3, 4, 2), (19, 64, 4), (40, 8, 4)])
    def test_fully_masked_row_raises_before_it_is_shifted(self, forward, t, width, heads):
        # row t // 2 of every head scores -inf * 1 against every key
        q, k, v = np.ones((t, width)), np.ones((t, width)), np.ones((t, width))
        q[t // 2] = -np.inf
        with warnings.catch_warnings(record=True) as caught, pytest.raises(ValueError, match="all -inf"):
            warnings.simplefilter("always")
            forward(q, k, v, heads, [])
        # BLAS may flag an invalid operation on the inf operand; no later call may warn
        assert all(str(w.message).endswith("in matmul") for w in caught), [str(w.message) for w in caught]


def _guard_cases():
    """(name, elementary op call, fused node call, message) for each check
    of the ops that the sublayer nodes share."""
    rng = np.random.default_rng(0)

    def z(*shape):
        return tt(np.zeros(shape))

    attn_args, ffn_args = _sublayer_params(rng, 4, 2, False, np.float64)
    exact_args, _ = _sublayer_params(rng, 4, 2, True, np.float64)
    bad_query = (z(4, 2), None)
    bad_rows = (z(3, 4), z(4))
    gain, bias, query, key, value, out, heads = attn_args
    ln_gain, ln_bias, hidden, ffn_out = ffn_args
    # queries inf * 1 and keys -1 * 1 score -inf against every key
    inf_query = (z(4, 4), tt([np.inf, 0.0, 0.0, 0.0]))
    neg_key = (z(4, 4), tt([-1.0, 0.0, 0.0, 0.0]))
    x = tt(rng.normal(size=(3, 4)))
    return [
        ("linear-1d", lambda: T.linear(z(4), z(4, 4)),
         lambda: T.ffn_sublayer(tt(rng.normal(size=4)), *ffn_args), "2-D operands"),
        ("linear-1d-exact", lambda: T.matmul(z(3, 4), z(4)),
         lambda: T.attention_sublayer(tt(rng.normal(size=4)), *exact_args), "2-D operands"),
        ("linear-rows", lambda: T.linear(z(3, 4), z(3, 4)),
         lambda: T.ffn_sublayer(x, ln_gain, ln_bias, bad_rows, ffn_out), r"mismatch: \(3, 4\) @ \(3, 4\)"),
        ("layer-norm-width", lambda: T.layer_norm(z(3, 1)),
         lambda: T.attention_sublayer(z(3, 1), *exact_args), "at least 2 features"),
        ("attention-shapes", lambda: T.multi_head_attention(z(3, 2), z(3, 4), z(3, 4), 2),
         lambda: T.attention_sublayer(x, gain, bias, bad_query, key, value, out, heads), "equal 2-D"),
        ("attention-heads", lambda: T.multi_head_attention(z(3, 4), z(3, 4), z(3, 4), 3),
         lambda: T.attention_sublayer(x, gain, bias, query, key, value, out, 3), "does not divide"),
        ("attention-masked", lambda: T.multi_head_attention(tt(np.full((3, 4), np.inf)), tt(-np.ones((3, 4))), z(3, 4), 1),
         lambda: T.attention_sublayer(x, gain, bias, inf_query, neg_key, value, out, 1), "all -inf"),
    ]


@pytest.mark.parametrize("path", ["op", "sublayer"])
@pytest.mark.parametrize("name,op,fused,message", _guard_cases(), ids=[c[0] for c in _guard_cases()])
def test_shared_guards(name, op, fused, message, path):
    # BLAS may flag an invalid operation on the inf operands of the masked case
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
        (op if path == "op" else fused)()


class TestDropout:
    def test_p_zero_is_identity(self):
        x = tt([[1.0, 2.0]])
        assert T.dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_eval_mode_is_identity(self):
        x = tt([[1.0, 2.0]])
        assert T.dropout(x, 0.9, training=False) is x

    def test_inverted_scaling(self):
        rng = np.random.default_rng(9)
        x = tt(np.ones((400, 50)))
        out = T.dropout(x, 0.33, training=True, rng=rng)
        kept = out.data[out.data != 0]
        assert np.allclose(kept, 1.0 / 0.67)
        assert abs(out.data.mean() - 1.0) < 0.02


class TestCrossEntropy:
    def test_uniform_logits(self):
        out = T.cross_entropy_from_logits(tt(np.zeros((4, 5))), [0, 1, 2, 3])
        assert abs(out.item() - math.log(5)) < 1e-12

    def test_saturated_logits(self):
        x = np.full((3, 4), -1e9)
        x[np.arange(3), [1, 2, 0]] = 0.0
        out = T.cross_entropy_from_logits(tt(x), [1, 2, 0])
        assert out.item() < 1e-12

    def test_single_class_is_zero(self):
        out = T.cross_entropy_from_logits(tt(np.zeros((3, 1))), [0, 0, 0])
        assert out.item() == 0.0

    @pytest.mark.parametrize("shape, targets, message", [
        ((4,), [0], r"cross_entropy expects 2-D logits, got \(4,\)"),
        ((3, 4), [0, 1], r"targets shape \(2,\) does not match 3 rows"),
        ((3, 4), [[0, 1, 2]], r"targets shape \(1, 3\) does not match 3 rows"),
        ((3, 4), [0, 4, 1], "target class out of range"),
        ((3, 4), [0, -1, 1], "target class out of range"),
    ])
    def test_bad_shapes_and_classes_rejected(self, shape, targets, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            T.cross_entropy_from_logits(tt(np.zeros(shape)), targets)


class TestStraightThrough:
    def test_forward_bitwise(self):
        rng = np.random.default_rng(10)
        hard = tt(rng.normal(size=(2, 3)))
        soft = tt(rng.normal(size=(2, 3)))
        out = T.straight_through(hard, soft)
        assert np.array_equal(out.data, hard.data)

    def test_gradient_routes_to_surrogate_only(self):
        hard = tt([1.0, 2.0])
        soft = tt([3.0, 4.0])
        loss = T.tsum(T.straight_through(hard, soft) * tt([5.0, 7.0], grad=False))
        loss.backward()
        assert hard.grad is None
        assert soft.grad.tolist() == [5.0, 7.0]


class TestIndexOps:
    def test_argsort_descending_ties_keep_ascending_index(self):
        order = T.argsort_descending(np.array([1.0, 3.0, 3.0, 0.5]))
        assert order.tolist() == [1, 2, 0, 3]

    def test_argsort_descending_sorts_each_row(self):
        order = T.argsort_descending(np.array([[1.0, 3.0, 3.0, 0.5], [2.0, -np.inf, 2.0, 4.0]]))
        assert order.tolist() == [[1, 2, 0, 3], [3, 0, 2, 1]]

    def test_gather_then_scatter_roundtrip(self):
        rng = np.random.default_rng(11)
        base = tt(rng.normal(size=(6, 3)))
        rows = T.embedding_gather(base, [4, 1])
        out = T.row_scatter(base, [4, 1], rows)
        assert np.array_equal(out.data, base.data)

    def test_gather_out_of_range(self):
        with pytest.raises(ValueError):
            T.embedding_gather(tt(np.zeros((3, 2))), [3])

    def test_scatter_duplicate_rejected(self):
        with pytest.raises(ValueError):
            T.row_scatter(tt(np.zeros((3, 2))), [1, 1], tt(np.zeros((2, 2))))


class TestGradientBookkeeping:
    def test_first_gradient_is_an_owned_copy(self):
        x = tt(np.zeros(3))
        x.data = x.data.astype(np.float32)
        g = np.ones(3)
        T._accum(x, g)
        g[0] = 5.0
        assert x.grad.dtype == np.float32
        assert x.grad.tolist() == [1.0, 1.0, 1.0]
        T._accum(x, g)
        assert x.grad.tolist() == [6.0, 2.0, 2.0]

    def test_size_one_axis_gradient_sums_over_that_axis(self):
        rng = np.random.default_rng(0)
        x, row, col = tt(rng.normal(size=(4, 3))), tt(rng.normal(size=(1, 3))), tt(rng.normal(size=(4, 1)))
        T.tsum((x + row) * col).backward()
        assert row.grad.shape == (1, 3) and col.grad.shape == (4, 1)
        assert np.allclose(row.grad, col.data.sum() * np.ones((1, 3)))
        assert np.allclose(col.grad, (x.data + row.data).sum(axis=1, keepdims=True))

    def test_dropped_graph_freed_without_cycle_collector(self):
        x = tt(np.ones(3))
        gc.disable()
        try:
            y = T.softmax(x * x)
            probe = weakref.ref(y.data)
            z = T.tsum(y * y)
            z.backward()
            del y, z
            assert probe() is None
        finally:
            gc.enable()

    def test_no_grad_records_no_graph(self):
        x = tt(np.array([0.5, -1.0, 2.0]))
        with T.no_grad():
            y = T.softmax(x * x)
        assert not y.requires_grad and y._prev == () and y._backward is None
        assert np.array_equal(y.data, T.softmax(x * x).data)
        assert T.softmax(x * x).requires_grad  # recording resumes after the block

    def test_no_grad_restores_recording_after_an_error(self):
        x = tt(np.ones(2))
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError
        assert (x * x).requires_grad

    def test_no_grad_is_per_thread(self):
        # parsing threads enter and leave no_grad() in any interleaving;
        # none may switch recording off for another thread, or leave it off
        x = tt(np.ones(2))
        errors = []
        start = threading.Barrier(4)

        def work():
            start.wait(10)
            for _ in range(2000):
                with T.no_grad():
                    if (x * x).requires_grad:
                        errors.append("recorded inside no_grad")
                if not (x * x).requires_grad:
                    errors.append("not recording outside no_grad")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        assert (x * x).requires_grad

    def test_gradient_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="gradient shape"):
            T._accum(tt(np.zeros(3)), np.zeros((1, 3)))


def _random_tree_sentence(rng: np.random.Generator, n: int, vocab: Vocab) -> Sentence:
    """n words with a random single-root tree: each word attaches to one
    attached before it, in a random order."""
    order = rng.permutation(np.arange(1, n + 1))
    heads = [0] * (n + 1)
    for pos, tok in enumerate(order[1:], start=1):
        heads[tok] = int(order[rng.integers(pos)])
    labels = sorted(vocab.label_to_id)
    return Sentence([Token(form=str(rng.choice(sorted(vocab.form_to_id))),
                           upos=str(rng.choice(sorted(vocab.upos_to_id))),
                           gold_head=heads[i],
                           gold_label="root" if heads[i] == 0 else labels[1 + int(rng.integers(len(labels) - 1))])
                     for i in range(1, n + 1)])


class TestBackwardConsumesGraph:
    def test_second_backward_raises(self):
        x = tt([1.0, 2.0])
        loss = T.tsum(x * x)
        loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        assert x.grad.tolist() == [2.0, 4.0]

    def test_new_loss_over_a_consumed_node_raises_before_any_gradient(self):
        x, w = tt([1.0, 2.0]), tt([3.0, 5.0])
        y = x * x
        T.tsum(y).backward()
        loss = T.tsum(y * w)
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        assert w.grad is None and x.grad.tolist() == [2.0, 4.0]

    def test_held_interior_tensor_keeps_its_gradient(self):
        x = tt([0.5, -1.0, 2.0])
        y = x * x
        loss = T.tsum(y * y)
        loss.backward()
        assert y.grad.tolist() == [0.5, 2.0, 8.0]  # 2 y
        assert x.grad.tolist() == [0.5, -4.0, 32.0]  # 4 x^3
        assert loss.grad.tolist() == 1.0
        assert y._prev == () and loss._prev == ()

    def test_unheld_intermediate_freed_before_backward_returns(self):
        x = tt(np.ones(3))
        gc.disable()
        try:
            y = T.softmax(x * x)
            probe = weakref.ref(y.data)
            loss = T.tsum(y * y)
            del y
            loss.backward()
            assert probe() is None
            assert loss.item() == pytest.approx(1 / 3)
        finally:
            gc.enable()

    def test_arcloc_training_step_holds_only_parameter_gradients(self):
        # the benchmark's arcloc shape at its median sentence length; before
        # backward consumed its graph, the step peaked at 1.8x the forward
        # pass's live memory and then held 8x the parameter gradients (the
        # whole graph, until the loss was dropped). Since attention rebuilds
        # its scores in backward, the forward pass holds no t x t array and
        # backward's two t x t scratch arrays add to the peak on their own.
        n = 18
        model, sentence, vocab = _bench_arcloc_step(n)
        forward, held, peak = _traced_step(model, sentence, vocab)
        grads = sum(p.grad.nbytes for p in model.parameters() if p.grad is not None)
        t = n * min(model.cfg.k, n)
        assert peak <= 1.25 * forward + 2 * t * t * 8
        assert grads <= held <= 1.05 * grads

    def test_arcloc_training_step_at_longest_bench_sentence(self):
        # n = 58, the benchmark's longest sentence: when attention kept its
        # scores, the graph held four 580 x 580 arrays and the step peaked
        # at 26.1 MB; rebuilding them in backward leaves 13.3 MB
        n = 58
        model, sentence, vocab = _bench_arcloc_step(n)
        t = n * model.cfg.k
        model.train()
        loss = sentence_loss(model, sentence, vocab)
        assert [a.shape for a in _graph_arrays(loss) if a.size >= t * t] == []
        del loss
        _, _, peak = _traced_step(model, sentence, vocab)
        assert peak <= 16e6

    def test_graph_nodes_per_training_sentence(self):
        # one node per transformer sublayer: the chain of ops they replace
        # made 138 nodes on this sentence
        model, sentence, vocab = _bench_arcloc_step(18)
        model.train()
        loss = sentence_loss(model, sentence, vocab)
        seen, stack = {id(loss)}, [loss]
        while stack:
            for p in stack.pop()._prev:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        assert len(seen) == 108


def _bench_arcloc_step(n: int):
    """The benchmark's arcloc model (seed 6) and a random n-word sentence."""
    vocab = Vocab(form_to_id={f"w{i}": i + 2 for i in range(50)},
                  upos_to_id={u: i + 2 for i, u in enumerate(("NOUN", "VERB", "ADJ", "DET"))},
                  label_to_id={lab: i for i, lab in enumerate(("root", "nsubj", "obj", "amod"))})
    cfg = ModelConfig(kind="arcloc", n_labels=vocab.n_labels, emb_dim=64, context_layers=1,
                      d=32, r=32, k=10, layers=2)
    sentence = _random_tree_sentence(np.random.default_rng(n), n, vocab)
    return build_model(cfg, vocab, seed=6), sentence, vocab


def _traced_step(model, sentence, vocab) -> tuple[int, int, int]:
    """Traced bytes of one training step: live after the forward pass,
    held after backward, and the peak, each above the memory before it."""
    model.train()
    for _ in range(2):  # the first step fills the position-table cache
        model.zero_grad()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = sentence_loss(model, sentence, vocab)
            forward = tracemalloc.get_traced_memory()[0] - base
            loss.backward()
            held, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        del loss
    return forward, held, peak


def _graph_arrays(root: Tensor) -> list[np.ndarray]:
    """The values of the nodes that backward from ``root`` would visit, and
    every array (or base of a view) their closures keep, also inside lists
    and tuples."""
    arrays, seen, stack = [], {id(root)}, [root]
    while stack:
        node = stack.pop()
        objs = [node.data] + [c.cell_contents for c in getattr(node._backward, "__closure__", None) or ()]
        while objs:
            obj = objs.pop()
            if isinstance(obj, np.ndarray):
                arrays.append(obj if obj.base is None else obj.base)
            elif isinstance(obj, (list, tuple)):
                objs.extend(obj)
        for p in node._prev:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return arrays


class TestGradCheckHarness:
    def test_quadratic(self):
        x = tt([3.0])
        err = grad_check(lambda: T.tsum(x * x), x, eps=1e-5)
        assert err < 1e-8

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(12)
        logits = tt(rng.normal(size=(5, 7)))
        targets = rng.integers(0, 7, size=5)
        err = grad_check(lambda: T.cross_entropy_from_logits(logits, targets), logits, eps=1e-5)
        assert err < 1e-6

    def test_kink_skipped_and_reported(self):
        # relu's input at coordinate 0 lies within eps of 0: its central
        # difference is 2/3, its autodiff gradient 1
        x = tt([1e-5 / 3, 1.0])
        kinks = []
        assert grad_check(lambda: T.tsum(T.relu(x)), x, eps=1e-5, kinks=kinks) < 1e-8
        assert kinks == [0]

    def test_curvature_is_not_a_kink(self):
        x = tt([0.5, -2.0])
        kinks = []
        assert grad_check(lambda: T.tsum(x * x * x), x, eps=1e-5, kinks=kinks) < 1e-8
        assert kinks == []

    def test_nonfinite_rejected(self):
        x = tt([1.0])

        def f():
            out = Tensor(np.array(np.inf))
            out.requires_grad = True
            return out

        with pytest.raises(ValueError):
            grad_check(f, x)

    def test_eps_range_enforced(self):
        x = tt([1.0])
        with pytest.raises(ValueError):
            grad_check(lambda: T.tsum(x * x), x, eps=1e-2)


def _gradcheck_cases():
    """One scalar-valued builder per differentiable op, over random shapes."""
    rng = np.random.default_rng(13)

    def rand(*shape):
        return tt(rng.normal(size=shape))

    cases = []
    for i in range(4):
        m, k, n = rng.integers(2, 6, size=3)
        a, b = rand(m, k), rand(k, n)
        cases.append((f"matmul/{i}", a, lambda a=a, b=b: T.tsum(T.matmul(a, b) * T.matmul(a, b))))
        cases.append((f"matmul-rhs/{i}", b, lambda a=a, b=b: T.tsum(T.matmul(a, b))))
    for i in range(2):
        p, d, r = 3, 3, 2
        H, w, M = rand(p, d), rand(d, r, d), rand(p, d)
        cases.append((f"pairwise/{i}", w, lambda H=H, w=w, M=M: T.tsum(T.pairwise_bilinear(H, w, M) * T.pairwise_bilinear(H, w, M))))
        cases.append((f"paired/{i}", H, lambda H=H, w=w, M=M: T.tsum(T.paired_bilinear(H, w, M))))
    for i in range(4):
        x = rand(int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        cases.append((f"softmax/{i}", x, lambda x=x: T.tsum(T.softmax(x, axis=-1) * T.softmax(x, axis=-1))))
        cases.append((f"relu/{i}", x, lambda x=x: T.tsum(T.relu(x))))
        cases.append((f"sum-axis/{i}", x, lambda x=x: T.tsum(T.tsum(x, axis=0) * T.tsum(x, axis=0))))
    for i in range(3):
        x = rand(3, int(rng.integers(4, 9)))
        g, b = rand(x.data.shape[1]), rand(x.data.shape[1])
        cases.append((f"layernorm-x/{i}", x, lambda x=x, g=g, b=b: T.tsum(T.layer_norm(x, g, b) * T.layer_norm(x, g, b))))
        cases.append((f"layernorm-gain/{i}", g, lambda x=x, g=g, b=b: T.tsum(T.layer_norm(x, g, b))))
        cases.append((f"layernorm-bias/{i}", b, lambda x=x, g=g, b=b: T.tsum(T.layer_norm(x, g, b) * T.layer_norm(x, g, b))))
    for i in range(2):
        x = rand(4, 3)
        cases.append((f"add-broadcast/{i}", x, lambda x=x, b=rand(3): T.tsum((x + b) * (x + b))))
        cases.append((f"mul/{i}", x, lambda x=x, y=rand(4, 3): T.tsum(x * y * x)))
        cases.append((f"neg/{i}", x, lambda x=x: T.tsum(-x * x)))
        cases.append((f"transpose/{i}", x, lambda x=x: T.tsum(T.matmul(x.T, x))))
        cases.append((f"reshape/{i}", x, lambda x=x: T.tsum(x.reshape(2, 6) * x.reshape(2, 6))))
        cases.append((f"narrow/{i}", x, lambda x=x: T.tsum(T.narrow(x, 0, 1, 2) * T.narrow(x, 0, 1, 2))))
        cases.append((f"concat/{i}", x, lambda x=x, y=rand(2, 3): T.tsum(T.concat([x, y], axis=0) * T.concat([x, y], axis=0))))
    table = rand(6, 3)
    cases.append(("gather", table, lambda t=table: T.tsum(T.embedding_gather(t, [0, 2, 2, 5]) * T.embedding_gather(t, [0, 2, 2, 5]))))
    base, rows = rand(5, 3), rand(2, 3)
    cases.append(("scatter-base", base, lambda b=base, r=rows: T.tsum(T.row_scatter(b, [1, 3], r) * T.row_scatter(b, [1, 3], r))))
    cases.append(("scatter-rows", rows, lambda b=base, r=rows: T.tsum(T.row_scatter(b, [1, 3], r) * T.row_scatter(b, [1, 3], r))))
    logits = rand(4, 5)
    cases.append(("cross-entropy", logits, lambda l=logits: T.cross_entropy_from_logits(l, [1, 0, 4, 2])))
    x = rand(3, 4)
    mask = (np.random.default_rng(14).random((3, 4)) >= 0.4) / 0.6
    cases.append(("dropout-fixed-mask", x, lambda x=x, m=tt(mask, grad=False): T.tsum(x * m * x)))
    # rectangular shapes (p != q, a != b), every operand checked
    H, w, M = rand(4, 3), rand(3, 2, 5), rand(6, 5)
    for name, theta in (("H", H), ("t", w), ("M", M)):
        cases.append((f"pairwise-rect-{name}", theta, lambda H=H, w=w, M=M: T.tsum(T.pairwise_bilinear(H, w, M) * T.pairwise_bilinear(H, w, M))))
    H, w, M = rand(4, 3), rand(3, 2, 5), rand(4, 5)
    for name, theta in (("H", H), ("t", w), ("M", M)):
        cases.append((f"paired-rect-{name}", theta, lambda H=H, w=w, M=M: T.tsum(T.paired_bilinear(H, w, M) * T.paired_bilinear(H, w, M))))
    P, V = rand(3, 4), rand(16, 2)
    for name, theta in (("probs", P), ("v", V)):
        cases.append((f"arc-expectation-{name}", theta, lambda P=P, V=V: T.tsum(T.arc_expectation(P, V) * T.arc_expectation(P, V))))
    return cases


@pytest.mark.parametrize("name,theta,f", _gradcheck_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_gradcheck_every_op(name, theta, f):
    assert grad_check(f, theta, eps=1e-5) < 1e-6


def _op_family_case(op, rng):
    """One random (theta, objective) pair for the named op family."""
    def rand(*shape):
        return tt(rng.normal(size=shape))

    if op == "matmul":
        m, k, n = rng.integers(2, 7, size=3)
        a, b = rand(m, k), rand(k, n)
        return a, lambda: T.tsum(T.matmul(a, b) * T.matmul(a, b))
    if op == "pairwise_bilinear":
        p, q, d, r = (int(rng.integers(2, 5)) for _ in range(4))
        H, w, M = rand(p, d), rand(d, r, d), rand(q, d)
        theta = [H, w, M][int(rng.integers(3))]
        return theta, lambda: T.tsum(T.pairwise_bilinear(H, w, M) * T.pairwise_bilinear(H, w, M))
    if op == "paired_bilinear":
        t, d, c = (int(rng.integers(2, 5)) for _ in range(3))
        H, w, M = rand(t, d), rand(d, c, d), rand(t, d)
        theta = [H, w, M][int(rng.integers(3))]
        return theta, lambda: T.tsum(T.paired_bilinear(H, w, M) * T.paired_bilinear(H, w, M))
    if op == "softmax":
        x = rand(int(rng.integers(2, 6)), int(rng.integers(2, 7)))
        return x, lambda: T.tsum(T.softmax(x, axis=-1) * T.softmax(x, axis=-1))
    if op == "relu":
        x = rand(int(rng.integers(2, 6)), int(rng.integers(2, 7)))
        return x, lambda: T.tsum(T.relu(x) * T.relu(x))
    if op == "layer_norm":
        x = rand(int(rng.integers(2, 5)), int(rng.integers(3, 9)))
        g, b = rand(x.data.shape[1]), rand(x.data.shape[1])
        theta = [x, g, b][int(rng.integers(3))]
        return theta, lambda: T.tsum(T.layer_norm(x, g, b) * T.layer_norm(x, g, b))
    if op == "cross_entropy":
        t, c = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        logits = rand(t, c)
        targets = rng.integers(0, c, size=t)
        return logits, lambda: T.cross_entropy_from_logits(logits, targets)
    if op == "gather_scatter":
        base, rows = rand(int(rng.integers(4, 8)), 3), rand(2, 3)
        ids = rng.choice(base.data.shape[0], size=2, replace=False)
        theta = [base, rows][int(rng.integers(2))]
        return theta, lambda: T.tsum(T.row_scatter(base, ids, rows) * T.row_scatter(base, ids, rows))
    if op == "reductions":
        x = rand(int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        ax = int(rng.integers(2))
        return x, lambda: T.tsum(T.tsum(x, axis=ax) * T.tsum(x, axis=ax))
    if op == "elementwise":
        x, y = rand(3, 4), rand(3, 4)
        return x, lambda: T.tsum((x + y) * (-x) * y)
    raise ValueError(op)


OP_FAMILIES = [
    "matmul", "pairwise_bilinear", "paired_bilinear", "softmax",
    "relu", "layer_norm", "cross_entropy", "gather_scatter",
    "reductions", "elementwise",
]


@pytest.mark.parametrize("op", OP_FAMILIES)
def test_gradcheck_twenty_random_shapes(op):
    for seed in range(20):
        rng = np.random.default_rng(1000 + 37 * seed)
        theta, f = _op_family_case(op, rng)
        err = grad_check(f, theta, eps=1e-5, max_coords=8, rng=rng)
        assert err < 1e-6, f"{op} seed {seed}: {err}"
