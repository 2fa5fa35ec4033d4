"""Tests for the autodiff engine: forward oracles and gradient checks."""

import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from arcforge import tensor as T
from arcforge.tensor import Tensor, grad_check


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
