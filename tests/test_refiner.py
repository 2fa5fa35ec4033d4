"""Filter, straight-through estimator, and transformer layer tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcforge import refiner
from arcforge.model import ModelConfig, build_model
from arcforge.nn import Linear
from arcforge.refiner import (
    FilterOutput,
    TransformerLayer,
    attention_entry_count,
    filter_topk,
    num_heads,
    refine,
    reset_attention_entry_count,
)
from arcforge.tensor import (
    Tensor,
    argsort_descending,
    concat,
    embedding_gather,
    grad_check,
    linear,
    narrow,
    no_grad,
    reshape,
    softmax,
    straight_through,
    transpose,
)
from chainops import layer_norm, multi_head_attention
from scalarloss import total


def tt(a, grad=True):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=grad)


class TestNumHeads:
    @pytest.mark.parametrize("r,expected", [(160, 10), (192, 12), (16, 1), (32, 2), (155, 5)])
    def test_divisor_rule(self, r, expected):
        assert num_heads(r) == expected

    def test_tie_prefers_larger_divisor(self):
        # r=24: target 1.5; divisors 1 and 2 tie at distance 0.5
        assert num_heads(24) == 2

    def test_result_divides(self):
        for r in range(2, 300, 7):
            assert r % num_heads(r) == 0


def make_filter_fixture(n=3, r=2, seed=0):
    """V0 grid whose first component is the filter logit (w_f = [1, 0])."""
    rng = np.random.default_rng(seed)
    big_n = n + 1
    v0 = rng.normal(size=(big_n * big_n, r))
    head = Linear(r, 1, rng, bias=True)
    head.weight.data[:] = 0.0
    head.weight.data[0, 0] = 1.0
    head.bias.data[:] = 0.0
    return tt(v0), head


def reference_filter_topk(v0_flat, filter_head, n, k, rng=None, gumbel_scale=0.0,
                          st_grad=True):
    """The per-modifier loop that filter_topk replaces, kept as its oracle."""
    big_n = n + 1
    logits_all = filter_head(v0_flat)
    kept_heads, kept_vecs, kept_flat = [], [], []
    logits_out = np.full((n, big_n), -np.inf)
    for j in range(1, big_n):
        valid = [i for i in range(big_n) if i != j]
        idx = [i * big_n + j for i in valid]
        lg = reshape(embedding_gather(logits_all, idx), (len(valid),))
        logits_out[j - 1, valid] = lg.data
        if gumbel_scale > 0.0:
            lg = lg + Tensor(rng.gumbel(size=len(valid)) * gumbel_scale)
        probs = softmax(lg)
        order = argsort_descending(lg.data)
        heads_j = [valid[o] for o in order[:min(k, len(valid))]]
        kept_heads.append(heads_j)
        expectation = None
        if st_grad:
            rows = embedding_gather(v0_flat, idx)
            expectation = linear(reshape(probs, (1, len(valid))), rows)
        for h in heads_j:
            hard = embedding_gather(v0_flat, [h * big_n + j])
            kept_vecs.append(straight_through(hard, expectation) if st_grad else hard)
            kept_flat.append(h * big_n + j)
    return FilterOutput(
        kept_heads=kept_heads, kept_flat_idx=np.asarray(kept_flat, dtype=np.intp),
        kept_vectors=concat(kept_vecs, axis=0), logits=Tensor(logits_out),
    )


def _filter_gradients(filter_fn, v0, head, w, **kwargs):
    v0.grad = None
    for p in head.parameters():
        p.grad = None
    out = filter_fn(v0, head, **kwargs)
    total(out.kept_vectors * w).backward()
    return out, [None if t.grad is None else t.grad.copy() for t in [v0] + head.parameters()]


def _assert_rel_close(got, ref, rtol):
    """Error relative to max(1, largest reference entry), as grad_check
    measures it: the filter-head bias gradient is a sum of softmax
    gradients that is zero up to rounding, so a per-entry ratio is noise."""
    assert (got is None) == (ref is None)
    if ref is not None:
        assert np.max(np.abs(got - ref)) <= rtol * max(1.0, float(np.max(np.abs(ref))))


@st.composite
def filter_cases(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.sampled_from([1, max(1, n - 1), n, n + 3]))
    ties = draw(st.booleans())
    return {
        "n": n, "k": k, "ties": ties,
        "gumbel_scale": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "st_grad": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


class TestFilterAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(filter_cases())
    def test_matches_per_modifier_loop(self, case):
        n, k, r = case["n"], case["k"], 3
        data_rng = np.random.default_rng(case["seed"])
        v0 = tt(data_rng.normal(size=((n + 1) ** 2, r)))
        if case["ties"]:
            # the fixture's logit is the first component: few distinct values
            v0.data[:, 0] = data_rng.integers(-1, 2, size=(n + 1) ** 2)
        head = Linear(r, 1, data_rng, bias=True)
        head.weight.data[:] = 0.0
        head.weight.data[0, 0] = 1.0
        w = tt(data_rng.normal(size=(n * min(k, n), r)), grad=False)
        kwargs = dict(n=n, k=k, st_grad=case["st_grad"], gumbel_scale=case["gumbel_scale"])
        got, got_grads = _filter_gradients(
            filter_topk, v0, head, w, rng=np.random.default_rng(case["seed"]), **kwargs)
        ref, ref_grads = _filter_gradients(
            reference_filter_topk, v0, head, w, rng=np.random.default_rng(case["seed"]), **kwargs)
        assert got.kept_heads == ref.kept_heads
        assert all(type(h) is int for heads in got.kept_heads for h in heads)
        assert got.kept_flat_idx.dtype == ref.kept_flat_idx.dtype
        assert np.array_equal(got.kept_flat_idx, ref.kept_flat_idx)
        assert np.array_equal(got.kept_vectors.data, ref.kept_vectors.data)
        assert np.array_equal(got.logits.data, ref.logits.data)  # noiseless, -inf at j
        for g_got, g_ref in zip(got_grads, ref_grads):
            _assert_rel_close(g_got, g_ref, 1e-10)


class TestFilterTopk:
    def test_hand_logits_order_and_bitwise_vectors(self):
        v0, head = make_filter_fixture(n=3, r=2)
        big_n = 4
        # modifier 1 candidates are heads 0, 2, 3: give them logits 2.0, 1.0, 0.5
        v0.data[0 * big_n + 1, 0] = 2.0
        v0.data[2 * big_n + 1, 0] = 1.0
        v0.data[3 * big_n + 1, 0] = 0.5
        out = filter_topk(v0, head, n=3, k=2)
        assert out.kept_heads[0] == [0, 2]
        for row, flat in enumerate(out.kept_flat_idx):
            assert np.array_equal(out.kept_vectors.data[row], v0.data[flat])

    def test_k_exceeding_valid_keeps_all(self):
        v0, head = make_filter_fixture(n=3)
        out = filter_topk(v0, head, n=3, k=10)
        for j, kept in enumerate(out.kept_heads, start=1):
            assert sorted(kept) == [i for i in range(4) if i != j]
        assert len(out.kept_flat_idx) == 9

    def test_kept_indices_distinct_and_valid(self):
        v0, head = make_filter_fixture(n=5, seed=3)
        out = filter_topk(v0, head, n=5, k=3)
        for j, kept in enumerate(out.kept_heads, start=1):
            assert len(set(kept)) == len(kept) == 3
            assert all(0 <= h <= 5 and h != j for h in kept)

    def test_eval_deterministic(self):
        v0, head = make_filter_fixture(n=4, seed=4)
        a = filter_topk(v0, head, n=4, k=2)
        b = filter_topk(v0, head, n=4, k=2)
        assert a.kept_heads == b.kept_heads
        assert np.array_equal(a.kept_vectors.data, b.kept_vectors.data)

    def test_train_noise_perturbs_selection(self):
        v0, head = make_filter_fixture(n=5, seed=5)
        rng = np.random.default_rng(0)
        base = filter_topk(v0, head, n=5, k=2)
        seen_diff = False
        for _ in range(20):
            noisy = filter_topk(v0, head, n=5, k=2, rng=rng, gumbel_scale=1.0)
            if noisy.kept_heads != base.kept_heads:
                seen_diff = True
                break
        assert seen_diff

    def test_train_without_noise_matches_eval(self):
        v0, head = make_filter_fixture(n=4, seed=6)
        train = filter_topk(v0, head, n=4, k=2, rng=np.random.default_rng(0), gumbel_scale=0.0)
        ev = filter_topk(v0, head, n=4, k=2)
        assert train.kept_heads == ev.kept_heads
        assert np.array_equal(train.kept_vectors.data, ev.kept_vectors.data)

    def test_straight_through_backward_matches_analytic_jacobian(self):
        n, r, k = 3, 4, 2
        rng = np.random.default_rng(7)
        big_n = n + 1
        v0 = tt(rng.normal(size=(big_n * big_n, r)))
        head = Linear(r, 1, rng, bias=True)
        out = filter_topk(v0, head, n=n, k=k,
                          rng=np.random.default_rng(0), gumbel_scale=0.0, st_grad=True)
        # isolate modifier j=2: its kept rows sit at offset k (modifier 1 kept k rows)
        v0.grad = None
        loss = total(narrow(out.kept_vectors, 0, k, k))
        loss.backward()
        got = v0.grad.copy()

        valid = [i for i in range(big_n) if i != 2]
        idx = [i * big_n + 2 for i in valid]
        rows = v0.data[idx]
        w = head.weight.data[:, 0]
        logits = rows @ w + head.bias.data[0]
        p = np.exp(logits - logits.max())
        p /= p.sum()
        expect_vec = p @ rows
        expected = np.zeros_like(v0.data)
        row_sums = rows.sum(axis=1)
        e_sum = expect_vec.sum()
        for a in range(len(valid)):
            expected[idx[a]] = k * p[a] + k * w * p[a] * (row_sums[a] - e_sum)
        denom = np.maximum(1.0, np.maximum(np.abs(got), np.abs(expected)))
        assert np.max(np.abs(got - expected) / denom) < 1e-6

    def test_no_softmax_without_straight_through(self, toy_corpus, toy_vocab, monkeypatch):
        # the straight-through expectation is the softmax's only reader
        def no_softmax(*args, **kwargs):
            raise AssertionError("softmax called")

        monkeypatch.setattr(refiner, "softmax", no_softmax)
        v0, head = make_filter_fixture(n=4, seed=9)
        assert len(filter_topk(v0, head, n=4, k=2, st_grad=False).kept_heads) == 4
        with pytest.raises(AssertionError, match="softmax called"):
            filter_topk(v0, head, n=4, k=2, st_grad=True)
        cfg = ModelConfig(kind="arcloc", n_labels=toy_vocab.n_labels, emb_dim=16,
                          context_layers=0, d=8, r=8, layers=1, k=2)
        model = build_model(cfg, toy_vocab, seed=0)
        model.eval()
        sentence = toy_corpus[1][0]
        res = model.predict(sentence, toy_vocab, decoder="mst")
        assert len(res.heads) == len(res.kept_heads) == len(sentence)

    def test_plain_gather_mode_routes_gradient_to_selected_rows(self):
        v0, head = make_filter_fixture(n=3, seed=8)
        out = filter_topk(v0, head, n=3, k=1, st_grad=False)
        v0.grad = None
        total(out.kept_vectors).backward()
        nonzero_rows = {int(i) for i in np.nonzero(v0.grad.sum(axis=1))[0]}
        assert nonzero_rows == set(out.kept_flat_idx.tolist())


class TestTransformerLayer:
    def test_exact_counts_param_count_r2(self):
        layer = TransformerLayer(2, 1, np.random.default_rng(0), exact_counts=True)
        assert sum(p.data.size for p in layer.parameters()) == 36  # 9 r^2

    def test_exact_counts_param_count_various(self):
        for r, heads in ((4, 1), (16, 1), (32, 2)):
            layer = TransformerLayer(r, heads, np.random.default_rng(0), exact_counts=True)
            assert sum(p.data.size for p in layer.parameters()) == 9 * r * r

    def test_standard_param_count_various(self):
        # affine-free layer norms and no key or value bias: the projections
        # (4 r^2 + 2r) and the FFN (8 r^2 + 5r)
        for r, heads in ((2, 1), (4, 1), (16, 1), (32, 2)):
            layer = TransformerLayer(r, heads, np.random.default_rng(0))
            assert sum(p.data.size for p in layer.parameters()) == 12 * r * r + 7 * r

    def test_heads_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            TransformerLayer(6, 4, np.random.default_rng(0))

    def test_zero_weights_identity_through_residual(self):
        rng = np.random.default_rng(1)
        layer = TransformerLayer(4, 1, rng, exact_counts=True)
        layer.w_value.data[:] = 0.0
        layer.ffn_in.weight.data[:] = 0.0
        layer.ffn_out.weight.data[:] = 0.0
        x = tt(rng.normal(size=(5, 4)))
        assert np.array_equal(layer(x).data, x.data)

    def test_single_row_attention_weight_is_one(self):
        # with one position the softmax is 1, so attention adds exactly
        # the (normed) row's value projection
        rng = np.random.default_rng(2)
        layer = TransformerLayer(4, 2, rng, exact_counts=True)
        x = rng.normal(size=(1, 4))
        out = layer(tt(x)).data

        def ln(v):
            mu, var = v.mean(), v.var()
            return (v - mu) / np.sqrt(var + 1e-5)

        after_attn = x + ln(x) @ layer.w_value.data
        hidden = np.maximum(ln(after_attn[0]) @ layer.ffn_in.weight.data, 0.0)
        expected = after_attn + hidden @ layer.ffn_out.weight.data
        assert np.allclose(out, expected, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        for exact_counts in (False, True):
            layer = TransformerLayer(8, 2, rng, exact_counts=exact_counts)
            layer.eval()
            x = rng.normal(size=(7, 8))
            perm = rng.permutation(7)
            a = layer(tt(x)).data[perm]
            b = layer(tt(x[perm])).data
            assert np.allclose(a, b, atol=1e-10)

    def test_attention_entry_counter(self):
        rng = np.random.default_rng(4)
        layer = TransformerLayer(16, 1, rng, exact_counts=True)
        reset_attention_entry_count()
        layer(tt(rng.normal(size=(200, 16))))
        assert attention_entry_count() == 200 * 200

    def test_counter_scales_with_heads(self):
        rng = np.random.default_rng(5)
        layer = TransformerLayer(16, 4, rng)
        reset_attention_entry_count()
        layer(tt(rng.normal(size=(10, 16))))
        assert attention_entry_count() == 4 * 10 * 10


def reference_attention(q, k, v, heads):
    """The per-head composition that multi_head_attention replaces, kept as
    its oracle."""
    dk = q.data.shape[1] // heads
    outs = []
    for h in range(heads):
        qh = narrow(q, 1, h * dk, dk)
        kh = narrow(k, 1, h * dk, dk)
        vh = narrow(v, 1, h * dk, dk)
        scores = linear(qh, transpose(kh)) * (1.0 / math.sqrt(dk))
        outs.append(linear(softmax(scores, axis=-1), vh))
    return concat(outs, axis=1) if len(outs) > 1 else outs[0]


def extended_attention(q, k, v, g, heads):
    """Attention's output and the gradients of q, k, v for upstream
    gradient g, evaluated in np.longdouble (80-bit on x86) from the
    textbook formulas: the accuracy yardstick for both float64 versions."""
    q, k, v, g = (np.asarray(a, dtype=np.longdouble) for a in (q, k, v, g))
    dk = q.shape[1] // heads
    scale = 1 / np.sqrt(np.longdouble(dk))
    out, gq, gk, gv = (np.empty_like(q) for _ in range(4))
    for h in range(heads):
        sl = slice(h * dk, (h + 1) * dk)
        scores = q[:, sl] @ k[:, sl].T * scale
        p = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        out[:, sl] = p @ v[:, sl]
        gv[:, sl] = p.T @ g[:, sl]
        gp = g[:, sl] @ v[:, sl].T
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        gq[:, sl] = gs @ k[:, sl] * scale
        gk[:, sl] = gs.T @ q[:, sl] * scale
    return out, gq, gk, gv


@st.composite
def attention_cases(draw):
    width = draw(st.sampled_from([2, 3, 4, 6, 8, 12, 16, 32]))
    return {
        "t": draw(st.integers(1, 64)),
        "width": width,
        "heads": draw(st.sampled_from([h for h in range(1, width + 1) if width % h == 0])),
        "q_is_k": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _attention_run(attend, case):
    """Output, no-grad output and gradients of a random objective, with
    q, k, v built from a shared input as TransformerLayer builds them, so
    the order in which their gradients reach that input is compared too."""
    rng = np.random.default_rng(case["seed"])
    t, width = case["t"], case["width"]
    x = tt(rng.normal(size=(t, width)) * rng.uniform(0.1, 4.0))
    ws = [tt(rng.normal(size=(width, width))) for _ in range(3)]
    y = layer_norm(x)
    if case["q_is_k"]:  # the exact_counts layer
        q = k = y
        v = linear(y, ws[0])
    else:
        q, k, v = (linear(y, w) for w in ws)
    out = attend(q, k, v, case["heads"])
    total(out * tt(rng.normal(size=(t, width)), grad=False)).backward()
    with no_grad():
        eval_out = attend(q, k, v, case["heads"])
    return [out.data, eval_out.data] + [a.grad for a in (q, k, v, x, *ws)]


# multi_head_attention normalizes after the value product, takes the row
# sums from that product, scales q, not the scores, and skips the row-max
# shift on heads whose scores are bounded by SHIFT_FREE_BOUND, so it
# rounds differently from reference_attention. The largest gap seen over
# 15000 drawn cases was 3.6e-14 of the scale below with the row-tiled
# kernel, and 4.4e-14 with the per-head loop before it (largest at width
# 32, one head, where scores reach the hundreds and their rounding moves
# the weights); the bound leaves a margin above it.
REFERENCE_GAP = 2e-13


def _scales(outputs, grads):
    """Each output on its largest entry; each gradient on the largest
    gradient entry of the case, because some exact gradients are zero or
    nearly so (t = 1, where the softmax is constant; width 2, where layer
    norm's output is; saturated scores) and there every version returns
    rounding noise of that size."""
    grad_scale = max((np.max(np.abs(g)) for g in grads if g is not None), default=0.0)
    return [np.max(np.abs(o)) for o in outputs] + [grad_scale] * len(grads)


class TestMultiHeadAttention:
    @settings(max_examples=150, deadline=None)
    @given(attention_cases())
    def test_matches_per_head_composition(self, case):
        got = _attention_run(multi_head_attention, case)
        ref = _attention_run(reference_attention, case)
        assert np.array_equal(got[0], got[1])  # no_grad() output equals the recorded one
        for a, b, scale in zip(got, ref, _scales(ref[:2], ref[2:])):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.max(np.abs(a - b)) <= REFERENCE_GAP * scale

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(2, 48), heads=st.sampled_from([1, 2, 4]), dk=st.sampled_from([1, 4, 16]),
           amplitude=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_as_accurate_as_per_head_composition(self, t, heads, dk, amplitude, seed):
        """Error against an extended-precision evaluation, on the scales of
        the exact arrays: at most 4x the reference's own error, or 1e-14 of
        the scale, whichever is larger."""
        rng = np.random.default_rng(seed)
        qkv = [rng.normal(size=(t, heads * dk)) * amplitude for _ in range(3)]
        g = rng.normal(size=(t, heads * dk))
        exact = extended_attention(*qkv, g, heads)
        scales = _scales(exact[:1], exact[1:])

        def errors(attend):
            q, k, v = (tt(a) for a in qkv)
            out = attend(q, k, v, heads)
            total(out * tt(g, grad=False)).backward()
            return [float(np.max(np.abs(a - e)) / scale)
                    for a, e, scale in zip((out.data, q.grad, k.grad, v.grad), exact, scales)]

        for err, ref_err in zip(errors(multi_head_attention), errors(reference_attention)):
            assert err <= max(4 * ref_err, 1e-14)

    def test_large_scores_stay_finite_and_gradcheck(self):
        # softmax inputs q_h . k_h / sqrt(dk) reach +-800, past where exp
        # overflows float64 (about 709); keys 0 and 1 nearly tie, so the
        # softmax splits its weight and q and k carry gradient
        rng = np.random.default_rng(21)
        t, heads = 6, 2
        k = rng.normal(size=(t, 4))
        k[1] = k[0] + 1e-3 * rng.normal(size=4)
        q = rng.normal(size=(t, 4))

        def largest_score(q, k):
            return max(np.max(np.abs(q[:, s] @ k[:, s].T)) for s in (slice(0, 2), slice(2, 4))) / math.sqrt(2)

        q *= 800 / largest_score(q, k)
        assert largest_score(q, k) == pytest.approx(800)
        q, k, v = tt(q), tt(k), tt(rng.normal(size=(t, 4)))
        w = tt(rng.normal(size=(t, 4)), grad=False)
        out = multi_head_attention(q, k, v, heads)
        total(out * w).backward()
        assert all(np.isfinite(a).all() for a in (out.data, q.grad, k.grad, v.grad))
        assert np.max(np.abs(q.grad)) > 0
        for theta in (q, k, v):
            err = grad_check(lambda: total(multi_head_attention(q, k, v, heads) * w), theta, eps=1e-5)
            assert err < 1e-6

    def test_no_grad_keeps_nothing_and_one_score_matrix(self):
        rng = np.random.default_rng(12)
        t, width, heads = 300, 32, 4
        q, k, v = (tt(rng.normal(size=(t, width))) for _ in range(3))

        def run(attend):
            tracemalloc.start()
            try:
                with no_grad():
                    out = attend(q, k, v, heads)
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        out, peak = run(multi_head_attention)
        ref, ref_peak = run(reference_attention)
        assert out._prev == () and out._backward is None and not out.requires_grad
        assert np.max(np.abs(out.data - ref.data)) <= REFERENCE_GAP * np.max(np.abs(ref.data))
        assert peak < ref_peak
        assert peak < t * t * 8  # less than one t x t float64 array: row tiles


class TestRefine:
    def test_zero_weight_layers_preserve_v0(self):
        rng = np.random.default_rng(7)
        v0, head = make_filter_fixture(n=3, r=4, seed=7)
        layer = TransformerLayer(4, 1, rng, exact_counts=True)
        layer.w_value.data[:] = 0.0
        layer.ffn_in.weight.data[:] = 0.0
        layer.ffn_out.weight.data[:] = 0.0
        flt = filter_topk(v0, head, n=3, k=2)
        out = refine(v0, flt, [layer])
        assert np.array_equal(out.data, v0.data)

    def test_discarded_rows_copied_through(self):
        rng = np.random.default_rng(8)
        v0, head = make_filter_fixture(n=4, r=2, seed=8)
        layer = TransformerLayer(2, 1, rng)
        flt = filter_topk(v0, head, n=4, k=1)
        out = refine(v0, flt, [layer])
        for idx in np.setdiff1d(np.arange(len(v0.data)), flt.kept_flat_idx):
            assert np.array_equal(out.data[idx], v0.data[idx])
        for idx in flt.kept_flat_idx:
            assert not np.allclose(out.data[idx], v0.data[idx])

    def test_keep_all_matches_unfiltered_run(self):
        # with k >= n the filter is a permutation: refining the filtered
        # sequence must equal refining all valid arcs directly
        rng = np.random.default_rng(9)
        n, r = 4, 8
        v0, head = make_filter_fixture(n=n, r=r, seed=9)
        layer = TransformerLayer(r, 2, rng)
        layer.eval()
        flt = filter_topk(v0, head, n=n, k=n, st_grad=False)
        refined = refine(v0, flt, [layer])
        big_n = n + 1
        canonical = [i * big_n + j for j in range(1, big_n) for i in range(big_n) if i != j]
        from arcforge.tensor import embedding_gather

        direct = layer(embedding_gather(v0, canonical)).data
        for row, flat in enumerate(canonical):
            assert np.allclose(refined.data[flat], direct[row], atol=1e-10)
