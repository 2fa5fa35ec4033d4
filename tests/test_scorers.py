"""Biaffine baseline and arc-vector scorer tests."""

import numpy as np
import pytest

from arcforge.scorers import ArcScorer, LocScorer, candidates, head_logits
from arcforge.tensor import Tensor, softmax


def tt(a):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)


class TestHeadLogits:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_row_per_modifier_with_self_loop_at_minus_inf(self, n):
        grid = np.arange((n + 1.0) ** 2).reshape(n + 1, n + 1)
        out = head_logits(tt(grid), n).data
        assert out.shape == (n, n + 1)
        for j in range(1, n + 1):
            for i in range(n + 1):
                assert out[j - 1, i] == (-np.inf if i == j else grid[i, j])
        assert np.array_equal(candidates(n), np.isfinite(out))

    def test_keeps_float32(self):
        grid = Tensor(np.ones((4, 4), dtype=np.float32), requires_grad=True)
        assert head_logits(grid, 3).data.dtype == np.float32


class TestLocScorer:
    def test_scalar_biaffine(self):
        rng = np.random.default_rng(0)
        scorer = LocScorer(x=1, y=1, n_labels=2, rng=rng)
        scorer.arc_weight.data[:] = [[1.0]]
        s = scorer.arc_score_matrix(tt([[9.0], [2.0]]), tt([[9.0], [3.0]]))
        assert s.data[1, 1] == 2.0 * 3.0  # raw: the scorer scores the self-loop too
        assert s.data[0, 1] == pytest.approx(9.0 * 3.0)

    def test_identity_weight_gives_dot_products(self):
        rng = np.random.default_rng(1)
        scorer = LocScorer(x=4, y=2, n_labels=2, rng=rng)
        scorer.arc_weight.data[:] = np.eye(4)
        h = rng.normal(size=(4, 4))
        m = rng.normal(size=(4, 4))
        s = scorer.arc_score_matrix(tt(h), tt(m))
        for i in range(4):
            for j in range(1, 4):
                if i == j:
                    continue
                assert s.data[i, j] == pytest.approx(float(h[i] @ m[j]), abs=1e-12)

    def test_arc_scores_match_loop_oracle(self):
        rng = np.random.default_rng(2)
        scorer = LocScorer(x=3, y=2, n_labels=2, rng=rng)
        h = rng.normal(size=(5, 3))
        m = rng.normal(size=(5, 3))
        s = scorer.arc_score_matrix(tt(h), tt(m))
        w = scorer.arc_weight.data
        for i in range(5):
            for j in range(1, 5):
                if i == j:
                    continue
                ref = sum(h[i, a] * w[a, b] * m[j, b] for a in range(3) for b in range(3))
                assert abs(s.data[i, j] - ref) < 1e-12

    def test_label_logits_match_loop_oracle(self):
        rng = np.random.default_rng(3)
        scorer = LocScorer(x=2, y=3, n_labels=4, rng=rng)
        h = rng.normal(size=(2, 3))
        m = rng.normal(size=(2, 3))
        out = scorer.label_logits(tt(h), tt(m))
        w = scorer.label_weight.data
        for t in range(2):
            for c in range(4):
                ref = sum(h[t, a] * w[a, c, b] * m[t, b] for a in range(3) for b in range(3))
                assert abs(out.data[t, c] - ref) < 1e-12

    def test_zero_label_tensor_uniform_posterior(self):
        rng = np.random.default_rng(4)
        scorer = LocScorer(x=2, y=3, n_labels=5, rng=rng)
        scorer.label_weight.data[:] = 0.0
        logits = scorer.label_logits(tt(rng.normal(size=(2, 3))), tt(rng.normal(size=(2, 3))))
        post = softmax(logits, axis=-1)
        assert np.allclose(post.data, 0.2)

    def test_single_label_reduces_to_arc_shape(self):
        rng = np.random.default_rng(5)
        scorer = LocScorer(x=2, y=3, n_labels=1, rng=rng)
        out = scorer.label_logits(tt(rng.normal(size=(4, 3))), tt(rng.normal(size=(4, 3))))
        assert out.data.shape == (4, 1)

    def test_pipelines_share_no_parameters(self, toy_vocab):
        from arcforge.model import LocModel, ModelConfig

        model = LocModel(
            ModelConfig(kind="loc", n_labels=toy_vocab.n_labels, emb_dim=8,
                        context_layers=0, x=4, y=3, mlp_dropout=0.0),
            toy_vocab.n_forms, toy_vocab.n_upos, seed=0)
        model.eval()
        arc_names = {n for n, _ in model.named_parameters()
                     if "arc" in n and not n.startswith("encoder.")}
        label_names = {n for n, _ in model.named_parameters()
                       if "label" in n and not n.startswith("encoder.")}
        non_encoder = {n for n, _ in model.named_parameters() if not n.startswith("encoder.")}
        assert arc_names and label_names
        assert arc_names | label_names == non_encoder
        assert not arc_names & label_names

    def test_perturbing_one_pipeline_leaves_other_fixed(self, toy_corpus, toy_vocab):
        from arcforge.model import LocModel, ModelConfig

        model = LocModel(
            ModelConfig(kind="loc", n_labels=toy_vocab.n_labels, emb_dim=8,
                        context_layers=0, x=4, y=3, mlp_dropout=0.0),
            toy_vocab.n_forms, toy_vocab.n_upos, seed=0)
        model.eval()
        sent = toy_corpus[0][0]
        arcs = [(h, j) for j, h in enumerate(sent.gold_heads, 1)]
        before_s = model.forward_parse(sent, toy_vocab).scores.data.copy()
        model.scorer.label_weight.data += 0.5
        # label weights feed only the label logits; S must be unchanged
        assert np.array_equal(model.forward_parse(sent, toy_vocab).scores.data, before_s)
        before_l = model.forward_parse(sent, toy_vocab).label_logits_for(arcs).data.copy()
        model.scorer.arc_weight.data += 0.5
        after_l = model.forward_parse(sent, toy_vocab).label_logits_for(arcs).data
        # arc weights feed only S; label logits must be unchanged
        assert np.array_equal(after_l, before_l)

    def test_biaffine_bias_variant_adds_ones_column(self):
        rng = np.random.default_rng(6)
        scorer = LocScorer(x=2, y=2, n_labels=2, rng=rng, biaffine_bias=True)
        assert scorer.arc_weight.data.shape == (2, 3)
        assert scorer.label_weight.data.shape == (3, 2, 3)


class TestArcScorer:
    def test_hand_case_d1_r2(self):
        rng = np.random.default_rng(7)
        scorer = ArcScorer(d=1, r=2, n_labels=2, rng=rng)
        scorer.arc_tensor.data[:] = np.array([[[2.0], [5.0]]])  # (1, 2, 1)
        v = scorer.arc_vectors(tt([[3.0], [1.0]]), tt([[4.0], [7.0]]))
        # v[i,j,c] = h_i * T[0,c,0] * m_j
        assert v.data[0, 1].tolist() == [3.0 * 2.0 * 7.0, 3.0 * 5.0 * 7.0]
        assert v.data[1, 0].tolist() == [1.0 * 2.0 * 4.0, 1.0 * 5.0 * 4.0]

    def test_zero_tensor_gives_identical_scores(self):
        rng = np.random.default_rng(8)
        scorer = ArcScorer(d=3, r=4, n_labels=2, rng=rng)
        scorer.arc_tensor.data[:] = 0.0
        v = scorer.arc_vectors(tt(rng.normal(size=(4, 3))), tt(rng.normal(size=(4, 3))))
        assert np.array_equal(v.data, np.zeros((4, 4, 4)))
        scores = scorer.score_head(v.reshape((16, 4)))
        assert np.ptp(scores.data) == 0.0

    def test_arc_vectors_match_loop_oracle(self):
        rng = np.random.default_rng(9)
        scorer = ArcScorer(d=2, r=2, n_labels=2, rng=rng)
        h = rng.normal(size=(4, 2))
        m = rng.normal(size=(4, 2))
        v = scorer.arc_vectors(tt(h), tt(m))
        w = scorer.arc_tensor.data
        for i in range(4):
            for j in range(4):
                for c in range(2):
                    ref = sum(h[i, a] * w[a, c, b] * m[j, b] for a in range(2) for b in range(2))
                    assert abs(v.data[i, j, c] - ref) < 1e-12

    def test_score_head_zero_weights(self):
        rng = np.random.default_rng(10)
        scorer = ArcScorer(d=2, r=4, n_labels=2, rng=rng)
        scorer.score_hidden.weight.data[:] = 0.0
        scorer.score_hidden.bias.data[:] = 0.0
        scorer.score_out.weight.data[:] = 0.0
        out = scorer.score_head(tt(rng.normal(size=(5, 4))))
        assert np.array_equal(out.data, np.zeros((5, 1)))

    def test_score_head_param_count_r4(self):
        rng = np.random.default_rng(11)
        scorer = ArcScorer(d=2, r=4, n_labels=2, rng=rng, exact_counts=True)
        n = scorer.score_hidden.weight.data.size + scorer.score_out.weight.data.size
        assert n == 4 * 2 + 2  # r*r/2 + r/2 = 10

    def test_label_head_param_count(self):
        rng = np.random.default_rng(12)
        scorer = ArcScorer(d=2, r=2, n_labels=3, rng=rng, exact_counts=True)
        n = scorer.label_hidden.weight.data.size + scorer.label_out.weight.data.size
        assert n == 2 * 6 + 6 * 3  # r*2L + 2L*L = 30

    def test_final_layer_scaling_scales_scores(self):
        rng = np.random.default_rng(13)
        scorer = ArcScorer(d=2, r=4, n_labels=2, rng=rng, exact_counts=True)
        v = tt(rng.normal(size=(6, 4)))
        base = scorer.score_head(v).data.copy()
        scorer.score_out.weight.data *= 3.0
        assert np.allclose(scorer.score_head(v).data, 3.0 * base)

    def test_label_head_zero_weights_uniform(self):
        rng = np.random.default_rng(14)
        scorer = ArcScorer(d=2, r=4, n_labels=5, rng=rng)
        for lin in (scorer.label_hidden, scorer.label_out):
            lin.weight.data[:] = 0.0
            lin.bias.data[:] = 0.0
        logits = scorer.label_head(tt(rng.normal(size=(3, 4))))
        assert np.allclose(softmax(logits, axis=-1).data, 0.2)

    def test_single_label_always_that_label(self):
        rng = np.random.default_rng(15)
        scorer = ArcScorer(d=2, r=4, n_labels=1, rng=rng)
        logits = scorer.label_head(tt(rng.normal(size=(3, 4))))
        assert all(int(np.argmax(row)) == 0 for row in logits.data)

    def test_odd_r_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ArcScorer(d=2, r=3, n_labels=2, rng=np.random.default_rng(16))

    def test_score_and_label_share_the_arc_vector(self):
        rng = np.random.default_rng(17)
        scorer = ArcScorer(d=2, r=4, n_labels=3, rng=rng)
        v = rng.normal(size=(1, 4))
        s0 = scorer.score_head(tt(v)).data.copy()
        l0 = scorer.label_head(tt(v)).data.copy()
        v2 = v + 0.37
        s1 = scorer.score_head(tt(v2)).data
        l1 = scorer.label_head(tt(v2)).data
        assert not np.allclose(s0, s1)
        assert not np.allclose(l0, l1)

    def test_arcloc_has_single_biaffine_and_spec_pair(self, toy_vocab):
        from arcforge.model import ArcLocModel, ModelConfig

        model = ArcLocModel(
            ModelConfig(kind="arcloc", n_labels=toy_vocab.n_labels, emb_dim=8,
                        context_layers=0, d=4, r=4, mlp_dropout=0.0),
            toy_vocab.n_forms, toy_vocab.n_upos, seed=0)
        names = [n for n, _ in model.named_parameters()]
        biaffines = [n for n, p in model.named_parameters() if p.data.ndim == 3]
        assert biaffines == ["scorer.arc_tensor"]
        specs = {n.split(".")[0] for n in names if n.startswith("spec_")}
        assert specs == {"spec_head", "spec_mod"}


class TestFilterLogit:
    def test_zero_weights_tie_break_smallest_head(self, toy_vocab):
        from arcforge.model import ArcLocModel, ModelConfig

        model = ArcLocModel(
            ModelConfig(kind="arcloc", n_labels=toy_vocab.n_labels, emb_dim=8,
                        context_layers=0, d=4, r=4, layers=1, k=2, mlp_dropout=0.0),
            toy_vocab.n_forms, toy_vocab.n_upos, seed=0)
        model.eval()
        model.scorer.filter_head.weight.data[:] = 0.0
        sent_tokens = 4
        from arcforge.conllu import Sentence, Token

        sent = Sentence([Token("dog", "NOUN", 0 if i == 0 else 1, "root" if i == 0 else "det")
                         for i in range(sent_tokens)])
        fwd = model.forward_parse(sent, toy_vocab)
        for j, kept in enumerate(fwd.filter_output.kept_heads, start=1):
            expected = [i for i in range(sent_tokens + 1) if i != j][:2]
            assert kept == expected

    def test_eval_ranks_match_hand_sort(self):
        rng = np.random.default_rng(18)
        scorer = ArcScorer(d=2, r=4, n_labels=2, rng=rng, with_filter=True)
        rows = rng.normal(size=(5, 4))
        logits = scorer.filter_head(tt(rows)).data[:, 0]
        order = sorted(range(5), key=lambda i: (-logits[i], i))
        from arcforge.tensor import argsort_descending

        assert argsort_descending(logits).tolist() == order

    def test_no_filter_head_by_default(self):
        scorer = ArcScorer(d=2, r=4, n_labels=2, rng=np.random.default_rng(19))
        assert scorer.filter_head is None
