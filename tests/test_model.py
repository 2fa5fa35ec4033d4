"""Model assembly, prediction, and checkpoint tests."""

import numpy as np
import pytest

from arcforge.decoders import cle, is_projective, is_single_root_tree, tree_score
from arcforge.model import (
    ArcLocModel,
    ModelConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from arcforge.training import sentence_loss


def arc_cfg(vocab, **kw):
    base = dict(kind="arcloc", n_labels=vocab.n_labels, emb_dim=32, context_layers=1,
                d=16, r=16, mlp_dropout=0.0, emb_dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


class TestModelConfig:
    def test_loc_requires_x_y(self):
        with pytest.raises(ValueError, match="loc requires"):
            ModelConfig(kind="loc", n_labels=2, emb_dim=8)

    def test_arcloc_requires_d_r(self):
        with pytest.raises(ValueError, match="arcloc requires"):
            ModelConfig(kind="arcloc", n_labels=2, emb_dim=8)

    def test_loc_rejects_refinement_layers(self):
        with pytest.raises(ValueError, match="arcloc model only"):
            ModelConfig(kind="loc", n_labels=2, emb_dim=8, x=4, y=4, layers=1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelConfig(kind="crf2o", n_labels=2, emb_dim=8)

    def test_odd_r_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ModelConfig(kind="arcloc", n_labels=2, emb_dim=8, d=4, r=5)


class TestPredict:
    def test_outputs_valid_tree_both_decoders(self, toy_corpus, toy_vocab):
        model = build_model(arc_cfg(toy_vocab, layers=1, k=3), toy_vocab, seed=2)
        model.eval()
        for decoder in ("eisner", "mst"):
            for sent in toy_corpus[0][:5]:
                res = model.predict(sent, toy_vocab, decoder=decoder)
                assert is_single_root_tree(res.heads)
                assert len(res.labels) == len(sent)
                if decoder == "eisner":
                    assert is_projective(res.heads)

    def test_unknown_decoder_rejected(self, toy_corpus, toy_vocab):
        model = build_model(arc_cfg(toy_vocab), toy_vocab, seed=2)
        with pytest.raises(ValueError, match="decoder"):
            model.predict(toy_corpus[0][0], toy_vocab, decoder="viterbi")

    def test_eval_prediction_deterministic_with_noise_config(self, toy_corpus, toy_vocab):
        # gumbel noise must be inert outside training mode
        model = build_model(arc_cfg(toy_vocab, layers=1, k=2, train_noise=True), toy_vocab, seed=3)
        model.eval()
        sent = toy_corpus[0][0]
        a = model.predict(sent, toy_vocab)
        b = model.predict(sent, toy_vocab)
        assert a.heads == b.heads and a.labels == b.labels
        assert a.kept_heads == b.kept_heads

    def test_predict_records_no_graph(self, toy_corpus, toy_vocab):
        model = build_model(arc_cfg(toy_vocab, layers=1, k=3), toy_vocab, seed=5)
        model.eval()
        seen = []
        forward = model.forward_parse
        model.forward_parse = lambda *args: seen.append(forward(*args)) or seen[-1]
        model.predict(toy_corpus[0][0], toy_vocab, decoder="mst")
        assert not seen[0].scores.requires_grad and seen[0].scores._prev == ()

    def test_predict_matches_recorded_forward_bitwise(self, toy_corpus, toy_vocab):
        # predict records no graph; its scores must still be the training forward's
        model = build_model(arc_cfg(toy_vocab, layers=2, k=3), toy_vocab, seed=5)
        model.eval()
        for sent in toy_corpus[0][:5]:
            res = model.predict(sent, toy_vocab, decoder="mst")
            fwd = model.forward_parse(sent, toy_vocab)
            assert fwd.scores.requires_grad
            assert res.heads == cle(fwd.scores.data)
            assert res.score == tree_score(fwd.scores.data, res.heads)
            logits = fwd.label_logits_for([(h, j) for j, h in enumerate(res.heads, 1)]).data
            assert res.label_ids == [int(np.argmax(row)) for row in logits]

    def test_score_is_tree_score(self, toy_corpus, toy_vocab):
        model = build_model(arc_cfg(toy_vocab), toy_vocab, seed=4)
        model.eval()
        res = model.predict(toy_corpus[0][0], toy_vocab)
        fwd = model.forward_parse(toy_corpus[0][0], toy_vocab)
        s = fwd.scores.data
        expected = sum(s[h, j] for j, h in enumerate(res.heads, start=1))
        assert res.score == pytest.approx(expected, abs=1e-9)


class TestPaddingInvariance:
    def test_scores_independent_of_other_sentences(self, toy_corpus, toy_vocab):
        # per-sentence graphs: parsing one sentence never sees another
        model = build_model(arc_cfg(toy_vocab), toy_vocab, seed=5)
        model.eval()
        sent = toy_corpus[0][0]
        alone = model.forward_parse(sent, toy_vocab).scores.data.copy()
        model.forward_parse(toy_corpus[0][1], toy_vocab)
        again = model.forward_parse(sent, toy_vocab).scores.data
        assert np.array_equal(alone, again)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, toy_corpus, toy_vocab):
        model = build_model(arc_cfg(toy_vocab, layers=1, k=2), toy_vocab, seed=6)
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, toy_vocab, extra={"note": "test"})
        loaded, vocab2, extra = load_checkpoint(path)
        assert extra == {"note": "test"}
        assert vocab2.form_to_id == toy_vocab.form_to_id
        assert vocab2.label_to_id == toy_vocab.label_to_id
        orig = model.state_dict()
        re = loaded.state_dict()
        assert set(orig) == set(re)
        for k in orig:
            assert np.array_equal(orig[k], re[k]), k

    def test_loaded_model_predicts_identically(self, tmp_path, toy_corpus, toy_vocab):
        model = build_model(arc_cfg(toy_vocab, layers=1, k=2), toy_vocab, seed=7)
        model.eval()
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, toy_vocab)
        loaded, vocab2, _ = load_checkpoint(path)
        loaded.eval()
        for sent in toy_corpus[1][:4]:
            a = model.predict(sent, toy_vocab)
            b = loaded.predict(sent, vocab2)
            assert a.heads == b.heads and a.labels == b.labels

    def test_double_round_trip_stable(self, tmp_path, toy_vocab):
        model = build_model(arc_cfg(toy_vocab), toy_vocab, seed=8)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_checkpoint(p1, model, toy_vocab)
        m1, v1, _ = load_checkpoint(p1)
        save_checkpoint(p2, m1, v1)
        m2, _, _ = load_checkpoint(p2)
        for k, arr in model.state_dict().items():
            assert np.array_equal(arr, m2.state_dict()[k])

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, __meta__=np.frombuffer(b'{"format": "other"}', dtype=np.uint8))
        with pytest.raises(ValueError, match="not an arcforge checkpoint"):
            load_checkpoint(path)


class TestRegistryGroups:
    def test_transformer_group_only_refinement_layers(self, toy_vocab):
        model = build_model(arc_cfg(toy_vocab, layers=2, k=2), toy_vocab, seed=9)
        groups = model.optimizer_groups()
        assert all(n.startswith("refiner_layers.") for n, _ in groups["transformer"])
        assert groups["transformer"]
        main_names = {n for n, _ in groups["main"]}
        assert any(n.startswith("encoder.") for n in main_names)
        assert not any(n.startswith("refiner_layers.") for n in main_names)

    def test_accounted_scope_excludes_embeddings_and_filter(self, toy_vocab):
        model = build_model(arc_cfg(toy_vocab, layers=1, k=2), toy_vocab, seed=10)
        names = {n for n, _ in model.accounted_parameters()}
        assert not any(n.startswith("encoder.") for n in names)
        assert not any("filter_head" in n for n in names)
        assert any(n.startswith("refiner_layers.") for n in names)
        assert "scorer.arc_tensor" in names

    def test_gradcheck_mode_uses_plain_gather(self, toy_corpus, toy_vocab):
        # eval mode keeps plain gathers, so the filter head gets no gradient;
        # train mode makes the kept vectors straight-through
        model = build_model(arc_cfg(toy_vocab, layers=1, k=2), toy_vocab, seed=11)
        model.eval()
        sent = toy_corpus[0][0]
        fwd = model.forward_parse(sent, toy_vocab)
        model.zero_grad()
        from arcforge.tensor import tsum

        tsum(fwd.scores).backward()
        assert model.scorer.filter_head.weight.grad is None
        model.train()
        fwd2 = model.forward_parse(sent, toy_vocab)
        model.zero_grad()
        tsum(fwd2.scores).backward()
        assert model.scorer.filter_head.weight.grad is not None
