"""Model assembly, prediction, and checkpoint tests."""

import json
import re

import numpy as np
import pytest

from arcforge import tensor as T
from arcforge.conllu import Sentence, Token
from arcforge.decoders import cle, is_projective
from arcforge.model import (
    ModelConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from arcforge.refiner import TransformerLayer, num_heads
from arcforge.training import TrainConfig, sentence_loss
from chainops import layer_norm, multi_head_attention
from scalarloss import total
from treeoracle import is_single_root_tree


def arc_cfg(vocab, **kw):
    base = dict(kind="arcloc", n_labels=vocab.n_labels, emb_dim=32, context_layers=1,
                d=16, r=16, mlp_dropout=0.0, emb_dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


def edit_checkpoint_meta(path, edit, part="model"):
    """Rewrite a saved checkpoint's model config (or, with ``part=None``,
    its whole metadata) in place with ``edit``."""
    with np.load(path) as z:
        arrays = {key: z[key] for key in z.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    edit(meta if part is None else meta[part])
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def checkpoint_arrays(path):
    with np.load(path) as z:
        return {key: z[key] for key in z.files}


def transformer_layers(model):
    """(parameter name prefix, layer) of each transformer layer."""
    stacks = [("encoder.context.", model.encoder.context),
              ("refiner_layers.", getattr(model, "refiner_layers", []))]
    return [(f"{prefix}{i}.", layer) for prefix, stack in stacks for i, layer in enumerate(stack)]


# the parameters of a standard transformer layer that version 3 deleted
FOLDED = ("norm_attn.gain", "norm_attn.bias", "norm_ffn.gain", "norm_ffn.bias", "w_value_proj.bias")


def older_layer_forward(layer, x, older):
    """A standard transformer layer as versions 1 and 2 built it, from
    chain ops: each layer norm times a gain plus a bias, a value bias and,
    in version 1, a key bias, all read from ``older``."""
    def norm(a, which):
        return layer_norm(a) * older[which + ".gain"] + older[which + ".bias"]

    y = norm(x, "norm_attn")
    q = T.linear(y, layer.w_query.weight, layer.w_query.bias)
    k = T.linear(y, layer.w_key.weight, older.get("w_key.bias"))
    v = T.linear(y, layer.w_value_proj.weight, older["w_value_proj.bias"])
    x = x + T.linear(multi_head_attention(q, k, v, layer.heads), layer.w_out.weight, layer.w_out.bias)
    hidden = T.relu(T.linear(norm(x, "norm_ffn"), layer.ffn_in.weight, layer.ffn_in.bias))
    return x + T.linear(hidden, layer.ffn_out.weight, layer.ffn_out.bias)


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

    def test_bad_dtype(self, toy_vocab):
        with pytest.raises(ValueError, match="dtype must be float64 or float32"):
            arc_cfg(toy_vocab, dtype="float16")

    def test_odd_r_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ModelConfig(kind="arcloc", n_labels=2, emb_dim=8, d=4, r=5)

    @pytest.mark.parametrize("key, value, message", [
        ("emb_dim", 1, "emb_dim must be >= 2"),
        ("context_layers", -1, "context_layers must be >= 0"),
    ])
    def test_encoder_sizes_checked(self, toy_vocab, key, value, message):
        with pytest.raises(ValueError, match=message):
            arc_cfg(toy_vocab, **{key: value})

    def test_context_heads_default_to_width_rule(self, toy_vocab):
        assert arc_cfg(toy_vocab, emb_dim=64).context_heads == num_heads(64) == 4
        assert arc_cfg(toy_vocab, context_heads=8).context_heads == 8


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

    def test_empty_sentence_gives_empty_parse(self, toy_vocab):
        model = build_model(arc_cfg(toy_vocab), toy_vocab, seed=2)
        model.eval()
        for decoder in ("eisner", "mst"):
            res = model.predict(Sentence([]), toy_vocab, decoder=decoder)
            assert (res.heads, res.label_ids, res.labels) == ([], [], [])

    def test_unknown_decoder_rejected(self, toy_corpus, toy_vocab):
        model = build_model(arc_cfg(toy_vocab), toy_vocab, seed=2)
        with pytest.raises(ValueError, match="decoder"):
            model.predict(toy_corpus[0][0], toy_vocab, decoder="viterbi")

    def test_eval_prediction_deterministic_with_noise_config(self, toy_corpus, toy_vocab):
        # gumbel noise must be inert outside training mode
        model = build_model(arc_cfg(toy_vocab, layers=1, k=2), toy_vocab, seed=3)
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
            logits = fwd.label_logits_for([(h, j) for j, h in enumerate(res.heads, 1)]).data
            assert res.label_ids == [int(np.argmax(row)) for row in logits]

    @pytest.mark.parametrize("decoder", ["mst", "eisner"])
    def test_sentence_longer_than_max_train_len(self, toy_corpus, toy_vocab, decoder):
        n = TrainConfig().max_train_len + 22
        words = [tok for sent in toy_corpus[0] + toy_corpus[1] for tok in sent.tokens][:n]
        assert len(words) == n
        sent = Sentence([Token(t.form, t.upos, gold_head=0, gold_label=t.gold_label)
                         for t in words])
        model = build_model(arc_cfg(toy_vocab, layers=2, k=3), toy_vocab, seed=6)
        model.eval()
        res = model.predict(sent, toy_vocab, decoder=decoder)
        assert is_single_root_tree(res.heads) and len(res.heads) == n
        assert len(res.labels) == n and set(res.labels) <= set(toy_vocab.label_to_id)
        if decoder == "eisner":
            assert is_projective(res.heads)


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

    def test_float32_round_trip_keeps_dtype_bitwise(self, tmp_path, toy_vocab):
        model = build_model(arc_cfg(toy_vocab, layers=1, k=2, dtype="float32"), toy_vocab, seed=6)
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, toy_vocab)
        loaded, _, _ = load_checkpoint(path)
        assert loaded.cfg.dtype == "float32"
        saved = model.state_dict()
        for name, arr in loaded.state_dict().items():
            assert arr.dtype == np.float32, name
            assert arr.tobytes() == saved[name].tobytes(), name

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_checkpoint_without_dtype_key_takes_its_arrays_dtype(self, tmp_path, toy_vocab, dtype):
        model = build_model(arc_cfg(toy_vocab, dtype=dtype), toy_vocab, seed=6)
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, toy_vocab)
        edit_checkpoint_meta(path, lambda m: m.pop("dtype"))  # as written before the key existed
        loaded, _, _ = load_checkpoint(path)
        assert loaded.cfg.dtype == dtype
        assert {p.data.dtype.name for p in loaded.parameters()} == {dtype}

    @pytest.mark.parametrize("train_noise, gumbel_scale", [(False, 0.0), (True, 0.5)])
    def test_checkpoint_with_train_noise_key_keeps_its_meaning(
            self, tmp_path, toy_corpus, toy_vocab, train_noise, gumbel_scale):
        model = build_model(arc_cfg(toy_vocab, layers=1, k=2, gumbel_scale=0.5), toy_vocab, seed=7)
        model.eval()
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, toy_vocab)

        def as_written_with_train_noise(m):
            m.update(train_noise=train_noise, context_heads=None)
            del m["dtype"]

        edit_checkpoint_meta(path, as_written_with_train_noise)
        loaded, vocab2, _ = load_checkpoint(path)
        assert loaded.cfg.gumbel_scale == gumbel_scale
        assert loaded.cfg.context_heads == num_heads(32)
        loaded.eval()
        for decoder in ("eisner", "mst"):
            for sent in toy_corpus[1][:4]:
                assert (loaded.predict(sent, vocab2, decoder=decoder)
                        == model.predict(sent, toy_vocab, decoder=decoder))

    def test_unsupported_version_rejected(self, tmp_path, toy_vocab):
        path = tmp_path / "model.npz"
        save_checkpoint(path, build_model(arc_cfg(toy_vocab), toy_vocab, seed=6), toy_vocab)
        edit_checkpoint_meta(path, lambda meta: meta.update(version=4), part=None)
        with pytest.raises(ValueError, match="model.npz: unsupported checkpoint version 4$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["arcloc", "loc"])
    def test_version_1_checkpoint_loads_without_the_deleted_biases(
            self, tmp_path, toy_corpus, toy_vocab, kind):
        # version 1 also held the key, score and filter biases and, with
        # biaffine_bias, the arc weight's head-side ones row; give them
        # N(0, 1) values, which no parse may depend on. Like version 2, it
        # also held each layer's norm affines and value bias, here at their
        # initial values, which fold to nothing.
        if kind == "arcloc":
            model = build_model(arc_cfg(toy_vocab, layers=2, k=2), toy_vocab, seed=6)
            deleted = {"encoder.context.0.w_key.bias": 32, "refiner_layers.0.w_key.bias": 16,
                       "refiner_layers.1.w_key.bias": 16, "scorer.score_out.bias": 1,
                       "scorer.filter_head.bias": 1}
        else:
            model = build_model(ModelConfig(kind="loc", n_labels=toy_vocab.n_labels, emb_dim=32,
                                            context_layers=1, x=8, y=8, biaffine_bias=True,
                                            mlp_dropout=0.0), toy_vocab, seed=6)
            deleted = {"encoder.context.0.w_key.bias": 32}
        model.eval()
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, toy_vocab)
        rng = np.random.default_rng(1)
        arrays = checkpoint_arrays(path)
        for name, width in deleted.items():
            arrays[f"param:{name}"] = rng.normal(size=width)
        for prefix, layer in transformer_layers(model):
            width = layer.w_query.weight.data.shape[0]
            for key in FOLDED:
                arrays[f"param:{prefix}{key}"] = np.ones(width) if key.endswith("gain") else np.zeros(width)
        if kind == "loc":
            arc = arrays["param:scorer.arc_weight"]
            arrays["param:scorer.arc_weight"] = np.vstack([arc, rng.normal(size=(1, 9))])
        np.savez(path, **arrays)
        edit_checkpoint_meta(path, lambda meta: meta.update(version=2), part=None)
        with pytest.raises(ValueError, match="bad parameters"):
            load_checkpoint(path)
        edit_checkpoint_meta(path, lambda meta: meta.update(version=1), part=None)
        loaded, vocab, _ = load_checkpoint(path)
        saved = model.state_dict()
        assert {name: arr.tobytes() for name, arr in loaded.state_dict().items()} == {
            name: arr.tobytes() for name, arr in saved.items()}
        loaded.eval()
        for decoder in ("eisner", "mst"):
            for sent in toy_corpus[1][:4]:
                assert (loaded.predict(sent, vocab, decoder=decoder)
                        == model.predict(sent, toy_vocab, decoder=decoder))

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("kind", ["arcloc", "loc"])
    def test_older_checkpoint_folds_the_deleted_layer_parameters(
            self, tmp_path, toy_corpus, toy_vocab, monkeypatch, kind, version):
        # N(0, 1) values in every deleted layer parameter and every bias a
        # fold adds to: the loaded model scores as the older layer did
        if kind == "arcloc":
            cfg = arc_cfg(toy_vocab, layers=2, k=2)
        else:
            cfg = ModelConfig(kind="loc", n_labels=toy_vocab.n_labels, emb_dim=32,
                              context_layers=1, x=8, y=8, mlp_dropout=0.0)
        model = build_model(cfg, toy_vocab, seed=6)
        model.eval()
        rng = np.random.default_rng(2)
        path = tmp_path / "model.npz"
        older = {}
        for prefix, layer in transformer_layers(model):
            for lin in (layer.w_query, layer.w_out, layer.ffn_in, layer.ffn_out):
                lin.bias.data = rng.normal(size=lin.bias.data.shape)
            width = layer.w_query.weight.data.shape[0]
            keys = FOLDED + (("w_key.bias",) if version == 1 else ())
            older[layer] = {key: T.Tensor(rng.normal(size=width)) for key in keys}
        save_checkpoint(path, model, toy_vocab)
        arrays = checkpoint_arrays(path)
        for prefix, layer in transformer_layers(model):
            arrays.update({f"param:{prefix}{key}": t.data for key, t in older[layer].items()})
        np.savez(path, **arrays)
        edit_checkpoint_meta(path, lambda meta: meta.update(version=version), part=None)
        loaded, vocab, _ = load_checkpoint(path)
        loaded.eval()
        sentences = toy_corpus[1][:10]
        got = [(loaded.forward_parse(s, vocab).scores.data,
                [loaded.predict(s, vocab, decoder=d) for d in ("eisner", "mst")]) for s in sentences]
        monkeypatch.setattr(TransformerLayer, "forward",
                            lambda layer, x: older_layer_forward(layer, x, older[layer]))
        for sent, (scores, parses) in zip(sentences, got):
            want = model.forward_parse(sent, toy_vocab).scores.data
            assert np.max(np.abs(scores - want)) <= 1e-12 * np.max(np.abs(want))
            assert parses == [model.predict(sent, toy_vocab, decoder=d) for d in ("eisner", "mst")]

    @pytest.mark.parametrize("key", FOLDED)
    def test_version_3_checkpoint_with_a_deleted_parameter_rejected(self, tmp_path, toy_vocab, key):
        path = tmp_path / "model.npz"
        save_checkpoint(path, build_model(arc_cfg(toy_vocab), toy_vocab, seed=6), toy_vocab)
        arrays = checkpoint_arrays(path)
        arrays[f"param:encoder.context.0.{key}"] = np.zeros(32)
        np.savez(path, **arrays)
        message = rf"model.npz: bad parameters: .*unexpected \['encoder.context.0.{key}'\]$"
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("gain, error", [
        (None, "KeyError('encoder.context.0.norm_attn.gain')"),
        # a one-entry gain would broadcast over every weight row
        (np.ones(1), "ValueError('encoder.context.0.norm_attn.gain has shape (1,)')"),
    ], ids=["missing", "one-entry"])
    def test_version_2_checkpoint_with_bad_layer_parameters_rejected(
            self, tmp_path, toy_vocab, gain, error):
        path = tmp_path / "model.npz"
        save_checkpoint(path, build_model(arc_cfg(toy_vocab), toy_vocab, seed=6), toy_vocab)
        if gain is not None:
            arrays = checkpoint_arrays(path)
            for key in FOLDED:
                arrays[f"param:encoder.context.0.{key}"] = np.zeros(32)
            arrays["param:encoder.context.0.norm_attn.gain"] = gain
            np.savez(path, **arrays)
        edit_checkpoint_meta(path, lambda meta: meta.update(version=2), part=None)
        message = f"model.npz: bad parameters: cannot fold version 2: {error}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(path)

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, __meta__=np.frombuffer(b'{"format": "other"}', dtype=np.uint8))
        with pytest.raises(ValueError, match="not an arcforge checkpoint"):
            load_checkpoint(path)


class TestEveryParameterMatters:
    """No parameter adds only what every consumer cancels (a constant over
    a softmax row, a top-k sort or a tree): moving any leaf, or any
    head-side or modifier-side slice of a biaffine weight, moves the
    eval loss."""

    # The loc models read no context layer: on the toy grammar one makes
    # most words alike, and a specialization unit that is zero on every
    # word leaves its biaffine slices nothing to read. The arcloc models
    # cover the context layer's parameters.
    CONFIGS = {
        "loc": dict(kind="loc", x=6, y=6, context_layers=0),
        "loc-biaffine-bias": dict(kind="loc", x=6, y=6, context_layers=0, biaffine_bias=True),
        "loc-exact-counts": dict(kind="loc", x=6, y=6, context_layers=0, exact_counts=True),
        "arcloc": dict(kind="arcloc", d=6, r=8),
        "arcloc-layers": dict(kind="arcloc", d=6, r=8, layers=2, k=3, filter_aux_weight=0.5),
        "arcloc-layers-exact-counts": dict(kind="arcloc", d=6, r=8, layers=2, k=3,
                                           filter_aux_weight=0.5, exact_counts=True),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_loss_moves_with_every_leaf_and_biaffine_slice(self, toy_corpus, toy_vocab, name):
        cfg = ModelConfig(**{"n_labels": toy_vocab.n_labels, "emb_dim": 16, "context_layers": 1,
                             "mlp_dropout": 0.0, **self.CONFIGS[name]})
        model = build_model(cfg, toy_vocab, seed=3)
        model.eval()
        # eight toy sentences as one 26-word forest
        tokens = []
        for sent in toy_corpus[0][:8]:
            tokens += [Token(t.form, t.upos, t.gold_head and t.gold_head + len(tokens), t.gold_label)
                       for t in sent.tokens]
        sentence = Sentence(tokens)
        moves = [(leaf, p, np.ones(p.data.shape, dtype=bool)) for leaf, p in model.named_parameters()]
        if cfg.kind == "loc":
            for leaf in ("scorer.arc_weight", "scorer.label_weight"):
                p = dict(model.named_parameters())[leaf]
                for axis, side in ((0, "head"), (-1, "modifier")):
                    for i in range(p.data.shape[axis]):
                        mask = np.zeros(p.data.shape, dtype=bool)
                        np.moveaxis(mask, axis, 0)[i] = True
                        moves.append((f"{leaf} {side} slice {i}", p, mask))
        base = sentence_loss(model, sentence, toy_vocab).item()
        rng = np.random.default_rng(4)
        unmoved = []
        for what, p, mask in moves:
            kept = p.data
            p.data = kept + mask * rng.normal(size=kept.shape)
            if not abs(sentence_loss(model, sentence, toy_vocab).item() - base) > 1e-9 * abs(base):
                unmoved.append(what)
            p.data = kept
        assert unmoved == []


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
        total(fwd.scores).backward()
        assert model.scorer.filter_head.weight.grad is None
        model.train()
        fwd2 = model.forward_parse(sent, toy_vocab)
        model.zero_grad()
        total(fwd2.scores).backward()
        assert model.scorer.filter_head.weight.grad is not None
