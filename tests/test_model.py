"""Model assembly, prediction, and checkpoint tests."""

import hashlib
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from arcforge.conllu import Sentence, Token, Vocab
from arcforge.decoders import cle, is_projective
from arcforge.model import (
    CHECKPOINT_VERSION,
    ModelConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from arcforge.refiner import num_heads
from arcforge.training import TrainConfig, sentence_loss
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


# the parameters of a standard transformer layer that version 3 deleted
DELETED = ("norm_attn.gain", "norm_attn.bias", "norm_ffn.gain", "norm_ffn.bias", "w_value_proj.bias")


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

    @pytest.mark.parametrize("key", [f.name for f in fields(ModelConfig) if f.name != "dtype"])
    def test_checkpoint_without_a_config_key_rejected(self, tmp_path, toy_vocab, key):
        # save_checkpoint writes every key; dtype is checked per dtype below
        path = tmp_path / "model.npz"
        save_checkpoint(path, build_model(arc_cfg(toy_vocab), toy_vocab, seed=6), toy_vocab)
        edit_checkpoint_meta(path, lambda m: m.pop(key))
        with pytest.raises(ValueError, match=f"model.npz: bad model config: missing key '{key}'$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_checkpoint_without_dtype_key_rejected(self, tmp_path, toy_vocab, dtype):
        # refused whatever its arrays' dtype, not read as float64
        model = build_model(arc_cfg(toy_vocab, dtype=dtype), toy_vocab, seed=6)
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, toy_vocab)
        edit_checkpoint_meta(path, lambda m: m.pop("dtype"))
        with pytest.raises(ValueError, match="model.npz: bad model config: missing key 'dtype'$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version, shown", [
        (1, "1"), (2, "2"), (4, "4"), (True, "true"), (3.0, "3.0"), ("3", '"3"'),
    ], ids=["1", "2", "4", "true", "float-3", "string-3"])
    def test_unsupported_version_rejected(self, tmp_path, toy_vocab, version, shown):
        path = tmp_path / "model.npz"
        save_checkpoint(path, build_model(arc_cfg(toy_vocab), toy_vocab, seed=6), toy_vocab)
        edit_checkpoint_meta(path, lambda meta: meta.update(version=version), part=None)
        message = re.escape(f"model.npz: unsupported checkpoint version {shown}") + "$"
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", DELETED)
    def test_version_3_checkpoint_with_a_deleted_parameter_rejected(self, tmp_path, toy_vocab, key):
        path = tmp_path / "model.npz"
        save_checkpoint(path, build_model(arc_cfg(toy_vocab), toy_vocab, seed=6), toy_vocab)
        arrays = checkpoint_arrays(path)
        arrays[f"param:encoder.context.0.{key}"] = np.zeros(32)
        np.savez(path, **arrays)
        message = rf"model.npz: bad parameters: .*unexpected \['encoder.context.0.{key}'\]$"
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, __meta__=np.frombuffer(b'{"format": "other"}', dtype=np.uint8))
        with pytest.raises(ValueError, match="not an arcforge checkpoint"):
            load_checkpoint(path)


class TestParameterSet:
    """A change to the parameter set changes what a checkpoint holds, so it
    must bump CHECKPOINT_VERSION; the digest of the parameter names and
    shapes of these configs is pinned under the version that holds them."""

    # the benchmark's arcloc and loc shapes, and the flags that add parameters
    ARCLOC = dict(kind="arcloc", emb_dim=64, context_layers=1, d=32, r=32, k=10, layers=2)
    LOC = dict(kind="loc", emb_dim=64, context_layers=1, x=64, y=32)
    CONFIGS = [ARCLOC, LOC, dict(LOC, biaffine_bias=True),
               dict(ARCLOC, exact_counts=True), dict(LOC, exact_counts=True)]
    PINNED = (3, "fd6a6ce09af71c5e")  # (CHECKPOINT_VERSION, digest)

    def test_parameter_set_pinned_to_the_checkpoint_version(self):
        vocab = Vocab(form_to_id={"a": 2, "b": 3}, upos_to_id={"X": 2}, label_to_id={"root": 0, "dep": 1})
        shapes = [sorted((name, p.data.shape) for name, p in
                         build_model(ModelConfig(n_labels=vocab.n_labels, **cfg), vocab).named_parameters())
                  for cfg in self.CONFIGS]
        digest = hashlib.sha256(json.dumps(shapes).encode()).hexdigest()[:16]
        if (CHECKPOINT_VERSION, digest) != self.PINNED:
            pytest.fail(f"parameter set changed: bump CHECKPOINT_VERSION and pin the new digest "
                        f"({CHECKPOINT_VERSION}, {digest!r})")


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
