"""Encoder and specialization tests."""

import numpy as np
import pytest

from arcforge.conllu import Sentence, Token, build_vocab, parse_conllu
from arcforge.encoder import Encoder, Specialization, sinusoidal_encoding
from arcforge.model import ArcLocModel, LocModel, ModelConfig


def sentence(*forms_upos):
    return Sentence([Token(form=f, upos=u, gold_head=0 if i == 0 else 1, gold_label="dep")
                     for i, (f, u) in enumerate(forms_upos)])


@pytest.fixture
def small_vocab():
    text = (
        "1\tdog\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
        "2\truns\t_\tVERB\t_\t_\t0\troot\t_\t_\n\n"
        "1\tcat\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tsleeps\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    return build_vocab(parse_conllu(text))


class TestEncode:
    def test_no_context_equals_lookup(self, small_vocab):
        enc = Encoder(small_vocab.n_forms, small_vocab.n_upos, 8, np.random.default_rng(0))
        enc.eval()
        sent = sentence(("dog", "NOUN"), ("runs", "VERB"))
        out = enc.encode(sent, small_vocab)
        ids = [0, small_vocab.form_id("dog"), small_vocab.form_id("runs")]
        upos = [0, small_vocab.upos_id("NOUN"), small_vocab.upos_id("VERB")]
        expected = enc.form_emb.data[ids] + enc.upos_emb.data[upos]
        assert np.array_equal(out.data, expected)

    def test_shape_includes_root_row(self, small_vocab):
        for layers in (0, 1):
            enc = Encoder(small_vocab.n_forms, small_vocab.n_upos, 8, np.random.default_rng(0),
                          context_layers=layers)
            enc.eval()
            out = enc.encode(sentence(("dog", "NOUN"), ("runs", "VERB"), ("dog", "NOUN")), small_vocab)
            assert out.data.shape == (4, 8)

    def test_shared_token_identical_rows_without_context(self, small_vocab):
        enc = Encoder(small_vocab.n_forms, small_vocab.n_upos, 8, np.random.default_rng(0))
        enc.eval()
        a = enc.encode(sentence(("dog", "NOUN"), ("runs", "VERB")), small_vocab)
        b = enc.encode(sentence(("dog", "NOUN"), ("sleeps", "VERB")), small_vocab)
        assert np.array_equal(a.data[1], b.data[1])

    def test_context_layer_is_context_sensitive(self, small_vocab):
        enc = Encoder(small_vocab.n_forms, small_vocab.n_upos, 8, np.random.default_rng(1),
                      context_layers=1, context_heads=2)
        enc.eval()
        a = enc.encode(sentence(("dog", "NOUN"), ("runs", "VERB")), small_vocab)
        b = enc.encode(sentence(("dog", "NOUN"), ("sleeps", "VERB")), small_vocab)
        assert not np.allclose(a.data[1], b.data[1])

    def test_deterministic_in_eval_mode(self, small_vocab):
        enc = Encoder(small_vocab.n_forms, small_vocab.n_upos, 8, np.random.default_rng(2),
                      context_layers=2, emb_dropout=0.33)
        enc.eval()
        sent = sentence(("dog", "NOUN"), ("runs", "VERB"))
        a = enc.encode(sent, small_vocab)
        b = enc.encode(sent, small_vocab)
        assert np.array_equal(a.data, b.data)

    def test_unknown_form_maps_to_unk_embedding(self, small_vocab):
        enc = Encoder(small_vocab.n_forms, small_vocab.n_upos, 8, np.random.default_rng(3))
        enc.eval()
        out = enc.encode(sentence(("zebra", "NOUN"),), small_vocab)
        expected = enc.form_emb.data[1] + enc.upos_emb.data[small_vocab.upos_id("NOUN")]
        assert np.array_equal(out.data[1], expected)

    def test_upos_disabled(self, small_vocab):
        enc = Encoder(small_vocab.n_forms, small_vocab.n_upos, 8, np.random.default_rng(4),
                      use_upos=False)
        enc.eval()
        out = enc.encode(sentence(("dog", "NOUN"),), small_vocab)
        assert np.array_equal(out.data[1], enc.form_emb.data[small_vocab.form_id("dog")])

    def test_heads_must_divide_width(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(kind="arcloc", n_labels=2, emb_dim=10, context_layers=1, context_heads=3,
                        d=4, r=4)


class TestSinusoidal:
    def test_shape_and_range(self):
        enc = sinusoidal_encoding(7, 12)
        assert enc.shape == (7, 12)
        assert np.all(np.abs(enc) <= 1.0)

    def test_position_zero(self):
        enc = sinusoidal_encoding(3, 6)
        assert np.allclose(enc[0, 0::2], 0.0)
        assert np.allclose(enc[0, 1::2], 1.0)

    @staticmethod
    def reference_encoding(length, dim):
        # the table as it was built for every sentence before it was cached
        pos = np.arange(length)[:, None].astype(float)
        i = np.arange(dim)[None, :]
        angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
        enc = np.zeros((length, dim))
        enc[:, 0::2] = np.sin(angle[:, 0::2])
        enc[:, 1::2] = np.cos(angle[:, 1::2])
        return enc

    @pytest.mark.parametrize("dim", [2, 7, 12, 64])
    def test_cached_rows_equal_reference_at_every_length(self, dim):
        # shorter, then longer (regrown), then shorter again (sliced)
        for length in (0, 1, 5, 3, 40, 200, 17, 1):
            enc = sinusoidal_encoding(length, dim)
            assert enc.shape == (length, dim)
            assert enc.tobytes() == self.reference_encoding(length, dim).tobytes()
            assert not enc.flags.writeable
            with pytest.raises(ValueError):
                enc[...] = 0.0


class TestSpecialization:
    def test_zero_weights_give_zeros(self):
        rng = np.random.default_rng(5)
        spec = Specialization(6, 4, rng, drop=0.0)
        spec.linear.weight.data[:] = 0.0
        spec.linear.bias.data[:] = 0.0
        spec.eval()
        from arcforge.tensor import Tensor

        out = spec(Tensor(rng.normal(size=(3, 6))))
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_output_dim_matches_published_small_loc(self, small_vocab):
        cfg = ModelConfig(kind="loc", n_labels=small_vocab.n_labels, emb_dim=32,
                          context_layers=0, x=900, y=150)
        model = LocModel(cfg, small_vocab.n_forms, small_vocab.n_upos)
        model.eval()
        from arcforge.tensor import Tensor

        e = Tensor(np.random.default_rng(6).normal(size=(3, 32)))
        assert model.spec_arc_head(e).data.shape == (3, 900)
        assert model.spec_label_mod(e).data.shape == (3, 150)

    def test_loc_has_four_specializations_arcloc_two(self, small_vocab):
        loc = LocModel(ModelConfig(kind="loc", n_labels=2, emb_dim=8, context_layers=0, x=4, y=4),
                       small_vocab.n_forms, small_vocab.n_upos)
        arc = ArcLocModel(ModelConfig(kind="arcloc", n_labels=2, emb_dim=8, context_layers=0, d=4, r=4),
                          small_vocab.n_forms, small_vocab.n_upos)
        loc_specs = {n for n, _ in loc.named_parameters() if n.startswith("spec_")}
        arc_specs = {n for n, _ in arc.named_parameters() if n.startswith("spec_")}
        assert len({n.split(".")[0] for n in loc_specs}) == 4
        assert len({n.split(".")[0] for n in arc_specs}) == 2

    def test_arcloc_unified_roles(self, small_vocab):
        model = ArcLocModel(ModelConfig(kind="arcloc", n_labels=2, emb_dim=8, context_layers=0, d=4, r=4),
                            small_vocab.n_forms, small_vocab.n_upos)
        model.eval()
        from arcforge.tensor import Tensor

        e = Tensor(np.random.default_rng(8).normal(size=(3, 8)))
        assert model.spec_head(e).data.shape == (3, 4)
        assert model.spec_mod(e).data.shape == (3, 4)

    def test_exact_counts_drops_bias(self):
        rng = np.random.default_rng(7)
        spec = Specialization(6, 4, rng, exact_counts=True)
        assert spec.linear.bias is None
        assert spec.linear.weight.data.shape == (6, 4)
