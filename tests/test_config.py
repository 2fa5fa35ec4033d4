"""Run-config schema tests."""

import json
import math
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcforge.cli import main
from arcforge.config import RunConfig, load_run_config
from arcforge.decoders import is_projective
from arcforge.model import DECODERS, ModelConfig, build_model, load_checkpoint, save_checkpoint
from arcforge.training import TrainConfig, train
from scalarloss import total
from treeoracle import is_single_root_tree

NAN, INF = float("nan"), float("inf")

# (key, value) pairs that each config must reject when it loads
BAD_VALUES = [
    ("grad_clip", -1.0), ("grad_clip", 0.0), ("grad_clip", INF),
    ("lr", -1.0), ("lr", 0.0), ("lr", NAN), ("swa_lr", -1e-6),
    ("lr_transformer", NAN), ("lr_transformer", -2.5e-3), ("swa_lr_transformer", 0.0),
    ("warmup_epochs", -2.0), ("warmup_epochs", INF), ("warmup_epochs_transformer", -0.5),
    ("max_train_len", 0),
    ("mlp_dropout", 1.0), ("mlp_dropout", -0.1), ("emb_dropout", -0.5), ("emb_dropout", NAN),
    ("gumbel_scale", -1.0), ("gumbel_scale", INF), ("filter_aux_weight", -1.0),
    ("x", 0), ("y", -1), ("d", 0), ("r", -2), ("context_heads", 0), ("context_heads", -4),
    ("seed", -1),
]
BAD_IDS = [f"{key}={value}" for key, value in BAD_VALUES]
TRAIN_KEYS = {f.name for f in fields(TrainConfig)}


def model_sizes(key):
    """The sizes of a small model of the kind that ``key`` belongs to."""
    return ("loc", {"x": 4, "y": 4}) if key in ("x", "y") else ("arcloc", {"d": 8, "r": 8})


def write_cfg(tmp_path, data):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    return p


class TestLoad:
    def test_defaults_fill_in(self, tmp_path):
        cfg = load_run_config(write_cfg(tmp_path, {"model_kind": "arcloc", "d": 8, "r": 8}))
        assert cfg.epochs == 10
        assert cfg.batch_tokens == 5000
        assert cfg.k == 10
        assert cfg.mlp_dropout == 0.33
        assert cfg.warmup_epochs == 1.0
        assert cfg.swa_start_epoch == 5

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown config keys: dropout, emb"):
            load_run_config(write_cfg(tmp_path, {"emb": 4, "dropout": 0.1}))

    def test_overrides_win(self, tmp_path):
        p = write_cfg(tmp_path, {"model_kind": "arcloc", "d": 8, "r": 8, "seed": 3})
        assert load_run_config(p, {"seed": 9}).seed == 9
        assert load_run_config(p, {"seed": None}).seed == 3

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON object"):
            load_run_config(p)

    def test_bad_decoder(self):
        with pytest.raises(ValueError, match="decoder"):
            RunConfig(decoder="chart")

    def test_bad_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            RunConfig(dtype="float16")

    def test_bad_head_count_fails_at_load(self, tmp_path):
        p = write_cfg(tmp_path, {"model_kind": "arcloc", "d": 8, "r": 8,
                                 "emb_dim": 10, "context_heads": 3})
        with pytest.raises(ValueError, match="emb_dim 10 not divisible by 3 heads"):
            load_run_config(p)

    @pytest.mark.parametrize("key, value", [("epochs", "1"), ("layers", 1.5), ("epochs", True)],
                             ids=["str-for-int", "float-for-int", "bool-for-int"])
    def test_wrong_json_type_names_the_key(self, tmp_path, key, value):
        p = write_cfg(tmp_path, {"model_kind": "arcloc", "d": 8, "r": 8, key: value})
        with pytest.raises(ValueError, match=f"{key} must be int, got {json.dumps(value)}"):
            load_run_config(p)

    def test_int_for_float_and_null_where_allowed(self, tmp_path):
        cfg = load_run_config(write_cfg(tmp_path, {
            "model_kind": "arcloc", "d": 8, "r": 8, "lr": 1, "grad_clip": None, "use_swa": False}))
        assert cfg.lr == 1 and cfg.grad_clip is None and cfg.use_swa is False
        with pytest.raises(ValueError, match="epochs must be int, got null"):
            load_run_config(write_cfg(tmp_path, {"epochs": None}))


class TestRanges:
    @pytest.mark.parametrize("key, value", BAD_VALUES, ids=BAD_IDS)
    def test_bad_value_rejected_naming_the_key(self, key, value):
        kind, sizes = model_sizes(key)
        with pytest.raises(ValueError, match=f"^{key} must be "):
            if key in TRAIN_KEYS:
                TrainConfig(**{key: value})
            else:
                ModelConfig(kind=kind, n_labels=2, emb_dim=8, **{**sizes, key: value})

    @pytest.mark.parametrize("key, value", BAD_VALUES, ids=BAD_IDS)
    def test_bad_value_fails_train_as_one_error_line(self, tmp_path, capsys, key, value):
        kind, sizes = model_sizes(key)
        corpus = tmp_path / "train.conllu"
        corpus.write_text("1\tdogs\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
                          "2\trun\t_\tVERB\t_\t_\t0\troot\t_\t_\n", encoding="utf-8")
        cfg = write_cfg(tmp_path, {
            "model_kind": kind, **sizes, "emb_dim": 8, "context_layers": 0, "epochs": 1,
            "use_swa": False, "train_file": str(corpus), "model_out": str(tmp_path / "m.npz"),
            key: value})
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ")
        assert err.count("error:") == 1 and err.count("\n") == 1
        assert not (tmp_path / "m.npz").exists()

    def test_boundary_values_accepted(self):
        # the benchmark trains with no warmup; no clipping and per-kind rates are None
        TrainConfig(warmup_epochs=0.0, warmup_epochs_transformer=0.0, grad_clip=None,
                    lr=None, swa_lr=None, max_train_len=1)
        ModelConfig(kind="arcloc", n_labels=2, emb_dim=8, d=1, r=2, mlp_dropout=0.0,
                    emb_dropout=0.0, gumbel_scale=0.0, filter_aux_weight=0.0)
        ModelConfig(kind="loc", n_labels=2, emb_dim=8, x=1, y=1, mlp_dropout=0.99)


class TestMapping:
    def test_model_config_mapping(self):
        run = RunConfig(model_kind="arcloc", d=8, r=8, layers=2, k=5,
                        exact_counts=True, gumbel_scale=0.5)
        mc = run.model_config(n_labels=3)
        assert mc.kind == "arcloc" and mc.layers == 2 and mc.k == 5
        assert mc.exact_counts is True
        assert mc.gumbel_scale == 0.5
        assert mc.n_labels == 3

    def test_dtype_is_a_model_key(self):
        run = RunConfig(model_kind="arcloc", d=8, r=8, dtype="float32")
        assert run.model_config(n_labels=3).dtype == "float32"
        assert RunConfig(model_kind="arcloc", d=8, r=8).model_config(n_labels=3).dtype == "float64"

    def test_train_config_mapping(self):
        run = RunConfig(model_kind="arcloc", d=8, r=8, epochs=7, lr=1e-3,
                        use_swa=True, swa_start_epoch=4, grad_clip=5.0)
        tc = run.train_config()
        assert tc.epochs == 7 and tc.lr == 1e-3
        assert tc.swa_start_epoch == 4 and tc.grad_clip == 5.0

    def test_lr_defaults_resolve_per_kind(self):
        run = RunConfig(model_kind="loc", x=4, y=4)
        assert run.train_config().resolved_lr("loc") == pytest.approx(8.3e-5)
        assert run.train_config().resolved_lr("arcloc") == pytest.approx(3.7e-5)
        assert run.train_config().resolved_swa_lr("loc") == pytest.approx(5e-6)
        assert run.train_config().resolved_swa_lr("arcloc") == pytest.approx(3.7e-6)


class TestFloat32Mode:
    def test_float32_training_runs(self, tmp_path, toy_corpus, toy_vocab):
        from arcforge.model import ModelConfig, build_model
        from arcforge.training import TrainConfig, train

        cfg = ModelConfig(kind="arcloc", n_labels=toy_vocab.n_labels, emb_dim=16,
                          context_layers=0, d=8, r=8, mlp_dropout=0.0, dtype="float32")
        model = build_model(cfg, toy_vocab, seed=0)
        assert model.parameters()[0].data.dtype == np.float32
        res = train(model, toy_corpus[0], [], toy_vocab,
                    TrainConfig(epochs=1, lr=1e-3, use_swa=False, seed=0))
        assert np.isfinite(res.metrics[0]["train_loss"])

    def test_float32_arcloc_training_graph_stays_float32(self, toy_corpus, toy_vocab):
        from arcforge.model import ModelConfig, build_model
        from arcforge.training import TrainConfig, sentence_loss, train

        cfg = ModelConfig(kind="arcloc", n_labels=toy_vocab.n_labels, emb_dim=16,
                          context_layers=1, d=8, r=8, layers=2, k=2, dtype="float32")
        model = build_model(cfg, toy_vocab, seed=0)
        train(model, toy_corpus[0][:8], [], toy_vocab,
              TrainConfig(epochs=1, lr=1e-3, use_swa=False, seed=0))
        sentence = max(toy_corpus[0][:8], key=len)
        assert cfg.k < len(sentence)
        model.train()
        model.zero_grad()
        loss = sentence_loss(model, sentence, toy_vocab)
        assert np.isfinite(loss.item())
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._prev)
        loss.backward()
        for node in nodes.values():
            assert node.data.dtype == np.float32, node
            assert node.grad is None or node.grad.dtype == np.float32, node
        for name, p in model.named_parameters():
            assert p.data.dtype == np.float32, name
            assert p.grad is None or p.grad.dtype == np.float32, name
        assert any(p.grad is not None for p in model.refiner_layers.parameters())

    def test_grad_check_refuses_float32(self):
        from arcforge import tensor as T

        x = T.Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="64-bit"):
            T.grad_check(lambda: total(x * x), x)


# Small values that every ModelConfig and TrainConfig field may take (a
# loc model takes no refinement layers), and values out of each field's
# range or at odds with the others; a drawn config takes the former and
# then up to two of the latter. n_labels comes from the corpus.
IN_RANGE = {
    "kind": ["loc", "arcloc"], "emb_dim": [2, 3, 4, 8], "context_layers": [0, 1, 2],
    "context_heads": [None, 1, 2], "x": [1, 3], "y": [1, 2], "d": [1, 4], "r": [2, 4],
    "layers": [0, 1, 2], "k": [1, 2, 10], "mlp_dropout": [0.0, 0.5], "emb_dropout": [0.0, 0.3],
    "use_upos": [False, True], "exact_counts": [False, True], "biaffine_bias": [False, True],
    "gumbel_scale": [0.0, 1.0], "filter_aux_weight": [0.0, 0.5], "dtype": ["float64", "float32"],
    "epochs": [1], "batch_tokens": [1, 8, 5000], "lr": [None, 1e-3], "lr_transformer": [1e-3],
    "warmup_epochs": [0.0, 0.5], "warmup_epochs_transformer": [0.0, 3.0], "use_swa": [False, True],
    "swa_start_epoch": [1, 2], "swa_lr": [None, 1e-4], "swa_lr_transformer": [1e-4],
    "seed": [0, 5], "grad_clip": [None, 1.0], "max_train_len": [5, 128], "decoder": list(DECODERS),
    "punct_policy": ["keep", "upos", "pos-set"],
}
OUT_OF_RANGE = [
    ("kind", "crf"), ("n_labels", 0), ("emb_dim", 1), ("context_layers", -1),
    ("context_heads", 0), ("context_heads", -4), ("x", None), ("y", 0), ("d", None), ("r", 3),
    ("r", -2), ("layers", -1), ("layers", 2), ("k", 0), ("mlp_dropout", 1.0), ("emb_dropout", NAN),
    ("gumbel_scale", -1.0), ("filter_aux_weight", INF), ("dtype", "float16"), ("epochs", 0),
    ("batch_tokens", 0), ("lr", 0.0), ("lr_transformer", NAN), ("warmup_epochs", -1.0),
    ("warmup_epochs_transformer", INF), ("swa_start_epoch", 0), ("swa_start_epoch", 3),
    ("swa_lr", -1e-4), ("swa_lr_transformer", 0.0), ("seed", -1),
    ("grad_clip", 0.0), ("max_train_len", 0), ("decoder", "chart"), ("punct_policy", "none"),
]
CONFIG_FIELDS = {f.name for f in fields(ModelConfig) + fields(TrainConfig)}


@st.composite
def any_config(draw):
    values = {key: draw(st.sampled_from(choices)) for key, choices in IN_RANGE.items()}
    if values["kind"] == "loc":
        values["layers"] = 0
    values.update(draw(st.lists(st.sampled_from(OUT_OF_RANGE), max_size=2)))
    return values


class TestAnyConfig:
    def test_every_field_is_drawn(self):
        assert set(IN_RANGE) == CONFIG_FIELDS - {"n_labels"}
        flags = {"use_upos", "exact_counts", "biaffine_bias", "use_swa"}  # no value out of range
        assert {key for key, _ in OUT_OF_RANGE} == CONFIG_FIELDS - flags

    @settings(max_examples=200, deadline=None)
    @given(any_config())
    def test_accepted_configs_train_and_parse_rejected_ones_name_a_field(
            self, toy_corpus, toy_vocab, values):
        sents = [s for s in toy_corpus[0] if len(s) <= 5][:4]
        try:
            mcfg = ModelConfig(**{"n_labels": toy_vocab.n_labels,
                                  **{k: v for k, v in values.items() if k not in TRAIN_KEYS}})
            tcfg = TrainConfig(**{k: v for k, v in values.items() if k in TRAIN_KEYS})
        except ValueError as exc:
            assert any(re.search(rf"\b{key}\b", str(exc)) for key in CONFIG_FIELDS), exc
            return
        model = build_model(mcfg, toy_vocab, seed=tcfg.seed)
        res = train(model, sents, sents[:2], toy_vocab, tcfg)
        assert len(res.metrics) == 1 and math.isfinite(res.metrics[0]["train_loss"])
        model.load_state(res.best_state)
        model.eval()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.npz"
            save_checkpoint(path, model, toy_vocab)
            loaded, _, _ = load_checkpoint(path)
        loaded.eval()
        for decoder in DECODERS:
            for sent in sents:
                parsed = model.predict(sent, toy_vocab, decoder=decoder)
                assert is_single_root_tree(parsed.heads)
                assert decoder != "eisner" or is_projective(parsed.heads)
                assert loaded.predict(sent, toy_vocab, decoder=decoder) == parsed
