"""CLI tests: command contracts and the train/parse/eval pipeline."""

import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from arcforge import encoder, refiner, scorers
from arcforge import tensor as T
from arcforge.cli import main
from arcforge.config import RunConfig
from arcforge.conllu import parse_conllu, write_conllu
from arcforge.model import build_model, load_checkpoint
from toygrammar import make_corpus

GOLD = """1\tdogs\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\trun\t_\tVERB\t_\t_\t0\troot\t_\t_
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def save_with_meta(model_path, out_path, edit):
    """Copy a checkpoint to ``out_path`` with ``edit`` applied to its metadata."""
    with np.load(model_path) as z:
        arrays = {key: z[key] for key in z.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    edit(meta)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(out_path, **arrays)
    return out_path


def metrics_rows(model_path):
    with open(model_path + ".metrics.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


class TestEvalCommand:
    def test_identical_files_are_perfect(self, tmp_path, capsys):
        gold = write(tmp_path / "gold.conllu", GOLD)
        assert main(["eval", "--gold", gold, "--pred", gold]) == 0
        out = capsys.readouterr().out
        assert "UAS: 100.00" in out and "LAS: 100.00" in out

    def test_two_decimal_formatting(self, tmp_path, capsys):
        gold = write(tmp_path / "gold.conllu", GOLD)
        pred = write(tmp_path / "pred.conllu",
                     "1\tdogs\t_\tNOUN\t_\t_\t0\tnsubj\t_\t_\n"
                     "2\trun\t_\tVERB\t_\t_\t0\troot\t_\t_\n")
        assert main(["eval", "--gold", gold, "--pred", pred]) == 0
        out = capsys.readouterr().out
        assert "UAS: 50.00" in out

    def test_sentence_count_mismatch_fails(self, tmp_path, capsys):
        gold = write(tmp_path / "gold.conllu", GOLD)
        pred = write(tmp_path / "pred.conllu", GOLD + "\n" + GOLD)
        assert main(["eval", "--gold", gold, "--pred", pred]) == 1


class TestParamsCommand:
    def test_loc_fixture_counts_match(self, tmp_path, capsys):
        # three-label fixture corpus with x=2, y=1 gives 2048*3 + 4 + 3
        corpus = (
            "1\ta\t_\tX\t_\t_\t2\tnsubj\t_\t_\n"
            "2\tb\t_\tX\t_\t_\t0\troot\t_\t_\n"
            "3\tc\t_\tX\t_\t_\t2\tobj\t_\t_\n"
        )
        train = write(tmp_path / "fixture.conllu", corpus)
        cfg = write(tmp_path / "cfg.json", json.dumps({
            "model_kind": "loc", "emb_dim": 1024, "context_layers": 0,
            "x": 2, "y": 1, "exact_counts": True, "train_file": train,
        }))
        assert main(["params", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "formula:  6151" in out
        assert "registry: 6151" in out
        assert "OK" in out

    def test_arcloc_fixture(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", json.dumps({
            "model_kind": "arcloc", "emb_dim": 1024, "context_layers": 0,
            "d": 2, "r": 2, "exact_counts": True, "n_labels": 1,
        }))
        assert main(["params", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "formula:  4113" in out and "registry: 4113" in out

    def test_config_without_corpus_or_label_count_fails(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", json.dumps({
            "model_kind": "arcloc", "emb_dim": 16, "context_layers": 0, "d": 2, "r": 2,
        }))
        assert main(["params", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: config needs train_file or n_labels\n"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", json.dumps({"model_kind": "loc", "mystery": 1}))
        assert main(["params", "--config", cfg]) == 1
        assert "unknown config keys: mystery" in capsys.readouterr().err

    def test_wrong_emb_dim_fails_under_exact_flag(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", json.dumps({
            "model_kind": "arcloc", "emb_dim": 64, "context_layers": 0,
            "d": 2, "r": 2, "exact_counts": True, "n_labels": 1,
        }))
        assert main(["params", "--config", cfg]) == 1
        assert "1024" in capsys.readouterr().err


class TestGradcheckCommand:
    KINK = {"model_kind": "arcloc", "emb_dim": 16, "context_layers": 0, "d": 8, "r": 8,
            "mlp_dropout": 0.0}

    def test_small_arcloc_model_passes(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", json.dumps({
            "model_kind": "arcloc", "emb_dim": 16, "context_layers": 1,
            "d": 8, "r": 8, "layers": 1, "k": 2,
            "mlp_dropout": 0.0, "emb_dropout": 0.0,
        }))
        assert main(["gradcheck", "--config", cfg, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert float(out.split(":")[1]) < 1e-5

    def test_relu_kink_skipped_not_failed(self, tmp_path, capsys):
        # at seed 3 two sampled coordinates move a ReLU input across 0
        cfg = write(tmp_path / "cfg.json", json.dumps(self.KINK))
        assert main(["gradcheck", "--config", cfg, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        skipped = int(re.search(r"skipped (\d+) coordinates at kinks", out).group(1))
        assert 1 <= skipped <= 3
        assert float(out.split(":")[1]) < 1e-5

    def test_scaled_relu_gradient_fails(self, tmp_path, capsys, monkeypatch):
        def bad_relu(a):
            def _bw(g):
                T._accum(a, 1.01 * g * (a.data > 0))
            return T.Tensor._from_op(np.maximum(a.data, 0.0), (a,), _bw)

        for module in (encoder, refiner, scorers):
            monkeypatch.setattr(module, "relu", bad_relu)
        cfg = write(tmp_path / "cfg.json", json.dumps(self.KINK))
        for seed in (3, 4):
            assert main(["gradcheck", "--config", cfg, "--seed", str(seed)]) == 1
            assert float(capsys.readouterr().out.split(":")[1]) > 1e-3

    def test_float32_config_is_one_error_line(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", json.dumps({**self.KINK, "dtype": "float32"}))
        assert main(["gradcheck", "--config", cfg, "--seed", "3"]) == 1
        assert capsys.readouterr().err == "error: grad_check requires 64-bit parameters, got float32\n"

    def test_loc_model_passes(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", json.dumps({
            "model_kind": "loc", "emb_dim": 16, "context_layers": 1,
            "x": 6, "y": 4, "mlp_dropout": 0.0, "emb_dropout": 0.0,
        }))
        assert main(["gradcheck", "--config", cfg, "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert float(out.split(":")[1]) < 1e-5


@pytest.fixture(scope="session")
def toy_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    train, dev = make_corpus(32, 16, seed=11)
    train_path = root / "train.conllu"
    dev_path = root / "dev.conllu"
    train_path.write_text(write_conllu(train), encoding="utf-8")
    dev_path.write_text(write_conllu(dev), encoding="utf-8")
    return str(train_path), str(dev_path), root


@pytest.fixture(scope="session")
def trained_toy(toy_files, tmp_path_factory):
    train_path, dev_path, _ = toy_files
    root = tmp_path_factory.mktemp("run")
    model_path = str(root / "toy.npz")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model_kind": "arcloc", "emb_dim": 64, "context_layers": 1,
        "d": 32, "r": 32, "layers": 0,
        "mlp_dropout": 0.0, "emb_dropout": 0.0,
        "epochs": 60, "lr": 2e-3, "warmup_epochs": 0,
        "use_swa": False, "seed": 1,
        "train_file": train_path, "dev_file": dev_path,
        "model_out": model_path,
    }), encoding="utf-8")
    assert main(["train", "--config", str(cfg_path)]) == 0
    return model_path, train_path, dev_path, root


class TestTrainParseEvalPipeline:
    def test_metrics_log_is_json_lines(self, trained_toy):
        model_path, *_ = trained_toy
        rows = metrics_rows(model_path)
        assert len(rows) == 60
        for row in rows[:3]:
            assert set(row) == {"epoch", "train_loss", "dev_uas", "dev_las", "filter_oracle",
                                "skipped_steps", "grad_norm"}

    def test_overfit_pipeline_reaches_99_uas(self, trained_toy, tmp_path, capsys):
        model_path, train_path, _, _ = trained_toy
        out_path = str(tmp_path / "pred.conllu")
        assert main(["parse", "--model", model_path, "--input", train_path,
                     "--decoder", "eisner", "--output", out_path]) == 0
        capsys.readouterr()
        assert main(["eval", "--gold", train_path, "--pred", out_path]) == 0
        out = capsys.readouterr().out
        uas = float(out.splitlines()[0].split(":")[1])
        assert uas >= 99.0

    def test_parse_output_reparseable(self, trained_toy, tmp_path):
        model_path, _, dev_path, _ = trained_toy
        out_path = tmp_path / "pred.conllu"
        assert main(["parse", "--model", model_path, "--input", dev_path,
                     "--decoder", "mst", "--output", str(out_path)]) == 0
        again = parse_conllu(out_path.read_text(encoding="utf-8"))
        assert len(again) == 16

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(bogus=1), "unknown key 'bogus'"),
        (lambda m: m.pop("kind"), "missing key 'kind'"),
    ], ids=["unknown", "missing"])
    def test_bad_model_keys_in_checkpoint_rejected(self, trained_toy, tmp_path, capsys, edit, message):
        model_path, _, dev_path, _ = trained_toy
        bad_path = save_with_meta(model_path, str(tmp_path / "bad.npz"), lambda m: edit(m["model"]))
        assert main(["parse", "--model", bad_path, "--input", dev_path,
                     "--output", str(tmp_path / "x.conllu")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad_path}: bad model config: ") and message in err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["model"].update(emb_dim="8"), "bad model config: 'emb_dim' must be int, got \"8\""),
        (lambda m: m["model"].update(k=2.5), "bad model config: 'k' must be int, got 2.5"),
        (lambda m: m["model"].update(use_upos="yes"), "bad model config: 'use_upos' must be bool, got \"yes\""),
        (lambda m: m.update(model=list(m["model"].items())), "model must be a JSON object"),
        (lambda m: m["vocab"].pop("label_to_id"), "vocab must be a JSON object holding objects"),
    ], ids=["str-width", "float-k", "str-flag", "model-list", "no-label-table"])
    def test_bad_checkpoint_values_rejected(self, trained_toy, tmp_path, capsys, edit, message):
        model_path, _, dev_path, _ = trained_toy
        bad_path = save_with_meta(model_path, str(tmp_path / "bad.npz"), edit)
        assert main(["parse", "--model", bad_path, "--input", dev_path,
                     "--output", str(tmp_path / "x.conllu")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad_path}: {message}")
        assert err.count("error:") == 1 and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("foreign", ["truncated", "conllu", "no-vocab", "no-model"])
    def test_file_that_is_no_checkpoint_fails_parse(self, trained_toy, tmp_path, capsys, foreign):
        model_path, _, dev_path, _ = trained_toy
        bad_path = dev_path
        if foreign == "truncated":
            bad_path = str(tmp_path / "cut.npz")
            Path(bad_path).write_bytes(Path(model_path).read_bytes()[:3000])
        elif foreign.startswith("no-"):
            key = foreign[len("no-"):]
            bad_path = save_with_meta(model_path, str(tmp_path / "bad.npz"), lambda m: m.pop(key))
        assert main(["parse", "--model", bad_path, "--input", dev_path,
                     "--output", str(tmp_path / "x.conllu")]) == 1
        assert capsys.readouterr().err == f"error: {bad_path}: not an arcforge checkpoint\n"

    @pytest.mark.parametrize("decoder", ["mst", "eisner"])
    def test_nan_score_weight_fails_parse(self, trained_toy, tmp_path, capsys, decoder):
        model_path, _, dev_path, _ = trained_toy
        with np.load(model_path) as z:
            arrays = {key: z[key] for key in z.files}
        (key,) = [k for k in arrays if k.startswith("param:scorer.score_out.")
                  and arrays[k].ndim == 2]
        arrays[key] = arrays[key].copy()
        arrays[key].flat[0] = np.nan
        bad_path = str(tmp_path / "nan.npz")
        np.savez(bad_path, **arrays)
        assert main(["parse", "--model", bad_path, "--input", dev_path, "--decoder", decoder,
                     "--output", str(tmp_path / "x.conllu")]) == 1
        assert capsys.readouterr().err.startswith("error: NaN score for arc ")

    def test_seed_flag_overrides_config(self, toy_files, tmp_path, capsys):
        train_path, dev_path, _ = toy_files
        model_path = str(tmp_path / "m.npz")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model_kind": "arcloc", "emb_dim": 16, "context_layers": 0,
            "d": 8, "r": 8, "mlp_dropout": 0.0,
            "epochs": 1, "lr": 1e-3, "use_swa": False, "seed": 1,
            "train_file": train_path, "dev_file": dev_path, "model_out": model_path,
        }), encoding="utf-8")
        a = main(["train", "--config", str(cfg), "--seed", "7"])
        rows_a = metrics_rows(model_path)
        b = main(["train", "--config", str(cfg), "--seed", "7"])
        rows_b = metrics_rows(model_path)
        assert a == b == 0
        assert rows_a == rows_b


class TestTrainCommand:
    SMALL = {"model_kind": "arcloc", "emb_dim": 16, "context_layers": 0, "d": 8, "r": 8,
             "mlp_dropout": 0.0, "epochs": 1, "lr": 1e-3, "use_swa": False}

    def test_float32_train_leaves_gradcheck_in_64_bit(self, toy_files, tmp_path, capsys):
        train_path, _, _ = toy_files
        train_cfg = write(tmp_path / "train.json", json.dumps({
            **self.SMALL, "dtype": "float32",
            "train_file": train_path, "model_out": str(tmp_path / "m.npz"),
        }))
        check_cfg = write(tmp_path / "check.json", json.dumps({
            "model_kind": "arcloc", "emb_dim": 16, "context_layers": 1,
            "d": 8, "r": 8, "layers": 1, "k": 2,
            "mlp_dropout": 0.0, "emb_dropout": 0.0,
        }))
        assert main(["train", "--config", train_cfg]) == 0
        assert main(["gradcheck", "--config", check_cfg, "--seed", "3"]) == 0

    @pytest.mark.parametrize("decoder", ["mst", "eisner"])
    def test_float32_checkpoint_parses_in_float32(self, toy_files, tmp_path, monkeypatch, decoder):
        train_path, dev_path, _ = toy_files
        model_path = str(tmp_path / "m.npz")
        cfg = write(tmp_path / "cfg.json", json.dumps({
            **self.SMALL, "context_layers": 1, "layers": 1, "k": 2, "dtype": "float32",
            "train_file": train_path, "model_out": model_path,
        }))
        assert main(["train", "--config", cfg]) == 0
        dtypes = []
        from_op, init = T.Tensor._from_op, T.Tensor.__init__

        def recording_from_op(cls, data, prev, backward):
            dtypes.append(data.dtype)
            return from_op(data, prev, backward)

        def recording_init(self, data, requires_grad=False):
            init(self, data, requires_grad)
            if not requires_grad:  # a constant; parameters are built in float64, then cast
                dtypes.append(self.data.dtype)

        monkeypatch.setattr(T.Tensor, "_from_op", classmethod(recording_from_op))
        monkeypatch.setattr(T.Tensor, "__init__", recording_init)
        assert main(["parse", "--model", model_path, "--input", dev_path, "--decoder", decoder,
                     "--output", str(tmp_path / "pred.conllu")]) == 0
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}
        monkeypatch.undo()
        _, vocab, _ = load_checkpoint(model_path)
        model = build_model(RunConfig(**self.SMALL).model_config(vocab.n_labels), vocab)
        assert {p.data.dtype.name for p in model.parameters()} == {"float64"}

    def test_no_dev_set_reported_and_stored_as_null(self, toy_files, tmp_path, capsys):
        train_path, _, _ = toy_files
        model_path = str(tmp_path / "m.npz")
        cfg = write(tmp_path / "cfg.json", json.dumps({
            **self.SMALL, "train_file": train_path, "model_out": model_path,
        }))
        assert main(["train", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "no dev set" in out and "LAS" not in out
        _, _, extra = load_checkpoint(model_path)
        assert extra["best_las"] is None


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | meaning |")[1].split("\n\n")[0]
    documented = set()
    for row in table.splitlines():
        if row.startswith("| `"):
            key_column = re.sub(r"\([^)]*\)", "", row.split("|")[1])  # drop "(default)" notes
            documented.update(re.findall(r"`(\w+)`", key_column))
    assert documented == {f.name for f in fields(RunConfig)}
