"""CLI tests: command contracts and the train/parse/eval pipeline."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcforge import encoder, scorers
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


def without_wall_clock(rows):
    return [{k: v for k, v in row.items() if k != "tokens_per_s"} for row in rows]


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

    @pytest.mark.parametrize("text, message", [
        (GOLD.replace("\t2\tnsubj", "\t7\tnsubj"), "line 1: HEAD 7 out of range for a 2-token sentence"),
        ("1\tdogs\n", "line 1: expected at least 8 columns, got 2"),
    ], ids=["head", "columns"])
    def test_malformed_file_is_named(self, tmp_path, capsys, text, message):
        gold = write(tmp_path / "gold.conllu", GOLD)
        pred = write(tmp_path / "pred.conllu", text)
        assert main(["eval", "--gold", gold, "--pred", pred]) == 1
        assert capsys.readouterr().err == f"error: {pred}: {message}\n"

    def test_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        gold = write(tmp_path / "gold.conllu", GOLD)
        (tmp_path / "pred.conllu").write_bytes(b"\xff" + GOLD.encode())
        assert main(["eval", "--gold", gold, "--pred", str(tmp_path / "pred.conllu")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'pred.conllu'}: 'utf-8' codec")


class TestModuleEntryPoint:
    def test_exit_1_reaches_the_shell(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        run = subprocess.run([sys.executable, "-m", "arcforge.cli", "params", "--config", "missing.json"],
                             cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 1, run.stdout + run.stderr
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr


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

    def test_count_mismatch_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("arcforge.cli.formula_param_count", lambda *args, **kwargs: 0)
        cfg = write(tmp_path / "cfg.json", json.dumps({
            "model_kind": "arcloc", "emb_dim": 1024, "context_layers": 0,
            "d": 2, "r": 2, "exact_counts": True, "n_labels": 1,
        }))
        assert main(["params", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: the formula and registry counts differ\n"

    @pytest.mark.parametrize("text", ['{"model_kind": "loc",', b'\xff{}'], ids=["cut", "not-utf8"])
    def test_config_that_is_not_json_is_named(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["params", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1

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

        for module in (encoder, scorers):  # the transformer layers' relu is inside ffn_sublayer
            monkeypatch.setattr(module, "relu", bad_relu)
        cfg = write(tmp_path / "cfg.json", json.dumps(self.KINK))
        for seed in (3, 4):
            assert main(["gradcheck", "--config", cfg, "--seed", str(seed)]) == 1
            out, err = capsys.readouterr()
            assert float(out.split(":")[1]) > 1e-3
            assert re.fullmatch(r"error: max relative error \S+ is not below 1e-05\n", err)

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
                                "skipped_steps", "grad_norm", "tokens_per_s"}
            assert 0 < row["tokens_per_s"] < math.inf

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
        (lambda m: m["model"].update(mlp_dropout=1.0), "bad model config: mlp_dropout must be in [0, 1), got 1.0"),
        (lambda m: m["model"].update(context_heads=0), "bad model config: context_heads must be >= 1, got 0"),
        (lambda m: m["model"].update(n_labels=0), "bad model config: n_labels must be >= 1"),
        (lambda m: m["model"].update(layers=-1), "bad model config: layers must be >= 0 and k >= 1"),
        (lambda m: m["model"].update(k=0), "bad model config: layers must be >= 0 and k >= 1"),
        (lambda m: m["vocab"].update(label_to_id={k: i + 1000 for k, i in m["vocab"]["label_to_id"].items()}),
         "bad vocab: label_to_id ids must be the ints 0.."),
        (lambda m: m["vocab"].update(upos_to_id={k: i + 0.5 for k, i in m["vocab"]["upos_to_id"].items()}),
         "bad vocab: upos_to_id ids must be the ints 2.."),
        (lambda m: m.update(version=2), "unsupported checkpoint version 2"),
    ], ids=["str-width", "float-k", "str-flag", "model-list", "no-label-table", "dropout-one",
            "zero-heads", "zero-labels", "negative-layers", "zero-k", "shifted-labels", "float-upos",
            "version-2"])
    def test_bad_checkpoint_values_rejected(self, trained_toy, tmp_path, capsys, edit, message):
        model_path, _, dev_path, _ = trained_toy
        bad_path = save_with_meta(model_path, str(tmp_path / "bad.npz"), edit)
        assert main(["parse", "--model", bad_path, "--input", dev_path,
                     "--output", str(tmp_path / "x.conllu")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad_path}: {message}")
        assert err.count("error:") == 1 and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("foreign", ["truncated", "conllu", "no-vocab", "no-model",
                                         "renamed-param", "reshaped-param", "complex-param", "int-param"])
    def test_file_that_is_no_checkpoint_fails_parse(self, trained_toy, tmp_path, capsys, foreign):
        model_path, _, dev_path, _ = trained_toy
        bad_path = dev_path
        message = "not an arcforge checkpoint"
        if foreign == "truncated":
            bad_path = str(tmp_path / "cut.npz")
            Path(bad_path).write_bytes(Path(model_path).read_bytes()[:3000])
        elif foreign.startswith("no-"):
            key = foreign[len("no-"):]
            bad_path = save_with_meta(model_path, str(tmp_path / "bad.npz"), lambda m: m.pop(key))
        elif foreign.endswith("-param"):
            with np.load(model_path) as z:
                arrays = {key: z[key] for key in z.files}
            weight = arrays.pop("param:scorer.arc_tensor")
            if foreign == "renamed-param":
                arrays["param:scorer.arc_weight"] = weight
                message = ("bad parameters: state mismatch: missing ['scorer.arc_tensor'], "
                           "unexpected ['scorer.arc_weight']")
            elif foreign == "reshaped-param":
                arrays["param:scorer.arc_tensor"] = weight[:-1]
                message = ("bad parameters: shape mismatch for scorer.arc_tensor: "
                           "(31, 32, 32) vs (32, 32, 32)")
            else:
                kind = {"complex-param": np.complex128, "int-param": np.int32}[foreign]
                arrays["param:scorer.arc_tensor"] = weight.astype(kind)
                message = f"bad parameters: scorer.arc_tensor holds {np.dtype(kind)}, not floats"
            bad_path = str(tmp_path / "bad.npz")
            np.savez(bad_path, **arrays)
        assert main(["parse", "--model", bad_path, "--input", dev_path,
                     "--output", str(tmp_path / "x.conllu")]) == 1
        assert capsys.readouterr().err == f"error: {bad_path}: {message}\n"

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
        assert without_wall_clock(rows_a) == without_wall_clock(rows_b)


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

    def test_config_without_train_file(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", json.dumps({**self.SMALL, "model_out": str(tmp_path / "m.npz")}))
        assert main(["train", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: config needs train_file\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_run_that_fails_its_checks_writes_no_metrics_log(self, toy_files, tmp_path, capsys):
        train_path, _, _ = toy_files
        cfg = {**self.SMALL, "max_train_len": 1, "train_file": train_path,
               "model_out": str(tmp_path / "m.npz")}
        assert main(["train", "--config", write(tmp_path / "new.json", json.dumps(cfg))]) == 1
        assert not (tmp_path / "m.npz.metrics.jsonl").exists()
        earlier = tmp_path / "earlier.jsonl"
        earlier.write_bytes(b'{"epoch": 1, "train_loss": 2.5}\n')
        cfg["metrics_out"] = str(earlier)
        assert main(["train", "--config", write(tmp_path / "old.json", json.dumps(cfg))]) == 1
        assert earlier.read_bytes() == b'{"epoch": 1, "train_loss": 2.5}\n'
        assert capsys.readouterr().err.count("error: no training sentences of length <= 1\n") == 2

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

    def test_model_out_without_npz_suffix_is_the_path_written(self, toy_files, tmp_path, capsys):
        # np.savez appends ".npz" to a file name that lacks it
        train_path, dev_path, _ = toy_files
        model_path = str(tmp_path / "model.ckpt")
        cfg = write(tmp_path / "cfg.json", json.dumps({
            **self.SMALL, "train_file": train_path, "model_out": model_path,
        }))
        assert main(["train", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith(f"saved {model_path} ")
        assert not Path(model_path + ".npz").exists()
        assert main(["parse", "--model", model_path, "--input", dev_path,
                     "--output", str(tmp_path / "pred.conllu")]) == 0

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


# -- every exit path: mutated configs, checkpoints and CoNLL-U --------------

NAN, INF = float("nan"), float("inf")
# a small run every mutated config starts from
FUZZ_RUN = {"model_kind": "arcloc", "emb_dim": 8, "context_layers": 1, "d": 4, "r": 4,
            "layers": 1, "k": 2, "epochs": 1, "lr": 1e-3, "use_swa": False, "seed": 1}
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3),
    st.sampled_from([-1.0, 0.0, 0.5, 2.0, NAN, INF]),
    st.sampled_from(["", "arcloc", "loc", "float32", "mst", "upos", "x\x00"]),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.just("a"), st.integers(0, 1), max_size=1),
)
CONLLU_FIELDS = ["", "_", "0", "-1", "1", "99", "2.5", "1-2", "1.1", "x", "root", "PUNCT", " "]
CONLLU_LINES = ["# comment", "", "1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_", "1.1\tx\t_\tX\t_\t_\t_\t_\t_\t_",
                "garbage", "1\tx", "1 dogs _ NOUN _ _ 0 root _ _"]


@pytest.fixture(scope="session")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    train, dev = make_corpus(8, 4, seed=3)
    files = {"train": root / "train.conllu", "dev": root / "dev.conllu", "dir": root,
             "missing": root / "missing.conllu", "empty": root / "empty.conllu",
             "model": root / "m.npz", "config": root / "run.json", "array": root / "array.npz"}
    files["train"].write_text(write_conllu(train), encoding="utf-8")
    files["dev"].write_text(write_conllu(dev), encoding="utf-8")
    files["empty"].write_text("", encoding="utf-8")
    np.savez(files["array"], x=np.zeros(3))
    files["config"].write_text(json.dumps({**FUZZ_RUN, "train_file": str(files["train"]),
                                           "model_out": str(files["model"])}), encoding="utf-8")
    assert main(["train", "--config", str(files["config"])]) == 0
    return files


def mutated_conllu(data, text: str) -> bytes:
    lines = text.split("\n")
    not_utf8 = False
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["drop", "repeat", "field", "insert", "cut", "crlf", "bytes"]))
        i = data.draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "drop" and lines:
            del lines[i]
        elif op == "repeat" and lines:
            lines.insert(i, lines[i])
        elif op == "field" and lines:
            cols = lines[i].split("\t")
            cols[data.draw(st.integers(0, len(cols) - 1))] = data.draw(st.sampled_from(CONLLU_FIELDS))
            lines[i] = "\t".join(cols)
        elif op == "insert":
            lines.insert(i, data.draw(st.sampled_from(CONLLU_LINES)))
        elif op == "cut":
            joined = "\n".join(lines)
            lines = joined[:data.draw(st.integers(0, len(joined)))].split("\n")
        elif op == "crlf":
            lines = [line + "\r" for line in lines]
        elif op == "bytes":
            not_utf8 = True
    raw = "\n".join(lines).encode("utf-8")
    if not_utf8:
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


def mutated_config(data, files, out_dir: Path) -> bytes:
    run = {**FUZZ_RUN, "train_file": str(files["train"]), "dev_file": str(files["dev"]),
           "model_out": str(out_dir / "out.npz")}
    keys = sorted(f.name for f in fields(RunConfig)) + ["bogus"]
    # outputs stay inside out_dir, so no run overwrites a shared file
    (out_dir / "sub").mkdir()
    (out_dir / "in.conllu").write_bytes(mutated_conllu(data, files["train"].read_text(encoding="utf-8")))
    paths = {"_file": [str(files[k]) for k in ("train", "dev", "model", "dir", "missing", "empty")]
             + [str(out_dir / "in.conllu")],
             "_out": [str(out_dir / p) for p in ("sub", "no/m.npz", "m2.npz")]}
    for _ in range(data.draw(st.integers(0, 3))):
        key = data.draw(st.sampled_from(keys))
        if data.draw(st.booleans()):
            run.pop(key, None)
        elif key.endswith(tuple(paths)) and data.draw(st.booleans()):
            run[key] = data.draw(st.sampled_from(paths[key[key.rindex("_"):]]))
        else:
            run[key] = data.draw(JSON_VALUES)
    text = json.dumps(run)
    form = data.draw(st.sampled_from(["object"] * 6 + ["cut", "array", "bytes"]))
    if form == "cut":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    elif form == "array":
        text = json.dumps(list(run.items()))
    raw = text.encode("utf-8")
    return b"\xff" + raw if form == "bytes" else raw


def mutated_checkpoint(data, files, path: Path) -> str:
    form = data.draw(st.sampled_from(["intact", "cut", "foreign", "meta", "param"]))
    if form == "foreign":
        return str(files[data.draw(st.sampled_from(["train", "config", "empty", "dir", "missing", "array"]))])
    raw = files["model"].read_bytes()
    if form == "cut":
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        return str(path)
    if form == "intact":
        return str(files["model"])
    with np.load(files["model"]) as z:
        arrays = {key: z[key] for key in z.files}
    if form == "meta":
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        owner = meta
        key = data.draw(st.sampled_from(sorted(meta)))
        if isinstance(meta[key], dict) and meta[key] and data.draw(st.booleans()):
            owner, key = meta[key], data.draw(st.sampled_from(sorted(meta[key])))
        if data.draw(st.booleans()):
            del owner[key]
        else:
            owner[key] = data.draw(JSON_VALUES)
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    else:
        key = data.draw(st.sampled_from(sorted(k for k in arrays if k.startswith("param:"))))
        arr = arrays.pop(key)
        op = data.draw(st.sampled_from(["drop", "rename", "cut", "scalar", "nan", "int", "bool",
                                        "complex", "str", "float32"]))
        if op != "drop":
            arrays[key + "x" if op == "rename" else key] = {
                "rename": arr, "cut": arr.reshape(-1)[:-1], "scalar": np.float64(1.0),
                "nan": np.full_like(arr, NAN), "int": arr.astype(np.int32), "bool": arr > 0,
                "complex": arr + 1j, "str": arr.astype(str), "float32": arr.astype(np.float32),
            }[op]
    np.savez(path, **arrays)
    return str(path)


@contextlib.contextmanager
def inside(directory):
    """Run the block in ``directory``: a mutated config may name its
    outputs relative to the working directory (contextlib.chdir needs
    Python 3.11)."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


class TestEveryExitPath:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_exits_0_or_1_with_one_error_line(self, fuzz_files, data):
        with tempfile.TemporaryDirectory() as tmp, inside(tmp):
            out_dir = Path(tmp)
            command = data.draw(st.sampled_from(["train", "params", "gradcheck", "parse", "eval"]))
            if command in ("train", "params", "gradcheck"):
                (out_dir / "run.json").write_bytes(mutated_config(data, fuzz_files, out_dir))
                argv = [command, "--config", "run.json"]
            else:
                dev = fuzz_files["dev"].read_text(encoding="utf-8")
                (out_dir / "in.conllu").write_bytes(mutated_conllu(data, dev))
                if command == "parse":
                    argv = ["parse", "--model", mutated_checkpoint(data, fuzz_files, out_dir / "m.npz"),
                            "--input", "in.conllu", "--output", "out.conllu",
                            "--decoder", data.draw(st.sampled_from(["eisner", "mst"]))]
                else:
                    argv = ["eval", "--gold", "in.conllu", "--pred", str(fuzz_files["dev"])]
                    if data.draw(st.booleans()):
                        argv = ["eval", "--gold", str(fuzz_files["dev"]), "--pred", "in.conllu"]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        err = stderr.getvalue()
        if code == 0:
            assert err == ""
        else:
            assert code == 1
            assert err.startswith("error: ") and err.count("\n") == 1, err
