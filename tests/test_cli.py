"""CLI tests: command contracts and the train/parse/eval pipeline."""

import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from arcforge.cli import main
from arcforge.config import RunConfig
from arcforge.conllu import parse_conllu, write_conllu
from arcforge.model import load_checkpoint
from arcforge.tensor import set_default_dtype
from toygrammar import make_corpus

GOLD = """1\tdogs\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\trun\t_\tVERB\t_\t_\t0\troot\t_\t_
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


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
            assert set(row) == {"epoch", "train_loss", "dev_uas", "dev_las", "filter_oracle"}

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
        with np.load(model_path) as z:
            arrays = {key: z[key] for key in z.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        edit(meta["model"])
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        bad_path = str(tmp_path / "bad.npz")
        np.savez(bad_path, **arrays)
        assert main(["parse", "--model", bad_path, "--input", dev_path,
                     "--output", str(tmp_path / "x.conllu")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad_path}: bad model config: ") and message in err

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
        try:
            assert main(["train", "--config", train_cfg]) == 0
            assert main(["gradcheck", "--config", check_cfg, "--seed", "3"]) == 0
        finally:
            set_default_dtype(np.float64)

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
