"""Command-line entry points: train, parse, eval, params, gradcheck.

All commands are batch operations driven by a flat JSON config and/or
flags; randomness is controlled by --seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import RunConfig, load_run_config
from .conllu import Sentence, Token, Vocab, build_vocab, parse_conllu, write_conllu
from .evaluation import PUNCT_POLICIES, uas_las
from .model import DECODERS, build_model, load_checkpoint, save_checkpoint
from .training import end_to_end_grad_check, formula_param_count, train


def _read_conllu_file(path) -> list[Sentence]:
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_conllu(fh.read())
        except ValueError as exc:  # malformed CoNLL-U, or not UTF-8
            raise ValueError(f"{path}: {exc}") from None


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, {"seed": args.seed})
    if not cfg.train_file:
        print("error: config needs train_file", file=sys.stderr)
        return 1
    train_sents = _read_conllu_file(cfg.train_file)
    dev_sents = _read_conllu_file(cfg.dev_file) if cfg.dev_file else []
    vocab = build_vocab(train_sents, min_count=cfg.min_count)
    model = build_model(cfg.model_config(vocab.n_labels), vocab, seed=cfg.seed)
    metrics_path = cfg.metrics_out or cfg.model_out + ".metrics.jsonl"
    fh = None  # opened on the first row, so a run that fails train's checks keeps an earlier log

    def log_row(row):
        nonlocal fh
        if fh is None:
            fh = open(metrics_path, "w", encoding="utf-8")
        fh.write(json.dumps(row) + "\n")

    try:
        result = train(model, train_sents, dev_sents, vocab, cfg.train_config(), log_fn=log_row)
    finally:
        if fh is not None:
            fh.close()
    model.load_state(result.best_state)
    save_checkpoint(cfg.model_out, model, vocab,
                    extra={"best_epoch": result.best_epoch, "best_las": result.best_las})
    dev = "no dev set" if result.best_las is None else f"dev LAS {result.best_las:.2f}"
    print(f"saved {cfg.model_out} (best epoch {result.best_epoch}, {dev}); metrics in {metrics_path}")
    return 0


def cmd_parse(args) -> int:
    model, vocab, _ = load_checkpoint(args.model)
    model.eval()
    sentences = _read_conllu_file(args.input)
    predictions = [model.predict(s, vocab, decoder=args.decoder).as_prediction() for s in sentences]
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(write_conllu(sentences, predictions))
    print(f"parsed {len(sentences)} sentences -> {args.output}")
    return 0


def cmd_eval(args) -> int:
    gold = _read_conllu_file(args.gold)
    pred = _read_conllu_file(args.pred)
    if len(gold) != len(pred):
        print(f"error: {len(gold)} gold sentences vs {len(pred)} predicted", file=sys.stderr)
        return 1
    predictions = [(p.gold_heads, p.gold_labels) for p in pred]
    uas, las = uas_las(predictions, gold, punct_policy=args.punct)
    print(f"UAS: {uas:.2f}")
    print(f"LAS: {las:.2f}")
    return 0


def _vocab_for_config(cfg: RunConfig) -> Vocab:
    if cfg.train_file:
        return build_vocab(_read_conllu_file(cfg.train_file), min_count=cfg.min_count)
    if cfg.n_labels is None:
        raise ValueError("config needs train_file or n_labels")
    return Vocab(
        form_to_id={"w": 2},
        upos_to_id={"X": 2},
        label_to_id={f"label{i}": i for i in range(cfg.n_labels)},
    )


def cmd_params(args) -> int:
    cfg = load_run_config(args.config)
    vocab = _vocab_for_config(cfg)
    model = build_model(cfg.model_config(vocab.n_labels), vocab, seed=cfg.seed)
    dims = dict(x=cfg.x, y=cfg.y, d=cfg.d, r=cfg.r)
    formula = formula_param_count(cfg.model_kind, vocab.n_labels, layers=cfg.layers,
                                  **{k: v for k, v in dims.items() if v is not None})
    registry = model.accounted_param_count()
    print(f"formula:  {formula}")
    print(f"registry: {registry}")
    if cfg.exact_counts:
        if cfg.emb_dim != 1024:
            print(f"error: the closed-form count assumes 1024-wide embeddings, config has {cfg.emb_dim}",
                  file=sys.stderr)
            return 1
        if formula != registry:
            print("error: the formula and registry counts differ", file=sys.stderr)
            return 1
        print("OK")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = load_run_config(args.config, {"seed": args.seed})
    rng = np.random.default_rng(cfg.seed)
    if cfg.train_file:
        vocab = build_vocab(_read_conllu_file(cfg.train_file), min_count=cfg.min_count)
    else:
        vocab = Vocab(
            form_to_id={f"w{i}": 2 + i for i in range(8)},
            upos_to_id={"N": 2, "V": 3},
            label_to_id={"root": 0, "dep": 1},
        )
    forms = sorted(vocab.form_to_id)
    upos = sorted(vocab.upos_to_id)
    labels = sorted(vocab.label_to_id)
    heads = [2, 0, 2, 3]  # a fixed 4-token tree; forms/tags drawn from the vocab
    tokens = [
        Token(form=forms[int(rng.integers(len(forms)))],
              upos=upos[int(rng.integers(len(upos)))],
              gold_head=h,
              gold_label=labels[int(rng.integers(len(labels)))])
        for h in heads
    ]
    sentence = Sentence(tokens)
    model = build_model(cfg.model_config(vocab.n_labels), vocab, seed=cfg.seed)
    kinks: list[tuple[str, int]] = []
    err = end_to_end_grad_check(model, sentence, vocab, eps=1e-5,
                                coords_per_param=4, rng=rng, kinks=kinks)
    print(f"skipped {len(kinks)} coordinates at kinks")
    print(f"max relative error: {err:.3e}")
    if not err < 1e-5:
        print(f"error: max relative error {err:.3e} is not below 1e-05", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="arcforge",
                                     description="arc-centric graph-based dependency parsing")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a JSON config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(fn=cmd_train)

    p_parse = sub.add_parser("parse", help="parse a CoNLL-U file with a checkpoint")
    p_parse.add_argument("--model", required=True)
    p_parse.add_argument("--input", required=True)
    p_parse.add_argument("--decoder", choices=DECODERS, default="eisner")
    p_parse.add_argument("--output", required=True)
    p_parse.set_defaults(fn=cmd_parse)

    p_eval = sub.add_parser("eval", help="score predictions against gold")
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--punct", choices=PUNCT_POLICIES, default="keep")
    p_eval.set_defaults(fn=cmd_eval)

    p_params = sub.add_parser("params", help="closed-form vs registry parameter count")
    p_params.add_argument("--config", required=True)
    p_params.set_defaults(fn=cmd_params)

    p_gc = sub.add_parser("gradcheck", help="end-to-end finite-difference gradient check")
    p_gc.add_argument("--config", required=True)
    p_gc.add_argument("--seed", type=int, default=None)
    p_gc.set_defaults(fn=cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
