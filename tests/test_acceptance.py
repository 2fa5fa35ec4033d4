"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np
import pytest

from arcforge.conllu import Sentence, Token, build_vocab
from arcforge.decoders import cle, eisner
from arcforge.evaluation import filter_oracle_uas, uas_las
from arcforge.model import ModelConfig, build_model
from arcforge.nn import Linear
from arcforge.refiner import (
    attention_entry_count,
    filter_topk,
    reset_attention_entry_count,
)
from arcforge.tensor import Tensor, grad_check, tsum
from arcforge.training import (
    SwaState,
    TrainConfig,
    end_to_end_grad_check,
    evaluate_model,
    formula_param_count,
    train,
)
from test_tensor import _gradcheck_cases
from test_training import run_swa_and_check_means
from toygrammar import make_corpus
from treeoracle import brute_force_best_tree, tree_score


def report(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS - {message}", flush=True)


def random_scores(n, rng):
    s = rng.uniform(-5.0, 5.0, size=(n + 1, n + 1))
    np.fill_diagonal(s, -np.inf)
    s[:, 0] = -np.inf
    return s


def test_criterion_1_decoder_exactness():
    start = time.time()
    rng = np.random.default_rng(42)
    for n in (2, 3, 4, 5):
        for _ in range(200):
            s = random_scores(n, rng)
            _, best_proj = brute_force_best_tree(s, projective=True)
            _, best_any = brute_force_best_tree(s, projective=False)
            assert abs(tree_score(s, eisner(s)) - best_proj) <= 1e-9
            assert abs(tree_score(s, cle(s)) - best_any) <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(1, f"eisner and cle match brute force on 800 matrices in {elapsed:.1f}s")


def test_criterion_2_gradient_fidelity(toy_vocab):
    start = time.time()
    for name, theta, f in _gradcheck_cases():
        assert grad_check(f, theta, eps=1e-5) < 1e-6, name
    cfg = ModelConfig(kind="arcloc", n_labels=toy_vocab.n_labels, emb_dim=16,
                      context_layers=1, d=8, r=8, layers=1, k=2,
                      mlp_dropout=0.0, emb_dropout=0.0)
    model = build_model(cfg, toy_vocab, seed=3)
    model.eval()
    tokens = [Token("dog", "NOUN", 2, "nsubj"), Token("sees", "VERB", 0, "root"),
              Token("the", "DET", 4, "det"), Token("cat", "NOUN", 2, "obj")]
    sentence = Sentence(tokens)
    # sort stability: filter logits must be well separated at this point
    fwd = model.forward_parse(sentence, toy_vocab)
    for row in fwd.filter_output.logits.data:
        gaps = np.diff(np.sort(row[np.isfinite(row)]))
        assert np.min(np.abs(gaps)) > 1e-6
    err = end_to_end_grad_check(model, sentence, toy_vocab, eps=1e-5,
                                coords_per_param=4, rng=np.random.default_rng(0))
    assert err < 1e-5
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(2, f"all ops < 1e-6; full arcloc loss end-to-end {err:.2e} in {elapsed:.1f}s")


def test_criterion_3_straight_through_contract():
    n, r, k = 4, 6, 2
    rng = np.random.default_rng(7)
    big_n = n + 1
    v0 = Tensor(rng.normal(size=(big_n * big_n, r)), requires_grad=True)
    head = Linear(r, 1, rng, bias=True)
    out = filter_topk(v0, head, n=n, k=k,
                      rng=np.random.default_rng(1), gumbel_scale=0.0, st_grad=True)
    # forward: kept vectors are the hard selections, bitwise
    for row, flat in enumerate(out.kept_flat_idx):
        assert np.array_equal(out.kept_vectors.data[row], v0.data[flat])
    # backward: gradient of the summed kept vectors equals k * dE/dV0
    # with E the softmax-weighted candidate mean, per modifier
    v0.grad = None
    tsum(out.kept_vectors).backward()
    got = v0.grad
    expected = np.zeros_like(v0.data)
    w = head.weight.data[:, 0]
    for j in range(1, big_n):
        valid = [i for i in range(big_n) if i != j]
        idx = [i * big_n + j for i in valid]
        rows = v0.data[idx]
        logits = rows @ w + head.bias.data[0]
        p = np.exp(logits - logits.max())
        p /= p.sum()
        e_vec = p @ rows
        row_sums = rows.sum(axis=1)
        for a in range(len(valid)):
            expected[idx[a]] = k * p[a] + k * w * p[a] * (row_sums[a] - e_vec.sum())
    denom = np.maximum(1.0, np.maximum(np.abs(got), np.abs(expected)))
    rel = np.max(np.abs(got - expected) / denom)
    assert rel < 1e-6
    report(3, f"forward bitwise hard; backward matches analytic jacobian ({rel:.2e})")


def test_criterion_4_parameter_accounting(toy_vocab):
    n_labels = toy_vocab.n_labels
    configs = [
        ("loc", dict(x=2, y=1), 0),
        ("loc", dict(x=900, y=150), 0),
        ("arcloc", dict(d=2, r=2), 0),
        ("arcloc", dict(d=5, r=16), 1),
        ("arcloc", dict(d=5, r=16), 2),
        ("arcloc", dict(d=3, r=8), 1),
    ]
    for kind, dims, layers in configs:
        cfg = ModelConfig(kind=kind, n_labels=n_labels, emb_dim=1024,
                          context_layers=0, layers=layers, exact_counts=True, **dims)
        model = build_model(cfg, toy_vocab, seed=0)
        formula = formula_param_count(kind, n_labels, layers=layers, **dims)
        assert model.accounted_param_count() == formula, (kind, dims, layers)
    # per-layer delta is exactly 9 r^2 on the registry itself
    for r in (2, 8, 16):
        counts = []
        for layers in (0, 1, 2):
            cfg = ModelConfig(kind="arcloc", n_labels=n_labels, emb_dim=1024,
                              context_layers=0, d=2, r=r, layers=layers, exact_counts=True)
            counts.append(build_model(cfg, toy_vocab, seed=0).accounted_param_count())
        assert counts[1] - counts[0] == 9 * r * r
        assert counts[2] - counts[1] == 9 * r * r
    report(4, "formula == registry for 6 configs incl. x=900/y=150; layer delta 9r^2")


def _long_sentence(n, vocab):
    forms = sorted(vocab.form_to_id)
    tokens = []
    for j in range(1, n + 1):
        head = 0 if j == 1 else j - 1
        tokens.append(Token(forms[j % len(forms)], "NOUN", head, "dep"))
    return Sentence(tokens)


def test_criterion_5_quadratic_complexity(toy_corpus, toy_vocab):
    vocab = build_vocab(toy_corpus[0] + [Sentence([Token("w", "NOUN", 0, "dep")])])
    counts = {}
    for n in (20, 50):
        cfg = ModelConfig(kind="arcloc", n_labels=vocab.n_labels, emb_dim=16,
                          context_layers=0, d=8, r=16, layers=1, k=10,
                          mlp_dropout=0.0)
        model = build_model(cfg, vocab, seed=0)
        model.eval()
        reset_attention_entry_count()
        model.forward_parse(_long_sentence(n, vocab), vocab)
        counts[n] = attention_entry_count()
    assert counts[50] == 250_000          # (n k)^2, one layer, one head
    assert counts[20] == 40_000
    ratio = counts[50] / counts[20]
    assert abs(ratio - (50 / 20) ** 2) <= 0.1 * (50 / 20) ** 2
    report(5, f"attention stores (nk)^2 entries: n=50 -> {counts[50]}, growth ratio {ratio:.2f}")


def test_criterion_6_filter_oracle(toy_corpus, toy_vocab):
    # k >= n keeps everything: oracle is exactly 100
    cfg = ModelConfig(kind="arcloc", n_labels=toy_vocab.n_labels, emb_dim=16,
                      context_layers=0, d=8, r=8, layers=1, k=10, mlp_dropout=0.0)
    model = build_model(cfg, toy_vocab, seed=0)
    model.eval()
    kept = [model.predict(s, toy_vocab).kept_heads for s in toy_corpus[1]]
    assert filter_oracle_uas(kept, toy_corpus[1]) == 100.0
    # adversarial: logits force the gold head to rank 2 everywhere, k=1
    n = 3
    gold = Sentence([Token("a", "X", 2, "dep"), Token("b", "X", 3, "dep"), Token("c", "X", 0, "dep")])
    rng = np.random.default_rng(0)
    v0 = np.zeros((16, 4))
    head = Linear(4, 1, rng, bias=True)
    head.weight.data[:] = 0.0
    head.weight.data[0, 0] = 1.0
    head.bias.data[:] = 0.0
    for j, gold_head in enumerate(gold.gold_heads, start=1):
        for i in range(4):
            if i == j:
                continue
            v0[i * 4 + j, 0] = 5.0 if i == gold_head else 10.0 + i
    flt = filter_topk(Tensor(v0), head, n=n, k=1)
    assert filter_oracle_uas([flt.kept_heads], [gold]) == 0.0
    # hand-counted mixed fixture
    two = [gold, Sentence([Token("d", "X", 2, "dep"), Token("e", "X", 0, "dep")])]
    kept_lists = [[[2, 0], [1], [0]], [[2], [0, 1]]]  # hits: 1+1, 1+1 of 5
    assert filter_oracle_uas(kept_lists, two) == pytest.approx(80.0)
    report(6, "oracle: 100.00 with k>=n, 0.00 adversarial, hand count exact")


@pytest.mark.parametrize("layers", [0, 1])
def test_criterion_7_toy_corpus_learning(layers, toy_corpus, toy_vocab):
    train_sents, dev_sents = toy_corpus
    start = time.time()
    cfg = ModelConfig(kind="arcloc", n_labels=toy_vocab.n_labels, emb_dim=64,
                      context_layers=1, d=32, r=32, layers=layers, k=10,
                      mlp_dropout=0.0, emb_dropout=0.0)
    model = build_model(cfg, toy_vocab, seed=1)
    tcfg = TrainConfig(epochs=200, lr=2e-3, lr_transformer=2.5e-3,
                       warmup_epochs=0, warmup_epochs_transformer=0,
                       use_swa=False, seed=1)

    def reached_target(epoch, m):
        if evaluate_model(m, train_sents, toy_vocab)["uas"] < 99.0:
            return False
        return evaluate_model(m, dev_sents, toy_vocab)["uas"] >= 90.0

    train(model, train_sents, dev_sents, toy_vocab, tcfg, early_stop_fn=reached_target)
    train_uas = evaluate_model(model, train_sents, toy_vocab)["uas"]
    dev_uas = evaluate_model(model, dev_sents, toy_vocab)["uas"]
    elapsed = time.time() - start
    assert train_uas >= 99.0
    assert dev_uas >= 90.0
    assert elapsed < 300.0
    report(7, f"arcloc P={layers}: train UAS {train_uas:.2f}, dev UAS {dev_uas:.2f} in {elapsed:.0f}s")


def test_criterion_8_evaluation_protocol():
    from arcforge.conllu import parse_conllu

    gold = parse_conllu(
        "1\tbig\t_\tADJ\t_\t_\t2\tamod\t_\t_\n"
        "2\tdogs\t_\tNOUN\t_\t_\t3\tnsubj\t_\t_\n"
        "3\trun\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
        "4\t!\t_\tPUNCT\t_\t_\t3\tpunct\t_\t_\n"
    )
    # heads right for tokens 2,3,4; labels right for 3,4 among those
    pred = [([3, 3, 0, 3], ["amod", "wrong", "root", "punct"])]
    uas, las = uas_las(pred, gold, "keep")
    assert uas == pytest.approx(75.0, abs=0.01)     # 3 of 4
    assert las == pytest.approx(50.0, abs=0.01)     # 2 of 4
    uas_d, las_d = uas_las(pred, gold, "upos")
    assert uas_d == pytest.approx(100.0 * 2 / 3, abs=0.01)
    assert las_d == pytest.approx(100.0 * 1 / 3, abs=0.01)
    uas_p, las_p = uas_las(pred, gold, "pos-set")
    assert (uas_p, las_p) == (uas_d, las_d)
    report(8, "UAS/LAS and punctuation policies match hand computation to 0.01")


def test_criterion_9_swa_exact_mean(toy_corpus, toy_vocab, monkeypatch):
    rng = np.random.default_rng(5)
    snaps = [{"w": rng.normal(size=(6, 4)), "b": rng.normal(size=3)} for _ in range(5)]
    swa = SwaState()
    for s in snaps:
        swa.update(s)
    avg = swa.finalize()
    for key in ("w", "b"):
        direct = sum(s[key] for s in snaps) / 5.0
        assert np.max(np.abs(avg[key] - direct)) < 1e-12
    # integrated: every SWA epoch evaluates the running mean, and the
    # kept checkpoint is the state evaluated at the best epoch
    cfg = ModelConfig(kind="arcloc", n_labels=toy_vocab.n_labels, emb_dim=16,
                      context_layers=0, d=8, r=8, mlp_dropout=0.0)
    model = build_model(cfg, toy_vocab, seed=2)
    run_swa_and_check_means(monkeypatch, model, toy_corpus, toy_vocab,
                            TrainConfig(epochs=6, lr=1e-3, use_swa=True, swa_start_epoch=5,
                                        swa_lr=1e-4, seed=2))
    report(9, "averaged parameters equal the arithmetic snapshot mean to 1e-12")


def test_criterion_10_training_determinism(toy_corpus, toy_vocab):
    sequences = []
    for _ in range(2):
        cfg = ModelConfig(kind="arcloc", n_labels=toy_vocab.n_labels, emb_dim=32,
                          context_layers=1, d=16, r=16, layers=1, k=4,
                          mlp_dropout=0.2, emb_dropout=0.1)
        model = build_model(cfg, toy_vocab, seed=9)
        res = train(model, toy_corpus[0], toy_corpus[1], toy_vocab,
                    TrainConfig(epochs=8, lr=1e-3, use_swa=True, swa_start_epoch=6,
                                swa_lr=1e-4, seed=9))
        sequences.append([row["dev_las"] for row in res.metrics])
    assert sequences[0] == sequences[1]
    report(10, f"identical dev LAS sequences across runs: {sequences[0][-1]:.2f} final")
