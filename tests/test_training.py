"""Losses, optimizer, schedule, SWA, batching, accounting, and train-loop tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcforge.conllu import Sentence, Token
from arcforge.model import ModelConfig, build_model
from arcforge.tensor import Tensor, grad_check
from arcforge.training import (
    Adam,
    SwaState,
    TrainConfig,
    clip_gradients,
    evaluate_model,
    formula_param_count,
    head_selection_loss,
    label_loss,
    lr_schedule,
    make_batches,
    sentence_loss,
    train,
)


def tt(a):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)


def masked(raw):
    """``raw`` with -1e9 on the diagonal and in column 0, cells the loss
    must read past."""
    raw = np.array(raw, dtype=np.float64)
    np.fill_diagonal(raw, -1e9)
    raw[:, 0] = -1e9
    return tt(raw)


@st.composite
def non_candidate_edits(draw):
    """A raw score matrix, gold heads, the non-candidate cells (the
    diagonal and column 0) and values to write there: arbitrary finite
    floats, or the -1e9 of the old score mask."""
    n = draw(st.integers(1, 12))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = (rng.normal(size=(n + 1, n + 1)) * draw(st.sampled_from([0.1, 1.0, 30.0]))).astype(dtype)
    gold = [h + (h >= j) for j, h in enumerate(draw(st.lists(st.integers(0, n - 1),
                                                             min_size=n, max_size=n)), start=1)]
    cells = np.eye(n + 1, dtype=bool)
    cells[:, 0] = True
    finite = st.floats(allow_nan=False, allow_infinity=False, width=np.finfo(dtype).bits)
    fills = draw(st.one_of(st.just([-1e9] * (2 * n + 1)),
                           st.lists(finite, min_size=2 * n + 1, max_size=2 * n + 1)))
    return raw, gold, cells, np.asarray(fills, dtype=dtype)


def loss_and_grad(raw, gold):
    scores = Tensor(raw, requires_grad=True)
    loss = head_selection_loss(scores, gold)
    loss.backward()
    return loss.data, scores.grad


class TestHeadSelectionLoss:
    @settings(max_examples=300, deadline=None)
    @given(non_candidate_edits())
    def test_non_candidate_cells_change_nothing(self, case):
        raw, gold, cells, fills = case
        loss, grad = loss_and_grad(raw, gold)
        edited = raw.copy()
        edited[cells] = fills
        edited_loss, edited_grad = loss_and_grad(edited, gold)
        assert edited_loss.dtype == edited_grad.dtype == raw.dtype
        assert edited_loss.tobytes() == loss.tobytes()
        assert edited_grad.tobytes() == grad.tobytes()
        assert np.all(edited_grad[cells] == 0)

    def test_saturated_gold_entries(self):
        n = 3
        raw = np.zeros((n + 1, n + 1))
        gold = [2, 0, 2]
        for j, h in enumerate(gold, start=1):
            raw[h, j] = 1e9
        loss = head_selection_loss(masked(raw), gold)
        assert loss.item() < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_uniform_scores_give_log_n(self, n):
        # n valid candidates per modifier once the diagonal is masked
        loss = head_selection_loss(masked(np.zeros((n + 1, n + 1))), [0] * n)
        assert abs(loss.item() - math.log(n)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        raw = tt(rng.normal(size=(5, 5)))
        gold = [0, 1, 2, 1]
        err = grad_check(lambda: head_selection_loss(raw, gold), raw, eps=1e-5)
        assert err < 1e-6

    def test_masked_gold_head_rejected(self):
        with pytest.raises(ValueError, match="masked"):
            head_selection_loss(masked(np.zeros((3, 3))), [1, 2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            head_selection_loss(masked(np.zeros((3, 3))), [0])


class TestLabelLoss:
    def test_single_label_zero_loss(self):
        assert label_loss(tt(np.zeros((4, 1))), [0] * 4).item() == 0.0

    def test_uniform_logits_log_l(self):
        assert abs(label_loss(tt(np.zeros((3, 7))), [0, 3, 6]).item() - math.log(7)) < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(1)
        logits = tt(rng.normal(size=(6, 4)))
        err = grad_check(lambda: label_loss(logits, [0, 1, 2, 3, 0, 1]), logits, eps=1e-5)
        assert err < 1e-6


class TestAdam:
    def test_quadratic_converges(self):
        p = tt([5.0])
        opt = Adam({"main": [("p", p)]})
        for _ in range(400):
            p.grad = 2.0 * p.data
            opt.step({"main": 0.05})
        assert abs(p.data[0]) < 1e-3

    def test_nonfinite_gradient_skips_step(self):
        p = tt([1.0])
        opt = Adam({"main": [("p", p)]})
        p.grad = np.array([np.nan])
        assert opt.step({"main": 0.1}) is False
        assert p.data[0] == 1.0

    def test_parameter_without_gradient_left_unchanged(self):
        a, b = tt([0.1, -2.0]), tt([1.0])
        before = a.data.tobytes()
        opt = Adam({"main": [("a", a), ("b", b)]})
        b.grad = np.array([1.0])
        assert opt.step({"main": 0.5}) is True
        assert a.data.tobytes() == before
        assert b.data[0] != 1.0

    def test_two_groups_use_their_own_lr(self):
        a, b = tt([1.0]), tt([1.0])
        opt = Adam({"main": [("a", a)], "transformer": [("b", b)]})
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        opt.step({"main": 0.0, "transformer": 0.5})
        assert a.data[0] == 1.0
        assert b.data[0] != 1.0


class TestSchedule:
    def test_zero_at_start(self):
        assert lr_schedule(0.0, 1e-3, warmup_epochs=1.0) == 0.0

    def test_base_at_end_of_warmup(self):
        assert lr_schedule(1.0, 1e-3, warmup_epochs=1.0) == 1e-3
        assert lr_schedule(2.7, 1e-3, warmup_epochs=1.0) == 1e-3

    def test_linear_ramp(self):
        assert lr_schedule(0.5, 1e-3, warmup_epochs=1.0) == pytest.approx(5e-4)
        assert lr_schedule(1.5, 1e-3, warmup_epochs=3.0) == pytest.approx(5e-4)

    def test_swa_lr_from_start_epoch(self):
        # epoch 5 spans progress [4, 5): the SWA rate applies throughout
        kw = dict(use_swa=True, swa_start_epoch=5, swa_lr=5e-6)
        assert lr_schedule(4.0, 1e-3, 1.0, **kw) == 5e-6
        assert lr_schedule(4.5, 1e-3, 1.0, **kw) == 5e-6
        assert lr_schedule(3.99, 1e-3, 1.0, **kw) == 1e-3

    def test_no_warmup(self):
        assert lr_schedule(0.0, 1e-3, warmup_epochs=0.0) == 1e-3


class TestSwa:
    def test_single_update_equals_snapshot(self):
        swa = SwaState()
        state = {"w": np.array([1.0, 2.0])}
        swa.update(state)
        assert np.array_equal(swa.finalize()["w"], state["w"])

    def test_two_snapshots_average(self):
        swa = SwaState()
        swa.update({"w": np.array([1.0, 2.0])})
        swa.update({"w": np.array([3.0, 6.0])})
        assert np.array_equal(swa.finalize()["w"], np.array([2.0, 4.0]))

    def test_mean_of_three_exact(self):
        rng = np.random.default_rng(2)
        snaps = [{"w": rng.normal(size=(4, 3)), "b": rng.normal(size=5)} for _ in range(3)]
        swa = SwaState()
        for s in snaps:
            swa.update(s)
        avg = swa.finalize()
        for key in ("w", "b"):
            direct = (snaps[0][key] + snaps[1][key] + snaps[2][key]) / 3.0
            assert np.max(np.abs(avg[key] - direct)) < 1e-12

    def test_finalize_before_update_raises(self):
        with pytest.raises(ValueError, match="before any update"):
            SwaState().finalize()


class TestClip:
    def test_norm_reduced_to_bound(self):
        p = tt(np.ones(4))
        p.grad = np.full(4, 3.0)  # norm 6
        norm = clip_gradients([p], 1.5)
        assert norm == pytest.approx(6.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.5)

    def test_small_gradients_untouched(self):
        p = tt(np.ones(4))
        p.grad = np.full(4, 0.1)
        clip_gradients([p], 10.0)
        assert np.array_equal(p.grad, np.full(4, 0.1))


class TestParamAccounting:
    def test_loc_formula_example(self):
        assert formula_param_count("loc", n_labels=3, x=2, y=1) == 6151

    def test_arcloc_formula_example(self):
        assert formula_param_count("arcloc", n_labels=1, d=2, r=2) == 4113

    def test_transformer_layer_delta(self):
        base = formula_param_count("arcloc", n_labels=1, d=2, r=2, layers=0)
        one = formula_param_count("arcloc", n_labels=1, d=2, r=2, layers=1)
        assert one - base == 36

    def test_odd_r_rejected(self):
        with pytest.raises(ValueError, match="even"):
            formula_param_count("arcloc", n_labels=2, d=4, r=3)

    @pytest.mark.parametrize("kind,dims", [
        ("loc", dict(x=2, y=1)),
        ("loc", dict(x=7, y=4)),
        ("arcloc", dict(d=2, r=2)),
        ("arcloc", dict(d=5, r=8)),
        ("arcloc", dict(d=5, r=8, layers=1)),
        ("arcloc", dict(d=3, r=16, layers=2)),
    ])
    def test_registry_matches_formula(self, kind, dims, toy_vocab):
        layers = dims.pop("layers", 0)
        cfg = ModelConfig(kind=kind, n_labels=toy_vocab.n_labels, emb_dim=1024,
                          context_layers=0, layers=layers, exact_counts=True, **dims)
        model = build_model(cfg, toy_vocab, seed=0)
        formula = formula_param_count(kind, toy_vocab.n_labels, layers=layers, **dims)
        assert model.accounted_param_count() == formula


class TestBatching:
    def test_budget_respected(self, toy_corpus):
        batches = make_batches(toy_corpus[0], batch_tokens=10)
        for batch in batches:
            assert sum(len(s) for s in batch) <= 10 or len(batch) == 1
        assert sum(len(b) for b in batches) == len(toy_corpus[0])

    def test_oversized_sentence_gets_own_batch(self):
        big = Sentence([Token("w", "X", 0 if i == 0 else 1, "dep") for i in range(12)])
        batches = make_batches([big], batch_tokens=4)
        assert len(batches) == 1

    def test_shuffle_deterministic_per_seed(self, toy_corpus):
        a = make_batches(toy_corpus[0], 16, np.random.default_rng(3))
        b = make_batches(toy_corpus[0], 16, np.random.default_rng(3))
        assert [[id(s) for s in batch] for batch in a] == [[id(s) for s in batch] for batch in b]


def toy_model_config(vocab, kind="arcloc", **overrides):
    base = dict(kind=kind, n_labels=vocab.n_labels, emb_dim=64, context_layers=1,
                mlp_dropout=0.0, emb_dropout=0.0)
    if kind == "arcloc":
        base.update(d=32, r=32)
    else:
        base.update(x=32, y=16)
    base.update(overrides)
    return ModelConfig(**base)


def run_swa_and_check_means(monkeypatch, model, corpus, vocab, cfg: TrainConfig):
    """Train with SWA, recording every parameter snapshot SWA takes and
    every state the dev evaluation sees. Each SWA epoch must evaluate
    the mean of the snapshots taken so far, and ``best_state`` must be
    the state evaluated at ``best_epoch``."""
    import arcforge.training as tr

    snaps, evaluated = [], []
    update, evaluate = tr.SwaState.update, tr.evaluate_model

    def spy_update(self, state):
        snaps.append({k: v.copy() for k, v in state.items()})
        update(self, state)

    def spy_evaluate(model, *args, **kwargs):
        evaluated.append(model.state_dict())
        return evaluate(model, *args, **kwargs)

    monkeypatch.setattr(tr.SwaState, "update", spy_update)
    monkeypatch.setattr(tr, "evaluate_model", spy_evaluate)
    res = tr.train(model, corpus[0], corpus[1], vocab, cfg)
    assert len(evaluated) == cfg.epochs
    assert len(snaps) == cfg.epochs - cfg.swa_start_epoch + 1
    for taken, state in enumerate(evaluated[cfg.swa_start_epoch - 1:], start=1):
        for k, v in state.items():
            mean = sum(snap[k] for snap in snaps[:taken]) / taken
            assert np.max(np.abs(v - mean)) < 1e-12, (taken, k)
    best = evaluated[res.best_epoch - 1]
    assert res.best_state.keys() == best.keys()
    assert all(np.array_equal(res.best_state[k], v) for k, v in best.items())


class TestTrainLoop:
    def test_best_checkpoint_selection_scripted(self, toy_corpus, toy_vocab, monkeypatch):
        las_script = iter([50.0, 80.0, 60.0, 80.0])

        def fake_eval(model, sentences, vocab, decoder="eisner", punct_policy="keep"):
            return {"uas": 0.0, "las": next(las_script), "filter_oracle": None}

        import arcforge.training as tr

        monkeypatch.setattr(tr, "evaluate_model", fake_eval)
        cfg = toy_model_config(toy_vocab)
        model = build_model(cfg, toy_vocab, seed=0)
        res = tr.train(model, toy_corpus[0], toy_corpus[1], toy_vocab,
                       TrainConfig(epochs=4, lr=1e-3, use_swa=False, seed=0))
        assert res.best_epoch == 2  # first epoch reaching the max LAS wins
        assert res.best_las == 80.0

    def test_same_seed_identical_metrics(self, toy_corpus, toy_vocab):
        runs = []
        for _ in range(2):
            model = build_model(toy_model_config(toy_vocab, layers=1, k=4), toy_vocab, seed=5)
            res = train(model, toy_corpus[0], toy_corpus[1], toy_vocab,
                        TrainConfig(epochs=3, lr=1e-3, use_swa=False, seed=5))
            runs.append([{k: v for k, v in row.items() if k != "tokens_per_s"} for row in res.metrics])
        assert runs[0] == runs[1]

    def test_loss_decreases_over_five_epochs_default_config(self, toy_corpus, toy_vocab):
        for seed in (0, 1, 2):
            model = build_model(toy_model_config(toy_vocab), toy_vocab, seed=seed)
            res = train(model, toy_corpus[0], [], toy_vocab,
                        TrainConfig(epochs=5, seed=seed))  # default lrs, warmup, SWA
            losses = [r["train_loss"] for r in res.metrics]
            assert losses[4] < losses[0]

    def test_swa_checkpoint_is_epoch_mean(self, toy_corpus, toy_vocab, monkeypatch):
        model = build_model(toy_model_config(toy_vocab), toy_vocab, seed=0)
        run_swa_and_check_means(monkeypatch, model, toy_corpus, toy_vocab,
                                TrainConfig(epochs=4, lr=1e-3, use_swa=True, swa_start_epoch=3,
                                            swa_lr=1e-4, seed=0))

    def test_empty_corpus_rejected(self, toy_vocab):
        model = build_model(toy_model_config(toy_vocab), toy_vocab, seed=0)
        with pytest.raises(ValueError, match="empty"):
            train(model, [], [], toy_vocab, TrainConfig(epochs=1, use_swa=False, seed=0))

    def test_long_sentences_skipped_at_train_time(self, toy_corpus, toy_vocab):
        model = build_model(toy_model_config(toy_vocab), toy_vocab, seed=0)
        with pytest.raises(ValueError, match="length"):
            train(model, toy_corpus[0], [], toy_vocab,
                  TrainConfig(epochs=1, max_train_len=1, use_swa=False, seed=0))

    def test_partial_length_cutoff_trains_on_short_sentences(self, toy_corpus, toy_vocab):
        # corpus mixes 2..5-token sentences; the cutoff drops only the long
        # ones at train time while evaluation still sees every sentence
        model = build_model(toy_model_config(toy_vocab), toy_vocab, seed=0)
        res = train(model, toy_corpus[0], toy_corpus[1], toy_vocab,
                    TrainConfig(epochs=1, lr=1e-3, max_train_len=3, use_swa=False, seed=0))
        assert len(res.metrics) == 1
        assert res.metrics[0]["dev_las"] is not None

    @pytest.mark.parametrize("key,value", [("decoder", "chart"), ("punct_policy", "none")])
    def test_bad_dev_settings_rejected_before_training(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})

    def test_early_stop_hook(self, toy_corpus, toy_vocab):
        model = build_model(toy_model_config(toy_vocab), toy_vocab, seed=0)
        res = train(model, toy_corpus[0], toy_corpus[1], toy_vocab,
                    TrainConfig(epochs=50, lr=1e-3, use_swa=False, seed=0),
                    early_stop_fn=lambda epoch, m: epoch >= 2)
        assert len(res.metrics) == 2
        # without a dev set the last epoch run is the one kept
        res = train(model, toy_corpus[0], [], toy_vocab,
                    TrainConfig(epochs=10, lr=1e-3, use_swa=False, seed=0),
                    early_stop_fn=lambda epoch, m: epoch >= 2)
        assert len(res.metrics) == 2 and res.best_epoch == 2 and res.best_las is None
        assert all(np.array_equal(res.best_state[name], p.data)
                   for name, p in model.named_parameters())

    def test_no_dev_set_keeps_the_swa_average(self, toy_corpus, toy_vocab, monkeypatch):
        import arcforge.training as tr

        snaps = []
        orig_update = tr.SwaState.update

        def spy_update(self, state):
            snaps.append({k: v.copy() for k, v in state.items()})
            orig_update(self, state)

        monkeypatch.setattr(tr.SwaState, "update", spy_update)
        model = build_model(toy_model_config(toy_vocab), toy_vocab, seed=0)
        res = tr.train(model, toy_corpus[0], [], toy_vocab,
                       TrainConfig(epochs=3, lr=1e-3, use_swa=True, swa_start_epoch=2,
                                   swa_lr=1e-4, seed=0))
        assert len(snaps) == 2 and res.best_epoch == 3 and res.best_las is None
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, snaps[1][name])  # the model keeps the raw weights
            assert np.array_equal(res.best_state[name], (snaps[0][name] + snaps[1][name]) / 2)
        assert any(not np.array_equal(res.best_state[k], snaps[1][k]) for k in snaps[1])

    def test_skipped_steps_and_grad_norm_per_epoch(self, toy_corpus, toy_vocab, monkeypatch):
        import arcforge.training as tr

        clip = tr.clip_gradients
        calls = []

        def poison_first_batch(params, max_norm):
            if not calls:
                params[0].grad[(0,) * params[0].grad.ndim] = np.nan
            calls.append(max_norm)
            return clip(params, max_norm)

        monkeypatch.setattr(tr, "clip_gradients", poison_first_batch)
        model = build_model(toy_model_config(toy_vocab), toy_vocab, seed=0)
        res = tr.train(model, toy_corpus[0], [], toy_vocab,
                       TrainConfig(epochs=2, lr=1e-3, batch_tokens=40, use_swa=False, seed=0,
                                   grad_clip=1.0))
        assert len(calls) > 2  # several batches per epoch
        assert [row["skipped_steps"] for row in res.metrics] == [1, 0]
        assert math.isnan(res.metrics[0]["grad_norm"])
        assert 0.0 < res.metrics[1]["grad_norm"] < math.inf
        assert all(np.isfinite(p.data).all() for p in model.parameters())

        model = build_model(toy_model_config(toy_vocab), toy_vocab, seed=0)
        res = tr.train(model, toy_corpus[0], [], toy_vocab,
                       TrainConfig(epochs=1, lr=1e-3, use_swa=False, seed=0))
        assert res.metrics[0]["skipped_steps"] == 0
        assert res.metrics[0]["grad_norm"] is None

    def test_evaluate_restores_training_mode_after_an_error(self, toy_corpus, toy_vocab):
        model = build_model(toy_model_config(toy_vocab), toy_vocab, seed=0)
        assert model.training
        with pytest.raises(ValueError, match="unknown decoder"):
            evaluate_model(model, toy_corpus[1][:1], toy_vocab, decoder="viterbi")
        assert model.training

    # Best dev LAS, float32 minus float64, with this configuration and
    # seeds 1-8 (58 dev words, so one word is 1.72 points): 0, -3.45,
    # -1.72, 0, 0, +1.72, 0, 0. The margin sits just above the largest gap.
    FLOAT32_LAS_MARGIN = 4.0

    def test_float32_dev_las_close_to_float64(self, toy_corpus, toy_vocab):
        train_sents, dev_sents = toy_corpus
        las = {}
        for dtype in ("float64", "float32"):
            model = build_model(toy_model_config(toy_vocab, layers=1, k=10, dtype=dtype),
                                toy_vocab, seed=1)
            res = train(model, train_sents, dev_sents, toy_vocab,
                        TrainConfig(epochs=60, lr=1e-3, lr_transformer=1e-3, warmup_epochs=0,
                                    warmup_epochs_transformer=0, use_swa=False, seed=1))
            assert {p.data.dtype.name for p in model.parameters()} == {dtype}
            las[dtype] = res.best_las
        assert las["float64"] >= 90.0
        assert abs(las["float32"] - las["float64"]) <= self.FLOAT32_LAS_MARGIN, las


class TestSentenceLoss:
    def test_filter_aux_loss_hook(self, toy_corpus, toy_vocab):
        # off by default; when enabled it adds filter supervision and
        # gives the filter head a gradient even without straight-through
        sent = toy_corpus[0][0]
        base_cfg = dict(layers=1, k=3)
        off = build_model(toy_model_config(toy_vocab, **base_cfg), toy_vocab, seed=4)
        on = build_model(toy_model_config(toy_vocab, filter_aux_weight=0.5, **base_cfg),
                         toy_vocab, seed=4)
        off.eval()
        on.eval()
        loss_off = sentence_loss(off, sent, toy_vocab)
        loss_on = sentence_loss(on, sent, toy_vocab)
        assert loss_on.item() > loss_off.item()
        on.zero_grad()
        loss_on.backward()
        assert on.scorer.filter_head.weight.grad is not None
        off.zero_grad()
        sentence_loss(off, sent, toy_vocab).backward()
        assert off.scorer.filter_head.weight.grad is None  # eval: plain gather, no aux

    def test_gradients_reach_all_parameters(self, toy_corpus, toy_vocab):
        for kind in ("loc", "arcloc"):
            cfg = toy_model_config(toy_vocab, kind=kind, **({"layers": 1, "k": 3} if kind == "arcloc" else {}))
            model = build_model(cfg, toy_vocab, seed=0)
            model.zero_grad()
            loss = sentence_loss(model, toy_corpus[0][0], toy_vocab)
            loss.backward()
            missing = [n for n, p in model.named_parameters() if p.grad is None]
            assert missing == []

    def test_loss_positive(self, toy_corpus, toy_vocab):
        model = build_model(toy_model_config(toy_vocab), toy_vocab, seed=0)
        assert sentence_loss(model, toy_corpus[0][0], toy_vocab).item() > 0.0
