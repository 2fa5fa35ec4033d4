"""Tests of the benchmark's own code.

Run from the root of an arcforge checkout:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import statistics
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SRC = str(BENCH.parent / "src")


def test_same_seed_gives_same_corpus():
    assert corpus.generate(7, 80) == corpus.generate(7, 80)
    assert corpus.generate(7, 80) != corpus.generate(8, 80)
    assert corpus.describe(corpus.generate(7, 80)) == corpus.describe(corpus.generate(7, 80))


def test_every_block_has_the_fixed_length_mix():
    text = corpus.generate(3, 3 * corpus.BLOCK)
    lengths = [len(s.splitlines()) for s in text.strip("\n").split("\n\n")]
    for b in range(3):
        assert sorted(lengths[b * corpus.BLOCK:(b + 1) * corpus.BLOCK]) == corpus.block_lengths()
    mix = corpus.block_lengths()
    assert statistics.median(mix) == corpus.MEDIAN_LEN
    assert sum(n > corpus.TAIL_LEN for n in mix) == round(corpus.TAIL_SHARE * corpus.BLOCK)
    assert max(mix) <= corpus.MAX_LEN


def test_generated_trees_are_single_root_and_readable():
    af = worker.import_arcforge(SRC)
    sentences = af.conllu.parse_conllu(corpus.generate(5, corpus.BLOCK))
    assert len(sentences) == corpus.BLOCK
    vocab = af.Vocab(**corpus.vocab_tables())
    for sent in sentences:
        assert af.conllu.check_tree(sent.gold_heads)
        assert sent.gold_heads.count(0) == 1
        assert all(vocab.form_id(t.form) > 1 for t in sent.tokens)
        assert all(lab in vocab.label_to_id for lab in sent.gold_labels)


def _span(name, start, end, parent=-1, sentence=0):
    return spans.Span(name, start, end, parent, sentence)


def test_self_time_and_coverage_on_hand_built_spans():
    # predict [10, 100] holds encode [20, 40] and decode [50, 90];
    # decode holds inner [60, 70]; write [110, 120] is another root.
    trace = [
        _span("predict", 10, 100),
        _span("encode", 20, 40, parent=0),
        _span("decode", 50, 90, parent=0),
        _span("inner", 60, 70, parent=2),
        _span("write", 110, 120),
    ]
    assert spans.self_times(trace) == [90 - 20 - 40, 20, 40 - 10, 10, 10]
    assert spans.coverage(trace, 0, 200) == pytest.approx(100 / 200)
    # the window clips the root spans that straddle it
    assert spans.coverage(trace, 50, 115) == pytest.approx((50 + 5) / 65)
    table = spans.summarize(trace, 0, 105)
    assert table["predict"] == {"calls": 1, "self_ns": 30, "total_ns": 90}
    assert table["decode"] == {"calls": 1, "self_ns": 30, "total_ns": 40}
    assert "write" not in table


def test_tracer_records_nesting_and_restores_originals():
    class Box:
        def outer(self):
            return mod.helper() + 1

    mod = types.SimpleNamespace(helper=lambda: 41)
    originals = (Box.__dict__["outer"], mod.helper)
    tracer = spans.Tracer()
    tracer.wrap(Box, "outer", "box.outer")
    tracer.wrap(mod, "helper", "mod.helper", after=lambda a, k, r: seen.append(r))
    seen = []
    tracer.new_sentence()
    assert Box().outer() == 42
    tracer.restore()
    assert (Box.__dict__["outer"], mod.helper) == originals
    assert seen == [41]
    outer, helper = sorted(tracer.spans, key=lambda s: s.start)
    assert (outer.name, outer.parent, helper.name, helper.parent) == ("box.outer", -1, "mod.helper", 0)
    assert outer.sentence == helper.sentence == 0
    assert Box().outer() == 42 and len(tracer.spans) == 2


def test_host_speed_samples_on_its_interval_and_counts_kernel_time():
    every = hostspeed.HostSpeed(interval_ns=0)
    every.start()
    every.maybe_sample()
    every.maybe_sample()
    assert len(every.samples) == 3 and every.spent_ns == sum(every.samples)
    assert every.factor() == statistics.median(every.samples) / hostspeed.NOMINAL_NS
    rarely = hostspeed.HostSpeed(interval_ns=10**15)
    rarely.start()
    rarely.maybe_sample()
    assert len(rarely.samples) == 1


def _spec(tmp_path, mode, model, decoder):
    text = corpus.generate(1, corpus.BLOCK)
    (tmp_path / "in.conllu").write_text(text, encoding="utf-8")
    spec = {"src": SRC, "mode": mode, "model": model, "decoder": decoder,
            "corpus": str(tmp_path / "in.conllu"), "output": str(tmp_path / "out.conllu"),
            "checkpoint": None, "seconds": 0, "counted_blocks": 1, "trace": True, "setup_only": False,
            "spawned_at": 0.0}
    if mode == "parse":
        af = worker.import_arcforge(SRC)
        vocab = af.Vocab(**corpus.vocab_tables())
        m = af.build_model(af.ModelConfig(n_labels=vocab.n_labels, **model), vocab, seed=0)
        spec["checkpoint"] = str(tmp_path / "model.npz")
        af.save_checkpoint(spec["checkpoint"], m, vocab)
    return spec


TINY_ARCLOC = {"kind": "arcloc", "emb_dim": 8, "context_layers": 1, "d": 4, "r": 4, "k": 2, "layers": 1}
TINY_LOC = {"kind": "loc", "emb_dim": 8, "context_layers": 1, "x": 8, "y": 4}


@pytest.mark.parametrize("mode,model,decoder", [
    ("train", TINY_ARCLOC, None),
    ("parse", TINY_ARCLOC, "mst"),
    ("parse", TINY_LOC, "eisner"),
])
def test_traced_run_restores_every_wrapped_attribute(tmp_path, mode, model, decoder):
    af = worker.import_arcforge(SRC)
    before = {(owner, attr): vars(worker.resolve(af, owner))[attr] for owner, attr, _ in worker.SPANS}
    result = worker.run(_spec(tmp_path, mode, model, decoder))
    after = {(owner, attr): vars(worker.resolve(af, owner))[attr] for owner, attr, _ in worker.SPANS}
    assert all(after[key] is before[key] for key in before)
    assert result["failed"] == 0 and result["attempted"] == corpus.BLOCK
    trace = result["trace"]
    assert trace["coverage"] > 0.5
    top = "training.sentence_loss" if mode == "train" else "model.predict"
    assert trace["timed"][top]["calls"] == corpus.BLOCK
    counters = trace["counters"]
    assert (counters["tensor.graph_nodes_per_sent"] > 0) == (mode == "train")
    assert (counters["refiner.kept_arcs_per_sent"] > 0) == (model["kind"] == "arcloc")


def test_same_seed_gives_same_digest_and_counters(tmp_path):
    first = worker.run(_spec(tmp_path, "parse", TINY_ARCLOC, "mst"))
    second = worker.run(_spec(tmp_path, "parse", TINY_ARCLOC, "mst"))
    assert first["digest"] == second["digest"]
    counts = [{k: v for k, v in r["trace"]["counters"].items() if "gflop" not in k} for r in (first, second)]
    assert counts[0] == counts[1]


def test_broken_decoder_output_counts_as_failed(tmp_path, monkeypatch):
    af = worker.import_arcforge(SRC)
    eisner = af.model.eisner

    def cyclic(scores):
        heads = eisner(scores)
        if len(heads) > 20:
            heads[0], heads[1] = 2, 1
        return heads

    monkeypatch.setattr(af.model, "eisner", cyclic)
    spec = dict(_spec(tmp_path, "parse", TINY_LOC, "eisner"), trace=False)
    result = worker.run(spec)
    long_sentences = sum(n > 20 for n in corpus.block_lengths())
    assert result["failed"] == long_sentences and result["attempted"] == corpus.BLOCK


def test_training_run_times_every_sentence_and_removes_its_hook(tmp_path):
    af = worker.import_arcforge(SRC)
    loss_fn = vars(af.training)["sentence_loss"]
    result = worker.run(dict(_spec(tmp_path, "train", TINY_ARCLOC, None), trace=False))
    assert vars(af.training)["sentence_loss"] is loss_fn
    assert result["failed"] == 0 and result["blocks"] == 1
    assert result["latency_ms"]["samples"] == corpus.BLOCK
