"""One benchmark workload, run in its own process by ``run.py``.

Usage: python3 worker.py SPEC_JSON SPAWNED_AT

The spec names the arcforge source tree, the workload's mode ("train"
or "parse"), model config, decoder, input files and run length.
SPAWNED_AT is the parent's wall clock just before it started this
process, so set-up time includes interpreter start and imports. The
result is written as JSON to the spec's ``result`` path.

The timed loop is a closed loop over blocks of sentences (see
corpus.py): one sentence is parsed, or one training step runs, at a
time. A parse block calls ``predict`` once per sentence and writes the
block as CoNLL-U; a training block is one ``arcforge.train`` call over
the block's sentences (one epoch, several Adam steps under one
optimizer). The loop cycles through the corpus, stops at the first
block boundary after ``seconds``, and never before ``counted_blocks``
blocks are done. Counters and digests cover those first blocks only, so
two runs with the same seed report the same values however far they
got.

Every figure is wall-clock time, cycle-collector pauses included,
divided by the run's host-speed factor (see hostspeed.py); the raw
figures are kept under ``wall``. The loop runs the reference kernel
between operations and leaves its time out of every figure. Each block
holds the same sentence lengths, so block times of one run are samples
of the same work; throughput is taken from their median.
"""

from __future__ import annotations

import os

# OpenBLAS sizes its thread pool when numpy loads, so pin it first.
THREAD_PINS = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "ARCFORGE_THREADS",
)}
os.environ.update(THREAD_PINS)

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import corpus  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer, coverage, summarize  # noqa: E402

# An untrained model's root scores depend on its seed. With seed 6,
# greedy contraction leaves several root children on almost every
# sentence, so CLE's single-root fallback (one re-decode per candidate
# root child) runs on every parse-arcloc sentence; with seed 0 it ran on
# about 4% of them, so a run's cost hung on a few long sentences and
# varied by 30% between input seeds.
MODEL_SEED = 6

# (owner inside the arcforge package, attribute, span name). Names the
# model looks up as module globals are wrapped where it looks them up.
SPANS = (
    ("model._ParserBase", "predict", "model.predict"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("training", "sentence_loss", "training.sentence_loss"),
    ("training.Adam", "step", "training.adam_step"),
    ("tensor.Tensor", "backward", "tensor.backward"),
    ("encoder.Encoder", "encode", "encoder.encode"),
    ("encoder.Specialization", "forward", "encoder.Specialization"),
    ("scorers.ArcScorer", "arc_vectors", "scorers.arc_vectors"),
    ("scorers.ArcScorer", "score_matrix_from", "scorers.score_matrix_from"),
    ("scorers.ArcScorer", "label_head", "scorers.label_head"),
    ("scorers.LocScorer", "arc_score_matrix", "scorers.arc_score_matrix"),
    ("scorers.LocScorer", "label_logits", "scorers.label_logits"),
    ("model", "filter_topk", "refiner.filter_topk"),
    ("model", "refine", "refiner.refine"),
    ("model", "eisner", "decoders.eisner"),
    ("model", "cle", "decoders.cle"),
    ("conllu", "parse_conllu", "conllu.parse_conllu"),
    ("conllu", "write_conllu", "conllu.write_conllu"),
)
SETUP_SPANS = ("model.load_checkpoint", "conllu.parse_conllu")
TIMED_SPANS = tuple(name for _, _, name in SPANS if name not in SETUP_SPANS)


def import_arcforge(src: str):
    """Import arcforge from ``src`` and refuse any other copy."""
    if src not in sys.path:
        sys.path.insert(0, src)
    import arcforge

    if not Path(arcforge.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"arcforge imported from {arcforge.__file__}, not from {src}")
    return arcforge


def resolve(af, dotted: str):
    owner = af
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


def graph_nodes(root) -> int:
    """Autodiff nodes reachable from ``root``, as backward walks them."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._prev:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Probe:
    """Counters read at span boundaries while ``on``; arc-vector flops
    are counted on every call from ``start`` on."""

    def __init__(self, af):
        self.af = af
        self.on = False
        self.sentences = 0
        self.graph_nodes = 0
        self.attention_entries = 0
        self.kept = []          # (kept head lists, sentence) per filtered sentence
        self.arc_flops = 0
        self._last_kept = None

    def start(self) -> None:
        self.on = True
        self.arc_flops = 0
        self.af.refiner.reset_attention_entry_count()

    def stop(self, sentences: int) -> None:
        self.on = False
        self.sentences = sentences
        self.attention_entries = self.af.refiner.attention_entry_count()

    def before_backward(self, args, kwargs) -> None:
        if self.on:
            self.graph_nodes += graph_nodes(args[0])

    def after_filter(self, args, kwargs, result) -> None:
        self._last_kept = result.kept_heads

    def after_loss(self, args, kwargs, result) -> None:
        if self.on and self._last_kept is not None:
            self.kept.append((self._last_kept, args[1]))
        self._last_kept = None

    def after_predict(self, args, kwargs, result) -> None:
        if self.on and result.kept_heads is not None:
            self.kept.append((result.kept_heads, args[1]))

    def after_arc_vectors(self, args, kwargs, result) -> None:
        # minimal contraction order: H.R first, then against M
        scorer, h = args[0], args[1]
        n1, d = h.data.shape
        self.arc_flops += 2 * n1 * d * d * scorer.r + 2 * n1 * n1 * d * scorer.r

    def counters(self) -> dict:
        per_sent = max(self.sentences, 1)
        kept_lists = [k for k, _ in self.kept]
        recall = (self.af.evaluation.filter_oracle_uas(kept_lists, [s for _, s in self.kept])
                  if self.kept else 0.0)
        return {
            "tensor.graph_nodes_per_sent": self.graph_nodes / per_sent,
            "refiner.attention_entries_per_sent": self.attention_entries / per_sent,
            "refiner.kept_arcs_per_sent": sum(len(h) for k in kept_lists for h in k) / per_sent,
            "refiner.filter_recall": recall,
        }


def install(tracer: Tracer, af, probe: Probe) -> None:
    hooks = {
        "model.predict": {"after": probe.after_predict},
        "training.sentence_loss": {"after": probe.after_loss},
        "tensor.backward": {"before": probe.before_backward},
        "scorers.arc_vectors": {"after": probe.after_arc_vectors},
        "refiner.filter_topk": {"after": probe.after_filter},
    }
    for owner, attr, name in SPANS:
        tracer.wrap(resolve(af, owner), attr, name, **hooks.get(name, {}))


def _latency_summary(latencies_ns: list[int]) -> dict:
    ms = [x / 1e6 for x in latencies_ns]
    pct = statistics.quantiles(ms, n=100, method="inclusive")
    return {"p50": statistics.median(ms), "p90": pct[89], "p95": pct[94], "samples": len(ms)}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, default=int).encode()).hexdigest()[:16]


def _block_runner(spec: dict, af, model, vocab, tracer: Tracer | None, host: HostSpeed):
    """Return ``run_block(sentences, latencies)``, which processes one
    block, appends each sentence's wall time (ns) to ``latencies`` and
    returns the block's outputs, and a function that undoes its hooks.
    Between sentences it lets ``host`` sample the reference kernel."""
    now = time.perf_counter_ns
    if spec["mode"] == "parse":
        def run_block(sents, latencies):
            outputs = []
            for sent in sents:
                host.maybe_sample()
                if tracer is not None:
                    tracer.new_sentence()
                start = now()
                outputs.append(model.predict(sent, vocab, decoder=spec["decoder"]).as_prediction())
                latencies.append(now() - start)
            return outputs

        return run_block, lambda: None

    train_cfg = af.training.TrainConfig(
        epochs=1, batch_tokens=corpus.MAX_LEN, use_swa=False,
        warmup_epochs=0.0, warmup_epochs_transformer=0.0)
    # train() looks up sentence_loss as a module global; a thin hook
    # there marks where each sentence starts. A sentence's latency runs
    # to the next one's start, or to train()'s return for the last, so
    # the Adam step after a batch counts in its last sentence. The
    # reference kernel runs after a sentence ends and before the next
    # one starts.
    loss_fn = vars(af.training)["sentence_loss"]
    starts: list[int] = []
    ends: list[int] = []

    def timed_loss(*args, **kwargs):
        if starts:
            ends.append(now())
        host.maybe_sample()
        if tracer is not None:
            tracer.new_sentence()
        starts.append(now())
        return loss_fn(*args, **kwargs)

    af.training.sentence_loss = timed_loss

    def run_block(sents, latencies):
        starts.clear()
        ends.clear()
        loss = af.training.train(model, sents, [], vocab, train_cfg).metrics[0]["train_loss"]
        ends.append(now())
        latencies.extend(b - a for a, b in zip(starts, ends))
        return [loss]

    def unhook():
        af.training.sentence_loss = loss_fn

    return run_block, unhook


def _measure(spec: dict, af, tracer: Tracer | None, probe: Probe) -> dict:
    setup_start = time.perf_counter_ns()
    if spec["mode"] == "parse":
        model, vocab, _ = af.model.load_checkpoint(spec["checkpoint"])
        model.eval()
    else:
        vocab = af.Vocab(**corpus.vocab_tables())
        cfg = af.ModelConfig(n_labels=vocab.n_labels, **spec["model"])
        model = af.build_model(cfg, vocab, seed=MODEL_SEED)
    with open(spec["corpus"], encoding="utf-8") as fh:
        sentences = af.conllu.parse_conllu(fh.read())
    setup_end = time.perf_counter_ns()
    setup_s = time.time() - spec["spawned_at"]
    if spec["setup_only"]:
        return {"setup_s": setup_s}

    host = HostSpeed()
    run_block, unhook = _block_runner(spec, af, model, vocab, tracer, host)
    blocks = [sentences[i:i + corpus.BLOCK] for i in range(0, len(sentences), corpus.BLOCK)]
    min_blocks = spec["counted_blocks"]
    done, outputs, latencies, block_ns = [], [], [], []
    limit_ns = int(spec["seconds"] * 1e9)
    out = open(spec["output"], "w", encoding="utf-8") if spec["mode"] == "parse" else None
    try:
        # One untimed operation on the longest sentence: it warms caches
        # and gives the peak memory one sentence needs. The loop's own
        # peak depends on when CPython's cycle collector frees old
        # autodiff graphs, which varies between seeds far more than the
        # program does.
        run_block([max(sentences, key=len)], [])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        probe.start()
        host.start()
        t0 = time.perf_counter_ns()
        while True:
            block = blocks[len(block_ns) % len(blocks)]
            spent = host.spent_ns
            start = time.perf_counter_ns()
            block_out = run_block(block, latencies)
            if out is not None:
                out.write(af.conllu.write_conllu(block, block_out) + "\n")
            end = time.perf_counter_ns()
            block_ns.append(end - start - (host.spent_ns - spent))
            done.extend(block)
            outputs.extend(block_out)
            if len(block_ns) == min_blocks:
                probe.stop(len(done))
            if len(block_ns) >= min_blocks and end - t0 >= limit_ns:
                break
        t1 = time.perf_counter_ns()
    finally:
        unhook()
        if out is not None:
            out.close()

    counted = min_blocks * (corpus.BLOCK if out is not None else 1)
    block_tokens = sum(len(s) for s in blocks[0])
    median_block_s = statistics.median(block_ns) / 1e9
    loop_ns = t1 - t0 - host.spent_ns
    factor = host.factor()
    wall = {
        "tokens_per_s": block_tokens / median_block_s,
        "sents_per_s": corpus.BLOCK / median_block_s,
        "latency_ms": _latency_summary(latencies),
    }
    result = {
        "setup_s": setup_s,
        "wall_s": loop_ns / 1e9,
        "ops": len(done),
        "tokens": sum(len(s) for s in done),
        "blocks": len(block_ns),
        "block_s": [x / 1e9 for x in block_ns],
        "host": {"factor": factor, "samples": len(host.samples),
                 "kernel_ms_p50": statistics.median(host.samples) / 1e6,
                 "kernel_share": host.spent_ns / (t1 - t0)},
        "wall": wall,
        "tokens_per_s": wall["tokens_per_s"] * factor,
        "sents_per_s": wall["sents_per_s"] * factor,
        "latency_ms": {k: v / factor if k != "samples" else v for k, v in wall["latency_ms"].items()},
        "peak_rss_mb": peak_rss_mb,
        "loop_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": _digest([h for h, _ in outputs[:counted]] if out is not None
                          else [x.hex() for x in outputs[:counted]]),
        "_done": done,
        "_outputs": outputs,
        "_model": model,
        "_vocab": vocab,
    }
    if tracer is not None:
        timed = summarize(tracer.spans, t0, t1)
        setup = summarize(tracer.spans, setup_start, setup_end)
        arc = timed.get("scorers.arc_vectors", {"self_ns": 0})
        result["trace"] = {
            "wall_ns": loop_ns,
            "setup_ns": setup_end - setup_start,
            # the kernel's gaps between spans are not the program's time
            "coverage": coverage(tracer.spans, t0, t1) * (t1 - t0) / loop_ns,
            "timed": timed,
            "setup": setup,
            "counters": dict(probe.counters(), **{
                "scorers.arc_vectors.gflop_per_s":
                    probe.arc_flops / arc["self_ns"] if arc["self_ns"] else 0.0,
            }),
        }
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w", encoding="utf-8") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s._asdict()) + "\n")
    return result


def _check(spec: dict, af, result: dict) -> tuple[list[str], int]:
    """Messages for every failed output check, and the number of failed
    operations. A parse failure is one sentence; a non-finite training
    loss fails every sentence of its block."""
    done, outputs = result.pop("_done"), result.pop("_outputs")
    model, vocab = result.pop("_model"), result.pop("_vocab")
    failures = []
    if spec["mode"] == "train":
        for i, loss in enumerate(outputs):
            if not math.isfinite(loss):
                failures.append(f"block {i}: non-finite loss {loss}")
        failed = len(failures) * corpus.BLOCK
        bad = [name for name, p in model.named_parameters() if not np.isfinite(p.data).all()]
        if bad and not failures:
            failures.append(f"non-finite parameters after training: {', '.join(bad[:5])}")
            failed = 1
        return failures, failed
    labels = set(vocab.label_to_id)
    file_error = None
    with open(spec["output"], encoding="utf-8") as fh:
        try:
            written = af.conllu.parse_conllu(fh.read())
        except af.conllu.ConlluError as err:
            written, file_error = [], f"written CoNLL-U does not read back: {err}"
    if len(written) != len(done):
        file_error = file_error or f"wrote {len(written)} sentences for {len(done)} parsed"
        written = [None] * len(done)
    for i, (sent, (heads, labs), back) in enumerate(zip(done, outputs, written)):
        n = len(sent)
        if not (len(heads) == n and af.conllu.check_tree(heads) and heads.count(0) == 1):
            failures.append(f"sentence {i}: not a single-root tree: {heads}")
        elif len(labs) != n or not labels.issuperset(labs):
            failures.append(f"sentence {i}: bad labels {labs}")
        elif spec["decoder"] == "eisner" and not af.decoders.is_projective(heads):
            failures.append(f"sentence {i}: eisner tree not projective: {heads}")
        elif back is not None and (back.gold_heads != heads or back.gold_labels != labs):
            failures.append(f"sentence {i}: written CoNLL-U does not match the prediction")
    if file_error and not failures:
        failures.append(file_error)
    return failures, len(failures)


def run(spec: dict) -> dict:
    """Run one workload in this process and return its result."""
    af = import_arcforge(spec["src"])
    tracer = Tracer() if spec["trace"] else None
    probe = Probe(af)
    if tracer is not None:
        install(tracer, af, probe)
    try:
        result = _measure(spec, af, tracer, probe)
    finally:
        if tracer is not None:
            tracer.restore()
    if not spec["setup_only"]:
        failures, failed = _check(spec, af, result)
        result.update(attempted=result["ops"], failed=failed, failures=failures[:5])
    return result


def main(argv: list[str]) -> int:
    spec_path, spawned_at = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["spawned_at"] = float(spawned_at)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
