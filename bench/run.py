"""arcforge benchmark: run one workload and print its metrics.

Usage, from the root of an arcforge checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

- train-arcloc: one ``arcforge.train`` call per block of 40 sentences
  (one epoch of about ten Adam steps) on an untrained arcloc model with
  2 refinement layers.
- parse-arcloc: the same model saved and loaded as a checkpoint, then
  ``predict`` with the ``mst`` decoder per sentence, writing CoNLL-U.
- parse-loc: the loc model with the ``eisner`` decoder, same loop.

With ``--trace 0`` the run measures set-up time (the median over
``2 * SETUP_REPEATS + 1`` fresh processes, spread before and after the
timed loop) and the timed loop, and prints
the end-to-end metrics: throughput from the median block time and
per-sentence latency percentiles over every sentence of the loop, both
from wall-clock time corrected for the run's host speed (see worker.py
and hostspeed.py; the uncorrected figures are in the ``detail`` line),
and the peak memory after set-up and one operation on the longest
sentence. ``setup_s`` is corrected with the timed run's host speed
too, since its samples are taken around that run. With ``--trace 1``
it runs the loop once untraced and once with spans around each layer's
entry points, and prints the per-layer metrics and the tracing
overhead. Every run checks
the program's outputs; any failed check makes the exit code non-zero.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import worker  # first: it pins BLAS threads before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import corpus  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
CHILD_GRACE_S = 60

ARCLOC = {"kind": "arcloc", "emb_dim": 64, "context_layers": 1, "d": 32, "r": 32, "k": 10, "layers": 2}
LOC = {"kind": "loc", "emb_dim": 64, "context_layers": 1, "x": 64, "y": 32}
# ``sentences`` is the corpus size; ``counted_blocks`` is the work every
# run finishes and the part its digest and counters cover. Three blocks
# give the p90 at least 12 sentences beyond it. A sentence's cost
# depends on its content (the cycles CLE contracts, for one), and more
# distinct sentences in a run average that out: the arcloc corpora hold
# more sentences than a run reaches, and a parse-loc run sees each of
# its sentences about twice. The corpus is held in memory, so a larger
# one would weigh more in parse-loc's setup_s and peak_rss_mb.
WORKLOADS = {
    "train-arcloc": {"mode": "train", "model": ARCLOC, "decoder": None,
                     "sentences": 280, "counted_blocks": 3},
    "parse-arcloc": {"mode": "parse", "model": ARCLOC, "decoder": "mst",
                     "sentences": 400, "counted_blocks": 3},
    "parse-loc": {"mode": "parse", "model": LOC, "decoder": "eisner",
                  "sentences": 3000, "counted_blocks": 25},
}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_pins": worker.THREAD_PINS,
    }


def prepare(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """Write the workload's inputs into ``work``; return the worker spec."""
    wl = WORKLOADS[workload]
    text = corpus.generate(seed, wl["sentences"])
    (work / "input.conllu").write_text(text, encoding="utf-8")
    spec = {
        "src": str(SRC), "mode": wl["mode"], "model": wl["model"], "decoder": wl["decoder"],
        "corpus": str(work / "input.conllu"), "output": str(work / "output.conllu"),
        "checkpoint": None, "seconds": seconds, "counted_blocks": wl["counted_blocks"],
        "trace": False, "setup_only": False, "input": corpus.describe(text),
    }
    if wl["mode"] == "parse":
        af = worker.import_arcforge(str(SRC))
        vocab = af.Vocab(**corpus.vocab_tables())
        model = af.build_model(af.ModelConfig(n_labels=vocab.n_labels, **wl["model"]),
                               vocab, seed=worker.MODEL_SEED)
        spec["checkpoint"] = str(work / "model.npz")
        af.save_checkpoint(spec["checkpoint"], model, vocab)
    return spec


def spawn(spec: dict, work: Path, tag: str, **overrides) -> dict:
    """Run worker.py on ``spec`` in a fresh process and return its result."""
    spec = dict(spec, result=str(work / f"{tag}.json"), **overrides)
    spec_path = work / f"{tag}-spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    cmd = [sys.executable, str(BENCH / "worker.py"), str(spec_path)]
    proc = subprocess.run(cmd + [repr(time.time())], stdout=sys.stderr,
                          timeout=2 * spec["seconds"] + CHILD_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process {tag} exited with code {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def end_to_end(spec: dict, work: Path) -> tuple[dict, dict]:
    # Half the set-up samples come before the timed run and half after
    # it: the host's speed shifts over seconds, and samples spread over
    # the whole run keep one slow stretch from setting the median.
    def setup_samples(first: int) -> list[float]:
        return [spawn(spec, work, f"setup{i}", setup_only=True)["setup_s"]
                for i in range(first, first + SETUP_REPEATS)]

    setups = setup_samples(0)
    res = spawn(spec, work, "run")
    setups += [res["setup_s"]] + setup_samples(SETUP_REPEATS)
    metrics = {
        "setup_s": (statistics.median(setups) / res["host"]["factor"], "s"),
        "tokens_per_s": (res["tokens_per_s"], "tok/s"),
        "sents_per_s": (res["sents_per_s"], "1/s"),
        "sent_ms_p50": (res["latency_ms"]["p50"], "ms"),
        "sent_ms_p90": (res["latency_ms"]["p90"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    res["setup_samples_s"] = setups
    return metrics, res


def per_layer(spec: dict, work: Path, seed: int, workload: str) -> tuple[dict, dict]:
    untraced = spawn(spec, work, "untraced")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    traced = spawn(spec, work, "traced", trace=True,
                   spans_out=str(out_dir / f"spans-{workload}-seed{seed}.jsonl"))
    tr = traced["trace"]
    wall_ns, sents = tr["wall_ns"], traced["ops"]
    metrics = {}
    for name in worker.TIMED_SPANS:
        metrics[f"{name}.self_share"] = (tr["timed"].get(name, {"self_ns": 0})["self_ns"] / wall_ns, "share")
    for name in worker.SETUP_SPANS:
        metrics[f"{name}.setup_share"] = (tr["setup"].get(name, {"self_ns": 0})["self_ns"] / tr["setup_ns"], "share")
    metrics["trace.wall_ms_per_sent"] = (wall_ns / 1e6 / sents, "ms")
    metrics["trace.coverage"] = (tr["coverage"], "share")
    overhead = untraced["sents_per_s"] / traced["sents_per_s"] - 1.0
    metrics["trace.overhead_share"] = (overhead, "share")
    units = {"refiner.filter_recall": "%", "scorers.arc_vectors.gflop_per_s": "GFLOP/s"}
    for name, value in tr["counters"].items():
        metrics[name] = (value, units.get(name, "count"))
    traced["spans"] = {
        name: {"calls": row["calls"], "self_ms_per_sent": row["self_ns"] / 1e6 / sents,
               "total_ms": row["total_ns"] / 1e6}
        for name, row in sorted({**tr["setup"], **tr["timed"]}.items())
    }
    traced["untraced"] = {k: untraced[k] for k in ("wall_s", "ops", "blocks", "sents_per_s",
                                                   "attempted", "failed")}
    return metrics, traced


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "arcforge" / "__init__.py").is_file():
        print(f"error: no arcforge sources at {SRC}; run from an arcforge checkout", file=sys.stderr)
        return 2

    work = ROOT / ".bench_tmp" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        spec = prepare(args.workload, args.seed, args.seconds, work)
        if args.trace:
            metrics, res = per_layer(spec, work, args.seed, args.workload)
            attempted = res["attempted"] + res["untraced"]["attempted"]
            failed = res["failed"] + res["untraced"]["failed"]
        else:
            metrics, res = end_to_end(spec, work)
            attempted, failed = res["attempted"], res["failed"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "environment": environment(), "input": spec["input"],
        "failed_share": failed / attempted, "failures": res["failures"],
        **{k: res[k] for k in ("digest", "ops", "tokens", "blocks", "block_s", "wall_s",
                               "latency_ms", "host", "wall", "loop_peak_rss_mb")},
        "wall_tokens_per_s": res["tokens"] / res["wall_s"],
        "wall_sents_per_s": res["ops"] / res["wall_s"],
    }
    for key in ("setup_samples_s", "spans", "untraced"):
        if key in res:
            detail[key] = res[key]
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_share = {failed / attempted:.6g} ({failed}/{attempted})")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
