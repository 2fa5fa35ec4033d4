"""Run the benchmark over several seeds and summarize, or record a baseline.

Usage, from the root of an arcforge checkout:

    python3 bench/baseline.py [--workloads a,b] [--seeds 1-10] [--sets 1|2]
                              [--traced-seed N] [--write bench/baseline.json]

Runs run.py once per workload and seed, one run at a time, and prints
for every end-to-end metric the median, the quartiles, the distance
between the quartiles as a share of the median, and the sample count.
With ``--sets 2`` it runs every seed twice and also prints how much
worse the second set's median is than the first, as a share of the
first. ``--traced-seed`` adds one traced run per workload. ``--write``
stores the summary, the traced per-layer tables and the expected
layer-to-metric effects as the committed baseline.

``python3 bench/baseline.py --seeds 1`` runs all three workloads once.
The exit code is non-zero when a run fails an output check (the run
itself exits non-zero), or when a spread is wider than a third of the
metric's bound (WIDE) or the second set drifted by more than the bound
(DRIFT).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Which end-to-end metric each layer metric should move, on which
# workload, and where no move is expected. Written before any change is
# measured against this baseline.
PREDICTIONS = [
    {"layer": "tensor.backward, scorers.arc_vectors self time; scorers.arc_vectors.gflop_per_s",
     "moves": ["tokens_per_s"], "on": "train-arcloc",
     "elsewhere": "sent_ms_p90 on parse-arcloc; parse-loc only through scorers.label_logits, "
                  "which uses the same unoptimized einsum"},
    {"layer": "refiner.filter_topk self time; tensor.graph_nodes_per_sent",
     "moves": ["tokens_per_s", "peak_rss_mb"], "on": "train-arcloc",
     "elsewhere": "sent_ms_p50 on parse-arcloc"},
    {"layer": "refiner.refine self time; refiner.attention_entries_per_sent",
     "moves": ["sent_ms_p90"], "on": "parse-arcloc", "elsewhere": "train-arcloc"},
    {"layer": "decoders.cle self time", "moves": ["sent_ms_p90", "sents_per_s"],
     "on": "parse-arcloc", "elsewhere": "nowhere else"},
    {"layer": "decoders.eisner self time", "moves": ["sent_ms_p90", "sents_per_s"],
     "on": "parse-loc", "elsewhere": "nowhere else"},
    {"layer": "encoder.encode self time", "moves": ["sent_ms_p50"], "on": "parse-loc",
     "elsewhere": ""},
    {"layer": "training.adam_step self time", "moves": ["tokens_per_s"], "on": "train-arcloc",
     "elsewhere": ""},
    {"layer": "model.load_checkpoint, conllu.parse_conllu and conllu.write_conllu",
     "moves": ["setup_s", "sents_per_s"], "on": "parse-arcloc, parse-loc", "elsewhere": ""},
]


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    detail = next(json.loads(ln[len("detail "):]) for ln in lines if ln.startswith("detail "))
    return json.loads(lines[-1]), detail


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values), "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="train-arcloc,parse-arcloc,parse-loc")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--write", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    out = {"run_seconds": seconds, "seeds": args.seeds, "sets": args.sets, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in args.seeds:
                res, detail = run_once(workload, seed, seconds, 0)
                runs.append((res, detail))
                print(f"{workload} set {s + 1} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
            sets.append(runs)
        entry = {"environment": sets[0][0][1]["environment"], "end_to_end": {},
                 "inputs": {str(d["seed"]): d["input"] for _, d in sets[0]},
                 "digests": {str(d["seed"]): d["digest"] for _, d in sets[0]},
                 "failed": sum(r["failed"] for runs in sets for r, _ in runs),
                 "attempted": sum(r["attempted"] for runs in sets for r, _ in runs)}
        for name, m in bounds.items():
            per_set = [summary([r["metrics"][name]["value"] for r, _ in runs]) for runs in sets]
            row = dict(per_set[0], unit=m["unit"], bound=m["bound"])
            verdict = "ok" if name == "setup_s" or row["iqr_share"] <= m["bound"] / 3 else "WIDE"
            if len(per_set) == 2:
                first, second = per_set[0]["median"], per_set[1]["median"]
                worse = (second - first) / first * (1 if m["better"] == "lower" else -1)
                row["second_set"] = per_set[1]
                row["second_worse_share"] = worse
                if worse > m["bound"]:
                    verdict = "DRIFT"
            ok = ok and verdict == "ok"
            entry["end_to_end"][name] = row
            print(f"  {workload:13s} {name:13s} median {row['median']:10.4g} {m['unit']:6s} "
                  f"iqr/median {row['iqr_share']:.4f} (bound/3 {m['bound'] / 3:.4f}) "
                  + (f"2nd-set worse {row['second_worse_share']:+.4f} " if "second_set" in row else "")
                  + verdict, flush=True)
        if args.traced_seed is not None:
            res, detail = run_once(workload, args.traced_seed, seconds, 1)
            entry["traced"] = {"seed": args.traced_seed, "metrics": res["metrics"],
                               "spans": detail["spans"], "digest": detail["digest"]}
            print(f"  {workload} traced: coverage {res['metrics']['trace.coverage']['value']:.4f}, "
                  f"overhead {res['metrics']['trace.overhead_share']['value']:+.4f}", flush=True)
        out["workloads"][workload] = entry
    out["predictions"] = PREDICTIONS
    if args.write:
        args.write.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
