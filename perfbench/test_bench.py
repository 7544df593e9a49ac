#!/usr/bin/env python3
"""The benchmark's own tests, at a small size.

    python3 perfbench/test_bench.py

For each workload and for both documented seeds (the default 2017 and the
held-out 4242) this makes two traced runs with the same seed, in two
processes, and checks that

- every run is correct and reports zero failed ops;
- every run prints every per-layer metric named in BENCHMARK.json;
- the exact counters (|AFF| and edges relaxed per batch, minor words per
  update, GC collections during the plain engine calls, journal bytes per
  op, snapshot bytes, replayed ops) and the final graph digest are
  identical across the two runs.

It also checks that an untraced run prints every end-to-end metric.
Timings are not compared: they vary from run to run, counts must not.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = [2017, 4242]
# At this size every workload's graph still yields a dense ISO pattern, so
# the tests take the benchmark's own query path.
SCALE = "0.2"
EXACT_SUFFIXES = (
    ".aff_per_batch",
    ".edges_relaxed_per_batch",
    ".minor_words_per_update",
)
EXACT_NAMES = {
    "gc.minor_collections",
    "gc.major_collections",
    "journal.bytes_per_op",
    "snapshot.bytes",
    "recover.replayed_ops",
}


def run(workload, seed, trace, work):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", SCALE, "--work", work],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    digest = [l.split()[-1] for l in lines if l.startswith("final graph digest")]
    return json.loads(lines[-1]), digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    problems = []
    for w in (w["name"] for w in bench["workloads"]):
        for seed in SEEDS:
            work = os.path.join(ROOT, ".perfbench_work", "test")
            a, da = run(w, seed, 1, work + "-a")
            b, db = run(w, seed, 1, work + "-b")
            for r in (a, b):
                if not r["correct"] or r["failed"] != 0:
                    problems.append(f"{w}/{seed}: run not correct: {r}")
                if set(r["metrics"]) != per_layer:
                    problems.append(f"{w}/{seed}: traced metrics differ from "
                                    "BENCHMARK.json per_layer")
            exact = sorted(k for k in per_layer
                           if k.endswith(EXACT_SUFFIXES) or k in EXACT_NAMES)
            for k in exact:
                va = a["metrics"][k]["value"]
                vb = b["metrics"][k]["value"]
                if va != vb:
                    problems.append(f"{w}/{seed}: {k} differs: {va} vs {vb}")
            if not da or da != db:
                problems.append(f"{w}/{seed}: final graph digest differs or "
                                f"is missing: {da} vs {db}")
            print(f"{w} seed {seed}: {len(exact)} exact counters compared",
                  flush=True)
        u, _ = run(w, SEEDS[0], 0, os.path.join(ROOT, ".perfbench_work", "test-u"))
        if set(u["metrics"]) != end_to_end or not u["correct"]:
            problems.append(f"{w}: untraced run lacks end-to-end metrics "
                            "or is not correct")
    for p in problems:
        print("FAIL", p)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
