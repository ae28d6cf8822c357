#!/usr/bin/env python3
"""Repeat benchmark runs and summarize their spread, for README.md.

    python3 perfbench/report.py

For each workload in BENCHMARK.json, runs `run.py` with seeds 1..RUNS in
order, the odd seeds forming set A and the even seeds set B, so the two sets
alternate in time.  For every end-to-end metric it prints each set's median,
the spread (first to third quartile over the median, as
`statistics.quantiles(values, n=4)` gives them) and the ratio of the two
medians, next to the metric's bound in BENCHMARK.json.  Then TRACED pairs of
runs per workload with seed 1, one untraced and one traced, give the tracing
overhead (median traced minus median untraced time of the first round, on the
same inputs) and show whether the traced call counts repeat.  Raw results go
to ``perfbench/out/report.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 20  # untraced runs per workload, split into sets A and B
TRACED = 2  # untraced and traced run pairs per workload, seed 1


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    info = next(line for line in lines if line.startswith('{"workload"'))
    return json.loads(info), json.loads(lines[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    raw = {}
    print("| workload | metric | bound | median A | median B | spread A | spread B | B/A |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for name in names:
        runs = []
        for seed in range(1, RUNS + 1):
            info, res = run(name, seed, seconds, 0)
            if not res["correct"]:
                print(f"{name} seed {seed}: incorrect: {info['failures']} {info['self_test']}", file=sys.stderr)
                return 1
            runs.append({"seed": seed, "info": info, "result": res})
        pairs = [(run(name, 1, seconds, 0), run(name, 1, seconds, 1)) for _ in range(TRACED)]
        raw[name] = {
            "untraced": runs,
            "paired": [{"info": u[0], "result": u[1]} for u, _ in pairs],
            "traced": [{"info": t[0], "result": t[1]} for _, t in pairs],
        }
        for m in bench["end_to_end"]:
            sets = [[r["result"]["metrics"][m["name"]]["value"] for r in runs if r["seed"] % 2 == k] for k in (1, 0)]
            med = [statistics.median(s) for s in sets]
            print(f"| {name} | {m['name']} | {m['bound']} | {med[0]:.4g} | {med[1]:.4g} | "
                  f"{spread(sets[0]):.3f} | {spread(sets[1]):.3f} | {med[1] / med[0]:.3f} |")
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        print(f"| {name} | failed share | - | {sorted(shares)} | | | | |")
    for name in names:
        traced = raw[name]["traced"]
        if not traced:
            continue
        untraced = statistics.median(r["info"]["round_s"][0] for r in raw[name]["paired"])
        traced_s = statistics.median(t["info"]["round_s"][0] for t in traced)
        counts = [{k: v["value"] for k, v in t["result"]["metrics"].items() if v["unit"] == "count"} for t in traced]
        print(f"{name}: first round {untraced:.2f} s untraced, {traced_s:.2f} s traced, "
              f"overhead {traced_s - untraced:+.2f} s ({traced_s / untraced - 1:+.1%}); "
              f"{traced[0]['info']['spans']} spans; counts repeat: {all(c == counts[0] for c in counts)}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "report.json").write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
