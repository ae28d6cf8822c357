#!/usr/bin/env python3
"""jumplines benchmark: one run of one workload, printed as one JSON line.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a jumplines source tree.  The compiled kernel is built
in place first (`python setup.py build_ext --inplace`, a no-op when it is up
to date).  The workload then runs in its own single-threaded process
(`workloads.py`).  With ``--trace 0`` the last line holds the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run, whose
spans go to ``perfbench/out/trace-<workload>.jsonl.gz``.

`setup_s` is the median over nine set-ups: eight processes that only set up,
and the measured run's own.  Workloads are described in README.md.

The whole run, build excluded, is cut after ``95 + 4 * seconds`` s (175 s for
the 20 s runs of BENCHMARK.json, so such a run ends within three minutes); a
run cut this way exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 8
DEADLINE_BASE_S = 95  # the whole run's deadline, build excluded: base + 4 * seconds


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _child_env(workload: str) -> dict:
    env = dict(os.environ)
    env.pop("JUMPLINES_PURE", None)
    if workload == "scan-pure":
        env["JUMPLINES_PURE"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def deadline_s(seconds: int) -> int:
    return DEADLINE_BASE_S + 4 * seconds


def _child(args, work: Path, deadline: float, setup_only=False, trace_out=None) -> dict:
    """Run workloads.py; return its last JSON line, or raise RuntimeError."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, env=_child_env(args.workload),
            capture_output=True, text=True, timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{args.workload} did not finish within {deadline_s(args.seconds)} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "jumplines" / "__init__.py").is_file():
        return _fail(f"no jumplines source tree at {ROOT}")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"], cwd=ROOT, capture_output=True, text=True,
    )
    if build.returncode != 0:
        return _fail(f"building the compiled kernel failed:\n{build.stderr[-3000:]}")

    deadline = time.monotonic() + deadline_s(args.seconds)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            _child(args, work / "warm", deadline, setup_only=True)  # compiles bytecode, fills file caches
            for i in range(SETUP_PROBES):
                setups.append(_child(args, work / f"probe-{i}", deadline, setup_only=True)["setup_s"])
        trace_out = OUT / f"trace-{args.workload}.jsonl.gz" if args.trace else None
        result = _child(args, work / "run", deadline, trace_out=trace_out)
    except RuntimeError as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        print(json.dumps({"setup_s_samples": setups}))
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
