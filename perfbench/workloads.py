"""One run of one workload, in a process of its own.

    PYTHONPATH=src python3 perfbench/workloads.py --workload scan --seed 1 \\
        --seconds 20 --trace 0 --t0 <time.monotonic() at launch> --work DIR

Builds the workload's inputs from the seed, runs its fixed list of operations
in whole rounds until the time is spent, then checks every output with
`checks` (outside the timed region) and prints one JSON line.  With
``--setup-only`` it stops after set-up and prints the set-up time alone.
`run.py` starts this process; it is not meant to be started by hand.
jumplines is imported inside functions, because `run.py` imports this module
for the workload names without jumplines on its path.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

SCAN_SIZES = (10, 10, 10, 10, 11, 11)  # F_101; even and odd verdict paths, mostly the even one
SCAN_PURE_SIZES = (7, 7, 7)
SAMPLE = 40  # seeded plane points whose verdict the fat-point test re-decides, per report


@dataclass
class Op:
    label: str
    run: Callable  # run(round) -> result, timed
    check: Callable  # check(result) -> list of problems, untimed
    alter: Callable | None = None  # alter(result) -> {fault: result with that fault planted}


def _seeds(name: str, seed: int):
    """Configuration seeds for a workload: a fixed stream per benchmark seed."""
    rng = random.Random(f"perfbench:{name}:{seed}")
    while True:
        yield rng.randrange(1, 10**9)


def _cli(argv) -> int:
    from jumplines.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


class Draws:
    """Degenerate draws skipped while building inputs, and the time spent screening."""

    def __init__(self):
        self.skipped = []  # (m, seed, reason)
        self.screen_s = 0.0  # the benchmark's own fat-point screening, left out of setup_s


def _draw(name, seed, sizes, field, draws: Draws):
    """One configuration per size; degenerate draws are skipped and counted."""
    from jumplines.algebra import DegenerateInputError
    from jumplines.geom import random_config

    stream = _seeds(name, seed)
    out = []
    for m in sizes:
        while True:
            s = next(stream)
            try:
                cfg = random_config(m, field, seed=s)
            except DegenerateInputError:
                draws.skipped.append((m, s, "random_config"))
                continue
            t = time.monotonic()
            fat = checks.z_is_fat(cfg.points, field.p)
            draws.screen_s += time.monotonic() - t
            if fat:
                draws.skipped.append((m, s, "fat-point condition on Z"))
                continue
            out.append((s, cfg))
            break
    return out


# ---------------------------------------------------------------------------
# Workloads: each returns its operations, built from the seed
# ---------------------------------------------------------------------------


def scan_ops(name, seed, work: Path, draws, sizes=SCAN_SIZES):
    from jumplines.algebra import prime_field

    ops = []
    for i, (s, cfg) in enumerate(_draw(name, seed, sizes, prime_field(101), draws)):
        path = work / f"config-{i}.json"
        path.write_text(cfg.to_json())

        def run(r, path=path, i=i):
            out = work / f"report-{r}-{i}.json"
            return _cli(["jump", "--config", str(path), "--out", str(out)]), out

        def check(result, path=path):
            rc, out = result
            if rc != 0:
                return [f"exit code {rc}"]
            points, p = checks.load_config(path)
            return checks.check_jump_report(json.loads(out.read_text()), points, p, SAMPLE, seed)

        def alter(result, path=path, i=i):
            points, p = checks.load_config(path)
            report = json.loads(result[1].read_text())
            planted = {}
            for what, bad in checks.altered_jump_reports(report, points, p).items():
                planted[what] = (0, work / f"planted-{i}-{len(planted)}.json")
                planted[what][1].write_text(json.dumps(bad))
            return planted

        ops.append(Op(f"jump m={len(cfg)} seed={s}", run, check, alter))
    return ops


def scan_pure_ops(name, seed, work, draws):
    return scan_ops(name, seed, work, draws, SCAN_PURE_SIZES)


def verify_ops(name, seed, work: Path, draws):
    """The shipped seeds, as `jumplines verify` runs them; the seed does not change them."""
    from jumplines.verify import SHIPPED_SEEDS

    ops = []
    for i, s in enumerate(SHIPPED_SEEDS):
        def run(r, s=s, i=i):
            out = work / f"verify-{r}-{i}.json"
            return _cli(["verify", "--seeds", str(s), "--out", str(out)]), out

        def check(result, s=s):
            rc, out = result
            if rc != 0:
                return [f"exit code {rc}"]
            return checks.check_verify_report(json.loads(out.read_text()), s)

        def alter(result, i=i):
            report = json.loads(result[1].read_text())
            report["all_passed"] = False
            bad = work / f"planted-{i}.json"
            bad.write_text(json.dumps(report))
            return {"all_passed false": (0, bad)}

        ops.append(Op(f"verify seed={s}", run, check, alter))
    return ops


WORKLOADS = {"scan": scan_ops, "verify": verify_ops, "scan-pure": scan_pure_ops}


# ---------------------------------------------------------------------------
# Self-test: planted faults must fail the checks
# ---------------------------------------------------------------------------


def self_test(ops, results) -> list:
    """Problems with the checks themselves: each planted fault must be caught."""
    i = next(i for i, op in enumerate(ops) if op.alter)
    if isinstance(results[0][i], Exception):
        return [f"no output to plant faults in: {results[0][i]!r}"]
    planted = ops[i].alter(results[0][i])
    return [f"planted fault not caught: {what}" for what, bad in planted.items() if not ops[i].check(bad)]


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was launched")
    ap.add_argument("--work", type=Path, required=True, help="directory for input and output files")
    ap.add_argument("--trace-out", type=Path, help="where the traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from jumplines import kernels

    want = "pure" if args.workload == "scan-pure" else "compiled"
    if kernels.BACKEND != want:
        print(f"workload {args.workload} needs the {want} backend, got {kernels.BACKEND}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    args.work.mkdir(parents=True, exist_ok=True)
    draws = Draws()
    ops = WORKLOADS[args.workload](args.workload, args.seed, args.work, draws)
    setup_s = time.monotonic() - args.t0 - draws.screen_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    results, op_s, round_s, rounds = [], [], [], []
    start = time.perf_counter()
    while True:
        r = len(results)
        outs, ids = [], []
        t_round = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer:
                tracer.trace_id = r * len(ops) + i + 1
                ids.append(tracer.trace_id)
            t = time.perf_counter()
            try:
                outs.append(op.run(r))
            except Exception as exc:  # the program's fault fails this operation, not the run
                outs.append(exc)
            op_s.append(time.perf_counter() - t)
        round_s.append(time.perf_counter() - t_round)
        results.append(outs)
        rounds.append(ids)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(results) > args.seconds:  # the next round would end too late
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    for outs in results:
        for op, out in zip(ops, outs):
            if isinstance(out, Exception):
                problems = [f"raised {out!r}"]
            else:
                try:
                    problems = op.check(out)
                except Exception as exc:  # a malformed output is a failed operation, not a crash
                    problems = [f"check raised {exc!r}"]
            if problems:
                failures.append({"op": op.label, "problems": problems[:5]})
    selftest = self_test(ops, results)

    info = {
        "workload": args.workload, "seed": args.seed, "backend": kernels.BACKEND, "rounds": len(results),
        "ops_per_round": len(ops), "skipped_draws": draws.skipped,
        "screen_s": draws.screen_s, "round_s": round_s,
        "op_s": op_s, "failures": failures, "self_test": selftest or "passed",
    }
    if tracer:
        metrics = tracer.metrics(rounds)
        info["spans"] = len(tracer.start)
        if args.trace_out:
            tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed, "rounds": rounds})
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(round_s), "unit": "s"},
            "op_s.p50": {"value": statistics.median(op_s), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    attempted = len(ops) * len(results)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures and not selftest,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
