"""Command-line surface.

Subcommands: gen, jump, monoidal, gamma, pencil4, degrees, verify, render, info.
Exit codes: 0 success, 1 usage error, 2 degenerate input, 3 verdict failure.
Every command is replayable: identical flags and seeds give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, kernels
from .algebra import DegenerateInputError, FieldSpec, distinct_degree_profile, prime_field, up_squarefree_part
from .forms import monoidal_det
from .geom import PointConfig, random_config, validate_config
from .intersect import length_accounting, tangency_degree
from .jumping import gamma_points, jumping_scan, lift_eliminant_roots, pencil4_eliminant
from .render import render_svg
from .verify import SHIPPED_SEEDS, run_all


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# the text layer copies what it writes into one bytes object, so a long part
# is written a slice at a time: a report is never held twice
_WRITE_SLICE = 1 << 20


def _write(path: str | None, *parts: str) -> None:
    """Write the parts, one after another, to the file at path or to stdout."""

    def out(fh):
        for part in parts:
            for i in range(0, len(part), _WRITE_SLICE):
                fh.write(part[i : i + _WRITE_SLICE])

    if path is None or path == "-":
        out(sys.stdout)
    else:
        with open(path, "w") as fh:
            out(fh)


def _field(tag: str) -> FieldSpec:
    """argparse type of --field: 'q' or 'fp:<p>' with p prime."""
    try:
        return FieldSpec.from_tag(tag)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _prime(text: str) -> int:
    """argparse type of verify's --p: a prime."""
    try:
        return prime_field(int(text)).p
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive(text: str) -> int:
    """argparse type of counts, thread counts and sizes: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"want a positive integer, got {text!r}")
    return value


def _seed_list(text: str) -> tuple:
    """argparse type of verify's --seeds: comma-separated integers, at least one."""
    try:
        seeds = tuple(int(s) for s in text.split(",") if s)
    except ValueError:
        seeds = ()
    if not seeds:
        raise argparse.ArgumentTypeError(f"want comma-separated integers, got {text!r}")
    return seeds


def _load_config(args) -> PointConfig:
    """The configuration of --config FILE, checked for repeated and collinear
    points, or the one generated from --count/--seed/--field."""
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
        try:
            cfg = PointConfig.from_json(text)
        except KeyError as exc:
            raise UsageError(f"configuration file {args.config} has no {exc} entry") from None
        except DegenerateInputError:
            raise
        except ValueError as exc:
            raise UsageError(f"configuration file {args.config}: {exc}") from None
        validate_config(cfg)
        return cfg
    if args.count:
        return random_config(args.count, args.field, seed=args.seed)
    raise UsageError("provide --config FILE or --count/--seed/--field")


def _add_config_source(sub):
    sub.add_argument("--config", help="configuration JSON file")
    sub.add_argument("--count", type=_positive, help="generate: number of points")
    sub.add_argument("--field", type=_field, default="fp:101", help="q or fp:<p> (default fp:101)")
    sub.add_argument("--seed", type=int, default=1, help="generator seed")


def build_parser() -> _Parser:
    ap = _Parser(prog="jumplines", description=__doc__.splitlines()[0])
    sp = ap.add_subparsers(dest="command", required=True)

    g = sp.add_parser("gen", help="generate a general-position configuration")
    g.add_argument("--count", type=_positive, required=True)
    g.add_argument("--field", type=_field, default="fp:101")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--out", default=None)

    j = sp.add_parser("jump", help="exhaustive jumping-line scan over the plane")
    _add_config_source(j)
    j.add_argument("--format", choices=("json", "csv"), default="json")
    j.add_argument("--threads", type=_positive, default=1)
    j.add_argument("--out", default=None)

    mo = sp.add_parser("monoidal", help="monoidal determinant of an odd configuration")
    _add_config_source(mo)
    mo.add_argument("--out", default=None)

    ga = sp.add_parser("gamma", help="rational extra jumping points of an even configuration")
    _add_config_source(ga)
    ga.add_argument("--out", default=None)

    p4 = sp.add_parser("pencil4", help="eliminant pipeline for an 8-point configuration")
    _add_config_source(p4)
    p4.add_argument("--out", default=None)

    de = sp.add_parser("degrees", help="intersection-theory degree table")
    de.add_argument("--n-max", type=int, default=12)
    de.add_argument("--out", default=None)

    ve = sp.add_parser("verify", help="run the full verification suite")
    ve.add_argument("--seeds", type=_seed_list, default=",".join(str(s) for s in SHIPPED_SEEDS),
                    help="comma-separated seed list")
    ve.add_argument("--p", type=_prime, default=101)
    ve.add_argument("--out", default=None)

    re = sp.add_parser("render", help="SVG picture of a rational configuration")
    _add_config_source(re)
    re.add_argument("--grid", type=_positive, default=160)
    re.add_argument("--out", default=None)

    sp.add_parser("info", help="the kernel backend, the compiled prime range and the version")
    return ap


def cmd_gen(args) -> int:
    cfg = random_config(args.count, args.field, seed=args.seed)
    _write(args.out, cfg.to_json())
    return 0


def _need_prime_field(cfg: PointConfig, command: str) -> None:
    if cfg.field.kind != "fp":
        raise UsageError(f"{command} scans every point of the plane and needs a prime field (fp:<p>)")


def cmd_jump(args) -> int:
    cfg = _load_config(args)
    _need_prime_field(cfg, "jump")
    if args.threads > 1 and kernels.impl_for(cfg.field.p).BACKEND == "pure":
        print(f"warning: --threads {args.threads} runs on the pure-Python kernels, which hold the GIL; "
              "expect no speed-up", file=sys.stderr)
    rep = jumping_scan(cfg, threads=args.threads)
    _write(args.out, *(rep.json_parts() if args.format == "json" else rep.csv_parts()))
    if not rep.verdicts.get("gamma_disjoint_from_z", True):
        raise DegenerateInputError("fat-point condition meets the configuration")
    return 0 if rep.all_verdicts_true() else 3


def cmd_monoidal(args) -> int:
    cfg = _load_config(args)
    mono = monoidal_det(cfg)
    _write(args.out, json.dumps(mono.to_json_obj(cfg.field), indent=2) + "\n")
    return 0


def cmd_gamma(args) -> int:
    cfg = _load_config(args)
    _need_prime_field(cfg, "gamma")
    pts = gamma_points(cfg)
    f = cfg.field
    payload = {
        "count": len(pts),
        "gamma": [[f.to_json(c) for c in pt] for pt in pts],
    }
    _write(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_pencil4(args) -> int:
    cfg = _load_config(args)
    f = cfg.field
    res = pencil4_eliminant(cfg)
    sf = up_squarefree_part(f, res.r12)
    payload = {
        "degrees": {"r16": len(res.r16) - 1, "r4": len(res.r4) - 1, "r12": len(res.r12) - 1},
        "r12": [f.to_json(c) for c in res.r12],
        "r16": [f.to_json(c) for c in res.r16],
        "r4": [f.to_json(c) for c in res.r4],
        "squarefree": len(sf) == len(res.r12),
        "closure_degree_buckets": distinct_degree_profile(f, sf) if f.kind == "fp" else None,
        "transform": [f.to_json(v) for v in res.transform.entries],
        "attempts": res.attempts,
        "lifted_rational_roots": [[f.to_json(c) for c in pt] for pt in lift_eliminant_roots(cfg, res)]
        if f.kind == "fp"
        else None,
    }
    _write(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_degrees(args) -> int:
    rows = []
    for n in range(2, args.n_max + 1):
        dim, deg = tangency_degree(n)
        total, z_part, gamma_part = length_accounting(n)
        rows.append(
            {
                "n": n,
                "dim": dim,
                "deg": deg,
                "jumping_length": total,
                "z_part": z_part,
                "gamma_part": gamma_part,
            }
        )
    _write(args.out, json.dumps(rows, indent=2) + "\n")
    return 0


def cmd_verify(args) -> int:
    results, bundles = run_all(seeds=args.seeds, p=args.p)
    lines = [r.line() for r in results]
    report = {
        "seeds": list(args.seeds),
        "p": args.p,
        "reseeds": {b.seed: b.report.reseeds for b in bundles if b.report.reseeds},
        "criteria": [
            {"number": r.number, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    for line in lines:
        print(line)
    if args.out:
        _write(args.out, json.dumps(report, indent=2) + "\n")
    return 0 if report["all_passed"] else 3


def cmd_render(args) -> int:
    cfg = _load_config(args)
    _write(args.out, render_svg(cfg, grid=args.grid))
    return 0


def cmd_info(args) -> int:
    compiled = "compiled" in kernels.backends()
    print(f"backend: {kernels.BACKEND}")
    print(f"jumplines._fastkern: {'imported' if compiled else 'not importable'}")
    print(f"compiled kernels: primes p < {kernels.COMPILED_P_LIMIT}")
    print(f"version: {__version__}")
    return 0


_DISPATCH = {
    "gen": cmd_gen,
    "jump": cmd_jump,
    "monoidal": cmd_monoidal,
    "gamma": cmd_gamma,
    "pencil4": cmd_pencil4,
    "degrees": cmd_degrees,
    "verify": cmd_verify,
    "render": cmd_render,
    "info": cmd_info,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DegenerateInputError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file that is missing, a directory or unreadable
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
