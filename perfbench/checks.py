"""Checks of jumplines outputs that share no code with jumplines.

Every answer the program gives is compared with properties of the theory and
with the benchmark's own linear algebra, written here from scratch:

* elimination over F_p;
* the fat-point criterion: a point x outside Z gives a jumping line iff, for
  some 1 <= a < floor((m-1)/2), a curve of degree a+1 through Z has
  multiplicity at least a at x (all Hasse derivatives of order < a vanish);
* the enumeration of the projective plane over F_p.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import random
from math import comb


# ---------------------------------------------------------------------------
# Linear algebra over F_p
# ---------------------------------------------------------------------------


def _reduce(a, p):
    """Row-reduce ``a`` in place to reduced echelon form; return the pivot columns."""
    pivots = []
    ncols = len(a[0]) if a else 0
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(a)) if a[i][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(len(a)):
            f = a[i][c]
            if i != r and f:
                a[i] = [(u - f * v) % p for u, v in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return pivots


def rank(rows, p) -> int:
    return len(_reduce([[v % p for v in row] for row in rows], p))


def kernel(rows, ncols: int, p) -> list:
    """A basis of the null space of ``rows`` (vectors of length ``ncols``)."""
    a = [[v % p for v in row] for row in rows]
    pivots = _reduce(a, p)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for row, c in zip(a, pivots):
            v[c] = (-row[free]) % p
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# The fat-point criterion
# ---------------------------------------------------------------------------


def _exponents(d: int) -> list:
    return [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]


def _hasse_row(x, d: int, beta, p) -> list:
    """Hasse derivative D^beta of each degree-d monomial, evaluated at x."""
    row = []
    for e in _exponents(d):
        if any(ei < bi for ei, bi in zip(e, beta)):
            row.append(0)
            continue
        v = comb(e[0], beta[0]) * comb(e[1], beta[1]) * comb(e[2], beta[2])
        for xi, ei, bi in zip(x, e, beta):
            v *= pow(xi, ei - bi, p)
        row.append(v % p)
    return row


class FatPoints:
    """Decides the fat-point criterion for one configuration Z over F_p."""

    def __init__(self, points, p: int):
        self.points = [tuple(pt) for pt in points]
        self.p = p
        m = len(self.points)
        self.a_range = range(1, (m - 1) // 2)
        # degree-(a+1) curves through Z, as coefficient vectors
        self.systems = {}
        for a in self.a_range:
            d = a + 1
            rows = [_hasse_row(z, d, (0, 0, 0), p) for z in self.points]
            self.systems[a] = kernel(rows, len(_exponents(d)), p)

    def has_fat_curve(self, x, a: int) -> bool:
        """Is there a degree-(a+1) curve through Z with multiplicity >= a at x?"""
        basis = self.systems[a]
        if not basis:
            return False
        d = a + 1
        rows = []
        for k in range(a):
            for beta in _exponents(k):
                h = _hasse_row(x, d, beta, self.p)
                rows.append([sum(c * v for c, v in zip(h, vec)) for vec in basis])
        return rank(rows, self.p) < len(basis)

    def jumps(self, x) -> bool:
        return any(self.has_fat_curve(x, a) for a in self.a_range)


# ---------------------------------------------------------------------------
# The projective plane and configuration inputs
# ---------------------------------------------------------------------------


def normalize(pt, p):
    """Scale so that the last nonzero coordinate is 1."""
    last = max(i for i, c in enumerate(pt) if c % p)
    inv = pow(pt[last], -1, p)
    return tuple(c * inv % p for c in pt)


def plane(p: int) -> set:
    """Every point of the plane over F_p, each written with its last nonzero coordinate 1."""
    pts = {(a, b, 1) for a in range(p) for b in range(p)}
    return pts | {(a, 1, 0) for a in range(p)} | {(1, 0, 0)}


def load_config(path):
    """(points, p) of a configuration file over F_p."""
    with open(path) as fh:
        payload = json.load(fh)
    return [tuple(pt) for pt in payload["points"]], int(payload["field"].removeprefix("fp:"))


def z_is_fat(points, p) -> bool:
    """Does the fat-point condition hold at a point of Z (an even configuration)?

    For 2n points the extra jumping points carry a degree-(n-1) curve through
    Z with an (n-2)-fold point; a configuration where such a curve has that
    point on Z itself is outside the general position the theorem assumes,
    and verify reseeds past it.
    """
    m = len(points)
    if m % 2 or m < 8:
        return False
    fat = FatPoints(points, p)
    return any(fat.has_fat_curve(z, m // 2 - 2) for z in points)


# ---------------------------------------------------------------------------
# Checks of program outputs
# ---------------------------------------------------------------------------


def check_splitting(m: int, eps1: int, eps2: int, in_z: bool) -> list:
    """Properties every splitting type must have; returns problems."""
    out = []
    order = (m - 1) // 2 - eps1
    if eps1 + eps2 != m - 1:
        out.append(f"eps1 + eps2 = {eps1 + eps2}, want m - 1 = {m - 1}")
    if eps1 > eps2:
        out.append(f"eps1 {eps1} > eps2 {eps2}")
    if order < 0:
        out.append(f"order {order} < 0")
    if in_z and m % 2 == 0 and order != m // 2 - 2:
        out.append(f"order {order} at a point of Z, want n - 2 = {m // 2 - 2}")
    return out


def check_jump_report(report: dict, points, p: int, sample: int, seed: int) -> list:
    """Check a `jumplines jump` JSON report for the configuration ``points``."""
    m = len(points)
    zset = {normalize(z, p) for z in points}
    recs = {}
    problems = []
    for r in report["records"]:
        x, (eps1, eps2, order, in_z, in_g) = tuple(r[:3]), r[3:]
        if x in recs:
            problems.append(f"{x}: listed twice")
        recs[x] = (eps1, eps2, order, bool(in_g))
        if order != (m - 1) // 2 - eps1:
            problems.append(f"{x}: order {order} does not match eps1 {eps1}")
        if bool(in_z) != (x in zset):
            problems.append(f"{x}: in_z flag {in_z}")
        problems += [f"{x}: {msg}" for msg in check_splitting(m, eps1, eps2, x in zset)]
    if set(recs) != plane(p):
        problems.append(f"records cover {len(recs)} points, not the plane over F_{p}")
        return problems
    gamma = {tuple(pt) for pt in report["gamma"]}
    if gamma != {x for x, v in recs.items() if v[3]}:
        problems.append("in_gamma flags differ from the gamma list")
    if m % 2 and gamma:
        problems.append("an odd configuration reports gamma points")
    rng = random.Random(f"perfbench:sample:{seed}")
    to_check = set(rng.sample(sorted(recs), sample)) | gamma
    to_check |= {x for x, v in recs.items() if v[2] >= 1}
    fat = FatPoints(points, p)
    for x in sorted(to_check - zset):
        jumps = fat.jumps(x)
        if jumps != (recs[x][2] >= 1):
            problems.append(f"{x}: order {recs[x][2]}, but the fat-point test says {jumps}")
    return problems


def check_verify_report(report: dict, seed: int) -> list:
    problems = []
    if report.get("seeds") != [seed]:
        problems.append(f"seeds {report.get('seeds')}, want [{seed}]")
    numbers = [c["number"] for c in report.get("criteria", [])]
    if numbers != list(range(1, 11)):
        problems.append(f"criteria {numbers}, want 1..10")
    problems += [f"criterion {c['number']} failed" for c in report.get("criteria", []) if not c["passed"]]
    if report.get("all_passed") is not True:
        problems.append("all_passed is not true")
    return problems


# ---------------------------------------------------------------------------
# Self-test: altered outputs must fail
# ---------------------------------------------------------------------------


def altered_jump_reports(report: dict, points, p: int) -> dict:
    """Copies of a correct report, each with one planted fault."""
    zset = {normalize(z, p) for z in points}
    i = next(i for i, r in enumerate(report["records"]) if tuple(r[:3]) not in zset and r[5] == 0)
    # a point that does not jump, claimed to jump with eps1 + eps2 still m - 1
    flipped = json.loads(json.dumps(report))
    r = flipped["records"][i]
    r[3], r[4], r[5] = r[3] - 1, r[4] + 1, r[5] + 1
    # eps1 off by one, order following it
    shifted = json.loads(json.dumps(report))
    r = shifted["records"][i]
    r[3], r[5] = r[3] + 1, r[5] - 1
    return {"order flipped across 0": flipped, "eps1 off by one": shifted}
