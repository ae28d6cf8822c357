"""Projective-plane points, duality and general-position configurations.

Points are normalized coordinate triples (last nonzero coordinate equal to 1)
so that equality and hashing are canonical.  A :class:`PointConfig` is an
ordered tuple of distinct points with no three collinear, the divisor the
rest of the library works from.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from . import kernels
from .algebra import DegenerateInputError, FieldSpec, Mat, rank

Point = tuple


def normalize_point(field: FieldSpec, coords) -> Point:
    """Scale so the last nonzero coordinate is 1."""
    coords = tuple(field.of(c) for c in coords)
    last = -1
    for i, c in enumerate(coords):
        if not field.is_zero(c):
            last = i
    if last < 0:
        raise ValueError("(0:0:0) is not a projective point")
    inv = field.inv(coords[last])
    return tuple(field.mul(inv, c) for c in coords)


def collinear(field: FieldSpec, a: Point, b: Point, c: Point) -> bool:
    """Whether det[a; b; c] vanishes, by cofactor expansion along a."""
    add, sub, mul = field.add, field.sub, field.mul
    return field.is_zero(add(add(
        mul(a[0], sub(mul(b[1], c[2]), mul(b[2], c[1]))),
        mul(a[1], sub(mul(b[2], c[0]), mul(b[0], c[2])))),
        mul(a[2], sub(mul(b[0], c[1]), mul(b[1], c[0])))))


def dual_line_basis(field: FieldSpec, x: Point):
    """Two independent linear forms vanishing at ``x``.

    The span of the two forms is the pencil of lines through ``x``, i.e. the
    line dual to ``x``.  The choice is the canonical kernel basis of the
    1x3 evaluation row: for the first nonzero coordinate ``i0`` of ``x`` and
    each other index ``j``, the form ``e_j - (x_j / x_i0) e_i0``.
    """
    i0 = 0
    while field.is_zero(x[i0]):
        i0 += 1
    inv = field.inv(x[i0])
    forms = []
    for j in range(3):
        if j == i0:
            continue
        v = [field.zero] * 3
        v[j] = field.one
        v[i0] = field.neg(field.mul(x[j], inv))
        forms.append(tuple(v))
    return forms[0], forms[1]


def plane_rows(p: int, start: int, stop: int):
    """The points of rows start..stop-1 of the projective plane over F_p, in order.

    Affine chart (a : b : 1) first (lexicographic), then the line at
    infinity (a : 1 : 0), then (1 : 0 : 0): p^2 + p + 1 rows in all.
    """
    pp = p * p
    for i in range(start, min(stop, pp)):
        yield i // p, i % p, 1
    for a in range(max(start, pp) - pp, min(stop, pp + p) - pp):
        yield a, 1, 0
    if start <= pp + p < stop:
        yield 1, 0, 0


def plane_points(p: int) -> list:
    """All points of the projective plane over F_p, in the `plane_rows` order."""
    return list(plane_rows(p, 0, p * p + p + 1))


def plane_point(p: int, i: int) -> Point:
    """The point of row i of `plane_points(p)`, the inverse of `plane_index`."""
    pp = p * p
    if not 0 <= i <= pp + p:
        raise ValueError(f"{i} is not a row of the plane over F_{p}")
    if i < pp:
        return i // p, i % p, 1
    return (i - pp, 1, 0) if i < pp + p else (1, 0, 0)


def plane_index(p: int, pt) -> int:
    """Row of the normalized point pt in `plane_points(p)`, the inverse of its order."""
    x0, x1, x2 = pt
    if all(isinstance(c, int) and 0 <= c < p for c in pt):
        if x2 == 1:
            return x0 * p + x1
        if x2 == 0 and x1 == 1:
            return p * p + x0
        if (x0, x1, x2) == (1, 0, 0):
            return p * p + p
    raise ValueError(f"{pt} is not a normalized point of the plane over F_{p}")


def flat_coords(points) -> list:
    """The coordinates of F_p points (ints) as one flat list, as the kernels take them."""
    return list(chain.from_iterable(points))


@dataclass(frozen=True)
class PlaneCoords:
    """The flat coordinates of rows start..stop-1 of `plane_points(p)`, computed on demand.

    A read-only sequence of 3 * (stop - start) ints that the scan kernels
    take in place of a `flat_coords` list: they read (p, start, stop) and
    compute each point from its row, so a scan of the plane, or of a
    thread's chunk of it, builds no list.  A slice on multiples of 3 is
    another range; any other slice is a list.
    """

    p: int
    start: int
    stop: int

    @classmethod
    def whole(cls, p: int) -> "PlaneCoords":
        """Every row of the plane over F_p."""
        return cls(p, 0, p * p + p + 1)

    def __post_init__(self):
        if not 0 <= self.start <= self.stop <= self.p * self.p + self.p + 1:
            raise ValueError(f"rows {self.start}..{self.stop} are not within the plane over F_{self.p}")

    def __len__(self) -> int:
        return 3 * (self.stop - self.start)

    def __getitem__(self, k):
        n = len(self)
        if isinstance(k, slice):
            lo, hi, step = k.indices(n)
            if step == 1 and lo % 3 == 0 and hi % 3 == 0:
                return PlaneCoords(self.p, self.start + lo // 3, self.start + max(lo, hi) // 3)
            return [self[i] for i in range(lo, hi, step)]
        if not -n <= k < n:
            raise IndexError("plane range index out of range")
        k %= n
        return plane_point(self.p, self.start + k // 3)[k % 3]

    def __iter__(self):
        return chain.from_iterable(plane_rows(self.p, self.start, self.stop))


@dataclass(frozen=True)
class PointConfig:
    """Ordered tuple of distinct plane points over a common field."""

    points: tuple
    field: FieldSpec

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, x) -> bool:
        return tuple(x) in set(self.points)

    def to_json(self) -> str:
        payload = {
            "field": self.field.tag,
            "points": [[self.field.to_json(c) for c in pt] for pt in self.points],
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "PointConfig":
        """Read a configuration; repeated points raise `DegenerateInputError`,
        malformed points and coordinates `ValueError`."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("a configuration must be a JSON object")
        field = FieldSpec.from_tag(payload["field"])
        raw = payload["points"]
        if not isinstance(raw, list) or not all(isinstance(pt, list) and len(pt) == 3 for pt in raw):
            raise ValueError("points must be a list of coordinate triples")
        # a float or a boolean would be truncated or read as 0 or 1
        if not all(isinstance(c, (int, str)) and not isinstance(c, bool) for pt in raw for c in pt):
            raise ValueError("coordinates must be integers or 'num/den' strings")
        try:
            pts = tuple(normalize_point(field, pt) for pt in raw)
        except ZeroDivisionError:
            raise ValueError(f"a coordinate has a denominator that is 0 in {field.tag}") from None
        if len(set(pts)) != len(pts):
            raise DegenerateInputError("configuration has repeated points")
        return cls(pts, field)


@lru_cache(maxsize=None)
def monomials(d: int) -> tuple:
    """Exponent triples of degree d, deg-lex descending."""
    return tuple((a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1))


def evaluation_rows(field: FieldSpec, points, d: int) -> list:
    """Values of the degree-d monomials (`monomials` order) at each point, one row per point."""
    mons = monomials(d)
    mul = field.mul
    rows = []
    for pt in points:
        p0, p1, p2 = ([field.one] for _ in range(3))
        for _ in range(d):
            p0.append(mul(p0[-1], pt[0]))
            p1.append(mul(p1[-1], pt[1]))
            p2.append(mul(p2[-1], pt[2]))
        rows.append([mul(mul(p0[a], p1[b]), p2[c]) for a, b, c in mons])
    return rows


def _evaluation_rank(field: FieldSpec, points, d: int) -> int:
    rows = evaluation_rows(field, points, d)
    if field.kind == "fp":
        return kernels.rank_mod_p([v for row in rows for v in row], len(rows), len(monomials(d)), field.p)
    return rank(field, Mat.from_rows(rows))


def validate_config(cfg: PointConfig, degrees=()) -> None:
    """Check distinctness, no three collinear and imposed-condition ranks.

    For each requested degree ``d`` the points must impose independent
    conditions on degree-d forms, i.e. the evaluation matrix must have rank
    ``min(len(cfg), binom(d+2, 2))``.  Over a small prime field this is a
    strictly stronger condition than linear general position.
    """
    pts = cfg.points
    m = len(pts)
    if len(set(pts)) != m:
        raise DegenerateInputError("configuration has repeated points")
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                if collinear(cfg.field, pts[i], pts[j], pts[k]):
                    raise DegenerateInputError(
                        f"points {i},{j},{k} are collinear"
                    )
    for d in degrees:
        want = min(m, (d + 2) * (d + 1) // 2)
        got = _evaluation_rank(cfg.field, pts, d)
        if got != want:
            raise DegenerateInputError(
                f"points impose dependent conditions in degree {d} (rank {got} < {want})"
            )


# configurations random_config draws before it gives up
_CONFIG_RETRIES = 1000


def random_config(count: int, field: FieldSpec, seed: int) -> PointConfig:
    """Seeded random configuration in linear general position.

    Deterministic in ``(count, field, seed)``.  Rejection-resamples until no
    three points are collinear and the points impose independent conditions
    in every degree up to count // 2, the degrees the scans use; raises after
    the retry budget (field too small).
    """
    if count < 1:
        raise ValueError("count must be positive")
    if field.kind == "fp" and field.p * field.p + field.p + 1 <= 10 * count:
        raise DegenerateInputError(
            f"field fp:{field.p} too small for {count} points in general position"
        )
    rng = random.Random(f"jumplines:config:{field.tag}:{count}:{seed}")

    def draw() -> Point:
        while True:
            if field.kind == "fp":
                c = (rng.randrange(field.p), rng.randrange(field.p), rng.randrange(field.p))
            else:
                c = tuple(rng.randint(-9, 9) for _ in range(3))
            if any(c):
                return normalize_point(field, c)

    for _ in range(_CONFIG_RETRIES):
        pts: list = []
        stuck = False
        for _ in range(count):
            for _ in range(200):
                cand = draw()
                if cand in pts:
                    continue
                if any(
                    collinear(field, pts[i], pts[j], cand)
                    for i in range(len(pts))
                    for j in range(i + 1, len(pts))
                ):
                    continue
                pts.append(cand)
                break
            else:
                stuck = True
                break
        if stuck:
            continue
        cfg = PointConfig(tuple(pts), field)
        try:
            validate_config(cfg, range(1, count // 2 + 1))
        except DegenerateInputError:
            continue
        return cfg
    raise DegenerateInputError(
        f"no general-position configuration of {count} points found in {_CONFIG_RETRIES} tries"
    )
