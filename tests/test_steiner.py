import random
from fractions import Fraction

import pytest

from jumplines.algebra import DegenerateInputError, Mat, RATIONALS, prime_field, rank
from jumplines.geom import PlaneCoords, flat_coords, normalize_point, plane_point, plane_points, random_config
from jumplines.jumping import gamma_points
from jumplines.steiner import (
    generic_eps1,
    jumping_order,
    minimal_indices,
    pencil_nullity,
    restrict_to_dual_line,
    splitting_scan,
    splitting_type,
    steiner_pencil,
)

F101 = prime_field(101)


@pytest.fixture(scope="module")
def cfg8():
    return random_config(8, F101, seed=1)


@pytest.fixture(scope="module")
def sp8(cfg8):
    return steiner_pencil(cfg8)


def test_pencil_sizes(cfg8):
    sp = steiner_pencil(cfg8)
    assert (sp.A0.rows, sp.A0.cols) == (5, 7)
    sp7 = steiner_pencil(random_config(7, F101, seed=1))
    assert (sp7.A0.rows, sp7.A0.cols) == (4, 6)
    with pytest.raises(DegenerateInputError):
        steiner_pencil(random_config(3, F101, seed=1))


def test_generic_member_rank_and_kernel(sp8):
    rng = random.Random(3)
    for _ in range(10):
        l = tuple(rng.randrange(101) for _ in range(3))
        if not any(l):
            continue
        m = sp8.member(l)
        assert rank(F101, m) == 5
        # kernel of a full-rank member has dimension cols - rows = 2


def test_restriction_shapes(sp8):
    b0, b1 = restrict_to_dual_line(sp8, normalize_point(F101, (4, 9, 1)))
    assert (b0.rows, b0.cols) == (5, 7) and (b1.rows, b1.cols) == (5, 7)


def test_toy_pencil_minimal_index():
    b0 = Mat.from_rows([[1, 0, 0], [0, 1, 0]])
    b1 = Mat.from_rows([[0, 1, 0], [0, 0, 1]])
    assert minimal_indices(F101, b0, b1) == (2,)
    assert [pencil_nullity(F101, b0, b1, d) for d in range(4)] == [0, 0, 1, 2]
    # same over the rationals
    q = RATIONALS
    b0q = Mat.from_rows([[Fraction(v) for v in row] for row in ([1, 0, 0], [0, 1, 0])])
    b1q = Mat.from_rows([[Fraction(v) for v in row] for row in ([0, 1, 0], [0, 0, 1])])
    assert minimal_indices(q, b0q, b1q) == (2,)


def test_rank_deficient_pencil_rejected():
    z = Mat.zero(F101, 2, 4)
    with pytest.raises(ArithmeticError):
        minimal_indices(F101, z, z)


def test_splitting_values_at_special_points(cfg8, sp8):
    # configuration points: (1, 6); extra jumping points: (2, 5); generic: (3, 4)
    for x in cfg8.points:
        assert splitting_type(sp8, x) == (1, 6)
        assert jumping_order(sp8, x) == 2
    for x in gamma_points(cfg8):
        assert splitting_type(sp8, x) == (2, 5)
        assert jumping_order(sp8, x) == 1
    rng = random.Random(5)
    pts = plane_points(101)
    special = set(cfg8.points) | set(gamma_points(cfg8))
    checked = 0
    while checked < 10:
        x = pts[rng.randrange(len(pts))]
        if x in special:
            continue
        assert splitting_type(sp8, x) == (3, 4)
        assert jumping_order(sp8, x) == 0
        checked += 1


def test_splitting_invariants(cfg8, sp8):
    rng = random.Random(7)
    pts = plane_points(101)
    for _ in range(15):
        x = pts[rng.randrange(len(pts))]
        eps1, eps2 = splitting_type(sp8, x)
        assert eps1 + eps2 == sp8.m - 1
        assert 1 <= eps1 <= eps2 and eps1 <= generic_eps1(sp8.m)


def test_nullity_sequence_matches_indices(cfg8, sp8):
    rng = random.Random(11)
    pts = plane_points(101)
    for _ in range(5):
        x = pts[rng.randrange(len(pts))]
        b0, b1 = restrict_to_dual_line(sp8, x)
        d1, d2 = minimal_indices(F101, b0, b1, want=2)
        for d in range(d2 + 2):
            expected = max(0, d - d1 + 1) + max(0, d - d2 + 1)
            assert pencil_nullity(F101, b0, b1, d) == expected


def test_reparametrization_invariance(cfg8, sp8):
    rng = random.Random(13)
    x = normalize_point(F101, (17, 44, 1))
    b0, b1 = restrict_to_dual_line(sp8, x)
    base = minimal_indices(F101, b0, b1, want=2)
    for _ in range(5):
        a, b, c, d = (rng.randrange(101) for _ in range(4))
        if (a * d - b * c) % 101 == 0:
            continue
        nb0 = Mat(5, 7, tuple((a * u + b * v) % 101 for u, v in zip(b0.entries, b1.entries)))
        nb1 = Mat(5, 7, tuple((c * u + d * v) % 101 for u, v in zip(b0.entries, b1.entries)))
        assert minimal_indices(F101, nb0, nb1, want=2) == base


def test_gl_equivalence_invariance(cfg8, sp8):
    # row/column changes of basis do not move the minimal indices
    rng = random.Random(17)
    x = normalize_point(F101, (23, 5, 1))
    b0, b1 = restrict_to_dual_line(sp8, x)
    base = minimal_indices(F101, b0, b1, want=2)

    def rand_inv(n):
        while True:
            m = Mat(n, n, tuple(rng.randrange(101) for _ in range(n * n)))
            if rank(F101, m) == n:
                return m

    from jumplines.algebra import mat_mul

    p, q = rand_inv(5), rand_inv(7)
    c0 = mat_mul(F101, mat_mul(F101, p, b0), q)
    c1 = mat_mul(F101, mat_mul(F101, p, b1), q)
    assert minimal_indices(F101, c0, c1, want=2) == base


def test_four_point_pencil_never_jumps():
    cfg = random_config(4, F101, seed=2)
    sp = steiner_pencil(cfg)
    assert (sp.A0.rows, sp.A0.cols) == (1, 3)
    rng = random.Random(19)
    pts = plane_points(101)
    for _ in range(25):
        x = pts[rng.randrange(len(pts))]
        assert jumping_order(sp, x) == 0


@pytest.mark.parametrize("m", [6, 8, 9])
def test_splitting_scan_matches_pointwise_and_threads(m):
    cfg = random_config(m, F101, seed=1)
    sp = steiner_pencil(cfg)
    special = list(cfg.points) + (gamma_points(cfg) if m % 2 == 0 else [])
    pts = plane_points(101)[:120] + special
    # a flat point list, and the last 202 plane rows: they start mid-row and
    # hold the line at infinity
    rows = PlaneCoords(101, 101**2 - 100, 101**2 + 102)
    tail = [plane_point(101, i) for i in range(rows.start, rows.stop)]
    for flat, points in ((flat_coords(pts), pts), (rows, tail)):
        columns = [splitting_scan(sp, flat, threads=t) for t in (1, 2, 3)]
        assert columns[1] == columns[0] and columns[2] == columns[0]
        pairs = list(zip(*columns[0]))
        assert len(pairs) == len(points)
        # the second index is computed, not taken from eps1 + eps2 = m - 1
        assert all(a + b == m - 1 for a, b in pairs)
        for x, pair in zip(points, pairs):
            assert splitting_type(sp, x) == pair
            assert jumping_order(sp, x) == generic_eps1(m) - pair[0]


@pytest.mark.parametrize("m", [6, 8, 9, 12])
def test_splitting_type_matches_the_generic_staircase(m):
    # splitting_type over F_p is a one-point scan kernel call; minimal_indices
    # runs the field-generic staircase on the pencil restricted in Python
    # (seed 2: at m = 8 and 12 Gamma has an F_101-point, at m = 12 seed 1 none)
    cfg = random_config(m, F101, seed=2)
    sp = steiner_pencil(cfg)
    pts = plane_points(101)
    rng = random.Random(m)
    gamma = gamma_points(cfg) if m % 2 == 0 else []
    assert len(gamma) > 0 or m in (6, 9)
    special = list(cfg.points) + gamma
    for x in special + rng.sample(pts, 40):
        d1, d2 = minimal_indices(F101, *restrict_to_dual_line(sp, x), want=2)
        assert splitting_type(sp, x) == (d1 + 1, d2 + 1), x


@pytest.mark.parametrize("m", [6, 8])
def test_rational_pencil_route_end_to_end(m):
    # the staircase over Q: the points of Z jump with order n - 2, and
    # seeded rational points off Z do not jump
    cfg = random_config(m, RATIONALS, seed=1)
    sp = steiner_pencil(cfg)
    assert [jumping_order(sp, z) for z in cfg.points] == [m // 2 - 2] * m
    rng = random.Random(m)
    off = []
    while len(off) < 5:
        c = [rng.randint(-9, 9) for _ in range(3)]
        if any(c) and (x := normalize_point(RATIONALS, c)) not in cfg and x not in off:
            off.append(x)
    assert [jumping_order(sp, x) for x in off] == [0] * 5


def test_pencil_json_dump(sp8):
    import json

    payload = json.loads(sp8.to_json())
    assert payload["m"] == 8
    assert len(payload["A"]) == 3
    assert len(payload["A"][0]) == 35
