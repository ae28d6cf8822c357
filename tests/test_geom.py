import random
from fractions import Fraction

import pytest

from jumplines.algebra import DegenerateInputError, Mat, RATIONALS, prime_field, rank
from jumplines.geom import (
    PointConfig,
    collinear,
    dual_line_basis,
    normalize_point,
    plane_index,
    plane_points,
    random_config,
    validate_config,
)

F101 = prime_field(101)


def test_normalize_idempotent_and_proportional():
    rng = random.Random(3)
    for _ in range(20):
        c = tuple(rng.randrange(101) for _ in range(3))
        if not any(c):
            continue
        x = normalize_point(F101, c)
        assert normalize_point(F101, x) == x
        scale = rng.randrange(1, 101)
        assert normalize_point(F101, tuple(v * scale % 101 for v in c)) == x
    with pytest.raises(ValueError):
        normalize_point(F101, (0, 0, 0))


def test_collinear_examples():
    q = RATIONALS
    one, zero = Fraction(1), Fraction(0)
    assert collinear(q, (one, zero, zero), (zero, one, zero), (one, one, zero))
    assert not collinear(q, (one, zero, zero), (zero, one, zero), (zero, zero, one))
    # determinant of rows (1,1,1),(1,2,3),(1,3,5) expands to zero
    assert collinear(q, (one, one, one), (one, Fraction(2), Fraction(3)), (one, Fraction(3), Fraction(5)))


def test_dual_line_basis_axis_points():
    q = RATIONALS
    l0, l1 = dual_line_basis(q, normalize_point(q, (0, 0, 1)))
    assert l0 == (Fraction(1), Fraction(0), Fraction(0))
    assert l1 == (Fraction(0), Fraction(1), Fraction(0))
    l0, l1 = dual_line_basis(q, normalize_point(q, (1, 0, 0)))
    assert l0[0] == 0 and l1[0] == 0


def test_dual_line_basis_vanishes_and_independent():
    rng = random.Random(5)
    for _ in range(20):
        c = tuple(rng.randrange(101) for _ in range(3))
        if not any(c):
            continue
        x = normalize_point(F101, c)
        l0, l1 = dual_line_basis(F101, x)
        for l in (l0, l1):
            assert sum(a * b for a, b in zip(l, x)) % 101 == 0
        assert rank(F101, Mat.from_rows([list(l0), list(l1)])) == 2


def test_plane_points_enumeration():
    pts = plane_points(5)
    assert len(pts) == 31
    assert len(set(pts)) == 31
    for pt in pts:
        assert normalize_point(prime_field(5), pt) == pt


@pytest.mark.parametrize("p", [2, 3, 5, 31])
def test_plane_index_inverts_the_plane_order(p):
    for i, pt in enumerate(plane_points(p)):
        assert plane_index(p, pt) == i


@pytest.mark.parametrize("pt", [
    (2, 4, 2),  # (1, 2, 1) unnormalized
    (3, 0, 0),  # (1, 0, 0) unnormalized
    (0, 2, 0),  # (0, 1, 0) unnormalized
    (0, 0, 0),
    (0, 0, 1.0),
    (5, 0, 1),  # a coordinate outside [0, p)
    (-1, 0, 1),
    (0, 1),
    (0, 0, 1, 0),
])
def test_plane_index_rejects_what_is_not_a_plane_point(pt):
    with pytest.raises(ValueError):
        plane_index(5, pt)


def test_random_config_deterministic():
    a = random_config(8, F101, seed=4)
    b = random_config(8, F101, seed=4)
    assert a == b
    c = random_config(8, F101, seed=5)
    assert a != c


def test_random_config_rational():
    cfg = random_config(4, RATIONALS, seed=2)
    assert len(cfg) == 4
    validate_config(cfg, degrees=(1, 2))


def test_random_config_imposes_conditions():
    cfg = random_config(8, F101, seed=1)
    validate_config(cfg, degrees=(1, 2, 3, 4))
    # dimension checks ride on the evaluation rank: binom(5,2) - 8 = 2
    from jumplines.forms import curves_through

    assert curves_through(cfg, 3).dim() == 2


def test_random_config_field_too_small():
    with pytest.raises(DegenerateInputError):
        random_config(8, prime_field(5), seed=1)


def test_validate_rejects_collinear():
    q = RATIONALS
    pts = tuple(
        normalize_point(q, p) for p in ((1, 0, 1), (0, 1, 1), (2, 0, 2), (3, 5, 1))
    )
    with pytest.raises(DegenerateInputError):
        validate_config(PointConfig(pts, q))


def test_validate_rejects_duplicates():
    q = RATIONALS
    pts = tuple(normalize_point(q, p) for p in ((1, 0, 1), (2, 0, 2), (0, 1, 1)))
    with pytest.raises(DegenerateInputError):
        validate_config(PointConfig(pts, q))


def test_config_json_roundtrip():
    for field, seed in ((F101, 1), (RATIONALS, 1)):
        cfg = random_config(5, field, seed=seed)
        again = PointConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.to_json() == cfg.to_json()
