import random
from fractions import Fraction

import pytest

from jumplines.algebra import (
    FieldSpec,
    Mat,
    RATIONALS,
    binomial,
    det,
    distinct_degree_profile,
    kernel_basis,
    mat_inverse,
    mat_mul,
    prime_field,
    rank,
    rref,
    solve_exact,
    transpose,
    up_derivative,
    up_divrem,
    up_eval,
    up_gcd,
    up_interpolate,
    up_monic,
    up_mul,
    up_squarefree_part,
    up_trim,
)

F101 = prime_field(101)


def rand_mat(field, rng, r, c):
    if field.kind == "fp":
        return Mat(r, c, tuple(rng.randrange(field.p) for _ in range(r * c)))
    return Mat(r, c, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(r * c)))


def test_field_tags_roundtrip():
    assert FieldSpec.from_tag("q") == RATIONALS
    assert FieldSpec.from_tag("fp:101") == F101
    with pytest.raises(ValueError):
        FieldSpec.from_tag("fp:100")
    with pytest.raises(ValueError):
        FieldSpec.from_tag("zz")


def test_field_scalar_io():
    assert F101.of("3/2") == 3 * pow(2, 99, 101) % 101
    assert RATIONALS.of("3/2") == Fraction(3, 2)
    assert RATIONALS.to_json(Fraction(3, 2)) == "3/2"
    assert RATIONALS.to_json(Fraction(4, 2)) == 2


def test_rref_identity():
    m = Mat.identity(F101, 2)
    red, rk, piv = rref(F101, m)
    assert rk == 2 and piv == [0, 1] and red.entries == m.entries


def test_rref_zero():
    m = Mat.zero(F101, 3, 4)
    _, rk, piv = rref(F101, m)
    assert rk == 0 and piv == []


def test_rref_dependent_rows():
    # second row is twice the first, so the rank drops to 2
    m = Mat.from_rows([[Fraction(1), Fraction(2), Fraction(3)],
                       [Fraction(2), Fraction(4), Fraction(6)],
                       [Fraction(0), Fraction(1), Fraction(1)]])
    _, rk, piv = rref(RATIONALS, m)
    assert rk == 2 and piv == [0, 1]


@pytest.mark.parametrize("field", [F101, RATIONALS])
def test_rref_idempotent_and_rank_transpose(field):
    rng = random.Random(7)
    for _ in range(15):
        m = rand_mat(field, rng, rng.randint(1, 5), rng.randint(1, 5))
        red, rk, _ = rref(field, m)
        red2, rk2, _ = rref(field, red)
        assert red2.entries == red.entries and rk2 == rk
        assert rank(field, transpose(m)) == rk
        assert m.cols == rk + len(kernel_basis(field, m))


def test_kernel_identity_and_zero():
    assert kernel_basis(F101, Mat.identity(F101, 3)) == []
    assert len(kernel_basis(F101, Mat.zero(F101, 2, 3))) == 3


def test_kernel_of_sum_row():
    vecs = kernel_basis(RATIONALS, Mat.from_rows([[Fraction(1)] * 3]))
    assert len(vecs) == 2
    for v in vecs:
        assert sum(v) == 0


@pytest.mark.parametrize("field", [F101, RATIONALS])
def test_kernel_substitutes_back(field):
    rng = random.Random(11)
    for _ in range(10):
        m = rand_mat(field, rng, rng.randint(1, 4), rng.randint(2, 6))
        for v in kernel_basis(field, m):
            for i in range(m.rows):
                acc = field.zero
                for j in range(m.cols):
                    acc = field.add(acc, field.mul(m.at(i, j), v[j]))
                assert field.is_zero(acc)


def _cofactor_det(field, m):
    n = m.rows
    if n == 1:
        return m.at(0, 0)
    acc = field.zero
    for j in range(n):
        minor = Mat.from_rows(
            [[m.at(i, k) for k in range(n) if k != j] for i in range(1, n)]
        )
        term = field.mul(m.at(0, j), _cofactor_det(field, minor))
        acc = field.add(acc, term) if j % 2 == 0 else field.sub(acc, term)
    return acc


def test_det_examples():
    assert det(F101, Mat.identity(F101, 4)) == 1
    assert det(RATIONALS, Mat.from_rows([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])) == -2
    with pytest.raises(ValueError):
        det(F101, Mat.zero(F101, 2, 3))


@pytest.mark.parametrize("field", [F101, RATIONALS, prime_field(4294967311)])
def test_det_matches_cofactor_oracle(field):
    rng = random.Random(13)
    for _ in range(6):
        m = rand_mat(field, rng, 6, 6) if field.kind == "fp" else rand_mat(field, rng, 4, 4)
        assert det(field, m) == _cofactor_det(field, m)
        assert (not field.is_zero(det(field, m))) == (rank(field, m) == m.rows)


def test_solve_and_inverse():
    rng = random.Random(17)
    for _ in range(10):
        m = rand_mat(F101, rng, 4, 4)
        if rank(F101, m) < 4:
            continue
        inv = mat_inverse(F101, m)
        assert mat_mul(F101, m, inv).entries == Mat.identity(F101, 4).entries
        b = [rng.randrange(101) for _ in range(4)]
        x = solve_exact(F101, m, b)
        for i in range(4):
            assert sum(m.at(i, j) * x[j] for j in range(4)) % 101 == b[i]
    assert solve_exact(F101, Mat.from_rows([[1, 0], [1, 0]]), [0, 1]) is None


# -- univariate polynomials -------------------------------------------------


def test_upoly_examples():
    # gcd(x^2 - 1, x - 1) = x - 1
    g = up_gcd(F101, [100, 0, 1], [100, 1])
    assert g == [100, 1]
    # x^3 = x * x^2 + 0
    q, r = up_divrem(F101, [0, 0, 0, 1], [0, 1])
    assert q == [0, 0, 1] and r == []
    with pytest.raises(ZeroDivisionError):
        up_divrem(F101, [1], [])


def test_upoly_product_division_exact():
    rng = random.Random(19)
    for field in (F101, RATIONALS):
        for _ in range(10):
            a = [field.of(rng.randint(-5, 5)) for _ in range(rng.randint(1, 6))] + [field.one]
            b = [field.of(rng.randint(-5, 5)) for _ in range(rng.randint(1, 6))] + [field.one]
            prod = up_mul(field, a, b)
            q, r = up_divrem(field, prod, b)
            assert r == [] and q == up_trim(field, a)


def test_gcd_recovers_constructed_factor():
    # gcd(s*u, s*v) = s whenever u and v are coprime
    rng = random.Random(23)
    done = 0
    while done < 10:
        shared = up_monic(F101, [rng.randrange(101) for _ in range(3)] + [1])
        u = [rng.randrange(101), 1]
        v = [rng.randrange(101), rng.randrange(101), 1]
        if up_gcd(F101, u, v) != [1]:
            continue
        g = up_gcd(F101, up_mul(F101, shared, u), up_mul(F101, shared, v))
        assert g == shared
        done += 1


def test_squarefree_examples():
    # (x - 1)^2 -> x - 1
    assert up_squarefree_part(RATIONALS, [Fraction(1), Fraction(-2), Fraction(1)]) == [
        Fraction(-1),
        Fraction(1),
    ]
    assert up_squarefree_part(RATIONALS, [Fraction(1), Fraction(0), Fraction(1)]) == [
        Fraction(1),
        Fraction(0),
        Fraction(1),
    ]


def test_squarefree_constructed():
    rng = random.Random(29)
    for _ in range(8):
        f = up_monic(F101, [rng.randrange(101), rng.randrange(101), 1])
        g = up_monic(F101, [rng.randrange(101), 1])
        f = up_squarefree_part(F101, f)
        if up_gcd(F101, f, g) != [1]:
            continue
        built = up_mul(F101, f, up_mul(F101, g, g))
        assert up_squarefree_part(F101, built) == up_monic(F101, up_mul(F101, f, g))


def _nonresidue(p):
    for a in range(2, p):
        if pow(a, (p - 1) // 2, p) == p - 1:
            return a
    raise AssertionError


def _cubic_without_roots(rng, p):
    while True:
        f = [rng.randrange(p), rng.randrange(p), rng.randrange(p), 1]
        if all(up_eval(prime_field(p), f, x) != 0 for x in range(p)):
            return f


def test_distinct_degree_examples():
    a = _nonresidue(101)
    assert distinct_degree_profile(F101, [(-a) % 101, 0, 1]) == [(2, 2)]
    # x (x-1) (x-2)
    f = up_mul(F101, up_mul(F101, [0, 1], [100, 1]), [99, 1])
    assert distinct_degree_profile(F101, f) == [(1, 3)]
    with pytest.raises(ValueError):
        distinct_degree_profile(F101, up_mul(F101, [0, 1], [0, 1]))


def test_distinct_degree_constructed_product():
    rng = random.Random(31)
    p = 101
    a1, a2 = rng.sample(range(p), 2)
    n = _nonresidue(p)
    quads = [up_trim(F101, [(-n) % p, 0, 1]), up_trim(F101, [(-n * 4) % p, 0, 1])]
    cubs = [_cubic_without_roots(rng, p)]
    while True:
        c = _cubic_without_roots(rng, p)
        if c != cubs[0]:
            cubs.append(c)
            break
    f = [1]
    for piece in ([(-a1) % p, 1], [(-a2) % p, 1], *quads, *cubs):
        f = up_mul(F101, f, piece)
    assert distinct_degree_profile(F101, f) == [(1, 2), (2, 4), (3, 6)]


def test_distinct_degree_bucket_sum_random():
    rng = random.Random(37)
    found = 0
    while found < 5:
        f = [rng.randrange(101) for _ in range(12)] + [1]
        if up_squarefree_part(F101, f) != up_monic(F101, f):
            continue
        prof = distinct_degree_profile(F101, f)
        assert sum(t for _, t in prof) == 12
        found += 1


def test_interpolation_roundtrip():
    rng = random.Random(41)
    xs = [F101.of(i) for i in range(8)]
    coeffs = [rng.randrange(101) for _ in range(8)]
    ys = [up_eval(F101, coeffs, x) for x in xs]
    assert up_interpolate(F101, xs, ys) == up_trim(F101, coeffs)


def test_derivative_and_binomial():
    assert up_derivative(RATIONALS, [Fraction(5), Fraction(3), Fraction(2)]) == [Fraction(3), Fraction(4)]
    assert binomial(6, 2) == 15 and binomial(3, 5) == 0
