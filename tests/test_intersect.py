import random
from fractions import Fraction

import pytest

from jumplines.algebra import binomial
from jumplines.intersect import (
    ChernPoly,
    chern_inverse,
    chern_mul,
    chern_pow,
    cokernel_chern,
    cokernel_rank,
    jumping_length,
    tangency_degree,
)


def test_chern_mul_example():
    assert chern_mul(ChernPoly.of(1, 1), ChernPoly.of(1, -1)) == ChernPoly.of(1, 0, -1)


def test_chern_inverse_example():
    assert chern_inverse(ChernPoly.of(1, -2)) == ChernPoly.of(1, 2, 4)
    with pytest.raises(ZeroDivisionError):
        chern_inverse(ChernPoly.of(0, 1))


def test_chern_inverse_property():
    rng = random.Random(3)
    for _ in range(20):
        a = ChernPoly.of(Fraction(rng.randint(1, 9)), rng.randint(-9, 9), rng.randint(-9, 9))
        assert chern_mul(a, chern_inverse(a)) == ChernPoly.of(1)
        assert chern_mul(chern_inverse(a), a) == ChernPoly.of(1)


def test_cokernel_chern_values():
    assert cokernel_chern(2) == ChernPoly.of(1, 2, 4)
    # exponent binom(3,2) = 3: coefficients from the negative binomial series
    assert cokernel_chern(3) == ChernPoly.of(1, 6, 24)
    assert cokernel_rank(3) == 7 and cokernel_rank(4) == 9
    for n in range(2, 9):
        assert cokernel_rank(n) == 2 * n + 1


def test_tangency_degree_values():
    assert tangency_degree(2) == (6, 0)
    assert tangency_degree(3) == (8, 12)  # the discriminant of plane cubics
    assert tangency_degree(4) == (10, 60)


def test_tangency_degree_closed_form_range():
    for n in range(2, 13):
        dim, deg = tangency_degree(n)
        assert dim == 2 * n + 2
        assert deg == (n + 1) * n * (n - 1) * (n - 2) // 2


def test_shifted_instance_is_gamma_count():
    # the extra-jumping count for 2n points is the degree one step down
    for n in range(4, 9):
        assert tangency_degree(n - 1)[1] == n * (n - 1) * (n - 2) * (n - 3) // 2
    assert tangency_degree(3)[1] == 12


def test_jumping_length_identity():
    assert jumping_length(4) == 36
    assert jumping_length(3) == 6
    assert jumping_length(2) == 0
    for n in range(2, 51):
        assert jumping_length(n) == binomial((n - 1) ** 2, 2)


def test_chern_pow():
    a = ChernPoly.of(1, -2)
    assert chern_pow(a, 2) == ChernPoly.of(1, -4, 4)
    assert chern_pow(a, -1) == chern_inverse(a)
    assert chern_pow(a, 0) == ChernPoly.of(1)


@pytest.mark.parametrize("a", [ChernPoly.of(1, -2), ChernPoly.of(Fraction(3, 2), -2, 5), ChernPoly.of(-1, 7, Fraction(-1, 3))])
def test_chern_pow_is_repeated_multiplication(a):
    # the squaring steps must give exactly the product of |e| factors
    inv = chern_inverse(a)
    for e in range(-70, 71):
        want = ChernPoly.of(1)
        for _ in range(abs(e)):
            want = chern_mul(want, a if e > 0 else inv)
        assert chern_pow(a, e) == want, e
