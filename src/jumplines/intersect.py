"""Truncated intersection arithmetic on the plane (h^3 = 0).

Reproduces the closed-form dimension and degree of the variety of plane
curves of degree n with a point of multiplicity n-1, and the length split of
the jumping scheme, from Chern/Segre class bookkeeping alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import binomial


@dataclass(frozen=True)
class ChernPoly:
    """a0 + a1*h + a2*h^2 with h^3 = 0, exact rational coefficients."""

    a0: Fraction
    a1: Fraction
    a2: Fraction

    @classmethod
    def of(cls, a0, a1=0, a2=0) -> "ChernPoly":
        return cls(Fraction(a0), Fraction(a1), Fraction(a2))


def chern_mul(a: ChernPoly, b: ChernPoly) -> ChernPoly:
    return ChernPoly(
        a.a0 * b.a0,
        a.a0 * b.a1 + a.a1 * b.a0,
        a.a0 * b.a2 + a.a1 * b.a1 + a.a2 * b.a0,
    )


def chern_inverse(a: ChernPoly) -> ChernPoly:
    if a.a0 == 0:
        raise ZeroDivisionError("constant term must be nonzero")
    b0 = Fraction(1) / a.a0
    b1 = -a.a1 * b0 * b0
    b2 = (a.a1 * a.a1 - a.a0 * a.a2) * b0 * b0 * b0
    return ChernPoly(b0, b1, b2)


def chern_pow(a: ChernPoly, e: int) -> ChernPoly:
    """a^e by repeated squaring (a^-e is the inverse's power)."""
    out = ChernPoly.of(1)
    base = a
    if e < 0:
        base = chern_inverse(a)
        e = -e
    while e:
        if e & 1:
            out = chern_mul(out, base)
        e >>= 1
        if e:
            base = chern_mul(base, base)
    return out


def cokernel_chern(n: int) -> ChernPoly:
    """Total Chern class of the derivative-map cokernel bundle.

    The bundle sits in 0 -> O(-2)^binom(n,2) -> O^binom(n+2,2) -> E -> 0,
    so c(E) = (1 - 2h)^(-binom(n,2)) truncated at h^2.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return chern_pow(ChernPoly.of(1, -2, 0), -binomial(n, 2))


def cokernel_rank(n: int) -> int:
    return binomial(n + 2, 2) - binomial(n, 2)


def tangency_degree(n: int):
    """(dimension, degree) of the curves of degree n with an (n-1)-fold point.

    The dimension is 2n+2; the degree is the second Segre-type number
    c1^2 - c2 of the cokernel bundle, which must agree with the closed form
    (n+1)n(n-1)(n-2)/2 (anchored at n = 3: the degree-12 discriminant of
    plane cubics).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    c = cokernel_chern(n)
    dim = 2 + cokernel_rank(n) - 1
    deg = c.a1 * c.a1 - c.a2
    if deg.denominator != 1:
        raise ArithmeticError("degree is not an integer")
    closed = (n + 1) * n * (n - 1) * (n - 2) // 2
    if int(deg) != closed:
        raise ArithmeticError(f"Chern arithmetic gives {deg}, closed form gives {closed}")
    return dim, int(deg)


def length_accounting(n: int):
    """(total, part on Z, part on Gamma) of the length of the jumping scheme.

    total = binom((n-1)^2, 2) splits as 2n * binom(n-1, 2) from the n-fold
    points of Z plus n(n-1)(n-2)(n-3)/2 from Gamma.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    total = binomial((n - 1) ** 2, 2)
    z_part = 2 * n * binomial(n - 1, 2)
    gamma_part = n * (n - 1) * (n - 2) * (n - 3) // 2
    if total != z_part + gamma_part:
        raise ArithmeticError("length split identity failed")
    return total, z_part, gamma_part


def jumping_length(n: int) -> int:
    """Total length binom((n-1)^2, 2), checked against its split."""
    return length_accounting(n)[0]
