"""Exact scalar arithmetic, dense linear algebra and univariate polynomials.

Scalars are plain ``int`` over a prime field (kept reduced into ``[0, p)``)
and ``fractions.Fraction`` over the rationals.  Everything here is a pure
function on immutable values; no floating point is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


class DegenerateInputError(ValueError):
    """Raised when an input violates a geometric or arithmetic precondition."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: the rationals ("q") or a prime field ("fp")."""

    kind: str
    p: int = 0

    def __post_init__(self):
        if self.kind == "q":
            if self.p:
                raise ValueError("rationals carry no modulus")
        elif self.kind == "fp":
            if not is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    # -- construction / serialization ------------------------------------

    @property
    def tag(self) -> str:
        return "q" if self.kind == "q" else f"fp:{self.p}"

    @classmethod
    def from_tag(cls, tag: str) -> "FieldSpec":
        if tag == "q":
            return cls("q")
        if isinstance(tag, str) and tag.startswith("fp:"):
            return cls("fp", int(tag[3:]))
        raise ValueError(f"bad field tag {tag!r} (expected 'q' or 'fp:<p>')")

    def characteristic(self) -> int:
        return self.p if self.kind == "fp" else 0

    # -- scalar arithmetic -------------------------------------------------

    @property
    def zero(self):
        return 0 if self.kind == "fp" else Fraction(0)

    @property
    def one(self):
        return 1 if self.kind == "fp" else Fraction(1)

    def of(self, n):
        """Coerce an int, Fraction or 'num/den' string into the field."""
        if self.kind == "fp":
            if isinstance(n, str):
                num, _, den = n.partition("/")
                return int(num) * self.inv(int(den) % self.p) % self.p if den else int(num) % self.p
            if isinstance(n, Fraction):
                return int(n.numerator) * self.inv(n.denominator % self.p) % self.p
            return int(n) % self.p
        if isinstance(n, str):
            return Fraction(n)
        return Fraction(n)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "fp" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "fp" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "fp" else -a

    def inv(self, a):
        if self.kind == "fp":
            a %= self.p
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1) / a

    def div(self, a, b):
        return self.mul(a, self.inv(b)) if self.kind == "fp" else a / b

    def is_zero(self, a) -> bool:
        return a == 0

    def to_json(self, a):
        if self.kind == "fp":
            return int(a)
        a = Fraction(a)
        return int(a) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"


RATIONALS = FieldSpec("q")


def prime_field(p: int) -> FieldSpec:
    return FieldSpec("fp", p)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mat:
    """Dense matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @classmethod
    def from_rows(cls, rows_list) -> "Mat":
        r = len(rows_list)
        c = len(rows_list[0]) if r else 0
        flat = tuple(v for row in rows_list for v in row)
        return cls(r, c, flat)

    @classmethod
    def zero(cls, field: FieldSpec, r: int, c: int) -> "Mat":
        return cls(r, c, (field.zero,) * (r * c))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Mat":
        z, o = field.zero, field.one
        return cls.from_rows([[o if i == j else z for j in range(n)] for i in range(n)])


def transpose(m: Mat) -> Mat:
    return Mat.from_rows([[m.at(i, j) for i in range(m.rows)] for j in range(m.cols)]) if m.rows and m.cols else Mat(m.cols, m.rows, ())


def mat_mul(field: FieldSpec, a: Mat, b: Mat) -> Mat:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    out = []
    for i in range(a.rows):
        arow = a.row(i)
        orow = []
        for j in range(b.cols):
            s = field.zero
            for k in range(a.cols):
                s = field.add(s, field.mul(arow[k], b.at(k, j)))
            orow.append(s)
        out.append(orow)
    return Mat.from_rows(out) if a.rows else Mat(0, b.cols, ())


def rref(field: FieldSpec, m: Mat):
    """Reduced row echelon form.

    Returns ``(reduced, rank, pivot_columns)``.  Pivoting is deterministic:
    the first row with a nonzero entry in column order.
    """
    a = m.to_lists()
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        sel = -1
        for i in range(r, m.rows):
            if not field.is_zero(a[i][c]):
                sel = i
                break
        if sel < 0:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, v) for v in a[r]]
        for i in range(m.rows):
            if i != r and not field.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [field.sub(a[i][j], field.mul(f, a[r][j])) for j in range(m.cols)]
        pivots.append(c)
        r += 1
    reduced = Mat.from_rows(a) if m.rows else m
    return reduced, len(pivots), pivots


def rank(field: FieldSpec, m: Mat) -> int:
    return rref(field, m)[1]


def kernel_basis(field: FieldSpec, m: Mat) -> list:
    """Canonical basis of the right null space.

    One vector per non-pivot column, with that free coordinate set to 1.
    """
    red, _, pivots = rref(field, m)
    pivot_set = set(pivots)
    basis = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        v = [field.zero] * m.cols
        v[j] = field.one
        for r, c in enumerate(pivots):
            v[c] = field.neg(red.at(r, j))
        basis.append(tuple(v))
    return basis


def _det_bareiss_int(a: list) -> int:
    """Fraction-free determinant of an integer matrix (exact)."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            sel = -1
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    sel = i
                    break
            if sel < 0:
                return 0
            a[k], a[sel] = a[sel], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det(field: FieldSpec, m: Mat):
    """Exact determinant by fraction-free Bareiss elimination.

    Over F_p it runs on the residues and reduces the integer result mod p;
    over the rationals on the rows cleared of their denominators.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return field.one
    if field.kind == "fp":
        return _det_bareiss_int(m.to_lists()) % field.p
    scale = Fraction(1)
    a = []
    for i in range(n):
        row = [Fraction(v) for v in m.row(i)]
        d = lcm(*(v.denominator for v in row))
        scale *= d
        a.append([int(v * d) for v in row])
    return Fraction(_det_bareiss_int(a), 1) / scale


def solve_exact(field: FieldSpec, m: Mat, b):
    """One exact solution of ``m x = b`` or None when inconsistent."""
    aug = Mat.from_rows([list(m.row(i)) + [b[i]] for i in range(m.rows)])
    red, rk, pivots = rref(field, aug)
    if m.cols in pivots:
        return None
    x = [field.zero] * m.cols
    for r, c in enumerate(pivots):
        x[c] = red.at(r, m.cols)
    return tuple(x)


def mat_inverse(field: FieldSpec, m: Mat) -> Mat:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    ident = Mat.identity(field, n)
    aug = Mat.from_rows([list(m.row(i)) + list(ident.row(i)) for i in range(n)])
    red, rk, pivots = rref(field, aug)
    if rk < n or pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return Mat.from_rows([list(red.row(i))[n:] for i in range(n)])


# ---------------------------------------------------------------------------
# Univariate polynomials (dense coefficient lists, lowest degree first;
# the zero polynomial is the empty list)
# ---------------------------------------------------------------------------


def up_trim(field: FieldSpec, a) -> list:
    a = list(a)
    while a and field.is_zero(a[-1]):
        a.pop()
    return a


def up_deg(a) -> int:
    return len(a) - 1


def up_add(field: FieldSpec, a, b) -> list:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero
        y = b[i] if i < len(b) else field.zero
        out.append(field.add(x, y))
    return up_trim(field, out)


def up_scale(field: FieldSpec, a, c) -> list:
    return up_trim(field, [field.mul(c, v) for v in a])


def up_mul(field: FieldSpec, a, b) -> list:
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return up_trim(field, out)


def up_divrem(field: FieldSpec, a, b):
    """(q, r) with a = q*b + r and deg r < deg b."""
    b = up_trim(field, b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    r = list(a)
    q = [field.zero] * max(len(a) - len(b) + 1, 0)
    inv_lead = field.inv(b[-1])
    while len(r) >= len(b) and up_trim(field, r):
        r = up_trim(field, r)
        if len(r) < len(b):
            break
        k = len(r) - len(b)
        c = field.mul(r[-1], inv_lead)
        q[k] = c
        for i, v in enumerate(b):
            r[k + i] = field.sub(r[k + i], field.mul(c, v))
    return up_trim(field, q), up_trim(field, r)


def up_monic(field: FieldSpec, a) -> list:
    a = up_trim(field, a)
    if not a:
        return a
    return up_scale(field, a, field.inv(a[-1]))


def up_gcd(field: FieldSpec, a, b) -> list:
    """Monic greatest common divisor."""
    a, b = up_trim(field, a), up_trim(field, b)
    while b:
        _, r = up_divrem(field, a, b)
        a, b = b, r
    return up_monic(field, a)


def up_derivative(field: FieldSpec, a) -> list:
    return up_trim(field, [field.mul(field.of(i), a[i]) for i in range(1, len(a))])


def up_eval(field: FieldSpec, a, x):
    acc = field.zero
    for c in reversed(a):
        acc = field.add(field.mul(acc, x), c)
    return acc


def up_squarefree_part(field: FieldSpec, a) -> list:
    """a / gcd(a, a'), monic.  Needs char 0 or p > deg a."""
    a = up_trim(field, a)
    if not a:
        raise ZeroDivisionError("squarefree part of 0")
    if field.kind == "fp" and field.p <= up_deg(a):
        raise ValueError("squarefree part needs p > deg")
    g = up_gcd(field, a, up_derivative(field, a))
    q, r = up_divrem(field, a, g)
    assert not r
    return up_monic(field, q)


def up_pow_mod(field: FieldSpec, base, e: int, mod) -> list:
    """base^e modulo mod (binary exponentiation)."""
    result = [field.one]
    b = up_divrem(field, base, mod)[1]
    while e:
        if e & 1:
            result = up_divrem(field, up_mul(field, result, b), mod)[1]
        b = up_divrem(field, up_mul(field, b, b), mod)[1]
        e >>= 1
    return result


def distinct_degree_profile(field: FieldSpec, a):
    """Degrees of irreducible factors of a squarefree polynomial over F_p.

    Returns ``[(factor_degree, total_degree_in_bucket), ...]`` found by
    iterated Frobenius gcds with x^(p^k) - x.  Bucket degrees sum to deg a.
    """
    if field.kind != "fp":
        raise ValueError("distinct-degree split needs a prime field")
    a = up_monic(field, a)
    if up_deg(a) < 1:
        return []
    if up_deg(up_gcd(field, a, up_derivative(field, a))) > 0:
        raise ValueError("input is not squarefree")
    buckets = []
    x = [field.zero, field.one]
    h = up_divrem(field, x, a)[1]
    k = 0
    while up_deg(a) >= 1:
        k += 1
        if up_deg(a) < 2 * k:
            buckets.append((up_deg(a), up_deg(a)))
            break
        h = up_pow_mod(field, h, field.p, a)
        g = up_gcd(field, up_add(field, h, up_scale(field, x, field.neg(field.one))), a)
        if up_deg(g) > 0:
            buckets.append((k, up_deg(g)))
            a, r = up_divrem(field, a, g)
            assert not r
            h = up_divrem(field, h, a)[1]
    return buckets


def up_interpolate(field: FieldSpec, xs, ys) -> list:
    """Unique polynomial of degree < len(xs) through the given points."""
    n = len(xs)
    coef = list(ys)
    inverses = {}  # an equally spaced grid has only n - 1 distinct differences
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            d = field.sub(xs[i], xs[i - j])
            if d not in inverses:
                inverses[d] = field.inv(d)
            coef[i] = field.mul(field.sub(coef[i], coef[i - 1]), inverses[d])
    # Newton basis -> monomial basis
    poly = []
    for i in range(n - 1, -1, -1):
        poly = up_add(field, up_mul(field, poly, [field.neg(xs[i]), field.one]), [coef[i]])
    return poly


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out
